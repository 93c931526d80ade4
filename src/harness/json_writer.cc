#include "harness/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "harness/atomic_file.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"

namespace crn::harness {

Json Json::Object() {
  Json json;
  json.value_ = JsonObject{};
  return json;
}

Json Json::Array() {
  Json json;
  json.value_ = JsonArray{};
  return json;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  auto* object = std::get_if<JsonObject>(&value_);
  CRN_CHECK(object != nullptr) << "Json::operator[] on a non-object";
  for (auto& [existing_key, value] : *object) {
    if (existing_key == key) return value;
  }
  object->emplace_back(key, Json());
  return object->back().second;
}

void Json::Push(Json element) {
  if (is_null()) value_ = JsonArray{};
  auto* array = std::get_if<JsonArray>(&value_);
  CRN_CHECK(array != nullptr) << "Json::Push on a non-array";
  array->push_back(std::move(element));
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string FormatJsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  CRN_CHECK(ec == std::errc());
  return std::string(buffer, end);
}

std::string DigestHex(std::uint64_t digest) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

void Json::DumpValue(std::ostream& out, int depth) const {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(depth + 1) * 2, ' ');
  if (const auto* object = std::get_if<JsonObject>(&value_)) {
    if (object->empty()) {
      out << "{}";
      return;
    }
    out << "{\n";
    for (std::size_t i = 0; i < object->size(); ++i) {
      out << inner_pad << '"' << JsonEscape((*object)[i].first) << "\": ";
      (*object)[i].second.DumpValue(out, depth + 1);
      out << (i + 1 < object->size() ? ",\n" : "\n");
    }
    out << pad << '}';
  } else if (const auto* array = std::get_if<JsonArray>(&value_)) {
    if (array->empty()) {
      out << "[]";
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < array->size(); ++i) {
      out << inner_pad;
      (*array)[i].DumpValue(out, depth + 1);
      out << (i + 1 < array->size() ? ",\n" : "\n");
    }
    out << pad << ']';
  } else if (const auto* text = std::get_if<std::string>(&value_)) {
    out << '"' << JsonEscape(*text) << '"';
  } else if (const auto* boolean = std::get_if<bool>(&value_)) {
    out << (*boolean ? "true" : "false");
  } else if (const auto* signed_int = std::get_if<std::int64_t>(&value_)) {
    out << *signed_int;
  } else if (const auto* unsigned_int = std::get_if<std::uint64_t>(&value_)) {
    out << *unsigned_int;
  } else if (const auto* real = std::get_if<double>(&value_)) {
    out << FormatJsonNumber(*real);
  } else {
    out << "null";
  }
}

void Json::Dump(std::ostream& out) const { DumpValue(out, 0); }

std::string Json::ToString() const {
  std::ostringstream out;
  Dump(out);
  return out.str();
}

namespace {

double Ci95HalfWidth(const core::SampleStats& stats) {
  if (stats.count < 2) return 0.0;
  // Normal approximation; repetition counts are small, so this is a
  // readability aid, not an inference claim.
  return 1.96 * stats.stddev / std::sqrt(static_cast<double>(stats.count));
}

}  // namespace

Json ToJson(const core::SampleStats& stats) {
  Json json = Json::Object();
  json["mean"] = stats.mean;
  json["stddev"] = stats.stddev;
  json["min"] = stats.min;
  json["max"] = stats.max;
  json["count"] = static_cast<std::uint64_t>(stats.count);
  json["ci95"] = Ci95HalfWidth(stats);
  return json;
}

Json ToJson(const ComparisonSummary& summary, const std::string& label) {
  Json json = Json::Object();
  json["label"] = label;
  json["addc_delay_ms"] = ToJson(summary.addc_delay_ms);
  json["coolest_delay_ms"] = ToJson(summary.coolest_delay_ms);
  json["delay_ratio"] = summary.delay_ratio;
  json["addc_capacity"] = ToJson(summary.addc_capacity);
  json["coolest_capacity"] = ToJson(summary.coolest_capacity);
  json["addc_jain_mean"] = summary.addc_jain_mean;
  json["coolest_jain_mean"] = summary.coolest_jain_mean;
  json["addc_completed"] = static_cast<std::int64_t>(summary.addc_completed);
  json["coolest_completed"] = static_cast<std::int64_t>(summary.coolest_completed);
  json["su_caused_violations"] = summary.su_caused_violations;
  json["theorem2_bound_ms_mean"] = summary.theorem2_bound_ms_mean;
  if (summary.addc_trace_digest != 0) {
    json["addc_trace_digest"] = DigestHex(summary.addc_trace_digest);
  }
  return json;
}

Json ToJson(const SweepResult& result) {
  Json json = Json::Object();
  json["title"] = result.title;
  json["parameter"] = result.parameter_name;
  json["repetitions"] = static_cast<std::int64_t>(result.repetitions);
  json["jobs"] = static_cast<std::int64_t>(result.jobs);
  json["seed"] = result.seed;
  if (result.trace_digest != 0) {
    json["trace_digest"] = DigestHex(result.trace_digest);
  }
  json["wall_seconds"] = result.wall_seconds;
  Json points = Json::Array();
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    points.Push(ToJson(result.summaries[i], result.labels[i]));
  }
  json["points"] = std::move(points);
  if (result.pool.tasks > 0) {
    // Scheduling diagnostics from the fan-out engine. Steals depend on OS
    // scheduling, so they never enter the digest-compared registry state;
    // the chunk count bounds them (WorkCounterPinTest.DelaySweepN2000AtJobs1To4
    // checks it).
    Json pool = Json::Object();
    pool["tasks"] = result.pool.tasks;
    pool["chunks"] = result.pool.chunks;
    pool["steals"] = result.pool.steals;
    pool["workers"] = static_cast<std::int64_t>(result.pool.workers);
    json["pool"] = std::move(pool);
  }
  return json;
}

Json ToJson(const RunProfiler& profiler) {
  Json json = Json::Object();
  json["spans_total"] = static_cast<std::uint64_t>(profiler.spans().size());
  Json phases = Json::Array();
  for (const RunProfiler::PhaseStats& stats : profiler.PhaseSummary()) {
    Json phase = Json::Object();
    phase["phase"] = stats.phase;
    phase["count"] = stats.count;
    phase["total_s"] = stats.total_s;
    phase["mean_s"] =
        stats.count > 0 ? stats.total_s / static_cast<double>(stats.count) : 0.0;
    phase["min_s"] = stats.min_s;
    phase["max_s"] = stats.max_s;
    phases.Push(std::move(phase));
  }
  json["phases"] = std::move(phases);
  return json;
}

Json BenchEnvelope(const std::string& name, const BenchOptions& options) {
  Json json = Json::Object();
  // v2 = v1 plus the optional "profile" section (ToJson(RunProfiler)).
  json["schema_version"] = 2;
  json["bench"] = name;
  json["source"] = "Cai et al., ICDCS 2012 (ADDC reproduction)";
  Json scale = Json::Object();
  scale["full_scale"] = options.full_scale;
  scale["num_sus"] = static_cast<std::int64_t>(options.base.num_sus);
  scale["num_pus"] = static_cast<std::int64_t>(options.base.num_pus);
  scale["area_side"] = options.base.area_side;
  scale["pu_activity"] = options.base.pu_activity;
  scale["repetitions"] = static_cast<std::int64_t>(options.repetitions);
  scale["seed"] = options.base.seed;
  json["scale"] = std::move(scale);
  json["jobs"] = static_cast<std::int64_t>(ResolveJobs(options.jobs));
  return json;
}

bool WriteJsonFile(const Json& root, const std::string& path) {
  // Render in memory, land atomically: a bench killed mid-write (or a
  // sweep consumer racing the writer) must never see a truncated JSON.
  std::ostringstream out;
  root.Dump(out);
  out << "\n";
  std::string error;
  if (!WriteFileAtomic(path, out.str(), &error)) {
    std::cerr << "json_writer: " << error << "\n";
    return false;
  }
  return true;
}

namespace {

std::string BenchJsonPath(const std::string& name, const BenchOptions& options) {
  return options.json_out.empty() ? "BENCH_" + name + ".json" : options.json_out;
}

bool FinishBenchJson(const std::string& name, const BenchOptions& options,
                     Json root, double wall_seconds, std::ostream& log,
                     const RunProfiler* profiler) {
  if (profiler != nullptr) root["profile"] = ToJson(*profiler);
  root["wall_seconds"] = wall_seconds;
  const std::string path = BenchJsonPath(name, options);
  if (!WriteJsonFile(root, path)) return false;
  log << "BENCH json: " << path << "\n";
  if (profiler != nullptr && !options.trace_out.empty()) {
    std::ostringstream trace;
    profiler->WriteChromeTrace(trace);
    std::string error;
    if (!WriteFileAtomic(options.trace_out, trace.str(), &error)) {
      std::cerr << "json_writer: " << error << "\n";
      return false;
    }
    log << "BENCH trace: " << options.trace_out << "\n";
  }
  return true;
}

}  // namespace

bool WriteBenchJson(const std::string& name, const BenchOptions& options,
                    const std::vector<SweepResult>& sweeps, double wall_seconds,
                    std::ostream& log, const RunProfiler* profiler) {
  Json root = BenchEnvelope(name, options);
  Json array = Json::Array();
  for (const SweepResult& sweep : sweeps) array.Push(ToJson(sweep));
  root["sweeps"] = std::move(array);
  return FinishBenchJson(name, options, std::move(root), wall_seconds, log,
                         profiler);
}

bool WriteBenchJson(const std::string& name, const BenchOptions& options,
                    Json series, double wall_seconds, std::ostream& log,
                    const RunProfiler* profiler) {
  Json root = BenchEnvelope(name, options);
  root["series"] = std::move(series);
  return FinishBenchJson(name, options, std::move(root), wall_seconds, log,
                         profiler);
}

}  // namespace crn::harness
