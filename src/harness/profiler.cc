#include "harness/profiler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "harness/work_stealing.h"

namespace crn::harness {

void RunProfiler::RecordSpan(std::string phase, std::string label,
                             double begin_s, double end_s, std::int32_t worker) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{std::move(phase), std::move(label), begin_s, end_s, worker});
}

RunProfiler::Scope::Scope(RunProfiler* profiler, std::string phase,
                          std::string label)
    : profiler_(profiler), phase_(std::move(phase)), label_(std::move(label)) {
  if (profiler_ != nullptr) begin_s_ = profiler_->Now();
}

RunProfiler::Scope::~Scope() {
  if (profiler_ == nullptr) return;
  profiler_->RecordSpan(std::move(phase_), std::move(label_), begin_s_,
                        profiler_->Now(), CurrentWorkerIndex());
}

std::vector<RunProfiler::Span> RunProfiler::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<RunProfiler::PhaseStats> RunProfiler::PhaseSummary() const {
  // std::map: phases come out sorted by name regardless of the wall-clock
  // completion order the spans were recorded in.
  std::map<std::string, PhaseStats> by_phase;
  for (const Span& span : spans()) {
    PhaseStats& stats = by_phase[span.phase];
    const double duration = span.end_s - span.begin_s;
    if (stats.count == 0) {
      stats.phase = span.phase;
      stats.min_s = duration;
      stats.max_s = duration;
    } else {
      stats.min_s = std::min(stats.min_s, duration);
      stats.max_s = std::max(stats.max_s, duration);
    }
    ++stats.count;
    stats.total_s += duration;
  }
  std::vector<PhaseStats> result;
  result.reserve(by_phase.size());
  for (auto& [name, stats] : by_phase) result.push_back(std::move(stats));
  return result;
}

std::vector<obs::ChromeTraceEvent> RunProfiler::ToChromeEvents() const {
  const std::vector<Span> all = spans();
  std::vector<obs::ChromeTraceEvent> events;
  events.reserve(all.size() + 1);
  std::int32_t max_worker = 0;
  for (const Span& span : all) {
    obs::ChromeTraceEvent event;
    event.name = span.label.empty() ? span.phase : span.label;
    event.category = span.phase;
    event.phase = obs::ChromeTraceEvent::Phase::kComplete;
    event.ts_us = span.begin_s * 1e6;
    event.dur_us = (span.end_s - span.begin_s) * 1e6;
    event.pid = 2;  // distinct from the sim-time trace's pid 1
    event.tid = span.worker;
    events.push_back(std::move(event));
    max_worker = std::max(max_worker, span.worker);
  }
  for (std::int32_t worker = 0; worker <= max_worker; ++worker) {
    obs::ChromeTraceEvent meta;
    meta.name = "thread_name";
    meta.category = "__metadata";
    meta.phase = obs::ChromeTraceEvent::Phase::kMetadata;
    meta.pid = 2;
    meta.tid = worker;
    meta.args.emplace_back(
        "name", worker == 0 ? std::string("main") : "worker-" + std::to_string(worker));
    events.push_back(std::move(meta));
  }
  return events;
}

void RunProfiler::WriteChromeTrace(std::ostream& out) const {
  obs::WriteChromeTrace(ToChromeEvents(), out);
}

void AttachFlightRecorderProbe(RunProfiler& profiler,
                               sim::FlightRecorder& recorder) {
  recorder.set_wall_probe([&profiler] { return profiler.Now(); });
}

void FoldFlightRecorderIntoProfiler(const sim::FlightRecorder& recorder,
                                    RunProfiler& profiler) {
  const std::vector<std::string>& names = recorder.kind_names();
  const std::vector<sim::KindCounters>& counters = recorder.counters();
  for (std::size_t k = 0; k < counters.size(); ++k) {
    const double wall =
        recorder.fire_wall_seconds(static_cast<std::uint16_t>(k));
    if (counters[k].fires == 0 && wall <= 0.0) continue;
    const std::string& name =
        k < names.size() && !names[k].empty() ? names[k] : names[0];
    profiler.RecordSpan("sched.fire:" + name,
                        "fires=" + std::to_string(counters[k].fires),
                        /*begin_s=*/0.0, /*end_s=*/wall, /*worker=*/0);
  }
}

}  // namespace crn::harness
