#include "sim/flight_recorder.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "sim/checkpoint.h"

namespace crn::sim {

namespace {

// Dump envelope. Fixed little-endian layout so dumps are portable across
// the machines that write and the machines that decode them.
constexpr char kMagic[8] = {'C', 'R', 'N', 'F', 'R', 'E', 'C', '1'};
constexpr std::size_t kRecordBytes = 8 + 8 + 8 + 4 + 2 + 1 + 1;

void WriteU16(std::ostream& out, std::uint16_t value) {
  char bytes[2];
  bytes[0] = static_cast<char>(value & 0xFFU);
  bytes[1] = static_cast<char>((value >> 8U) & 0xFFU);
  out.write(bytes, sizeof bytes);
}

void WriteU32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8U * i)) & 0xFFU);
  }
  out.write(bytes, sizeof bytes);
}

void WriteU64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8U * i)) & 0xFFU);
  }
  out.write(bytes, sizeof bytes);
}

bool ReadBytes(std::istream& in, char* buffer, std::size_t n) {
  in.read(buffer, static_cast<std::streamsize>(n));
  return in.gcount() == static_cast<std::streamsize>(n);
}

bool ReadU16(std::istream& in, std::uint16_t* value) {
  char bytes[2];
  if (!ReadBytes(in, bytes, sizeof bytes)) return false;
  *value = static_cast<std::uint16_t>(
      static_cast<unsigned char>(bytes[0]) |
      (static_cast<std::uint16_t>(static_cast<unsigned char>(bytes[1]))
       << 8U));
  return true;
}

bool ReadU32(std::istream& in, std::uint32_t* value) {
  char bytes[4];
  if (!ReadBytes(in, bytes, sizeof bytes)) return false;
  std::uint32_t out = 0;
  for (int i = 3; i >= 0; --i) {
    out = (out << 8U) | static_cast<unsigned char>(bytes[i]);
  }
  *value = out;
  return true;
}

bool ReadU64(std::istream& in, std::uint64_t* value) {
  char bytes[8];
  if (!ReadBytes(in, bytes, sizeof bytes)) return false;
  std::uint64_t out = 0;
  for (int i = 7; i >= 0; --i) {
    out = (out << 8U) | static_cast<unsigned char>(bytes[i]);
  }
  *value = out;
  return true;
}

bool DecodeFail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t depth) {
  ring_.resize(std::max<std::size_t>(depth, 1));
  kind_names_.emplace_back("unnamed");
}

void FlightRecorder::Record(SchedAction action, EventId seq, TimeNs time,
                            std::uint16_t kind, std::int32_t owner,
                            EventId parent_seq) {
  ring_[next_] = FlightRecord{seq, time, parent_seq, owner, kind, action};
  next_ = (next_ + 1 == ring_.size()) ? 0 : next_ + 1;
  count_ = std::min(count_ + 1, ring_.size());
  ++total_;
  if (counters_.size() <= kind) counters_.resize(kind + 1U);
  KindCounters& counts = counters_[kind];
  switch (action) {
    case SchedAction::kArm:
      ++counts.arms;
      break;
    case SchedAction::kReschedule:
      ++counts.reschedules;
      break;
    case SchedAction::kDisarm:
      ++counts.disarms;
      break;
    case SchedAction::kFire:
      ++counts.fires;
      break;
  }
}

void FlightRecorder::SetKindNames(std::vector<std::string> names) {
  kind_names_ = std::move(names);
  if (kind_names_.empty()) kind_names_.emplace_back("unnamed");
}

void FlightRecorder::OnKindRegistered(std::uint16_t id, std::string_view name) {
  if (kind_names_.size() <= id) kind_names_.resize(id + 1U);
  kind_names_[id] = std::string(name);
}

void FlightRecorder::AddFireWall(std::uint16_t kind, double seconds) {
  if (seconds <= 0.0) return;
  if (fire_wall_.size() <= kind) fire_wall_.resize(kind + 1U, 0.0);
  fire_wall_[kind] += seconds;
}

const FlightRecord& FlightRecorder::At(std::size_t i) const {
  CRN_CHECK(i < count_) << "record index " << i << " out of range (size "
                        << count_ << ")";
  const std::size_t oldest = (count_ < ring_.size()) ? 0 : next_;
  return ring_[(oldest + i) % ring_.size()];
}

std::string_view FlightRecorder::KindName(std::uint16_t id) const {
  if (id < kind_names_.size() && !kind_names_[id].empty()) {
    return kind_names_[id];
  }
  return "unnamed";
}

double FlightRecorder::fire_wall_seconds(std::uint16_t kind) const {
  return kind < fire_wall_.size() ? fire_wall_[kind] : 0.0;
}

void FlightRecorder::Clear() {
  next_ = 0;
  count_ = 0;
  total_ = 0;
  counters_.clear();
  fire_wall_.clear();
}

void FlightRecorder::WriteDump(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  WriteU64(out, ring_.size());
  WriteU64(out, total_);
  // Kind table covers both the registry mirror and any id the counters saw.
  const auto kind_count = static_cast<std::uint32_t>(
      std::max(kind_names_.size(), counters_.size()));
  WriteU32(out, kind_count);
  for (std::uint32_t id = 0; id < kind_count; ++id) {
    const std::string_view name =
        KindName(static_cast<std::uint16_t>(id));
    WriteU32(out, static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  for (std::uint32_t id = 0; id < kind_count; ++id) {
    const KindCounters counts =
        id < counters_.size() ? counters_[id] : KindCounters{};
    WriteU64(out, static_cast<std::uint64_t>(counts.arms));
    WriteU64(out, static_cast<std::uint64_t>(counts.reschedules));
    WriteU64(out, static_cast<std::uint64_t>(counts.disarms));
    WriteU64(out, static_cast<std::uint64_t>(counts.fires));
  }
  WriteU64(out, count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const FlightRecord& record = At(i);
    WriteU64(out, record.seq);
    WriteU64(out, static_cast<std::uint64_t>(record.time));
    WriteU64(out, record.parent_seq);
    WriteU32(out, static_cast<std::uint32_t>(record.owner));
    WriteU16(out, record.kind);
    const char tail[2] = {static_cast<char>(record.action), 0};
    out.write(tail, sizeof tail);
  }
}

bool FlightRecorder::ReadDump(std::istream& in, Dump* out,
                              std::string* error) {
  CRN_CHECK(out != nullptr);
  char magic[sizeof kMagic];
  if (!ReadBytes(in, magic, sizeof magic) ||
      !std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    return DecodeFail(error, "bad magic: not a CRNFREC1 flight dump");
  }
  if (!ReadU64(in, &out->depth) || !ReadU64(in, &out->total_recorded)) {
    return DecodeFail(error, "truncated header");
  }
  std::uint32_t kind_count = 0;
  if (!ReadU32(in, &kind_count)) return DecodeFail(error, "truncated header");
  // No reserve from the header's counts: a corrupt dump may declare 2^62
  // records in 36 bytes. The vectors grow only as entries actually decode,
  // so a lying count ends in a truncation error.
  out->kind_names.clear();
  for (std::uint32_t id = 0; id < kind_count; ++id) {
    std::uint32_t length = 0;
    if (!ReadU32(in, &length) || length > (1U << 20U)) {
      return DecodeFail(error, "truncated or oversized kind name");
    }
    std::string name(length, '\0');
    if (length > 0 && !ReadBytes(in, name.data(), length)) {
      return DecodeFail(error, "truncated kind name");
    }
    out->kind_names.push_back(std::move(name));
  }
  out->counters.clear();
  for (std::uint32_t id = 0; id < kind_count; ++id) {
    std::uint64_t values[4];
    for (std::uint64_t& value : values) {
      if (!ReadU64(in, &value)) {
        return DecodeFail(error, "truncated counter table");
      }
    }
    out->counters.push_back(
        KindCounters{static_cast<std::int64_t>(values[0]),
                     static_cast<std::int64_t>(values[1]),
                     static_cast<std::int64_t>(values[2]),
                     static_cast<std::int64_t>(values[3])});
  }
  std::uint64_t record_count = 0;
  if (!ReadU64(in, &record_count)) return DecodeFail(error, "truncated header");
  if (record_count > out->depth) {
    return DecodeFail(error, "record count exceeds declared depth");
  }
  out->records.clear();
  for (std::uint64_t i = 0; i < record_count; ++i) {
    FlightRecord record;
    std::uint64_t time = 0;
    std::uint32_t owner = 0;
    char tail[2];
    if (!ReadU64(in, &record.seq) || !ReadU64(in, &time) ||
        !ReadU64(in, &record.parent_seq) || !ReadU32(in, &owner) ||
        !ReadU16(in, &record.kind) || !ReadBytes(in, tail, sizeof tail)) {
      return DecodeFail(error, "truncated record stream");
    }
    record.time = static_cast<TimeNs>(time);
    record.owner = static_cast<std::int32_t>(owner);
    if (static_cast<unsigned char>(tail[0]) >
        static_cast<unsigned char>(SchedAction::kFire)) {
      return DecodeFail(error, "record carries an unknown action code");
    }
    record.action = static_cast<SchedAction>(tail[0]);
    if (record.kind >= kind_count) {
      return DecodeFail(error, "record references an unregistered kind id");
    }
    out->records.push_back(record);
  }
  static_assert(kRecordBytes == 32, "record layout drifted from DESIGN.md");
  return true;
}

template <class Self, class Ar>
void FlightRecorder::Transfer(Self& dump, Ar& ar) {
  if (!ar.BeginSection("flight")) return;
  ar.Io(dump.depth);
  ar.Io(dump.total_recorded);
  ar.Seq(dump.kind_names);
  ar.Seq(dump.counters, [](auto& io, auto& counts) {
    io.Io(counts.arms);
    io.Io(counts.reschedules);
    io.Io(counts.disarms);
    io.Io(counts.fires);
  });
  ar.template Seq<std::uint64_t>(dump.records, [](auto& io, auto& record) {
    io.Io(record.seq);
    io.Io(record.time);
    io.Io(record.parent_seq);
    io.Io(record.owner);
    io.Io(record.kind);
    io.Io(record.action);
  });
  ar.EndSection();
}

void FlightRecorder::SaveState(StateWriter& writer) const {
  Dump dump{ring_.size(), total_, kind_names_, counters_, {}};
  dump.records.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) dump.records.push_back(At(i));
  Transfer(dump, writer);
}

void FlightRecorder::LoadState(StateReader& reader) {
  Dump dump;
  Transfer(dump, reader);
  if (!reader.ok()) return;
  // RunOptions restores into a recorder of the saved run's depth; the blob
  // never sizes the ring.
  CRN_CHECK(dump.depth == ring_.size())
      << "cannot restore: the checkpoint's flight recorder has depth "
      << dump.depth << " but the attached recorder has depth " << ring_.size();
  CRN_CHECK(dump.records.size() <= dump.depth)
      << "corrupt flight checkpoint: " << dump.records.size()
      << " records exceed declared depth " << dump.depth;
  // Records land oldest-first at the ring base, so subsequent Record()
  // calls continue the rotation seamlessly (the dump walks records through
  // At(), which is rotation-invariant).
  std::fill(ring_.begin(), ring_.end(), FlightRecord{});
  std::copy(dump.records.begin(), dump.records.end(), ring_.begin());
  count_ = dump.records.size();
  next_ = count_ % ring_.size();
  total_ = dump.total_recorded;
  kind_names_ = std::move(dump.kind_names);
  if (kind_names_.empty()) kind_names_.emplace_back("unnamed");
  counters_ = std::move(dump.counters);
}

std::string FlightRecorder::FormatRecord(
    const FlightRecord& record, const std::vector<std::string>& kind_names) {
  std::ostringstream line;
  line << "#" << record.seq << " t=" << record.time << "ns "
       << ToString(record.action) << " ";
  if (record.kind < kind_names.size() && !kind_names[record.kind].empty()) {
    line << kind_names[record.kind];
  } else {
    line << "kind" << record.kind;
  }
  line << " node=" << record.owner << " parent=#" << record.parent_seq;
  return line.str();
}

std::string FlightRecorder::FormatTrail(std::size_t max_records) const {
  const std::size_t n = std::min(max_records, count_);
  std::ostringstream out;
  out << "flight recorder trail (last " << n << " of " << total_
      << " recorded):\n";
  for (std::size_t i = count_ - n; i < count_; ++i) {
    out << "  " << FormatRecord(At(i), kind_names_) << "\n";
  }
  return out.str();
}

}  // namespace crn::sim
