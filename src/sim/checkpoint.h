// Versioned, bit-exact checkpoint envelope (DESIGN.md §14).
//
// A checkpoint is a CRNCKPT1 blob: a fixed magic + format version followed
// by named sections, each carrying its own CRC-32. StateWriter builds the
// blob in memory (no file I/O here — the harness owns atomic persistence);
// StateReader validates the envelope and hands back typed reads.
//
// Integers are little-endian; doubles are bit-cast to u64, so every value
// round-trips bit-exactly — the foundation of the restore guarantee that a
// run checkpointed at event k and resumed produces the same trace/metrics
// digests as the uninterrupted run.
//
// Error handling follows the flight recorder's decode style, not
// exceptions (simulation callbacks must stay noexcept — the
// throw-in-callback lint): the reader latches the first failure, every
// subsequent read returns zero, and ok()/error() report an actionable
// message naming the section and the corruption. Adversarial input
// (truncated, bit-flipped, wrong magic, future version) must fail cleanly —
// never crash or read out of bounds; tests/sim/checkpoint_test.cc and the
// asan/ubsan corpus test pin that.
//
// Components participate through one symmetric field list (the
// Checkpointable protocol):
//   template <class Self, class Ar> static void Transfer(Self& self, Ar& ar);
// instantiated once with `const X` + StateWriter (SaveState) and once with
// `X` + StateReader (LoadState), so each checkpointed field is named once:
// `ar.Io(self.field_)` writes it on save and reads into it on load. Counts
// and node ids go through `ar.Seq` / `ar.FixedCount` / `ar.Id`, which bound
// what a blob may declare (a count larger than the bytes left in its
// section, an id outside the run) with a latched error naming the section.
// A part whose wire form really differs by direction (a derived value, a
// re-armed timer, a rebuilt index) keeps one `if constexpr (Ar::kLoading)`
// branch, which runs only after the section read cleanly. Closures are
// never serialized: restore reconstructs components fresh in the original
// bind order, loads their numeric state, and re-registers pending events
// under their original sequence numbers.
#ifndef CRN_SIM_CHECKPOINT_H_
#define CRN_SIM_CHECKPOINT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace crn::sim {

// Format identity. Bump kCheckpointVersion on any incompatible layout
// change; readers reject newer versions with an actionable message.
inline constexpr char kCheckpointMagic[8] = {'C', 'R', 'N', 'C',
                                             'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data` — the per-section
// integrity check. Exposed for tests and for the harness journal. Eight
// bytes per step (slice-by-8).
std::uint32_t Crc32(std::string_view data);
// The same CRC one byte per table step: the reference Crc32 is tested
// against.
std::uint32_t Crc32Bytewise(std::string_view data);

// Accumulates named sections into one CRNCKPT1 blob. Usage:
//   StateWriter writer;
//   writer.BeginSection("sim.core");
//   writer.Io(...); ...
//   writer.EndSection();
//   ... more sections ...
//   std::string blob = writer.Finish();
class StateWriter {
 public:
  static constexpr bool kLoading = false;

  StateWriter() = default;

  // Returns true so a Transfer can open its section the same way on both
  // sides (`if (!ar.BeginSection(name)) return;`).
  bool BeginSection(std::string_view name);
  void EndSection();
  [[nodiscard]] static constexpr bool ok() { return true; }

  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  void WriteU8(std::uint8_t value);
  void WriteU16(std::uint16_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI32(std::int32_t value) {
    WriteU32(static_cast<std::uint32_t>(value));
  }
  void WriteI64(std::int64_t value) {
    WriteU64(static_cast<std::uint64_t>(value));
  }
  // Bit-cast through u64: the double round-trips exactly.
  void WriteDouble(double value);
  // Length-prefixed (u32) byte string.
  void WriteString(std::string_view value);

  // --- symmetric transfer (the save side) ---
  void Io(const bool& value) { WriteBool(value); }
  void Io(const char& value) { WriteU8(static_cast<std::uint8_t>(value)); }
  void Io(const std::uint8_t& value) { WriteU8(value); }
  void Io(const std::uint16_t& value) { WriteU16(value); }
  void Io(const std::uint32_t& value) { WriteU32(value); }
  void Io(const std::uint64_t& value) { WriteU64(value); }
  void Io(const std::int32_t& value) { WriteI32(value); }
  void Io(const std::int64_t& value) { WriteI64(value); }
  void Io(const double& value) { WriteDouble(value); }
  void Io(const std::string& value) { WriteString(value); }
  // The four raw xoshiro state words.
  void Io(const crn::Rng& rng) {
    for (int i = 0; i < 4; ++i) WriteU64(rng.state_word(i));
  }
  // One-byte enums travel as their u8 value.
  template <class E>
    requires std::is_enum_v<E>
  void Io(const E& value) {
    static_assert(sizeof(E) == 1, "only one-byte enums have a wire form");
    WriteU8(static_cast<std::uint8_t>(value));
  }
  // An id the load side bounds to [lowest, limit).
  void Id(std::int32_t id, std::int32_t limit, std::int32_t lowest = 0) {
    CRN_DCHECK(id >= lowest && id < limit) << "id " << id;
    WriteI32(id);
  }
  // The length of a fixed-size array the loading run already has.
  void FixedCount(std::size_t count) { WriteCount<std::uint32_t>(count); }
  // A length-prefixed sequence: the count (u32, or `Width`), then `fn(*this,
  // item)` per item. `fn` is the item's field list; it must only transfer
  // (the load side also runs it once to size one item's wire form).
  template <class Width = std::uint32_t, class Items, class Fn>
  void Seq(const Items& items, Fn&& fn) {
    WriteCount<Width>(items.size());
    for (const auto& item : items) fn(*this, item);
  }
  template <class Width = std::uint32_t, class Items>
  void Seq(const Items& items) {
    Seq<Width>(items, [](auto& io, const auto& item) { io.Io(item); });
  }

  // Seals the envelope and returns the blob. The writer is spent afterwards.
  [[nodiscard]] std::string Finish();

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    std::string name;
    std::string payload;
  };

  template <class Width>
  void WriteCount(std::size_t count) {
    CRN_CHECK(count <= std::numeric_limits<Width>::max())
        << "sequence of " << count << " items overflows its count field";
    Io(static_cast<Width>(count));
  }

  std::vector<Section> sections_;
  std::string current_name_;
  std::string current_payload_;
  bool in_section_ = false;
};

// Parses a CRNCKPT1 blob and serves typed reads. The envelope (magic,
// version, section table, per-section CRCs) is validated up front in the
// constructor; typed reads are bounds-checked against the open section.
// After any failure, ok() is false, error() explains what went wrong, and
// every further read returns zero — callers can sequence reads without
// checking each one and inspect ok() once at the end.
class StateReader {
 public:
  static constexpr bool kLoading = true;

  // `blob` must outlive the reader (views into it are handed out).
  explicit StateReader(std::string_view blob);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] bool HasSection(std::string_view name) const;
  // Positions the cursor at the start of `name`'s payload (CRC already
  // verified at construction). Missing section => latched error, false.
  bool BeginSection(std::string_view name);
  // Closes the open section; unread payload bytes are an error (a save/load
  // layout mismatch would otherwise silently misalign every later read).
  void EndSection();

  [[nodiscard]] bool ReadBool() { return ReadU8() != 0; }
  std::uint8_t ReadU8();
  std::uint16_t ReadU16();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int32_t ReadI32() { return static_cast<std::int32_t>(ReadU32()); }
  std::int64_t ReadI64() { return static_cast<std::int64_t>(ReadU64()); }
  double ReadDouble();
  std::string ReadString();

  // Remaining unread bytes of the open section (0 when none is open).
  [[nodiscard]] std::size_t SectionBytesLeft() const;

  // --- symmetric transfer (the load side) ---
  void Io(bool& value) { value = ReadBool(); }
  void Io(char& value) { value = static_cast<char>(ReadU8()); }
  void Io(std::uint8_t& value) { value = ReadU8(); }
  void Io(std::uint16_t& value) { value = ReadU16(); }
  void Io(std::uint32_t& value) { value = ReadU32(); }
  void Io(std::uint64_t& value) { value = ReadU64(); }
  void Io(std::int32_t& value) { value = ReadI32(); }
  void Io(std::int64_t& value) { value = ReadI64(); }
  void Io(double& value) { value = ReadDouble(); }
  void Io(std::string& value) { value = ReadString(); }
  void Io(crn::Rng& rng);
  template <class E>
    requires std::is_enum_v<E>
  void Io(E& value) {
    static_assert(sizeof(E) == 1, "only one-byte enums have a wire form");
    value = static_cast<E>(ReadU8());
  }
  // Reads an id and latches an error unless lowest <= id < limit: a
  // CRC-valid blob must not index past this run's arrays.
  void Id(std::int32_t& id, std::int32_t limit, std::int32_t lowest = 0);
  // Reads a length and latches an error unless it equals `count`, the size
  // this run's array already has (a blob from a different scenario).
  void FixedCount(std::size_t count);
  // Reads a length, bounds it by the bytes left in the section (each item
  // takes at least the bytes `fn` transfers for a default item), then
  // replaces `items` with that many items read through `fn`. A corrupt
  // count fails before anything is allocated.
  template <class Width = std::uint32_t, class Items, class Fn>
  void Seq(Items& items, Fn&& fn) {
    WireSize probe;
    const typename Items::value_type default_item{};
    fn(probe, default_item);
    Width count = 0;
    Io(count);
    items.clear();
    items.resize(BoundedCount(count, probe.bytes()));
    for (auto& item : items) {
      if (!ok()) break;
      fn(*this, item);
    }
  }
  template <class Width = std::uint32_t, class Items>
  void Seq(Items& items) {
    Seq<Width>(items, [](auto& io, auto& item) { io.Io(item); });
  }

 private:
  // Counts the bytes one item's field list takes on the wire, without
  // writing them: Seq's lower bound per item (nested sequences and strings
  // count as empty, which is what a default item holds).
  class WireSize {
   public:
    static constexpr bool kLoading = false;
    template <class T>
    void Io(const T& /*value*/) {
      static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
      bytes_ += sizeof(T);
    }
    void Io(const std::string& value) { bytes_ += 4 + value.size(); }
    void Io(const crn::Rng& /*rng*/) { bytes_ += 32; }
    void Id(std::int32_t /*id*/, std::int32_t /*limit*/,
            std::int32_t /*lowest*/ = 0) {
      bytes_ += 4;
    }
    void FixedCount(std::size_t /*count*/) { bytes_ += 4; }
    template <class Width = std::uint32_t, class Items, class... Fn>
    void Seq(const Items& /*items*/, Fn&&... /*fn*/) {
      bytes_ += sizeof(Width);
    }
    [[nodiscard]] std::size_t bytes() const { return bytes_; }

   private:
    std::size_t bytes_ = 0;
  };

  // `count`, or 0 with a latched error when count items of at least
  // `min_item_bytes` each cannot fit in the bytes left in the section.
  std::size_t BoundedCount(std::uint64_t count, std::size_t min_item_bytes);
  [[nodiscard]] std::string_view SectionName() const;

  struct Section {
    std::string_view name;
    std::string_view payload;
  };

  void Fail(std::string message);
  // Takes `n` raw bytes from the open section, or fails and returns null.
  const char* Take(std::size_t n);

  std::vector<Section> sections_;
  std::string error_;
  std::int32_t open_ = -1;  // index into sections_, -1 = none
  std::size_t cursor_ = 0;  // read offset within the open section
};

}  // namespace crn::sim

#endif  // CRN_SIM_CHECKPOINT_H_
