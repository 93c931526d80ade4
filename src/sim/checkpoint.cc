#include "sim/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace crn::sim {

namespace {

// Envelope size guards: an adversarial blob must not be able to drive a
// huge allocation before its lengths are checked against the bytes that
// actually exist.
constexpr std::size_t kMaxSectionName = 4096;
constexpr std::uint32_t kMaxStringLength = 1U << 30U;

// Slice-by-8 CRC tables: kCrcTables[0] is the bytewise table, and
// kCrcTables[k][b] is the CRC register after byte b followed by k zero
// bytes, so eight table reads advance the register by eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1U) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8U) ^ tables[0][tables[k - 1][i] & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Four bytes as a little-endian word, on any host.
std::uint32_t LoadLe32(const unsigned char* bytes) {
  return static_cast<std::uint32_t>(bytes[0]) | static_cast<std::uint32_t>(bytes[1]) << 8U |
         static_cast<std::uint32_t>(bytes[2]) << 16U |
         static_cast<std::uint32_t>(bytes[3]) << 24U;
}

void AppendU32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8U * i)) & 0xFFU));
  }
}

void AppendU64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8U * i)) & 0xFFU));
  }
}

std::string HexU32(std::uint32_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t left = data.size();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; left >= 8; bytes += 8, left -= 8) {
    const std::uint32_t low = crc ^ LoadLe32(bytes);
    const std::uint32_t high = LoadLe32(bytes + 4);
    crc = kCrcTables[7][low & 0xFFU] ^ kCrcTables[6][(low >> 8U) & 0xFFU] ^
          kCrcTables[5][(low >> 16U) & 0xFFU] ^ kCrcTables[4][low >> 24U] ^
          kCrcTables[3][high & 0xFFU] ^ kCrcTables[2][(high >> 8U) & 0xFFU] ^
          kCrcTables[1][(high >> 16U) & 0xFFU] ^ kCrcTables[0][high >> 24U];
  }
  for (; left > 0; ++bytes, --left) {
    crc = (crc >> 8U) ^ kCrcTables[0][(crc ^ *bytes) & 0xFFU];
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint32_t Crc32Bytewise(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char byte : data) {
    crc = (crc >> 8U) ^ kCrcTables[0][(crc ^ static_cast<unsigned char>(byte)) & 0xFFU];
  }
  return crc ^ 0xFFFFFFFFU;
}

bool StateWriter::BeginSection(std::string_view name) {
  CRN_CHECK(!in_section_) << "BeginSection(" << name
                          << ") with section '" << current_name_ << "' open";
  CRN_CHECK(!name.empty() && name.size() <= kMaxSectionName);
  current_name_ = std::string(name);
  current_payload_.clear();
  in_section_ = true;
  return true;
}

void StateWriter::EndSection() {
  CRN_CHECK(in_section_) << "EndSection without BeginSection";
  sections_.push_back(
      Section{std::move(current_name_), std::move(current_payload_)});
  current_name_.clear();
  current_payload_.clear();
  in_section_ = false;
}

void StateWriter::WriteU8(std::uint8_t value) {
  CRN_CHECK(in_section_) << "write outside a section";
  current_payload_.push_back(static_cast<char>(value));
}

void StateWriter::WriteU16(std::uint16_t value) {
  WriteU8(static_cast<std::uint8_t>(value & 0xFFU));
  WriteU8(static_cast<std::uint8_t>((value >> 8U) & 0xFFU));
}

void StateWriter::WriteU32(std::uint32_t value) {
  CRN_CHECK(in_section_) << "write outside a section";
  AppendU32(current_payload_, value);
}

void StateWriter::WriteU64(std::uint64_t value) {
  CRN_CHECK(in_section_) << "write outside a section";
  AppendU64(current_payload_, value);
}

void StateWriter::WriteDouble(double value) {
  WriteU64(std::bit_cast<std::uint64_t>(value));
}

void StateWriter::WriteString(std::string_view value) {
  CRN_CHECK(value.size() < kMaxStringLength);
  WriteU32(static_cast<std::uint32_t>(value.size()));
  CRN_CHECK(in_section_) << "write outside a section";
  current_payload_.append(value.data(), value.size());
}

std::string StateWriter::Finish() {
  CRN_CHECK(!in_section_) << "Finish with section '" << current_name_
                          << "' open";
  std::string blob;
  blob.append(kCheckpointMagic, sizeof kCheckpointMagic);
  AppendU32(blob, kCheckpointVersion);
  AppendU32(blob, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    AppendU32(blob, static_cast<std::uint32_t>(section.name.size()));
    blob.append(section.name);
    AppendU64(blob, section.payload.size());
    AppendU32(blob, Crc32(section.payload));
    blob.append(section.payload);
  }
  sections_.clear();
  return blob;
}

StateReader::StateReader(std::string_view blob) {
  std::size_t pos = 0;
  auto take = [&](std::size_t n) -> const char* {
    if (blob.size() - pos < n) return nullptr;
    const char* p = blob.data() + pos;
    pos += n;
    return p;
  };
  auto read_u32 = [&](std::uint32_t* value) {
    const char* p = take(4);
    if (p == nullptr) return false;
    std::uint32_t out = 0;
    for (int i = 3; i >= 0; --i) {
      out = (out << 8U) | static_cast<unsigned char>(p[i]);
    }
    *value = out;
    return true;
  };
  auto read_u64 = [&](std::uint64_t* value) {
    const char* p = take(8);
    if (p == nullptr) return false;
    std::uint64_t out = 0;
    for (int i = 7; i >= 0; --i) {
      out = (out << 8U) | static_cast<unsigned char>(p[i]);
    }
    *value = out;
    return true;
  };

  const char* magic = take(sizeof kCheckpointMagic);
  if (magic == nullptr ||
      std::memcmp(magic, kCheckpointMagic, sizeof kCheckpointMagic) != 0) {
    Fail(
        "not a CRNCKPT1 checkpoint (bad magic): the file is corrupt, "
        "truncated, or not a checkpoint at all");
    return;
  }
  std::uint32_t version = 0;
  if (!read_u32(&version)) {
    Fail("truncated checkpoint: envelope ends inside the version field");
    return;
  }
  if (version > kCheckpointVersion) {
    std::ostringstream message;
    message << "checkpoint format version " << version
            << " is newer than this binary supports (version "
            << kCheckpointVersion
            << ") — re-create the checkpoint or use a newer build";
    Fail(message.str());
    return;
  }
  std::uint32_t section_count = 0;
  if (!read_u32(&section_count)) {
    Fail("truncated checkpoint: envelope ends inside the section count");
    return;
  }
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::uint32_t name_length = 0;
    if (!read_u32(&name_length) || name_length == 0 ||
        name_length > kMaxSectionName) {
      Fail("truncated or corrupt checkpoint: bad section name length");
      return;
    }
    const char* name = take(name_length);
    if (name == nullptr) {
      Fail("truncated checkpoint: envelope ends inside a section name");
      return;
    }
    std::uint64_t payload_length = 0;
    std::uint32_t stored_crc = 0;
    if (!read_u64(&payload_length) || !read_u32(&stored_crc)) {
      std::ostringstream message;
      message << "truncated checkpoint: section '"
              << std::string_view(name, name_length)
              << "' ends inside its header";
      Fail(message.str());
      return;
    }
    const char* payload = take(payload_length);
    if (payload == nullptr) {
      std::ostringstream message;
      message << "truncated checkpoint: section '"
              << std::string_view(name, name_length) << "' declares "
              << payload_length << " payload bytes but the file ends early";
      Fail(message.str());
      return;
    }
    const std::string_view payload_view(payload, payload_length);
    const std::uint32_t computed_crc = Crc32(payload_view);
    if (computed_crc != stored_crc) {
      std::ostringstream message;
      message << "corrupt checkpoint: section '"
              << std::string_view(name, name_length) << "' CRC mismatch (stored "
              << HexU32(stored_crc) << ", computed " << HexU32(computed_crc)
              << ")";
      Fail(message.str());
      return;
    }
    sections_.push_back(
        Section{std::string_view(name, name_length), payload_view});
  }
  if (pos != blob.size()) {
    Fail("corrupt checkpoint: trailing bytes after the last section");
  }
}

bool StateReader::HasSection(std::string_view name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

bool StateReader::BeginSection(std::string_view name) {
  if (!ok()) return false;
  CRN_CHECK(open_ < 0) << "BeginSection(" << name << ") with '"
                       << sections_[static_cast<std::size_t>(open_)].name
                       << "' open";
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name == name) {
      open_ = static_cast<std::int32_t>(i);
      cursor_ = 0;
      return true;
    }
  }
  std::ostringstream message;
  message << "checkpoint has no section '" << name
          << "' — it was written by an incompatible run configuration";
  Fail(message.str());
  return false;
}

void StateReader::EndSection() {
  if (open_ < 0) return;
  const Section& section = sections_[static_cast<std::size_t>(open_)];
  if (ok() && cursor_ != section.payload.size()) {
    std::ostringstream message;
    message << "checkpoint section '" << section.name << "' has "
            << (section.payload.size() - cursor_)
            << " unread bytes — save/load layout mismatch";
    Fail(message.str());
  }
  open_ = -1;
  cursor_ = 0;
}

void StateReader::Fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

const char* StateReader::Take(std::size_t n) {
  if (!ok()) return nullptr;
  if (open_ < 0) {
    Fail("checkpoint read outside any section");
    return nullptr;
  }
  const Section& section = sections_[static_cast<std::size_t>(open_)];
  if (section.payload.size() - cursor_ < n) {
    std::ostringstream message;
    message << "checkpoint section '" << section.name
            << "' is shorter than expected (read past its end)";
    Fail(message.str());
    return nullptr;
  }
  const char* p = section.payload.data() + cursor_;
  cursor_ += n;
  return p;
}

std::uint8_t StateReader::ReadU8() {
  const char* p = Take(1);
  return p == nullptr ? 0 : static_cast<std::uint8_t>(*p);
}

std::uint16_t StateReader::ReadU16() {
  const char* p = Take(2);
  if (p == nullptr) return 0;
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<std::uint16_t>(static_cast<unsigned char>(p[1])) << 8U));
}

std::uint32_t StateReader::ReadU32() {
  const char* p = Take(4);
  if (p == nullptr) return 0;
  std::uint32_t out = 0;
  for (int i = 3; i >= 0; --i) {
    out = (out << 8U) | static_cast<unsigned char>(p[i]);
  }
  return out;
}

std::uint64_t StateReader::ReadU64() {
  const char* p = Take(8);
  if (p == nullptr) return 0;
  std::uint64_t out = 0;
  for (int i = 7; i >= 0; --i) {
    out = (out << 8U) | static_cast<unsigned char>(p[i]);
  }
  return out;
}

double StateReader::ReadDouble() {
  return std::bit_cast<double>(ReadU64());
}

std::string StateReader::ReadString() {
  const std::uint32_t length = ReadU32();
  if (!ok()) return {};
  if (length >= kMaxStringLength) {
    Fail("corrupt checkpoint: oversized string length");
    return {};
  }
  const char* p = Take(length);
  return p == nullptr ? std::string{} : std::string(p, length);
}

std::size_t StateReader::SectionBytesLeft() const {
  if (open_ < 0) return 0;
  return sections_[static_cast<std::size_t>(open_)].payload.size() - cursor_;
}

std::string_view StateReader::SectionName() const {
  return open_ < 0 ? std::string_view("(none)")
                   : sections_[static_cast<std::size_t>(open_)].name;
}

void StateReader::Io(crn::Rng& rng) {
  std::uint64_t words[4] = {};
  for (std::uint64_t& word : words) word = ReadU64();
  rng.RestoreState(words[0], words[1], words[2], words[3]);
}

void StateReader::Id(std::int32_t& id, std::int32_t limit, std::int32_t lowest) {
  id = ReadI32();
  if (ok() && (id < lowest || id >= limit)) {
    std::ostringstream message;
    message << "checkpoint section '" << SectionName() << "' holds id " << id
            << " outside [" << lowest << ", " << limit
            << ") — the checkpoint is corrupt or from a different scenario";
    Fail(message.str());
    id = lowest;
  }
}

void StateReader::FixedCount(std::size_t count) {
  const std::uint32_t saved = ReadU32();
  if (ok() && saved != count) {
    std::ostringstream message;
    message << "checkpoint section '" << SectionName() << "' holds " << saved
            << " entries where this run has " << count
            << " — it was written by a different scenario";
    Fail(message.str());
  }
}

std::size_t StateReader::BoundedCount(std::uint64_t count,
                                      std::size_t min_item_bytes) {
  if (!ok()) return 0;
  const std::size_t left = SectionBytesLeft();
  if (count > left / std::max<std::size_t>(min_item_bytes, 1)) {
    std::ostringstream message;
    message << "corrupt checkpoint: section '" << SectionName()
            << "' declares " << count << " entries of at least "
            << min_item_bytes << " bytes but only " << left
            << " bytes remain";
    Fail(message.str());
    return 0;
  }
  return static_cast<std::size_t>(count);
}

}  // namespace crn::sim
