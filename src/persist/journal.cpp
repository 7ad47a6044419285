#include "persist/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "persist/hash.hpp"

namespace hpfc::persist {
namespace {

constexpr std::uint32_t kRecordMagic = 0x4850'4a31;  // "HPJ1"
constexpr std::uint32_t kManifestMagic = 0x4850'4d31;  // "HPM1"

/// The payload fold: the record's type and length, then its payload
/// through the shared streaming word fold (support/fnv.hpp), so a payload
/// handed over in pieces checksums exactly like the same bytes in one
/// piece.
FnvWordFold payload_fold(RecordType type, std::uint64_t len) {
  return FnvWordFold(
      fnv1a_u64(len, fnv1a_u64(static_cast<std::uint64_t>(type))));
}

std::uint64_t record_checksum(RecordType type, const std::uint8_t* payload,
                              std::size_t len) {
  FnvWordFold fold = payload_fold(type, len);
  fold.update(payload, len);
  return fold.finish();
}

/// Writes the low `bytes` bytes of `v` little-endian at `out`.
void put_le(std::uint8_t* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out[i] = (v >> (8 * i)) & 0xffu;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

bool take_u32(const std::vector<std::uint8_t>& in, std::size_t& pos,
              std::uint32_t& v) {
  if (in.size() - pos < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[pos + i]) << (8 * i);
  pos += 4;
  return true;
}

bool take_u64(const std::vector<std::uint8_t>& in, std::size_t& pos,
              std::uint64_t& v) {
  if (in.size() - pos < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
  pos += 8;
  return true;
}

void fsync_file(std::FILE* file, const std::string& what) {
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0)
    throw PersistError("persist: failed to flush " + what);
}

}  // namespace

// ---- ByteWriter / ByteReader ------------------------------------------

void ByteWriter::u32(std::uint32_t v) { put_u32(bytes_, v); }

void ByteWriter::u64(std::uint64_t v) { put_u64(bytes_, v); }

void ByteWriter::i64(std::int64_t v) {
  put_u64(bytes_, static_cast<std::uint64_t>(v));
}

void ByteReader::need(std::size_t n) const {
  if (len_ - pos_ < n)
    throw PersistError("persist: record payload underflow");
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

std::size_t ByteReader::count(std::size_t entry_bytes) {
  const std::uint64_t n = u64();
  if (n > (len_ - pos_) / entry_bytes)
    throw PersistError("persist: record count exceeds its payload");
  return static_cast<std::size_t>(n);
}

// ---- scan --------------------------------------------------------------

std::optional<FrameView> parse_frame(const std::uint8_t* data,
                                     std::size_t avail) {
  std::size_t at = 0;
  std::uint32_t magic = 0;
  std::uint32_t type = 0;
  std::uint64_t len = 0;
  if (avail < 16) return std::nullopt;
  for (int i = 0; i < 4; ++i)
    magic |= static_cast<std::uint32_t>(data[at + i]) << (8 * i);
  at += 4;
  if (magic != kRecordMagic) return std::nullopt;
  for (int i = 0; i < 4; ++i)
    type |= static_cast<std::uint32_t>(data[at + i]) << (8 * i);
  at += 4;
  for (int i = 0; i < 8; ++i)
    len |= static_cast<std::uint64_t>(data[at + i]) << (8 * i);
  at += 8;
  // Truncated payload/checksum. Checked without `len + 8`, which wraps
  // for a length field near 2^64.
  if (avail - at < 8 || len > avail - at - 8) return std::nullopt;
  FrameView frame;
  frame.type = static_cast<RecordType>(type);
  frame.payload = data + at;
  frame.payload_len = static_cast<std::size_t>(len);
  at += len;
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i)
    checksum |= static_cast<std::uint64_t>(data[at + i]) << (8 * i);
  at += 8;
  if (checksum != record_checksum(frame.type, frame.payload, frame.payload_len))
    return std::nullopt;
  frame.frame_len = at;
  return frame;
}

ScanResult scan_journal(const std::string& path) {
  ScanResult result;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return result;  // no journal yet: empty store
  auto& bytes = result.bytes;
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(std::max<std::streamsize>(
      in.gcount(), 0)));
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const auto frame = parse_frame(bytes.data() + pos, bytes.size() - pos);
    if (!frame) break;
    Record record;
    record.type = frame->type;
    record.payload_offset = static_cast<std::uint64_t>(
        frame->payload - bytes.data());
    record.payload_len = frame->payload_len;
    record.end_offset = pos + frame->frame_len;
    result.records.push_back(record);
    pos += frame->frame_len;
  }
  result.consistent_bytes = pos;
  result.torn_tail = pos < bytes.size();
  return result;
}

std::optional<Manifest> read_manifest(const std::string& dir) {
  std::ifstream in(JournalWriter::manifest_path(dir), std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  Manifest m;
  std::uint64_t checksum = 0;
  if (!take_u32(bytes, pos, magic) || magic != kManifestMagic ||
      !take_u64(bytes, pos, m.epoch) || !take_u64(bytes, pos, m.sealed_bytes) ||
      !take_u64(bytes, pos, m.commit_offset) || !take_u64(bytes, pos, checksum))
    return std::nullopt;
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(m.epoch, h);
  h = fnv1a_u64(m.sealed_bytes, h);
  h = fnv1a_u64(m.commit_offset, h);
  if (checksum != h) return std::nullopt;
  return m;
}

// ---- JournalWriter -----------------------------------------------------

std::string JournalWriter::journal_path(const std::string& dir) {
  return dir + "/journal";
}

std::string JournalWriter::manifest_path(const std::string& dir) {
  return dir + "/manifest";
}

JournalWriter::JournalWriter(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::filesystem::remove(manifest_path(dir_), ec);
  file_ = std::fopen(journal_path(dir_).c_str(), "wb");
  if (file_ == nullptr)
    throw PersistError("persist: cannot open journal in " + dir_);
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::append(RecordType type,
                           std::span<const std::uint8_t> header,
                           std::span<const double> values) {
  const auto* value_bytes = reinterpret_cast<const std::uint8_t*>(
      values.data());
  const std::size_t value_len = values.size_bytes();
  const std::uint64_t payload_len = header.size() + value_len;
  FnvWordFold fold = payload_fold(type, payload_len);
  fold.update(header.data(), header.size());
  fold.update(value_bytes, value_len);
  std::uint8_t prefix[16];
  std::uint8_t suffix[8];
  put_le(prefix, kRecordMagic, 4);
  put_le(prefix + 4, static_cast<std::uint32_t>(type), 4);
  put_le(prefix + 8, payload_len, 8);
  put_le(suffix, fold.finish(), 8);
  const auto write = [&](const void* data, std::size_t len) {
    if (len > 0 && std::fwrite(data, 1, len, file_) != len)
      throw PersistError("persist: journal write failed in " + dir_);
  };
  write(prefix, sizeof(prefix));
  write(header.data(), header.size());
  write(value_bytes, value_len);
  write(suffix, sizeof(suffix));
  bytes_written_ += sizeof(prefix) + payload_len + sizeof(suffix);
}

void JournalWriter::seal(std::uint64_t epoch, std::uint64_t commit_offset) {
  fsync_file(file_, "journal");
  const std::string tmp = manifest_path(dir_) + ".tmp";
  {
    std::FILE* mf = std::fopen(tmp.c_str(), "wb");
    if (mf == nullptr) throw PersistError("persist: cannot open " + tmp);
    std::vector<std::uint8_t> bytes;
    put_u32(bytes, kManifestMagic);
    put_u64(bytes, epoch);
    put_u64(bytes, bytes_written_);
    put_u64(bytes, commit_offset);
    std::uint64_t h = kFnvOffset;
    h = fnv1a_u64(epoch, h);
    h = fnv1a_u64(bytes_written_, h);
    h = fnv1a_u64(commit_offset, h);
    put_u64(bytes, h);
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), mf) == bytes.size();
    if (ok) fsync_file(mf, "manifest");
    std::fclose(mf);
    if (!ok) throw PersistError("persist: manifest write failed in " + dir_);
  }
  if (std::rename(tmp.c_str(), manifest_path(dir_).c_str()) != 0)
    throw PersistError("persist: manifest rename failed in " + dir_);
}

}  // namespace hpfc::persist
