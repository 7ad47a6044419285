// Append-only snapshot journal with torn-write detection.
//
// Record framing (all integers little-endian):
//
//   u32  magic     0x4850'4a31 ("HPJ1")
//   u32  type      RecordType
//   u64  payload_len
//   u8   payload[payload_len]
//   u64  checksum  FNV-1a over (type, payload_len, payload); the payload
//                  folds 64-bit word at a time with a byte-wise tail
//
// The writer frames each record in place: the payload arrives as a
// header byte span plus a span of doubles (a leaf's values, borrowed
// from rank storage), the checksum folds across both, and each piece
// goes to the buffered journal with one write — no per-record frame
// copy. The frame bytes are those of the concatenated payload.
//
// A reader scans records sequentially; a record whose header, payload,
// or checksum is truncated or corrupt terminates the scan (torn tail).
// The sidecar manifest records the byte length of the journal at the
// last seal and is replaced by atomic rename, so the manifest is either
// the previous seal or the new one — never a partial write.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace hpfc::persist {

/// Any persistence failure that is NOT an ordinary torn tail: sealed
/// data that fails its checksum, a manifest pointing past the readable
/// journal, or an I/O error.
class PersistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RecordType : std::uint32_t {
  /// Retired leaf record of the first journal format (one record per
  /// expanded ownership stretch). Never written; restore rejects it.
  kRunData = 1,
  kCommit = 2,    ///< seals an epoch: store metadata + hash-tree roots
  kRunBlock = 3,  ///< one periodic leaf: geometry, repetition, values
};

/// Little-endian serializer for record payloads.
class ByteWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Empties the buffer, keeping its capacity (one writer per record
  /// header reuses one allocation).
  void clear() { bytes_.clear(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Little-endian deserializer; throws PersistError on underflow.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  /// Reads a u64 element count and checks that `count` entries of at
  /// least `entry_bytes` each fit in the bytes left, so a hostile count
  /// fails here instead of sizing a container.
  std::size_t count(std::size_t entry_bytes);
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == len_; }

 private:
  void need(std::size_t n) const;
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// One intact record. The payload is a borrowed window into the owning
/// ScanResult's journal image (no per-record copy).
struct Record {
  RecordType type = RecordType::kRunBlock;
  std::uint64_t payload_offset = 0;  ///< into ScanResult::bytes
  std::uint64_t payload_len = 0;
  std::uint64_t end_offset = 0;  ///< journal byte offset just past this record
};

struct ScanResult {
  std::vector<std::uint8_t> bytes;  ///< the journal image records point into
  std::vector<Record> records;
  std::uint64_t consistent_bytes = 0;  ///< end of the last intact record
  bool torn_tail = false;  ///< bytes past consistent_bytes were discarded

  [[nodiscard]] const std::uint8_t* payload(const Record& r) const {
    return bytes.data() + r.payload_offset;
  }
  [[nodiscard]] ByteReader reader(const Record& r) const {
    return {payload(r), static_cast<std::size_t>(r.payload_len)};
  }
};

/// Reads every intact record from the front of the journal. A missing
/// file scans as empty; a torn or corrupt tail sets `torn_tail` and
/// keeps the intact prefix.
[[nodiscard]] ScanResult scan_journal(const std::string& path);

/// One framed record parsed in place from a byte window.
struct FrameView {
  RecordType type = RecordType::kRunBlock;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
  std::size_t frame_len = 0;  ///< header + payload + checksum
};

/// Parses and checksum-verifies one record at `data` (`avail` readable
/// bytes). Returns nullopt on truncation, bad magic, or bad checksum —
/// the torn-tail conditions. A length field larger than the bytes left
/// is truncation, whatever its value.
[[nodiscard]] std::optional<FrameView> parse_frame(const std::uint8_t* data,
                                                   std::size_t avail);

struct Manifest {
  std::uint64_t epoch = 0;
  std::uint64_t sealed_bytes = 0;
  /// Journal offset of the Commit record that sealed `epoch` — the
  /// entry point for the O(live-data) restore fast path.
  std::uint64_t commit_offset = 0;
};

/// Reads the sealed manifest; nullopt when absent or unreadable (a crash
/// before the first seal leaves no manifest).
[[nodiscard]] std::optional<Manifest> read_manifest(const std::string& dir);

/// Appends framed records to the journal and seals epochs through the
/// manifest. Created fresh per run: truncates any previous journal and
/// manifest in the directory (creating the directory if needed).
class JournalWriter {
 public:
  explicit JournalWriter(std::string dir);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one framed record whose payload is `header` followed by the
  /// bit patterns of `values` (buffered until seal()).
  void append(RecordType type, std::span<const std::uint8_t> header,
              std::span<const double> values = {});

  /// Flushes the journal to disk, then publishes {epoch, length, commit
  /// offset} by writing manifest.tmp and renaming it over the manifest.
  /// `commit_offset` is the journal offset where the sealing Commit
  /// record starts (its bytes_written() before that append).
  void seal(std::uint64_t epoch, std::uint64_t commit_offset);

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

  static std::string journal_path(const std::string& dir);
  static std::string manifest_path(const std::string& dir);

 private:
  std::string dir_;
  std::FILE* file_ = nullptr;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace hpfc::persist
