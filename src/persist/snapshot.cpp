#include "persist/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>

#include "persist/hash.hpp"

namespace hpfc::persist {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Commit payload image, shared by the writer and the restore path.
struct CommitBody {
  std::uint64_t epoch = 0;
  std::uint64_t write_counter = 0;
  std::vector<std::int64_t> status;
  std::vector<std::int64_t> saved;
  struct VersionEntry {
    int array = 0;
    int version = 0;
    bool allocated = false;
    bool live = false;
    std::uint64_t hash = 0;
  };
  std::vector<VersionEntry> versions;
  std::vector<std::pair<int, std::uint64_t>> roots;
  /// Replay directory: for every rank owning leaves of an allocated
  /// version, the journal location of each leaf's winning RunBlock
  /// record, in leaf-index order. Restore replays exactly these windows,
  /// whatever dead delta history surrounds them.
  struct DirRank {
    int array = 0;
    int version = 0;
    int rank = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> records;
  };
  std::vector<DirRank> directory;
};

std::vector<std::uint8_t> encode_commit(const CommitBody& body) {
  ByteWriter w;
  w.u64(body.epoch);
  w.u64(body.write_counter);
  w.u64(body.status.size());
  for (const std::int64_t s : body.status) w.i64(s);
  w.u64(body.saved.size());
  for (const std::int64_t s : body.saved) w.i64(s);
  w.u64(body.versions.size());
  for (const auto& v : body.versions) {
    w.u32(static_cast<std::uint32_t>(v.array));
    w.u32(static_cast<std::uint32_t>(v.version));
    w.u32((v.allocated ? 1u : 0u) | (v.live ? 2u : 0u));
    w.u64(v.hash);
  }
  w.u64(body.roots.size());
  for (const auto& [array, root] : body.roots) {
    w.u32(static_cast<std::uint32_t>(array));
    w.u64(root);
  }
  w.u64(body.directory.size());
  for (const auto& e : body.directory) {
    w.u32(static_cast<std::uint32_t>(e.array));
    w.u32(static_cast<std::uint32_t>(e.version));
    w.u32(static_cast<std::uint32_t>(e.rank));
    w.u64(e.records.size());
    for (const auto& [offset, len] : e.records) {
      w.u64(offset);
      w.u64(len);
    }
  }
  return w.bytes();
}

CommitBody decode_commit(ByteReader r) {
  CommitBody body;
  body.epoch = r.u64();
  body.write_counter = r.u64();
  body.status.resize(r.count(8));
  for (auto& s : body.status) s = r.i64();
  body.saved.resize(r.count(8));
  for (auto& s : body.saved) s = r.i64();
  body.versions.resize(r.count(20));
  for (auto& v : body.versions) {
    v.array = static_cast<int>(r.u32());
    v.version = static_cast<int>(r.u32());
    const std::uint32_t flags = r.u32();
    v.allocated = (flags & 1u) != 0;
    v.live = (flags & 2u) != 0;
    v.hash = r.u64();
  }
  body.roots.resize(r.count(12));
  for (auto& [array, root] : body.roots) {
    array = static_cast<int>(r.u32());
    root = r.u64();
  }
  body.directory.resize(r.count(20));
  for (auto& e : body.directory) {
    e.array = static_cast<int>(r.u32());
    e.version = static_cast<int>(r.u32());
    e.rank = static_cast<int>(r.u32());
    e.records.resize(r.count(16));
    for (auto& [offset, len] : e.records) {
      offset = r.u64();
      len = r.u64();
    }
  }
  if (!r.done()) throw PersistError("persist: trailing bytes in commit record");
  return body;
}

/// RunBlock header size: array, version, rank, leaf_index (u32 each),
/// the stretch's four i64 OwnedRun fields, then reps, local_step and
/// global_step (i64 each); the values follow in place.
constexpr std::size_t kRunHeaderBytes = 4 * 4 + 7 * 8;

/// Borrowed view of one RunBlock record — the values stay in the read
/// journal window until (and unless) the record wins its slot.
struct RunRef {
  int array = 0;
  int version = 0;
  int rank = 0;
  std::uint32_t run_index = 0;
  mapping::OwnedRun geometry;
  mapping::Extent reps = 1;
  mapping::Index local_step = 0;
  mapping::Index global_step = 0;
  /// One past the last local position the leaf covers.
  mapping::Index local_end = 0;
  const std::uint8_t* values = nullptr;  ///< reps × geometry.len doubles

  [[nodiscard]] std::size_t value_count() const {
    return static_cast<std::size_t>(reps * geometry.len);
  }
};

/// Throws for a leaf record of the retired journal format.
void reject_retired(RecordType type, const std::string& dir) {
  if (type == RecordType::kRunData)
    throw PersistError(
        "persist: journal in " + dir +
        " holds RunData leaves (record type 1, the retired format with one "
        "record per expanded stretch); this build restores RunBlock "
        "journals only");
}

RunRef decode_run(const std::uint8_t* payload, std::size_t len) {
  ByteReader r(payload, len);
  RunRef body;
  body.array = static_cast<int>(r.u32());
  body.version = static_cast<int>(r.u32());
  body.rank = static_cast<int>(r.u32());
  body.run_index = r.u32();
  body.geometry.local_base = static_cast<mapping::Index>(r.i64());
  body.geometry.global_base = static_cast<mapping::Index>(r.i64());
  body.geometry.global_stride = static_cast<mapping::Extent>(r.i64());
  body.geometry.len = static_cast<mapping::Extent>(r.i64());
  body.reps = static_cast<mapping::Extent>(r.i64());
  body.local_step = static_cast<mapping::Index>(r.i64());
  body.global_step = static_cast<mapping::Index>(r.i64());
  const mapping::Index base = body.geometry.local_base;
  const mapping::Extent n = body.geometry.len;
  if (base < 0 || n < 1 || body.reps < 1 || body.local_step < 0)
    throw PersistError("persist: invalid run block geometry");
  // len and reps are bounded by the values the payload holds before they
  // are multiplied, so a hostile count cannot wrap to a small size.
  const std::size_t bytes = r.remaining();
  const std::size_t values = bytes / sizeof(double);
  if (bytes % sizeof(double) != 0 || static_cast<std::uint64_t>(n) > values ||
      static_cast<std::uint64_t>(body.reps) >
          values / static_cast<std::uint64_t>(n) ||
      body.value_count() != values)
    throw PersistError("persist: run block values do not fill its payload");
  // The last repetition ends at base + (reps-1)*local_step + len, which
  // must be representable.
  constexpr mapping::Index kMaxIndex =
      std::numeric_limits<mapping::Index>::max();
  if (n > kMaxIndex - base ||
      (body.local_step > 0 &&
       body.reps - 1 > (kMaxIndex - base - n) / body.local_step))
    throw PersistError("persist: run block local extent overflows");
  body.local_end = base + (body.reps - 1) * body.local_step + n;
  body.values = payload + kRunHeaderBytes;
  return body;
}

/// Number of leaves of a rank's program: one per body entry per block.
std::size_t leaf_count(const mapping::OwnedProgram& program) {
  std::size_t n = 0;
  for (const mapping::SegmentBlock& b : program.blocks) n += b.count;
  return n;
}

}  // namespace

// ---- SnapshotWriter ----------------------------------------------------

SnapshotWriter::SnapshotWriter(std::string dir)
    : journal_(std::move(dir)) {}

void SnapshotWriter::snapshot(const StoreView& view) {
  const auto start = Clock::now();
  const std::uint64_t bytes_before = journal_.bytes_written();

  CommitBody commit;
  commit.epoch = ++epoch_;
  commit.write_counter = view.write_counter;
  commit.status.assign(view.status->begin(), view.status->end());
  commit.saved.assign(view.saved->begin(), view.saved->end());

  // Delta phase: write leaves whose hash changed since the last seal.
  for (const VersionView& v : view.versions) {
    const std::pair<int, int> key{v.array, v.version};
    if (!v.allocated) {
      leaves_.erase(key);
      continue;
    }
    auto& cached = leaves_[key];
    const std::size_t ranks = v.runs.size();
    const bool fresh = cached.size() != ranks;
    if (fresh) cached.assign(ranks, {});
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      const mapping::OwnedProgram& program = *v.runs[rank];
      auto& rank_cache = cached[rank];
      const std::size_t leaves = leaf_count(program);
      const bool force = fresh || rank_cache.size() != leaves;
      if (force) rank_cache.assign(leaves, {});
      if (!force && !v.dirty) continue;
      const Piece& local = (*v.locals)[rank];
      // One leaf per body entry per block, in program order: the block's
      // repetitions of that entry, hashed and journaled unexpanded.
      std::size_t index = 0;
      for (const mapping::SegmentBlock& block : program.blocks) {
        for (std::uint32_t i = block.first; i < block.first + block.count;
             ++i, ++index) {
          const mapping::OwnedRun& run = program.body[i];
          const auto len = static_cast<std::size_t>(run.len);
          const auto reps = static_cast<std::size_t>(block.reps);
          const auto step = static_cast<std::size_t>(block.src_step);
          const double* first = local.data() + run.local_base;
          const std::uint64_t leaf = leaf_hash(first, len, reps, step);
          if (!force && rank_cache[index].hash == leaf) continue;
          header_.clear();
          header_.u32(static_cast<std::uint32_t>(v.array));
          header_.u32(static_cast<std::uint32_t>(v.version));
          header_.u32(static_cast<std::uint32_t>(rank));
          header_.u32(static_cast<std::uint32_t>(index));
          header_.i64(run.local_base);
          header_.i64(run.global_base);
          header_.i64(run.global_stride);
          header_.i64(run.len);
          header_.i64(block.reps);
          header_.i64(block.src_step);
          header_.i64(block.dst_step);
          // A contiguous leaf is framed straight from rank storage; one
          // whose repetitions leave gaps is gathered into gather_ first.
          std::span<const double> values(first, len * reps);
          if (reps > 1 && step != len) {
            gather_.resize(len * reps);
            for (std::size_t k = 0; k < reps; ++k)
              std::copy_n(first + k * step, len, gather_.data() + k * len);
            values = gather_;
          }
          const std::uint64_t offset = journal_.bytes_written();
          journal_.append(RecordType::kRunBlock, header_.bytes(), values);
          rank_cache[index] = {leaf, offset,
                               journal_.bytes_written() - offset};
          ++stats_.runs_written;
        }
      }
    }
  }

  // Hash tree from the (now current) cached leaves, in view order.
  int current_array = -1;
  std::vector<std::uint64_t> version_hashes;
  const auto flush_root = [&] {
    if (current_array < 0) return;
    const int status = static_cast<int>(
        commit.status[static_cast<std::size_t>(current_array)]);
    commit.roots.emplace_back(current_array,
                              array_root(status, version_hashes));
    version_hashes.clear();
  };
  for (const VersionView& v : view.versions) {
    if (v.array != current_array) {
      flush_root();
      current_array = v.array;
    }
    std::uint64_t vh = 0;
    if (v.allocated) {
      // Ranks owning no leaf of this version are skipped (they journal
      // nothing, so restore cannot see them); each kept hash is bound to
      // its rank index so rank identity survives the gaps. The same walk
      // emits the replay directory: each live leaf's winning record.
      std::vector<std::uint64_t> rank_hashes;
      const auto& cached = leaves_.at({v.array, v.version});
      for (std::size_t rank = 0; rank < cached.size(); ++rank) {
        const auto& rank_cache = cached[rank];
        if (rank_cache.empty()) continue;
        CommitBody::DirRank entry;
        entry.array = v.array;
        entry.version = v.version;
        entry.rank = static_cast<int>(rank);
        entry.records.reserve(rank_cache.size());
        std::vector<std::uint64_t> rank_leaves;
        rank_leaves.reserve(rank_cache.size());
        for (const auto& leaf : rank_cache) {
          rank_leaves.push_back(leaf.hash);
          entry.records.emplace_back(leaf.offset, leaf.bytes);
        }
        rank_hashes.push_back(fnv1a_u64(rank, rank_hash(rank_leaves)));
        commit.directory.push_back(std::move(entry));
      }
      vh = version_hash(true, v.live, rank_hashes);
    } else {
      vh = version_hash(false, v.live, {});
    }
    version_hashes.push_back(vh);
    commit.versions.push_back({v.array, v.version, v.allocated, v.live, vh});
  }
  flush_root();

  const std::uint64_t commit_offset = journal_.bytes_written();
  journal_.append(RecordType::kCommit, encode_commit(commit));
  journal_.seal(epoch_, commit_offset);
  stats_.bytes += journal_.bytes_written() - bytes_before;
  stats_.epochs = epoch_;
  stats_.ms += ms_since(start);
}

// ---- restore -----------------------------------------------------------

namespace {

/// Replayed winning runs, grouped per (array, version) then rank
/// (ascending), plus the byte windows the RunRefs borrow from.
struct Replay {
  std::vector<std::vector<std::uint8_t>> buffers;
  std::map<std::pair<int, int>,
           std::vector<std::pair<std::size_t, std::vector<RunRef>>>>
      runs;
};

/// Rebuilds the store from a commit plus its replayed winning runs, and
/// verifies every recomputed version hash and array root against the
/// sealed values.
RestoredStore rebuild_store(const CommitBody& commit, const Replay& replay,
                            bool torn_tail) {
  RestoredStore out;
  out.valid = true;
  out.torn_tail = torn_tail;
  out.epoch = commit.epoch;
  out.write_counter = commit.write_counter;
  out.status.reserve(commit.status.size());
  for (const std::int64_t s : commit.status)
    out.status.push_back(static_cast<int>(s));
  out.saved.reserve(commit.saved.size());
  for (const std::int64_t s : commit.saved)
    out.saved.push_back(static_cast<int>(s));

  int current_array = -1;
  std::vector<std::uint64_t> version_hashes;
  const auto flush_root = [&] {
    if (current_array < 0) return;
    const int status = out.status[static_cast<std::size_t>(current_array)];
    out.roots[current_array] = array_root(status, version_hashes);
    version_hashes.clear();
  };
  for (const auto& entry : commit.versions) {
    if (entry.array != current_array) {
      flush_root();
      current_array = entry.array;
    }
    RestoredVersion version;
    version.array = entry.array;
    version.version = entry.version;
    version.allocated = entry.allocated;
    version.live = entry.live;
    std::uint64_t vh = 0;
    if (entry.allocated) {
      const auto found = replay.runs.find({entry.array, entry.version});
      std::vector<std::uint64_t> rank_hashes;
      if (found != replay.runs.end()) {
        std::vector<std::uint64_t> rank_leaves;
        for (const auto& [rank, winning] : found->second) {
          // A rank's leaves tile its local vector, so the values they
          // carry fix its size; a leaf reaching past it is corrupt.
          std::size_t extent = 0;
          for (const RunRef& run : winning) extent += run.value_count();
          rank_leaves.clear();
          auto& local = version.locals[static_cast<int>(rank)];
          local.assign(extent, 0.0);
          auto& runs = version.runs[static_cast<int>(rank)];
          runs.reserve(winning.size());
          for (const RunRef& run : winning) {
            if (static_cast<std::uint64_t>(run.local_end) > extent)
              throw PersistError(
                  "persist: run block reaches past its rank's local extent "
                  "(sealed data corrupted)");
            const auto n = run.value_count();
            RestoredRun restored;
            restored.geometry = run.geometry;
            restored.reps = run.reps;
            restored.local_step = run.local_step;
            restored.global_step = run.global_step;
            restored.values.resize(n);
            std::memcpy(restored.values.data(), run.values,
                        n * sizeof(double));
            rank_leaves.push_back(leaf_hash(restored.values.data(), n));
            // Repetition k goes back to local_base + k * local_step; a
            // contiguous leaf (local_step == len) is one copy.
            const double* from = restored.values.data();
            const auto to = local.begin() + run.geometry.local_base;
            if (run.reps == 1 || run.local_step == run.geometry.len) {
              std::copy_n(from, n, to);
            } else {
              const auto len = static_cast<std::size_t>(run.geometry.len);
              for (mapping::Extent k = 0; k < run.reps; ++k)
                std::copy_n(from + static_cast<std::size_t>(k) * len, len,
                            to + k * run.local_step);
            }
            runs.push_back(std::move(restored));
          }
          rank_hashes.push_back(fnv1a_u64(rank, rank_hash(rank_leaves)));
        }
      }
      vh = version_hash(true, entry.live, rank_hashes);
    } else {
      vh = version_hash(false, entry.live, {});
    }
    if (vh != entry.hash)
      throw PersistError(
          "persist: restored version hash mismatch for array " +
          std::to_string(entry.array) + " version " +
          std::to_string(entry.version) + " (sealed data corrupted)");
    version.hash = vh;
    version_hashes.push_back(vh);
    out.versions.push_back(std::move(version));
  }
  flush_root();

  for (const auto& [array, root] : commit.roots) {
    const auto found = out.roots.find(array);
    if (found == out.roots.end() || found->second != root)
      throw PersistError("persist: restored root mismatch for array " +
                         std::to_string(array) + " (sealed data corrupted)");
  }
  return out;
}

/// Reads and verifies the winning records named by a commit's replay
/// directory. Nearby records coalesce into one read, so the I/O is
/// O(live data) regardless of how much dead delta history precedes the
/// seal. Every referenced record must lie before `limit` (the commit's
/// own offset) and parse intact, or the directory is corrupt.
Replay replay_directory(std::ifstream& in, const CommitBody& commit,
                        std::uint64_t limit, const std::string& dir) {
  Replay replay;
  struct Pending {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    RunRef* slot = nullptr;
    const CommitBody::DirRank* entry = nullptr;
    std::uint32_t run_index = 0;
  };
  std::vector<Pending> pending;
  for (const auto& e : commit.directory) {
    auto& ranks = replay.runs[{e.array, e.version}];
    ranks.emplace_back(static_cast<std::size_t>(e.rank),
                       std::vector<RunRef>(e.records.size()));
    auto& runs = ranks.back().second;
    for (std::size_t i = 0; i < e.records.size(); ++i) {
      const auto [offset, len] = e.records[i];
      if (len == 0 || offset + len > limit || offset + len < offset)
        throw PersistError(
            "persist: replay directory points past the seal in " + dir);
      pending.push_back(
          {offset, len, &runs[i], &e, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.offset < b.offset;
            });
  // Merge windows whose gap is under a page-ish threshold: winners from
  // the same epoch are contiguous, so a typical restore is a few reads.
  constexpr std::uint64_t kMergeGap = 4096;
  std::size_t i = 0;
  while (i < pending.size()) {
    const std::uint64_t begin = pending[i].offset;
    std::uint64_t end = pending[i].offset + pending[i].len;
    std::size_t j = i + 1;
    while (j < pending.size() && pending[j].offset <= end + kMergeGap) {
      end = std::max(end, pending[j].offset + pending[j].len);
      ++j;
    }
    auto& window = replay.buffers.emplace_back(
        static_cast<std::size_t>(end - begin));
    in.clear();
    in.seekg(static_cast<std::streamoff>(begin));
    in.read(reinterpret_cast<char*>(window.data()),
            static_cast<std::streamsize>(window.size()));
    if (static_cast<std::uint64_t>(in.gcount()) != window.size())
      throw PersistError("persist: journal read failed in " + dir);
    for (; i < j; ++i) {
      const Pending& p = pending[i];
      const auto frame = parse_frame(
          window.data() + (p.offset - begin), static_cast<std::size_t>(p.len));
      if (frame) reject_retired(frame->type, dir);
      if (!frame || frame->type != RecordType::kRunBlock ||
          frame->frame_len != p.len)
        throw PersistError(
            "persist: replay directory record is corrupt in " + dir);
      RunRef run = decode_run(frame->payload, frame->payload_len);
      if (run.array != p.entry->array || run.version != p.entry->version ||
          run.rank != p.entry->rank || run.run_index != p.run_index)
        throw PersistError(
            "persist: replay directory record identity mismatch in " + dir);
      *p.slot = run;
    }
  }
  return replay;
}

/// The one restore path. With a manifest, read its sealing commit
/// directly; without one (a crash can hit before the very first seal's
/// rename), there is no published commit and the sealed prefix is empty.
/// Either way, scan the unsealed suffix for the last intact commit — a
/// crash between the journal fsync and the manifest rename leaves a
/// newer sealed commit past the manifest — and replay exactly the
/// winning records its directory names.
RestoredStore restore_journal(const std::string& dir,
                              const std::optional<Manifest>& manifest) {
  std::ifstream in(JournalWriter::journal_path(dir), std::ios::binary);
  std::uint64_t size = 0;
  if (in) {
    in.seekg(0, std::ios::end);
    size = static_cast<std::uint64_t>(in.tellg());
  }
  const std::uint64_t sealed_bytes = manifest ? manifest->sealed_bytes : 0;
  if (manifest && (!in || sealed_bytes > size ||
                   manifest->commit_offset >= sealed_bytes))
    throw PersistError(
        "persist: manifest points past the intact journal (sealed data "
        "corrupted) in " +
        dir);

  const auto read_window = [&](std::uint64_t offset, std::uint64_t len) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len));
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(len));
    if (static_cast<std::uint64_t>(in.gcount()) != len)
      throw PersistError("persist: journal read failed in " + dir);
    return bytes;
  };

  std::optional<CommitBody> sealed_commit;
  if (manifest) {
    const auto commit_window = read_window(
        manifest->commit_offset, sealed_bytes - manifest->commit_offset);
    const auto sealed_frame =
        parse_frame(commit_window.data(), commit_window.size());
    if (!sealed_frame || sealed_frame->type != RecordType::kCommit ||
        sealed_frame->frame_len != commit_window.size())
      throw PersistError(
          "persist: manifest commit record is corrupt (sealed data "
          "corrupted) in " +
          dir);
    sealed_commit = decode_commit(
        ByteReader(sealed_frame->payload, sealed_frame->payload_len));
    if (sealed_commit->epoch != manifest->epoch)
      throw PersistError("persist: manifest epoch " +
                         std::to_string(manifest->epoch) +
                         " does not match its commit record (epoch " +
                         std::to_string(sealed_commit->epoch) + ") in " +
                         dir);
  }

  // The last intact commit of the suffix wins; the scan stops at the
  // first record that does not parse (the torn tail).
  std::optional<CommitBody> suffix_commit;
  std::uint64_t suffix_commit_start = 0;
  std::uint64_t suffix_commit_end = 0;
  if (size > sealed_bytes) {
    const auto suffix = read_window(sealed_bytes, size - sealed_bytes);
    std::optional<FrameView> last;
    std::size_t last_pos = 0;
    std::size_t pos = 0;
    while (pos < suffix.size()) {
      const auto frame = parse_frame(suffix.data() + pos, suffix.size() - pos);
      if (!frame) break;
      if (frame->type == RecordType::kCommit) {
        last = frame;
        last_pos = pos;
      }
      pos += frame->frame_len;
    }
    if (last) {
      suffix_commit =
          decode_commit(ByteReader(last->payload, last->payload_len));
      suffix_commit_start = sealed_bytes + last_pos;
      suffix_commit_end = suffix_commit_start + last->frame_len;
    }
  }

  if (suffix_commit) {
    try {
      const Replay replay =
          replay_directory(in, *suffix_commit, suffix_commit_start, dir);
      return rebuild_store(*suffix_commit, replay, suffix_commit_end < size);
    } catch (const PersistError&) {
      // The newer epoch's referenced records did not all survive the
      // crash, so it was never durably sealed — it is a torn tail, and
      // the manifest's epoch below remains the recovery point. Without
      // a manifest there is none to fall back to.
      if (!sealed_commit) throw;
    }
  }
  if (!sealed_commit) {
    RestoredStore out;
    out.torn_tail = size > 0;
    return out;
  }
  const Replay replay =
      replay_directory(in, *sealed_commit, manifest->commit_offset, dir);
  return rebuild_store(*sealed_commit, replay, sealed_bytes < size);
}

}  // namespace

RestoredStore restore(const std::string& dir) {
  const auto start = Clock::now();
  RestoredStore out = restore_journal(dir, read_manifest(dir));
  out.restore_ms = ms_since(start);
  return out;
}

std::vector<SealedEpoch> sealed_epochs(const std::string& dir) {
  const ScanResult scan = scan_journal(JournalWriter::journal_path(dir));
  std::vector<SealedEpoch> out;
  for (const Record& record : scan.records) {
    if (record.type != RecordType::kCommit) continue;
    const CommitBody commit = decode_commit(scan.reader(record));
    SealedEpoch epoch;
    epoch.epoch = commit.epoch;
    epoch.end_offset = record.end_offset;
    for (const auto& [array, root] : commit.roots) epoch.roots[array] = root;
    out.push_back(std::move(epoch));
  }
  return out;
}

}  // namespace hpfc::persist
