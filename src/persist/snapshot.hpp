// Crash-consistent snapshots of the runtime's versioned array store.
//
// The runtime hands the writer a borrowed StoreView at every snapshot
// boundary. A leaf is one body entry of one block of a rank's periodic
// ownership program: the entry's stretch repeated over the block's
// reps, so a CYCLIC(k>1) rank is a handful of leaves whatever n is. The
// writer keeps the previous epoch's leaf hashes per (array, version,
// rank, leaf) and appends a RunBlock record only for leaves whose hash
// changed — an O(changed-leaves) delta — then seals the epoch with a
// Commit record carrying the store metadata and the full hash tree,
// followed by the atomic manifest rename (journal.hpp).
//
// Each Commit also carries a replay directory — the journal location of
// every live leaf's winning record — and the manifest points at the
// sealing Commit. Restore has one path: it parses the manifest's commit,
// scans the unsealed suffix for a newer intact commit, and replays
// exactly the winning commit's directory records, so with an intact
// manifest it reads O(live data). A missing manifest (a crash before the
// first seal's rename) is the same path with an empty sealed prefix: the
// suffix is the whole journal, and a record no directory names is dead
// history. The hash tree is recomputed from the rebuilt bytes and
// verified against the sealed roots. A mismatch inside the sealed prefix
// (or a manifest pointing past the intact journal) is sealed-data
// corruption and throws PersistError; a torn tail is an expected crash
// artifact and is reported, not thrown.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"
#include "persist/journal.hpp"
#include "support/piece.hpp"

namespace hpfc::persist {

/// Borrowed view of one (array, version) slot of the store. For
/// allocated versions, `locals` and `runs` are parallel per-rank borrows
/// valid for the duration of the snapshot call. `runs` are the ranks'
/// periodic ownership programs; every body entry of every block is one
/// leaf, journaled without expanding the block.
struct VersionView {
  int array = 0;
  int version = 0;
  bool allocated = false;
  bool live = false;
  /// Runtime hint: the version may have been written since the last
  /// snapshot. Clean versions skip re-hashing entirely.
  bool dirty = true;
  const std::vector<Piece>* locals = nullptr;
  std::vector<const mapping::OwnedProgram*> runs;
};

/// Borrowed view of the whole store at a snapshot boundary. `versions`
/// lists every (array, version) slot of every mapped array, in array
/// then version order — the order fixes the hash-tree folds.
struct StoreView {
  const std::vector<int>* status = nullptr;
  const std::vector<int>* saved = nullptr;
  std::uint64_t write_counter = 0;
  std::vector<VersionView> versions;
};

/// Deterministic work counters (bytes and runs are byte-identical across
/// execution backends) plus host wall-clock.
struct SnapshotStats {
  std::uint64_t bytes = 0;
  std::uint64_t runs_written = 0;
  std::uint64_t epochs = 0;
  double ms = 0.0;
};

class SnapshotWriter {
 public:
  /// Starts a fresh journal in `dir` (truncating any previous run's).
  explicit SnapshotWriter(std::string dir);

  /// Appends one delta epoch and seals it.
  void snapshot(const StoreView& view);

  [[nodiscard]] const SnapshotStats& stats() const { return stats_; }

 private:
  /// Last sealed state of one leaf: its hash plus where its current
  /// winning RunBlock record lives in the journal — the Commit's replay
  /// directory is built from these, so restore can read O(live) bytes.
  struct CachedLeaf {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;  ///< journal offset of the record frame
    std::uint64_t bytes = 0;   ///< whole-frame length at that offset
  };

  JournalWriter journal_;
  std::uint64_t epoch_ = 0;
  /// Last sealed leaves: (array, version) -> per rank -> per leaf.
  std::map<std::pair<int, int>, std::vector<std::vector<CachedLeaf>>> leaves_;
  /// Reused record header, and the gather buffer of leaves whose
  /// repetitions are not adjacent in rank storage.
  ByteWriter header_;
  std::vector<double> gather_;
  SnapshotStats stats_;
};

/// One leaf rebuilt from a RunBlock record: the stretch `geometry`
/// repeated `reps` times, repetition k moved `k * local_step` local and
/// `k * global_step` global positions.
struct RestoredRun {
  mapping::OwnedRun geometry;
  mapping::Extent reps = 1;
  mapping::Index local_step = 0;
  mapping::Index global_step = 0;
  std::vector<double> values;  ///< reps × geometry.len, expansion order
};

struct RestoredVersion {
  int array = 0;
  int version = 0;
  bool allocated = false;
  bool live = false;
  std::uint64_t hash = 0;  ///< recomputed, verified against the seal
  std::map<int, std::vector<RestoredRun>> runs;     ///< rank -> leaves in order
  std::map<int, std::vector<double>> locals;        ///< rank -> local vector
};

struct RestoredStore {
  bool valid = false;      ///< at least one sealed epoch was recovered
  bool torn_tail = false;  ///< unsealed/torn trailing bytes were discarded
  std::uint64_t epoch = 0;
  std::uint64_t write_counter = 0;
  std::vector<int> status;
  std::vector<int> saved;
  std::vector<RestoredVersion> versions;
  /// Per-array hash-tree roots, recomputed from the rebuilt bytes and
  /// verified equal to the sealed Commit's roots.
  std::map<int, std::uint64_t> roots;
  double restore_ms = 0.0;
};

/// Rebuilds the store from the last sealed epoch. Never throws on a torn
/// tail; throws PersistError when the *sealed* prefix is damaged.
[[nodiscard]] RestoredStore restore(const std::string& dir);

/// Every sealed epoch readable from the journal, oldest first — the
/// expected recovery points for fault-injection sweeps.
struct SealedEpoch {
  std::uint64_t epoch = 0;
  std::uint64_t end_offset = 0;  ///< journal byte length at this seal
  std::map<int, std::uint64_t> roots;
};
[[nodiscard]] std::vector<SealedEpoch> sealed_epochs(const std::string& dir);

}  // namespace hpfc::persist
