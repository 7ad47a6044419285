// Crash-consistent checkpoint/restore of the versioned array store:
// hash-tree determinism, journal framing + torn-tail detection, delta
// snapshot economy, machine-level round trips, cross-backend root
// identity, and fault injection — a byte-granular truncation sweep, a
// SIGKILLed writer process, and a killed proc-backend worker
// mid-superstep. Every recovery must yield a store whose recomputed
// per-array hash-tree roots equal the last sealed snapshot's.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "driver/compiler.hpp"
#include "exec/proc_backend.hpp"
#include "hpf/builder.hpp"
#include "persist/hash.hpp"
#include "persist/journal.hpp"
#include "persist/snapshot.hpp"
#include "support/piece.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

namespace fs = std::filesystem;
using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("hpfc_persist_" + tag + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(++counter));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// A loop of remappings over two arrays: several snapshot boundaries per
/// trip at O0, with writes between them so successive epochs differ.
/// Inside the loop A is redistributed to `cyclic_format`.
ir::Program loop_program(Extent n, int procs, Extent trips,
                         DistFormat cyclic_format = DistFormat::cyclic()) {
  ProgramBuilder b("persist_loop");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("B", Shape{n});
  b.distribute_array("B", {DistFormat::cyclic()}, "P");
  b.def({"A"});
  b.use({"A"});
  b.begin_loop(trips, /*may_zero_trip=*/false);
  b.redistribute("A", {cyclic_format});
  b.def({"B"});
  b.use({"A", "B"});
  b.redistribute("A", {DistFormat::block()});
  b.use({"A"});
  b.end_loop();
  b.use({"A", "B"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

Compiled compile_loop(OptLevel level, Extent n, int procs, Extent trips,
                      DistFormat cyclic_format = DistFormat::cyclic()) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = level;
  Compiled compiled = driver::compile(
      loop_program(n, procs, trips, cyclic_format), options, diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

// ---- hash tree ---------------------------------------------------------

TEST(PersistHash, TreeIsDeterministicAndPositionSensitive) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0, 4.0};
  EXPECT_EQ(persist::leaf_hash(a.data(), 3), persist::leaf_hash(a.data(), 3));
  EXPECT_NE(persist::leaf_hash(a.data(), 3), persist::leaf_hash(b.data(), 3));
  // Folds are order-sensitive: leaves are tree positions, not a bag.
  EXPECT_NE(persist::rank_hash({1, 2}), persist::rank_hash({2, 1}));
  const std::uint64_t rh = persist::rank_hash({7});
  EXPECT_NE(persist::version_hash(true, true, {rh}),
            persist::version_hash(true, false, {rh}));
  EXPECT_NE(persist::version_hash(false, false, {}),
            persist::version_hash(true, false, {}));
  EXPECT_NE(persist::array_root(0, {42}), persist::array_root(1, {42}));
  EXPECT_NE(persist::array_root(0, {1, 2}), persist::array_root(0, {2, 1}));
}

// ---- journal framing ---------------------------------------------------

TEST(PersistJournal, RoundTripsRecordsAndSealsManifest) {
  const std::string dir = fresh_dir("journal");
  std::uint64_t commit_offset = 0;
  const std::vector<std::uint8_t> leaf{1, 2, 3};
  const std::vector<std::uint8_t> commit{4, 5};
  {
    persist::JournalWriter writer(dir);
    writer.append(persist::RecordType::kRunBlock, leaf);
    commit_offset = writer.bytes_written();
    writer.append(persist::RecordType::kCommit, commit);
    writer.seal(1, commit_offset);
  }
  const auto scan =
      persist::scan_journal(persist::JournalWriter::journal_path(dir));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records[0].type, persist::RecordType::kRunBlock);
  const auto* payload = scan.payload(scan.records[0]);
  EXPECT_EQ(std::vector<std::uint8_t>(
                payload, payload + scan.records[0].payload_len),
            leaf);
  EXPECT_EQ(scan.records[1].type, persist::RecordType::kCommit);
  EXPECT_EQ(scan.records[1].end_offset, scan.consistent_bytes);
  const auto manifest = persist::read_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->epoch, 1u);
  EXPECT_EQ(manifest->sealed_bytes, scan.consistent_bytes);
  EXPECT_EQ(manifest->commit_offset, commit_offset);
}

TEST(PersistJournal, HeaderAndValuesFrameLikeOneConcatenatedPayload) {
  // append(type, header, values) frames in place; its bytes must equal
  // the frame of the concatenated payload handed over in one span — also
  // when the header is not a whole number of words, so the checksum's
  // word fold straddles the header/values boundary.
  const std::vector<double> values{1.5, -2.25, 3.0};
  for (const std::size_t header_len : {0u, 3u, 8u, 13u, 72u}) {
    std::vector<std::uint8_t> header(header_len);
    for (std::size_t i = 0; i < header_len; ++i)
      header[i] = static_cast<std::uint8_t>(7 * i + 1);
    std::vector<std::uint8_t> joined = header;
    const auto* value_bytes =
        reinterpret_cast<const std::uint8_t*>(values.data());
    joined.insert(joined.end(), value_bytes,
                  value_bytes + values.size() * sizeof(double));
    const std::string split_dir = fresh_dir("split");
    const std::string joined_dir = fresh_dir("joined");
    {
      persist::JournalWriter split(split_dir);
      split.append(persist::RecordType::kRunBlock, header, values);
      persist::JournalWriter whole(joined_dir);
      whole.append(persist::RecordType::kRunBlock, joined);
      EXPECT_EQ(split.bytes_written(), whole.bytes_written());
    }
    const std::string path = persist::JournalWriter::journal_path(split_dir);
    EXPECT_EQ(read_bytes(path),
              read_bytes(persist::JournalWriter::journal_path(joined_dir)))
        << "header of " << header_len << " bytes";
    const auto scan = persist::scan_journal(path);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_FALSE(scan.torn_tail);
    EXPECT_EQ(scan.records[0].payload_len, joined.size());
  }
}

TEST(PersistJournal, CorruptRecordTerminatesTheScan) {
  // Each corruption of record 2 ends the scan there as a torn tail: a
  // flipped payload byte fails the checksum, and a length field near
  // 2^64 (which once wrapped the bounds check) is truncation.
  struct Corruption {
    const char* name;
    std::size_t at;  ///< offset into record 2's frame
    std::uint64_t value;
    int bytes;
  };
  for (const Corruption c :
       {Corruption{"payload bit", 17, 0x40, 0},
        Corruption{"length 2^64-4", 8, ~std::uint64_t{3}, 8},
        Corruption{"length 2^64-8", 8, ~std::uint64_t{7}, 8},
        Corruption{"length 2^64-1", 8, ~std::uint64_t{0}, 8}}) {
    SCOPED_TRACE(c.name);
    const std::string dir = fresh_dir("corrupt");
    {
      persist::JournalWriter writer(dir);
      const std::vector<std::uint8_t> first{1, 2, 3};
      const std::vector<std::uint8_t> second{4, 5, 6};
      writer.append(persist::RecordType::kRunBlock, first);
      writer.append(persist::RecordType::kRunBlock, second);
      writer.seal(1, 0);
    }
    const std::string path = persist::JournalWriter::journal_path(dir);
    auto bytes = read_bytes(path);
    const auto first_end =
        persist::scan_journal(path).records[0].end_offset;
    if (c.bytes == 0) {
      bytes[first_end + c.at] ^= static_cast<std::uint8_t>(c.value);
    } else {
      for (int i = 0; i < c.bytes; ++i)
        bytes[first_end + c.at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(c.value >> (8 * i));
    }
    write_bytes(path, bytes);
    const auto scan = persist::scan_journal(path);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_TRUE(scan.torn_tail);
    EXPECT_EQ(scan.consistent_bytes, first_end);
  }
}

// ---- delta snapshots ---------------------------------------------------

TEST(PersistSnapshot, DeltaWritesOnlyChangedRuns) {
  const std::string dir = fresh_dir("delta");
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  std::vector<Piece> locals{{1.0, 2.0}, {3.0, 4.0}};
  const auto runs0 = mapping::OwnedProgram::flat({{0, 0, 1, 2}});
  const auto runs1 = mapping::OwnedProgram::flat({{0, 2, 1, 2}});
  persist::StoreView view;
  view.status = &status;
  view.saved = &saved;
  view.write_counter = 1;
  persist::VersionView vv;
  vv.array = 0;
  vv.version = 0;
  vv.allocated = true;
  vv.live = true;
  vv.dirty = true;
  vv.locals = &locals;
  vv.runs = {&runs0, &runs1};
  view.versions.push_back(vv);

  writer.snapshot(view);  // epoch 1: everything is new
  EXPECT_EQ(writer.stats().runs_written, 2u);
  view.versions[0].dirty = false;
  writer.snapshot(view);  // epoch 2: clean version, no re-hash, no runs
  EXPECT_EQ(writer.stats().runs_written, 2u);
  view.versions[0].dirty = true;
  writer.snapshot(view);  // epoch 3: dirty but unchanged — re-hash only
  EXPECT_EQ(writer.stats().runs_written, 2u);
  locals[1][0] = 9.0;  // epoch 4: exactly one run's leaf changes
  writer.snapshot(view);
  EXPECT_EQ(writer.stats().runs_written, 3u);
  EXPECT_EQ(writer.stats().epochs, 4u);

  const auto restored = persist::restore(dir);
  ASSERT_TRUE(restored.valid);
  EXPECT_FALSE(restored.torn_tail);
  EXPECT_EQ(restored.epoch, 4u);
  ASSERT_EQ(restored.versions.size(), 1u);
  EXPECT_EQ(restored.versions[0].locals.at(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(restored.versions[0].locals.at(1), (std::vector<double>{9.0, 4.0}));
}

TEST(PersistSnapshot, RanksWithoutRunsRoundTrip) {
  // A distribution can leave a rank owning no run of a version (fig18's
  // call-interface mappings do). Such ranks journal nothing, so the
  // version hash must skip them — while still telling WHICH ranks own
  // the data apart. Regression: the writer used to fold an empty rank
  // hash that restore could never reproduce.
  const std::string dir = fresh_dir("empty_rank");
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  std::vector<Piece> locals{{1.0, 2.0}, {}, {3.0, 4.0}};
  const auto runs = mapping::OwnedProgram::flat({{0, 0, 1, 2}});
  const mapping::OwnedProgram none;
  persist::StoreView view;
  view.status = &status;
  view.saved = &saved;
  view.write_counter = 1;
  persist::VersionView vv;
  vv.array = 0;
  vv.version = 0;
  vv.allocated = true;
  vv.live = true;
  vv.locals = &locals;
  vv.runs = {&runs, &none, &runs};
  view.versions.push_back(vv);
  writer.snapshot(view);

  const auto restored = persist::restore(dir);
  ASSERT_TRUE(restored.valid);
  EXPECT_FALSE(restored.torn_tail);
  ASSERT_EQ(restored.versions.size(), 1u);
  EXPECT_EQ(restored.versions[0].runs.count(1), 0u);
  EXPECT_EQ(restored.versions[0].locals.at(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(restored.versions[0].locals.at(2), (std::vector<double>{3.0, 4.0}));

  // The mirror distribution (ranks 0 and 1 own, rank 2 empty) holds the
  // same values but must seal a DIFFERENT root: rank identity matters.
  const std::string mirror_dir = fresh_dir("empty_rank_mirror");
  persist::SnapshotWriter mirror_writer(mirror_dir);
  std::vector<Piece> mirror_locals{{1.0, 2.0}, {3.0, 4.0}, {}};
  view.versions[0].locals = &mirror_locals;
  view.versions[0].runs = {&runs, &runs, &none};
  mirror_writer.snapshot(view);
  EXPECT_NE(persist::sealed_epochs(dir).back().roots,
            persist::sealed_epochs(mirror_dir).back().roots);
}

/// Snapshots one allocated version of `lay` (locals filled with each
/// element's global index) into a fresh journal and checks the leaf
/// structure: one RunBlock record per body entry per block, restore
/// rebuilding `locals` bit-identically with each leaf's geometry the
/// block's, no record for an unchanged re-snapshot, and a one-element
/// write re-journaling exactly one leaf per touched rank. Returns the
/// per-rank leaf counts.
std::vector<std::size_t> check_leaves_of(const mapping::ConcreteLayout& lay,
                                         const std::string& tag) {
  const auto ranks = static_cast<std::size_t>(lay.ranks());
  std::vector<mapping::OwnedProgram> programs(ranks);
  std::vector<Piece> locals(ranks);
  std::vector<std::size_t> leaves(ranks, 0);
  std::uint64_t total_leaves = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    programs[r] = lay.owned_program(static_cast<int>(r));
    for (const auto& run : testing::expand(programs[r])) {
      locals[r].resize(static_cast<std::size_t>(run.local_base + run.len),
                       0.0);
      for (Extent j = 0; j < run.len; ++j)
        locals[r][static_cast<std::size_t>(run.local_base + j)] =
            static_cast<double>(run.global_base + j * run.global_stride);
    }
    for (const auto& block : programs[r].blocks) leaves[r] += block.count;
    total_leaves += leaves[r];
  }
  const std::string dir = fresh_dir(tag);
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  persist::StoreView view;
  view.status = &status;
  view.saved = &saved;
  view.write_counter = 1;
  persist::VersionView vv;
  vv.allocated = true;
  vv.live = true;
  vv.locals = &locals;
  for (const auto& program : programs) vv.runs.push_back(&program);
  view.versions.push_back(vv);

  const auto expect_restores = [&] {
    const auto restored = persist::restore(dir);
    ASSERT_TRUE(restored.valid);
    ASSERT_EQ(restored.versions.size(), 1u);
    for (std::size_t r = 0; r < ranks; ++r) {
      const int rank = static_cast<int>(r);
      const auto& local = restored.versions[0].locals.at(rank);
      ASSERT_EQ(local.size(), locals[r].size());
      EXPECT_EQ(std::memcmp(local.data(), locals[r].data(),
                            local.size() * sizeof(double)),
                0)
          << "rank " << r;
      const auto& runs = restored.versions[0].runs.at(rank);
      ASSERT_EQ(runs.size(), leaves[r]) << "rank " << r;
      std::size_t index = 0;
      for (const auto& block : programs[r].blocks)
        for (std::uint32_t i = block.first; i < block.first + block.count;
             ++i, ++index) {
          EXPECT_EQ(runs[index].geometry, programs[r].body[i]);
          EXPECT_EQ(runs[index].reps, block.reps);
          EXPECT_EQ(runs[index].local_step, block.src_step);
          EXPECT_EQ(runs[index].global_step, block.dst_step);
          EXPECT_EQ(runs[index].values.size(),
                    static_cast<std::size_t>(block.reps *
                                             programs[r].body[i].len));
        }
    }
  };

  writer.snapshot(view);
  EXPECT_EQ(writer.stats().runs_written, total_leaves);
  expect_restores();
  writer.snapshot(view);  // dirty but unchanged: re-hash, no record
  EXPECT_EQ(writer.stats().runs_written, total_leaves);

  // One write per rank at local position 5 re-journals exactly the leaf
  // holding it, whole: its frame is 16 bytes of record header, 72 of leaf
  // header, reps × len values and an 8-byte checksum.
  const std::string path = persist::JournalWriter::journal_path(dir);
  const std::uint64_t before = persist::scan_journal(path).consistent_bytes;
  std::vector<std::uint64_t> expected_frames;
  for (std::size_t r = 0; r < ranks; ++r) {
    if (locals[r].size() <= 5) continue;
    locals[r][5] += 1.0;
    for (const auto& block : programs[r].blocks)
      for (std::uint32_t i = block.first; i < block.first + block.count; ++i) {
        const auto& run = programs[r].body[i];
        for (Extent k = 0; k < block.reps; ++k)
          if (run.local_base + k * block.src_step <= 5 &&
              5 < run.local_base + k * block.src_step + run.len)
            expected_frames.push_back(
                96 + 8 * static_cast<std::uint64_t>(block.reps * run.len));
      }
  }
  writer.snapshot(view);
  EXPECT_EQ(writer.stats().runs_written,
            total_leaves + expected_frames.size());
  std::vector<std::uint64_t> frames;
  const auto scan = persist::scan_journal(path);
  for (const auto& record : scan.records)
    if (record.payload_offset > before &&
        record.type == persist::RecordType::kRunBlock)
      frames.push_back(record.end_offset - (record.payload_offset - 16));
  EXPECT_EQ(frames, expected_frames);
  expect_restores();
  return leaves;
}

TEST(PersistSnapshot, CyclicVersionIsOneLeafPerRank) {
  // A(n) CYCLIC(k) on 4. CYCLIC(1) is one strided stretch {r, +4 x n/4}
  // per rank; CYCLIC(k>1) is one k-element stretch repeated window by
  // window, plus a clipped last window where n is not a whole number of
  // periods. Either way a rank journals one leaf per body entry per
  // block, so its record count is set by the pattern, not by n.
  for (const Extent k : {1, 2, 3}) {
    std::vector<std::vector<std::size_t>> per_n;
    for (const Extent n : {64, 4096}) {
      SCOPED_TRACE("cyclic(" + std::to_string(k) + ") n=" +
                   std::to_string(n));
      const auto lay = mapping::ConcreteLayout::make(
          Shape{n}, Shape{4},
          {{mapping::AlignTarget::axis(0), DistFormat::cyclic(k), n}});
      per_n.push_back(check_leaves_of(lay, "cyclic_leaf"));
    }
    EXPECT_EQ(per_n[0], per_n[1]) << "cyclic(" << k << ")";
    // n is a whole number of CYCLIC(1) and CYCLIC(2) periods, so each rank
    // is one leaf; CYCLIC(3) adds a clipped-window leaf to one rank.
    for (const std::size_t rank_leaves : per_n[0])
      EXPECT_LE(rank_leaves, k == 3 ? 2u : 1u) << "cyclic(" << k << ")";
  }
  // Write amplification, written down: at n = 4096 a CYCLIC(2) rank owns
  // 1024 elements in one leaf, so a one-element write re-journals 8288
  // bytes per rank (asserted frame by frame in check_leaves_of).

  // 2-D: A(4, 64), rows BLOCK(2), columns aligned with stride 3 to a
  // CYCLIC(4) template. Each row window of a rank holds two stretches
  // that do not coalesce, so the program has count == 2, reps == 7
  // blocks whose leaves are not contiguous in rank storage (local_step 4
  // > len 2): the writer gathers them, restore scatters them back.
  const auto lay = mapping::ConcreteLayout::make(
      Shape{4, 64}, Shape{2, 2},
      {{mapping::AlignTarget::axis(0), DistFormat::block(2), 4},
       {mapping::AlignTarget::axis(1, 3, 0), DistFormat::cyclic(4), 192}});
  bool gapped = false;
  for (int r = 0; r < lay.ranks(); ++r) {
    const auto program = lay.owned_program(r);
    for (const auto& block : program.blocks)
      if (block.count > 1 && block.reps > 1 &&
          block.src_step != program.body[block.first].len)
        gapped = true;
  }
  ASSERT_TRUE(gapped);
  SCOPED_TRACE("2-D block-cyclic");
  (void)check_leaves_of(lay, "block_cyclic_leaf");
}

// ---- machine-level round trip ------------------------------------------

TEST(PersistRestore, RebuildsTheSealedStoreBitIdentically) {
  const Compiled compiled = compile_loop(OptLevel::O0, 64, 4, 4);
  const std::string dir = fresh_dir("roundtrip");
  runtime::RunOptions options;
  options.seed = 3;
  options.snapshot_dir = dir;
  const auto report = driver::run(compiled, options);
  EXPECT_GT(report.snapshot_bytes, 0u);
  EXPECT_GT(report.snapshot_runs_written, 0u);
  EXPECT_GT(report.copies_performed, 0);

  // restore() verifies internally that every recomputed version hash and
  // array root equals the sealed Commit's — a bit-identical rebuild.
  const auto restored = persist::restore(dir);
  ASSERT_TRUE(restored.valid);
  EXPECT_FALSE(restored.torn_tail);
  EXPECT_GT(restored.epoch, 1u);
  EXPECT_EQ(restored.write_counter, report.writes);
  EXPECT_EQ(restored.status.size(), compiled.program.arrays.size());
  EXPECT_FALSE(restored.roots.empty());
  const auto sealed = persist::sealed_epochs(dir);
  ASSERT_EQ(sealed.size(), restored.epoch);
  EXPECT_EQ(sealed.back().roots, restored.roots);
  // B(64) is CYCLIC on 4 throughout: one strided leaf per rank.
  const int b = compiled.program.find_array("B");
  int cyclic_ranks = 0;
  for (const auto& v : restored.versions) {
    if (v.array != b || !v.allocated) continue;
    for (const auto& [rank, runs] : v.runs) {
      ASSERT_EQ(runs.size(), 1u) << "rank " << rank;
      EXPECT_EQ(runs[0].geometry.global_stride, 4);
      EXPECT_EQ(runs[0].geometry.len, 16);
      ++cyclic_ranks;
    }
  }
  EXPECT_EQ(cyclic_ranks, 4);

  // Snapshot cadence: --snapshot-every=2 seals fewer epochs but the same
  // final store.
  const std::string sparse_dir = fresh_dir("sparse");
  runtime::RunOptions sparse = options;
  sparse.snapshot_dir = sparse_dir;
  sparse.snapshot_every = 2;
  const auto sparse_report = driver::run(compiled, sparse);
  EXPECT_LT(sparse_report.snapshot_bytes, report.snapshot_bytes);
  const auto sparse_restored = persist::restore(sparse_dir);
  ASSERT_TRUE(sparse_restored.valid);
  EXPECT_LT(sparse_restored.epoch, restored.epoch);
  EXPECT_EQ(sparse_restored.roots, restored.roots);
}

TEST(PersistRestore, RootsAndCountersAreBackendInvariant) {
  const Compiled compiled = compile_loop(OptLevel::O2, 96, 4, 3);
  struct Result {
    runtime::RunReport report;
    persist::RestoredStore restored;
  };
  std::vector<Result> results;
  for (const exec::BackendKind kind :
       {exec::BackendKind::Seq, exec::BackendKind::Thread,
        exec::BackendKind::Proc}) {
    const std::string dir =
        fresh_dir(std::string("backend_") + exec::to_string(kind));
    runtime::RunOptions options;
    options.seed = 5;
    options.backend = kind;
    options.snapshot_dir = dir;
    Result result;
    result.report = driver::run(compiled, options);
    result.restored = persist::restore(dir);
    ASSERT_TRUE(result.restored.valid) << exec::to_string(kind);
    results.push_back(std::move(result));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].report.snapshot_bytes,
              results[0].report.snapshot_bytes);
    EXPECT_EQ(results[i].report.snapshot_runs_written,
              results[0].report.snapshot_runs_written);
    EXPECT_EQ(results[i].restored.epoch, results[0].restored.epoch);
    EXPECT_EQ(results[i].restored.write_counter,
              results[0].restored.write_counter);
    EXPECT_EQ(results[i].restored.status, results[0].restored.status);
    EXPECT_EQ(results[i].restored.saved, results[0].restored.saved);
    EXPECT_EQ(results[i].restored.roots, results[0].restored.roots);
  }
}

TEST(PersistRestore, ManifestlessRestoreMatchesTheManifest) {
  // Restore has one path: without a manifest the sealed prefix is empty
  // and the whole journal is the unsealed suffix. Both entry states must
  // rebuild the same store from one journal, intact or with a torn
  // half-record appended.
  const auto expect_same = [](const persist::RestoredStore& manifest,
                              const persist::RestoredStore& manifestless) {
    EXPECT_EQ(manifestless.valid, manifest.valid);
    EXPECT_EQ(manifestless.epoch, manifest.epoch);
    EXPECT_EQ(manifestless.torn_tail, manifest.torn_tail);
    EXPECT_EQ(manifestless.roots, manifest.roots);
    ASSERT_EQ(manifestless.versions.size(), manifest.versions.size());
    for (std::size_t i = 0; i < manifest.versions.size(); ++i) {
      EXPECT_EQ(manifestless.versions[i].array, manifest.versions[i].array);
      EXPECT_EQ(manifestless.versions[i].version,
                manifest.versions[i].version);
      EXPECT_EQ(manifestless.versions[i].locals, manifest.versions[i].locals)
          << "version entry " << i;
    }
  };
  for (const DistFormat format :
       {DistFormat::cyclic(), DistFormat::cyclic(2)}) {
    SCOPED_TRACE(format.to_string());
    const Compiled compiled = compile_loop(OptLevel::O0, 64, 4, 3, format);
    const std::string dir = fresh_dir("entry_states");
    runtime::RunOptions options;
    options.seed = 11;
    options.snapshot_dir = dir;
    (void)driver::run(compiled, options);
    const std::string journal_path =
        persist::JournalWriter::journal_path(dir);
    const std::string manifest_path =
        persist::JournalWriter::manifest_path(dir);
    const auto journal = read_bytes(journal_path);
    const auto manifest = read_bytes(manifest_path);
    ASSERT_FALSE(manifest.empty());
    const auto sealed = persist::sealed_epochs(dir);
    ASSERT_GE(sealed.size(), 2u);

    // The first half of the journal's first record: a torn append.
    auto torn = journal;
    const auto first = persist::scan_journal(journal_path).records.at(0);
    torn.insert(torn.end(), journal.begin(),
                journal.begin() +
                    static_cast<std::ptrdiff_t>(first.end_offset / 2));

    for (const bool torn_tail : {false, true}) {
      SCOPED_TRACE(torn_tail ? "torn half-record appended" : "intact");
      write_bytes(journal_path, torn_tail ? torn : journal);
      write_bytes(manifest_path, manifest);
      const auto with_manifest = persist::restore(dir);
      ASSERT_TRUE(with_manifest.valid);
      EXPECT_EQ(with_manifest.epoch, sealed.back().epoch);
      EXPECT_EQ(with_manifest.torn_tail, torn_tail);
      fs::remove(manifest_path);
      expect_same(with_manifest, persist::restore(dir));
    }
  }
}

// ---- fault injection ---------------------------------------------------

TEST(PersistFaultInjection, EveryPrefixRestoresTheLastSealedEpoch) {
  // Over the CYCLIC(1) loop and a CYCLIC(2) variant, whose leaves are
  // periodic blocks (reps > 1).
  for (const DistFormat format :
       {DistFormat::cyclic(), DistFormat::cyclic(2)}) {
    SCOPED_TRACE(format.to_string());
    const Compiled compiled = compile_loop(OptLevel::O0, 16, 4, 2, format);
    const std::string dir = fresh_dir("sweep_src");
    runtime::RunOptions options;
    options.seed = 9;
    options.snapshot_dir = dir;
    (void)driver::run(compiled, options);
    const auto journal =
        read_bytes(persist::JournalWriter::journal_path(dir));
    const auto sealed = persist::sealed_epochs(dir);
    ASSERT_GE(sealed.size(), 3u);
    ASSERT_EQ(sealed.back().end_offset, journal.size());

    // Simulate kill -9 after every possible journal byte count (the
    // manifest is absent, as after a crash before the first seal — the
    // whole journal is the unsealed suffix, and restore must recover the
    // last fully committed epoch).
    const std::string work = fresh_dir("sweep_work");
    const std::string work_journal = persist::JournalWriter::journal_path(work);
    for (std::size_t len = 0; len <= journal.size(); ++len) {
      write_bytes(work_journal,
                  {journal.begin(),
                   journal.begin() + static_cast<std::ptrdiff_t>(len)});
      const persist::SealedEpoch* expected = nullptr;
      for (const auto& epoch : sealed)
        if (epoch.end_offset <= len) expected = &epoch;
      const auto restored = persist::restore(work);
      if (expected == nullptr) {
        EXPECT_FALSE(restored.valid) << "prefix " << len;
        EXPECT_EQ(restored.torn_tail, len != 0) << "prefix " << len;
        continue;
      }
      ASSERT_TRUE(restored.valid) << "prefix " << len;
      EXPECT_EQ(restored.epoch, expected->epoch) << "prefix " << len;
      EXPECT_EQ(restored.roots, expected->roots) << "prefix " << len;
      EXPECT_EQ(restored.torn_tail, len != expected->end_offset)
          << "prefix " << len;
    }
  }
}

TEST(PersistFaultInjection, ManifestPastTheJournalIsSealedCorruption) {
  const Compiled compiled = compile_loop(OptLevel::O0, 16, 4, 2);
  const std::string dir = fresh_dir("manifest");
  runtime::RunOptions options;
  options.seed = 9;
  options.snapshot_dir = dir;
  (void)driver::run(compiled, options);
  const std::string path = persist::JournalWriter::journal_path(dir);
  const auto journal = read_bytes(path);
  const auto sealed = persist::sealed_epochs(dir);
  ASSERT_GE(sealed.size(), 2u);
  // Truncating sealed bytes while the manifest still claims them is NOT
  // a torn tail: sealed data was lost, and restore must refuse.
  write_bytes(path, {journal.begin(),
                     journal.begin() + static_cast<std::ptrdiff_t>(
                                           sealed.front().end_offset)});
  EXPECT_THROW((void)persist::restore(dir), persist::PersistError);
}

TEST(PersistFaultInjection, CorruptSealedByteIsDetected) {
  // Two epochs over one 2-rank version: epoch 2 rewrites rank 1's run,
  // so rank 1's epoch-1 record becomes dead history while rank 0's
  // epoch-1 record stays the live winner.
  const std::string dir = fresh_dir("flip");
  {
    persist::SnapshotWriter writer(dir);
    std::vector<int> status{0};
    std::vector<int> saved;
    std::vector<Piece> locals{{1.0, 2.0}, {3.0, 4.0}};
    const auto runs = mapping::OwnedProgram::flat({{0, 0, 1, 2}});
    persist::StoreView view;
    view.status = &status;
    view.saved = &saved;
    view.write_counter = 1;
    persist::VersionView vv;
    vv.array = 0;
    vv.version = 0;
    vv.allocated = true;
    vv.live = true;
    vv.locals = &locals;
    vv.runs = {&runs, &runs};
    view.versions.push_back(vv);
    writer.snapshot(view);
    locals[1][0] = 9.0;  // epoch 2 rewrites exactly rank 1's record
    writer.snapshot(view);
  }
  const std::string path = persist::JournalWriter::journal_path(dir);
  const auto journal = read_bytes(path);
  const auto scan = persist::scan_journal(path);
  // rank0 run, rank1 run, commit 1, rank1 run rewrite, commit 2.
  ASSERT_EQ(scan.records.size(), 5u);
  const auto manifest = persist::read_manifest(dir);
  ASSERT_TRUE(manifest.has_value());

  {  // Corrupting the sealing Commit record is sealed-data corruption.
    auto bytes = journal;
    bytes[manifest->commit_offset + 20] ^= 0x01;
    write_bytes(path, bytes);
    EXPECT_THROW((void)persist::restore(dir), persist::PersistError);
  }
  {  // So is corrupting a live winning record (rank 0's, epoch 1).
    auto bytes = journal;
    bytes[scan.records[0].payload_offset + 20] ^= 0x01;
    write_bytes(path, bytes);
    EXPECT_THROW((void)persist::restore(dir), persist::PersistError);
  }
  {  // Corruption confined to dead delta history (rank 1's superseded
     // epoch-1 record) cannot block recovery: the directory-guided
     // restore replays only the winners, and they are intact.
    auto bytes = journal;
    bytes[scan.records[1].payload_offset + 20] ^= 0x01;
    write_bytes(path, bytes);
    const auto restored = persist::restore(dir);
    ASSERT_TRUE(restored.valid);
    EXPECT_EQ(restored.epoch, 2u);
    EXPECT_EQ(restored.versions.at(0).locals.at(1),
              (std::vector<double>{9.0, 4.0}));
  }
}

/// RunBlock payload header: identity, stretch geometry, repetition.
std::vector<std::uint8_t> leaf_header(std::uint32_t rank, std::uint32_t index,
                                      std::int64_t local_base,
                                      std::int64_t len, std::int64_t reps,
                                      std::int64_t local_step) {
  persist::ByteWriter w;
  w.u32(0);  // array
  w.u32(0);  // version
  w.u32(rank);
  w.u32(index);
  w.i64(local_base);
  w.i64(0);  // global_base
  w.i64(1);  // global_stride
  w.i64(len);
  w.i64(reps);
  w.i64(local_step);
  w.i64(0);  // global_step
  return w.bytes();
}

TEST(PersistFaultInjection, HostileLeafRecordsArePersistErrors) {
  // Hand-built journals with valid checksums and no manifest (the whole
  // journal is the unsealed suffix): the seal of a one-rank, one-leaf
  // store {1.0, 2.0}, preceded by a crafted leaf record in that leaf's
  // slot, or the valid leaf sealed by a crafted Commit. Every malformed
  // field must surface as PersistError — not as a wrapped size, an allocation
  // failure or an out-of-bounds write.
  const std::string source = fresh_dir("hostile_src");
  {
    persist::SnapshotWriter writer(source);
    std::vector<int> status{0};
    std::vector<int> saved;
    std::vector<Piece> locals{{1.0, 2.0}};
    const auto runs = mapping::OwnedProgram::flat({{0, 0, 1, 2}});
    persist::StoreView view;
    view.status = &status;
    view.saved = &saved;
    view.write_counter = 1;
    persist::VersionView vv;
    vv.allocated = true;
    vv.live = true;
    vv.locals = &locals;
    vv.runs = {&runs};
    view.versions.push_back(vv);
    writer.snapshot(view);
  }
  const auto sealed =
      persist::scan_journal(persist::JournalWriter::journal_path(source));
  ASSERT_EQ(sealed.records.size(), 2u);
  const auto payload_of = [&](std::size_t i) {
    const auto* p = sealed.payload(sealed.records[i]);
    return std::vector<std::uint8_t>(p, p + sealed.records[i].payload_len);
  };
  const auto valid_leaf = payload_of(0);
  const auto commit = payload_of(1);
  const std::vector<double> two{1.0, 2.0};
  constexpr std::int64_t kHuge = std::int64_t{1} << 61;

  struct Hostile {
    const char* name;
    persist::RecordType type;
    std::vector<std::uint8_t> header;
    std::vector<double> values;
  };
  persist::ByteWriter status_count;  // a Commit claiming 2^60 statuses
  status_count.u64(1);
  status_count.u64(1);
  status_count.u64(std::uint64_t{1} << 60);
  const std::vector<Hostile> cases{
      {"len 2^61 (len * 8 wraps to 0)", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, kHuge, 1, 0), {}},
      {"reps 2^61", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, 1, kHuge, 1), {}},
      {"reps * len * 8 wraps to 16 bytes", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, 2, (std::int64_t{1} << 60) + 1, 2), two},
      {"zero reps", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, 2, 0, 2), {}},
      {"negative local_step", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, 1, 2, -1), two},
      {"local extent overflows", persist::RecordType::kRunBlock,
       leaf_header(0, 0, 0, 1, 2, INT64_MAX), two},
      {"leaf past the rank's extent", persist::RecordType::kRunBlock,
       leaf_header(0, 0, kHuge, 2, 1, 0), two},
      {"retired RunData leaf", persist::RecordType::kRunData, valid_leaf,
       {}},
      {"commit count 2^60", persist::RecordType::kCommit,
       status_count.bytes(), {}},
  };
  for (const Hostile& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = fresh_dir("hostile");
    {
      persist::JournalWriter writer(dir);
      if (c.type == persist::RecordType::kCommit) {
        writer.append(persist::RecordType::kRunBlock, valid_leaf);
        writer.append(c.type, c.header);
      } else {
        writer.append(c.type, c.header, c.values);
        writer.append(persist::RecordType::kCommit, commit);
      }
    }
    ASSERT_FALSE(persist::read_manifest(dir).has_value());
    try {
      (void)persist::restore(dir);
      ADD_FAILURE() << "restore accepted the record";
    } catch (const persist::PersistError& e) {
      if (c.type == persist::RecordType::kRunData) {
        EXPECT_NE(std::string(e.what()).find("RunData"), std::string::npos)
            << e.what();
      }
    }
  }

  // Slot identity is bounded by the last Commit's directory: a record for
  // rank and leaf 2^32 - 1 is dead history the seal never named, so it is
  // skipped rather than sizing a table — and the valid winner restores.
  const std::string dir = fresh_dir("hostile_identity");
  {
    persist::JournalWriter writer(dir);
    writer.append(persist::RecordType::kRunBlock, valid_leaf);
    writer.append(persist::RecordType::kRunBlock,
                  leaf_header(0xffff'ffffu, 0xffff'ffffu, 0, 2, 1, 0), two);
    writer.append(persist::RecordType::kCommit, commit);
  }
  const auto restored = persist::restore(dir);
  ASSERT_TRUE(restored.valid);
  EXPECT_EQ(restored.versions.at(0).locals.at(0),
            (std::vector<double>{1.0, 2.0}));
}

TEST(PersistFaultInjection, SigkilledWriterLeavesARecoverableStore) {
  for (const DistFormat format :
       {DistFormat::cyclic(), DistFormat::cyclic(2)}) {
    SCOPED_TRACE(format.to_string());
    const Compiled compiled = compile_loop(OptLevel::O0, 128, 4, 6, format);
    // Reference: the same run, uninterrupted. Snapshots are deterministic,
    // so a killed run's sealed epochs must be a prefix of these.
    const std::string ref_dir = fresh_dir("kill_ref");
    runtime::RunOptions options;
    options.seed = 11;
    options.snapshot_dir = ref_dir;
    (void)driver::run(compiled, options);
    const auto reference = persist::sealed_epochs(ref_dir);
    ASSERT_GE(reference.size(), 3u);

    for (int round = 0; round < 5; ++round) {
      const std::string dir = fresh_dir("kill" + std::to_string(round));
      runtime::RunOptions child_options = options;
      child_options.snapshot_dir = dir;
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        (void)driver::run(compiled, child_options);
        ::_exit(0);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(100 << (2 * round)));
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);

      // Restore must never throw — any torn tail is an expected crash
      // artifact — and the rebuilt store must hash to the last seal.
      const auto restored = persist::restore(dir);
      const auto sealed = persist::sealed_epochs(dir);
      if (!restored.valid) {
        EXPECT_TRUE(sealed.empty());
        continue;
      }
      ASSERT_LE(sealed.size(), reference.size());
      for (std::size_t i = 0; i < sealed.size(); ++i) {
        EXPECT_EQ(sealed[i].epoch, reference[i].epoch);
        EXPECT_EQ(sealed[i].roots, reference[i].roots) << "epoch " << i + 1;
      }
      EXPECT_EQ(restored.epoch, sealed.back().epoch);
      EXPECT_EQ(restored.roots, sealed.back().roots);
    }
  }
}

TEST(PersistFaultInjection, KilledProcWorkerKeepsSealedSnapshots) {
  // The runtime's superstep/snapshot interleaving at the exec level: seal
  // an epoch, run the superstep's exchange, mutate, repeat. A worker
  // SIGKILLed mid-run makes the next exchange throw ProcError — the run
  // dies mid-superstep — and every epoch sealed before the crash must
  // restore bit-identically.
  const std::string dir = fresh_dir("proc_kill");
  exec::ProcBackend backend(4, exec::ProcConfig{.timeout_ms = 2000});
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  std::vector<Piece> locals{{0, 0}, {0, 0}, {0, 0}, {0, 0}};
  const auto run_geometry = mapping::OwnedProgram::flat({{0, 0, 1, 2}});
  persist::StoreView view;
  view.status = &status;
  view.saved = &saved;
  persist::VersionView vv;
  vv.array = 0;
  vv.version = 0;
  vv.allocated = true;
  vv.live = true;
  vv.locals = &locals;
  vv.runs = {&run_geometry, &run_geometry, &run_geometry, &run_geometry};
  view.versions.push_back(vv);

  const auto superstep = [&](int epoch) {
    for (auto& local : locals) local[0] = epoch;
    view.write_counter = static_cast<std::uint64_t>(epoch);
    writer.snapshot(view);
    std::vector<std::vector<net::Message>> outboxes(4);
    net::Message msg;
    msg.src = 0;
    msg.dst = 2;
    msg.segments = 1;
    msg.payload.assign(4, static_cast<double>(epoch));
    outboxes[0].push_back(msg);
    (void)testing::exchange_messages(backend, outboxes);
  };
  superstep(1);
  superstep(2);
  backend.kill_worker(2);
  EXPECT_THROW(superstep(3), exec::ProcError);  // epoch 3 sealed, then crash

  const auto restored = persist::restore(dir);
  ASSERT_TRUE(restored.valid);
  EXPECT_EQ(restored.epoch, 3u);
  EXPECT_EQ(persist::sealed_epochs(dir).size(), 3u);
  ASSERT_EQ(restored.versions.size(), 1u);
  for (int rank = 0; rank < 4; ++rank)
    EXPECT_EQ(restored.versions[0].locals.at(rank),
              (std::vector<double>{3.0, 0.0}));
}

}  // namespace
}  // namespace hpfc
