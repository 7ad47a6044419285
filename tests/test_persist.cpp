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
#include "testing/program_gen.hpp"

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
ir::Program loop_program(Extent n, int procs, Extent trips) {
  ProgramBuilder b("persist_loop");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("B", Shape{n});
  b.distribute_array("B", {DistFormat::cyclic()}, "P");
  b.def({"A"});
  b.use({"A"});
  b.begin_loop(trips, /*may_zero_trip=*/false);
  b.redistribute("A", {DistFormat::cyclic()});
  b.def({"B"});
  b.use({"A", "B"});
  b.redistribute("A", {DistFormat::block()});
  b.use({"A"});
  b.end_loop();
  b.use({"A", "B"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

Compiled compile_loop(OptLevel level, Extent n, int procs, Extent trips) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = level;
  Compiled compiled =
      driver::compile(loop_program(n, procs, trips), options, diags);
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
  {
    persist::JournalWriter writer(dir);
    writer.append(persist::RecordType::kRunData, {1, 2, 3});
    commit_offset = writer.bytes_written();
    writer.append(persist::RecordType::kCommit, {4, 5});
    writer.seal(1, commit_offset);
  }
  const auto scan =
      persist::scan_journal(persist::JournalWriter::journal_path(dir));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records[0].type, persist::RecordType::kRunData);
  const auto* payload = scan.payload(scan.records[0]);
  EXPECT_EQ(std::vector<std::uint8_t>(
                payload, payload + scan.records[0].payload_len),
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(scan.records[1].type, persist::RecordType::kCommit);
  EXPECT_EQ(scan.records[1].end_offset, scan.consistent_bytes);
  const auto manifest = persist::read_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->epoch, 1u);
  EXPECT_EQ(manifest->sealed_bytes, scan.consistent_bytes);
  EXPECT_EQ(manifest->commit_offset, commit_offset);
}

TEST(PersistJournal, CorruptRecordTerminatesTheScan) {
  const std::string dir = fresh_dir("corrupt");
  {
    persist::JournalWriter writer(dir);
    writer.append(persist::RecordType::kRunData, {1, 2, 3});
    writer.append(persist::RecordType::kRunData, {4, 5, 6});
    writer.seal(1, 0);
  }
  const std::string path = persist::JournalWriter::journal_path(dir);
  auto bytes = read_bytes(path);
  const auto first_end =
      persist::scan_journal(path).records[0].end_offset;
  bytes[first_end + 17] ^= 0x40;  // a payload byte of record 2
  write_bytes(path, bytes);
  const auto scan = persist::scan_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.consistent_bytes, first_end);
}

// ---- delta snapshots ---------------------------------------------------

TEST(PersistSnapshot, DeltaWritesOnlyChangedRuns) {
  const std::string dir = fresh_dir("delta");
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  std::vector<std::vector<double>> locals{{1.0, 2.0}, {3.0, 4.0}};
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
  std::vector<std::vector<double>> locals{{1.0, 2.0}, {}, {3.0, 4.0}};
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
  std::vector<std::vector<double>> mirror_locals{{1.0, 2.0}, {3.0, 4.0}, {}};
  view.versions[0].locals = &mirror_locals;
  view.versions[0].runs = {&runs, &runs, &none};
  mirror_writer.snapshot(view);
  EXPECT_NE(persist::sealed_epochs(dir).back().roots,
            persist::sealed_epochs(mirror_dir).back().roots);
}

TEST(PersistSnapshot, CyclicVersionIsOneLeafPerRank) {
  // A(64) CYCLIC on 4: each rank's ownership is one stretch {r, +4 x 16},
  // so each rank hashes and journals one leaf.
  const auto lay = mapping::ConcreteLayout::make(
      Shape{64}, Shape{4},
      {{mapping::AlignTarget::axis(0), DistFormat::cyclic(1), 64}});
  std::vector<mapping::OwnedProgram> runs(4);
  std::vector<std::vector<double>> locals(4);
  for (int r = 0; r < 4; ++r) {
    runs[static_cast<std::size_t>(r)] = lay.owned_program(r);
    ASSERT_EQ(runs[static_cast<std::size_t>(r)].expand(),
              (std::vector<mapping::OwnedRun>{{0, r, 4, 16}}));
    for (int j = 0; j < 16; ++j)
      locals[static_cast<std::size_t>(r)].push_back(r + 4.0 * j);
  }
  const std::string dir = fresh_dir("cyclic_leaf");
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
  for (const auto& rank_runs : runs) vv.runs.push_back(&rank_runs);
  view.versions.push_back(vv);

  const auto expect_restores = [&] {
    const auto restored = persist::restore(dir);
    ASSERT_TRUE(restored.valid);
    ASSERT_EQ(restored.versions.size(), 1u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(restored.versions[0].locals.at(r),
                locals[static_cast<std::size_t>(r)]);
      ASSERT_EQ(restored.versions[0].runs.at(r).size(), 1u);
      EXPECT_EQ(restored.versions[0].runs.at(r)[0].geometry,
                runs[static_cast<std::size_t>(r)].body[0]);
    }
  };

  writer.snapshot(view);
  EXPECT_EQ(writer.stats().runs_written, 4u);
  expect_restores();
  writer.snapshot(view);  // dirty but unchanged: re-hash, no record
  EXPECT_EQ(writer.stats().runs_written, 4u);
  for (auto& local : locals) local[5] += 1.0;  // one write touches every rank
  writer.snapshot(view);  // the whole stretch is re-journaled, once per rank
  EXPECT_EQ(writer.stats().runs_written, 8u);
  expect_restores();
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

// ---- fault injection ---------------------------------------------------

TEST(PersistFaultInjection, EveryPrefixRestoresTheLastSealedEpoch) {
  const Compiled compiled = compile_loop(OptLevel::O0, 16, 4, 2);
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
  // manifest is absent, as after a crash before the first seal — restore
  // is scan-based and must recover the last fully committed epoch).
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
    std::vector<std::vector<double>> locals{{1.0, 2.0}, {3.0, 4.0}};
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

TEST(PersistFaultInjection, SigkilledWriterLeavesARecoverableStore) {
  const Compiled compiled = compile_loop(OptLevel::O0, 128, 4, 6);
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

TEST(PersistFaultInjection, KilledProcWorkerKeepsSealedSnapshots) {
  // The runtime's superstep/snapshot interleaving at the exec level: seal
  // an epoch, run the superstep's exchange, mutate, repeat. A worker
  // SIGKILLed mid-run makes the next exchange throw ProcError — the run
  // dies mid-superstep — and every epoch sealed before the crash must
  // restore bit-identically.
  const std::string dir = fresh_dir("proc_kill");
  exec::ProcBackend backend(4, {}, exec::ProcConfig{.timeout_ms = 2000});
  persist::SnapshotWriter writer(dir);
  std::vector<int> status{0};
  std::vector<int> saved;
  std::vector<std::vector<double>> locals{{0, 0}, {0, 0}, {0, 0}, {0, 0}};
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
    (void)backend.exchange(outboxes);
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
