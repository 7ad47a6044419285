// Runtime behaviour: status guards, live flags, lazy instantiation,
// memory accounting and eviction, exported-argument verification, and the
// report counters benches rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::DistFormat;
using mapping::Shape;

TEST(Runtime, StatusGuardSuppressesIdentityRemap) {
  ProgramBuilder b("guard");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.end_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "2");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  // Seed choice drives the branch; find one per path.
  bool took_then = false;
  bool took_else = false;
  for (unsigned seed = 1; seed <= 16 && !(took_then && took_else); ++seed) {
    runtime::RunOptions options;
    options.seed = seed;
    const auto report = driver::run(c, options);
    const auto oracle = driver::run_oracle(c, options);
    ASSERT_EQ(report.signature, oracle.signature);
    if (report.skipped_already_mapped > 0) {
      took_then = true;  // vertex 2 found A already cyclic
      EXPECT_EQ(report.copies_performed, 1);
    } else {
      took_else = true;
      EXPECT_EQ(report.copies_performed, 1);  // only vertex 2 copies
    }
  }
  EXPECT_TRUE(took_then);
  EXPECT_TRUE(took_else);
}

TEST(Runtime, LazyInstantiation) {
  // A local array that is only used inside a zero-trip loop is never
  // allocated ("no copy receives an a priori instantiation", §5.2).
  ProgramBuilder b("lazy");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("Z", Shape{1024});
  b.distribute_array("Z", {DistFormat::block()}, "P");
  b.def({"A"});
  b.begin_loop(0);
  b.def({"Z"});
  b.end_loop();
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  // Only A is ever allocated: peak covers 32 doubles, not 1024.
  EXPECT_LT(report.peak_bytes, 1024 * sizeof(double));
  EXPECT_GE(report.allocations, 1);
}

TEST(Runtime, PeakMemoryCountsAllLiveCopies) {
  ProgramBuilder b("peak");
  b.procs("P", Shape{4});
  b.array("A", Shape{512});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  // Both versions coexist during the copy.
  EXPECT_GE(report.peak_bytes, 2 * 512 * sizeof(double));
}

TEST(Runtime, NaiveCleanupFreesNonCurrentCopies) {
  ProgramBuilder b("freeing");
  b.procs("P", Shape{4});
  b.array("A", Shape{512});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  const auto report = driver::run(c);
  EXPECT_GE(report.frees, 1);  // the old block copy is freed at the vertex
}

TEST(Runtime, EvictionRegeneratesCopiesWithCommunication) {
  // Live-copy reuse would normally make the remap back to block free; with
  // a memory limit squeezing out the kept copy, the runtime regenerates it.
  ProgramBuilder b("evict");
  b.procs("P", Shape{4});
  b.array("A", Shape{2048});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("Pad", Shape{4096});
  b.distribute_array("Pad", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.def({"Pad"});  // allocation pressure while A_0 is kept live
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);

  const auto unlimited = driver::run(c);
  EXPECT_EQ(unlimited.evictions, 0);
  EXPECT_GE(unlimited.skipped_live_copy, 1);  // A_0 reused at vertex 2

  runtime::RunOptions tight;
  tight.memory_limit = (2048 + 4096 + 1024) * sizeof(double);
  const auto squeezed = driver::run(c, tight);
  EXPECT_GE(squeezed.evictions, 1);
  EXPECT_GT(squeezed.copies_performed, unlimited.copies_performed);
  const auto oracle = driver::run_oracle(c, tight);
  EXPECT_EQ(squeezed.signature, oracle.signature);
}

TEST(Runtime, EvictionPrefersLargestCopies) {
  // Two live non-current copies exist when pressure hits: tiny A_0 (64
  // elements) and big B_0 (8192 elements). Evicting in first-index order
  // would free A_0 first (not enough) and then B_0 anyway — two
  // regenerations for one shortfall. The policy must free the largest
  // victim first, so exactly one eviction suffices.
  ProgramBuilder b("evict_order");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("B", Shape{8192});
  b.distribute_array("B", {DistFormat::block()}, "P");
  b.array("C", Shape{8192});
  b.distribute_array("C", {DistFormat::block()}, "P");
  b.def({"A"});
  b.def({"B"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("B", {DistFormat::cyclic()}, "", "2");
  b.use({"B"});
  b.def({"C"});  // pressure: A_0 and B_0 are live non-current
  b.redistribute("A", {DistFormat::block()}, "", "3");
  b.use({"A"});
  b.redistribute("B", {DistFormat::block()}, "", "4");
  b.use({"B"});
  const Compiled c = compile(b, OptLevel::O2);

  const auto unlimited = driver::run(c);
  ASSERT_EQ(unlimited.evictions, 0);
  EXPECT_EQ(unlimited.skipped_live_copy, 2);  // both A_0 and B_0 reused

  // Bytes live when C_0 allocates: A_0+A_1 (2*512) + B_0+B_1 (2*65536)
  // plus C_0's 65536 = 197632. The 190000-byte limit leaves a shortfall
  // a small copy cannot close: first-index order would evict A_0 (512
  // bytes, useless) and then B_0 anyway; largest-first frees exactly one
  // copy, and only B_0's reuse is lost (one regeneration copy).
  runtime::RunOptions tight;
  tight.memory_limit = 190000;
  const auto squeezed = driver::run(c, tight);
  EXPECT_EQ(squeezed.evictions, 1);
  EXPECT_EQ(squeezed.skipped_live_copy, 1);  // A_0 survived the squeeze
  EXPECT_EQ(squeezed.copies_performed, unlimited.copies_performed + 1);
  const auto oracle = driver::run_oracle(c, tight);
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);
}

TEST(Runtime, ExportedDummyValuesVerifiedAtExit) {
  ProgramBuilder b("export");
  b.procs("P", Shape{4});
  b.dummy("A", Shape{64}, ir::Intent::InOut);
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.def({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  // The copy-back at v_e restored the caller's mapping with the written
  // values.
  EXPECT_TRUE(report.exported_values_ok);
  EXPECT_GE(report.copies_performed, 1);
}

TEST(Runtime, ReplicatedArraysReadOnce) {
  // An array aligned replicated along a template dimension is readable and
  // its checksum counts each element once.
  ProgramBuilder b("replica");
  b.procs("P", Shape{4});
  b.tmpl("T", Shape{8, 32});
  b.distribute_template("T", {DistFormat::block(), DistFormat::collapsed()},
                        "P");
  b.array("V", Shape{32});
  mapping::Alignment align;
  align.array_rank = 1;
  align.per_template_dim = {mapping::AlignTarget::replicated(),
                            mapping::AlignTarget::axis(0)};
  b.align("V", "T", align);
  b.def({"V"});
  b.use({"V"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  const auto oracle = driver::run_oracle(c);
  EXPECT_EQ(report.signature, oracle.signature);
}

TEST(Runtime, ReplicatedRedistributionBroadcasts) {
  // block -> replicated redistribution: every rank receives the array.
  ProgramBuilder b("bcast");
  b.procs("P", Shape{4});
  b.tmpl("T", Shape{8, 32});
  b.distribute_template("T", {DistFormat::block(), DistFormat::collapsed()},
                        "P");
  b.tmpl("U", Shape{32});
  b.distribute_template("U", {DistFormat::block()}, "P");
  b.array("V", Shape{32});
  b.align("V", "U", mapping::Alignment::identity(1));
  b.def({"V"});
  mapping::Alignment replicate;
  replicate.array_rank = 1;
  replicate.per_template_dim = {mapping::AlignTarget::replicated(),
                                mapping::AlignTarget::axis(0)};
  b.realign("V", "T", replicate, "1");
  b.use({"V"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  const auto oracle = driver::run_oracle(c);
  EXPECT_EQ(report.signature, oracle.signature);
  // 4 ranks x 32 elements delivered.
  EXPECT_EQ(report.elements_copied, 4u * 32u);
}

TEST(Runtime, CostModelScalesWithVolume) {
  ProgramBuilder b("volume");
  b.procs("P", Shape{4});
  b.array("A", Shape{4096});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);

  runtime::RunOptions fast;
  fast.cost.inv_bandwidth = 1.0 / 1e9;
  runtime::RunOptions slow;
  slow.cost.inv_bandwidth = 1.0 / 1e6;
  const auto r_fast = driver::run(c, fast);
  const auto r_slow = driver::run(c, slow);
  EXPECT_GT(r_slow.net.sim_time, r_fast.net.sim_time);
  EXPECT_EQ(r_slow.net.bytes, r_fast.net.bytes);
}

TEST(Runtime, ReportSummariesAreReadable) {
  ProgramBuilder b("summary");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto report = driver::run(c);
  const std::string text = report.summary();
  EXPECT_NE(text.find("copies"), std::string::npos);
  EXPECT_NE(text.find("msgs"), std::string::npos);
}

// storage_ms books the allocate and free steps, apart from the value
// kernels, the round phases and snapshots: on every backend it is
// nonzero on a run that allocates, and with the other spans it stays
// within exec_ms. Dummy arguments are allocated inside the timed run.
TEST(Runtime, StorageStepsAreADisjointShareOfExecMs) {
  ProgramBuilder b("storage");
  b.procs("P", Shape{4});
  b.array("A", Shape{1 << 14});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  for (const exec::BackendKind backend :
       {exec::BackendKind::Seq, exec::BackendKind::Thread,
        exec::BackendKind::Proc}) {
    const auto report = run_checked(c, 7, backend);
    SCOPED_TRACE(report.backend);
    EXPECT_GE(report.allocations, 2);
    EXPECT_GT(report.storage_ms, 0.0);
    EXPECT_LE(report.storage_ms, report.exec_ms);
    EXPECT_LE(report.storage_ms + report.values_ms + report.pack_ms +
                  report.exchange_ms + report.unpack_ms + report.snapshot_ms,
              report.exec_ms);
  }
}

/// Compiles routine `source` at `level`; the compile must succeed.
Compiled compile_text(const std::string& source, OptLevel level) {
  DiagnosticEngine diags;
  driver::CompileOptions options;
  options.level = level;
  Compiled c = driver::compile_source(source, options, diags);
  EXPECT_TRUE(c.ok) << diags.to_string();
  return c;
}

/// A copy round whose kernels write every position of a fresh
/// destination skips its zero-fill. At O0 every remap of the hotpath and
/// cyclic_fine benchmark programs copies the whole array into a version
/// it has just allocated, so every copy skips one: 12 and 96 per run, on
/// every backend. run_checked's --paranoid writes NaN into each skipped
/// piece first, and the runs still match the oracle.
TEST(Runtime, FullCopyDestinationsSkipTheirFill) {
  const std::pair<const char*, int> programs[] = {{"hotpath.hpf", 12},
                                                  {"cyclic_fine.hpf", 96}};
  for (const auto& [name, skipped] : programs) {
    std::ifstream in(std::string(HPFC_SOURCE_DIR) + "/benchmark/programs/" +
                     name);
    ASSERT_TRUE(in) << name;
    std::ostringstream source;
    source << in.rdbuf();
    const Compiled c = compile_text(source.str(), OptLevel::O0);
    for (const exec::BackendKind backend :
         {exec::BackendKind::Seq, exec::BackendKind::Thread,
          exec::BackendKind::Proc}) {
      const auto report = run_checked(c, 7, backend);
      SCOPED_TRACE(std::string(name) + " " + report.backend);
      EXPECT_EQ(report.fills_skipped, skipped);
      EXPECT_EQ(report.copies_performed, skipped);
    }
  }
}

/// A copy restricted to a live region writes part of its destination, so
/// the destination is zero-filled before the round: the elements outside
/// the region read 0.0 afterwards, as the oracle's do. Each of the eight
/// remaps allocates its destination afresh after the previous version
/// was freed, so a skipped fill would read that version's recycled
/// stamped values instead of zeros.
TEST(Runtime, LiveRegionCopiesZeroTheirUnwrittenPositions) {
  const char* source = R"(
routine region_loop
processors P(4)
real A(64)
distribute A(block) onto P
begin
  loop 4
    def(A)
    live A(8:24)
    redistribute A(cyclic)
    use(A)
    def(A)
    live A(40:56)
    redistribute A(block)
    use(A)
  endloop
end
)";
  for (const OptLevel level : {OptLevel::O1, OptLevel::O2}) {
    const Compiled c = compile_text(source, level);
    for (const exec::BackendKind backend :
         {exec::BackendKind::Seq, exec::BackendKind::Thread,
          exec::BackendKind::Proc}) {
      const auto report = run_checked(c, 7, backend);
      SCOPED_TRACE(report.backend);
      EXPECT_EQ(report.copies_performed, 8);
      EXPECT_EQ(report.elements_copied, 8u * 16u);  // the live regions only
      EXPECT_EQ(report.allocations, 1 + 8);
      EXPECT_EQ(report.fills_skipped, 0);
    }
  }
}

// ---- golden signatures ---------------------------------------------------

/// A routine and the read signature its sequential semantics produce.
/// The literals pin the value definitions themselves (runtime/expected.hpp:
/// weight, stamped, and the kernels that fold and stamp them): if the
/// runtime and the reference interpreter drifted together, every
/// run-vs-oracle comparison would still pass, but these would not.
struct GoldenRoutine {
  const char* name;
  const char* source;
  std::uint64_t signature;
};

const GoldenRoutine kGolden[] = {
    {"block<->cyclic", R"(
routine blockcyclic
processors P(4)
real A(96)
distribute A(block) onto P
begin
  def(A)
  use(A)
  redistribute A(cyclic)
  use(A)
  def(A)
  redistribute A(block)
  use(A)
end
)",
     212041360580u},
    {"cyclic(2)<->cyclic(3)", R"(
routine rebalance
processors P(4)
real A(101)
distribute A(cyclic(2)) onto P
begin
  def(A)
  redistribute A(cyclic(3))
  use(A)
  def(A)
  redistribute A(cyclic(2))
  use(A)
end
)",
     166882156552u},
    {"(block,*)<->(*,block)", R"(
routine transpose
processors P(3)
real A(12,10)
distribute A(block,*) onto P
begin
  def(A)
  redistribute A(*,block)
  use(A)
  def(A)
  redistribute A(block,*)
  use(A)
end
)",
     196428694650u},
    {"replicated", R"(
routine replica
processors P(4)
template T(8,30)
distribute T(block,*) onto P
template U(30)
distribute U(block) onto P
real V(30)
align V(i) with U(i)
begin
  def(V)
  use(V)
  realign V(i) with T(*,i)
  use(V)
  def(V)
  realign V(i) with U(i)
  use(V)
end
)",
     65673086938u},
    {"live region", R"(
routine liveregion
processors P(4)
real A(16,16)
distribute A(block,*) onto P
begin
  def(A)
  live A(2:9, 3:12)
  redistribute A(*,block)
  use(A)
  redistribute A(block,*)
  use(A)
end
)",
     69452221232u},
    {"kill", R"(
routine killed
processors P(4)
real A(64)
distribute A(block) onto P
begin
  def(A)
  redistribute A(cyclic)
  use(A)
  kill(A)
  redistribute A(block)
  use(A)
  def(A)
  use(A)
end
)",
     106440929082u},
};

TEST(GoldenSignature, RunsAndReferenceReproduceTheLiterals) {
  for (const GoldenRoutine& golden : kGolden) {
    EXPECT_NE(golden.signature, 0u) << golden.name;
    for (const OptLevel level : {OptLevel::O0, OptLevel::O2}) {
      DiagnosticEngine diags;
      driver::CompileOptions compile_options;
      compile_options.level = level;
      const Compiled c =
          driver::compile_source(golden.source, compile_options, diags);
      ASSERT_TRUE(c.ok) << golden.name << "\n" << diags.to_string();
      for (const exec::BackendKind backend :
           {exec::BackendKind::Seq, exec::BackendKind::Thread,
            exec::BackendKind::Proc}) {
        SCOPED_TRACE(std::string(golden.name) + " " +
                     driver::to_string(level) + " " +
                     exec::to_string(backend));
        runtime::RunOptions options;
        options.backend = backend;
        const auto report = driver::run(c, options);
        EXPECT_EQ(report.signature, golden.signature);
        EXPECT_TRUE(report.exported_values_ok);
        EXPECT_EQ(driver::run_oracle(c, options).signature, golden.signature);
      }
    }
  }
}

}  // namespace
}  // namespace hpfc
