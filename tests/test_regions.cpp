// The §4.3 array-region extension: live-region assertions restrict
// remapping communication to the live rectangle; dead elements read as
// zero; the must-analysis drops regions at writes and path disagreements.
#include <gtest/gtest.h>

#include <functional>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "hpf/parser.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::DistFormat;
using mapping::Shape;

Compiled compile_builder(ProgramBuilder& b, OptLevel level) {
  DiagnosticEngine diags;
  driver::CompileOptions options;
  options.level = level;
  Compiled c = driver::compile(b.finish(diags), options, diags);
  EXPECT_TRUE(c.ok) << diags.to_string();
  return c;
}

runtime::RunReport run_checked(
    const Compiled& c, unsigned seed = 7,
    exec::BackendKind backend = exec::BackendKind::Seq) {
  runtime::RunOptions options;
  options.seed = seed;
  options.backend = backend;
  options.paranoid = true;
  const auto oracle = driver::run_oracle(c, options);
  const auto parallel = driver::run(c, options);
  EXPECT_EQ(oracle.signature, parallel.signature);
  EXPECT_TRUE(parallel.exported_values_ok);
  return parallel;
}

TEST(LiveRegion, RestrictsRemappingCommunication) {
  ProgramBuilder b("region");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.live_region("A", {{0, 16}});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  const auto report = run_checked(c);
  // Only the 16 live elements move, not 64.
  EXPECT_EQ(report.elements_copied, 16u);
}

TEST(LiveRegion, FullTransferWithoutTheAssertion) {
  ProgramBuilder b("noregion");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  EXPECT_EQ(run_checked(c).elements_copied, 64u);
}

TEST(LiveRegion, WriteInvalidatesTheRegion) {
  ProgramBuilder b("invalidate");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.live_region("A", {{0, 16}});
  b.def({"A"});  // liveness may have grown back
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  EXPECT_EQ(run_checked(c).elements_copied, 64u);
}

TEST(LiveRegion, PathDisagreementDropsTheRegion) {
  ProgramBuilder b("paths");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.begin_if();
  b.live_region("A", {{0, 16}});
  b.begin_else();
  b.live_region("A", {{0, 32}});
  b.end_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  // Regions differ across paths: the must-analysis keeps none.
  EXPECT_EQ(run_checked(c).elements_copied, 64u);
}

TEST(LiveRegion, AgreeingPathsKeepTheRegion) {
  ProgramBuilder b("agree");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.begin_if();
  b.live_region("A", {{0, 16}});
  b.begin_else();
  b.live_region("A", {{0, 16}});
  b.end_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  EXPECT_EQ(run_checked(c).elements_copied, 16u);
}

TEST(LiveRegion, TwoDimensionalRectangle) {
  ProgramBuilder b("rect");
  b.procs("P", Shape{4});
  b.array("A", Shape{16, 16});
  b.distribute_array("A", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.def({"A"});
  b.live_region("A", {{0, 4}, {8, 16}});
  b.redistribute("A", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  EXPECT_EQ(run_checked(c).elements_copied, 4u * 8u);
}

TEST(LiveRegion, RegionSurvivesReads) {
  ProgramBuilder b("reads");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.live_region("A", {{0, 16}});
  b.use({"A"});  // reads see zeros outside the region, consistently
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  EXPECT_EQ(run_checked(c).elements_copied, 16u);
}

TEST(LiveRegion, ParsedFromSource) {
  const char* source = R"(
routine region
processors P(4)
real A(64)
distribute A(block) onto P
begin
  def(A)
  live A(8:24)
  redistribute A(cyclic)
  use(A)
end
)";
  DiagnosticEngine diags;
  driver::CompileOptions options;
  const auto compiled = driver::compile_source(source, options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();
  runtime::RunOptions run_options;
  run_options.paranoid = true;
  const auto oracle = driver::run_oracle(compiled, run_options);
  const auto report = driver::run(compiled, run_options);
  EXPECT_EQ(report.signature, oracle.signature);
  EXPECT_EQ(report.elements_copied, 16u);
}

TEST(LiveRegion, BadBoundsAreRejected) {
  ProgramBuilder b("bad");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.live_region("A", {{10, 200}});
  b.use({"A"});
  DiagnosticEngine diags;
  b.finish(diags);
  EXPECT_TRUE(diags.has(DiagId::BadDirective));
}

TEST(LiveRegion, RankMismatchIsRejected) {
  ProgramBuilder b("badrank");
  b.procs("P", Shape{4});
  b.array("A", Shape{8, 8});
  b.distribute_array("A", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.live_region("A", {{0, 4}});
  b.use({"A"});
  DiagnosticEngine diags;
  b.finish(diags);
  EXPECT_TRUE(diags.has(DiagId::BadDirective));
}

TEST(LiveRegion, LoopBackEdgeDropsDisagreeingRegion) {
  // The region asserted in the first part of the body does not reach the
  // remap across the back edge once a write intervenes.
  ProgramBuilder b("loopback");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.begin_loop(3);
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.def({"A"});
  b.live_region("A", {{0, 16}});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use({"A"});
  const Compiled c = compile_builder(b, OptLevel::O2);
  const auto report = run_checked(c);
  // Vertex 2's copy is restricted (16), vertex 1's is not (64 on the
  // first iteration; later ones may reuse live copies at O2).
  EXPECT_GT(report.elements_copied, 0u);
  run_checked(c, 3);
}

/// Runs `build` at every level on the seq and thread backends; the live
/// region clips strided stretches (one per CYCLIC(1) rank row) at bounds
/// that no multiple of P lines up with. Both backends must match the
/// oracle and copy the same elements.
void expect_strided_region_runs(
    const std::function<void(ProgramBuilder&)>& build) {
  for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    ProgramBuilder b("strided");
    build(b);
    const Compiled c = compile_builder(b, level);
    const auto seq = run_checked(c, 7, exec::BackendKind::Seq);
    const auto thread = run_checked(c, 7, exec::BackendKind::Thread);
    EXPECT_EQ(seq.signature, thread.signature);
    EXPECT_EQ(seq.elements_copied, thread.elements_copied);
    EXPECT_GT(seq.elements_copied, 0u);
  }
}

TEST(LiveRegion, ClipsCyclicStretchesOneDimensional) {
  // A(64) CYCLIC on 4: each rank owns one stretch {r, +4 x 16}; the live
  // window [5, 37) cuts every one of them inside.
  expect_strided_region_runs([](ProgramBuilder& b) {
    b.procs("P", Shape{4});
    b.array("A", Shape{64});
    b.distribute_array("A", {DistFormat::cyclic()}, "P");
    b.def({"A"});
    b.live_region("A", {{5, 37}});
    b.redistribute("A", {DistFormat::block()}, "", "1");
    b.use({"A"});
    b.redistribute("A", {DistFormat::cyclic()}, "", "2");
    b.use({"A"});
  });
}

TEST(LiveRegion, ClipsCyclicStretchesPerRow) {
  // (16, 16) as (*, CYCLIC) on 4: one stretch per row and rank; the
  // region clips rows outside [2, 9) whole and columns to [5, 14).
  expect_strided_region_runs([](ProgramBuilder& b) {
    b.procs("P", Shape{4});
    b.array("A", Shape{16, 16});
    b.distribute_array("A", {DistFormat::collapsed(), DistFormat::cyclic()},
                       "P");
    b.def({"A"});
    b.live_region("A", {{2, 9}, {5, 14}});
    b.redistribute("A", {DistFormat::block(), DistFormat::collapsed()}, "",
                   "1");
    b.use({"A"});
    b.redistribute("A", {DistFormat::collapsed(), DistFormat::cyclic()}, "",
                   "2");
    b.use({"A"});
  });
}

}  // namespace
}  // namespace hpfc
