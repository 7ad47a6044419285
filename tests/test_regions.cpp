// The §4.3 array-region extension: live-region assertions restrict
// remapping communication to the live rectangle; dead elements read as
// zero; the must-analysis drops regions at writes and path disagreements.
// Exported dummies must carry a kill's or a live region's zeros out of
// the routine, and the runtime's closed-form expected values must agree
// with a per-element shadow array over random layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "hpf/parser.hpp"
#include "runtime/expected.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::DistFormat;
using mapping::Shape;

TEST(LiveRegion, RestrictsRemappingCommunication) {
  ProgramBuilder b("region");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.live_region("A", {{0, 16}});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
  const Compiled c = compile(b, OptLevel::O2);
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
    const Compiled c = compile(b, level);
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

/// Compiles `source` at every level and runs it on every backend with the
/// liveness invariant checked after each step: the signature must equal
/// the oracle's and every exported dummy must hold its expected values.
void expect_exported_runs(const char* source) {
  for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    DiagnosticEngine diags;
    driver::CompileOptions options;
    options.level = level;
    const Compiled c = driver::compile_source(source, options, diags);
    ASSERT_TRUE(c.ok) << diags.to_string();
    for (const exec::BackendKind backend :
         {exec::BackendKind::Seq, exec::BackendKind::Thread,
          exec::BackendKind::Proc}) {
      SCOPED_TRACE(std::string(driver::to_string(level)) + " " +
                   exec::to_string(backend));
      run_checked(c, 7, backend);
    }
  }
}

TEST(ExportedDummy, KillBeforeExitExportsZeros) {
  // The kill leaves every element of the exported dummy dead: the copy
  // the caller receives must read as zeros, not as the def's values.
  expect_exported_runs(R"(
routine killdummy
processors P(4)
dummy A(64) intent(inout)
distribute A(block) onto P
begin
  def(A)
  redistribute A(cyclic)
  use(A)
  kill(A)
end
)");
}

TEST(ExportedDummy, LiveRegionBeforeExitExportsTheRectangle) {
  // Only rows [2, 9) x columns [3, 12) stay live; the remap back to the
  // dummy's (block, *) origin carries them, the rest must read as zeros.
  expect_exported_runs(R"(
routine liveexit
processors P(4)
dummy A(16,16) intent(inout)
distribute A(block,*) onto P
begin
  def(A)
  redistribute A(*,block)
  use(A)
  live A(2:9, 3:12)
end
)");
}

// ---- closed-form expected values ----------------------------------------

/// The per-element model the closed form replaces: a plain vector over
/// the whole array, stamped on a write, zeroed outside a live region's
/// rectangle and zeroed entirely by a kill.
struct ShadowValues {
  Shape shape;
  std::vector<double> values;

  explicit ShadowValues(Shape s)
      : shape(std::move(s)),
        values(static_cast<std::size_t>(shape.total()), 0.0) {}

  void write(std::uint64_t counter) {
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = runtime::stamped(counter, static_cast<std::int64_t>(i));
  }
  void live(const ir::Region& region) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto coord = shape.delinearize(static_cast<mapping::Index>(i));
      for (std::size_t d = 0; d < coord.size(); ++d)
        if (coord[d] < region[d].first || coord[d] >= region[d].second)
          values[i] = 0.0;
    }
  }
  void kill() { std::fill(values.begin(), values.end(), 0.0); }
};

/// Every owned element of every rank of `layout`, expected in closed form
/// (descriptor + clip_stretch per stretch), equals the shadow's value;
/// the clipped window holds exactly the stretch members inside the box.
void expect_closed_form_matches(const mapping::ConcreteLayout& layout,
                                const runtime::ExpectedValues& expected,
                                const ShadowValues& shadow,
                                const std::string& what) {
  const Shape& shape = shadow.shape;
  for (int r = 0; r < layout.ranks(); ++r) {
    layout.owned_program(r).for_each_stretch(
        [&](const mapping::OwnedRun& run) {
          const auto [j_lo, j_hi] = expected.stamped_members(shape, run);
          ASSERT_LE(0, j_lo) << what;
          ASSERT_LE(j_lo, j_hi) << what;
          ASSERT_LE(j_hi, run.len) << what;
          if (expected.whole(shape)) {
            ASSERT_EQ(j_lo, 0) << what;
            ASSERT_EQ(j_hi, run.len) << what;
          }
          for (mapping::Extent j = 0; j < run.len; ++j) {
            const mapping::Index global =
                run.global_base + j * run.global_stride;
            const bool stamped_member = j >= j_lo && j < j_hi;
            const double closed =
                stamped_member ? runtime::stamped(expected.counter, global)
                               : 0.0;
            ASSERT_EQ(closed, shadow.values[static_cast<std::size_t>(global)])
                << what << " rank " << r << " element " << global;
            if (!expected.dead) {
              const auto coord = shape.delinearize(global);
              bool inside = true;
              for (std::size_t d = 0; d < coord.size(); ++d)
                inside = inside && coord[d] >= expected.box[d].first &&
                         coord[d] < expected.box[d].second;
              ASSERT_EQ(stamped_member, inside)
                  << what << " rank " << r << " element " << global;
            }
          }
        });
  }
}

/// A random non-empty sub-rectangle of `shape`. Successive ones often
/// miss each other, so some intersections come out empty.
ir::Region random_region(std::mt19937& rng, const Shape& shape) {
  ir::Region region;
  for (int d = 0; d < shape.rank(); ++d) {
    const mapping::Extent n = shape.extent(d);
    const mapping::Extent lo = static_cast<mapping::Extent>(rng() % n);
    const mapping::Extent hi =
        lo + 1 + static_cast<mapping::Extent>(rng() % (n - lo));
    region.emplace_back(lo, hi);
  }
  return region;
}

TEST(ExpectedValues, ClosedFormMatchesThePerElementShadow) {
  std::mt19937 rng(20261017);
  const std::vector<Shape> shapes = {Shape{1},       Shape{37},
                                     Shape{64},      Shape{7, 9},
                                     Shape{16, 16},  Shape{5, 4, 6},
                                     Shape{3, 8, 5}};
  int empty_intersections = 0;
  int live_after_kill = 0;
  int write_after_live = 0;
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 25; ++trial) {
      const mapping::ConcreteLayout layout =
          testing::random_layout(rng, shape);
      runtime::ExpectedValues expected(shape);
      ShadowValues shadow(shape);
      std::uint64_t counter = 0;
      char last = 'n';
      expect_closed_form_matches(layout, expected, shadow, "initial");
      for (int step = 0; step < 12; ++step) {
        const int op = static_cast<int>(rng() % 5);
        std::string what = shape.to_string() + " " + layout.to_string() +
                           " step " + std::to_string(step);
        if (op <= 1) {
          ++counter;
          if (last == 'l') ++write_after_live;
          expected.write(counter, shape);
          shadow.write(counter);
          last = 'w';
          what += " write";
        } else if (op <= 3) {
          const ir::Region region = random_region(rng, shape);
          const bool was_dead = expected.dead;
          if (last == 'k') ++live_after_kill;
          expected.live(region);
          shadow.live(region);
          if (!was_dead && expected.dead) ++empty_intersections;
          last = 'l';
          what += " live";
        } else {
          expected.kill();
          shadow.kill();
          last = 'k';
          what += " kill";
        }
        expect_closed_form_matches(layout, expected, shadow, what);
      }
    }
  }
  EXPECT_GT(empty_intersections, 0);
  EXPECT_GT(live_after_kill, 0);
  EXPECT_GT(write_after_live, 0);
}

// ---- value kernels -------------------------------------------------------

/// What `expected` says every owned element of `prog` holds.
std::vector<double> expected_per_element(
    const mapping::OwnedProgram& prog, std::size_t storage,
    const Shape& shape, const runtime::ExpectedValues& expected) {
  std::vector<double> local(storage, -1.0);
  prog.for_each_stretch([&](const mapping::OwnedRun& run) {
    const auto [j_lo, j_hi] = expected.stamped_members(shape, run);
    for (mapping::Extent j = 0; j < run.len; ++j)
      local[static_cast<std::size_t>(run.local_base + j)] =
          j >= j_lo && j < j_hi
              ? runtime::stamped(expected.counter,
                                 run.global_base + j * run.global_stride)
              : 0.0;
  });
  return local;
}

/// Random checksum operands: integers in [0, 2^53), the range of stored
/// values, so products and sums wrap 64 bits.
std::vector<double> random_values(std::mt19937_64& rng, std::size_t n) {
  std::vector<double> values(n);
  for (double& v : values) v = static_cast<double>(rng() >> 11);
  return values;
}

/// fold, stamp and matches over `prog` agree with the per-element
/// definitions (testing/oracles.hpp), as dispatched and with every line
/// in the narrow body, and matches rejects each owned
/// element corrupted in turn: every position of storage up to 1024
/// elements, so first, last, lane and lane-tail members alike. Only the
/// edge stretches' 257 x 12 lines are longer; there it corrupts the
/// first and last 64 and every 7th between, which still meets every lane
/// of both bodies (7 is prime to 4 and 8).
void expect_kernels_match(const mapping::OwnedProgram& prog,
                          std::size_t storage, const Shape& shape,
                          const runtime::ExpectedValues& expected,
                          std::mt19937_64& rng, const std::string& what) {
  using runtime::detail::Bodies;
  const std::vector<double> values = random_values(rng, storage);
  const std::uint64_t sum = testing::fold_per_element(prog, values.data());
  ASSERT_EQ(runtime::fold(prog, values.data()), sum) << what;
  ASSERT_EQ(runtime::fold<Bodies::narrow>(prog, values.data()), sum) << what;

  std::vector<double> stamped(storage, -1.0);
  std::vector<double> narrow(storage, -1.0);
  std::vector<double> want(storage, -1.0);
  runtime::stamp(prog, stamped.data(), expected.counter);
  runtime::stamp<Bodies::narrow>(prog, narrow.data(), expected.counter);
  testing::stamp_per_element(prog, want.data(), expected.counter);
  ASSERT_EQ(stamped, want) << what;
  ASSERT_EQ(narrow, want) << what;

  std::vector<double> local =
      expected_per_element(prog, storage, shape, expected);
  ASSERT_TRUE(runtime::matches(prog, local.data(), shape, expected)) << what;
  ASSERT_TRUE(runtime::matches<Bodies::narrow>(prog, local.data(), shape,
                                               expected))
      << what;
  ASSERT_TRUE(testing::matches_per_element(prog, local.data(), shape,
                                           expected))
      << what;
  for (std::size_t i = 0; i < storage; ++i) {
    if (storage > 1024 && i >= 64 && i + 64 < storage && i % 7 != 0) continue;
    local[i] += 1.0;
    ASSERT_FALSE(runtime::matches(prog, local.data(), shape, expected))
        << what << " corrupted local " << i;
    ASSERT_FALSE(
        runtime::matches<Bodies::narrow>(prog, local.data(), shape, expected))
        << what << " corrupted local " << i;
    local[i] -= 1.0;
  }
}

TEST(ValueKernels, MatchTheDefinitionsOnRandomLayouts) {
  std::mt19937 rng(20261017);
  std::mt19937_64 values(7);
  const std::vector<Shape> shapes = {
      Shape{1},      Shape{37},   Shape{64},      Shape{7, 9},
      Shape{16, 16}, Shape{1000}, Shape{5, 4, 6}, Shape{3, 8, 5}};
  int column_walks = 0;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const Shape& shape = shapes[trial % shapes.size()];
    const mapping::ConcreteLayout layout = testing::random_layout(rng, shape);
    runtime::ExpectedValues expected(shape);
    expected.write(1 + rng() % 5000, shape);
    if (trial % 3 == 1) expected.live(random_region(rng, shape));
    if (trial % 7 == 6) expected.kill();
    for (int r = 0; r < layout.ranks(); ++r) {
      const mapping::OwnedProgram prog = layout.owned_program(r);
      // fold and stamp walk such an entry member by member across reps.
      for (const auto& b : prog.blocks)
        for (std::uint32_t i = b.first; i < b.first + b.count; ++i)
          column_walks += b.reps > prog.body[i].len;
      expect_kernels_match(
          prog, static_cast<std::size_t>(layout.local_count(r)), shape,
          expected, values,
          shape.to_string() + " " + layout.to_string() + " rank " +
              std::to_string(r));
    }
  }
  EXPECT_GT(column_walks, 0);
}

TEST(ValueKernels, MatchTheDefinitionsOnEdgeStretches) {
  using mapping::Extent;
  using mapping::Index;
  constexpr Index kP = static_cast<Index>(runtime::kWeightMod);
  constexpr Index kTop = runtime::kMaxSteppedLinear;
  std::mt19937_64 values(11);
  // Bases at and around multiples of 997 and of P, and against the top
  // of the exact range (each stretch is shifted down to end at most at
  // kTop).
  const std::vector<Index> bases = {0,          1,           996,
                                    997,        998,         997 * 1003 - 1,
                                    kP - 1,     kP,          kP + 1,
                                    997 * kP,   kTop};
  const std::vector<Extent> strides = {1, 8, 997, kP + 5, 3 * kP - 1};
  // Lengths around the lanes of both bodies and the wide body's
  // threshold: every length to 9, then 31-33, 63-65 and 257.
  const std::vector<Extent> lens = {0,  1,  2,  3,  4,  5,  6,  7,  8,
                                    9,  31, 32, 33, 63, 64, 65, 257};
  // reps 1 walks rows; reps > len walks each member across repetitions,
  // and 41 such repetitions take the wide body.
  const std::vector<Extent> reps_list = {1, 3, 12, 41};
  for (const Index base : bases) {
    for (const Extent stride : strides) {
      for (const Extent len : lens) {
        for (const Extent reps : reps_list) {
          if (reps == 41 && len > 9) continue;  // long lines either way
          const Extent dst_step = stride * len + 997;
          const Index span =
              (len > 0 ? (len - 1) * stride : 0) + (reps - 1) * dst_step;
          if (span > kTop) continue;  // wider than the exact range
          const Index first = std::min(base, kTop - span);
          const std::string what =
              "base " + std::to_string(first) + " stride " +
              std::to_string(stride) + " len " + std::to_string(len) +
              " reps " + std::to_string(reps);
          // The flat form over one stretch.
          const std::vector<double> flat =
              random_values(values, static_cast<std::size_t>(len));
          std::uint64_t want = 0;
          for (Extent j = 0; j < len; ++j)
            want += static_cast<std::uint64_t>(
                        flat[static_cast<std::size_t>(j)]) *
                    runtime::weight(first + j * stride);
          ASSERT_EQ(runtime::fold(flat.data(), first, stride, len), want)
              << what;
          std::vector<double> stamped(static_cast<std::size_t>(len));
          runtime::stamp(stamped.data(), first, stride, len, 4242);
          for (Extent j = 0; j < len; ++j)
            ASSERT_EQ(stamped[static_cast<std::size_t>(j)],
                      runtime::stamped(4242, first + j * stride))
                << what << " member " << j;
          // One body entry repeated `reps` times, a live window clipping
          // the first and last members of each stretch.
          mapping::OwnedProgram prog;
          prog.body = {mapping::OwnedRun{0, first, stride, len}};
          prog.blocks = {mapping::SegmentBlock{0, 1, reps, len, dst_step}};
          const Shape shape{kTop + 1};
          runtime::ExpectedValues expected(shape);
          expected.write(4242, shape);
          expect_kernels_match(prog, static_cast<std::size_t>(reps * len),
                               shape, expected, values, what);
          const std::vector<std::pair<Extent, Extent>> window = {
              {first + 1, first + span}};
          expected.live(window);
          if (!expected.dead)
            expect_kernels_match(prog, static_cast<std::size_t>(reps * len),
                                 shape, expected, values, what + " live");
        }
      }
    }
  }
}

/// The wide bodies compute exactly what the narrow ones do: the same
/// fold, the same stores and the same verdict on random lines of every
/// length to 300, at unit and non-unit local strides, from random
/// residues and global strides.
TEST(ValueKernels, WideBodiesMatchTheNarrowOnRandomLines) {
#if HPFC_WIDE_VALUE_KERNELS
  if (!runtime::detail::wide_lanes())
    GTEST_SKIP() << "this CPU lacks AVX-512F/DQ/VL";
  using mapping::Extent;
  using runtime::kStampMod;
  using runtime::kWeightMod;
  namespace detail = runtime::detail;
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto count = static_cast<Extent>(rng() % 301);
    const Extent stride =
        trial % 2 == 0 ? 1 : 1 + static_cast<Extent>(rng() % 9);
    const Extent global_stride =
        1 + static_cast<Extent>(rng() % (3 * kWeightMod));
    const std::string what = "count " + std::to_string(count) + " stride " +
                             std::to_string(stride) + " global stride " +
                             std::to_string(global_stride);
    const std::vector<double> values = random_values(
        rng, static_cast<std::size_t>(count * stride + 1));
    const detail::ResidueStep<kWeightMod> weight_step(global_stride,
                                                      runtime::kWeightMul);
    const std::uint64_t r = rng() % kWeightMod;
    ASSERT_EQ(
        detail::fold_line_wide(values.data(), stride, count, r, weight_step),
        detail::fold_line_narrow(values.data(), stride, count, r,
                                 weight_step))
        << what;

    const detail::ResidueStep<kStampMod> stamp_step(global_stride, 1);
    const std::uint64_t s = rng() % kStampMod;
    const std::uint64_t counter_base = (1 + rng() % 5000) * runtime::kStampMul;
    std::vector<double> wide(values.size(), -1.0);
    std::vector<double> narrow(values.size(), -1.0);
    detail::stamp_line_wide(wide.data(), stride, count, s, stamp_step,
                            counter_base);
    detail::stamp_line_narrow(narrow.data(), stride, count, s, stamp_step,
                              counter_base);
    ASSERT_EQ(wide, narrow) << what;

    if (stride != 1) continue;  // the window compare reads unit stride
    ASSERT_TRUE(detail::stamped_window_wide(wide.data(), count, s, stamp_step,
                                            counter_base))
        << what;
    ASSERT_TRUE(detail::stamped_window_narrow(wide.data(), count, s,
                                              stamp_step, counter_base))
        << what;
    if (count == 0) continue;
    const std::size_t at = static_cast<std::size_t>(rng() % count);
    wide[at] += 1.0;
    ASSERT_FALSE(detail::stamped_window_wide(wide.data(), count, s,
                                             stamp_step, counter_base))
        << what << " corrupted " << at;
    ASSERT_FALSE(detail::stamped_window_narrow(wide.data(), count, s,
                                               stamp_step, counter_base))
        << what << " corrupted " << at;
  }
#else
  GTEST_SKIP() << "the wide bodies are not compiled on this target";
#endif
}

TEST(ValueKernels, ShapesPastTheExactRangeFailLoudly) {
  constexpr mapping::Extent kTop = runtime::kMaxSteppedLinear;
  static_assert(kTop == 6949403087);
  EXPECT_NO_THROW(runtime::require_stepped_weights(Shape{kTop + 1}));
  EXPECT_THROW(runtime::require_stepped_weights(Shape{kTop + 2}),
               InternalError);
  // The runtime and the reference check every mapped array when they
  // are constructed, before allocating anything.
  ProgramBuilder b("huge");
  b.procs("P", Shape{4});
  b.array("A", Shape{kTop + 2});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  EXPECT_THROW(driver::run(c), InternalError);
  EXPECT_THROW(driver::run_oracle(c), InternalError);
}

}  // namespace
}  // namespace hpfc
