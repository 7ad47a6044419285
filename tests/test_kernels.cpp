// Specialized pack/unpack kernel codegen (copy-and-patch): specialize()
// lowers a compiled SegmentProgram to fragment-stitched kernels whose
// pack/unpack/copy must be byte-identical to the interpreted segment
// walker — the kernels' test reference (see docs/kernels.md). These
// tests pin (1) the fragment classification and span stitching, the
// periodic fragment included, (2) the byte-equality property over
// random_layout redistribution programs, (3) plan and ownership sizes
// that do not grow with the extent, and (4) plan-slot eviction under
// memory pressure with lazy re-specialization (and fused-slot
// invalidation) behind it, and (5) copy_range: any cut of a kernel's
// payload into ranges writes each range's positions only and rebuilds
// copy() byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/segments.hpp"
#include "testing/figures.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;
using redist::CopySegment;
using redist::SegmentProgram;

/// A hand-built program over one `len`/stride pattern (src/dst ranks and
/// bases are irrelevant to classification).
SegmentProgram one_segment(Extent len, Extent src_stride, Extent dst_stride) {
  return SegmentProgram::flat(0, 0, {{/*src_base=*/0, src_stride,
                                      /*dst_base=*/0, dst_stride, len}});
}

TEST(FragmentClassification, PicksTheDocumentedFragmentPerSegmentShape) {
  EXPECT_EQ(redist::specialize(one_segment(1, 1, 1)).describe(), "singleton");
  EXPECT_EQ(redist::specialize(one_segment(3, 2, 1)).describe(), "unrolled");
  EXPECT_EQ(redist::specialize(one_segment(4, 1, 1)).describe(), "unrolled");
  EXPECT_EQ(redist::specialize(one_segment(8, 1, 1)).describe(), "memcpy");
  // A non-unit stride is read from the segment, so every value of it
  // classifies to the same runtime-stride fragment.
  for (const Extent stride : {2, 3, 5, 16}) {
    SCOPED_TRACE(stride);
    EXPECT_EQ(redist::specialize(one_segment(8, stride, 1)).describe(),
              "gather");
    EXPECT_EQ(redist::specialize(one_segment(8, 1, stride)).describe(),
              "scatter");
    EXPECT_EQ(redist::specialize(one_segment(8, stride, 2)).describe(),
              "strided");
    EXPECT_EQ(redist::specialize(one_segment(8, 3, stride)).describe(),
              "strided");
  }
}

TEST(FragmentClassification, StitchesSameFragmentRunsIntoOneSpan) {
  const SegmentProgram program =
      SegmentProgram::flat(0, 0,
                           {{0, 1, 0, 1, 16},     // memcpy
                            {16, 1, 16, 1, 16},   // memcpy, same fragment
                            {32, 2, 32, 1, 8}});  // gather
  const redist::Kernel kernel = redist::specialize(program);
  EXPECT_EQ(kernel.program().segments.size(), 3u);
  ASSERT_EQ(kernel.spans().size(), 2u);
  EXPECT_EQ(kernel.spans()[0].count, 2u);
  EXPECT_EQ(kernel.spans()[1].count, 1u);
  EXPECT_EQ(kernel.spans()[1].out_offset, 32);
  EXPECT_EQ(kernel.describe(), "memcpy+gather");
  EXPECT_EQ(kernel.elements(), program.elements);
  EXPECT_GT(kernel.footprint_bytes(), 0u);
}

TEST(FragmentClassification, RepeatedBlocksRunThroughThePeriodicFragment) {
  // A flat singleton, then a body of [unrolled, unrolled, singleton]
  // repeated 5 times 10/20 positions apart, then a flat memcpy.
  SegmentProgram program;
  program.segments = {{0, 1, 0, 1, 1},
                      {1, 1, 1, 2, 3},
                      {4, 2, 7, 1, 2},
                      {9, 1, 9, 1, 1},
                      {51, 1, 101, 1, 8}};
  program.blocks = {{0, 1, 1, 0, 0}, {1, 3, 5, 10, 20}, {4, 1, 1, 0, 0}};
  program.elements = 1 + 5 * (3 + 2 + 1) + 8;
  EXPECT_EQ(program.segment_count(), 1u + 15u + 1u);
  const redist::Kernel kernel = redist::specialize(program);
  EXPECT_EQ(kernel.describe(),
            "singleton+periodic(unrolled)+periodic(singleton)+memcpy");
  ASSERT_EQ(kernel.spans().size(), 4u);
  const redist::KernelSpan& body = kernel.spans()[1];
  EXPECT_EQ(body.count, 2u);
  EXPECT_EQ(body.reps, 5);
  EXPECT_EQ(body.out_offset, 1);
  EXPECT_EQ(body.out_step, 6);
  EXPECT_EQ(kernel.spans()[2].out_offset, 1 + 5);
  EXPECT_EQ(kernel.spans()[3].out_offset, 1 + 30);

  // Byte-identical to the walker over the expansion.
  std::vector<double> src(64);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i);
  std::vector<double> via_walker(static_cast<std::size_t>(program.elements));
  std::vector<double> via_kernel(via_walker.size());
  redist::pack_into(program, src, via_walker);
  kernel.pack(src, via_kernel);
  EXPECT_EQ(via_kernel, via_walker);
  std::vector<double> dst_walker(128, -1.0);
  std::vector<double> dst_kernel(dst_walker);
  redist::unpack(program, via_walker, dst_walker);
  kernel.unpack(via_walker, dst_kernel);
  EXPECT_EQ(dst_kernel, dst_walker);
  std::vector<double> copy_walker(128, -1.0);
  std::vector<double> copy_kernel(copy_walker);
  redist::copy_local(program, src, copy_walker);
  kernel.copy(src, copy_kernel);
  EXPECT_EQ(copy_kernel, copy_walker);
}

TEST(FragmentClassification, EveryCatalogNameIsReachable) {
  // One program per catalog entry, in catalog order: a one-segment
  // program per segment class, then a repeated block for `periodic`. An
  // entry no segment shape classifies to has no program here, so the
  // sizes differ and the test fails.
  SegmentProgram repeated;
  repeated.segments = {{0, 1, 0, 1, 3}};
  repeated.blocks = {{0, 1, 4, 3, 3}};
  repeated.elements = 4 * 3;
  const std::vector<SegmentProgram> programs = {
      one_segment(1, 1, 1), one_segment(3, 1, 1), one_segment(8, 1, 1),
      one_segment(8, 2, 1), one_segment(8, 1, 2), one_segment(8, 2, 3),
      repeated};
  const auto catalog = redist::fragment_catalog();
  ASSERT_EQ(catalog.size(), programs.size());
  for (std::size_t i = 0; i + 1 < catalog.size(); ++i)
    EXPECT_EQ(redist::specialize(programs[i]).describe(), catalog[i]);
  EXPECT_EQ(catalog.back(), "periodic");
  EXPECT_EQ(redist::specialize(programs.back()).describe(),
            "periodic(unrolled)");
}

// ---- copy_range ------------------------------------------------------------

constexpr double kSentinel = -7.5;

/// Checks kernel.copy_range(lo, hi) into a sentinel-filled destination:
/// the destination position of every payload position in [lo, hi) holds
/// its source value, and every other position still holds the sentinel.
/// `at` maps each payload position to its (source, destination) local
/// positions.
void expect_range_exact(const redist::Kernel& kernel,
                        const std::vector<std::pair<Extent, Extent>>& at,
                        const std::vector<double>& src, std::size_t dst_size,
                        Extent lo, Extent hi) {
  std::vector<double> dst(dst_size, kSentinel);
  kernel.copy_range(src, dst, lo, hi);
  std::vector<double> expected(dst_size, kSentinel);
  for (Extent p = lo; p < hi; ++p) {
    const auto [from, to] = at[static_cast<std::size_t>(p)];
    expected[static_cast<std::size_t>(to)] =
        src[static_cast<std::size_t>(from)];
  }
  ASSERT_EQ(dst, expected) << "[" << lo << ", " << hi << ") of "
                           << kernel.elements() << " [" << kernel.describe()
                           << "]";
}

/// Each payload position's (source, destination) local positions, from
/// the program's expansion.
std::vector<std::pair<Extent, Extent>> positions(const SegmentProgram& p) {
  std::vector<std::pair<Extent, Extent>> at;
  p.for_each_segment([&](const CopySegment& seg) {
    for (Extent j = 0; j < seg.len; ++j)
      at.emplace_back(seg.src_base + j * seg.src_stride,
                      seg.dst_base + j * seg.dst_stride);
  });
  return at;
}

/// Payload positions inside a segment and inside a repetition of
/// `kernel`, one past each span's first element and one before its end.
std::vector<Extent> interior_cuts(const redist::Kernel& kernel) {
  std::vector<Extent> cuts;
  for (const redist::KernelSpan& span : kernel.spans()) {
    const Extent mid = span.out_offset + (span.reps / 2) * span.out_step;
    for (const Extent c : {span.out_offset + 1, mid + span.elements / 2,
                           mid + span.elements - 1})
      if (c > 0 && c < kernel.elements()) cuts.push_back(c);
  }
  return cuts;
}

/// Cuts `kernel`'s payload at `cuts` (plus 0 and elements(); duplicates
/// give empty ranges), checks each range against the sentinel, and checks
/// that the ranges together write exactly what copy() writes.
void expect_cuts_rebuild_copy(const redist::Kernel& kernel,
                              std::vector<Extent> cuts,
                              const std::vector<double>& src,
                              std::size_t dst_size) {
  const auto at = positions(kernel.program());
  ASSERT_EQ(static_cast<Extent>(at.size()), kernel.elements());
  cuts.push_back(0);
  cuts.push_back(kernel.elements());
  std::sort(cuts.begin(), cuts.end());
  std::vector<double> via_copy(dst_size, kSentinel);
  kernel.copy(src, via_copy);
  std::vector<double> via_ranges(dst_size, kSentinel);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    expect_range_exact(kernel, at, src, dst_size, cuts[i], cuts[i + 1]);
    kernel.copy_range(src, via_ranges, cuts[i], cuts[i + 1]);
  }
  ASSERT_EQ(via_ranges, via_copy) << kernel.describe();
}

// Property: over random_layout redistribution programs, the specialized
// kernel's pack/unpack/copy write exactly the bytes the interpreted
// walker writes (pack_into / unpack / copy_local are the oracle). Both
// run over the same segment table: the one the kernel owns. And every
// cut of a kernel's payload into copy_range ranges (random cuts, cuts
// inside a segment and inside a repetition, empty ranges, and the whole
// [0, elements)) writes only each range's destination positions, the
// ranges together exactly what copy() writes.
TEST(KernelOracle, MatchesInterpreterOnRandomLayoutRedistributions) {
  std::mt19937 rng(4242);
  std::mt19937 cut_rng(17);  // apart from rng, so the layouts stay put
  const Shape shapes[] = {Shape{32},  Shape{21},     Shape{10, 12},
                          Shape{8, 8}, Shape{257},   Shape{6, 70}};
  int programs_checked = 0;
  int periodic_spans = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Shape& shape = shapes[trial % 6];
    const auto from = testing::random_layout(rng, shape);
    const auto to = testing::random_layout(rng, shape);
    const redist::RedistPlanV2 plan = redist::build_runs(from, to);
    for (const auto& t : plan.transfers) {
      const redist::Kernel kernel =
          redist::specialize(redist::compile_transfer(
              t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst)));
      const SegmentProgram& program = kernel.program();
      ASSERT_EQ(kernel.elements(), program.elements);
      // The spans tile the body table in order, no gaps or overlaps, and
      // their repetitions cover the expansion.
      std::size_t body_covered = 0;
      std::uint64_t covered = 0;
      for (const auto& span : kernel.spans()) {
        const std::string_view name = span.fragment->name;
        const auto catalog = redist::fragment_catalog();
        EXPECT_NE(std::find(catalog.begin(), catalog.end(), name),
                  catalog.end())
            << "span uses a fragment outside the catalog: " << name;
        EXPECT_EQ(span.first, body_covered);
        body_covered += span.count;
        covered += static_cast<std::uint64_t>(span.count) *
                   static_cast<std::uint64_t>(span.reps);
        periodic_spans += span.reps > 1 ? 1 : 0;
      }
      ASSERT_EQ(body_covered, program.segments.size());
      ASSERT_EQ(covered, program.segment_count());

      std::vector<double> src_local(
          static_cast<std::size_t>(from.local_count(t.src)));
      for (std::size_t i = 0; i < src_local.size(); ++i)
        src_local[i] = static_cast<double>(1000 * trial + i);

      // pack: kernel window vs interpreted pack_into.
      std::vector<double> via_walker(
          static_cast<std::size_t>(program.elements), -1.0);
      std::vector<double> via_kernel(
          static_cast<std::size_t>(program.elements), -2.0);
      redist::pack_into(program, src_local, via_walker);
      kernel.pack(src_local, via_kernel);
      ASSERT_EQ(via_kernel, via_walker)
          << from.to_string() << " -> " << to.to_string() << " ["
          << kernel.describe() << "]";

      // unpack: scatter the packed payload both ways.
      std::vector<double> dst_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> dst_kernel(dst_walker);
      redist::unpack(program, via_walker, dst_walker);
      kernel.unpack(via_walker, dst_kernel);
      ASSERT_EQ(dst_kernel, dst_walker) << kernel.describe();

      // copy: the local fast path.
      std::vector<double> copy_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> copy_kernel(copy_walker);
      redist::copy_local(program, src_local, copy_walker);
      kernel.copy(src_local, copy_kernel);
      ASSERT_EQ(copy_kernel, copy_walker) << kernel.describe();

      // copy_range: cuts anywhere rebuild copy.
      std::vector<Extent> cuts = interior_cuts(kernel);
      std::uniform_int_distribution<Extent> pick(0, kernel.elements());
      for (int c = 0; c < 6; ++c) cuts.push_back(pick(cut_rng));
      cuts.push_back(cuts.back());  // an empty range
      expect_cuts_rebuild_copy(kernel, cuts, src_local, copy_walker.size());
      expect_cuts_rebuild_copy(kernel, {}, src_local, copy_walker.size());
      ++programs_checked;
    }
  }
  EXPECT_GT(programs_checked, 50);
  EXPECT_GT(periodic_spans, 20);
}

// Every range [lo, hi) of hand-built programs whose repeated blocks hold
// unrolled and strided segments: a range that cuts an unrolled segment to
// one element must run it as a singleton, and one that cuts a repetition
// must run the repetitions it holds whole and clip the rest.
TEST(KernelRange, EveryRangeOfHandBuiltRepeatedBlocks) {
  SegmentProgram mixed;
  // A flat singleton, a body of [unrolled, unrolled, singleton] repeated
  // 5 times, then a flat memcpy (the periodic fragment test's program).
  mixed.segments = {{0, 1, 0, 1, 1},
                    {1, 1, 1, 2, 3},
                    {4, 2, 7, 1, 2},
                    {9, 1, 9, 1, 1},
                    {51, 1, 101, 1, 8}};
  mixed.blocks = {{0, 1, 1, 0, 0}, {1, 3, 5, 10, 20}, {4, 1, 1, 0, 0}};
  mixed.elements = 1 + 5 * (3 + 2 + 1) + 8;
  SegmentProgram strided;
  // A body of [gather of 6, memcpy of 5] repeated 4 times, then a body
  // of one 4-element unrolled segment repeated 3 times.
  strided.segments = {{0, 3, 0, 1, 6}, {20, 1, 6, 1, 5}, {100, 2, 60, 3, 4}};
  strided.blocks = {{0, 2, 4, 30, 11}, {2, 1, 3, 9, 13}};
  strided.elements = 4 * 11 + 3 * 4;
  for (const SegmentProgram& program : {mixed, strided}) {
    const redist::Kernel kernel = redist::specialize(program);
    SCOPED_TRACE(kernel.describe());
    const auto at = positions(program);
    Extent src_size = 0;
    Extent dst_size = 0;
    for (const auto& [from, to] : at) {
      src_size = std::max(src_size, from + 1);
      dst_size = std::max(dst_size, to + 1);
    }
    std::vector<double> src(static_cast<std::size_t>(src_size));
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<double>(i + 1);
    for (Extent lo = 0; lo <= program.elements; ++lo)
      for (Extent hi = lo; hi <= program.elements; ++hi)
        expect_range_exact(kernel, at, src, static_cast<std::size_t>(dst_size),
                           lo, hi);
    expect_cuts_rebuild_copy(kernel, interior_cuts(kernel), src,
                             static_cast<std::size_t>(dst_size));
  }
}

hpfc::mapping::ConcreteLayout cyclic_layout(Extent n, Extent k) {
  return mapping::ConcreteLayout::make(
      Shape{n}, Shape{8},
      {{mapping::AlignTarget::axis(0), DistFormat::cyclic(k), n}});
}

// cyclic(2) -> cyclic(3) on 8 ranks: the plan tables (the kernels'
// footprint) and the ownership programs are sized by the lcm window, not
// by the extent, so 16x more elements cost no more plan or ownership
// entries.
TEST(PeriodicFootprint, CyclicTwoToThreeDoesNotGrowWithExtent) {
  struct Size {
    std::uint64_t kernel_bytes = 0;
    std::uint64_t segments = 0;  // expanded: grows with n
    std::size_t stretches = 0;   // stored ownership stretches
    std::size_t blocks = 0;
  };
  const auto measure = [](Extent n) {
    Size size;
    const auto from = cyclic_layout(n, 2);
    const auto to = cyclic_layout(n, 3);
    for (const auto& t : redist::build_runs(from, to).transfers) {
      const redist::Kernel kernel = redist::specialize(redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst)));
      size.kernel_bytes += kernel.footprint_bytes();
      size.segments += kernel.program().segment_count();
    }
    for (const auto* lay : {&from, &to}) {
      for (int r = 0; r < lay->ranks(); ++r) {
        const mapping::OwnedProgram own = lay->owned_program(r);
        size.stretches += own.body.size();
        size.blocks += own.blocks.size();
      }
    }
    return size;
  };
  const Size small = measure(Extent{1} << 16);
  const Size large = measure(Extent{1} << 20);
  EXPECT_EQ(small.kernel_bytes, large.kernel_bytes);
  EXPECT_EQ(small.stretches, large.stretches);
  EXPECT_EQ(small.blocks, large.blocks);
  // The expansion (what pack_segments counts) does grow with n.
  EXPECT_GT(large.segments, 15 * small.segments);
  // One block of one stretch per rank row, plus the clipped tail window
  // that 2^16 and 2^20 share (both are 16 past a multiple of 24).
  EXPECT_LE(small.stretches, 3u * 16u);
}

// Under memory pressure the runtime falls back to evicting compiled plan
// slots (their kernels and segment tables); the evicted slots recompile and
// re-specialize on their next use, so specialized_kernels rises past the
// unlimited run's install count while the results stay exact.
TEST(PlanEviction, EvictedSlotsReSpecializeLazily) {
  const Compiled compiled =
      compile(testing::fig16_multi(96, 4, 3, 3), OptLevel::O0);
  runtime::RunOptions options;
  options.seed = 11;
  const runtime::RunReport oracle = driver::run_oracle(compiled, options);
  const runtime::RunReport unlimited = driver::run(compiled, options);
  EXPECT_EQ(unlimited.signature, oracle.signature);
  EXPECT_EQ(unlimited.plan_evictions, 0);
  ASSERT_GT(unlimited.net.specialized_kernels, 0u);

  // Squeeze the limit down until plan slots get evicted AND re-installed
  // (deterministic: the run sequence is a pure function of the limit).
  runtime::RunReport squeezed;
  bool found = false;
  for (std::uint64_t limit = unlimited.peak_bytes; limit > 0 && !found;
       limit -= limit / 8 + 1) {
    options.memory_limit = limit;
    squeezed = driver::run(compiled, options);
    found = squeezed.plan_evictions > 0 &&
            squeezed.net.specialized_kernels > unlimited.net.specialized_kernels;
  }
  ASSERT_TRUE(found) << "no memory limit forced a plan-slot eviction";
  // Re-specialization changed no result and no dispatch accounting rule:
  // the squeezed run still matches the oracle exactly.
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);

  // The fused path survives member-plan eviction (cached fused rounds are
  // invalidated, not left dangling): re-running the same squeezed limit
  // reproduces the run exactly.
  const runtime::RunReport squeezed_again = driver::run(compiled, options);
  EXPECT_EQ(squeezed_again.signature, oracle.signature);
  EXPECT_EQ(squeezed_again.plan_evictions, squeezed.plan_evictions);
  EXPECT_EQ(squeezed_again.net, squeezed.net);
}

}  // namespace
}  // namespace hpfc
