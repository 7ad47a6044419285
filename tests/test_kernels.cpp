// Specialized pack/unpack kernel codegen (copy-and-patch): specialize()
// lowers a compiled SegmentProgram to fragment-stitched kernels whose
// pack/unpack/copy must be byte-identical to the interpreted segment
// walker — the kernels' test reference (see docs/kernels.md). These
// tests pin (1) the fragment classification and span stitching, the
// periodic fragment included, (2) the byte-equality property over
// random_layout redistribution programs, (3) plan and ownership sizes
// that do not grow with the extent, (4) copy_range: any cut of a
// kernel's payload into ranges writes each range's positions only and
// rebuilds copy() byte for byte, and (5) round stencils: a round that
// gathers through its stencil writes exactly the bytes the per-pair pull
// writes, and patches its storage pointers at every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/segments.hpp"
#include "runtime/round.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

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
  testing::pack_into(program, src, via_walker);
  kernel.pack(src, via_kernel);
  EXPECT_EQ(via_kernel, via_walker);
  std::vector<double> dst_walker(128, -1.0);
  std::vector<double> dst_kernel(dst_walker);
  testing::unpack(program, via_walker, dst_walker);
  kernel.unpack(via_walker, dst_kernel);
  EXPECT_EQ(dst_kernel, dst_walker);
  std::vector<double> copy_walker(128, -1.0);
  std::vector<double> copy_kernel(copy_walker);
  testing::copy_local(program, src, copy_walker);
  kernel.copy(src, copy_kernel);
  EXPECT_EQ(copy_kernel, copy_walker);
}

TEST(FragmentClassification, EveryCatalogNameIsReachable) {
  // One program per kernel entry, in catalog order: a one-segment
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
  ASSERT_EQ(catalog.size(), programs.size() + redist::kMaxGatherWidth - 1);
  for (std::size_t i = 0; i + 1 < programs.size(); ++i)
    EXPECT_EQ(redist::specialize(programs[i]).describe(), catalog[i]);
  EXPECT_EQ(catalog[programs.size() - 1], "periodic");
  EXPECT_EQ(redist::specialize(programs.back()).describe(),
            "periodic(unrolled)");

  // Then the round stencils' gathers, one per width: gather_w<W> moves
  // lane j's element of period p from src[j][p*3] (source step 3) to
  // dst[p*W + j].
  constexpr Extent kPeriods = 5;
  for (int width = 2; width <= redist::kMaxGatherWidth; ++width) {
    SCOPED_TRACE(width);
    EXPECT_EQ(catalog[programs.size() + static_cast<std::size_t>(width - 2)],
              "gather_w" + std::to_string(width));
    const auto w = static_cast<std::size_t>(width);
    std::vector<std::vector<double>> lanes(w);
    std::vector<const double*> src;
    for (std::size_t j = 0; j < w; ++j) {
      for (Extent p = 0; p < kPeriods * 3; ++p)
        lanes[j].push_back(static_cast<double>(1000 * j) +
                           static_cast<double>(p));
      src.push_back(lanes[j].data());
    }
    std::vector<double> dst(w * kPeriods + 1, -1.0);
    redist::gather_fragment(width)(src.data(), dst.data(), kPeriods, 3);
    for (std::size_t p = 0; p < kPeriods; ++p)
      for (std::size_t j = 0; j < w; ++j)
        ASSERT_EQ(dst[p * w + j], lanes[j][p * 3]) << p << " " << j;
    EXPECT_EQ(dst.back(), -1.0);
  }
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
      testing::pack_into(program, src_local, via_walker);
      kernel.pack(src_local, via_kernel);
      ASSERT_EQ(via_kernel, via_walker)
          << from.to_string() << " -> " << to.to_string() << " ["
          << kernel.describe() << "]";

      // unpack: scatter the packed payload both ways.
      std::vector<double> dst_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> dst_kernel(dst_walker);
      testing::unpack(program, via_walker, dst_walker);
      kernel.unpack(via_walker, dst_kernel);
      ASSERT_EQ(dst_kernel, dst_walker) << kernel.describe();

      // copy: the local fast path.
      std::vector<double> copy_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> copy_kernel(copy_walker);
      testing::copy_local(program, src_local, copy_walker);
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
// stored segments, blocks and spans) and the ownership programs are sized
// by the lcm window, not by the extent, so 16x more elements cost no more
// plan or ownership entries.
TEST(PeriodicFootprint, CyclicTwoToThreeDoesNotGrowWithExtent) {
  struct Size {
    std::size_t kernel_segments = 0;  // stored segment table entries
    std::size_t kernel_blocks = 0;
    std::size_t kernel_spans = 0;
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
      size.kernel_segments += kernel.program().segments.size();
      size.kernel_blocks += kernel.program().blocks.size();
      size.kernel_spans += kernel.spans().size();
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
  EXPECT_EQ(small.kernel_segments, large.kernel_segments);
  EXPECT_EQ(small.kernel_blocks, large.kernel_blocks);
  EXPECT_EQ(small.kernel_spans, large.kernel_spans);
  EXPECT_EQ(small.stretches, large.stretches);
  EXPECT_EQ(small.blocks, large.blocks);
  // The expansion (what pack_segments counts) does grow with n.
  EXPECT_GT(large.segments, 15 * small.segments);
  // One block of one stretch per rank row, plus the clipped tail window
  // that 2^16 and 2^20 share (both are 16 past a multiple of 24).
  EXPECT_LE(small.stretches, 3u * 16u);
}

// ---- round stencils --------------------------------------------------------

/// One member of a test round: the kernels of `from -> to`, its source
/// storage (every element a value unique to the member, rank and
/// position) and its NaN-sentinel destination storage.
struct StencilMember {
  mapping::ConcreteLayout from;
  mapping::ConcreteLayout to;
  std::vector<redist::Kernel> kernels;
  runtime::RankLocals src;
  runtime::RankLocals dst;
};

StencilMember stencil_member(mapping::ConcreteLayout from,
                             mapping::ConcreteLayout to, double base) {
  StencilMember m{std::move(from), std::move(to), {}, {}, {}};
  for (const auto& t : redist::build_runs(m.from, m.to).transfers)
    m.kernels.push_back(redist::specialize(redist::compile_transfer(
        t, m.from.owned_index_runs(t.src), m.to.owned_index_runs(t.dst))));
  m.src.resize(static_cast<std::size_t>(m.from.ranks()));
  for (std::size_t r = 0; r < m.src.size(); ++r)
    for (Extent i = 0; i < m.from.local_count(static_cast<int>(r)); ++i)
      m.src[r].push_back(base + 1e4 * static_cast<double>(r) +
                         static_cast<double>(i));
  m.dst.resize(static_cast<std::size_t>(m.to.ranks()));
  for (std::size_t r = 0; r < m.dst.size(); ++r)
    m.dst[r].resize(
        static_cast<std::size_t>(m.to.local_count(static_cast<int>(r))));
  return m;
}

/// Refills every destination element with a NaN sentinel, in place.
void fill_sentinel(std::vector<StencilMember>& members) {
  for (StencilMember& m : members)
    for (auto& local : m.dst)
      std::fill(local.begin(), local.end(),
                std::numeric_limits<double>::quiet_NaN());
}

/// Every destination byte of the round, member by member and rank by rank.
std::vector<std::uint64_t> dst_bits(const std::vector<StencilMember>& members) {
  std::vector<std::uint64_t> bits;
  for (const StencilMember& m : members) {
    for (const auto& local : m.dst) {
      for (const double value : local)
        bits.push_back(std::bit_cast<std::uint64_t>(value));
    }
  }
  return bits;
}

/// The round over `members` on the machine of their most ranks.
runtime::FusedRound stencil_round(std::vector<StencilMember>& members) {
  int ranks = 1;
  std::vector<runtime::RoundMember> round_members;
  for (StencilMember& m : members) {
    ranks = std::max({ranks, m.from.ranks(), m.to.ranks()});
    round_members.push_back({m.kernels, &m.src, &m.dst});
  }
  return runtime::FusedRound(ranks, std::move(round_members), 0);
}

mapping::ConcreteLayout cyclic_on(Extent n, Extent k, Extent ranks) {
  return mapping::ConcreteLayout::make(
      Shape{n}, Shape{ranks},
      {{mapping::AlignTarget::axis(0), DistFormat::cyclic(k), n}});
}

// Property: the per-pair pull writes the same bytes into NaN-sentinel
// destinations in any tile count, on seq and on a 3-worker thread
// backend (one tile, fewer tiles than ranks, more tiles than elements,
// uneven splits), and wherever a round has a stencil, its gathers and
// rests write exactly those bytes: on seq in one tile and in tiles()
// tiles, on the thread backend (the (tile, rank) items split unevenly
// over the tasks), and through run() on both. The rounds are KernelOracle's
// random layout pairs on its shapes and on longer ones, plus one- to
// three-member rounds of cyclic(a) -> cyclic(b) pairs whose extents clip
// the last period.
TEST(RoundStencil, WritesExactlyWhatThePerPairPullWrites) {
  std::mt19937 rng(4242);
  const Shape shapes[] = {Shape{32},   Shape{21},   Shape{10, 12},
                          Shape{8, 8}, Shape{257},  Shape{6, 70},
                          Shape{480},  Shape{1003}, Shape{24, 96}};
  int stencils = 0;
  int fused_stencils = 0;
  int rounds = 0;
  const auto check = [&](std::vector<StencilMember>& members,
                         const std::string& what) {
    SCOPED_TRACE(what);
    runtime::FusedRound round = stencil_round(members);
    const int ranks = static_cast<int>(round.exchange().by_dst.size());
    const auto seq_backend = exec::make_backend(exec::BackendKind::Seq, ranks);
    const auto thread =
        exec::make_backend(exec::BackendKind::Thread, ranks, 3);
    fill_sentinel(members);
    round.pull(*seq_backend, 1);
    const std::vector<std::uint64_t> expected = dst_bits(members);
    const auto expect_same = [&](const char* how, const auto& move) {
      fill_sentinel(members);
      move();
      EXPECT_EQ(dst_bits(members), expected) << how;
    };
    expect_same("per-pair, tiles() tiles",
                [&] { round.pull(*seq_backend, round.tiles()); });
    expect_same("run on seq", [&] { round.run(*seq_backend); });
    expect_same("run on thread-3", [&] { round.run(*thread); });
    ++rounds;
    ASSERT_GE(round.tiles(), 1);
    for (const int tiles : {1, 2, 5, round.tiles(), 97}) {
      SCOPED_TRACE(std::to_string(tiles) + " tiles");
      expect_same("per-pair, thread-3", [&] { round.pull(*thread, tiles); });
      if (round.has_stencil())
        expect_same("stencil, thread-3", [&] { round.gather(*thread, tiles); });
    }
    if (!round.has_stencil()) return;
    ++stencils;
    fused_stencils += members.size() > 1 ? 1 : 0;
    expect_same("seq, one tile", [&] { round.gather(*seq_backend, 1); });
    expect_same("seq, tiles()",
                [&] { round.gather(*seq_backend, round.tiles()); });
  };
  for (int trial = 0; trial < 270; ++trial) {
    const Shape& shape = shapes[trial % 9];
    std::vector<StencilMember> members;
    members.push_back(stencil_member(testing::random_layout(rng, shape),
                                     testing::random_layout(rng, shape), 0.0));
    check(members, "random layouts, trial " + std::to_string(trial));
  }
  const int random_stencils = stencils;
  std::uniform_int_distribution<int> k(1, 4);
  std::uniform_int_distribution<int> procs(2, 8);
  std::uniform_int_distribution<int> extent(40, 700);
  for (int trial = 0; trial < 60; ++trial) {
    const int count = 1 + trial % 3;
    const Extent ranks = procs(rng);
    std::vector<StencilMember> members;
    std::string what = "cyclic trial " + std::to_string(trial) + ":";
    for (int m = 0; m < count; ++m) {
      const Extent n = extent(rng);
      const Extent a = k(rng);
      const Extent b = k(rng);
      what += " n=" + std::to_string(n) + " cyclic(" + std::to_string(a) +
              ")->cyclic(" + std::to_string(b) + ")";
      members.push_back(stencil_member(cyclic_on(n, a, ranks),
                                       cyclic_on(n, b, ranks), 1e6 * m));
    }
    check(members, what);
  }
  EXPECT_EQ(rounds, 330);
  EXPECT_GT(random_stencils, 10);
  EXPECT_GT(stencils, 40);
  EXPECT_GT(fused_stencils, 10);
}

// cyclic_fine's rounds (cyclic(2) <-> cyclic(3) on 8 ranks) pull through
// the stencil, on an extent that clips the last period too. hotpath's
// block -> cyclic round does not: each destination element of a line
// comes from the next source rank, so its lines are one lane wide.
// cyclic -> block does: a destination line of 8 lanes, one per source
// rank, each advancing one source position per period.
TEST(RoundStencil, CyclicTwoThreeIsEligibleBlockToCyclicIsNot) {
  constexpr Extent kN = 48 * 100 + 16;
  const auto eligible = [](mapping::ConcreteLayout from,
                           mapping::ConcreteLayout to) {
    std::vector<StencilMember> members;
    members.push_back(stencil_member(std::move(from), std::move(to), 0.0));
    return stencil_round(members).has_stencil();
  };
  EXPECT_TRUE(eligible(cyclic_on(kN, 2, 8), cyclic_on(kN, 3, 8)));
  EXPECT_TRUE(eligible(cyclic_on(kN, 3, 8), cyclic_on(kN, 2, 8)));
  const auto block = [](Extent n) {
    mapping::DimOwner owner;
    owner.source = mapping::AlignTarget::axis(0);
    owner.template_extent = n;
    owner.format = DistFormat::block(n / 8);
    return mapping::ConcreteLayout::make(Shape{n}, Shape{8}, {owner});
  };
  constexpr Extent kBlocks = 8 * 1024;
  EXPECT_FALSE(eligible(block(kBlocks), cyclic_on(kBlocks, 1, 8)));
  EXPECT_TRUE(eligible(cyclic_on(kBlocks, 1, 8), block(kBlocks)));
}

// A cached round outlives its storage: between two runs the machine may
// free a version and allocate it again elsewhere. Every run patches the
// storage's current base pointers into the stencil, so the second run
// reads the new sources and writes the new destinations. The old
// buffers stay alive here, so a stencil that kept the first run's
// pointers would read stale values and leave the new destinations
// holding their sentinel.
TEST(RoundStencil, PatchesStoragePointersAtEveryRun) {
  for (const exec::BackendKind kind :
       {exec::BackendKind::Seq, exec::BackendKind::Thread}) {
    const auto backend = exec::make_backend(kind, 8, 3);
    SCOPED_TRACE(backend->name());
    std::vector<StencilMember> members;
    members.push_back(stencil_member(cyclic_on(48 * 40 + 5, 2, 8),
                                     cyclic_on(48 * 40 + 5, 3, 8), 0.0));
    runtime::FusedRound round = stencil_round(members);
    ASSERT_TRUE(round.has_stencil());
    fill_sentinel(members);
    round.run(*backend);

    // Free and reallocate both versions: new buffers, new source values.
    StencilMember& m = members[0];
    const runtime::RankLocals old_src = std::exchange(
        m.src, stencil_member(m.from, m.to, 5e5).src);
    runtime::RankLocals fresh_dst;
    for (const auto& local : m.dst)
      fresh_dst.emplace_back(local.size(),
                             std::numeric_limits<double>::quiet_NaN());
    const runtime::RankLocals old_dst =
        std::exchange(m.dst, std::move(fresh_dst));
    const std::vector<std::uint64_t> first = dst_bits(members);
    round.run(*backend);

    std::vector<StencilMember> expected;
    expected.push_back(stencil_member(m.from, m.to, 5e5));
    runtime::FusedRound reference = stencil_round(expected);
    fill_sentinel(expected);
    reference.pull(*backend, 1);
    EXPECT_EQ(dst_bits(members), dst_bits(expected));
    EXPECT_NE(dst_bits(members), first);
    (void)old_src;
    (void)old_dst;
  }
}

}  // namespace
}  // namespace hpfc
