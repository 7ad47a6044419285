// Interval runs: the closed-form ownership/communication representation
// must agree exactly — same element sets, same pack order — with the
// materialized oracles at every layer: IndexRuns vs brute-force sets,
// owned_index_runs vs owned_index_lists, build_runs vs build(), the
// compiled segment programs vs a per-element position walk, and the
// periodic ownership/segment programs vs the flat window walks of
// testing/oracles.hpp, stretch for stretch and segment for segment.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "mapping/runs.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

using mapping::ConcreteLayout;
using mapping::Extent;
using mapping::Index;
using mapping::IndexRun;
using mapping::IndexRuns;
using mapping::Shape;
using testing::random_layout;
using testing::stretches_of;

TEST(IndexRuns, IntervalBasics) {
  const auto r = IndexRuns::interval(3, 9);
  EXPECT_EQ(r.count(), 6);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.materialize(), (std::vector<Index>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r.position_of(5), 2);
  EXPECT_EQ(r.position_of(9), -1);
  EXPECT_TRUE(IndexRuns::interval(4, 4).empty());
}

TEST(IndexRuns, PeriodicClosedForms) {
  // {2,3} mod 6 within [0, 20): members 2,3,8,9,14,15.
  const IndexRuns r(0, 6, {IndexRun{2, 1, 2}}, 20);
  EXPECT_EQ(r.count(), 6);
  EXPECT_EQ(r.materialize(), (std::vector<Index>{2, 3, 8, 9, 14, 15}));
  EXPECT_EQ(r.count_in_period(), 2);
  EXPECT_FALSE(r.full());
  for (Index i = 0; i < 20; ++i) {
    const auto members = r.materialize();
    const auto it = std::find(members.begin(), members.end(), i);
    if (it == members.end()) {
      EXPECT_EQ(r.position_of(i), -1) << i;
    } else {
      EXPECT_EQ(r.position_of(i), it - members.begin()) << i;
    }
    EXPECT_EQ(r.count_below(i),
              static_cast<Extent>(
                  std::count_if(members.begin(), members.end(),
                                [&](Index m) { return m < i; })))
        << i;
  }
}

TEST(IndexRuns, StridedRunEnumeration) {
  // A strided run {1, +3 x 3} mod 10 anchored at base 5, span 25.
  const IndexRuns r(5, 10, {IndexRun{1, 3, 3}}, 25);
  EXPECT_EQ(r.materialize(),
            (std::vector<Index>{6, 9, 12, 16, 19, 22, 26, 29}));
  EXPECT_EQ(r.count(), 8);
  EXPECT_EQ(r.position_of(16), 3);
}

IndexRuns random_pattern(std::mt19937& rng, Extent span) {
  const auto pick = [&rng](int n) {
    return static_cast<Extent>(rng() % static_cast<unsigned>(n));
  };
  const Extent period = 1 + pick(12);
  std::vector<Index> offsets;
  for (Index o = 0; o < period; ++o)
    if (rng() % 3 == 0) offsets.push_back(o);
  if (offsets.empty()) offsets.push_back(pick(static_cast<int>(period)));
  const IndexRuns in_period =
      IndexRuns::from_sorted(0, offsets, period);
  const Index base = pick(5);
  return IndexRuns(base, period, in_period.runs(), span - base);
}

/// Whether members a then b, in that order, form one arithmetic
/// progression (all steps equal).
bool one_progression(Index a_base, Extent a_stride, Extent a_len,
                     Index b_base, Extent b_stride, Extent b_len) {
  std::vector<Index> members;
  for (Extent j = 0; j < a_len; ++j) members.push_back(a_base + j * a_stride);
  for (Extent j = 0; j < b_len; ++j) members.push_back(b_base + j * b_stride);
  for (std::size_t i = 2; i < members.size(); ++i)
    if (members[i] - members[i - 1] != members[1] - members[0]) return false;
  return true;
}

TEST(IndexRuns, StretchesAreMaximalProgressionsOfTheMembers) {
  std::mt19937 rng(11);
  std::vector<IndexRuns> cases = {
      IndexRuns(0, 8, {IndexRun{3, 1, 1}}, 64),   // CYCLIC(1)
      IndexRuns(0, 8, {IndexRun{2, 1, 2}}, 64),   // CYCLIC(2)
      IndexRuns(5, 10, {IndexRun{1, 3, 3}}, 25),  // strided windows
      IndexRuns(0, 6, {IndexRun{0, 2, 3}}, 20),   // one long step-2 run
      IndexRuns(0, 6, {IndexRun{1, 1, 1}, IndexRun{4, 1, 1}}, 30),
      IndexRuns(2, 4, {IndexRun{1, 1, 1}}, 3),  // a single member
      IndexRuns::interval(3, 9)};
  for (int trial = 0; trial < 300; ++trial)
    cases.push_back(random_pattern(rng, 20 + static_cast<Extent>(rng() % 40)));
  for (const IndexRuns& r : cases) {
    const auto stretches = stretches_of(r);
    std::vector<Index> members;
    for (std::size_t i = 0; i < stretches.size(); ++i) {
      const IndexRun& s = stretches[i];
      EXPECT_GE(s.stride, 1) << r.to_string();
      EXPECT_GE(s.count, 1) << r.to_string();
      for (Extent j = 0; j < s.count; ++j)
        members.push_back(s.offset + j * s.stride);
      if (i > 0) {
        const IndexRun& p = stretches[i - 1];
        EXPECT_FALSE(one_progression(p.offset, p.stride, p.count, s.offset,
                                     s.stride, s.count))
            << r.to_string() << " stretch " << i;
      }
    }
    EXPECT_EQ(members, r.materialize()) << r.to_string();
  }
  // A CYCLIC(1) pattern is one progression, found without walking every
  // window.
  EXPECT_EQ(stretches_of(IndexRuns(0, 8, {IndexRun{3, 1, 1}}, 1 << 20)),
            (std::vector<IndexRun>{{3, 8, 1 << 17}}));
}

TEST(IndexRuns, IntersectMatchesBruteForce) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const Extent span = 30 + static_cast<Extent>(rng() % 40);
    const IndexRuns a = random_pattern(rng, span);
    const IndexRuns b = random_pattern(rng, span);
    const IndexRuns both = IndexRuns::intersect(a, b);

    const auto ma = a.materialize();
    const auto mb = b.materialize();
    std::vector<Index> expected;
    std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(both.materialize(), expected)
        << "a=" << a.to_string() << " b=" << b.to_string();
    EXPECT_EQ(both.count(), static_cast<Extent>(expected.size()));
  }
}

TEST(IndexRuns, RestrictMatchesBruteForce) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Extent span = 30 + static_cast<Extent>(rng() % 40);
    const IndexRuns a = random_pattern(rng, span);
    const Index lo = static_cast<Index>(rng() % 30);
    const Index hi = lo + static_cast<Index>(rng() % 40);
    const IndexRuns cut = a.restrict_to(lo, hi);
    std::vector<Index> expected;
    for (const Index i : a.materialize())
      if (i >= lo && i < hi) expected.push_back(i);
    EXPECT_EQ(cut.materialize(), expected) << a.to_string();
  }
}

// ---- layout-level equivalence -----------------------------------------

void expect_layout_runs_match(const ConcreteLayout& lay) {
  for (int r = 0; r < lay.ranks(); ++r) {
    for (const bool sending : {false, true}) {
      const auto lists = testing::owned_index_lists(lay, r, sending);
      const auto runs = lay.owned_index_runs(r, sending);
      ASSERT_EQ(lists.size(), runs.size());
      for (std::size_t d = 0; d < lists.size(); ++d)
        EXPECT_EQ(runs[d].materialize(), lists[d])
            << lay.to_string() << " rank " << r << " dim " << d
            << " sending=" << sending << " runs=" << runs[d].to_string();
    }
    Extent product = 1;
    for (const auto& runs : lay.owned_index_runs(r)) product *= runs.count();
    if (lay.array_shape().rank() > 0) {
      EXPECT_EQ(lay.local_count(r), product);
    }
  }
}

TEST(LayoutRuns, RandomLayoutsMatchListsAcrossMachineSizes) {
  std::mt19937 rng(1);
  const Shape shapes[] = {Shape{17}, Shape{24}, Shape{33}, Shape{12, 10}};
  for (int trial = 0; trial < 150; ++trial) {
    const Shape& shape = shapes[trial % 4];
    // random_layout draws grid sizes in [1, 8]: the sweep covers P=1..8.
    expect_layout_runs_match(random_layout(rng, shape));
  }
}

TEST(LayoutRuns, OwnedProgramTilesForEachOwnedExactly) {
  // The expanded ownership program must visit the identical (local,
  // global linear) pairs as the per-element visitor, in the identical
  // order, with stretches tiling the local index space exactly.
  std::mt19937 rng(31);
  const Shape shapes[] = {Shape{17}, Shape{24}, Shape{12, 10}, Shape{7, 9}};
  for (int trial = 0; trial < 120; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout lay = random_layout(rng, shape);
    for (int r = 0; r < lay.ranks(); ++r) {
      std::vector<std::pair<Index, Index>> expected;
      testing::for_each_owned(
          lay, r, [&](std::span<const Index> global, Index pos) {
            expected.emplace_back(pos, shape.linearize(global));
          });
      std::vector<std::pair<Index, Index>> got;
      std::vector<mapping::OwnedRun> runs;
      Index next_local = 0;
      lay.owned_program(r).for_each_stretch([&](const mapping::OwnedRun& run) {
        EXPECT_EQ(run.local_base, next_local) << lay.to_string();
        EXPECT_GE(run.len, 1);
        next_local += run.len;
        runs.push_back(run);
        for (Extent j = 0; j < run.len; ++j)
          got.emplace_back(run.local_base + j,
                           run.global_base + j * run.global_stride);
      });
      EXPECT_EQ(got, expected) << lay.to_string() << " rank " << r;
      EXPECT_EQ(next_local, lay.local_count(r)) << lay.to_string();

      // Row confinement: every member shares the outer coordinates of
      // global_base. Maximality: within one outer row, no two consecutive
      // stretches together form one progression.
      const auto outer_of = [&](Index linear) {
        auto coord = shape.delinearize(linear);
        coord.pop_back();
        return coord;
      };
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const mapping::OwnedRun& run = runs[i];
        const auto row = outer_of(run.global_base);
        for (Extent j = 1; j < run.len; ++j)
          EXPECT_EQ(outer_of(run.global_base + j * run.global_stride), row)
              << lay.to_string() << " rank " << r << " stretch " << i;
        if (i == 0 || outer_of(runs[i - 1].global_base) != row) continue;
        const mapping::OwnedRun& prev = runs[i - 1];
        EXPECT_FALSE(one_progression(prev.global_base, prev.global_stride,
                                     prev.len, run.global_base,
                                     run.global_stride, run.len))
            << lay.to_string() << " rank " << r << " stretch " << i;
      }
    }
  }
}

std::vector<mapping::OwnedRun> owned_runs(const ConcreteLayout& lay, int r) {
  return testing::expand(lay.owned_program(r));
}

mapping::DimOwner cyclic_owner(int array_dim, Extent k, Extent extent) {
  return {mapping::AlignTarget::axis(array_dim), mapping::DistFormat::cyclic(k),
          extent};
}

TEST(LayoutRuns, CyclicOneRankIsOneStretch) {
  const Extent n = 1048576;
  const auto lay =
      ConcreteLayout::make(Shape{n}, Shape{8}, {cyclic_owner(0, 1, n)});
  for (int r = 0; r < 8; ++r)
    EXPECT_EQ(owned_runs(lay, r),
              (std::vector<mapping::OwnedRun>{{0, r, 8, n / 8}}))
        << "rank " << r;
}

TEST(LayoutRuns, StarCyclicGivesOneStretchPerRow) {
  // (12, 10) as (*, CYCLIC) on 4: ranks 0-1 own 3 columns, ranks 2-3 own 2.
  const auto lay =
      ConcreteLayout::make(Shape{12, 10}, Shape{4}, {cyclic_owner(1, 1, 10)});
  for (int r = 0; r < 4; ++r) {
    const Extent cols = r < 2 ? 3 : 2;
    std::vector<mapping::OwnedRun> expected;
    for (Index row = 0; row < 12; ++row)
      expected.push_back({row * cols, row * 10 + r, 4, cols});
    EXPECT_EQ(owned_runs(lay, r), expected) << "rank " << r;
  }
}

TEST(LayoutRuns, CyclicTwoIsOneBlockOfOneStretchPerWindow) {
  // CYCLIC(2) on 4: the pairs {8w + 2r, 8w + 2r + 1} sit 7 apart, so no
  // two windows continue one progression. The expansion keeps one stretch
  // per window; the program stores one stretch repeated 8 times.
  const auto lay =
      ConcreteLayout::make(Shape{64}, Shape{4}, {cyclic_owner(0, 2, 64)});
  for (int r = 0; r < 4; ++r) {
    std::vector<mapping::OwnedRun> expected;
    for (Index w = 0; w < 8; ++w)
      expected.push_back({2 * w, 8 * w + 2 * r, 1, 2});
    EXPECT_EQ(owned_runs(lay, r), expected) << "rank " << r;
    const mapping::OwnedProgram program = lay.owned_program(r);
    EXPECT_EQ(program.body,
              (std::vector<mapping::OwnedRun>{{0, 2 * r, 1, 2}}));
    EXPECT_EQ(program.blocks,
              (std::vector<mapping::SegmentBlock>{{0, 1, 8, 2, 8}}));
  }
}

// ---- periodic programs vs the flat window walks --------------------------

TEST(PeriodicOwnership, ExpansionMatchesTheWindowWalkOnRandomLayouts) {
  // Extents well past the owners' periods, so rows span many windows and
  // end in clipped ones.
  std::mt19937 rng(77);
  const Shape shapes[] = {Shape{17},     Shape{24},    Shape{257},
                          Shape{1000},   Shape{12, 10}, Shape{7, 90}};
  int repeated = 0;   // programs with a reps > 1 block
  int multi_body = 0;  // ... whose repeated body holds several stretches
  for (int trial = 0; trial < 600; ++trial) {
    const Shape& shape = shapes[trial % 6];
    const ConcreteLayout lay = random_layout(rng, shape);
    for (int r = 0; r < lay.ranks(); ++r) {
      const mapping::OwnedProgram program = lay.owned_program(r);
      const auto flat = testing::owned_stretches(lay, r);
      EXPECT_EQ(testing::expand(program), flat)
          << lay.to_string() << " rank " << r;
      EXPECT_EQ(program.stretch_count(), flat.size()) << lay.to_string();
      bool rep = false;
      bool multi = false;
      for (const auto& b : program.blocks) {
        rep = rep || b.reps > 1;
        multi = multi || (b.reps > 1 && b.count > 1);
      }
      repeated += rep ? 1 : 0;
      multi_body += multi ? 1 : 0;
    }
  }
  // The corpus reaches both block shapes.
  EXPECT_GT(repeated, 100);
  EXPECT_GT(multi_body, 5);
}

/// Repeated (reps > 1) blocks seen by expect_segments_match_flat, and
/// those among them whose body holds several segments.
int g_repeated_blocks = 0;
int g_multi_body_blocks = 0;

/// Asserts that each transfer's periodic program expands to the flat
/// reference, segment for segment.
void expect_segments_match_flat(const ConcreteLayout& from,
                                const ConcreteLayout& to,
                                const std::vector<redist::TransferV2>& ts,
                                const std::string& what) {
  for (const auto& t : ts) {
    const auto src = from.owned_index_runs(t.src);
    const auto dst = to.owned_index_runs(t.dst);
    const redist::SegmentProgram program =
        redist::compile_transfer(t, src, dst);
    const auto flat = testing::flat_segments(t, src, dst);
    for (const auto& b : program.blocks) {
      g_repeated_blocks += b.reps > 1 ? 1 : 0;
      g_multi_body_blocks += b.reps > 1 && b.count > 1 ? 1 : 0;
    }
    ASSERT_EQ(testing::expand(program), flat)
        << what << " transfer " << t.src << "->" << t.dst;
    EXPECT_EQ(program.segment_count(), flat.size()) << what;
    Extent elements = 0;
    for (const auto& seg : flat) elements += seg.len;
    EXPECT_EQ(program.elements, elements) << what;
  }
}

TEST(PeriodicSegments, ExpansionMatchesFlatReferenceOnRandomLayouts) {
  std::mt19937 rng(515);
  const Shape shapes[] = {Shape{16},   Shape{23},   Shape{257},
                          Shape{1000}, Shape{9, 14}, Shape{6, 70}};
  for (int trial = 0; trial < 180; ++trial) {
    const Shape& shape = shapes[trial % 6];
    const ConcreteLayout from = random_layout(rng, shape);
    const ConcreteLayout to = random_layout(rng, shape);
    const std::string what = from.to_string() + " -> " + to.to_string();
    const redist::RedistPlanV2 plan = redist::build_runs(from, to);
    expect_segments_match_flat(from, to, plan.transfers, what);

    // The same pair restricted to a random live region.
    std::vector<std::pair<Index, Index>> region;
    for (int d = 0; d < shape.rank(); ++d) {
      const Extent n = shape.extent(d);
      const Index lo = static_cast<Index>(rng() % static_cast<unsigned>(n));
      const Index hi =
          lo + 1 + static_cast<Index>(rng() % static_cast<unsigned>(n - lo));
      region.emplace_back(lo, hi);
    }
    std::vector<redist::TransferV2> kept;
    for (auto t : plan.transfers)
      if (t.restrict_to(region)) kept.push_back(std::move(t));
    expect_segments_match_flat(from, to, kept, what + " [region]");
  }
  // The corpus reaches both block shapes.
  EXPECT_GT(g_repeated_blocks, 200);
  EXPECT_GT(g_multi_body_blocks, 30);
}

TEST(PeriodicSegments, CyclicTwoToThreeMatchesFlatAtUnevenExtents) {
  // cyclic(2) <-> cyclic(3) on 8: the lcm window is 48 elements, and
  // 262,147 is not a multiple of it, so every row ends in a clipped
  // window.
  for (const Extent n : {Extent{262144}, Extent{262147}}) {
    const auto c2 =
        ConcreteLayout::make(Shape{n}, Shape{8}, {cyclic_owner(0, 2, n)});
    const auto c3 =
        ConcreteLayout::make(Shape{n}, Shape{8}, {cyclic_owner(0, 3, n)});
    for (const auto& [from, to] : {std::pair{c2, c3}, std::pair{c3, c2}}) {
      const redist::RedistPlanV2 plan = redist::build_runs(from, to);
      expect_segments_match_flat(from, to, plan.transfers,
                                 "n=" + std::to_string(n));
      // O(pattern): each program's body table stays a few windows' worth.
      for (const auto& t : plan.transfers) {
        const auto program = redist::compile_transfer(
            t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
        EXPECT_LE(program.segments.size(), 16u) << "n=" << n;
      }
    }
  }
}

// ---- plan-level equivalence -------------------------------------------

void expect_plans_identical(const testing::RedistPlan& oracle,
                            const testing::RedistPlan& fast,
                            const std::string& what) {
  ASSERT_EQ(oracle.transfers.size(), fast.transfers.size()) << what;
  for (std::size_t i = 0; i < oracle.transfers.size(); ++i) {
    EXPECT_EQ(oracle.transfers[i].src, fast.transfers[i].src) << what;
    EXPECT_EQ(oracle.transfers[i].dst, fast.transfers[i].dst) << what;
    // Identical per-dimension index lists == identical element sets in
    // identical row-major pack order.
    EXPECT_EQ(oracle.transfers[i].dim_indices, fast.transfers[i].dim_indices)
        << what << " transfer " << i;
  }
}

/// Per-element oracle for one compiled transfer: enumerate the product of
/// dim_indices in pack order and resolve local positions through the
/// sorted-list API.
std::vector<std::pair<Index, Index>> oracle_locals(
    const testing::Transfer& t, const ConcreteLayout& from,
    const ConcreteLayout& to) {
  const auto src_lists = testing::owned_index_lists(from, t.src);
  const auto dst_lists = testing::owned_index_lists(to, t.dst);
  std::vector<std::pair<Index, Index>> locals;
  const int dims = static_cast<int>(t.dim_indices.size());
  std::vector<std::size_t> pos(static_cast<std::size_t>(dims), 0);
  mapping::IndexVec global(static_cast<std::size_t>(dims), 0);
  const Extent count = t.count();
  for (Extent e = 0; e < count; ++e) {
    for (int d = 0; d < dims; ++d)
      global[static_cast<std::size_t>(d)] =
          t.dim_indices[static_cast<std::size_t>(d)]
                       [pos[static_cast<std::size_t>(d)]];
    locals.emplace_back(
        testing::position_in_lists(src_lists, global),
        testing::position_in_lists(dst_lists, global));
    for (int d = dims - 1; d >= 0; --d) {
      auto& p = pos[static_cast<std::size_t>(d)];
      if (++p < t.dim_indices[static_cast<std::size_t>(d)].size()) break;
      p = 0;
    }
  }
  return locals;
}

std::vector<std::pair<Index, Index>> segment_locals(
    const redist::SegmentProgram& program) {
  std::vector<std::pair<Index, Index>> locals;
  program.for_each_segment([&](const redist::CopySegment& seg) {
    for (Extent j = 0; j < seg.len; ++j)
      locals.emplace_back(seg.src_base + j * seg.src_stride,
                          seg.dst_base + j * seg.dst_stride);
  });
  return locals;
}

TEST(PlanRuns, RandomLayoutPairsAgreeWithOracleIncludingSegments) {
  std::mt19937 rng(99);
  const Shape shapes[] = {Shape{16}, Shape{23}, Shape{40}, Shape{9, 14}};
  for (int trial = 0; trial < 80; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout from = random_layout(rng, shape);
    const ConcreteLayout to = random_layout(rng, shape);
    const std::string what = from.to_string() + " -> " + to.to_string();

    const testing::RedistPlan oracle = testing::build(from, to);
    const redist::RedistPlanV2 v2 = redist::build_runs(from, to);
    expect_plans_identical(oracle, testing::materialize(v2), what + " [runs]");

    // Segment programs replay the oracle's exact (src, dst) local pairs in
    // the exact payload order.
    for (std::size_t i = 0; i < v2.transfers.size(); ++i) {
      const auto& t = v2.transfers[i];
      const auto program = redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
      EXPECT_EQ(segment_locals(program),
                oracle_locals(oracle.transfers[i], from, to))
          << what << " transfer " << i;
      EXPECT_EQ(program.elements, t.count());
    }
  }
}

TEST(PlanRuns, RegionRestrictionMatchesFilteredOracle) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const Shape shape{30};
    const ConcreteLayout from = random_layout(rng, shape);
    const ConcreteLayout to = random_layout(rng, shape);
    const Index lo = static_cast<Index>(rng() % 20);
    const Index hi = lo + 1 + static_cast<Index>(rng() % 10);
    const std::vector<std::pair<Index, Index>> region = {{lo, hi}};

    redist::RedistPlanV2 v2 = redist::build_runs(from, to);
    std::vector<redist::TransferV2> kept;
    for (auto& t : v2.transfers)
      if (t.restrict_to(region)) kept.push_back(std::move(t));

    // Filter the oracle the way the runtime used to: erase out-of-region
    // indices, drop empty transfers.
    testing::RedistPlan oracle = testing::build(from, to);
    std::vector<testing::Transfer> expected;
    for (auto& t : oracle.transfers) {
      std::erase_if(t.dim_indices[0],
                    [&](Index i) { return i < lo || i >= hi; });
      if (!t.dim_indices[0].empty()) expected.push_back(std::move(t));
    }
    ASSERT_EQ(kept.size(), expected.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].src, expected[i].src);
      EXPECT_EQ(kept[i].dst, expected[i].dst);
      ASSERT_EQ(kept[i].dim_runs.size(), 1u);
      EXPECT_EQ(kept[i].dim_runs[0].materialize(), expected[i].dim_indices[0]);
      const auto program = redist::compile_transfer(
          kept[i], from.owned_index_runs(kept[i].src),
          to.owned_index_runs(kept[i].dst));
      EXPECT_EQ(segment_locals(program),
                oracle_locals(expected[i], from, to));
    }
  }
}

TEST(PlanRuns, PackUnpackRoundTripsThroughPayload) {
  std::mt19937 rng(5);
  const Shape shape{48};
  const ConcreteLayout from = random_layout(rng, shape);
  const ConcreteLayout to = random_layout(rng, shape);
  const redist::RedistPlanV2 v2 = redist::build_runs(from, to);
  for (const auto& t : v2.transfers) {
    const auto program = redist::compile_transfer(
        t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
    std::vector<double> src_local(
        static_cast<std::size_t>(from.local_count(t.src)));
    for (std::size_t i = 0; i < src_local.size(); ++i)
      src_local[i] = static_cast<double>(i + 1);
    std::vector<double> payload;
    testing::pack(program, src_local, payload);
    ASSERT_EQ(payload.size(), static_cast<std::size_t>(program.elements));
    std::vector<double> dst_local(
        static_cast<std::size_t>(to.local_count(t.dst)), 0.0);
    testing::unpack(program, payload, dst_local);
    // Every packed element must land where the oracle says it lands.
    const auto pairs = segment_locals(program);
    for (const auto& [src_pos, dst_pos] : pairs)
      EXPECT_EQ(dst_local[static_cast<std::size_t>(dst_pos)],
                src_local[static_cast<std::size_t>(src_pos)]);
  }
}

}  // namespace
}  // namespace hpfc
