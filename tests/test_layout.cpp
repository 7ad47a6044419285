// Ownership math of ConcreteLayout: owner functions, local enumeration,
// canonicalization equality, and the partition property (every element
// owned exactly once modulo replication) swept over distribution formats.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "mapping/layout.hpp"
#include "mapping/mapping.hpp"
#include "testing/oracles.hpp"

namespace hpfc::mapping {
namespace {

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt,
                       Extent stride = 1, Extent offset = 0) {
  // Template extent chosen to fit the affine image.
  const Extent span = stride >= 0 ? stride * (n - 1) + offset
                                  : offset;  // stride<0: max at i=0
  const Extent m = span + 1;
  DimOwner owner;
  owner.source = AlignTarget::axis(0, stride, offset);
  owner.template_extent = m;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(m, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

TEST(Layout, BlockOwnership) {
  const auto lay = one_dim(16, 4, DistFormat::block());
  // ceil(16/4) = 4: rank r owns [4r, 4r+4).
  for (int r = 0; r < 4; ++r) {
    const auto lists = testing::owned_index_lists(lay, r);
    ASSERT_EQ(lists.size(), 1u);
    ASSERT_EQ(lists[0].size(), 4u);
    EXPECT_EQ(lists[0].front(), 4 * r);
    EXPECT_EQ(lists[0].back(), 4 * r + 3);
  }
}

TEST(Layout, CyclicOwnership) {
  const auto lay = one_dim(12, 3, DistFormat::cyclic());
  for (Index i = 0; i < 12; ++i) {
    const IndexVec idx{i};
    EXPECT_EQ(testing::primary_owner(lay, idx), static_cast<int>(i % 3));
  }
}

TEST(Layout, BlockCyclicOwnership) {
  const auto lay = one_dim(20, 2, DistFormat::cyclic(3));
  for (Index i = 0; i < 20; ++i) {
    const IndexVec idx{i};
    EXPECT_EQ(testing::primary_owner(lay, idx), static_cast<int>((i / 3) % 2));
  }
}

TEST(Layout, StridedAlignmentShiftsOwnership) {
  // t = 2*i + 1 over cyclic(1) on 2 procs: owner = (2i+1) % 2 = 1 always.
  const auto lay = one_dim(8, 2, DistFormat::cyclic(), 2, 1);
  for (Index i = 0; i < 8; ++i) {
    const IndexVec idx{i};
    EXPECT_EQ(testing::primary_owner(lay, idx), 1);
  }
  EXPECT_EQ(lay.local_count(0), 0);
  EXPECT_EQ(lay.local_count(1), 8);
}

TEST(Layout, ReversedAlignment) {
  // t = -i + 7 over block(2) on 4 procs of an 8-template.
  const auto lay = one_dim(8, 4, DistFormat::block(2), -1, 7);
  for (Index i = 0; i < 8; ++i) {
    const IndexVec idx{i};
    EXPECT_EQ(testing::primary_owner(lay, idx), static_cast<int>((7 - i) / 2));
  }
}

TEST(Layout, SerialLayoutOwnsEverythingOnRankZero) {
  const auto lay = ConcreteLayout::serial(Shape{5, 3});
  EXPECT_EQ(lay.ranks(), 1);
  EXPECT_EQ(lay.local_count(0), 15);
}

TEST(Layout, ReplicatedLayoutHasMultipleOwners) {
  DimOwner owner;
  owner.source = AlignTarget::replicated();
  owner.template_extent = 4;
  owner.format = DistFormat::block(1);
  const auto lay = ConcreteLayout::make(Shape{6}, Shape{4}, {owner});
  EXPECT_TRUE(lay.replicated());
  const IndexVec idx{2};
  EXPECT_EQ(testing::owners_of(lay, idx).size(), 4u);
  EXPECT_EQ(testing::primary_owner(lay, idx), 0);
  // But for sending, only rank 0 owns.
  for (int r = 1; r < 4; ++r) {
    const auto lists = testing::owned_index_lists(lay, r, /*for_sending=*/true);
    EXPECT_TRUE(lists[0].empty());
  }
}

TEST(Layout, ConstantAlignmentPinsOneCoordinate) {
  // A 1-D array pinned at template row 5, rows block(2) over 4 procs:
  // owner coordinate = 5/2 = 2.
  DimOwner rows;
  rows.source = AlignTarget::constant(5);
  rows.template_extent = 8;
  rows.format = DistFormat::block(2);
  DimOwner cols;
  cols.source = AlignTarget::axis(0);
  cols.template_extent = 6;
  cols.format = DistFormat::block(3);
  const auto lay = ConcreteLayout::make(Shape{6}, Shape{4, 2}, {rows, cols});
  const IndexVec idx{4};
  // coords = (2, 4/3=1) -> rank 2*2+1 = 5.
  EXPECT_EQ(testing::primary_owner(lay, idx), 5);
  EXPECT_EQ(testing::owners_of(lay, idx).size(), 1u);
}

// ---- canonicalization / equality -------------------------------------

TEST(LayoutEquality, CyclicCoveringOnceEqualsBlock) {
  // cyclic(4) over 4 procs of a 16-template wraps exactly once = block(4).
  const auto a = one_dim(16, 4, DistFormat::cyclic(4));
  const auto b = one_dim(16, 4, DistFormat::block(4));
  EXPECT_EQ(a, b);
}

TEST(LayoutEquality, OversizedBlockCanonicalized) {
  const auto a = one_dim(10, 2, DistFormat::block(10));
  const auto b = one_dim(10, 2, DistFormat::block(64));
  EXPECT_EQ(a, b);
}

TEST(LayoutEquality, DifferentBlockSizesDiffer) {
  const auto a = one_dim(16, 4, DistFormat::block(4));
  const auto b = one_dim(16, 4, DistFormat::block(5));
  EXPECT_NE(a, b);
}

TEST(LayoutEquality, SingleProcDimConstraintIsDropped) {
  const auto a = one_dim(8, 1, DistFormat::block());
  const auto b = one_dim(8, 1, DistFormat::cyclic(3));
  EXPECT_EQ(a, b);
}

// ---- property sweep: partition + local position round-trip -----------

struct SweepParam {
  Extent n;
  Extent procs;
  DistFormat fmt;
  Extent stride;
  Extent offset;
};

class LayoutSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LayoutSweep, EveryElementOwnedExactlyOnce) {
  const auto& p = GetParam();
  const auto lay = one_dim(p.n, p.procs, p.fmt, p.stride, p.offset);
  std::vector<int> owners(static_cast<std::size_t>(p.n), 0);
  for (int r = 0; r < lay.ranks(); ++r) {
    testing::for_each_owned(
        lay, r, [&](std::span<const Index> global, Index) {
          owners[static_cast<std::size_t>(global[0])]++;
        });
  }
  for (Index i = 0; i < p.n; ++i)
    EXPECT_EQ(owners[static_cast<std::size_t>(i)], 1) << "element " << i;
}

TEST_P(LayoutSweep, LocalPositionMatchesEnumeration) {
  const auto& p = GetParam();
  const auto lay = one_dim(p.n, p.procs, p.fmt, p.stride, p.offset);
  for (int r = 0; r < lay.ranks(); ++r) {
    testing::for_each_owned(
        lay, r, [&](std::span<const Index> global, Index local) {
          EXPECT_EQ(testing::local_position(lay, r, global), local);
        });
  }
}

TEST_P(LayoutSweep, LocalCountsSumToTotal) {
  const auto& p = GetParam();
  const auto lay = one_dim(p.n, p.procs, p.fmt, p.stride, p.offset);
  Extent total = 0;
  for (int r = 0; r < lay.ranks(); ++r) total += lay.local_count(r);
  EXPECT_EQ(total, p.n);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, LayoutSweep,
    ::testing::Values(
        SweepParam{16, 4, DistFormat::block(), 1, 0},
        SweepParam{17, 4, DistFormat::block(), 1, 0},
        SweepParam{16, 4, DistFormat::cyclic(), 1, 0},
        SweepParam{23, 5, DistFormat::cyclic(2), 1, 0},
        SweepParam{30, 4, DistFormat::cyclic(3), 1, 0},
        SweepParam{16, 3, DistFormat::block(6), 1, 0},
        SweepParam{12, 4, DistFormat::cyclic(), 2, 1},
        SweepParam{12, 4, DistFormat::cyclic(5), 3, 2},
        SweepParam{10, 2, DistFormat::block(), -1, 9},
        SweepParam{21, 7, DistFormat::cyclic(2), -2, 40},
        SweepParam{1, 4, DistFormat::cyclic(), 1, 0},
        SweepParam{64, 64, DistFormat::block(), 1, 0},
        SweepParam{64, 64, DistFormat::cyclic(), 1, 0}));

TEST(Layout2D, TransposedAlignment) {
  // A(i,j) aligned with T(j,i), T distributed (block, block) on 2x2.
  DimOwner d0;  // template dim 0 <- array dim 1
  d0.source = AlignTarget::axis(1);
  d0.template_extent = 8;
  d0.format = DistFormat::block(4);
  DimOwner d1;  // template dim 1 <- array dim 0
  d1.source = AlignTarget::axis(0);
  d1.template_extent = 8;
  d1.format = DistFormat::block(4);
  const auto lay =
      ConcreteLayout::make(Shape{8, 8}, Shape{2, 2}, {d0, d1});
  // Element (i,j) lives at grid (j/4, i/4).
  const IndexVec idx{6, 1};
  EXPECT_EQ(testing::primary_owner(lay, idx), 0 * 2 + 1);  // coords (0, 1)
  Extent total = 0;
  for (int r = 0; r < 4; ++r) total += lay.local_count(r);
  EXPECT_EQ(total, 64);
}

}  // namespace
}  // namespace hpfc::mapping
