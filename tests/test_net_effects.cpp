// The reference router's delivery, the superstep accounting of a traffic
// table, and the use-qualifier lattice of §3.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "ir/effects.hpp"
#include "net/network.hpp"
#include "support/check.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

using testing::route_superstep;

TEST(RouteSuperstep, DeliversMessagesToDestinations) {
  std::vector<std::vector<net::Message>> out(4);
  out[0].push_back({0, 3, 7, {1.0, 2.0}});
  out[2].push_back({2, 0, 1, {5.0}});
  const auto in = route_superstep(std::move(out), 4);
  ASSERT_EQ(in[3].size(), 1u);
  EXPECT_EQ(in[3][0].payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(in[3][0].tag, 7);
  ASSERT_EQ(in[0].size(), 1u);
  EXPECT_EQ(in[0][0].src, 2);
  EXPECT_TRUE(in[1].empty());
}

TEST(RouteSuperstep, DeterministicReceiveOrder) {
  std::vector<std::vector<net::Message>> out(3);
  out[2].push_back({2, 0, 20, {1.0}});
  out[1].push_back({1, 0, 10, {1.0}});
  out[1].push_back({1, 0, 11, {1.0}});
  const auto in = route_superstep(std::move(out), 3);
  ASSERT_EQ(in[0].size(), 3u);
  EXPECT_EQ(in[0][0].tag, 10);  // by source rank, then emission order
  EXPECT_EQ(in[0][1].tag, 11);
  EXPECT_EQ(in[0][2].tag, 20);
}

TEST(RouteSuperstep, RejectsMismatchedSource) {
  std::vector<std::vector<net::Message>> out(2);
  out[0].push_back({1, 0, 0, {}});
  EXPECT_THROW(route_superstep(std::move(out), 2), InternalError);
}

TEST(AccountFlows, CountsRemoteAndLocalSeparately) {
  // One 3-element remote message, one 1-element local copy.
  const std::vector<net::Flow> flows = {{0, 1, 3 * sizeof(double), 2},
                                        {1, 1, sizeof(double), 1}};
  net::NetStats stats;
  net::account_flows(stats, {}, 2, flows);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 3 * sizeof(double));
  EXPECT_EQ(stats.local_copies, 1u);
  EXPECT_EQ(stats.local_bytes, sizeof(double));
  EXPECT_EQ(stats.segments, 3u);
  EXPECT_EQ(stats.supersteps, 1u);
}

TEST(AccountFlows, ClockChargesBusiestRank) {
  const net::CostModel cost{1.0, 0.0};  // 1 second per message, free bytes
  // Rank 0 sends 2 messages; ranks 1 and 2 receive one each. The local
  // copies on rank 1 cost no clock time.
  const std::vector<net::Flow> flows = {
      {0, 1, 8, 1}, {0, 2, 8, 1}, {1, 1, 8, 1}, {1, 1, 8, 1}, {1, 1, 8, 1}};
  net::NetStats stats;
  net::account_flows(stats, cost, 3, flows);
  EXPECT_DOUBLE_EQ(stats.sim_time, 2.0);
  // A second superstep adds its own busiest rank.
  net::account_flows(stats, cost, 3, std::span(flows).first(1));
  EXPECT_DOUBLE_EQ(stats.sim_time, 3.0);
  EXPECT_EQ(stats.supersteps, 2u);
}

TEST(AccountFlows, EmptyTableIsOneFreeSuperstep) {
  net::NetStats stats;
  net::account_flows(stats, {1.0, 1.0}, 4, {});
  net::NetStats expected;
  expected.supersteps = 1;
  EXPECT_EQ(stats, expected);
}

/// The charge of a superstep does not depend on the order of its traffic
/// table: a table and a shuffled copy of it charge identical NetStats,
/// every counter and the clock, over several supersteps.
TEST(AccountFlows, ShuffledTableChargesTheSame) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 64; ++trial) {
    const int ranks = 1 + trial % 8;
    const net::CostModel cost{(1 + rng() % 50) * 1e-6,
                              1.0 / (1 + rng() % 200)};
    net::NetStats in_order;
    net::NetStats shuffled;
    for (int step = 0; step < 3; ++step) {
      std::vector<net::Flow> flows;
      const int count = static_cast<int>(rng() % 24);
      for (int i = 0; i < count; ++i) {
        flows.push_back(
            {static_cast<int>(rng() % static_cast<unsigned>(ranks)),
             static_cast<int>(rng() % static_cast<unsigned>(ranks)),
             (rng() % 300) * sizeof(double), rng() % 9});
      }
      net::account_flows(in_order, cost, ranks, flows);
      std::shuffle(flows.begin(), flows.end(), rng);
      net::account_flows(shuffled, cost, ranks, flows);
      ASSERT_EQ(shuffled, in_order) << "trial " << trial << " step " << step;
    }
  }
}

TEST(AccountFlows, RejectsFlowOutsideTheMachine) {
  const std::vector<net::Flow> flows = {{0, 2, 8, 1}};
  net::NetStats stats;
  EXPECT_THROW(net::account_flows(stats, {}, 2, flows), InternalError);
}

// ---- use-qualifier lattice --------------------------------------------

using ir::Use;

TEST(UseLattice, Letters) {
  EXPECT_EQ(Use::none().letter(), 'N');
  EXPECT_EQ(Use::full_def().letter(), 'D');
  EXPECT_EQ(Use::read().letter(), 'R');
  EXPECT_EQ(Use::write().letter(), 'W');
}

TEST(UseLattice, MergeIsComponentwiseOr) {
  EXPECT_EQ(Use::none().merge(Use::read()), Use::read());
  // D merged with R: values needed on one path, clobbered on the other ->
  // must both transfer and invalidate = W. (More precise than the paper's
  // linear order which would say R.)
  EXPECT_EQ(Use::full_def().merge(Use::read()), Use::write());
  EXPECT_EQ(Use::write().merge(Use::none()), Use::write());
  // D merged with N keeps the pass-through bit: one path redefines, the
  // other carries the incoming value to later consumers, so the merged
  // label must not license the dead-transfer skip.
  const Use mixed = Use::full_def().merge(Use::none());
  EXPECT_FALSE(mixed.may_read);
  EXPECT_TRUE(mixed.may_write);
  EXPECT_TRUE(mixed.passes);
  EXPECT_FALSE(Use::full_def().passes);
}

TEST(UseLattice, SequentialComposition) {
  // Full redefinition screens later uses: they see new values.
  EXPECT_EQ(Use::full_def().then(Use::read()), Use::full_def());
  EXPECT_EQ(Use::full_def().then(Use::write()), Use::full_def());
  // A read followed by a full redefinition still needs the values, but
  // the incoming value does not survive past the redefinition.
  EXPECT_EQ(Use::read().then(Use::full_def()), (Use{true, true, false}));
  EXPECT_EQ(Use::none().then(Use::read()), Use::read());
  EXPECT_EQ(Use::read().then(Use::none()), Use::read());
  EXPECT_EQ(Use::write().then(Use::none()), Use::write());
  // A merged D that still passes on some path does NOT screen: a later
  // read sees the incoming value along the passing path.
  const Use mixed = Use::full_def().merge(Use::none());
  const Use composed = mixed.then(Use::read());
  EXPECT_TRUE(composed.may_read);
  EXPECT_TRUE(composed.passes);
}

TEST(UseLattice, MergeMaps) {
  ir::EffectMap a{{0, Use::read()}};
  ir::EffectMap b{{0, Use::full_def()}, {1, Use::read()}};
  const auto m = ir::merge(a, b);
  EXPECT_EQ(m.at(0), Use::write());
  EXPECT_EQ(m.at(1), Use::read());
  // Array 1 is absent from map `a`: its use is none() on that path, so
  // the merged result must keep the pass-through bit even for a D.
  ir::EffectMap only_b{{2, Use::full_def()}};
  const auto m2 = ir::merge(a, only_b);
  EXPECT_TRUE(m2.at(2).passes);
}

TEST(UseLattice, ThenMaps) {
  ir::EffectMap first{{0, Use::full_def()}};
  ir::EffectMap after{{0, Use::read()}, {1, Use::write()}};
  const auto m = ir::then(first, after);
  EXPECT_EQ(m.at(0), Use::full_def());
  EXPECT_EQ(m.at(1), Use::write());
}

}  // namespace
}  // namespace hpfc
