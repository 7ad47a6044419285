// Sequential-backend delivery/accounting and the use-qualifier lattice
// of §3.1.
#include <gtest/gtest.h>

#include "exec/backend.hpp"
#include "ir/effects.hpp"
#include "net/network.hpp"
#include "support/check.hpp"

namespace hpfc {
namespace {

std::unique_ptr<exec::Backend> seq_backend(int ranks,
                                           net::CostModel cost = {}) {
  return exec::make_backend(exec::BackendKind::Seq, ranks, cost);
}

TEST(SeqExchange, DeliversMessagesToDestinations) {
  const auto netw = seq_backend(4);
  std::vector<std::vector<net::Message>> out(4);
  out[0].push_back({0, 3, 7, {1.0, 2.0}});
  out[2].push_back({2, 0, 1, {5.0}});
  const auto in = netw->exchange(std::move(out));
  ASSERT_EQ(in[3].size(), 1u);
  EXPECT_EQ(in[3][0].payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(in[3][0].tag, 7);
  ASSERT_EQ(in[0].size(), 1u);
  EXPECT_EQ(in[0][0].src, 2);
  EXPECT_TRUE(in[1].empty());
}

TEST(SeqExchange, CountsRemoteAndLocalSeparately) {
  const auto netw = seq_backend(2);
  std::vector<std::vector<net::Message>> out(2);
  out[0].push_back({0, 1, 0, {1.0, 2.0, 3.0}});
  out[1].push_back({1, 1, 0, {4.0}});
  netw->exchange(std::move(out));
  EXPECT_EQ(netw->stats().messages, 1u);
  EXPECT_EQ(netw->stats().bytes, 3 * sizeof(double));
  EXPECT_EQ(netw->stats().local_copies, 1u);
  EXPECT_EQ(netw->stats().local_bytes, sizeof(double));
  EXPECT_EQ(netw->stats().supersteps, 1u);
}

TEST(SeqExchange, ClockChargesBusiestRank) {
  net::CostModel cost{1.0, 0.0};  // 1 second per message, free bytes
  const auto netw = seq_backend(3, cost);
  std::vector<std::vector<net::Message>> out(3);
  // Rank 0 sends 2 messages; rank 1 receives 1; rank 2 receives 1.
  out[0].push_back({0, 1, 0, {1.0}});
  out[0].push_back({0, 2, 0, {1.0}});
  netw->exchange(std::move(out));
  // Rank 0 is busiest: 2 messages.
  EXPECT_DOUBLE_EQ(netw->stats().sim_time, 2.0);
}

TEST(SeqExchange, DeterministicReceiveOrder) {
  const auto netw = seq_backend(3);
  std::vector<std::vector<net::Message>> out(3);
  out[2].push_back({2, 0, 20, {1.0}});
  out[1].push_back({1, 0, 10, {1.0}});
  const auto in = netw->exchange(std::move(out));
  ASSERT_EQ(in[0].size(), 2u);
  EXPECT_EQ(in[0][0].src, 1);  // by source rank
  EXPECT_EQ(in[0][1].src, 2);
}

TEST(SeqExchange, RejectsMismatchedSource) {
  const auto netw = seq_backend(2);
  std::vector<std::vector<net::Message>> out(2);
  out[0].push_back({1, 0, 0, {}});
  EXPECT_THROW(netw->exchange(std::move(out)), InternalError);
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
