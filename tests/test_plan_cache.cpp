// The runtime plan cache (redist/plan_cache.hpp): one concrete plan per
// (from, to) layout pair, built by build_runs on a miss and shared by
// every plan slot with that pair for the whole run. These tests pin
// (1) the cache against both concrete builders over random layout pairs —
// a miss then a hit on the same plan, a plan byte-identical to build_runs
// whose element sets match the sorted-list build() oracle in pack order —
// and (2) the run's lookups: slots share plans, and memory pressure,
// which evicts array copies only, never makes a slot compile twice.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "redist/commsets.hpp"
#include "redist/plan_cache.hpp"
#include "testing/oracles.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::Alignment;
using mapping::ConcreteLayout;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

/// Byte-level plan equality: same transfer list, same (src, dst), same
/// per-dimension run sets (which fixes the pack order too).
void expect_plans_equal(const redist::RedistPlanV2& got,
                        const redist::RedistPlanV2& want,
                        const std::string& label) {
  ASSERT_EQ(got.transfers.size(), want.transfers.size()) << label;
  for (std::size_t i = 0; i < got.transfers.size(); ++i) {
    const auto& g = got.transfers[i];
    const auto& w = want.transfers[i];
    EXPECT_EQ(g.src, w.src) << label << " transfer " << i;
    EXPECT_EQ(g.dst, w.dst) << label << " transfer " << i;
    ASSERT_EQ(g.dim_runs.size(), w.dim_runs.size()) << label;
    for (std::size_t d = 0; d < g.dim_runs.size(); ++d)
      EXPECT_EQ(g.dim_runs[d], w.dim_runs[d])
          << label << " transfer " << i << " dim " << d;
  }
}

// Property: over random layout pairs, the first acquire misses and builds
// a plan byte-identical to build_runs that enumerates the sorted-list
// build() oracle's element sets in the same pack order; the second acquire
// hits the same plan.
TEST(PlanCacheTest, MatchesBothConcreteBuildersOnRandomLayouts) {
  std::mt19937 rng(31337);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}, Shape{8, 8}};
  for (int trial = 0; trial < 200; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const std::string label = from.to_string() + " -> " + to.to_string();

    redist::PlanCache cache;
    const auto cold = cache.acquire(from, to);
    ASSERT_NE(cold.plan, nullptr) << label;
    EXPECT_FALSE(cold.hit) << label;
    expect_plans_equal(*cold.plan, redist::build_runs(from, to), label);

    // Pack order against the oracle: materialized per-dimension lists.
    const testing::RedistPlan oracle = testing::build(from, to);
    const testing::RedistPlan materialized =
        testing::materialize(*cold.plan);
    ASSERT_EQ(materialized.transfers.size(), oracle.transfers.size()) << label;
    for (std::size_t i = 0; i < oracle.transfers.size(); ++i) {
      EXPECT_EQ(materialized.transfers[i].src, oracle.transfers[i].src);
      EXPECT_EQ(materialized.transfers[i].dst, oracle.transfers[i].dst);
      EXPECT_EQ(materialized.transfers[i].dim_indices,
                oracle.transfers[i].dim_indices)
          << label << " transfer " << i;
    }

    // Warm lookup: the same cached object, from equal (not identical)
    // layout objects.
    const ConcreteLayout from_copy = from;
    const ConcreteLayout to_copy = to;
    const auto warm = cache.acquire(from_copy, to_copy);
    EXPECT_TRUE(warm.hit) << label;
    EXPECT_EQ(warm.plan, cold.plan) << label;
    EXPECT_EQ(cache.size(), 1u);

    // The reverse pair is a different plan, unless the layouts are equal.
    if (from != to) {
      const auto reverse = cache.acquire(to, from);
      EXPECT_FALSE(reverse.hit) << label;
      EXPECT_EQ(cache.size(), 2u);
    }
  }
}

/// Two same-extent arrays (a shared plan) plus one different-extent array
/// (a second plan for the same formats) behind one remapping loop.
Compiled compile_shared_instances(Extent trips) {
  hpf::ProgramBuilder b("shared");
  b.procs("P", Shape{4});
  b.tmpl("T", Shape{96});
  b.tmpl("U", Shape{64});
  b.distribute_template("T", {DistFormat::block()}, "P");
  b.distribute_template("U", {DistFormat::block()}, "P");
  b.array("A", Shape{96});
  b.align("A", "T", Alignment::identity(1));
  b.array("B", Shape{96});
  b.align("B", "T", Alignment::identity(1));
  b.array("C", Shape{64});
  b.align("C", "U", Alignment::identity(1));
  b.use({"A", "B", "C"});
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.redistribute("U", {DistFormat::cyclic()}, "", "2");
  b.use({"A", "B", "C"});
  b.redistribute("T", {DistFormat::block()}, "", "3");
  b.redistribute("U", {DistFormat::block()}, "", "4");
  b.end_loop();
  b.use({"A", "B", "C"});
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O0;
  Compiled compiled = driver::compile(b.finish(diags), options, diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

// Plan slots share cached plans, and a plan slot compiles at most once
// per run: memory pressure evicts array copies (§5.2), never compiled
// plans. Over a descending sweep of limits every squeezed run matches the
// oracle, looks the cache up at most once per slot, and builds exactly the
// plans the unlimited run builds.
TEST(PlanCacheRun, SqueezedRunsCompileEachSlotOnce) {
  const Compiled compiled = compile_shared_instances(3);
  runtime::RunOptions options;
  options.seed = 11;
  const runtime::RunReport oracle = driver::run_oracle(compiled, options);
  const runtime::RunReport unlimited = driver::run(compiled, options);
  EXPECT_EQ(unlimited.signature, oracle.signature);
  // A and B share template, extent and procs: their slots share one
  // layout pair and so one plan, and the cache sees warm hits; C's extent
  // differs, so its layout pair carries a second plan (a miss, not a
  // hit).
  EXPECT_GT(unlimited.net.plan_cache_hits, 0u);
  EXPECT_GT(unlimited.net.plan_cache_misses, 0u);
  EXPECT_EQ(unlimited.net.symbolic_instantiations,
            unlimited.net.plan_cache_misses);

  const auto slots = static_cast<std::uint64_t>(compiled.code.plan_slots);
  for (std::uint64_t limit = unlimited.peak_bytes; limit > 0;
       limit -= limit / 8 + 1) {
    SCOPED_TRACE("memory_limit=" + std::to_string(limit));
    options.memory_limit = limit;
    const runtime::RunReport squeezed = driver::run(compiled, options);
    EXPECT_EQ(squeezed.signature, oracle.signature);
    EXPECT_TRUE(squeezed.exported_values_ok);
    EXPECT_LE(squeezed.net.plan_cache_hits + squeezed.net.plan_cache_misses,
              slots);
    EXPECT_EQ(squeezed.net.symbolic_instantiations,
              unlimited.net.symbolic_instantiations);
  }
}

}  // namespace
}  // namespace hpfc
