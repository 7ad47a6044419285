// Fused remap supersteps (cross-array message aggregation): all Copy ops
// codegen emits for one remapping vertex share a codegen copy group, and
// the runtime flushes each group as ONE exchange superstep with combined
// per-(src, dst) messages. These tests pin the superstep and message
// counts a vertex's fan-out implies, and that results and every
// data-volume counter (elements, bytes, segments, local copies,
// checksums) match the sequential oracle and stay identical across the
// execution backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "codegen/runtime_ops.hpp"
#include "common.hpp"
#include "testing/figures.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;

/// The counters that must not move whichever backend runs the ranks.
struct InvariantCounters {
  std::uint64_t signature = 0;
  int copies_performed = 0;
  std::uint64_t elements_copied = 0;
  std::uint64_t bytes = 0;
  std::uint64_t local_copies = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t segments = 0;
  int skipped_already_mapped = 0;
  int skipped_live_copy = 0;

  friend bool operator==(const InvariantCounters&,
                         const InvariantCounters&) = default;
};

InvariantCounters invariants(const runtime::RunReport& r) {
  InvariantCounters c;
  c.signature = r.signature;
  c.copies_performed = r.copies_performed;
  c.elements_copied = r.elements_copied;
  c.bytes = r.net.bytes;
  c.local_copies = r.net.local_copies;
  c.local_bytes = r.net.local_bytes;
  c.segments = r.net.segments;
  c.skipped_already_mapped = r.skipped_already_mapped;
  c.skipped_live_copy = r.skipped_live_copy;
  return c;
}

runtime::RunReport run_with(const Compiled& compiled, exec::BackendKind backend,
                            unsigned seed = 11) {
  runtime::RunOptions options;
  options.seed = seed;
  options.backend = backend;
  options.threads = 3;
  return driver::run(compiled, options);
}

// Every Copy emitted for one vertex carries that vertex's group id;
// distinct vertices get distinct groups.
TEST(CopyGroups, CodegenAssignsOneGroupPerVertex) {
  const Compiled c = compile(testing::fig16_multi(64, 4, 3, 1), OptLevel::O0);
  EXPECT_GT(c.code.copy_groups, 0);
  std::vector<std::vector<int>> groups_per_node;
  for (const auto& ops : c.code.at_node) {
    std::vector<int> groups;
    const auto collect = [&](const auto& self,
                             const codegen::OpList& list) -> void {
      for (const auto& op : list) {
        if (op.kind == codegen::OpKind::Copy) {
          ASSERT_GE(op.copy_group, 0) << "Copy without a group";
          ASSERT_LT(op.copy_group, c.code.copy_groups);
          groups.push_back(op.copy_group);
        }
        self(self, op.body);
      }
    };
    collect(collect, ops);
    if (!groups.empty()) groups_per_node.push_back(groups);
  }
  ASSERT_FALSE(groups_per_node.empty());
  std::vector<int> seen;
  for (const auto& groups : groups_per_node) {
    // One shared group per node (= per vertex)...
    for (const int g : groups) EXPECT_EQ(g, groups.front());
    // ...never reused by another vertex.
    EXPECT_EQ(std::count(seen.begin(), seen.end(), groups.front()), 0);
    seen.push_back(groups.front());
  }
}

// A vertex moving k arrays costs one superstep, and its off-rank traffic
// merges into one message per (src, dst) pair carrying k frames; every
// data-volume counter is identical across backends.
TEST(CopyGroups, MultiArrayVertexFusesKIntoOneSuperstep) {
  const mapping::Extent n = 64;
  const int procs = 4;
  const int arrays = 4;
  const mapping::Extent trips = 3;
  const Compiled c =
      compile(testing::fig16_multi(n, procs, arrays, trips), OptLevel::O0);

  runtime::RunOptions oracle_options;
  oracle_options.seed = 11;
  const auto oracle = driver::run_oracle(c, oracle_options);
  const auto fused = run_with(c, exec::BackendKind::Seq);
  EXPECT_EQ(fused.signature, oracle.signature);

  // Each trip remaps every array twice (block -> cyclic -> block), each
  // remap moving the whole array: one vertex visit per remap.
  const auto visits = static_cast<std::uint64_t>(2 * trips);
  ASSERT_EQ(fused.copies_performed, static_cast<int>(visits) * arrays);
  EXPECT_EQ(fused.elements_copied,
            static_cast<std::uint64_t>(fused.copies_performed) *
                static_cast<std::uint64_t>(n));
  // Every flush collapses its k members into one superstep, and every
  // member shares it.
  EXPECT_EQ(fused.net.supersteps, visits);
  EXPECT_EQ(fused.net.fused_copies,
            static_cast<std::uint64_t>(fused.copies_performed));
  // block <-> cyclic on P ranks is all-to-all: P(P-1) off-rank pairs per
  // visit, each one combined message whatever k is (unfused, every
  // array would pay its own P(P-1) messages).
  const auto pairs = static_cast<std::uint64_t>(procs * (procs - 1));
  EXPECT_EQ(fused.net.messages, visits * pairs);
  // Each rank keeps n/P^2 elements of every array local per visit.
  EXPECT_EQ(fused.net.local_copies,
            static_cast<std::uint64_t>(fused.copies_performed * procs));
  EXPECT_EQ(fused.net.bytes + fused.net.local_bytes,
            fused.elements_copied * sizeof(double));

  for (const auto backend :
       {exec::BackendKind::Seq, exec::BackendKind::Thread}) {
    const auto report = run_with(c, backend);
    EXPECT_EQ(invariants(report), invariants(fused))
        << exec::to_string(backend);
    EXPECT_TRUE(report.exported_values_ok);
    EXPECT_EQ(report.net, fused.net) << exec::to_string(backend);
  }
}

// Randomized programs: fusion must preserve results and data volumes at
// every level and backend, and a superstep always carries a copy.
TEST(CopyGroups, RandomProgramsFuseWithoutChangingResults) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    testing::GenConfig config;
    config.seed = seed;
    auto accepted = testing::generate_compilable(config);
    ASSERT_TRUE(accepted.has_value());
    for (const OptLevel level : {OptLevel::O0, OptLevel::O2}) {
      DiagnosticEngine diags;
      CompileOptions options;
      options.level = level;
      testing::GenConfig clone_config = config;
      clone_config.seed = accepted->second;
      Compiled compiled = driver::compile(testing::generate(clone_config),
                                          options, diags);
      ASSERT_TRUE(compiled.ok) << diags.to_string();

      runtime::RunOptions oracle_options;
      oracle_options.seed = 100 + seed;
      const auto oracle = driver::run_oracle(compiled, oracle_options);
      const auto fused = run_with(compiled, exec::BackendKind::Seq, 100 + seed);
      EXPECT_EQ(fused.signature, oracle.signature) << "seed " << seed;
      EXPECT_TRUE(fused.exported_values_ok) << "seed " << seed;
      EXPECT_LE(fused.net.supersteps,
                static_cast<std::uint64_t>(fused.copies_performed));
      EXPECT_LE(fused.net.fused_copies,
                static_cast<std::uint64_t>(fused.copies_performed));

      const auto threaded =
          run_with(compiled, exec::BackendKind::Thread, 100 + seed);
      EXPECT_EQ(invariants(threaded), invariants(fused)) << "seed " << seed;
      EXPECT_EQ(threaded.net, fused.net) << "seed " << seed;
    }
  }
}

// Fusion composes with the eviction machinery: pinned pending members
// survive memory pressure and the squeezed run stays correct.
TEST(CopyGroups, MemoryPressureWithFusedGroups) {
  const Compiled c = compile(testing::fig16_multi(128, 4, 4, 2), OptLevel::O0);
  runtime::RunOptions options;
  options.seed = 5;
  const auto unlimited = driver::run(c, options);
  const auto oracle = driver::run_oracle(c, options);
  ASSERT_EQ(unlimited.signature, oracle.signature);

  runtime::RunOptions tight = options;
  tight.memory_limit = unlimited.peak_bytes / 2 + 1024;
  const auto squeezed = driver::run(c, tight);
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);
  EXPECT_LE(squeezed.peak_bytes, unlimited.peak_bytes);
}

}  // namespace
}  // namespace hpfc
