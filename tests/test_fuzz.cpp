// Seeded differential fuzzing: random generated programs swept through
// every optimization level and execution backend. For each accepted
// program Theorem 1 must hold after optimization, the parallel signature
// must equal the sequential oracle's, and every NetStats counter must be
// byte-identical across backends at the same level; the seq run also
// checks the liveness invariant after every step. A second sweep
// reruns every program, level and backend under half the seq backend's
// unlimited peak memory, where live copies get evicted (§5.2) and each
// plan slot still compiles at most once.
// Failures print a self-contained reproducer line (generator seed + run
// seed + flags) so a divergence can be replayed — and then minimized
// into tests/test_differential.cpp — without rerunning the sweep. Seeds
// start at 2000 to stay disjoint from test_differential's.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "driver/compiler.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;

ir::Program regenerate(unsigned seed, const testing::GenConfig& base) {
  testing::GenConfig config = base;
  config.seed = seed;
  return testing::generate(config);
}

/// One replayable configuration: "reproducer: gen-seed=7 run-seed=2130
/// --opt=O2 --backend=thread" identifies the program (regenerate with
/// testing::generate at gen-seed), the branch path (--seed=run-seed),
/// and the compile/run flags.
std::string reproducer(unsigned gen_seed, unsigned run_seed, OptLevel level,
                       exec::BackendKind backend) {
  return "reproducer: gen-seed=" + std::to_string(gen_seed) +
         " run-seed=" + std::to_string(run_seed) +
         " --opt=" + driver::to_string(level) +
         " --backend=" + exec::to_string(backend);
}

/// One program of the sweep: the generator config for sweep seed `seed`,
/// the generator seed it was accepted at, and the run seed.
struct SweepCase {
  testing::GenConfig config;
  unsigned gen_seed = 0;
  unsigned run_seed = 0;
};

SweepCase sweep_case(unsigned seed) {
  SweepCase c;
  c.config.seed = seed;
  // Every other program exercises the richer surface: 2-D arrays and
  // call sites with remapping interface transitions.
  c.config.two_dimensional = (seed % 2) == 0;
  c.config.with_calls = (seed % 2) == 1;
  const auto accepted = testing::generate_compilable(c.config);
  EXPECT_TRUE(accepted.has_value()) << "no compilable program found";
  if (accepted.has_value()) c.gen_seed = accepted->second;
  c.run_seed = 123 + seed;
  return c;
}

Compiled compile_case(const SweepCase& c, OptLevel level) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = level;
  options.validate_theorem1 = true;
  Compiled compiled =
      driver::compile(regenerate(c.gen_seed, c.config), options, diags);
  EXPECT_TRUE(compiled.ok) << driver::to_string(level) << "\n"
                           << diags.to_string();
  return compiled;
}

constexpr unsigned kFirstSeed = 2000;
constexpr unsigned kEndSeed = 2020;

class FuzzPrograms : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzPrograms, BackendsMatchTheOracleAtEveryLevel) {
  const SweepCase c = sweep_case(GetParam());
  const unsigned gen_seed = c.gen_seed;
  const unsigned run_seed = c.run_seed;

  for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    const Compiled compiled = compile_case(c, level);
    ASSERT_TRUE(compiled.ok);
    EXPECT_TRUE(compiled.opt_report.theorem1_holds)
        << "Theorem 1 violated: gen-seed=" << gen_seed << " --opt="
        << driver::to_string(level);

    runtime::RunOptions run_options;
    run_options.seed = run_seed;
    const auto oracle = driver::run_oracle(compiled, run_options);

    bool have_reference = false;
    net::NetStats reference_net;
    std::uint64_t reference_elements = 0;
    for (const exec::BackendKind backend :
         {exec::BackendKind::Seq, exec::BackendKind::Thread,
          exec::BackendKind::Proc}) {
      SCOPED_TRACE(reproducer(gen_seed, run_seed, level, backend));
      runtime::RunOptions backend_options = run_options;
      backend_options.backend = backend;
      // The seq leg checks every live copy against the expected values
      // after every step, so each generated live region and kill is
      // validated where it happens, not only at the next read.
      backend_options.paranoid = backend == exec::BackendKind::Seq;
      const auto parallel = driver::run(compiled, backend_options);
      EXPECT_EQ(parallel.signature, oracle.signature);
      EXPECT_TRUE(parallel.exported_values_ok);
      if (!have_reference) {
        reference_net = parallel.net;
        reference_elements = parallel.elements_copied;
        have_reference = true;
      } else {
        // NetStats are defined backend-independently: every counter —
        // messages, bytes, segments, supersteps, cache hits — must be
        // byte-identical to the seq backend's, not merely "close".
        EXPECT_EQ(parallel.net, reference_net);
        EXPECT_EQ(parallel.elements_copied, reference_elements);
      }
    }
  }
}

// A bounded sweep (20 programs x 3 levels x 3 backends) keeps the suite
// CI-sized; run_benches-independent, so widening the range locally is a
// one-line change.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPrograms,
                         ::testing::Range(kFirstSeed, kEndSeed, 1u));

// Memory pressure: the same programs on every backend with a budget of
// half the seq backend's unlimited peak (test_differential's squeeze
// rule). Evicted copies regenerate, so the results must still equal the
// oracle's; memory accounting happens on the controlling thread, so every
// backend must evict exactly what seq evicts and report identical
// NetStats. The budget covers array storage only: compiled plans live for
// the run, so no plan slot compiles twice (one cache lookup per slot at
// most). The budget must really evict somewhere in the sweep.
TEST(FuzzMemoryPressure, HalvedBudgetMatchesTheOracleAtEveryLevel) {
  int evicting_runs = 0;
  for (unsigned seed = kFirstSeed; seed < kEndSeed; ++seed) {
    const SweepCase c = sweep_case(seed);
    for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      const Compiled compiled = compile_case(c, level);
      ASSERT_TRUE(compiled.ok);
      runtime::RunOptions run_options;
      run_options.seed = c.run_seed;
      const auto oracle = driver::run_oracle(compiled, run_options);
      const auto unlimited = driver::run(compiled, run_options);
      run_options.memory_limit = unlimited.peak_bytes / 2 + 1024;
      runtime::RunReport reference;
      for (const exec::BackendKind backend :
           {exec::BackendKind::Seq, exec::BackendKind::Thread,
            exec::BackendKind::Proc}) {
        SCOPED_TRACE(reproducer(c.gen_seed, c.run_seed, level, backend) +
                     " memory_limit=" +
                     std::to_string(run_options.memory_limit));
        run_options.backend = backend;
        const auto squeezed = driver::run(compiled, run_options);
        EXPECT_EQ(squeezed.signature, oracle.signature);
        EXPECT_TRUE(squeezed.exported_values_ok);
        EXPECT_LE(squeezed.net.plan_cache_hits + squeezed.net.plan_cache_misses,
                  static_cast<std::uint64_t>(compiled.code.plan_slots));
        if (backend == exec::BackendKind::Seq) {
          if (squeezed.evictions > 0) ++evicting_runs;
          reference = squeezed;
        } else {
          EXPECT_EQ(squeezed.net, reference.net);
          EXPECT_EQ(squeezed.evictions, reference.evictions);
        }
      }
    }
  }
  EXPECT_GT(evicting_runs, 0) << "no run of the sweep evicted anything";
}

}  // namespace
}  // namespace hpfc
