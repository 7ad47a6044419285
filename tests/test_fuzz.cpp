// Seeded differential fuzzing: random generated programs swept through
// every optimization level and execution backend. For each accepted
// program Theorem 1 must hold after optimization, the parallel signature
// must equal the sequential oracle's, and every NetStats counter must be
// byte-identical across backends at the same level. Failures print a
// self-contained reproducer line (generator seed + run seed + flags) so
// a divergence can be replayed — and then
// minimized into tests/test_differential.cpp — without rerunning the
// sweep. Seeds start at 2000 to stay disjoint from test_differential's.
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

class FuzzPrograms : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzPrograms, BackendsMatchTheOracleAtEveryLevel) {
  testing::GenConfig config;
  config.seed = GetParam();
  // Every other program exercises the richer surface: 2-D arrays and
  // call sites with remapping interface transitions.
  config.two_dimensional = (GetParam() % 2) == 0;
  config.with_calls = (GetParam() % 2) == 1;
  const auto accepted = testing::generate_compilable(config);
  ASSERT_TRUE(accepted.has_value()) << "no compilable program found";
  const unsigned gen_seed = accepted->second;
  const unsigned run_seed = 123 + GetParam();

  for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    DiagnosticEngine diags;
    CompileOptions options;
    options.level = level;
    options.validate_theorem1 = true;
    const Compiled compiled =
        driver::compile(regenerate(gen_seed, config), options, diags);
    ASSERT_TRUE(compiled.ok) << driver::to_string(level) << "\n"
                             << diags.to_string();
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
                         ::testing::Range(2000u, 2020u, 1u));

}  // namespace
}  // namespace hpfc
