// Experiment A-C (Appendix C): useless-remapping removal complexity
// (O(m^2 * p * q * r)) and the Theorem 1 validator's pass rate on the
// randomly generated program population.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "opt/passes.hpp"
#include "remap/build.hpp"
#include "testing/figures.hpp"
#include "testing/program_gen.hpp"

using namespace bench_common;
using hpfc::testing::scaling_program;

namespace {

void report(Harness& h) {
  std::printf("\n=== A-C / Appendix C — optimization complexity + Theorem 1 "
              "===\n");
  std::printf("paper: removal + reaching recomputation in O(m^2*p*q*r); "
              "Theorem 1: computed reaching sets are exactly the path-"
              "derived ones\n");

  std::printf("%-32s %12s %10s  (median of %d reps)\n", "configuration",
              "optimize-ms", "removed", h.options().reps);
  for (const int remaps : {8, 16, 32, 64}) {
    auto program = scaling_program(4, remaps, 1);
    hpfc::DiagnosticEngine diags;
    const auto analysis = hpfc::remap::analyze(program, diags);
    if (!analysis.ok) std::abort();
    // The passes rewrite the graph, so every rep starts from a fresh copy
    // of the analysis, made outside the timed region.
    hpfc::remap::Analysis work;
    hpfc::opt::OptReport opt_report;
    const double ms = h.median_ms(
        [&] {
          hpfc::opt::remove_useless_remappings(work, opt_report);
          hpfc::opt::compute_maybe_live(work);
        },
        [&] {
          work = analysis;
          opt_report = {};
        });
    std::printf("remaps=%-4d                      %12.3f %10d\n", remaps, ms,
                opt_report.removed_remappings);
    h.record_timing("appC", "remaps=" + std::to_string(remaps), "optimize",
                    ms);
  }

  int validated = 0;
  int total = 0;
  for (unsigned seed = 1; seed <= 200; ++seed) {
    hpfc::testing::GenConfig config;
    config.seed = seed;
    auto program = hpfc::testing::generate(config);
    hpfc::DiagnosticEngine diags;
    auto analysis = hpfc::remap::analyze(program, diags);
    if (!analysis.ok) continue;
    hpfc::opt::OptReport opt_report;
    hpfc::opt::remove_useless_remappings(analysis, opt_report);
    ++total;
    if (hpfc::opt::validate_theorem1(analysis)) ++validated;
  }
  std::printf("Theorem 1 validator: %d/%d random programs validated\n",
              validated, total);
  if (validated != total) {
    std::fprintf(stderr, "Theorem 1 failed on %d program(s)\n",
                 total - validated);
    std::abort();
  }
}

void BM_removal_pass(benchmark::State& state) {
  const int remaps = static_cast<int>(state.range(0));
  auto program = scaling_program(4, remaps, 1);
  hpfc::DiagnosticEngine diags;
  const auto analysis = hpfc::remap::analyze(program, diags);
  hpfc::remap::Analysis copy;
  for (auto _ : state) {
    // The pass rewrites the graph: restore it outside the timed region.
    state.PauseTiming();
    copy = analysis;
    state.ResumeTiming();
    hpfc::opt::OptReport opt_report;
    hpfc::opt::remove_useless_remappings(copy, opt_report);
    benchmark::DoNotOptimize(&copy);
  }
  state.SetComplexityN(remaps);
}
BENCHMARK(BM_removal_pass)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "appC_optscale", report);
}
