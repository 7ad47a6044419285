// Experiment A-C (Appendix C): useless-remapping removal complexity
// (O(m^2 * p * q * r)) and the Theorem 1 validator's pass rate on the
// randomly generated program population.
#include <benchmark/benchmark.h>

#include <chrono>

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

  std::printf("%-32s %12s %10s\n", "configuration", "optimize-ms", "removed");
  for (const int remaps : {8, 16, 32, 64}) {
    auto program = scaling_program(4, remaps, 1);
    hpfc::DiagnosticEngine diags;
    auto analysis = hpfc::remap::analyze(program, diags);
    if (!analysis.ok) std::abort();
    hpfc::opt::OptReport opt_report;
    const auto start = std::chrono::steady_clock::now();
    hpfc::opt::remove_useless_remappings(analysis, opt_report);
    hpfc::opt::compute_maybe_live(analysis);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
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
}

void BM_removal_pass(benchmark::State& state) {
  const int remaps = static_cast<int>(state.range(0));
  auto program = scaling_program(4, remaps, 1);
  hpfc::DiagnosticEngine diags;
  const auto analysis = hpfc::remap::analyze(program, diags);
  for (auto _ : state) {
    auto copy = analysis;
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
