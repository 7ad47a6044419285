// Experiment F16/17 (Figures 16, 17): loop-invariant remappings — the
// remap-back moves out of the loop; iterations after the first hit the
// inexpensive status check.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig16;

namespace {

void report(Harness& h) {
  banner("F16/17 / Figures 16-17 — loop-invariant remappings",
         "naive: 2 copies per iteration; optimized: the remapping occurs "
         "only at the first iteration, later ones just check the status");
  for (const hpfc::mapping::Extent trips : {1, 8, 64}) {
    h.measure("fig16", "t=" + std::to_string(trips),
              [=] { return fig16(4096, 4, trips); });
  }
  // Communication-dominated configuration: large payloads over few
  // iterations, so exchange traffic (not guard bookkeeping) dominates
  // the wall clock. This is the row `check_bench_regression
  // --calibration` holds against the fitted cost model: calibrated
  // sim_time_ms must land within 3x of the proc backend's exec_ms.
  h.measure("fig16", "t=8 n=65536", [=] { return fig16(65536, 4, 8); });
  note("O0 copies grow as 2t; O2 stays flat (1 copy + live reuse) with "
       "t-1 status-check hits — the crossover is immediate at t >= 1");
}

void BM_hoist_pass(benchmark::State& state) {
  for (auto _ : state) {
    auto program = fig16(256, 4, 8);
    const int hoisted = hpfc::opt::hoist_loop_invariant_remaps(program);
    benchmark::DoNotOptimize(hoisted);
  }
}
BENCHMARK(BM_hoist_pass);

void BM_loop_run(benchmark::State& state) {
  const auto level = state.range(0) == 0 ? OptLevel::O0 : OptLevel::O2;
  const auto compiled = compile(fig16(1024, 4, 16), level);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_loop_run)->Arg(0)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig16_loop", report);
}
