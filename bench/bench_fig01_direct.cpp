// Experiment F1 (Figure 1): realign + redistribute compiles to one direct
// copy once the intermediate mapping is unused, instead of two remappings.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig1;

namespace {

void report(Harness& h) {
  banner("F1 / Figure 1 — direct remapping",
         "A changes alignment and distribution; the intermediate mapping is "
         "dead, so one direct copy should replace the two-step remapping");
  for (const int procs : {4, 16}) {
    const hpfc::mapping::Extent n = 128;
    for (const bool used : {true, false}) {
      h.measure("fig01",
                "P=" + std::to_string(procs) +
                    (used ? " used-between" : " dead-between"),
                [=] { return fig1(n, procs, used); });
    }
  }
  note("dead-between at O2 performs 2 copies (A direct + B) vs 3 at O0: the "
       "intermediate A copy disappears");
}

void BM_compile_fig1_O2(benchmark::State& state) {
  for (auto _ : state) {
    auto c = compile(fig1(64, 4, false), OptLevel::O2);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_compile_fig1_O2);

void BM_run_fig1_direct(benchmark::State& state) {
  const auto compiled = compile(fig1(64, 4, false), OptLevel::O2);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_run_fig1_direct);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig01_direct", report);
}
