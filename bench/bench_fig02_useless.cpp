// Experiment F2 (Figure 2): a redistribution that restores the initial
// mapping makes both remappings of the aligned array useless.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig2;

namespace {

void report(Harness& h) {
  banner("F2 / Figure 2 — useless remappings",
         "both C remappings are useless because the redistribution restores "
         "its initial mapping: zero communication after optimization");
  for (const int procs : {4, 16}) {
    for (const hpfc::mapping::Extent n : {64, 256}) {
      h.measure("fig02",
                "P=" + std::to_string(procs) + " n=" + std::to_string(n),
                [=] { return fig2(n, procs); });
    }
  }
  note("O1/O2 rows show 0 copies: the restore is recognized by placement "
       "equality of the normalized two-level mappings");
}

void BM_optimize_fig2(benchmark::State& state) {
  for (auto _ : state) {
    auto c = compile(fig2(64, 4), OptLevel::O1);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_optimize_fig2);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig02_useless", report);
}
