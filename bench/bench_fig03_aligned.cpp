// Experiment F3 (Figure 3): a template redistribution drags every aligned
// array along; liveness keeps only the arrays actually used afterwards.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig3;

namespace {

void report(Harness& h) {
  banner("F3 / Figure 3 — aligned array remappings",
         "template T redistribution remaps all five aligned arrays although "
         "only two are used afterwards: 5 copies naive, 2 optimized");
  const hpfc::mapping::Extent n = 4096;
  for (const int arrays : {5, 10, 20}) {
    const int used = arrays * 2 / 5;
    h.measure("fig03",
              std::to_string(arrays) + " arrays, " + std::to_string(used) +
                  " used",
              [=] { return fig3(n, 4, arrays, used); });
  }
  note("copies drop from `arrays` to `used`; bytes scale in proportion "
       "(the paper's 5 -> 2 becomes a 2.5x traffic ratio)");
}

void BM_analyze_many_aligned(benchmark::State& state) {
  const int arrays = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto c = compile(fig3(256, 4, arrays, arrays / 2), OptLevel::O1);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_analyze_many_aligned)->Arg(5)->Arg(20)->Arg(40);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig03_aligned", report);
}
