// Experiment F7 (Figure 7): the translation scheme itself — dynamic
// mappings become statically mapped versions with copies in between.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig7;

namespace {

void report(Harness& h) {
  banner("F7 / Figure 7 — dynamic-to-static translation",
         "the redistribution of A is translated into a copy between two "
         "statically mapped versions; references retarget to the versions");
  for (const int phases : {1, 4, 16}) {
    const auto compiled = compile(fig7(4096, 4, phases), OptLevel::O2);
    std::printf("phases=%-3d versions(A)=%d\n", phases,
                compiled.analysis.version_count(
                    compiled.program.find_array("A")));
    h.measure("fig07", "phases=" + std::to_string(phases),
              [=] { return fig7(4096, 4, phases); });
  }
  note("alternating block/cyclic phases intern exactly 2 versions "
       "regardless of phase count — versions are placements, not events");
}

void BM_translate(benchmark::State& state) {
  for (auto _ : state) {
    auto c = compile(fig7(256, 4, 8), OptLevel::O2);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_translate);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig07_translate", report);
}
