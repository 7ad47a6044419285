// Experiment F4 (Figure 4): useless argument remappings around consecutive
// calls disappear; Y moves directly between callee mappings.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig4;

namespace {

void report(Harness& h) {
  banner("F4 / Figure 4 — argument remappings",
         "foo;foo;bla: remappings back and forth between calls are useless; "
         "6 copies naive vs 2 optimized, with live-copy reuse at the end");
  for (const int procs : {4, 16, 64}) {
    const hpfc::mapping::Extent n = 4096;
    h.measure("fig04", "P=" + std::to_string(procs),
              [=] { return fig4(n, procs); });
  }
  note("O1 removes the two restores between calls; O2 additionally reuses "
       "the still-live block copy after the last call (intent(in) callees)");
}

void BM_interprocedural_chain(benchmark::State& state) {
  for (auto _ : state) {
    auto c = compile(fig4(512, 4), OptLevel::O2);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_interprocedural_chain);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig04_args", report);
}
