// Experiment F10-12 (Figures 10, 11, 12): the ADI worked example — graph
// shape, version economy after optimization, and the run-time effect of
// the three optimization levels over the sweep count.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig10;

namespace {

void report(Harness& h) {
  banner("F10-12 / Figures 10-12 — ADI remapping graph",
         "7 G_R vertices; after optimization A is used with 4 mappings, "
         "B only {0,1}, C only in the loop; B freed before the loop, C "
         "instantiation delayed");
  {
    const auto compiled = compile(fig10(64, 4, 3), OptLevel::O1);
    std::printf("G_R vertices: %zu (paper: 7)\n",
                compiled.analysis.graph.vertices().size());
    std::printf("versions: A=%d B=%d C=%d; removed remappings=%d\n",
                compiled.analysis.version_count(
                    compiled.program.find_array("A")),
                compiled.analysis.version_count(
                    compiled.program.find_array("B")),
                compiled.analysis.version_count(
                    compiled.program.find_array("C")),
                compiled.opt_report.removed_remappings);
    std::printf("%s", compiled.analysis.graph.to_text(compiled.program).c_str());
  }
  for (const hpfc::mapping::Extent sweeps : {1, 4, 16}) {
    h.measure("fig10", "sweeps=" + std::to_string(sweeps),
              [=] { return fig10(64, 4, sweeps); });
  }
  note("O1 stops copying B and C outside their live ranges; per-sweep "
       "copies drop accordingly while results stay oracle-equal");
}

void BM_adi_analysis(benchmark::State& state) {
  for (auto _ : state) {
    auto c = compile(fig10(32, 4, 4), OptLevel::O2);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_adi_analysis);

void BM_adi_run_O0_vs_O2(benchmark::State& state) {
  const auto level = state.range(0) == 0 ? OptLevel::O0 : OptLevel::O2;
  const auto compiled = compile(fig10(32, 4, 4), level);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_adi_run_O0_vs_O2)->Arg(0)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig10_adi", report);
}
