// Experiment F19/20 (Figures 19, 20): the generated guard code — its shape
// and the cost of the status check relative to an actual remapping copy.
#include <benchmark/benchmark.h>

#include "codegen/gen.hpp"
#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig16;
using hpfc::testing::fig9;

namespace {

void report(Harness& h) {
  banner("F19/20 / Figures 19-20 — generated guard code",
         "per vertex: status guard, allocation, liveness test, per-source "
         "dispatch, live flag, status update, then cleanup");
  const auto compiled = compile(fig9(64, 4), OptLevel::O2);
  std::printf("%s\n", compiled.code.to_text(compiled.program).c_str());
  std::printf("op counts: copies=%d status-guards=%d live-tests=%d "
              "frees=%d\n",
              compiled.code.count(hpfc::codegen::OpKind::Copy),
              compiled.code.count(hpfc::codegen::OpKind::IfStatusNe),
              compiled.code.count(hpfc::codegen::OpKind::IfNotLive),
              compiled.code.count(hpfc::codegen::OpKind::Free));
  const auto run = run_checked(compiled, h.run_options());
  row("fig20 run", run);
  h.record("fig19", "fig20 run", {"O2", run});
  note("the Figure 20 vertex dispatches on {1,2} and skips the copy when "
       "the status already matches");
}

/// Cost of a guard that fires nothing (the paper's "inexpensive check").
void BM_status_check_only(benchmark::State& state) {
  // Loop program where iterations 2..n are status no-ops.
  const auto compiled = compile(fig16(64, 4, 64), OptLevel::O2);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_status_check_only);

/// Cost with real copies every iteration (same program, naive).
void BM_copies_every_iteration(benchmark::State& state) {
  const auto compiled = compile(fig16(64, 4, 64), OptLevel::O0);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_copies_every_iteration);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig19_codegen", report);
}
