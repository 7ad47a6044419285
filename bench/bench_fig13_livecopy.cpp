// Experiment F13/14 (Figures 13, 14): flow-dependent live copies — the
// read-only branch reuses the original copy without communication, the
// writing branch pays for the remap back.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig13;

namespace {

void report(Harness& h) {
  banner("F13/14 / Figures 13-14 — dynamic live copies",
         "copy A_0 may reach the final remapping live or dead depending on "
         "the path; liveness management is delayed to run time");
  // The measured workload appends a remapping no use reaches, so O1's
  // useless-remapping removal and O2's live-copy reuse both show up
  // against the naive O0 copy counts.  Seed 3 takes the read-only path.
  h.measure("fig13", "P=4 n=8192 +tail",
            [] { return fig13(8192, 4, /*useless_tail=*/true); },
            {OptLevel::O0, OptLevel::O1, OptLevel::O2}, /*seed=*/3);

  // The scaling configuration for the execution backends: at n=1M / P=8
  // the per-rank stamping, checksum, and pack/unpack work dominates, so
  // exec_ms here is where --backend=thread shows wall-clock speedup over
  // seq (sim_time and every communication counter stay identical).
  h.measure("fig13", "P=8 n=1048576 +tail",
            [] { return fig13(1 << 20, 8, /*useless_tail=*/true); },
            {OptLevel::O0, OptLevel::O2}, /*seed=*/3);

  const auto compiled = compile(fig13(8192, 4), OptLevel::O2);
  int live_hits = 0;
  int copies_on_write_path = 0;
  for (unsigned seed = 1; seed <= 10; ++seed) {
    const auto run = run_checked(compiled, h.run_options(seed));
    row("seed=" + std::to_string(seed) +
            (run.skipped_live_copy > 0 ? " (read path)" : " (write path)"),
        run);
    h.record("fig13-paths", "seed=" + std::to_string(seed), {"O2", run});
    if (run.skipped_live_copy > 0)
      ++live_hits;
    else
      ++copies_on_write_path;
  }
  note(std::to_string(live_hits) + " runs reused the live copy, " +
       std::to_string(copies_on_write_path) +
       " paid the remap-back — exactly the paper's flow dependence");

  const auto naive = compile(fig13(8192, 4), OptLevel::O0);
  for (const unsigned seed : {1u, 2u}) {
    const auto run = run_checked(naive, h.run_options(seed));
    row("O0 seed=" + std::to_string(seed), run);
    h.record("fig13-paths", "seed=" + std::to_string(seed), {"O0", run});
  }
  note("the naive translation always copies back");
}

void BM_livecopy_run(benchmark::State& state) {
  const auto compiled = compile(fig13(1024, 4), OptLevel::O2);
  unsigned seed = 0;
  for (auto _ : state) {
    hpfc::runtime::RunOptions options;
    options.seed = ++seed;
    auto r = hpfc::driver::run(compiled, options);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_livecopy_run);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig13_livecopy", report);
}
