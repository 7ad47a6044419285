// Experiment F18 (Figure 18): the reaching mapping is saved before a call
// with an ambiguous argument state and restored (dispatched) afterwards.
// Doubles as the crash-recovery benchmark: the same figure runs with
// --snapshot-dir sealing, and persist::restore() of the final sealed
// store races a full recomputation of the run.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "codegen/gen.hpp"
#include "common.hpp"
#include "persist/snapshot.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::testing::fig18;

namespace {

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// Restore-vs-recompute: seal crash-consistent snapshots during a fig18
/// run, then compare rebuilding the final store from the sealed journal
/// against recomputing it by rerunning the whole program.
void report_snapshot(Harness& h) {
  banner("F18b — restoring the sealed store vs recomputing it",
         "the run seals delta snapshots at every remap boundary; recovery "
         "replays the journal instead of re-executing the program");
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("hpfc_bench_fig18_snapshot_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto compiled = compile(fig18(262144, 4), OptLevel::O2);
  auto snapshot_options = h.run_options(1);
  snapshot_options.snapshot_dir = dir.string();
  auto snapshot_run = run_checked(compiled, snapshot_options);
  row("O2 snapshot seed=1", snapshot_run);

  std::vector<double> restore_samples;
  std::vector<double> recompute_samples;
  const int reps = std::max(1, h.options().reps);
  for (int rep = 0; rep < reps; ++rep) {
    const auto restored = hpfc::persist::restore(dir.string());
    restore_samples.push_back(restored.restore_ms);
    const auto start = std::chrono::steady_clock::now();
    const auto rerun = hpfc::driver::run(compiled, h.run_options(1));
    benchmark::DoNotOptimize(&rerun);
    recompute_samples.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  snapshot_run.restore_ms = median(restore_samples);
  const double recompute_ms = median(recompute_samples);
  std::printf("restore %.3f ms vs recompute %.3f ms (%llu journal bytes, "
              "%llu runs written)\n",
              snapshot_run.restore_ms, recompute_ms,
              static_cast<unsigned long long>(snapshot_run.snapshot_bytes),
              static_cast<unsigned long long>(
                  snapshot_run.snapshot_runs_written));
  h.record("fig18_snapshot", "restore-vs-recompute",
           {"O2", snapshot_run, /*host_allocs=*/0, /*compile_wall_ms=*/0.0,
            recompute_ms});
  note("restore replays O(changed runs) journal deltas and verifies the "
       "hash tree; recomputation re-executes every superstep");
  fs::remove_all(dir);
}

void report(Harness& h) {
  banner("F18 / Figure 18 — mapping restored around a call",
         "reaching(A) is saved; on return the saved status selects the "
         "mapping to restore (two candidate leaving mappings)");
  const auto naive = compile(fig18(4096, 4), OptLevel::O0);
  std::printf("save slots=%d, save ops=%d, restore dispatches=%d\n",
              naive.code.save_slots,
              naive.code.count(hpfc::codegen::OpKind::SaveStatus),
              naive.code.count(hpfc::codegen::OpKind::IfSavedEq));
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const auto run = run_checked(naive, h.run_options(seed));
    row("O0 seed=" + std::to_string(seed), run);
    h.record("fig18", "seed=" + std::to_string(seed), {"O0", run});
  }
  const auto opt = compile(fig18(4096, 4), OptLevel::O2);
  std::printf("after O2: restore dispatches=%d (the unused restore is "
              "removed entirely)\n",
              opt.code.count(hpfc::codegen::OpKind::IfSavedEq));
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const auto run = run_checked(opt, h.run_options(seed));
    row("O2 seed=" + std::to_string(seed), run);
    h.record("fig18", "seed=" + std::to_string(seed), {"O2", run});
  }
  note("both paths and both levels agree with the oracle; O2 moves the "
       "argument directly to the next required mapping");
  report_snapshot(h);
}

void BM_restore_run(benchmark::State& state) {
  const auto compiled = compile(fig18(1024, 4), OptLevel::O0);
  unsigned seed = 0;
  for (auto _ : state) {
    hpfc::runtime::RunOptions options;
    options.seed = ++seed;
    auto r = hpfc::driver::run(compiled, options);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_restore_run);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig18_restore", report);
}
