// Shared helpers for the per-figure benchmark harness: compile-and-run
// wrappers, the paper-vs-measured row printer, and the JSON-emitting
// measurement harness every bench_*.cpp executable routes through
// (bench_main). The figure programs themselves come from
// src/testing/figures.hpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"

namespace bench_common {

using hpfc::driver::Compiled;
using hpfc::driver::OptLevel;
using hpfc::runtime::RunReport;

/// Compiles a program at the given level; aborts on any diagnostic.
Compiled compile(hpfc::ir::Program program, OptLevel level);

/// Runs on the simulated machine and cross-checks the result signature
/// against the sequential oracle; aborts on a mismatch.
RunReport run_checked(const Compiled& compiled,
                      const hpfc::runtime::RunOptions& run_options);

/// Experiment banner / rows (a stable text format, one row per level).
void banner(const std::string& experiment, const std::string& paper_claim);
void row(const std::string& label, const RunReport& report);
void note(const std::string& text);

// ---- measurement harness ------------------------------------------------

/// One measured level of a figure configuration: the simulated run's
/// report, whose timing fields hold the harness's medians or best-of
/// values, plus what only the harness measures. Timing-only rows leave
/// `report` zero.
struct LevelRecord {
  std::string level;  ///< "O0" | "O1" | "O2", or a timing row's label
  RunReport report;
  /// Host heap allocations during the measured run (0 unless the bench
  /// overrides operator new; only bench_remap_hotpath does).
  std::uint64_t host_allocs = 0;
  double compile_wall_ms = 0.0;  ///< median host compile time
  /// Median host time of the simulated run alone (the sequential oracle
  /// used for cross-checking is executed outside the timed region).
  double run_wall_ms = 0.0;
  /// The tiles a round-replay row moves its round in (bench_redist_kernels'
  /// `round` figure); 0, and not written, on every other row.
  int tiles = 0;
};

/// One measured configuration of a paper figure ("fig02", "P=4 n=64").
struct FigureRecord {
  std::string figure;
  std::string config;
  std::vector<LevelRecord> levels;
};

/// RunOptions with the bench harness defaults (seed 7, the historical
/// CLI default — RunOptions itself defaults to 1).
hpfc::runtime::RunOptions default_run_options();

/// Harness options parsed from the command line.  Recognized flags are
/// removed from argv so the remainder can still go to Google Benchmark.
///
/// The machine flags (--backend=seq|thread|proc, --threads, --ranks,
/// --seed, --proc-timeout-ms, --snapshot-dir, --snapshot-every) and
/// --paranoid come from the shared support::cli parser and land in `run`.
/// A malformed value, or an argument neither this parser nor Google
/// Benchmark recognizes, exits with status 2.
/// Harness-specific flags:
///
///   --json=PATH   write the collected metrics as JSON to PATH
///   --reps=N      timed repetitions per measurement (default 3)
///   --warmup=N    untimed warm-up repetitions per measurement (default 1)
///   --calibrate   fit the cost model's alpha/beta from measured
///                 proc-backend round-trips before any measurement, and
///                 record the constants in the JSON output
///   --no-gbench   skip the Google Benchmark micro-benchmarks
struct HarnessOptions {
  int reps = 3;
  int warmup = 1;
  /// The simulated-run configuration every measurement uses (seed,
  /// backend, threads, ranks, paranoid, snapshots).
  hpfc::runtime::RunOptions run = default_run_options();
  bool calibrate = false;
  /// Fitted constants when --calibrate ran (samples > 0 marks validity).
  hpfc::exec::Calibration calibration;
  std::string json_path;
  bool run_google_benchmarks = true;

  static HarnessOptions parse(int& argc, char** argv);
};

/// Collects per-figure measurements and serializes them to JSON.  The
/// classic text rows keep printing beside it.
class Harness {
 public:
  using Factory = std::function<hpfc::ir::Program()>;

  Harness(std::string bench_name, HarnessOptions options);

  /// Compiles the factory's program at each level (wall-timed with
  /// warm-up and repetitions), runs it checked against the oracle,
  /// prints the classic row, and records a FigureRecord level entry.
  /// `seed` of 0 means "use the harness-wide seed".
  void measure(const std::string& figure, const std::string& config,
               const Factory& factory,
               std::vector<OptLevel> levels = {OptLevel::O0, OptLevel::O1,
                                               OptLevel::O2},
               unsigned seed = 0);

  /// Records an externally measured level (benches with bespoke
  /// measurement loops, e.g. per-seed live-copy paths or host_allocs).
  void record(const std::string& figure, const std::string& config,
              LevelRecord level);

  /// Records a timing-only entry (analysis/optimization scaling rows
  /// that have no simulated run attached).
  void record_timing(const std::string& figure, const std::string& config,
                     const std::string& level, double wall_ms);

  /// Median wall time of `timed` over the --reps timed runs, after the
  /// --warmup untimed ones; `setup`, when given, runs untimed before each
  /// (for timing rows whose work consumes its input).
  [[nodiscard]] double median_ms(const std::function<void()>& timed,
                                 const std::function<void()>& setup = {}) const;

  /// RunOptions matching the harness flags (backend, threads, seed; a
  /// `seed` of 0 means "use the harness-wide seed") — what measure() uses,
  /// for benches with bespoke measurement loops.
  [[nodiscard]] hpfc::runtime::RunOptions run_options(unsigned seed = 0) const;

  [[nodiscard]] const HarnessOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<FigureRecord>& records() const {
    return records_;
  }

  /// Writes the collected records to options().json_path (no-op and true
  /// when no path was requested; false on I/O failure).
  [[nodiscard]] bool write_json() const;

 private:
  LevelRecord measure_level(const Factory& factory, OptLevel level,
                            unsigned seed);
  FigureRecord& entry(const std::string& figure, const std::string& config);

  std::string bench_name_;
  HarnessOptions options_;
  std::vector<FigureRecord> records_;
};

/// Shared main for every bench executable: parses harness flags, runs
/// `body` to collect measurements, writes JSON when requested, then runs
/// the executable's Google Benchmark suite (unless --no-gbench).
int bench_main(int argc, char** argv, const std::string& bench_name,
               const std::function<void(Harness&)>& body);

}  // namespace bench_common
