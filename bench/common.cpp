#include "common.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "support/cli.hpp"
#include "support/strings.hpp"

namespace bench_common {

using hpfc::DiagnosticEngine;

Compiled compile(hpfc::ir::Program program, OptLevel level) {
  DiagnosticEngine diags;
  hpfc::driver::CompileOptions options;
  options.level = level;
  options.validate_theorem1 = true;
  Compiled compiled =
      hpfc::driver::compile(std::move(program), options, diags);
  if (!compiled.ok) {
    std::fprintf(stderr, "benchmark program failed to compile:\n%s\n",
                 diags.to_string().c_str());
    std::abort();
  }
  return compiled;
}

RunReport run_checked(const Compiled& compiled,
                      const hpfc::runtime::RunOptions& run_options) {
  const RunReport oracle = hpfc::driver::run_oracle(compiled, run_options);
  const RunReport report = hpfc::driver::run(compiled, run_options);
  if (report.signature != oracle.signature || !report.exported_values_ok) {
    std::fprintf(stderr, "benchmark run diverged from the oracle\n");
    std::abort();
  }
  return report;
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("%-28s %8s %12s %12s %10s %10s %12s\n", "configuration",
              "copies", "elements", "messages", "bytes", "skip-map",
              "sim-time-ms");
}

void row(const std::string& label, const RunReport& report) {
  std::printf("%-28s %8d %12llu %12llu %10llu %10d %12.3f\n", label.c_str(),
              report.copies_performed,
              static_cast<unsigned long long>(report.elements_copied),
              static_cast<unsigned long long>(report.net.messages),
              static_cast<unsigned long long>(report.net.bytes),
              report.skipped_already_mapped + report.skipped_live_copy,
              report.net.sim_time * 1e3);
  // Phase-timer snapshot: flushed per level so a wedged later phase still
  // leaves the last completed level's split in the captured output
  // (run_benches quotes it in its timeout diagnostic).
  std::printf("    phases: pack %.3f ms / exchange %.3f ms / unpack %.3f ms\n",
              report.pack_ms, report.exchange_ms, report.unpack_ms);
  std::fflush(stdout);
}

void note(const std::string& text) {
  std::printf("  -> %s\n", text.c_str());
}

// ---- measurement harness ------------------------------------------------

namespace {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

hpfc::runtime::RunOptions default_run_options() {
  hpfc::runtime::RunOptions run;
  run.seed = 7;
  return run;
}

namespace {

/// Reports a bad command line and exits with status 2.
[[noreturn]] void reject(const std::string& message) {
  std::fprintf(stderr, "bench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

HarnessOptions HarnessOptions::parse(int& argc, char** argv) {
  HarnessOptions options;
  hpfc::support::cli::RunFlags flags;
  flags.options = options.run;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (flags.consume(arg)) {
      case hpfc::support::cli::Parsed::Consumed:
        continue;
      case hpfc::support::cli::Parsed::Error:
        reject(flags.error);
      case hpfc::support::cli::Parsed::Unrecognized:
        break;
    }
    if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (arg.rfind("--reps=", 0) == 0) {
      if (!hpfc::support::cli::parse_int(arg.substr(7), options.reps) ||
          options.reps < 1)
        reject("bad --reps value '" + arg.substr(7) + "'");
    } else if (arg.rfind("--warmup=", 0) == 0) {
      if (!hpfc::support::cli::parse_int(arg.substr(9), options.warmup) ||
          options.warmup < 0)
        reject("bad --warmup value '" + arg.substr(9) + "'");
    } else if (arg == "--calibrate") {
      options.calibrate = true;
    } else if (arg == "--no-gbench") {
      options.run_google_benchmarks = false;
    } else {
      argv[out++] = argv[i];  // leave unrecognized args for gbench
    }
  }
  argc = out;
  argv[argc] = nullptr;
  // Without Google Benchmark nothing else reads argv, so a leftover
  // argument is a typo; bench_main checks the gbench case after
  // benchmark::Initialize has taken its own flags.
  if (!options.run_google_benchmarks && argc > 1)
    reject("unrecognized argument '" + std::string(argv[1]) + "'");
  options.run = flags.options;
  return options;
}

Harness::Harness(std::string bench_name, HarnessOptions options)
    : bench_name_(std::move(bench_name)), options_(options) {}

FigureRecord& Harness::entry(const std::string& figure,
                             const std::string& config) {
  for (auto& record : records_)
    if (record.figure == figure && record.config == config) return record;
  records_.push_back(FigureRecord{figure, config, {}});
  return records_.back();
}

hpfc::runtime::RunOptions Harness::run_options(unsigned seed) const {
  hpfc::runtime::RunOptions run_options = options_.run;
  if (seed != 0) run_options.seed = seed;
  return run_options;
}

LevelRecord Harness::measure_level(const Factory& factory, OptLevel level,
                                   unsigned seed) {
  std::vector<double> compile_samples;
  std::vector<double> run_samples;
  std::vector<double> exec_samples;
  std::vector<double> pack_samples;
  std::vector<double> exchange_samples;
  std::vector<double> unpack_samples;
  Compiled compiled;
  RunReport report;
  const hpfc::runtime::RunOptions run_opts = run_options(seed);
  bool oracle_checked = false;
  std::uint64_t oracle_signature = 0;
  for (int rep = 0; rep < options_.warmup + options_.reps; ++rep) {
    const double compile_ms =
        wall_ms([&] { compiled = compile(factory(), level); });
    const double run_ms =
        wall_ms([&] { report = hpfc::driver::run(compiled, run_opts); });
    // Cross-check against the sequential oracle outside the timed
    // region; the simulation is deterministic, so once per level is
    // enough for the reference signature.
    if (!oracle_checked) {
      oracle_signature =
          hpfc::driver::run_oracle(compiled, run_opts).signature;
      oracle_checked = true;
    }
    if (report.signature != oracle_signature || !report.exported_values_ok) {
      std::fprintf(stderr, "benchmark run diverged from the oracle\n");
      std::abort();
    }
    if (rep >= options_.warmup) {
      compile_samples.push_back(compile_ms);
      run_samples.push_back(run_ms);
      exec_samples.push_back(report.exec_ms);
      pack_samples.push_back(report.pack_ms);
      exchange_samples.push_back(report.exchange_ms);
      unpack_samples.push_back(report.unpack_ms);
    }
  }

  report.exec_ms = median(std::move(exec_samples));
  report.pack_ms = median(std::move(pack_samples));
  report.exchange_ms = median(std::move(exchange_samples));
  report.unpack_ms = median(std::move(unpack_samples));
  return LevelRecord{hpfc::driver::to_string(level), std::move(report),
                     /*host_allocs=*/0, median(std::move(compile_samples)),
                     median(std::move(run_samples))};
}

void Harness::measure(const std::string& figure, const std::string& config,
                      const Factory& factory, std::vector<OptLevel> levels,
                      unsigned seed) {
  if (seed == 0) seed = options_.run.seed;
  FigureRecord& record = entry(figure, config);
  for (const OptLevel level : levels) {
    LevelRecord measured = measure_level(factory, level, seed);
    row(config + " " + measured.level, measured.report);
    record.levels.push_back(std::move(measured));
  }
}

void Harness::record(const std::string& figure, const std::string& config,
                     LevelRecord level) {
  entry(figure, config).levels.push_back(std::move(level));
}

void Harness::record_timing(const std::string& figure,
                            const std::string& config,
                            const std::string& level, double wall_ms) {
  record(figure, config, LevelRecord{level, {}, 0, wall_ms, 0.0});
}

double Harness::median_ms(const std::function<void()>& timed,
                          const std::function<void()>& setup) const {
  std::vector<double> samples;
  for (int rep = 0; rep < options_.warmup + options_.reps; ++rep) {
    if (setup) setup();
    const double ms = wall_ms(timed);
    if (rep >= options_.warmup) samples.push_back(ms);
  }
  return median(std::move(samples));
}

bool Harness::write_json() const {
  if (options_.json_path.empty()) return true;
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"hpfc-bench-v1\",\n";
  os << "  \"bench\": \"" << hpfc::json_escape(bench_name_) << "\",\n";
  os << "  \"reps\": " << options_.reps << ",\n";
  os << "  \"warmup\": " << options_.warmup << ",\n";
  os << "  \"seed\": " << options_.run.seed << ",\n";
  os << "  \"backend\": \"" << hpfc::exec::to_string(options_.run.backend)
     << "\",\n";
  os << "  \"threads\": " << options_.run.threads << ",\n";
  // The host's core count, so thread and proc rows read against it.
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n";
  if (options_.calibration.samples > 0) {
    os << "  ";
    hpfc::runtime::write_json_calibration(os, options_.calibration);
    os << ",\n";
  }
  os << "  \"figures\": [";
  bool first_figure = true;
  for (const auto& record : records_) {
    os << (first_figure ? "\n" : ",\n");
    first_figure = false;
    os << "    {\"figure\": \"" << hpfc::json_escape(record.figure)
       << "\", \"config\": \"" << hpfc::json_escape(record.config)
       << "\", \"levels\": [";
    bool first_level = true;
    for (const auto& l : record.levels) {
      os << (first_level ? "\n" : ",\n");
      first_level = false;
      os << "      {\"level\": \"" << hpfc::json_escape(l.level) << "\", ";
      hpfc::runtime::write_json_fields(os, l.report);
      os << ", \"host_allocs\": " << l.host_allocs
         << ", \"compile_wall_ms\": " << l.compile_wall_ms
         << ", \"run_wall_ms\": " << l.run_wall_ms;
      if (l.tiles > 0) os << ", \"tiles\": " << l.tiles;
      os << "}";
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";

  std::ofstream out(options_.json_path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n",
                 options_.json_path.c_str());
    return false;
  }
  out << os.str();
  return static_cast<bool>(out);
}

int bench_main(int argc, char** argv, const std::string& bench_name,
               const std::function<void(Harness&)>& body) {
  HarnessOptions options = HarnessOptions::parse(argc, argv);
  if (options.run_google_benchmarks) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  }
  if (options.calibrate) {
    try {
      options.calibration = hpfc::exec::calibrate_wire(
          /*ranks=*/4, hpfc::exec::ProcConfig{options.run.proc_timeout_ms});
    } catch (const std::exception& err) {
      std::fprintf(stderr, "bench: calibration failed: %s\n", err.what());
      return 1;
    }
    options.run.cost = options.calibration.cost_model();
    std::printf("calibrated: alpha = %.3f us/msg, beta = %.4f ns/byte "
                "(%d samples)\n",
                options.calibration.latency * 1e6,
                options.calibration.inv_bandwidth * 1e9,
                options.calibration.samples);
  }
  Harness harness(bench_name, options);
  body(harness);
  if (!harness.write_json()) return 1;
  if (options.run_google_benchmarks) benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace bench_common
