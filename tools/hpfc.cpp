// hpfc — command-line driver for the HPF-lite remapping compiler.
//
//   hpfc <file.hpf> [options]
//
//   --opt=O0|O1|O2      optimization level (default O2)
//   --dump-program      print the parsed routine
//   --dump-graph        print the remapping graph G_R
//   --dump-dot          print G_R in graphviz format
//   --dump-code         print the generated guard/copy code
//   --run               execute on the simulated machine vs the oracle
//   --compare           execute at all three levels and tabulate
//   --validate          run the Theorem 1 validator
//   --report-json=PATH  dump the per-level RunReport counters as JSON
//   --list-toggles      print the registered toggle table and exit
//   --calibrate         fit the cost model's alpha/beta from measured
//                       proc-backend round-trips before running, and
//                       record the constants in the report JSON
//
// The machine flags (--backend/--threads/--ranks/--seed/
// --proc-timeout-ms/--snapshot-dir/--snapshot-every) and every toggle
// (--paranoid) come from the shared support::cli surface —
// see `hpfc --list-toggles` and src/runtime/toggles.hpp. With
// --snapshot-dir the run seals crash-consistent snapshots and the
// report's restore_ms times persist::restore() of the final store.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "persist/snapshot.hpp"
#include "support/cli.hpp"

namespace {

using namespace hpfc;

struct Options {
  std::string file;
  driver::OptLevel level = driver::OptLevel::O2;
  bool dump_program = false;
  bool dump_graph = false;
  bool dump_dot = false;
  bool dump_code = false;
  bool run = false;
  bool compare = false;
  bool validate = false;
  bool calibrate = false;
  support::cli::RunFlags flags;
  std::string report_json;
  // Filled by --calibrate before any run.
  exec::Calibration calibration;
};

/// One executed level's counters, collected for --report-json.
struct LevelReport {
  std::string level;
  runtime::RunReport report;
  bool oracle_match = false;
};

int usage() {
  std::cerr
      << "usage: hpfc <file.hpf> [--opt=O0|O1|O2] [--dump-program]\n"
         "            [--dump-graph] [--dump-dot] [--dump-code]\n"
         "            [--run] [--compare] [--validate] [--calibrate]\n"
         "            [--report-json=PATH] [--list-toggles]\n"
      << support::cli::usage();
  return 2;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (options.flags.consume(arg)) {
      case support::cli::Parsed::Consumed:
        continue;
      case support::cli::Parsed::Error:
        std::cerr << "hpfc: " << options.flags.error << "\n";
        return false;
      case support::cli::Parsed::Unrecognized:
        break;
    }
    if (arg == "--dump-program") options.dump_program = true;
    else if (arg == "--dump-graph") options.dump_graph = true;
    else if (arg == "--dump-dot") options.dump_dot = true;
    else if (arg == "--dump-code") options.dump_code = true;
    else if (arg == "--run") options.run = true;
    else if (arg == "--compare") options.compare = true;
    else if (arg == "--validate") options.validate = true;
    else if (arg == "--calibrate") options.calibrate = true;
    else if (arg.rfind("--opt=", 0) == 0) {
      const std::string level = arg.substr(6);
      if (level == "O0") options.level = driver::OptLevel::O0;
      else if (level == "O1") options.level = driver::OptLevel::O1;
      else if (level == "O2") options.level = driver::OptLevel::O2;
      else return false;
    } else if (arg.rfind("--report-json=", 0) == 0) {
      options.report_json = arg.substr(14);
    } else if (!arg.empty() && arg[0] != '-' && options.file.empty()) {
      options.file = arg;
    } else {
      return false;
    }
  }
  return !options.file.empty();
}

void print_run(const char* tag, const runtime::RunReport& report,
               bool matches) {
  std::cout << tag << ": " << report.summary()
            << (matches ? "  [oracle-match]" : "  [MISMATCH]") << "\n";
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  return escaped;
}

bool write_report_json(const Options& options,
                       const std::vector<LevelReport>& levels) {
  std::ofstream out(options.report_json);
  if (!out) {
    std::cerr << "hpfc: cannot write " << options.report_json << "\n";
    return false;
  }
  const runtime::RunOptions& run = options.flags.options;
  // Machine configuration: resolved values from an executed run when one
  // exists, the requested options otherwise.
  const int ranks = levels.empty() ? run.ranks : levels.front().report.ranks;
  const std::string backend = levels.empty()
                                  ? hpfc::exec::to_string(run.backend)
                                  : levels.front().report.backend;
  const int threads =
      levels.empty() ? run.threads : levels.front().report.threads;
  out << "{\n  \"schema\": \"hpfc-report-v1\",\n";
  out << "  \"source\": \"" << json_escape(options.file) << "\",\n";
  out << "  \"seed\": " << run.seed << ",\n";
  out << "  \"ranks\": " << ranks << ",\n";
  out << "  \"backend\": \"" << json_escape(backend) << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  if (options.calibrate) {
    out << "  \"calibration\": {\"latency_s\": "
        << options.calibration.latency << ", \"inv_bandwidth_s_per_byte\": "
        << options.calibration.inv_bandwidth
        << ", \"samples\": " << options.calibration.samples << "},\n";
  }
  out << "  \"levels\": [";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& l = levels[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"level\": \"" << l.level << "\""
        << ", \"copies_performed\": " << l.report.copies_performed
        << ", \"elements_copied\": " << l.report.elements_copied
        << ", \"messages\": " << l.report.net.messages
        << ", \"bytes\": " << l.report.net.bytes
        << ", \"local_copies\": " << l.report.net.local_copies
        << ", \"segments\": " << l.report.net.segments
        << ", \"supersteps\": " << l.report.net.supersteps
        << ", \"fused_copies\": " << l.report.net.fused_copies
        << ", \"specialized_kernels\": " << l.report.net.specialized_kernels
        << ", \"specialized_dispatches\": "
        << l.report.net.specialized_dispatches
        << ", \"plan_cache_hits\": " << l.report.net.plan_cache_hits
        << ", \"plan_cache_misses\": " << l.report.net.plan_cache_misses
        << ", \"symbolic_instantiations\": "
        << l.report.net.symbolic_instantiations
        << ", \"plan_evictions\": " << l.report.plan_evictions
        << ", \"packed_bytes\": " << l.report.packed_bytes
        << ", \"local_fastpath_copies\": " << l.report.local_fastpath_copies
        << ", \"skipped_already_mapped\": "
        << l.report.skipped_already_mapped
        << ", \"skipped_live_copy\": " << l.report.skipped_live_copy
        << ", \"sim_time_ms\": " << l.report.net.sim_time * 1e3
        << ", \"wire_bytes\": " << l.report.wire_bytes
        << ", \"wire_msgs\": " << l.report.wire_msgs
        << ", \"proc_spawns\": " << l.report.proc_spawns
        << ", \"snapshot_bytes\": " << l.report.snapshot_bytes
        << ", \"snapshot_runs_written\": " << l.report.snapshot_runs_written
        << ", \"snapshot_ms\": " << l.report.snapshot_ms
        << ", \"restore_ms\": " << l.report.restore_ms
        << ", \"exec_ms\": " << l.report.exec_ms
        << ", \"pack_ms\": " << l.report.pack_ms
        << ", \"exchange_ms\": " << l.report.exchange_ms
        << ", \"unpack_ms\": " << l.report.unpack_ms
        << ", \"oracle_match\": " << (l.oracle_match ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

int run_level(const std::string& source, const Options& options,
              driver::OptLevel level, bool verbose,
              std::vector<LevelReport>& reports) {
  DiagnosticEngine diags;
  driver::CompileOptions compile_options;
  compile_options.level = level;
  compile_options.validate_theorem1 = options.validate;
  const auto compiled =
      driver::compile_source(source, compile_options, diags);
  for (const auto& d : diags.all()) std::cerr << to_string(d) << "\n";
  if (!compiled.ok) return 1;
  if (options.validate && !compiled.opt_report.theorem1_holds) {
    std::cerr << "Theorem 1 validation FAILED\n";
    return 1;
  }

  if (verbose) {
    if (options.dump_program)
      std::cout << compiled.program.to_string() << "\n";
    if (options.dump_graph)
      std::cout << compiled.analysis.graph.to_text(compiled.program) << "\n";
    if (options.dump_dot)
      std::cout << compiled.analysis.graph.to_dot(compiled.program) << "\n";
    if (options.dump_code)
      std::cout << compiled.code.to_text(compiled.program) << "\n";
    if (options.validate)
      std::cout << "Theorem 1 validated; removed remappings: "
                << compiled.opt_report.removed_remappings
                << ", hoisted: " << compiled.opt_report.hoisted_remaps
                << "\n";
  }

  if (options.run || options.compare) {
    const runtime::RunOptions& run_options = options.flags.options;
    const auto oracle = driver::run_oracle(compiled, run_options);
    auto report = driver::run(compiled, run_options);
    if (!run_options.snapshot_dir.empty()) {
      // Close the crash-consistency loop: rebuild the sealed store and
      // report the recovery cost next to the run that produced it.
      const auto restored = persist::restore(run_options.snapshot_dir);
      if (!restored.valid) {
        std::cerr << "hpfc: snapshot restore found no sealed epoch\n";
        return 1;
      }
      report.restore_ms = restored.restore_ms;
    }
    const bool matches = report.signature == oracle.signature &&
                         report.exported_values_ok;
    print_run(driver::to_string(level), report, matches);
    reports.push_back({driver::to_string(level), report, matches});
    if (report.signature != oracle.signature) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--list-toggles") {
      std::cout << support::cli::toggle_table();
      return 0;
    }
  }

  Options options;
  options.flags.options.seed = 7;  // the historical CLI default
  if (!parse_args(argc, argv, options)) return usage();

  std::ifstream in(options.file);
  if (!in) {
    std::cerr << "hpfc: cannot open " << options.file << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  if (options.calibrate) {
    runtime::RunOptions& run = options.flags.options;
    try {
      options.calibration = exec::calibrate_wire(
          /*ranks=*/4, exec::ProcConfig{run.proc_timeout_ms});
    } catch (const std::exception& err) {
      std::cerr << "hpfc: calibration failed: " << err.what() << "\n";
      return 1;
    }
    run.cost = options.calibration.cost_model();
    std::cout << "calibrated: alpha = " << options.calibration.latency * 1e6
              << " us/msg, beta = "
              << options.calibration.inv_bandwidth * 1e9 << " ns/byte ("
              << options.calibration.samples << " samples)\n";
  }

  std::vector<LevelReport> reports;
  int status = 0;
  try {
    if (options.compare) {
      bool verbose = true;
      for (const auto level : {driver::OptLevel::O0, driver::OptLevel::O1,
                               driver::OptLevel::O2}) {
        status |= run_level(source, options, level, verbose, reports);
        verbose = false;  // dumps once, at the first level
      }
    } else {
      status = run_level(source, options, options.level, /*verbose=*/true,
                         reports);
    }
  } catch (const std::exception& err) {
    // A run that cannot start or finish (e.g. a proc mesh beyond the
    // open-file limit) is a diagnosed failure, not an abort.
    std::cerr << "hpfc: " << err.what() << "\n";
    return 1;
  }
  if (!options.report_json.empty() && !write_report_json(options, reports))
    status = 1;
  return status;
}
