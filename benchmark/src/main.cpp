// hpfc_e2e: runs one workload of the end-to-end benchmark for a fixed time
// and writes its metrics as JSON. benchmark/run builds and drives it.
//
//   hpfc_e2e --workload=NAME --seed=S --seconds=T --programs=DIR
//            --work=DIR --json=PATH [--trace=PATH]
//
// Set-up (make the inputs from the seed, compile, compute the sequential
// oracle of every (program, run seed) pair, run every op of the op set
// once cold) runs seven times, once before the ops and the rest spread
// over the run; setup_s is the median. A closed loop issues ops back to
// back from this one process,
// cycle after cycle through a fixed op set, until T seconds of ops have
// passed. Every op is checked against the oracle. With --trace, every op
// runs twice, untraced (the end-to-end numbers) and traced (the per-layer
// split), and the spans are written to PATH as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alloc_count.hpp"
#include "driver/compiler.hpp"
#include "persist/snapshot.hpp"
#include "pipeline.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using hpfc::driver::Compiled;
using hpfc::driver::OptLevel;
using hpfc::runtime::RunReport;

constexpr std::size_t kSetups = 7;
/// A runtime workload's op set: this many run seeds, split evenly over
/// the program's control-flow paths.
constexpr std::size_t kOpSetSize = 4;
/// Candidate run seeds scanned for paths; a path taken with probability
/// 1/2 is missed with probability 2^-15.
constexpr unsigned kCandidateSeeds = 16;
/// compile_mix's run seeds are fixed, like its corpus: the random
/// programs' copies depend on the branches a run seed takes.
constexpr unsigned kCorpusRunSeed = 1000;
constexpr OptLevel kLevels[] = {OptLevel::O0, OptLevel::O1, OptLevel::O2};
constexpr std::uint32_t kTraceFileOps = 2000;

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean_from(const std::vector<double>& v, std::size_t first) {
  double sum = 0;
  for (std::size_t i = first; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - first);
}

/// What one op produced that must repeat exactly whenever the same
/// (program, level, run seed) runs again.
struct OpCounters {
  int vertices = 0;
  int versions = 0;
  int removed_remappings = 0;
  int hoisted_remaps = 0;
  int copy_ops = 0;
  int plan_slots = 0;
  int copy_groups = 0;
  std::uint64_t elements_copied = 0;
  hpfc::net::NetStats net;
  int copies_performed = 0;
  int allocations = 0;
  int skipped_already_mapped = 0;
  int skipped_live_copy = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t local_fastpath_copies = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_runs_written = 0;
  std::uint64_t restored_epoch = 0;

  bool operator==(const OpCounters&) const = default;
};

void add_compile_counters(OpCounters& c, const Compiled& compiled) {
  c.vertices = static_cast<int>(compiled.analysis.graph.vertices().size());
  c.versions = compiled.total_versions();
  c.removed_remappings = compiled.opt_report.removed_remappings;
  c.hoisted_remaps = compiled.opt_report.hoisted_remaps;
  c.copy_ops = compiled.code.count(hpfc::codegen::OpKind::Copy);
  c.plan_slots = compiled.code.plan_slots;
  c.copy_groups = compiled.code.copy_groups;
}

/// Timings of one pass (untraced or traced); sums are over its runs.
struct Pass {
  std::vector<double> run_ms;      ///< per successful run
  std::vector<double> compile_ms;  ///< per compile
  /// Per cycle through the op set: mean run_ms of its ops, and mean
  /// compile_ms of the compiles made in it (in runtime workloads, which
  /// compile only in set-up: per set-up).
  std::vector<double> cycle_run_ms;
  std::vector<double> cycle_compile_ms;
  std::vector<double> restore_ms;
  std::vector<double> span_sum_ms;  ///< traced compiles: sum of pass spans
  double exec_ms = 0;
  double pack_ms = 0;
  double exchange_ms = 0;
  double unpack_ms = 0;
  double snapshot_ms = 0;
  double unattributed_ms = 0;
  double outside_exec_ms = 0;
  double host_allocs = 0;
  double packed_bytes = 0;
  double snapshot_bytes = 0;
  double wire_bytes = 0;
  double wire_msgs = 0;
  double proc_spawns = 0;
  double journal_bytes = 0;
  double restored_bytes = 0;
  long attempted = 0;
  long failed = 0;

  /// Closes a cycle that started when run_ms / compile_ms had these sizes.
  void end_cycle(std::size_t runs, std::size_t compiles) {
    if (run_ms.size() > runs) cycle_run_ms.push_back(mean_from(run_ms, runs));
    if (compile_ms.size() > compiles)
      cycle_compile_ms.push_back(mean_from(compile_ms, compiles));
  }
};

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  std::string programs_dir;
  std::string work_dir;
  std::string json_path;
  std::string trace_path;
};

/// One op of the op set: which program, at which level, with which run
/// seed, and the oracle's signature for that (program, seed).
struct Slot {
  std::size_t program = 0;
  OptLevel level = OptLevel::O0;
  unsigned seed = 0;
  std::uint64_t oracle = 0;

  bool operator==(const Slot&) const = default;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  /// One set-up, timed into setup_s: inputs from the seed, compile,
  /// oracles, a cold op per slot. Runtime workloads compile their program at
  /// O0, O1 and O2, so every workload times every compiler pass; their ops
  /// run the run level's compile. Those compiles are the compile samples
  /// of `untraced` and, step by step under spans, of `traced`. Every
  /// set-up must rebuild the first one's op set.
  void setup(Pass& untraced, Pass& traced, Tracer* tracer) {
    const auto setup_start = Clock::now();
    Workload w =
        make_workload(args_.workload, args_.programs_dir, args_.work_dir);
    std::vector<Slot> slots;
    std::optional<Compiled> compiled;
    const auto oracle = [this](const Compiled& c,
                               hpfc::runtime::RunOptions options,
                               unsigned seed) {
      options.seed = seed;
      const auto start = Clock::now();
      RunReport report = hpfc::driver::run_oracle(c, options);
      oracle_ms_.push_back(ms_between(start, Clock::now()));
      return report;
    };
    if (w.compile_in_op) {
      // One oracle per program at its run seed, from the O0 compile; every
      // level must reproduce it.
      for (std::size_t j = 0; j < w.programs.size(); ++j) {
        double ms = 0;
        const Compiled c = compile(w.programs[j], OptLevel::O0, ms);
        if (!c.ok)
          throw std::runtime_error("set-up compile of " + w.programs[j].name +
                                   " failed");
        const unsigned seed = kCorpusRunSeed + static_cast<unsigned>(j);
        const std::uint64_t signature = oracle(c, w.run, seed).signature;
        for (const OptLevel level : kLevels)
          slots.push_back(Slot{j, level, seed, signature});
      }
    } else {
      const ProgramSpec& spec = w.programs.front();
      const std::size_t compiles[2] = {untraced.compile_ms.size(),
                                       traced.compile_ms.size()};
      for (const OptLevel level : kLevels) {
        Compiled c = timed_compile(spec, level, untraced, nullptr);
        if (!c.ok || !c.opt_report.theorem1_holds)
          throw std::runtime_error(
              "set-up compile at " +
              std::string(hpfc::driver::to_string(level)) + " failed");
        if (tracer != nullptr) {
          const std::string diff =
              compare_compiled(c, timed_compile(spec, level, traced, tracer));
          if (!diff.empty())
            add_drift("step-by-step compile at " +
                      std::string(hpfc::driver::to_string(level)) +
                      " differs: " + diff);
        }
        if (level == w.run_level) compiled = std::move(c);
      }
      untraced.end_cycle(untraced.run_ms.size(), compiles[0]);
      traced.end_cycle(traced.run_ms.size(), compiles[1]);
      // Group candidate seeds S*1000 + j by the path the oracle took and
      // take the same number from each path, so every seed gives the same
      // mix of paths (fig10 and fig18 branch on the run seed).
      std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
               std::vector<Slot>>
          paths;
      for (unsigned j = 0; j < kCandidateSeeds; ++j) {
        const unsigned seed = args_.seed * 1000u + j;
        const RunReport r = oracle(*compiled, w.run, seed);
        paths[{r.reads, r.writes, r.signature}].push_back(
            Slot{0, w.run_level, seed, r.signature});
      }
      const std::size_t quota = std::max<std::size_t>(1, kOpSetSize / paths.size());
      for (const auto& [key, candidates] : paths)
        for (std::size_t i = 0; i < quota && i < candidates.size(); ++i)
          slots.push_back(candidates[i]);
    }
    if (w.checkpoint) {
      std::filesystem::remove_all(w.run.snapshot_dir);
      std::filesystem::create_directories(w.run.snapshot_dir);
    }
    if (slots_.empty()) {
      records_.assign(slots.size(), std::nullopt);
      drift_checked_.assign(slots.size(), false);
    } else if (slots != slots_) {
      throw std::runtime_error("set-up built another op set than the first");
    }
    workload_ = std::move(w);
    compiled_ = std::move(compiled);
    slots_ = std::move(slots);
    // One cold op per slot, which also warms every slot before the timed
    // ops. The first set-up's cold ops fix the slots' counters; later
    // set-ups' must repeat them, like any op.
    Pass cold;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot)
      run_op(slot, cold, nullptr);
    if (cold.failed > 0)
      throw std::runtime_error("cold op failed: " + errors_.back());
    setup_s_.push_back(ms_between(setup_start, Clock::now()) / 1e3);
  }

  /// Measures `seconds` of ops into `untraced`, cycle after cycle through
  /// the op set. The set-ups after the first are spread evenly over those
  /// seconds, and their own time is not counted in them, so setup_s
  /// samples the host over the whole run, as the ops do. With a tracer,
  /// every op runs twice, once untraced and once traced into `traced`, in
  /// alternating order, so host noise hits both sets alike.
  void measure(double seconds, Pass& untraced, Pass& traced, Tracer* tracer) {
    std::size_t k = 0;
    const auto pair = [&](const auto& op) {
      if (tracer == nullptr) return op(untraced, nullptr);
      const bool traced_first = k++ % 2 == 1;
      op(traced_first ? traced : untraced, traced_first ? tracer : nullptr);
      op(traced_first ? untraced : traced, traced_first ? nullptr : tracer);
    };
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const auto setup_every = window / static_cast<Clock::rep>(kSetups);
    Clock::duration measured{};
    do {
      const auto cycle_start = Clock::now();
      const std::size_t runs[2] = {untraced.run_ms.size(), traced.run_ms.size()};
      const std::size_t compiles[2] = {untraced.compile_ms.size(),
                                       traced.compile_ms.size()};
      for (std::size_t slot = 0; slot < slots_.size(); ++slot)
        pair([&](Pass& p, Tracer* t) { run_op(slot, p, t); });
      untraced.end_cycle(runs[0], compiles[0]);
      traced.end_cycle(runs[1], compiles[1]);
      measured += Clock::now() - cycle_start;
      if (setup_s_.size() < kSetups &&
          measured >= setup_every * static_cast<Clock::rep>(setup_s_.size()))
        setup(untraced, traced, tracer);
    } while (measured < window);
    while (setup_s_.size() < kSetups) setup(untraced, traced, tracer);
  }

  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }
  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  [[nodiscard]] const std::vector<std::string>& drift() const {
    return drift_;
  }
  [[nodiscard]] const std::vector<double>& oracle_ms() const {
    return oracle_ms_;
  }
  [[nodiscard]] std::size_t op_set_size() const { return slots_.size(); }
  [[nodiscard]] std::vector<unsigned> run_seeds() const {
    std::vector<unsigned> seeds;
    for (const Slot& slot : slots_)
      if (seeds.empty() || seeds.back() != slot.seed) seeds.push_back(slot.seed);
    return seeds;
  }

  /// Mean of a counter over the op set's recorded slots (a slot whose
  /// every op failed has no record).
  template <typename F>
  [[nodiscard]] double op_set_mean(F field) const {
    double sum = 0;
    double n = 0;
    for (const auto& record : records_) {
      if (!record) continue;
      sum += static_cast<double>(field(*record));
      n += 1;
    }
    return n > 0 ? sum / n : 0.0;
  }

  void add_drift(const std::string& what) {
    if (drift_.size() < 5) drift_.push_back(what);
  }

 private:
  void fail(Pass& pass, const std::string& what) {
    ++pass.failed;
    if (errors_.size() < 5) errors_.push_back(what);
  }

  /// Compiles with a "compile" span in traced passes, under `parent` or,
  /// when parent < 0, under a root "setup" span of its own; records
  /// compile_ms and, traced, the span sum.
  Compiled timed_compile(const ProgramSpec& spec, OptLevel level, Pass& pass,
                         Tracer* tracer, int parent = -1) {
    if (tracer == nullptr) {
      double ms = 0;
      Compiled compiled = compile(spec, level, ms);
      pass.compile_ms.push_back(ms);
      return compiled;
    }
    if (parent < 0) tracer->begin_op(next_trace_++);
    Scope root(parent < 0 ? tracer : nullptr, "setup");
    Scope span(tracer, "compile", parent < 0 ? root.id() : parent);
    const auto start = Clock::now();
    Compiled compiled = compile_traced(spec, level, *tracer, span.id());
    pass.compile_ms.push_back(ms_between(start, Clock::now()));
    pass.span_sum_ms.push_back(tracer->child_ms(span.id()));
    return compiled;
  }

  /// One op on op-set slot `index`: compile (compile_mix only), run,
  /// restore (checkpoint only), and check everything.
  void run_op(std::size_t index, Pass& pass, Tracer* tracer) {
    ++pass.attempted;
    const Slot& slot = slots_[index];
    if (tracer != nullptr) tracer->begin_op(next_trace_++);
    Scope root(tracer, "op");
    try {
      OpCounters counters;
      std::optional<Compiled> fresh;
      const Compiled* compiled = compiled_ ? &*compiled_ : nullptr;
      if (workload_.compile_in_op) {
        const ProgramSpec& spec = workload_.programs[slot.program];
        fresh = timed_compile(spec, slot.level, pass, tracer, root.id());
        if (!fresh->ok || !fresh->opt_report.theorem1_holds)
          return fail(pass, "compile of " + spec.name + " failed");
        if (tracer != nullptr && !drift_checked_[index]) {
          drift_checked_[index] = true;
          double ms = 0;
          const std::string diff =
              compare_compiled(compile(spec, slot.level, ms), *fresh);
          if (!diff.empty())
            add_drift("step-by-step compile of " + spec.name +
                      " differs: " + diff);
        }
        compiled = &*fresh;
      }
      add_compile_counters(counters, *compiled);

      hpfc::runtime::RunOptions options = workload_.run;
      options.seed = slot.seed;
      const std::uint64_t allocs_before = host_allocations();
      RunReport report;
      double run_ms = 0;
      {
        Scope span(tracer, "run", root.id());
        const auto start = Clock::now();
        report = hpfc::driver::run(*compiled, options);
        run_ms = ms_between(start, Clock::now());
        span.arg("exec_ms", report.exec_ms);
        span.arg("pack_ms", report.pack_ms);
        span.arg("exchange_ms", report.exchange_ms);
        span.arg("unpack_ms", report.unpack_ms);
        span.arg("snapshot_ms", report.snapshot_ms);
      }
      const auto allocs =
          static_cast<double>(host_allocations() - allocs_before);
      if (report.signature != slot.oracle)
        return fail(pass, "signature differs from the oracle (run seed " +
                              std::to_string(slot.seed) + ")");
      if (!report.exported_values_ok)
        return fail(pass, "exported values differ from the oracle");
      const double unattributed = report.exec_ms - report.pack_ms -
                                  report.exchange_ms - report.unpack_ms -
                                  report.snapshot_ms;
      if (unattributed < -1e-6)
        add_drift("runtime.unattributed_ms is negative: " +
                  std::to_string(unattributed));

      counters.elements_copied = report.elements_copied;
      counters.net = report.net;
      counters.copies_performed = report.copies_performed;
      counters.allocations = report.allocations;
      counters.skipped_already_mapped = report.skipped_already_mapped;
      counters.skipped_live_copy = report.skipped_live_copy;
      counters.peak_bytes = report.peak_bytes;
      counters.local_fastpath_copies = report.local_fastpath_copies;
      counters.snapshot_bytes = report.snapshot_bytes;
      counters.snapshot_runs_written = report.snapshot_runs_written;

      double journal_bytes = 0;
      if (workload_.checkpoint) {
        for (const auto& entry : std::filesystem::directory_iterator(
                 workload_.run.snapshot_dir))
          if (entry.is_regular_file())
            journal_bytes += static_cast<double>(entry.file_size());
        hpfc::persist::RestoredStore restored;
        {
          Scope span(tracer, "restore", root.id());
          const auto start = Clock::now();
          restored = hpfc::persist::restore(workload_.run.snapshot_dir);
          pass.restore_ms.push_back(ms_between(start, Clock::now()));
        }
        for (const auto& version : restored.versions)
          for (const auto& rank_runs : version.runs)
            for (const auto& run : rank_runs.second)
              pass.restored_bytes +=
                  static_cast<double>(run.values.size() * sizeof(double));
        if (!restored.valid || restored.torn_tail)
          return fail(pass, "restore found no clean sealed epoch");
        if (restored.write_counter != report.writes)
          return fail(pass, "restored write counter differs from the run");
        counters.restored_epoch = restored.epoch;
      }

      // The first run of each slot fixes its counters (and, in
      // checkpoint, the epoch restore must find); later runs must match.
      if (!records_[index]) {
        records_[index] = counters;
      } else if (!(*records_[index] == counters)) {
        return fail(pass, "counters of op slot " + std::to_string(index) +
                              " differ from its first run");
      }

      pass.run_ms.push_back(run_ms);
      pass.exec_ms += report.exec_ms;
      pass.pack_ms += report.pack_ms;
      pass.exchange_ms += report.exchange_ms;
      pass.unpack_ms += report.unpack_ms;
      pass.snapshot_ms += report.snapshot_ms;
      pass.unattributed_ms += unattributed;
      pass.outside_exec_ms += run_ms - report.exec_ms;
      pass.host_allocs += allocs;
      pass.packed_bytes += static_cast<double>(report.packed_bytes);
      pass.snapshot_bytes += static_cast<double>(report.snapshot_bytes);
      pass.wire_bytes += static_cast<double>(report.wire_bytes);
      pass.wire_msgs += static_cast<double>(report.wire_msgs);
      pass.proc_spawns += static_cast<double>(report.proc_spawns);
      pass.journal_bytes += journal_bytes;
    } catch (const std::exception& error) {
      fail(pass, std::string("exception: ") + error.what());
    }
  }

  Args args_;
  Workload workload_;
  std::optional<Compiled> compiled_;  ///< runtime workloads' run-level compile
  std::vector<Slot> slots_;
  std::vector<double> oracle_ms_;
  std::vector<double> setup_s_;
  std::vector<std::optional<OpCounters>> records_;
  std::vector<bool> drift_checked_;  ///< traced compile compared, per slot
  std::vector<std::string> errors_;
  std::vector<std::string> drift_;
  std::uint32_t next_trace_ = 0;
};

// ---- output ---------------------------------------------------------------

class MetricWriter {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    std::ostringstream os;
    os << std::setprecision(12) << "\"" << name << "\": {\"value\": "
       << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
       << "\", \"samples\": " << samples << "}";
    entries_.push_back(os.str());
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i)
      out += (i ? ",\n    " : "\n    ") + entries_[i];
    return out + "\n  }";
  }

 private:
  std::vector<std::string> entries_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The end-to-end metrics, and the wall-clock timings of the driver's
/// calls, all from the untraced ops.
void end_to_end(MetricWriter& m, const Bench& bench, const Pass& pass,
                const std::vector<double>& setup_s) {
  m.add("elements_copied",
        bench.op_set_mean([](const OpCounters& c) { return c.elements_copied; }),
        "elements", bench.op_set_size());
  m.add("setup_s", median(setup_s), "s", setup_s.size());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB", 1);
  // Medians are over cycles (each sample is the mean over one pass
  // through the op set); percentiles are over single runs and compiles.
  m.add("driver.run_ms", median(pass.cycle_run_ms), "ms",
        pass.cycle_run_ms.size());
  m.add("driver.run_ms_p90", percentile(pass.run_ms, 0.90), "ms",
        pass.run_ms.size());
  m.add("driver.compile_ms", median(pass.cycle_compile_ms), "ms",
        pass.cycle_compile_ms.size());
  m.add("driver.compile_ms_p99", percentile(pass.compile_ms, 0.99), "ms",
        pass.compile_ms.size());
}

/// The per-layer split, from the traced ops.
void per_layer(MetricWriter& m, const Bench& bench, const Pass& traced,
               const Pass& untraced, const Tracer& tracer) {
  const auto self = tracer.self_ms();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto compiles = static_cast<double>(traced.compile_ms.size());
  const auto runs = static_cast<double>(traced.run_ms.size());
  const std::size_t nc = traced.compile_ms.size();
  const std::size_t nr = traced.run_ms.size();
  const std::size_t ns = bench.op_set_size();
  const auto mean = [&bench](auto field) { return bench.op_set_mean(field); };
  const auto compile_span = [&](const char* metric, const char* span) {
    m.add(metric, ratio(self_of(span), compiles), "ms", nc);
  };

  compile_span("hpf.parse_ms", "hpf.parse");
  compile_span("remap.analyze_ms", "remap.analyze");
  m.add("remap.vertices", mean([](const OpCounters& c) { return c.vertices; }),
        "count", ns);
  m.add("remap.versions", mean([](const OpCounters& c) { return c.versions; }),
        "count", ns);
  compile_span("opt.hoist_ms", "opt.hoist");
  compile_span("opt.useless_ms", "opt.useless");
  compile_span("opt.maybe_live_ms", "opt.maybe_live");
  compile_span("opt.validate_ms", "opt.validate");
  m.add("opt.removed_remappings",
        mean([](const OpCounters& c) { return c.removed_remappings; }),
        "count", ns);
  m.add("opt.hoisted_remaps",
        mean([](const OpCounters& c) { return c.hoisted_remaps; }), "count",
        ns);
  compile_span("codegen.generate_ms", "codegen.generate");
  m.add("codegen.copy_ops", mean([](const OpCounters& c) { return c.copy_ops; }),
        "count", ns);
  m.add("codegen.plan_slots",
        mean([](const OpCounters& c) { return c.plan_slots; }), "count", ns);
  m.add("codegen.copy_groups",
        mean([](const OpCounters& c) { return c.copy_groups; }), "count", ns);

  m.add("runtime.exec_ms", ratio(traced.exec_ms, runs), "ms", nr);
  m.add("runtime.unattributed_ms", ratio(traced.unattributed_ms, runs), "ms",
        nr);
  m.add("runtime.outside_exec_ms", ratio(traced.outside_exec_ms, runs), "ms",
        nr);
  m.add("runtime.host_allocs", ratio(traced.host_allocs, runs), "count", nr);
  m.add("runtime.allocations",
        mean([](const OpCounters& c) { return c.allocations; }), "count", ns);
  m.add("runtime.peak_bytes",
        mean([](const OpCounters& c) { return c.peak_bytes; }), "bytes", ns);
  m.add("runtime.copies_performed",
        mean([](const OpCounters& c) { return c.copies_performed; }), "count",
        ns);
  m.add("runtime.skipped_status_guard",
        mean([](const OpCounters& c) { return c.skipped_already_mapped; }),
        "count", ns);
  m.add("runtime.skipped_live_copy",
        mean([](const OpCounters& c) { return c.skipped_live_copy; }),
        "count", ns);
  m.add("runtime.oracle_ms", median(bench.oracle_ms()), "ms",
        bench.oracle_ms().size());

  m.add("redist.pack_ms", ratio(traced.pack_ms, runs), "ms", nr);
  m.add("redist.unpack_ms", ratio(traced.unpack_ms, runs), "ms", nr);
  const double segments =
      mean([](const OpCounters& c) { return c.net.segments; });
  const double elements =
      mean([](const OpCounters& c) { return c.elements_copied; });
  m.add("redist.pack_segments", segments, "count", ns);
  m.add("redist.elems_per_segment", ratio(elements, segments), "elements", ns);
  // Computed bytes: payload bytes the runtime reports packing, over the
  // pack window's wall time.
  m.add("redist.pack_gb_s", ratio(traced.packed_bytes, traced.pack_ms * 1e6),
        "GB/s", nr);
  m.add("redist.specialized_dispatches",
        mean([](const OpCounters& c) { return c.net.specialized_dispatches; }),
        "count", ns);
  const double hits =
      mean([](const OpCounters& c) { return c.net.plan_cache_hits; });
  const double lookups = hits + mean([](const OpCounters& c) {
                           return c.net.plan_cache_misses;
                         });
  m.add("redist.plan_cache_hit_ratio", ratio(hits, lookups), "ratio", ns);
  m.add("redist.plan_cache_lookups", lookups, "count", ns);
  m.add("redist.symbolic_instantiations",
        mean([](const OpCounters& c) { return c.net.symbolic_instantiations; }),
        "count", ns);

  m.add("exec.exchange_ms", ratio(traced.exchange_ms, runs), "ms", nr);
  m.add("exec.wire_bytes", ratio(traced.wire_bytes, runs), "bytes", nr);
  m.add("exec.wire_msgs", ratio(traced.wire_msgs, runs), "count", nr);
  m.add("exec.proc_spawns", ratio(traced.proc_spawns, runs), "count", nr);
  m.add("exec.wire_gb_s", ratio(traced.wire_bytes, traced.exchange_ms * 1e6),
        "GB/s", nr);

  m.add("net.remote_messages",
        mean([](const OpCounters& c) { return c.net.messages; }), "count", ns);
  m.add("net.remote_bytes",
        mean([](const OpCounters& c) { return c.net.bytes; }), "bytes", ns);
  m.add("net.supersteps",
        mean([](const OpCounters& c) { return c.net.supersteps; }), "count",
        ns);
  m.add("net.fused_copies",
        mean([](const OpCounters& c) { return c.net.fused_copies; }), "count",
        ns);
  m.add("net.local_fastpath_copies",
        mean([](const OpCounters& c) { return c.local_fastpath_copies; }),
        "count", ns);
  m.add("net.sim_ms",
        mean([](const OpCounters& c) { return c.net.sim_time * 1e3; }),
        "sim_ms", ns);

  // Rates rather than times: a workload without snapshots measures none.
  m.add("persist.snapshot_bytes",
        mean([](const OpCounters& c) { return c.snapshot_bytes; }), "bytes",
        ns);
  m.add("persist.snapshot_runs_written",
        mean([](const OpCounters& c) { return c.snapshot_runs_written; }),
        "count", ns);
  m.add("persist.journal_bytes", ratio(traced.journal_bytes, runs), "bytes",
        nr);
  m.add("persist.snapshot_mb_s",
        ratio(traced.snapshot_bytes, traced.snapshot_ms * 1e3), "MB/s", nr);
  double restore_ms = 0;
  for (const double ms : traced.restore_ms) restore_ms += ms;
  m.add("persist.restore_mb_s", ratio(traced.restored_bytes, restore_ms * 1e3),
        "MB/s", traced.restore_ms.size());

  double span_sum_ms = 0;
  for (const double ms : traced.span_sum_ms) span_sum_ms += ms;
  m.add("driver.compile_span_sum_ms", ratio(span_sum_ms, compiles), "ms", nc);
  m.add("trace.overhead_pct",
        100.0 * (ratio(median(traced.cycle_run_ms),
                       median(untraced.cycle_run_ms)) -
                 1.0),
        "%", traced.cycle_run_ms.size());
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("--workload")) args.workload = *v;
    else if (auto v = value("--seed")) args.seed = static_cast<unsigned>(std::stoul(*v));
    else if (auto v = value("--seconds")) args.seconds = std::stod(*v);
    else if (auto v = value("--programs")) args.programs_dir = *v;
    else if (auto v = value("--work")) args.work_dir = *v;
    else if (auto v = value("--json")) args.json_path = *v;
    else if (auto v = value("--trace")) args.trace_path = *v;
    else return false;
  }
  return !args.workload.empty() && !args.programs_dir.empty() &&
         !args.work_dir.empty() && !args.json_path.empty() && args.seconds > 0;
}

int run_main(const Args& args) {
  Bench bench(args);
  const bool traced = !args.trace_path.empty();
  Tracer tracer;
  Pass untraced;
  Pass traced_pass;
  bench.setup(untraced, traced_pass, traced ? &tracer : nullptr);
  bench.measure(args.seconds, untraced, traced_pass,
                traced ? &tracer : nullptr);
  const std::vector<double>& setup_s = bench.setup_s();
  if (traced) {
    // Drift guard: the pass spans must account for the untraced compile,
    // where compiles are ops (compile_mix); the runtime workloads time only
    // a few set-up compiles of tens of microseconds each.
    const double span_sum = median(traced_pass.span_sum_ms);
    const double compile_ms = median(untraced.compile_ms);
    if (bench.workload().compile_in_op &&
        !(std::abs(span_sum / compile_ms - 1.0) <= 0.10))
      bench.add_drift("compile span sum " + std::to_string(span_sum) +
                      " ms is not within 10% of compile_ms " +
                      std::to_string(compile_ms) + " ms");
    if (!tracer.write_chrome(args.trace_path, kTraceFileOps))
      bench.add_drift("cannot write " + args.trace_path);
  }
  if (bench.workload().checkpoint)
    std::filesystem::remove_all(bench.workload().run.snapshot_dir);

  const long attempted = untraced.attempted + traced_pass.attempted;
  const long failed = untraced.failed + traced_pass.failed;
  std::ostringstream out;
  out << "{\n  \"workload\": \"" << args.workload << "\",\n  \"seed\": "
      << args.seed << ",\n  \"seconds\": " << args.seconds
      << ",\n  \"traced\": " << (traced ? "true" : "false")
      << ",\n  \"op_set\": " << bench.op_set_size() << ",\n  \"run_seeds\": [";
  const std::vector<unsigned> seeds = bench.run_seeds();
  for (std::size_t i = 0; i < seeds.size(); ++i)
    out << (i ? ", " : "") << seeds[i];
  out << "],\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"correct\": "
      << (failed == 0 && bench.drift().empty() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"errors\": [";
  std::vector<std::string> messages = bench.errors();
  for (const auto& d : bench.drift()) messages.push_back("drift guard: " + d);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    std::string escaped;
    for (const char c : messages[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c == '\n' ? ' ' : c;
    }
    out << (i ? ", " : "") << "\"" << escaped << "\"";
    std::fprintf(stderr, "hpfc_e2e %s: %s\n", args.workload.c_str(),
                 messages[i].c_str());
  }
  // The samples behind the medians, in measurement order.
  const auto series = [&out](const char* name, const std::vector<double>& v) {
    out << ",\n    \"" << name << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i ? ", " : "") << std::setprecision(9) << v[i];
    out << "]";
  };
  out << "],\n  \"samples\": {\n    \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    out << (i ? ", " : "") << std::setprecision(9) << setup_s[i];
  out << "]";
  series("cycle_run_ms", untraced.cycle_run_ms);
  series("cycle_compile_ms", untraced.cycle_compile_ms);
  MetricWriter metrics;
  end_to_end(metrics, bench, untraced, setup_s);
  if (traced) per_layer(metrics, bench, traced_pass, untraced, tracer);
  out << "\n  },\n  \"metrics\": " << metrics.json() << "\n}\n";
  std::ofstream file(args.json_path);
  file << out.str();
  if (!file) {
    std::fprintf(stderr, "hpfc_e2e: cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hpfc_e2e --workload=NAME --seed=S --seconds=T "
                 "--programs=DIR --work=DIR --json=PATH [--trace=PATH]\n");
    return 2;
  }
  try {
    return e2e::run_main(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hpfc_e2e %s: %s\n", args.workload.c_str(),
                 error.what());
    return 1;
  }
}
