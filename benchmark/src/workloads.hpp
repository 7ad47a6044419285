// The benchmark's five workloads. Four are runtime workloads: one HPF-lite
// program under benchmark/programs/, compiled in set-up and run op after
// op on one backend. compile_mix is the compiler-side workload: a fixed
// corpus, each program compiled and run at O0, O1 and O2 in every op.
// benchmark/README.md says why each one was chosen.
#pragma once

#include <string>
#include <vector>

#include "pipeline.hpp"
#include "runtime/machine.hpp"

namespace e2e {

struct Workload {
  std::string name;
  /// One program for runtime workloads; the whole corpus for compile_mix.
  std::vector<ProgramSpec> programs;
  /// compile_mix compiles and runs every program at O0, O1 and O2 inside
  /// its ops. Runtime workloads compile in set-up and run at run_level.
  bool compile_in_op = false;
  hpfc::driver::OptLevel run_level = hpfc::driver::OptLevel::O0;
  /// Snapshot every remap boundary and restore after every run.
  bool checkpoint = false;
  hpfc::runtime::RunOptions run;
};

/// Builds the named workload's programs and run options, which are the
/// same for every benchmark seed (the seed picks the runtime workloads'
/// run seeds). `programs_dir` holds the .hpf sources;
/// `work_dir` receives the checkpoint journal. Throws std::runtime_error on
/// an unknown name or an unreadable source.
Workload make_workload(const std::string& name,
                       const std::string& programs_dir,
                       const std::string& work_dir);

}  // namespace e2e
