#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace e2e {

using hpfc::driver::OptLevel;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

ProgramSpec source_program(const std::string& dir, const std::string& name) {
  return ProgramSpec{name, read_file(dir + "/" + name + ".hpf"), {}};
}

/// Appendix B scaling routine as HPF-lite text: `arrays` arrays aligned to
/// one template, `remaps` redistributions of it, each preceded by
/// `filler` single-array uses.
ProgramSpec scaling_program(int arrays, int remaps, int filler) {
  std::ostringstream src;
  src << "routine scaling\nprocessors P(4)\ntemplate T(64)\n"
      << "distribute T(block) onto P\n";
  for (int a = 0; a < arrays; ++a)
    src << "real A" << a << "(64)\nalign A" << a << "(i) with T(i)\n";
  src << "begin\n";
  static const char* kFormats[] = {"cyclic", "block", "cyclic(2)",
                                   "cyclic(3)"};
  for (int r = 0; r < remaps; ++r) {
    for (int f = 0; f < filler; ++f) src << "use(A" << (r + f) % arrays << ")\n";
    src << "redistribute T(" << kFormats[r % 4] << ")\n"
        << "use(A" << r % arrays << ")\n";
  }
  src << "use(";
  for (int a = 0; a < arrays; ++a) src << (a ? ",A" : "A") << a;
  src << ")\nend\n";
  return ProgramSpec{"scaling-" + std::to_string(arrays) + "x" +
                         std::to_string(remaps) + "x" + std::to_string(filler),
                     src.str(),
                     {}};
}

/// compile_mix's corpus: random programs first (they dominate by count),
/// then the scaling routines (they dominate compile time), then the
/// HPF-lite sources that exercise the parser on real-looking routines.
/// The corpus is the same for every benchmark seed: a random program's
/// copy volume is its own, so a seeded corpus would move elements_copied
/// from seed to seed, and that metric is held to be exact.
std::vector<ProgramSpec> corpus(const std::string& dir) {
  constexpr int kRandomPrograms = 64;
  constexpr unsigned kFirstGeneratorSeed = 65536;
  std::vector<ProgramSpec> programs;
  for (unsigned i = 0; programs.size() < kRandomPrograms; ++i) {
    if (i >= 4 * kRandomPrograms)
      throw std::runtime_error("too few compilable random programs");
    // The test_fuzz configuration: every other program has a 2-D array,
    // the others call routines with remapping interfaces. Each draw gets
    // a window of 64 generator seeds for rejection sampling.
    hpfc::testing::GenConfig config;
    config.seed = kFirstGeneratorSeed + 64u * i;
    config.two_dimensional = i % 2 == 0;
    config.with_calls = i % 2 == 1;
    const auto accepted = hpfc::testing::generate_compilable(config);
    if (!accepted) continue;
    config.seed = accepted->second;
    programs.push_back(
        ProgramSpec{"random-" + std::to_string(config.seed), "", config});
  }
  for (const auto& [arrays, remaps, filler] :
       {std::tuple{2, 8, 2}, std::tuple{4, 16, 2}, std::tuple{4, 32, 4},
        std::tuple{8, 16, 8}, std::tuple{8, 32, 16}, std::tuple{8, 64, 16}})
    programs.push_back(scaling_program(arrays, remaps, filler));
  for (const char* name : {"quickstart", "spectral", "adi_sweeps"})
    programs.push_back(source_program(dir, name));
  return programs;
}

}  // namespace

Workload make_workload(const std::string& name,
                       const std::string& programs_dir,
                       const std::string& work_dir) {
  Workload w;
  w.name = name;
  if (name == "compile_mix") {
    w.programs = corpus(programs_dir);
    w.compile_in_op = true;
    return w;
  }
  if (name != "hotpath" && name != "cyclic_fine" && name != "adi_proc" &&
      name != "checkpoint")
    throw std::runtime_error("unknown workload '" + name + "'");
  w.programs = {source_program(programs_dir, name)};
  if (name == "cyclic_fine") {
    w.run.backend = hpfc::exec::BackendKind::Thread;
    w.run.threads = 4;
  } else if (name == "adi_proc") {
    w.run_level = OptLevel::O2;
    w.run.backend = hpfc::exec::BackendKind::Proc;
  } else if (name == "checkpoint") {
    w.run_level = OptLevel::O2;
    w.checkpoint = true;
    w.run.snapshot_dir = work_dir + "/checkpoint";
    w.run.snapshot_every = 1;
  }
  return w;
}

}  // namespace e2e
