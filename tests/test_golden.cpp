// Golden hashes of the compiler's analysis output: for every program of a
// fixed corpus and every optimization level, one FNV-1a 64 of the G_R
// dump, the generated code dump and the diagnostics. Any change to the
// dataflow solvers that moves a version id, an edge, a label, a
// generated op or a diagnostic shows here as a hash mismatch, with the
// full dump printed for the entry that moved.
//
// The corpus: every testing:: figure factory, the HPF-lite programs under
// benchmark/programs and examples, the Appendix B/C scaling shapes, and
// testing::generate seeds 1-500 (including the seeds whose analysis
// fails, so the diagnostic paths are covered as well).
//
// The golden file is tests/golden/analysis_hashes.txt. A change that is
// meant to move the output regenerates it by running test_golden with
// --gtest_also_run_disabled_tests --gtest_filter=Golden.DISABLED_Regenerate
// and the diff of that file belongs in the same commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "support/fnv.hpp"
#include "testing/figures.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::OptLevel;

const std::string kSourceDir = HPFC_SOURCE_DIR;
const std::string kGoldenPath =
    kSourceDir + "/tests/golden/analysis_hashes.txt";

/// One corpus program: compiles itself at a level into `diags`.
struct Case {
  std::string name;
  std::function<driver::Compiled(const driver::CompileOptions&,
                                 DiagnosticEngine&)>
      compile;
};

Case from_file(const std::string& relative) {
  std::ifstream in(kSourceDir + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream source;
  source << in.rdbuf();
  return {relative, [text = source.str()](
                        const driver::CompileOptions& options,
                        DiagnosticEngine& diags) {
            return driver::compile_source(text, options, diags);
          }};
}

std::vector<Case> corpus() {
  using namespace testing;
  std::vector<Case> cases;
  const auto add = [&](std::string name, std::function<ir::Program()> f) {
    cases.push_back({std::move(name), [f](const driver::CompileOptions& options,
                                          DiagnosticEngine& diags) {
                       return driver::compile(f(), options, diags);
                     }});
  };
  add("fig1(16,4,false)", [] { return fig1(16, 4, false); });
  add("fig1(16,4,true)", [] { return fig1(16, 4, true); });
  add("fig2(16,4)", [] { return fig2(16, 4); });
  add("fig3(32,4,5,2)", [] { return fig3(32, 4, 5, 2); });
  add("fig4(32,4)", [] { return fig4(32, 4); });
  add("fig7(24,4,1)", [] { return fig7(24, 4, 1); });
  add("fig7(24,4,4)", [] { return fig7(24, 4, 4); });
  add("fig9(32,4)", [] { return fig9(32, 4); });
  add("fig10(16,4,0)", [] { return fig10(16, 4, 0); });
  add("fig10(16,4,3)", [] { return fig10(16, 4, 3); });
  add("fig13(32,4,false)", [] { return fig13(32, 4, false); });
  add("fig13(32,4,true)", [] { return fig13(32, 4, true); });
  add("fig16(32,4,0)", [] { return fig16(32, 4, 0); });
  add("fig16(32,4,5)", [] { return fig16(32, 4, 5); });
  add("fig16_multi(64,4,3,2)", [] { return fig16_multi(64, 4, 3, 2); });
  add("fig18(32,4)", [] { return fig18(32, 4); });

  std::vector<std::string> hpf_files;
  for (const auto& entry :
       std::filesystem::directory_iterator(kSourceDir + "/benchmark/programs"))
    if (entry.path().extension() == ".hpf")
      hpf_files.push_back("benchmark/programs/" +
                          entry.path().filename().string());
  std::sort(hpf_files.begin(), hpf_files.end());
  hpf_files.push_back("examples/quickstart.hpf");
  for (const auto& file : hpf_files) cases.push_back(from_file(file));

  // The Appendix B (bench_appB_scaling) and Appendix C
  // (bench_appC_optscale) shapes: (arrays, remaps, filler references).
  const std::vector<std::array<int, 3>> shapes = {
      {4, 4, 2},  {4, 8, 2},  {4, 16, 2}, {4, 32, 2}, {2, 8, 2},
      {8, 8, 2},  {16, 8, 2}, {4, 8, 1},  {4, 8, 4},  {4, 8, 16},
      {4, 8, 64}, {4, 16, 1}, {4, 32, 1}, {4, 64, 1}};
  for (const auto& [arrays, remaps, filler] : shapes)
    add("scaling(" + std::to_string(arrays) + "," + std::to_string(remaps) +
            "," + std::to_string(filler) + ")",
        [arrays = arrays, remaps = remaps, filler = filler] {
          return scaling_program(arrays, remaps, filler);
        });

  for (unsigned seed = 1; seed <= 500; ++seed)
    add("generate(seed=" + std::to_string(seed) + ")", [seed] {
      GenConfig config;
      config.seed = seed;
      return generate(config);
    });
  return cases;
}

/// "<case> <level>" -> the dump its hash is taken over.
std::map<std::string, std::string> dumps() {
  std::map<std::string, std::string> result;
  for (const Case& c : corpus()) {
    for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      driver::CompileOptions options;
      options.level = level;
      DiagnosticEngine diags;
      const driver::Compiled compiled = c.compile(options, diags);
      const std::string key = c.name + " " + driver::to_string(level);
      EXPECT_EQ(result.count(key), 0u) << "duplicate corpus entry " << key;
      result[key] = compiled.analysis.graph.to_text(compiled.program) +
                    compiled.code.to_text(compiled.program) +
                    diags.to_string();
    }
  }
  return result;
}

std::string hex_hash(const std::string& dump) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64,
                fnv1a(dump.data(), dump.size()));
  return buffer;
}

TEST(Golden, AnalysisOutputMatchesTheCommittedHashes) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::map<std::string, std::string> golden;
  for (std::string line; std::getline(in, line);) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }

  const auto actual = dumps();
  for (const auto& [key, dump] : actual) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden hash for " << key << "; dump:\n" << dump;
      continue;
    }
    if (it->second != hex_hash(dump))
      ADD_FAILURE() << key << ": hash " << hex_hash(dump) << ", golden "
                    << it->second << "; dump:\n"
                    << dump;
  }
  for (const auto& [key, hash] : golden)
    EXPECT_EQ(actual.count(key), 1u) << "golden entry " << key
                                     << " is no longer in the corpus";
}

TEST(Golden, DISABLED_Regenerate) {
  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out.good()) << kGoldenPath;
  for (const auto& [key, dump] : dumps())
    out << key << " " << hex_hash(dump) << "\n";
}

}  // namespace
}  // namespace hpfc
