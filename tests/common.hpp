// Helpers every gtest suite shares: compile with Theorem 1 validated,
// look up G_R vertices and their labels by name, and run a compiled
// routine checked against the sequential oracle.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"

namespace hpfc {

namespace detail {

inline driver::Compiled compile(ir::Program program, driver::OptLevel level,
                                bool expect_ok, DiagnosticEngine& diags) {
  driver::CompileOptions options;
  options.level = level;
  options.validate_theorem1 = true;
  driver::Compiled compiled =
      driver::compile(std::move(program), options, diags);
  if (expect_ok) {
    EXPECT_TRUE(compiled.ok) << diags.to_string();
    EXPECT_TRUE(compiled.opt_report.theorem1_holds);
  }
  return compiled;
}

}  // namespace detail

/// Compiles at `level` with the Theorem 1 validator on; with `expect_ok`
/// the compile must succeed and the theorem hold.
inline driver::Compiled compile(ir::Program program, driver::OptLevel level,
                                bool expect_ok = true) {
  DiagnosticEngine diags;
  return detail::compile(std::move(program), level, expect_ok, diags);
}

/// Same, finishing the builder first (its diagnostics join the compile's).
inline driver::Compiled compile(hpf::ProgramBuilder& builder,
                                driver::OptLevel level,
                                bool expect_ok = true) {
  DiagnosticEngine diags;
  ir::Program program = builder.finish(diags);
  return detail::compile(std::move(program), level, expect_ok, diags);
}

/// The G_R vertex named `name` ("C", "0", "E", "1", "b1", ...), or null.
inline const remap::RemapVertex* find_vertex(const driver::Compiled& c,
                                             const std::string& name) {
  for (const auto& v : c.analysis.graph.vertices())
    if (v.name == name) return &v;
  return nullptr;
}

/// The labels of `array` at vertex `vertex`, or null when the vertex does
/// not exist or does not carry the array.
inline const remap::ArrayLabel* label_of(const driver::Compiled& c,
                                         const std::string& vertex,
                                         const std::string& array) {
  const auto* v = find_vertex(c, vertex);
  if (v == nullptr) return nullptr;
  const auto it = v->arrays.find(c.program.find_array(array));
  return it == v->arrays.end() ? nullptr : &it->second;
}

/// Runs with `paranoid` set; the oracle and the parallel run must agree
/// and exported values must check. Returns the parallel report.
inline runtime::RunReport run_checked(
    const driver::Compiled& c, unsigned seed = 7,
    exec::BackendKind backend = exec::BackendKind::Seq) {
  runtime::RunOptions options;
  options.seed = seed;
  options.backend = backend;
  options.paranoid = true;
  const auto oracle = driver::run_oracle(c, options);
  const auto parallel = driver::run(c, options);
  EXPECT_EQ(oracle.signature, parallel.signature);
  EXPECT_TRUE(parallel.exported_values_ok);
  return parallel;
}

}  // namespace hpfc
