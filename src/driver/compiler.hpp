// The compiler driver: parse/build -> remapping-graph construction ->
// G_R optimizations -> copy code generation, at three optimization levels:
//
//   O0  the naive translation: every remapping statement copies (status
//       guards only, which the scheme needs anyway for flow-dependent
//       reaching mappings); every transfer moves data; all non-current
//       copies are freed at each vertex.
//   O1  + useless-remapping removal (Appendix C): U=N copies disappear,
//       D copies stop moving data.
//   O2  + maybe-live copy retention (Appendix D) and loop-invariant
//       remapping motion (Figures 16-17).
#pragma once

#include <string_view>

#include "codegen/gen.hpp"
#include "hpf/parser.hpp"
#include "opt/passes.hpp"
#include "remap/build.hpp"
#include "runtime/machine.hpp"
#include "support/diagnostics.hpp"

namespace hpfc::driver {

enum class OptLevel { O0, O1, O2 };

const char* to_string(OptLevel level);

struct CompileOptions {
  OptLevel level = OptLevel::O2;
  /// Run the Theorem 1 validator after the Appendix C pass.
  bool validate_theorem1 = false;
};

struct Compiled {
  ir::Program program;  ///< owns the AST the analysis points into
  remap::Analysis analysis;
  codegen::RuntimeProgram code;
  opt::OptReport opt_report;
  bool ok = false;

  /// Number of distinct versions over all arrays.
  [[nodiscard]] int total_versions() const;
};

/// Compiles an already-built program (consumes it; O2 may rewrite loops).
Compiled compile(ir::Program program, const CompileOptions& options,
                 DiagnosticEngine& diags);

/// Parses HPF-lite source and compiles it.
Compiled compile_source(std::string_view source, const CompileOptions& options,
                        DiagnosticEngine& diags);

/// Runs the compiled routine on the runtime machine.
runtime::RunReport run(const Compiled& compiled,
                       const runtime::RunOptions& options = {});
/// Runs the sequential reference interpreter (testing/reference.hpp) on
/// the same routine and path: the signature every run must reproduce.
runtime::RunReport run_oracle(const Compiled& compiled,
                              const runtime::RunOptions& options = {});

}  // namespace hpfc::driver
