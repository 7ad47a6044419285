#include "driver/compiler.hpp"

#include "testing/reference.hpp"

namespace hpfc::driver {

const char* to_string(OptLevel level) {
  switch (level) {
    case OptLevel::O0: return "O0";
    case OptLevel::O1: return "O1";
    case OptLevel::O2: return "O2";
  }
  return "?";
}

int Compiled::total_versions() const {
  int total = 0;
  for (const auto& table : analysis.versions) total += table.size();
  return total;
}

Compiled compile(ir::Program program, const CompileOptions& options,
                 DiagnosticEngine& diags) {
  Compiled result;
  result.program = std::move(program);
  if (diags.has_errors()) return result;

  if (options.level == OptLevel::O2) {
    result.opt_report.hoisted_remaps =
        opt::hoist_loop_invariant_remaps(result.program);
  }

  result.analysis = remap::analyze(result.program, diags);
  if (!result.analysis.ok) return result;

  codegen::CodegenOptions cg;
  switch (options.level) {
    case OptLevel::O0:
      cg.use_maybe_live = false;
      cg.skip_dead_transfers = false;
      break;
    case OptLevel::O1:
      opt::remove_useless_remappings(result.analysis, result.opt_report);
      cg.use_maybe_live = false;
      cg.skip_dead_transfers = true;
      break;
    case OptLevel::O2:
      opt::remove_useless_remappings(result.analysis, result.opt_report);
      opt::compute_maybe_live(result.analysis);
      cg.use_maybe_live = true;
      cg.skip_dead_transfers = true;
      break;
  }
  if (options.validate_theorem1 && options.level != OptLevel::O0)
    result.opt_report.theorem1_holds = opt::validate_theorem1(result.analysis);

  result.code = codegen::generate(result.program, result.analysis, cg);
  result.ok = !diags.has_errors();
  return result;
}

Compiled compile_source(std::string_view source, const CompileOptions& options,
                        DiagnosticEngine& diags) {
  ir::Program program = hpf::parse(source, diags);
  return compile(std::move(program), options, diags);
}

runtime::RunReport run(const Compiled& compiled,
                       const runtime::RunOptions& options) {
  return runtime::run_parallel(compiled.program, compiled.analysis,
                               compiled.code, options);
}

runtime::RunReport run_oracle(const Compiled& compiled,
                              const runtime::RunOptions& options) {
  return testing::run_reference(compiled.program, compiled.analysis, options);
}

}  // namespace hpfc::driver
