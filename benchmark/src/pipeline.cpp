#include "pipeline.hpp"

#include "codegen/gen.hpp"
#include "hpf/parser.hpp"
#include "opt/passes.hpp"
#include "remap/build.hpp"

namespace e2e {

using hpfc::driver::Compiled;
using hpfc::driver::OptLevel;

namespace {

hpfc::driver::CompileOptions options_for(OptLevel level) {
  hpfc::driver::CompileOptions options;
  options.level = level;
  // Every O1/O2 compile is validated; the op fails if Theorem 1 does not
  // hold (checked by the caller through opt_report.theorem1_holds).
  options.validate_theorem1 = true;
  return options;
}

}  // namespace

Compiled compile(const ProgramSpec& spec, OptLevel level, double& compile_ms) {
  hpfc::DiagnosticEngine diags;
  if (!spec.source.empty()) {
    const auto start = Clock::now();
    Compiled compiled =
        hpfc::driver::compile_source(spec.source, options_for(level), diags);
    compile_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return compiled;
  }
  hpfc::ir::Program program = hpfc::testing::generate(spec.gen);
  const auto start = Clock::now();
  Compiled compiled =
      hpfc::driver::compile(std::move(program), options_for(level), diags);
  compile_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return compiled;
}

Compiled compile_traced(const ProgramSpec& spec, OptLevel level,
                        Tracer& tracer, int parent) {
  // Mirrors driver::compile (src/driver/compiler.cpp) step for step; the
  // drift guard (compare_compiled) catches this copy going stale.
  const hpfc::driver::CompileOptions options = options_for(level);
  hpfc::DiagnosticEngine diags;
  Compiled result;
  if (!spec.source.empty()) {
    Scope span(&tracer, "hpf.parse", parent);
    result.program = hpfc::hpf::parse(spec.source, diags);
  } else {
    result.program = hpfc::testing::generate(spec.gen);
  }
  if (diags.has_errors()) return result;

  if (level == OptLevel::O2) {
    Scope span(&tracer, "opt.hoist", parent);
    result.opt_report.hoisted_remaps =
        hpfc::opt::hoist_loop_invariant_remaps(result.program);
  }
  {
    Scope span(&tracer, "remap.analyze", parent);
    result.analysis = hpfc::remap::analyze(result.program, diags);
  }
  if (!result.analysis.ok) return result;

  hpfc::codegen::CodegenOptions cg;
  cg.use_maybe_live = level == OptLevel::O2;
  cg.skip_dead_transfers = level != OptLevel::O0;
  if (level != OptLevel::O0) {
    Scope span(&tracer, "opt.useless", parent);
    hpfc::opt::remove_useless_remappings(result.analysis, result.opt_report);
  }
  if (level == OptLevel::O2) {
    Scope span(&tracer, "opt.maybe_live", parent);
    hpfc::opt::compute_maybe_live(result.analysis);
  }
  if (options.validate_theorem1 && level != OptLevel::O0) {
    Scope span(&tracer, "opt.validate", parent);
    result.opt_report.theorem1_holds =
        hpfc::opt::validate_theorem1(result.analysis);
  }
  {
    Scope span(&tracer, "codegen.generate", parent);
    result.code = hpfc::codegen::generate(result.program, result.analysis, cg);
  }
  result.ok = !diags.has_errors();
  return result;
}

std::string compare_compiled(const Compiled& reference,
                             const Compiled& traced) {
  std::string diff;
  const auto check = [&diff](const char* what, long long a, long long b) {
    if (a != b)
      diff += std::string(diff.empty() ? "" : ", ") + what + " " +
              std::to_string(a) + " vs " + std::to_string(b);
  };
  check("ok", reference.ok, traced.ok);
  check("plan_slots", reference.code.plan_slots, traced.code.plan_slots);
  check("copy_groups", reference.code.copy_groups, traced.code.copy_groups);
  check("copy_ops", reference.code.count(hpfc::codegen::OpKind::Copy),
        traced.code.count(hpfc::codegen::OpKind::Copy));
  const auto& a = reference.opt_report;
  const auto& b = traced.opt_report;
  check("removed_remappings", a.removed_remappings, b.removed_remappings);
  check("vertices_deactivated", a.vertices_deactivated,
        b.vertices_deactivated);
  check("hoisted_remaps", a.hoisted_remaps, b.hoisted_remaps);
  check("theorem1_holds", a.theorem1_holds, b.theorem1_holds);
  return diff;
}

}  // namespace e2e
