// The compile side of an op: the program a workload compiles, compiled
// either through driver::compile (the untraced pass) or one public pass at
// a time with a span around each (the traced pass), plus the drift guard
// that keeps the two equal.
#pragma once

#include <string>

#include "driver/compiler.hpp"
#include "testing/program_gen.hpp"
#include "trace.hpp"

namespace e2e {

/// One program of a workload: HPF-lite source text, or a random program
/// regenerated from its accepted generator seed (ir::Program is move-only,
/// so every compile starts from a fresh one).
struct ProgramSpec {
  std::string name;
  std::string source;              ///< HPF-lite text; empty for generated
  hpfc::testing::GenConfig gen{};  ///< used when `source` is empty
};

/// The untraced compile of `spec` at `level`: driver::compile_source for
/// sources, driver::compile for generated programs. `compile_ms` receives
/// the wall time of that call alone (regenerating a random program is
/// input preparation and stays outside it).
hpfc::driver::Compiled compile(const ProgramSpec& spec,
                               hpfc::driver::OptLevel level,
                               double& compile_ms);

/// The same compile, calling the passes in driver::compile's order with a
/// span around each under `parent`: hpf.parse, opt.hoist, remap.analyze,
/// opt.useless, opt.maybe_live, opt.validate, codegen.generate.
hpfc::driver::Compiled compile_traced(const ProgramSpec& spec,
                                      hpfc::driver::OptLevel level,
                                      Tracer& tracer, int parent);

/// Drift guard: empty when both compiles produced the same plan slots,
/// copy groups, Copy-op count and OptReport; otherwise what differs.
std::string compare_compiled(const hpfc::driver::Compiled& reference,
                             const hpfc::driver::Compiled& traced);

}  // namespace e2e
