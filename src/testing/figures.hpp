// The paper's worked figures as size-parameterized program factories:
// the one definition the gtest suites and the per-figure benches build
// them from. Each factory returns the finished program (builder
// diagnostics are not expected: every figure is well formed).
#pragma once

#include "ir/program.hpp"
#include "mapping/shape.hpp"

namespace hpfc::testing {

/// Figure 1: realign A with B(j,i), then redistribute B. With
/// `use_between` A is used under the intermediate mapping (two
/// remappings); without it the realign's copy is useless and A moves
/// directly (the motivation of §1.1).
ir::Program fig1(mapping::Extent n, int procs, bool use_between);
/// Figure 2: realign C with B(j,i), then a redistribute of B that
/// restores C's initial placement: both C remappings are useless.
ir::Program fig2(mapping::Extent n, int procs);
/// Figure 3: a template redistribution remaps `arrays` aligned arrays
/// A0.. although only the first `used_after` are used afterwards.
ir::Program fig3(mapping::Extent n, int procs, int arrays, int used_after);
/// Figure 4: call foo(Y); call foo(Y); call bla(Y) — the back-and-forth
/// argument remappings between consecutive calls are useless.
ir::Program fig4(mapping::Extent n, int procs);
/// Figure 7: the translation scheme itself — A alternates block/cyclic
/// over `phases` redistributions; the uses are labeled S1..S{phases+1}.
ir::Program fig7(mapping::Extent n, int procs, int phases);
/// Figure 9: A remapped differently in two branches, then to block(n) at
/// vertex 3, which is reached by copies {1,2} and read only (the vertex
/// whose generated code Figure 20 shows).
ir::Program fig9(mapping::Extent n, int procs);
/// Figure 10: the ADI-like routine — dummy A (inout), locals B and C
/// aligned with A, two remappings in the branches and two in a loop of
/// `sweeps` iterations.
ir::Program fig10(mapping::Extent n, int procs, mapping::Extent sweeps);
/// Figure 13: flow-dependent live copy — A remapped differently in the
/// two branches and written in one; at the join remapping the original
/// copy is live on the read-only path only. With `useless_tail` a
/// trailing remapping no use reaches is appended, so the same workload
/// also exercises O1's useless-remapping removal.
ir::Program fig13(mapping::Extent n, int procs, bool useless_tail = false);
/// Figure 16: loop-invariant remappings over `trips` iterations.
ir::Program fig16(mapping::Extent n, int procs, mapping::Extent trips);
/// Figure 16 with a fan-out: `arrays` template-aligned arrays remapped
/// together by each loop redistribution, so every remap vertex copies
/// them all at once (the fused-superstep workload).
ir::Program fig16_multi(mapping::Extent n, int procs, int arrays,
                        mapping::Extent trips);
/// Figure 18: ambiguous reaching mapping (cyclic or cyclic(2)) at a call
/// to foo, which requires block: saved and restored around the call,
/// then resolved by a redistribute to block(n).
ir::Program fig18(mapping::Extent n, int procs);

/// A synthetic routine with `remaps` remapping statements over `arrays`
/// aligned arrays, each preceded by `filler_refs` references (Appendix B
/// scaling).
ir::Program scaling_program(int arrays, int remaps, int filler_refs);

}  // namespace hpfc::testing
