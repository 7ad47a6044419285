#include "testing/figures.hpp"

#include <string>
#include <vector>

#include "hpf/builder.hpp"

namespace hpfc::testing {

namespace {

using hpf::ProgramBuilder;
using mapping::Alignment;
using mapping::AlignTarget;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

ir::Program finish(ProgramBuilder& b) {
  DiagnosticEngine diags;
  return b.finish(diags);
}

Alignment transposed() {
  Alignment transpose;
  transpose.per_template_dim = {AlignTarget::axis(1), AlignTarget::axis(0)};
  return transpose;
}

/// Declares `arrays` 1-D arrays A0.. aligned identically with template T
/// (block over P); returns their names.
std::vector<std::string> aligned_arrays(ProgramBuilder& b, Extent n,
                                        int arrays) {
  b.tmpl("T", Shape{n});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{n});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  return names;
}

}  // namespace

ir::Program fig1(Extent n, int procs, bool use_between) {
  ProgramBuilder b("fig1");
  b.procs("P", Shape{procs});
  b.array("B", Shape{n, n});
  b.distribute_array("B", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("A", Shape{n, n});
  b.align_with_array("A", "B");
  b.use({"A", "B"});
  b.realign_with_array("A", "B", transposed(), "1");
  if (use_between) b.use({"A"});
  b.redistribute("B", {DistFormat::cyclic(), DistFormat::collapsed()}, "",
                 "2");
  b.use({"A", "B"});
  return finish(b);
}

ir::Program fig2(Extent n, int procs) {
  ProgramBuilder b("fig2");
  b.procs("P", Shape{procs});
  b.array("B", Shape{n, n});
  b.distribute_array("B", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("C", Shape{n, n});
  b.align_with_array("C", "B");
  b.use({"C"});
  b.realign_with_array("C", "B", transposed(), "1");
  // (block,*) over the transposed alignment is (*,block) over the
  // identity: this redistribute restores C's initial placement exactly.
  b.redistribute("B", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "2");
  b.use({"C"});
  return finish(b);
}

ir::Program fig3(Extent n, int procs, int arrays, int used_after) {
  ProgramBuilder b("fig3");
  b.procs("P", Shape{procs});
  const std::vector<std::string> names = aligned_arrays(b, n, arrays);
  b.use(names);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(std::vector<std::string>(names.begin(), names.begin() + used_after));
  return finish(b);
}

ir::Program fig4(Extent n, int procs) {
  ProgramBuilder b("fig4");
  b.procs("P", Shape{procs});
  b.array("Y", Shape{n});
  b.distribute_array("Y", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{n}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.interface("bla");
  b.interface_dummy("X", Shape{n}, ir::Intent::In, {DistFormat::cyclic(4)},
                    "P");
  b.use({"Y"});
  b.call("foo", {"Y"});
  b.call("foo", {"Y"});
  b.call("bla", {"Y"});
  b.use({"Y"});
  return finish(b);
}

ir::Program fig7(Extent n, int procs, int phases) {
  ProgramBuilder b("fig7");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::cyclic()}, "P");
  b.use({"A"}, "S1");
  for (int i = 0; i < phases; ++i) {
    b.redistribute("A", {i % 2 == 0 ? DistFormat::block()
                                    : DistFormat::cyclic()});
    b.use({"A"}, "S" + std::to_string(i + 2));
  }
  return finish(b);
}

ir::Program fig9(Extent n, int procs) {
  ProgramBuilder b("fig9");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"});
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.begin_else();
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "2");
  b.use({"A"});
  b.end_if();
  b.redistribute("A", {DistFormat::block(n)}, "", "3");
  b.use({"A"});
  return finish(b);
}

ir::Program fig10(Extent n, int procs, Extent sweeps) {
  ProgramBuilder b("remap");
  const int side = procs >= 4 ? procs / 2 : procs;
  b.procs("P", Shape{procs});
  b.procs("Q", Shape{side, procs / side});
  b.dummy("A", Shape{n, n}, ir::Intent::InOut);
  b.distribute_array("A", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("B", Shape{n, n});
  b.align_with_array("B", "A");
  b.array("C", Shape{n, n});
  b.align_with_array("C", "A");
  b.ref({"A"}, {"B"}, {}, "s0");  // B written, A read
  b.begin_if({"B"});
  b.redistribute("A", {DistFormat::cyclic(), DistFormat::collapsed()}, "",
                 "1");
  b.ref({"B"}, {"A"}, {}, "s1");  // A written, B read
  b.begin_else();
  b.redistribute("A", {DistFormat::block(), DistFormat::block()}, "Q", "2");
  b.use({"A"}, "s2");  // A read
  b.end_if();
  b.begin_loop(sweeps);
  b.redistribute("A", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "3");
  b.ref({"A"}, {"C"}, {}, "s3");  // C written, A read
  b.redistribute("A", {DistFormat::block(), DistFormat::collapsed()}, "",
                 "4");
  b.ref({"C"}, {"A"}, {}, "s4");  // A written, C read
  b.end_loop();
  return finish(b);
}

ir::Program fig13(Extent n, int procs, bool useless_tail) {
  ProgramBuilder b("fig13");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"}, "s0");
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.def({"A"}, "s1");  // A written in the then branch
  b.begin_else();
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "2");
  b.use({"A"}, "s2");  // A only read in the else branch
  b.end_if();
  b.redistribute("A", {DistFormat::block()}, "", "3");
  b.use({"A"}, "s3");
  if (useless_tail) b.redistribute("A", {DistFormat::cyclic()}, "", "4");
  return finish(b);
}

ir::Program fig16(Extent n, int procs, Extent trips) {
  ProgramBuilder b("fig16");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"});
  b.begin_loop(trips);
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use({"A"});
  return finish(b);
}

ir::Program fig16_multi(Extent n, int procs, int arrays, Extent trips) {
  ProgramBuilder b("fig16multi");
  b.procs("P", Shape{procs});
  const std::vector<std::string> names = aligned_arrays(b, n, arrays);
  b.use(names);
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(names);
  b.redistribute("T", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use(names);
  return finish(b);
}

ir::Program fig18(Extent n, int procs) {
  ProgramBuilder b("fig18");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::cyclic()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{n}, ir::Intent::InOut, {DistFormat::block()},
                    "P");
  b.use({"A"});
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "1");
  b.use({"A"});
  b.end_if();
  // A is cyclic or cyclic(2) here; foo requires block. The call is legal:
  // the inserted explicit remapping resolves the ambiguity (§5.1).
  b.call("foo", {"A"});
  // Referencing A right after would be ambiguous again; a resolving
  // remapping makes it legal.
  b.redistribute("A", {DistFormat::block(n)}, "", "2");
  b.use({"A"});
  return finish(b);
}

ir::Program scaling_program(int arrays, int remaps, int filler_refs) {
  ProgramBuilder b("scaling");
  b.procs("P", Shape{4});
  const std::vector<std::string> names = aligned_arrays(b, 64, arrays);
  const DistFormat formats[] = {DistFormat::cyclic(), DistFormat::block(),
                                DistFormat::cyclic(2), DistFormat::cyclic(3)};
  for (int r = 0; r < remaps; ++r) {
    for (int f = 0; f < filler_refs; ++f)
      b.use({names[static_cast<std::size_t>((r + f) % arrays)]});
    b.redistribute("T", {formats[r % 4]});
    b.use({names[static_cast<std::size_t>(r % arrays)]});
  }
  b.use(names);
  return finish(b);
}

}  // namespace hpfc::testing
