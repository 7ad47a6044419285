// Paper figures 10-22: the ADI worked example and its remapping graph,
// flow-dependent live copies, loop-invariant motion, argument restore,
// generated guard code, multiple leaving mappings, intent modeling.
#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/gen.hpp"
#include "common.hpp"
#include "testing/figures.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::Alignment;
using mapping::AlignTarget;
using mapping::DistFormat;
using mapping::Shape;

// ----------------------------------------------------- Figures 10, 11, 12
// The ADI-like routine: dummy A (inout), locals B and C aligned with A,
// four explicit remappings (two in the branches, two in the loop).
TEST(Fig11, GraphHasSevenVertices) {
  const Compiled c = compile(testing::fig10(16, 4, 3), OptLevel::O1);
  // v_c, v_0, four remapping statements, v_e.
  EXPECT_EQ(c.analysis.graph.vertices().size(), 7u);
  for (const char* name : {"C", "0", "1", "2", "3", "4", "E"})
    EXPECT_NE(find_vertex(c, name), nullptr) << name;
}

TEST(Fig11, ZeroTripLoopCreatesEdgesToExit) {
  const Compiled c = compile(testing::fig10(16, 4, 3), OptLevel::O1);
  // Because the loop may run zero times, the branch remappings (1 and 2)
  // reach the exit vertex directly.
  const auto has_edge = [&](const std::string& from, const std::string& to) {
    const auto* vf = find_vertex(c, from);
    const auto* vt = find_vertex(c, to);
    if (vf == nullptr || vt == nullptr) return false;
    for (const int e : c.analysis.graph.out_edges(vf->id))
      if (c.analysis.graph.edges()[static_cast<std::size_t>(e)].to == vt->id)
        return true;
    return false;
  };
  EXPECT_TRUE(has_edge("1", "E"));
  EXPECT_TRUE(has_edge("2", "E"));
  EXPECT_TRUE(has_edge("1", "3"));
  EXPECT_TRUE(has_edge("2", "3"));
  EXPECT_TRUE(has_edge("4", "3"));  // the loop back edge
  EXPECT_TRUE(has_edge("4", "E"));
  EXPECT_TRUE(has_edge("3", "4"));
  EXPECT_FALSE(has_edge("1", "2"));  // branches are exclusive
}

TEST(Fig11, AlignedArraysShareEveryRemapVertex) {
  const Compiled c = compile(testing::fig10(16, 4, 3), OptLevel::O0);
  // All three arrays are aligned together, so each redistribute remaps all
  // of them (the Figure 3 effect inside Figure 10).
  for (const char* vertex : {"1", "2", "3", "4"}) {
    for (const char* array : {"A", "B", "C"}) {
      EXPECT_NE(label_of(c, vertex, array), nullptr)
          << vertex << "/" << array;
    }
  }
}

TEST(Fig12, VersionUseAfterOptimizationMatchesPaper) {
  const Compiled c = compile(testing::fig10(16, 4, 3), OptLevel::O1);
  // A is used under all four mappings plus its initial one: every vertex
  // keeps A.
  for (const char* vertex : {"1", "2", "3", "4"}) {
    const auto* la = label_of(c, vertex, "A");
    ASSERT_NE(la, nullptr);
    EXPECT_FALSE(la->removed) << vertex;
  }
  // B is used only at the beginning: only vertex 1 (B read in the then
  // branch) keeps it; 2, 3, 4 are removed.
  EXPECT_FALSE(label_of(c, "1", "B")->removed);
  EXPECT_TRUE(label_of(c, "2", "B")->removed);
  EXPECT_TRUE(label_of(c, "3", "B")->removed);
  EXPECT_TRUE(label_of(c, "4", "B")->removed);
  // C lives only within the loop: vertices 3 and 4 keep it, 1 and 2 do not.
  EXPECT_TRUE(label_of(c, "1", "C")->removed);
  EXPECT_TRUE(label_of(c, "2", "C")->removed);
  EXPECT_FALSE(label_of(c, "3", "C")->removed);
  EXPECT_FALSE(label_of(c, "4", "C")->removed);
  // A's copy-back to the caller's mapping is kept (intent inout).
  const auto* le = label_of(c, "E", "A");
  ASSERT_NE(le, nullptr);
  EXPECT_FALSE(le->removed);
  EXPECT_EQ(le->leaving, (std::vector<int>{0}));

  // 4 distinct A versions (Figure 12's {0,1,2,3}); B instantiates two.
  EXPECT_EQ(c.analysis.version_count(c.program.find_array("A")), 4);
  EXPECT_EQ(c.analysis.version_count(c.program.find_array("B")), 4);
}

TEST(Fig12, OptimizedAdiRunsAndSavesCommunication) {
  const Compiled c0 = compile(testing::fig10(16, 4, 3), OptLevel::O0);
  const Compiled c1 = compile(testing::fig10(16, 4, 3), OptLevel::O1);
  const Compiled c2 = compile(testing::fig10(16, 4, 3), OptLevel::O2);

  for (const unsigned seed : {1u, 2u, 3u}) {
    const auto r0 = run_checked(c0, seed);
    const auto r1 = run_checked(c1, seed);
    const auto r2 = run_checked(c2, seed);
    // Same results, monotonically less communication.
    EXPECT_LT(r1.copies_performed, r0.copies_performed) << seed;
    EXPECT_LE(r2.copies_performed, r1.copies_performed) << seed;
    EXPECT_LE(r2.net.bytes, r1.net.bytes);
    EXPECT_LE(r1.net.bytes, r0.net.bytes);
  }
}

TEST(Fig12, ZeroTripLoopSkipsLoopRemappings) {
  const Compiled c = compile(testing::fig10(16, 4, /*sweeps=*/0), OptLevel::O2);
  const auto report = run_checked(c);
  // C is never instantiated: its copies live only inside the loop and the
  // generation delays instantiation to first use (§5.2).
  EXPECT_GE(report.copies_performed, 1);  // A's branch remap + copy-back
  (void)report;
}

// ----------------------------------------------------- Figures 13 and 14
// Flow-dependent live copy: A remapped differently in the two branches,
// maybe-modified in one; at the join remapping the original copy is live
// on the read-only path and dead on the writing path.
TEST(Fig14, MaybeLiveSetsCaptureTheFlowDependence) {
  const Compiled c = compile(testing::fig13(32, 4), OptLevel::O2);
  // At vertex 2 (read-only branch) the initial copy stays maybe-live
  // (version 0 is remapped back to at vertex 3).
  const auto* l2 = label_of(c, "2", "A");
  ASSERT_NE(l2, nullptr);
  EXPECT_NE(std::find(l2->maybe_live.begin(), l2->maybe_live.end(), 0),
            l2->maybe_live.end());
  // At vertex 1 (writing branch) it does not: U = W stops the backward
  // propagation, so only the leaving copy survives.
  const auto* l1 = label_of(c, "1", "A");
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->maybe_live, l1->leaving);
}

TEST(Fig14, RuntimeReusesTheLiveCopyOnlyOnTheReadPath) {
  const Compiled c = compile(testing::fig13(32, 4), OptLevel::O2);
  int reused = 0;
  int copied = 0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const auto report = run_checked(c, seed);
    if (report.skipped_live_copy > 0)
      ++reused;
    else
      ++copied;
  }
  // Both paths occur over the seeds; the read-only path avoids the
  // remap-back communication, the writing path does not.
  EXPECT_GT(reused, 0);
  EXPECT_GT(copied, 0);
}

// ----------------------------------------------------- Figures 16 and 17
// Loop-invariant remappings: the remap-back ending the loop body moves
// out of the loop; iterations after the first find the array already
// mapped as required.
TEST(Fig17, RemapBackIsHoistedOutOfTheLoop) {
  const Compiled c = compile(testing::fig16(32, 4, 5), OptLevel::O2);
  EXPECT_EQ(c.opt_report.hoisted_remaps, 1);
  const auto report = run_checked(c);
  // One copy into cyclic at the first iteration; iterations 2..5 hit the
  // status check; and the hoisted remap-back finds the initial copy still
  // live (A was only read), so it costs nothing either.
  EXPECT_EQ(report.copies_performed, 1);
  EXPECT_GE(report.skipped_already_mapped, 4);
  EXPECT_GE(report.skipped_live_copy, 1);

  const Compiled c0 = compile(testing::fig16(32, 4, 5), OptLevel::O0);
  const auto report0 = run_checked(c0);
  EXPECT_EQ(report0.copies_performed, 10);  // 2 per iteration
}

TEST(Fig17, HoistIsSoundForZeroTripLoops) {
  // "the initial remapping is not moved out of the loop because if t < 1
  // this would induce a useless remapping" — with zero trips the hoisted
  // exit remap is a status no-op and results stay correct.
  const Compiled c = compile(testing::fig16(32, 4, 0), OptLevel::O2);
  const auto report = run_checked(c);
  EXPECT_EQ(report.copies_performed, 0);
}

TEST(Fig17, HoistBlockedWhenArrayReadBeforeFirstRemap) {
  ProgramBuilder b("fig16bad");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.begin_loop(3);
  b.use({"A"});  // A read in block mapping before the remap: no motion
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  EXPECT_EQ(c.opt_report.hoisted_remaps, 0);
  run_checked(c);
}

// ------------------------------------------------------------- Figure 18
// Ambiguous reaching mapping at a call: saved and restored afterwards.
TEST(Fig18, ReachingMappingSavedAndRestoredAroundCall) {
  const Compiled c = compile(testing::fig18(32, 4), OptLevel::O0);
  ASSERT_TRUE(c.ok);
  // The restore vertex has two leaving mappings, dispatched on the saved
  // reaching status (Figure 18's reaching_A variable).
  const auto* post = label_of(c, "a1", "A");
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->leaving.size(), 2u);
  EXPECT_GE(c.code.save_slots, 1);
  EXPECT_GT(c.code.count(codegen::OpKind::SaveStatus), 0);
  EXPECT_GT(c.code.count(codegen::OpKind::IfSavedEq), 0);

  for (const unsigned seed : {1u, 2u, 3u, 4u}) run_checked(c, seed);
}

TEST(Fig18, OptimizationRemovesTheUnusedRestore) {
  const Compiled c = compile(testing::fig18(32, 4), OptLevel::O2);
  ASSERT_TRUE(c.ok);
  // A is not referenced between the restore and the next remapping, so
  // the ambiguous restore disappears entirely.
  const auto* post = label_of(c, "a1", "A");
  ASSERT_NE(post, nullptr);
  EXPECT_TRUE(post->removed);
  EXPECT_EQ(c.code.count(codegen::OpKind::IfSavedEq), 0);
  for (const unsigned seed : {1u, 2u, 3u, 4u}) run_checked(c, seed);
}

// -------------------------------------------------------- Figures 19 / 20
// The generated guard code has the paper's shape.
TEST(Fig20, GeneratedCodeMatchesThePaperShape) {
  // The Figure 9 vertex 3: reached by copies {1,2}, read-only.
  const Compiled c = compile(testing::fig9(32, 4), OptLevel::O2);
  const std::string text = c.code.to_text(c.program);
  // Shape of Figure 20: guard on status, allocation, liveness test,
  // per-source dispatch, live flag, status update.
  EXPECT_NE(text.find("if status(A) != 3"), std::string::npos) << text;
  EXPECT_NE(text.find("allocate A_3 if needed"), std::string::npos);
  EXPECT_NE(text.find("if not live(A_3)"), std::string::npos);
  EXPECT_NE(text.find("if status(A) == 1"), std::string::npos);
  EXPECT_NE(text.find("if status(A) == 2"), std::string::npos);
  EXPECT_NE(text.find("live(A_3) = true"), std::string::npos);
  EXPECT_NE(text.find("status(A) = 3"), std::string::npos);
  run_checked(c);
}

// ------------------------------------------------------------- Figure 21
// Several leaving mappings at one remapping statement are rejected (the
// paper's simplifying assumption, enforced as a diagnostic).
TEST(Fig21, MultipleLeavingMappingsAreDiagnosed) {
  ProgramBuilder b("fig21");
  b.procs("P", Shape{4});
  b.procs("Q", Shape{2, 2});
  b.tmpl("T", Shape{16, 16});
  b.distribute_template("T", {DistFormat::block(), DistFormat::collapsed()},
                        "P");
  b.array("A", Shape{16, 16});
  b.align("A", "T", Alignment::identity(2));
  b.use({"A"});
  b.begin_if();
  Alignment transpose;
  transpose.per_template_dim = {AlignTarget::axis(1), AlignTarget::axis(0)};
  b.realign("A", "T", transpose);
  b.end_if();
  // Redistributing T now remaps A to (block,block) under the identity or
  // the transposed alignment depending on whether the realign executed:
  // two leaving mappings.
  b.redistribute("T", {DistFormat::block(), DistFormat::block()}, "Q", "2");
  DiagnosticEngine diags;
  CompileOptions options;
  const Compiled c = driver::compile(b.finish(diags), options, diags);
  EXPECT_FALSE(c.ok);
  EXPECT_TRUE(diags.has(DiagId::MultipleLeavingMappings)) << diags.to_string();
}

// -------------------------------------------------------- Figures 22 / 25
// Intent drives the argument effects and the exit copy-back.
TEST(Fig22, IntentInSkipsTheCopyBack) {
  for (const ir::Intent intent :
       {ir::Intent::In, ir::Intent::InOut, ir::Intent::Out}) {
    ProgramBuilder b("fig22");
    b.procs("P", Shape{4});
    b.dummy("A", Shape{32}, intent);
    b.distribute_array("A", {DistFormat::block()}, "P");
    if (intent != ir::Intent::Out) b.use({"A"});
    b.redistribute("A", {DistFormat::cyclic()}, "", "1");
    b.ref({"A"}, {"A"}, {}, "s1");
    const Compiled c = compile(b, OptLevel::O1);
    const auto* le = label_of(c, "E", "A");
    ASSERT_NE(le, nullptr);
    if (intent == ir::Intent::In) {
      // Values are not exported: the exit remapping back to the caller's
      // mapping is useless.
      EXPECT_TRUE(le->removed);
    } else {
      EXPECT_FALSE(le->removed);
      EXPECT_EQ(le->leaving, (std::vector<int>{0}));
    }
    run_checked(c);
  }
}

TEST(Fig22, ImportedValuesFlowIntoTheFirstRemapping) {
  // intent(inout) dummy never referenced before its first remapping: the
  // Figure 22 floor (D at v_c) keeps the initial copy as a data source.
  ProgramBuilder b("fig22b");
  b.procs("P", Shape{4});
  b.dummy("A", Shape{32}, ir::Intent::InOut);
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"}, "s1");
  const Compiled c = compile(b, OptLevel::O2);
  const auto* l1 = label_of(c, "1", "A");
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->reaching, (std::vector<int>{0}));  // version 0 kept as source
  run_checked(c);
}

TEST(Fig25, IntentOutSkipsTheDataTransferIn) {
  ProgramBuilder b("fig25");
  b.procs("P", Shape{4});
  b.array("Y", Shape{32});
  b.distribute_array("Y", {DistFormat::block()}, "P");
  b.interface("produce");
  b.interface_dummy("X", Shape{32}, ir::Intent::Out, {DistFormat::cyclic()},
                    "P");
  b.use({"Y"});
  b.call("produce", {"Y"});
  b.use({"Y"});
  const Compiled c = compile(b, OptLevel::O1);
  // The copy-in carries no data (U = D at v_b): only the copy-back moves.
  const auto report = run_checked(c);
  EXPECT_EQ(report.copies_performed, 1);

  ProgramBuilder b0("fig25");
  b0.procs("P", Shape{4});
  b0.array("Y", Shape{32});
  b0.distribute_array("Y", {DistFormat::block()}, "P");
  b0.interface("produce");
  b0.interface_dummy("X", Shape{32}, ir::Intent::Out, {DistFormat::cyclic()},
                     "P");
  b0.use({"Y"});
  b0.call("produce", {"Y"});
  b0.use({"Y"});
  const Compiled c0 = compile(b0, OptLevel::O0);
  EXPECT_EQ(run_checked(c0).copies_performed, 2);
}

// ------------------------------------------------------- kill directive
TEST(KillDirective, MakesFollowingRemapCommunicationFree) {
  ProgramBuilder b("kill");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.use({"A"});
  // The user asserts A's values are dead once the remapping happened:
  // the redistribute moves no data (its leaving copy is tagged D).
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.kill("A");
  b.def({"A"}, "s1");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O1);
  const auto report = run_checked(c);
  EXPECT_EQ(report.copies_performed, 0);
  EXPECT_EQ(report.elements_copied, 0u);

  // Without the kill (and with a maybe-write instead of a redefinition)
  // the transfer happens.
  ProgramBuilder b2("kill2");
  b2.procs("P", Shape{4});
  b2.array("A", Shape{32});
  b2.distribute_array("A", {DistFormat::block()}, "P");
  b2.def({"A"});
  b2.use({"A"});
  b2.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b2.def({"A"}, "s1");
  b2.use({"A"});
  const Compiled c2 = compile(b2, OptLevel::O1);
  EXPECT_EQ(run_checked(c2).copies_performed, 1);
}

}  // namespace
}  // namespace hpfc
