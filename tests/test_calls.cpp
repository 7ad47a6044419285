// Subroutine-call handling (paper §2.2, Figures 8, 15, 23, 24): implicit
// argument remappings become explicit v_b/v_a vertices in the caller,
// intent drives effects and liveness, interfaces are prescriptive.
#include <gtest/gtest.h>

#include "common.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Shape;

// Figure 8: the call CALLEE(B) with B cyclic and the dummy block becomes
// an explicit remapping to block before the call and back after it.
TEST(Fig08, CallTranslatesToExplicitRemappings) {
  ProgramBuilder b("fig8");
  b.procs("P", Shape{4});
  b.array("B", Shape{32});
  b.distribute_array("B", {DistFormat::cyclic()}, "P");
  b.interface("callee");
  b.interface_dummy("A", Shape{32}, ir::Intent::In, {DistFormat::block()},
                    "P");
  b.def({"B"});
  b.call("callee", {"B"});
  b.use({"B"});
  const Compiled c = compile(b, OptLevel::O0);

  const auto* pre = find_vertex(c, "b1");
  const auto* post = find_vertex(c, "a1");
  ASSERT_NE(pre, nullptr);
  ASSERT_NE(post, nullptr);
  const ir::ArrayId array_b = c.program.find_array("B");
  // v_b: cyclic (0) -> block (1), read by the callee (intent in).
  EXPECT_EQ(pre->arrays.at(array_b).reaching, (std::vector<int>{0}));
  EXPECT_EQ(pre->arrays.at(array_b).leaving, (std::vector<int>{1}));
  EXPECT_EQ(pre->arrays.at(array_b).use.letter(), 'R');
  // v_a: block (1) -> cyclic (0), B read afterwards.
  EXPECT_EQ(post->arrays.at(array_b).reaching, (std::vector<int>{1}));
  EXPECT_EQ(post->arrays.at(array_b).leaving, (std::vector<int>{0}));
  EXPECT_EQ(post->arrays.at(array_b).use.letter(), 'R');
}

// Figure 24's structure: the pre and post vertices chain through the call
// in the remapping graph.
TEST(Fig24, PrePostEdgesAroundTheCall) {
  ProgramBuilder b("fig24");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{32}, ir::Intent::InOut, {DistFormat::cyclic()},
                    "P");
  b.def({"A"});
  b.call("foo", {"A"});
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  const auto* pre = find_vertex(c, "b1");
  const auto* post = find_vertex(c, "a1");
  ASSERT_NE(pre, nullptr);
  ASSERT_NE(post, nullptr);
  bool pre_to_post = false;
  for (const int e : c.analysis.graph.out_edges(pre->id))
    if (c.analysis.graph.edges()[static_cast<std::size_t>(e)].to == post->id)
      pre_to_post = true;
  EXPECT_TRUE(pre_to_post);
  // The callee may write the dummy copy: v_b is labeled W, so old copies
  // of A must not be treated as live across the call.
  const ir::ArrayId a = c.program.find_array("A");
  EXPECT_EQ(pre->arrays.at(a).use.letter(), 'W');
}

// Figure 23-style initial graph: dummies originate at v_c, locals at v_0.
TEST(Fig23, InitialMappingsOriginateAtCallAndEntry) {
  ProgramBuilder b("fig23");
  b.procs("P", Shape{4});
  b.dummy("A", Shape{32}, ir::Intent::InOut);
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("L", Shape{32});
  b.distribute_array("L", {DistFormat::cyclic()}, "P");
  b.use({"A", "L"});
  const Compiled c = compile(b, OptLevel::O0);
  const auto* vc = find_vertex(c, "C");
  const auto* v0 = find_vertex(c, "0");
  ASSERT_NE(vc, nullptr);
  ASSERT_NE(v0, nullptr);
  const ir::ArrayId a = c.program.find_array("A");
  const ir::ArrayId l = c.program.find_array("L");
  EXPECT_TRUE(vc->arrays.count(a));
  EXPECT_FALSE(vc->arrays.count(l));
  EXPECT_TRUE(v0->arrays.count(l));
  EXPECT_FALSE(v0->arrays.count(a));
  EXPECT_EQ(vc->arrays.at(a).leaving, (std::vector<int>{0}));
  EXPECT_EQ(v0->arrays.at(l).leaving, (std::vector<int>{0}));
}

TEST(Calls, MatchingMappingNeedsNoCopies) {
  ProgramBuilder b("match");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::cyclic()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{32}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.def({"A"});
  b.call("foo", {"A"});
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  // The argument already has the required mapping: the pre/post vertices
  // carry no remapped arrays and the run performs no copies.
  const auto* pre = find_vertex(c, "b1");
  ASSERT_NE(pre, nullptr);
  EXPECT_TRUE(pre->arrays.empty());
  const auto report = driver::run(c);
  EXPECT_EQ(report.copies_performed, 0);
}

TEST(Calls, TwoArgumentsRemapIndependently) {
  ProgramBuilder b("two");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::cyclic()}, "P");
  b.array("B", Shape{32});
  b.distribute_array("B", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{32}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.interface_dummy("Y", Shape{32}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.def({"A", "B"});
  b.call("foo", {"A", "B"});
  b.use({"A", "B"});
  const Compiled c = compile(b, OptLevel::O2);
  // Only B needs to move (A already cyclic); with intent(in) and O2 the
  // restore reuses B's live original.
  const auto report = driver::run(c);
  const auto oracle = driver::run_oracle(c);
  EXPECT_EQ(report.signature, oracle.signature);
  EXPECT_EQ(report.copies_performed, 1);
}

TEST(Calls, SameArrayTwicePassesShapeCheckButRemapsOnce) {
  // Aliasing the same array to two dummies with identical mappings: the
  // state transfer is idempotent, the call is accepted.
  ProgramBuilder b("alias");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{32}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.interface_dummy("Y", Shape{32}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.def({"A"});
  b.call("foo", {"A", "A"});
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O0);
  const auto report = driver::run(c);
  const auto oracle = driver::run_oracle(c);
  EXPECT_EQ(report.signature, oracle.signature);
}

TEST(Calls, OutIntentDummyNeverTransfersGarbageIn) {
  ProgramBuilder b("outonly");
  b.procs("P", Shape{4});
  b.array("R", Shape{32});
  b.distribute_array("R", {DistFormat::block()}, "P");
  b.interface("produce");
  b.interface_dummy("X", Shape{32}, ir::Intent::Out, {DistFormat::cyclic(2)},
                    "P");
  // R is never written before the call: no copy-in data needed at all.
  b.call("produce", {"R"});
  b.use({"R"});
  const Compiled c = compile(b, OptLevel::O1);
  const auto report = driver::run(c);
  // Copy-in is dead (D); only the copy-back moves data.
  EXPECT_EQ(report.copies_performed, 1);
  const auto oracle = driver::run_oracle(c);
  EXPECT_EQ(report.signature, oracle.signature);
}

TEST(Calls, ChainedCallsWithMixedIntents) {
  ProgramBuilder b("chain");
  b.procs("P", Shape{4});
  b.array("A", Shape{64});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.interface("reader");
  b.interface_dummy("X", Shape{64}, ir::Intent::In, {DistFormat::cyclic()},
                    "P");
  b.interface("writer");
  b.interface_dummy("X", Shape{64}, ir::Intent::InOut,
                    {DistFormat::cyclic(4)}, "P");
  b.def({"A"});
  b.call("reader", {"A"});
  b.call("writer", {"A"});
  b.call("reader", {"A"});
  b.use({"A"});
  for (const auto level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    ProgramBuilder copy("chain");
    copy.procs("P", Shape{4});
    copy.array("A", Shape{64});
    copy.distribute_array("A", {DistFormat::block()}, "P");
    copy.interface("reader");
    copy.interface_dummy("X", Shape{64}, ir::Intent::In,
                         {DistFormat::cyclic()}, "P");
    copy.interface("writer");
    copy.interface_dummy("X", Shape{64}, ir::Intent::InOut,
                         {DistFormat::cyclic(4)}, "P");
    copy.def({"A"});
    copy.call("reader", {"A"});
    copy.call("writer", {"A"});
    copy.call("reader", {"A"});
    copy.use({"A"});
    const Compiled c = compile(copy, level);
    runtime::RunOptions options;
    options.paranoid = true;
    const auto report = driver::run(c, options);
    const auto oracle = driver::run_oracle(c, options);
    EXPECT_EQ(report.signature, oracle.signature)
        << driver::to_string(level);
  }
}

// A call inside a loop: the mapping restored after the call (v_a) is the
// one reaching the call (v_b), which grows on the back edge once the loop
// body has remapped A. The body either redistributes A, which also grows
// the distribution set of A's template, which flows along the CFG from
// v_b to v_a; or it realigns A onto a second template, which grows only
// A's own mapping set at v_b. v_b leaves block either way, so then
// nothing on the CFG path to v_a changes: the mapping propagation must
// revisit v_a when v_b's incoming state changes.
TEST(Calls, CallInLoopRestoresEveryMappingReachingTheCall) {
  for (const bool realign : {false, true}) {
    for (const auto level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      ProgramBuilder b("callloop");
      b.procs("P", Shape{4});
      b.array("A", Shape{32});
      if (realign) {
        b.tmpl("T1", Shape{32});
        b.distribute_template("T1", {DistFormat::cyclic()}, "P");
        b.tmpl("T2", Shape{32});
        b.distribute_template("T2", {DistFormat::cyclic(2)}, "P");
        b.align("A", "T1", Alignment::identity(1));
      } else {
        b.distribute_array("A", {DistFormat::cyclic()}, "P");
      }
      b.interface("foo");
      b.interface_dummy("X", Shape{32}, ir::Intent::InOut,
                        {DistFormat::block()}, "P");
      b.use({"A"});
      b.begin_loop(3);
      b.call("foo", {"A"});
      if (realign)
        b.realign("A", "T2", Alignment::identity(1));
      else
        b.redistribute("A", {DistFormat::cyclic(2)}, "P");
      b.use({"A"});
      b.end_loop();
      const Compiled c = compile(b, level);
      SCOPED_TRACE(std::string(realign ? "realign " : "redistribute ") +
                   driver::to_string(level));
      // Versions: 0 cyclic, 1 block (the dummy's), 2 cyclic(2).
      const auto* pre = label_of(c, "b1", "A");
      const auto* post = label_of(c, "a1", "A");
      ASSERT_NE(pre, nullptr);
      ASSERT_NE(post, nullptr);
      EXPECT_EQ(pre->reaching, (std::vector<int>{0, 2}));
      EXPECT_EQ(pre->leaving, (std::vector<int>{1}));
      EXPECT_EQ(pre->use.letter(), 'W');
      EXPECT_EQ(post->reaching, (std::vector<int>{1}));
      EXPECT_EQ(post->use.letter(), 'N');
      if (level == OptLevel::O0)
        EXPECT_EQ(post->leaving, (std::vector<int>{0, 2}));
      else
        EXPECT_TRUE(post->removed);  // U = N: the restore is useless
      run_checked(c);
    }
  }
}

}  // namespace
}  // namespace hpfc
