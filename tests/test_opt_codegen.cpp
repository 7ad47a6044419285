// Pass-level unit tests: removal cascades and transitive reaching sets,
// maybe-live propagation boundaries, hoisting edge cases, Theorem 1
// validator sensitivity, and op-level properties of the generated code.
#include <gtest/gtest.h>

#include "codegen/gen.hpp"
#include "common.hpp"
#include "opt/passes.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::DistFormat;
using mapping::Shape;

ProgramBuilder unused_chain() {
  // Three consecutive remappings, the array only used at the very end.
  ProgramBuilder b("chain");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "2");
  b.redistribute("A", {DistFormat::cyclic(4)}, "", "3");
  b.use({"A"});
  return b;
}

TEST(UselessRemoval, CascadeRemovesAllButTheLast) {
  ProgramBuilder b = unused_chain();
  const Compiled c = compile(b, OptLevel::O1);
  EXPECT_TRUE(label_of(c, "1", "A")->removed);
  EXPECT_TRUE(label_of(c, "2", "A")->removed);
  const auto* l3 = label_of(c, "3", "A");
  ASSERT_NE(l3, nullptr);
  EXPECT_FALSE(l3->removed);
  // The recomputed reaching set jumps over both removed vertices,
  // transitively back to the initial version.
  EXPECT_EQ(l3->reaching, (std::vector<int>{0}));
  const auto report = driver::run(c);
  EXPECT_EQ(report.copies_performed, 1);  // 0 -> 3 directly
}

TEST(UselessRemoval, ReportCountsRemovalsAndDeactivations) {
  ProgramBuilder b = unused_chain();
  const Compiled c = compile(b, OptLevel::O1);
  EXPECT_EQ(c.opt_report.removed_remappings, 2);
  EXPECT_EQ(c.opt_report.vertices_deactivated, 2);
}

TEST(MaybeLive, PropagationStopsAtWriters) {
  // v1 (read-only) then v2 (writing) then back to 0: the initial copy is
  // maybe-live at v1 but must not survive past v2.
  ProgramBuilder b("stops");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "2");
  b.def({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "3");
  b.use({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const auto* l1 = label_of(c, "1", "A");
  ASSERT_NE(l1, nullptr);
  // Version 0 is remapped back to at vertex 3, but vertex 2's copy is
  // written in between: 0 must not be in M at vertex 2.
  const auto* l2 = label_of(c, "2", "A");
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->maybe_live, l2->leaving);
  // And the run must copy at vertex 3 (no stale reuse).
  runtime::RunOptions options;
  options.paranoid = true;
  const auto report = driver::run(c, options);
  const auto oracle = driver::run_oracle(c, options);
  EXPECT_EQ(report.signature, oracle.signature);
  EXPECT_EQ(report.copies_performed, 3);
}

TEST(Hoisting, MultipleTrailingRemapsHoistInOrder) {
  ProgramBuilder b("multi");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("B", Shape{32});
  b.distribute_array("B", {DistFormat::block()}, "P");
  b.begin_loop(4);
  b.redistribute("A", {DistFormat::cyclic()}, "", "a1");
  b.redistribute("B", {DistFormat::cyclic()}, "", "b1");
  b.use({"A", "B"});
  b.redistribute("A", {DistFormat::block()}, "", "a2");
  b.redistribute("B", {DistFormat::block()}, "", "b2");
  b.end_loop();
  b.use({"A", "B"});
  DiagnosticEngine diags;
  ir::Program program = b.finish(diags);
  ASSERT_FALSE(diags.has_errors());
  const int hoisted = opt::hoist_loop_invariant_remaps(program);
  EXPECT_EQ(hoisted, 2);
  // Both remap-backs now follow the loop, in their original order.
  ASSERT_GE(program.body.size(), 3u);
  const auto& after1 = *program.body[program.body.size() - 3];
  const auto& after2 = *program.body[program.body.size() - 2];
  EXPECT_EQ(after1.label, "a2");
  EXPECT_EQ(after2.label, "b2");
}

TEST(Hoisting, BlockedByCallInPrefix) {
  ProgramBuilder b("blocked");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{32}, ir::Intent::In, {DistFormat::block()},
                    "P");
  b.begin_loop(4);
  b.call("foo", {"A"});  // conservative: blocks the motion
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use({"A"});
  DiagnosticEngine diags;
  ir::Program program = b.finish(diags);
  EXPECT_EQ(opt::hoist_loop_invariant_remaps(program), 0);
}

TEST(Hoisting, NestedLoopsHoistInnermostFirst) {
  ProgramBuilder b("nested");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.begin_loop(2);
  b.begin_loop(3);
  b.redistribute("A", {DistFormat::cyclic()}, "", "in1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "in2");
  b.end_loop();
  b.end_loop();
  b.use({"A"});
  DiagnosticEngine diags;
  ir::Program program = b.finish(diags);
  // Inner hoist fires; afterwards the outer loop ends with the hoisted
  // remap whose prefix (the inner loop) blocks further motion.
  EXPECT_EQ(opt::hoist_loop_invariant_remaps(program), 1);
}

TEST(Theorem1, ValidatorDetectsCorruptedReachingSets) {
  ProgramBuilder b = unused_chain();
  DiagnosticEngine diags;
  driver::CompileOptions options;
  options.level = OptLevel::O1;
  Compiled c = driver::compile(b.finish(diags), options, diags);
  ASSERT_TRUE(c.ok);
  ASSERT_TRUE(opt::validate_theorem1(c.analysis));
  // Corrupt one reaching set: the validator must notice.
  for (auto& v : c.analysis.graph.vertices()) {
    if (v.name != "3") continue;
    auto& label = v.arrays.begin()->second;
    label.reaching.push_back(2);
  }
  EXPECT_FALSE(opt::validate_theorem1(c.analysis));
}

// ---- codegen op-level properties ---------------------------------------

int copy_ops(const Compiled& c) { return c.code.count(codegen::OpKind::Copy); }

TEST(Codegen, CopyOpsShrinkWithOptimization) {
  ProgramBuilder b0 = unused_chain();
  ProgramBuilder b1 = unused_chain();
  const Compiled c0 = compile(b0, OptLevel::O0);
  const Compiled c1 = compile(b1, OptLevel::O1);
  EXPECT_GT(copy_ops(c0), copy_ops(c1));
}

TEST(Codegen, DeadCopySkipsDataMovement) {
  ProgramBuilder b("dead");
  b.procs("P", Shape{4});
  b.array("A", Shape{32});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.full_def({"A"});  // fully redefined before any use: U = D
  b.use({"A"});
  const Compiled c1 = compile(b, OptLevel::O1);
  // The vertex survives (allocation + status) but emits no Copy op.
  EXPECT_EQ(copy_ops(c1), 0);
  EXPECT_GT(c1.code.count(codegen::OpKind::Allocate), 0);

  ProgramBuilder b0("dead");
  b0.procs("P", Shape{4});
  b0.array("A", Shape{32});
  b0.distribute_array("A", {DistFormat::block()}, "P");
  b0.def({"A"});
  b0.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b0.full_def({"A"});
  b0.use({"A"});
  const Compiled c0 = compile(b0, OptLevel::O0);
  EXPECT_GT(copy_ops(c0), 0);  // the naive scheme always moves the data
}

TEST(Codegen, NoFreeOfTheCallerOwnedDummyCopy) {
  ProgramBuilder b("dummyfree");
  b.procs("P", Shape{4});
  b.dummy("A", Shape{32}, ir::Intent::InOut);
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"});
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.def({"A"});
  const Compiled c = compile(b, OptLevel::O2);
  const ir::ArrayId a = c.program.find_array("A");
  // Walk every op: no Free of (A, version 0) anywhere.
  const std::function<void(const codegen::OpList&)> walk =
      [&](const codegen::OpList& ops) {
        for (const auto& op : ops) {
          EXPECT_FALSE(op.kind == codegen::OpKind::Free && op.array == a &&
                       op.version == 0);
          walk(op.body);
        }
      };
  walk(c.code.at_entry);
  for (const auto& ops : c.code.at_node) walk(ops);
  walk(c.code.at_exit);
}

TEST(Codegen, EntryInitializesStatusAndDummyLiveness) {
  ProgramBuilder b("entry");
  b.procs("P", Shape{4});
  b.dummy("A", Shape{32}, ir::Intent::In);
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.array("L", Shape{32});
  b.distribute_array("L", {DistFormat::cyclic()}, "P");
  b.use({"A", "L"});
  const Compiled c = compile(b, OptLevel::O2);
  int set_status = 0;
  int set_live_true = 0;
  for (const auto& op : c.code.at_entry) {
    if (op.kind == codegen::OpKind::SetStatus) ++set_status;
    if (op.kind == codegen::OpKind::SetLive && op.flag) ++set_live_true;
  }
  EXPECT_EQ(set_status, 2);     // both arrays start at version 0
  EXPECT_EQ(set_live_true, 1);  // only the dummy arrives with values
}

TEST(Codegen, GuardStructureIsWellFormed) {
  ProgramBuilder b = unused_chain();
  const Compiled c = compile(b, OptLevel::O1);
  // Every Copy sits under an IfStatusEq under an IfNotLive under an
  // IfStatusNe.
  const std::function<void(const codegen::OpList&, int)> walk =
      [&](const codegen::OpList& ops, int depth) {
        for (const auto& op : ops) {
          if (op.kind == codegen::OpKind::Copy) {
            EXPECT_GE(depth, 3);
          }
          const bool nests = op.kind == codegen::OpKind::IfStatusNe ||
                             op.kind == codegen::OpKind::IfStatusEq ||
                             op.kind == codegen::OpKind::IfNotLive ||
                             op.kind == codegen::OpKind::IfLive ||
                             op.kind == codegen::OpKind::IfSavedEq;
          walk(op.body, nests ? depth + 1 : depth);
        }
      };
  for (const auto& ops : c.code.at_node) walk(ops, 0);
}

}  // namespace
}  // namespace hpfc
