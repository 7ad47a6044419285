// Every worked example of the paper, encoded and checked against the
// outcome the paper documents for it. The figures the benches measure too
// come from src/testing/figures.hpp; single-use ones are built inline.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "testing/figures.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using hpf::ProgramBuilder;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Shape;

// ---------------------------------------------------------------- Figure 1
// realign A with B(j,i) followed by redistribute B: two remappings of A
// when A is used in between, but a single *direct* remapping once the
// intermediate mapping is unused (the motivation of §1.1).
TEST(Fig01, TwoRemappingsWhenIntermediateIsUsed) {
  const Compiled c =
      compile(testing::fig1(16, 4, /*use_between=*/true), OptLevel::O2);
  // A goes through three placements: initial, transposed-block,
  // transposed-cyclic.
  EXPECT_EQ(c.analysis.version_count(c.program.find_array("A")), 3);
  const auto report = run_checked(c);
  // Copies: A 0->1, A 1->2, B 0->1.
  EXPECT_EQ(report.copies_performed, 3);
}

TEST(Fig01, DirectRemappingWhenIntermediateIsDead) {
  const Compiled c =
      compile(testing::fig1(16, 4, /*use_between=*/false), OptLevel::O2);
  // The realign's copy is useless (U = N): removed; the redistribute's
  // reaching set is recomputed to the initial version -> direct remapping.
  const auto* l1 = label_of(c, "1", "A");
  ASSERT_NE(l1, nullptr);
  EXPECT_TRUE(l1->removed);
  const auto* l2 = label_of(c, "2", "A");
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->reaching, (std::vector<int>{0}));
  const auto report = run_checked(c);
  EXPECT_EQ(report.copies_performed, 2);  // A 0->2 direct, B 0->1

  // The naive translation performs all three copies.
  const Compiled c0 =
      compile(testing::fig1(16, 4, /*use_between=*/false), OptLevel::O0);
  const auto report0 = run_checked(c0);
  EXPECT_EQ(report0.copies_performed, 3);
}

// ---------------------------------------------------------------- Figure 2
// realign C with B(j,i), then a redistribute of B that restores C's
// initial placement: both C remappings are useless.
TEST(Fig02, RestoredMappingMakesBothRemappingsUseless) {
  const Compiled c = compile(testing::fig2(16, 4), OptLevel::O1);
  const ir::ArrayId array_c = c.program.find_array("C");
  // C's transposed intermediate is never referenced: removed; and at the
  // redistribute C's recomputed reaching equals its leaving (version 0),
  // so the runtime guard suppresses any copy.
  const auto* l1 = label_of(c, "1", "C");
  ASSERT_NE(l1, nullptr);
  EXPECT_TRUE(l1->removed);
  const auto* l2 = label_of(c, "2", "C");
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->reaching, (std::vector<int>{0}));
  EXPECT_EQ(l2->leaving, (std::vector<int>{0}));

  const auto report = run_checked(c);
  // Nothing moves at all: C's remappings are useless, and B itself is not
  // referenced after the redistribute either.
  EXPECT_EQ(report.copies_performed, 0);

  // Naive: C copied twice (there and back) plus B once.
  const Compiled c0 = compile(testing::fig2(16, 4), OptLevel::O0);
  const auto report0 = run_checked(c0);
  EXPECT_EQ(report0.copies_performed, 3);
  EXPECT_EQ(c.analysis.version_count(array_c), 2);
}

// ---------------------------------------------------------------- Figure 3
// A template redistribution remaps all five aligned arrays although only
// two of them (A0 and A1) are used afterwards.
TEST(Fig03, OnlyUsedAlignedArraysAreRemapped) {
  const Compiled c = compile(testing::fig3(32, 4, 5, 2), OptLevel::O1);
  int kept = 0;
  int removed = 0;
  for (const char* name : {"A0", "A1", "A2", "A3", "A4"}) {
    const auto* label = label_of(c, "1", name);
    ASSERT_NE(label, nullptr) << name;
    (label->removed ? removed : kept)++;
  }
  EXPECT_EQ(kept, 2);
  EXPECT_EQ(removed, 3);
  EXPECT_EQ(c.opt_report.removed_remappings, 3);

  const auto report = run_checked(c);
  EXPECT_EQ(report.copies_performed, 2);

  // Naive moves all five arrays.
  const Compiled c0 = compile(testing::fig3(32, 4, 5, 2), OptLevel::O0);
  EXPECT_EQ(run_checked(c0).copies_performed, 5);
}

// ---------------------------------------------------------------- Figure 4
// call foo(Y); call foo(Y); call bla(Y): the back-and-forth argument
// remappings between consecutive calls are useless, and Y moves directly
// between foo's and bla's mappings.
TEST(Fig04, NaiveRemapsAroundEveryCall) {
  const Compiled c = compile(testing::fig4(32, 4), OptLevel::O0);
  const auto report = run_checked(c);
  // 3 copies in + 3 copies back.
  EXPECT_EQ(report.copies_performed, 6);
}

TEST(Fig04, OptimizedRemapsDirectly) {
  const Compiled c = compile(testing::fig4(32, 4), OptLevel::O2);
  // The restores after the first two calls are useless.
  const auto* a1 = label_of(c, "a1", "Y");
  ASSERT_NE(a1, nullptr);
  EXPECT_TRUE(a1->removed);
  const auto* a2 = label_of(c, "a2", "Y");
  ASSERT_NE(a2, nullptr);
  EXPECT_TRUE(a2->removed);
  // The second foo call needs no copy at all: reaching == leaving.
  const auto* b2 = label_of(c, "b2", "Y");
  if (b2 != nullptr && !b2->removed) {
    EXPECT_EQ(b2->reaching, b2->leaving);
  }
  const auto report = run_checked(c);
  // Y: block->cyclic at foo1; cyclic->cyclic(4) directly at bla; and the
  // final use of Y in block reuses the still-live initial copy (the calls
  // only read), so the restore after bla costs nothing either.
  EXPECT_EQ(report.copies_performed, 2);
  EXPECT_GE(report.skipped_live_copy + report.skipped_already_mapped, 1);
}

// ------------------------------------------------------------- Figures 5/6
// Figure 5: a reference under an ambiguous mapping is rejected
// (restriction 1). Figure 6: ambiguity that is dead before any reference
// is fine — the runtime status resolves it.
TEST(Fig05, AmbiguousReferenceIsRejected) {
  ProgramBuilder b("fig5");
  b.procs("P", Shape{4});
  b.tmpl("T0", Shape{16});
  b.distribute_template("T0", {DistFormat::block()}, "P");
  b.tmpl("T1", Shape{16});
  b.distribute_template("T1", {DistFormat::cyclic()}, "P");
  b.array("A", Shape{16});
  b.align("A", "T0", Alignment::identity(1));
  b.use({"A"});
  b.begin_if();
  b.realign("A", "T1", Alignment::identity(1));
  b.end_if();
  // A is block (via T0) or cyclic (via T1) here: referencing it is an
  // error.
  b.use({"A"});

  DiagnosticEngine diags;
  CompileOptions options;
  const Compiled c = driver::compile(b.finish(diags), options, diags);
  EXPECT_FALSE(c.ok);
  EXPECT_TRUE(diags.has(DiagId::AmbiguousReference)) << diags.to_string();
}

TEST(Fig06, DeadAmbiguityIsAccepted) {
  ProgramBuilder b("fig6");
  b.procs("P", Shape{4});
  b.array("A", Shape{16});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"});
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.end_if();
  // No reference here although A's mapping is ambiguous (Figure 6).
  b.redistribute("A", {DistFormat::cyclic()}, "", "2");
  b.use({"A"});

  const Compiled c = compile(b, OptLevel::O2);
  ASSERT_TRUE(c.ok);
  const auto* l2 = label_of(c, "2", "A");
  ASSERT_NE(l2, nullptr);
  // Both the initial and the then-branch mapping reach vertex 2.
  EXPECT_EQ(l2->reaching.size(), 2u);
  EXPECT_EQ(l2->leaving.size(), 1u);

  // Execute both paths: signatures must match the oracle on each.
  for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto report = run_checked(c, seed);
    (void)report;
  }
}

// ---------------------------------------------------------------- Figure 7
// The translation scheme itself: a dynamic program becomes static copies.
TEST(Fig07, TranslationInsertsCopiesBetweenStaticVersions) {
  // One redistribute between the uses S1 and S2.
  const Compiled c = compile(testing::fig7(24, 4, 1), OptLevel::O2);
  const ir::ArrayId a = c.program.find_array("A");
  EXPECT_EQ(c.analysis.version_count(a), 2);
  // References resolve to distinct versions.
  int v_s1 = -1;
  int v_s2 = -1;
  for (const auto& node : c.analysis.cfg.nodes()) {
    if (node.stmt == nullptr) continue;
    const auto& map =
        c.analysis.ref_versions[static_cast<std::size_t>(node.id)];
    const auto it = map.find(a);
    if (it == map.end()) continue;
    if (node.stmt->label == "S1") v_s1 = it->second;
    if (node.stmt->label == "S2") v_s2 = it->second;
  }
  EXPECT_EQ(v_s1, 0);
  EXPECT_EQ(v_s2, 1);
  EXPECT_EQ(run_checked(c).copies_performed, 1);
}

// ---------------------------------------------------- the figure corpus
// Every factory of src/testing/figures.hpp compiles at each level with
// Theorem 1 holding, and its runs agree with the oracle on both sides of
// every branch the run seeds pick.
TEST(Figures, EveryFactoryCompilesAndMatchesTheOracle) {
  const std::vector<std::pair<std::string, std::function<ir::Program()>>>
      corpus = {
          {"fig1 used", [] { return testing::fig1(16, 4, true); }},
          {"fig1 dead", [] { return testing::fig1(16, 4, false); }},
          {"fig2", [] { return testing::fig2(16, 4); }},
          {"fig3", [] { return testing::fig3(32, 4, 5, 2); }},
          {"fig4", [] { return testing::fig4(32, 4); }},
          {"fig7", [] { return testing::fig7(24, 4, 4); }},
          {"fig9", [] { return testing::fig9(32, 4); }},
          {"fig10", [] { return testing::fig10(16, 4, 3); }},
          {"fig13", [] { return testing::fig13(32, 4); }},
          {"fig13 tail", [] { return testing::fig13(32, 4, true); }},
          {"fig16", [] { return testing::fig16(32, 4, 5); }},
          {"fig16_multi", [] { return testing::fig16_multi(64, 4, 3, 2); }},
          {"fig18", [] { return testing::fig18(32, 4); }},
          {"scaling", [] { return testing::scaling_program(4, 8, 2); }},
      };
  for (const auto& [name, factory] : corpus) {
    for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      SCOPED_TRACE(name + " " + driver::to_string(level));
      const Compiled c = compile(factory(), level);
      ASSERT_TRUE(c.ok);
      for (unsigned seed = 1; seed <= 4; ++seed) run_checked(c, seed);
    }
  }
}

}  // namespace
}  // namespace hpfc
