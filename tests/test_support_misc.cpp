// Support utilities and miscellaneous library surfaces: diagnostics
// collection, string helpers, the toggle registry and shared CLI parser,
// version-table edge cases, graph rendering, and 2-D processor-grid
// end-to-end runs.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "runtime/toggles.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace hpfc {
namespace {

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine diags;
  diags.warning(DiagId::BadDirective, {1, 2}, "w");
  EXPECT_FALSE(diags.has_errors());
  diags.error(DiagId::UnknownSymbol, {3, 4}, "e1");
  diags.error(DiagId::AmbiguousReference, {}, "e2");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 2);
  EXPECT_EQ(diags.all().size(), 3u);
  EXPECT_TRUE(diags.has(DiagId::UnknownSymbol));
  EXPECT_FALSE(diags.has(DiagId::ParseError));
  const auto* found = diags.find(DiagId::AmbiguousReference);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->message, "e2");
  const std::string text = diags.to_string();
  EXPECT_NE(text.find("unknown-symbol"), std::string::npos);
  EXPECT_NE(text.find("3:4"), std::string::npos);
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(Strings, SplitTrimJoin) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
  EXPECT_EQ(join(std::vector<int>{}, "-"), "");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.0 MiB");
}

TEST(TwoDGrid, EndToEndOnProcessorMatrix) {
  // A (block, block) layout over a 2x3 grid, remapped to (cyclic, block):
  // exercises multi-dimensional grids end to end.
  hpf::ProgramBuilder b("grid2d");
  b.procs("G", mapping::Shape{2, 3});
  b.array("A", mapping::Shape{12, 18});
  b.distribute_array("A", {mapping::DistFormat::block(),
                           mapping::DistFormat::block()},
                     "G");
  b.def({"A"});
  b.redistribute("A", {mapping::DistFormat::cyclic(),
                       mapping::DistFormat::block()},
                 "", "1");
  b.use({"A"});
  b.redistribute("A", {mapping::DistFormat::cyclic(2),
                       mapping::DistFormat::cyclic()},
                 "", "2");
  b.use({"A"});
  DiagnosticEngine diags;
  driver::CompileOptions options;
  const auto compiled = driver::compile(b.finish(diags), options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();
  runtime::RunOptions run_options;
  run_options.paranoid = true;
  const auto report = driver::run(compiled, run_options);
  const auto oracle = driver::run_oracle(compiled, run_options);
  EXPECT_EQ(report.signature, oracle.signature);
  EXPECT_EQ(report.copies_performed, 2);
}

TEST(TwoDGrid, GridToVectorArrangementChange) {
  // Remapping between different processor arrangements (1-D row of 6 vs
  // 2x3 grid) — the machine hosts the larger arrangement.
  hpf::ProgramBuilder b("arrmix");
  b.procs("P", mapping::Shape{6});
  b.procs("G", mapping::Shape{2, 3});
  b.tmpl("T", mapping::Shape{24, 24});
  b.distribute_template("T", {mapping::DistFormat::block(),
                              mapping::DistFormat::collapsed()},
                        "P");
  b.array("A", mapping::Shape{24, 24});
  b.align("A", "T", mapping::Alignment::identity(2));
  b.def({"A"});
  b.redistribute("T", {mapping::DistFormat::block(),
                       mapping::DistFormat::block()},
                 "G", "1");
  b.use({"A"});
  DiagnosticEngine diags;
  driver::CompileOptions options;
  const auto compiled = driver::compile(b.finish(diags), options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();
  const auto report = driver::run(compiled);
  const auto oracle = driver::run_oracle(compiled);
  EXPECT_EQ(report.signature, oracle.signature);
}

TEST(VersionTable, RepresentativeIsFirstMapping) {
  mapping::VersionTable table;
  mapping::FullMapping fm;
  fm.template_id = 7;
  fm.template_shape = mapping::Shape{16};
  fm.align = mapping::Alignment::identity(1);
  fm.dist.proc_shape = mapping::Shape{4};
  fm.dist.per_dim = {mapping::DistFormat::block()};
  const int v = table.intern(fm.normalize(mapping::Shape{16}), fm);
  EXPECT_EQ(table.representative(v).template_id, 7);
  EXPECT_THROW(static_cast<void>(table.layout(5)), InternalError);
}

TEST(GraphRendering, RemovedAndRegionLabels) {
  hpf::ProgramBuilder b("render2");
  b.procs("P", mapping::Shape{4});
  b.array("A", mapping::Shape{32});
  b.distribute_array("A", {mapping::DistFormat::block()}, "P");
  b.def({"A"});
  b.redistribute("A", {mapping::DistFormat::cyclic()}, "", "1");
  b.redistribute("A", {mapping::DistFormat::block()}, "", "2");
  b.use({"A"});
  DiagnosticEngine diags;
  driver::CompileOptions options;
  options.level = driver::OptLevel::O1;
  const auto compiled = driver::compile(b.finish(diags), options, diags);
  ASSERT_TRUE(compiled.ok);
  const std::string text =
      compiled.analysis.graph.to_text(compiled.program);
  EXPECT_NE(text.find("removed"), std::string::npos) << text;
}

TEST(Toggles, RegistryResolvesBothSpellingsAndCoversAllFlags) {
  // Every registered toggle resolves under both its kebab-case flag
  // spelling and its snake_case JSON key, and points at a live
  // RunOptions member.
  runtime::RunOptions options;
  std::size_t count = 0;
  for (const runtime::Toggle& toggle : runtime::toggles()) {
    ++count;
    EXPECT_EQ(runtime::find_toggle(toggle.name), &toggle);
    EXPECT_EQ(runtime::find_toggle(toggle.key), &toggle);
    EXPECT_FALSE(toggle.help.empty()) << toggle.name;
    EXPECT_FALSE(options.*(toggle.flag)) << toggle.name
                                         << " should default to off";
  }
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(runtime::find_toggle("no-such-toggle"), nullptr);
}

TEST(Toggles, RunOptionsSetAndForEach) {
  runtime::RunOptions options;
  EXPECT_TRUE(options.set("paranoid"));
  EXPECT_TRUE(options.paranoid);
  EXPECT_TRUE(options.set("paranoid", false));
  EXPECT_FALSE(options.paranoid);
  EXPECT_TRUE(options.set("paranoid"));
  EXPECT_FALSE(options.set("not-a-toggle"));

  std::size_t seen = 0;
  std::size_t on = 0;
  runtime::for_each_toggle(options,
                           [&](const runtime::Toggle&, bool value) {
                             ++seen;
                             if (value) ++on;
                           });
  EXPECT_EQ(seen, runtime::toggles().size());
  EXPECT_EQ(on, 1u);  // paranoid is set again
}

TEST(Cli, RunFlagsConsumesMachineFlagsAndToggles) {
  support::cli::RunFlags flags;
  EXPECT_EQ(flags.consume("--backend=proc"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.options.backend, exec::BackendKind::Proc);
  EXPECT_EQ(flags.consume("--threads=3"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.options.threads, 3);
  EXPECT_EQ(flags.consume("--ranks=5"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.options.ranks, 5);
  EXPECT_EQ(flags.consume("--seed=11"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.options.seed, 11u);
  EXPECT_EQ(flags.consume("--proc-timeout-ms=250"),
            support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.options.proc_timeout_ms, 250);
  EXPECT_EQ(flags.consume("--paranoid"), support::cli::Parsed::Consumed);
  EXPECT_TRUE(flags.options.paranoid);
  // Flags the shared surface does not own pass through untouched.
  EXPECT_EQ(flags.consume("--json=x.json"),
            support::cli::Parsed::Unrecognized);
  EXPECT_EQ(flags.consume("file.hpf"), support::cli::Parsed::Unrecognized);
}

TEST(Cli, RunFlagsReportsErrors) {
  support::cli::RunFlags flags;
  EXPECT_EQ(flags.consume("--backend=mpi"), support::cli::Parsed::Error);
  EXPECT_NE(flags.error.find("mpi"), std::string::npos);
  EXPECT_EQ(flags.consume("--threads=banana"), support::cli::Parsed::Error);
  EXPECT_EQ(flags.consume("--proc-timeout-ms=0"),
            support::cli::Parsed::Error);
  EXPECT_EQ(flags.consume("--proc-timeout-ms=-5"),
            support::cli::Parsed::Error);
}

TEST(Cli, ToggleTableIsMachineParsable) {
  // tools/run_benches validates passthrough flags against this table:
  // one "--flag\tkey\thelp" line per entry, registry toggles first, and
  // the value-taking knobs (proc-timeout, snapshot dir/cadence) spelled
  // with a trailing '='.
  const std::string table = support::cli::toggle_table();
  std::size_t lines = 0;
  for (const std::string& line : split(table, '\n')) {
    if (line.empty()) continue;
    ++lines;
    const auto columns = split(line, '\t');
    ASSERT_EQ(columns.size(), 3u) << line;
    EXPECT_TRUE(starts_with(columns[0], "--")) << line;
    EXPECT_FALSE(columns[1].empty()) << line;
    EXPECT_FALSE(columns[2].empty()) << line;
  }
  EXPECT_EQ(lines, runtime::toggles().size() + 3);
  EXPECT_NE(table.find("--proc-timeout-ms=\t"), std::string::npos);
  EXPECT_NE(table.find("--snapshot-dir=\t"), std::string::npos);
  EXPECT_NE(table.find("--snapshot-every=\t"), std::string::npos);
  EXPECT_NE(table.find("--paranoid\tparanoid\t"), std::string::npos);
}

TEST(NetStats, Summary) {
  net::NetStats a;
  a.messages = 10;
  a.bytes = 1000;
  a.sim_time = 1.0;
  EXPECT_NE(a.summary().find("10 msgs"), std::string::npos);
}

TEST(CostModel, LinearInMessagesAndBytes) {
  net::CostModel cost{2.0, 0.5};
  EXPECT_DOUBLE_EQ(cost.message_time(3, 10), 3 * 2.0 + 10 * 0.5);
  EXPECT_DOUBLE_EQ(cost.message_time(0, 0), 0.0);
}

}  // namespace
}  // namespace hpfc
