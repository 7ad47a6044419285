// Support utilities and miscellaneous library surfaces: diagnostics
// collection, string helpers (JSON escaping included), the run-report
// JSON writer, the shared CLI parser, version-table edge cases, graph
// rendering, and 2-D processor-grid end-to-end runs.
#include <gtest/gtest.h>

#include <sstream>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
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
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
  EXPECT_EQ(join(std::vector<int>{}, "-"), "");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.0 MiB");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("dir/quickstart.hpf"), "dir/quickstart.hpf");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("q\tx\n\r\b\f"), "q\\tx\\n\\r\\b\\f");
  EXPECT_EQ(json_escape(std::string_view("\0\x01\x1b\x1f", 4)),
            "\\u0000\\u0001\\u001b\\u001f");
  // DEL and multi-byte UTF-8 are legal inside a JSON string.
  EXPECT_EQ(json_escape("\x7f caf\xc3\xa9"), "\x7f caf\xc3\xa9");
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  for (const char c : json_escape(controls))
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(RunReportJson, WritesBenchKeyNamesInOrder) {
  runtime::RunReport report;
  report.copies_performed = 2;
  report.net.messages = 3;
  report.net.bytes = 48;
  report.net.segments = 5;
  report.skipped_already_mapped = 4;
  report.net.sim_time = 0.0025;
  report.unpack_ms = 1.5;
  report.values_ms = 0.75;
  report.storage_ms = 0.25;
  std::ostringstream os;
  runtime::write_json_fields(os, report);
  const std::string json = os.str();
  EXPECT_TRUE(json.starts_with(
      "\"copies_performed\": 2, \"elements_copied\": 0, "
      "\"remote_messages\": 3, \"remote_bytes\": 48, "
      "\"local_copies\": 0, \"pack_segments\": 5, "));
  EXPECT_NE(json.find(", \"skipped_status_guard\": 4, "), std::string::npos);
  EXPECT_NE(json.find(", \"sim_time_ms\": 2.5, "), std::string::npos);
  EXPECT_NE(json.find(", \"storage_ms\": 0.25, \"values_ms\": 0.75, "
                      "\"pack_ms\": "),
            std::string::npos);
  EXPECT_TRUE(json.ends_with(", \"unpack_ms\": 1.5"));
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

TEST(Cli, RunFlagsConsumesMachineFlags) {
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
  // --paranoid is one literal flag: near-misses are not it.
  EXPECT_EQ(flags.consume("--paranoidd"), support::cli::Parsed::Unrecognized);
  EXPECT_EQ(flags.consume("--paranoid=1"), support::cli::Parsed::Unrecognized);
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
  // 0 means auto; a negative count is an error, not a silent auto.
  EXPECT_EQ(flags.consume("--threads=-2"), support::cli::Parsed::Error);
  EXPECT_EQ(flags.consume("--ranks=-1"), support::cli::Parsed::Error);
  EXPECT_NE(flags.error.find("-1"), std::string::npos);
  EXPECT_EQ(flags.consume("--threads=0"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.consume("--ranks=0"), support::cli::Parsed::Consumed);
  EXPECT_EQ(flags.consume("--proc-timeout-ms=0"),
            support::cli::Parsed::Error);
  EXPECT_EQ(flags.consume("--proc-timeout-ms=-5"),
            support::cli::Parsed::Error);
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
