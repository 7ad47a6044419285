// HPF-lite front end: lexer, parser, builder semantics (alignment
// composition via align-with-array, implicit templates, interface
// resolution) and front-end diagnostics.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "hpf/lexer.hpp"
#include "hpf/parser.hpp"

namespace hpfc {
namespace {

TEST(Lexer, TokenizesDirectives) {
  DiagnosticEngine diags;
  const auto tokens =
      hpf::lex("align A(i,j) with T(j, 2*i+1) ! trailing comment\n", diags);
  ASSERT_FALSE(diags.has_errors());
  std::vector<std::string> texts;
  for (const auto& t : tokens) texts.push_back(t.text);
  const std::vector<std::string> expected = {
      "align", "A", "(", "i", ",", "j", ")", "with", "T", "(",
      "j",     ",", "2", "*", "i", "+", "1", ")",    ""};
  EXPECT_EQ(texts, expected);
}

TEST(Lexer, TracksLineNumbers) {
  DiagnosticEngine diags;
  const auto tokens = hpf::lex("a\nbb\n  c", diags);
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[2].loc.line, 3);
  EXPECT_EQ(tokens[2].loc.column, 3);
}

TEST(Lexer, ReportsBadCharacters) {
  DiagnosticEngine diags;
  hpf::lex("use(A) @ def(B)", diags);
  EXPECT_TRUE(diags.has(DiagId::ParseError));
}

constexpr const char* kAdiSource = R"(
routine adi
processors P(4)
template T(64,64)
distribute T(block,*) onto P
real A(64,64)
align A(i,j) with T(i,j)
real B(64,64)
align B(i,j) with T(j,i)
begin
  use(A,B)
  redistribute T(*,block)
  use(A)
  loop 3
    realign A(i,j) with T(j,i)
    def(A)
    realign A(i,j) with T(i,j)
  endloop
  use(A)
end
)";

TEST(Parser, ParsesAFullRoutine) {
  DiagnosticEngine diags;
  const ir::Program program = hpf::parse(kAdiSource, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  EXPECT_EQ(program.name, "adi");
  EXPECT_EQ(program.procs.size(), 1u);
  EXPECT_EQ(program.templates.size(), 1u);
  EXPECT_EQ(program.arrays.size(), 2u);
  // Transposed alignment of B parsed correctly.
  const auto& b = program.array(program.find_array("B"));
  EXPECT_EQ(b.align.per_template_dim[0].array_dim, 1);
  EXPECT_EQ(b.align.per_template_dim[1].array_dim, 0);
  // Top-level statements: use, redistribute, use, loop, use.
  EXPECT_EQ(program.body.size(), 5u);
}

TEST(Parser, ParsedProgramCompilesAndRuns) {
  DiagnosticEngine diags;
  driver::CompileOptions options;
  const auto compiled = driver::compile_source(kAdiSource, options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();
  const auto oracle = driver::run_oracle(compiled);
  const auto parallel = driver::run(compiled);
  EXPECT_EQ(oracle.signature, parallel.signature);
}

TEST(Parser, DirectDistributionAndCalls) {
  DiagnosticEngine diags;
  const char* source = R"(
routine caller
processors P(8)
real Y(128)
distribute Y(block) onto P
interface foo(X(128) intent(inout) distribute(cyclic) onto P)
begin
  def(Y)
  call foo(Y)
  use(Y)
end
)";
  driver::CompileOptions options;
  const auto compiled = driver::compile_source(source, options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();
  const auto report = driver::run(compiled);
  EXPECT_EQ(report.copies_performed, 2);  // in and back
}

TEST(Parser, AffineAlignTargets) {
  DiagnosticEngine diags;
  const char* source = R"(
routine affine
processors P(4)
template T(32)
distribute T(cyclic(2)) onto P
real A(8)
align A(i) with T(2*i+5)
real R(8)
align R(i) with T(*)
begin
  use(A)
end
)";
  const ir::Program program = hpf::parse(source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  const auto& a = program.array(program.find_array("A"));
  EXPECT_EQ(a.align.per_template_dim[0].stride, 2);
  EXPECT_EQ(a.align.per_template_dim[0].offset, 5);
  const auto& r = program.array(program.find_array("R"));
  EXPECT_EQ(r.align.per_template_dim[0].kind,
            mapping::AlignTarget::Kind::Replicated);
}

TEST(Parser, ConstantAlignTarget) {
  DiagnosticEngine diags;
  const char* source = R"(
routine pinned
processors P(2,2)
template T(8,8)
distribute T(block,block) onto P
real V(8)
align V(i) with T(3,i)
begin
  use(V)
end
)";
  const ir::Program program = hpf::parse(source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  const auto& v = program.array(program.find_array("V"));
  EXPECT_EQ(v.align.per_template_dim[0].kind,
            mapping::AlignTarget::Kind::Constant);
  EXPECT_EQ(v.align.per_template_dim[0].offset, 3);
}

TEST(Parser, ReportsUnknownSymbols) {
  DiagnosticEngine diags;
  hpf::parse("routine r\nbegin\n use(Z)\nend\n", diags);
  EXPECT_TRUE(diags.has(DiagId::UnknownSymbol));
}

TEST(Parser, ReportsMissingInterface) {
  DiagnosticEngine diags;
  const char* source = R"(
routine r
processors P(4)
real A(16)
distribute A(block) onto P
begin
  call mystery(A)
end
)";
  driver::CompileOptions options;
  const auto compiled = driver::compile_source(source, options, diags);
  EXPECT_FALSE(compiled.ok);
  EXPECT_TRUE(diags.has(DiagId::MissingInterface));
}

TEST(Parser, ReportsMalformedDirectives) {
  DiagnosticEngine diags;
  hpf::parse("routine r\nprocessors P(0,\nbegin\nend\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, ReportsBadFormat) {
  DiagnosticEngine diags;
  hpf::parse(
      "routine r\nprocessors P(4)\ntemplate T(8)\ndistribute T(diagonal) "
      "onto P\nbegin\nend\n",
      diags);
  EXPECT_TRUE(diags.has(DiagId::ParseError));
}

TEST(Builder, RedistributeOfAlignedArrayIsRejected) {
  hpf::ProgramBuilder b("r");
  b.procs("P", mapping::Shape{4});
  b.tmpl("T", mapping::Shape{16});
  b.distribute_template("T", {mapping::DistFormat::block()}, "P");
  b.array("A", mapping::Shape{16});
  b.align("A", "T", mapping::Alignment::identity(1));
  b.redistribute("A", {mapping::DistFormat::cyclic()});
  DiagnosticEngine diags;
  b.finish(diags);
  EXPECT_TRUE(diags.has(DiagId::BadDirective));
}

TEST(Builder, MisnestedBlocksAreRejected) {
  hpf::ProgramBuilder b("r");
  b.begin_if();
  DiagnosticEngine diags;
  b.finish(diags);
  EXPECT_TRUE(diags.has(DiagId::BadDirective));
}

// Every array has at least one dimension, so no layout of a scalar can
// exist: the builder reports an empty shape for an array, a dummy and an
// interface dummy alike, and declares nothing.
TEST(Builder, ScalarArraysAreRejected) {
  const auto rejects = [](const auto& declare) {
    hpf::ProgramBuilder b("r");
    b.procs("P", mapping::Shape{4});
    declare(b);
    DiagnosticEngine diags;
    const ir::Program program = b.finish(diags);
    EXPECT_TRUE(diags.has(DiagId::BadMapping)) << diags.to_string();
    EXPECT_EQ(program.find_array("S"), -1);
    for (const auto& interface : program.interfaces)
      EXPECT_TRUE(interface.dummies.empty());
  };
  rejects([](hpf::ProgramBuilder& b) {
    EXPECT_EQ(b.array("S", mapping::Shape{}), -1);
  });
  rejects([](hpf::ProgramBuilder& b) {
    EXPECT_EQ(b.dummy("S", mapping::Shape{}, ir::Intent::In), -1);
  });
  rejects([](hpf::ProgramBuilder& b) {
    b.interface("callee");
    b.interface_dummy("S", mapping::Shape{}, ir::Intent::In,
                      {mapping::DistFormat::block()}, "P");
  });
}

TEST(Builder, AlignWithArrayComposes) {
  hpf::ProgramBuilder b("r");
  b.procs("P", mapping::Shape{4});
  b.array("A", mapping::Shape{16, 16});
  b.distribute_array(
      "A", {mapping::DistFormat::block(), mapping::DistFormat::collapsed()},
      "P");
  b.array("B", mapping::Shape{16, 16});
  mapping::Alignment transpose;
  transpose.per_template_dim = {mapping::AlignTarget::axis(1),
                                mapping::AlignTarget::axis(0)};
  b.align_with_array("B", "A", transpose);
  b.use({"A", "B"});
  DiagnosticEngine diags;
  const ir::Program program = b.finish(diags);
  ASSERT_FALSE(diags.has_errors());
  // B's placement: B(i,j) at template($A)(j,i), rows of $A block-mapped,
  // so B is column-distributed.
  const auto layout =
      program.initial_mapping(program.find_array("B"))
          .normalize(program.array(program.find_array("B")).shape);
  EXPECT_EQ(layout.owners()[0].source.array_dim, 1);
}

TEST(Program, DuplicateShapeMismatchedCallIsRejected) {
  hpf::ProgramBuilder b("r");
  b.procs("P", mapping::Shape{4});
  b.array("A", mapping::Shape{8});
  b.distribute_array("A", {mapping::DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", mapping::Shape{16}, ir::Intent::In,
                    {mapping::DistFormat::block()}, "P");
  b.call("foo", {"A"});
  DiagnosticEngine diags;
  b.finish(diags);
  EXPECT_TRUE(diags.has(DiagId::BadMapping));
}

TEST(Program, PrinterRoundTripsBasicStructure) {
  DiagnosticEngine diags;
  const ir::Program program = hpf::parse(kAdiSource, diags);
  ASSERT_FALSE(diags.has_errors());
  const std::string text = program.to_string();
  EXPECT_NE(text.find("routine adi"), std::string::npos);
  EXPECT_NE(text.find("redistribute T"), std::string::npos);
  EXPECT_NE(text.find("loop trip=3"), std::string::npos);
  EXPECT_NE(text.find("realign A"), std::string::npos);
}

}  // namespace
}  // namespace hpfc
