// Specialized pack/unpack kernel codegen (copy-and-patch): specialize()
// lowers a compiled SegmentProgram to fragment-stitched kernels whose
// pack/unpack/copy must be byte-identical to the interpreted segment
// walker — the kernels' test reference (see docs/kernels.md). These
// tests pin (1) the fragment classification and span stitching, (2) the
// byte-equality property over random_layout redistribution programs,
// and (3) plan-slot eviction under memory pressure with lazy
// re-specialization (and fused-slot invalidation) behind it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/segments.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;
using redist::CopySegment;
using redist::SegmentProgram;

/// A hand-built program over one `len`/stride pattern (src/dst ranks and
/// bases are irrelevant to classification).
SegmentProgram one_segment(Extent len, Extent src_stride, Extent dst_stride) {
  SegmentProgram program;
  program.elements = len;
  program.segments.push_back({/*src_base=*/0, src_stride,
                              /*dst_base=*/0, dst_stride, len});
  return program;
}

TEST(FragmentClassification, PicksTheDocumentedFragmentPerSegmentShape) {
  EXPECT_EQ(redist::specialize(one_segment(1, 1, 1)).describe(), "singleton");
  EXPECT_EQ(redist::specialize(one_segment(3, 2, 1)).describe(), "unrolled");
  EXPECT_EQ(redist::specialize(one_segment(4, 1, 1)).describe(), "unrolled");
  EXPECT_EQ(redist::specialize(one_segment(8, 1, 1)).describe(), "memcpy");
  EXPECT_EQ(redist::specialize(one_segment(8, 2, 1)).describe(),
            "gather_const");
  EXPECT_EQ(redist::specialize(one_segment(8, 1, 4)).describe(),
            "scatter_const");
  EXPECT_EQ(redist::specialize(one_segment(8, 3, 2)).describe(),
            "strided_const");
  // Stride 5 is outside the precompiled constant-stride set: the
  // runtime-stride fallback takes over.
  EXPECT_EQ(redist::specialize(one_segment(8, 5, 2)).describe(),
            "strided_any");
}

TEST(FragmentClassification, StitchesSameFragmentRunsIntoOneSpan) {
  SegmentProgram program;
  program.elements = 16 + 16 + 8;
  program.segments.push_back({0, 1, 0, 1, 16});   // memcpy
  program.segments.push_back({16, 1, 16, 1, 16})  // memcpy, same fragment
      ;
  program.segments.push_back({32, 2, 32, 1, 8});  // gather_const
  const redist::Kernel kernel = redist::specialize(program);
  ASSERT_EQ(kernel.spans().size(), 2u);
  EXPECT_EQ(kernel.spans()[0].count, 2u);
  EXPECT_EQ(kernel.spans()[1].count, 1u);
  EXPECT_EQ(kernel.spans()[1].out_offset, 32);
  EXPECT_EQ(kernel.describe(), "memcpy+gather_const");
  EXPECT_EQ(kernel.elements(), program.elements);
  EXPECT_GT(kernel.footprint_bytes(), 0u);
}

TEST(FragmentClassification, EveryCatalogNameIsReachable) {
  const auto catalog = redist::fragment_catalog();
  const std::vector<std::string_view> expected = {
      "singleton",     "unrolled",      "memcpy",     "gather_const",
      "scatter_const", "strided_const", "strided_any"};
  ASSERT_EQ(std::vector<std::string_view>(catalog.begin(), catalog.end()),
            expected);
}

// Property: over random_layout redistribution programs, the specialized
// kernel's pack/unpack/copy write exactly the bytes the interpreted
// walker writes (pack_into / unpack / copy_local are the oracle).
TEST(KernelOracle, MatchesInterpreterOnRandomLayoutRedistributions) {
  std::mt19937 rng(4242);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}, Shape{8, 8}};
  int programs_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const auto from = testing::random_layout(rng, shape);
    const auto to = testing::random_layout(rng, shape);
    const redist::RedistPlanV2 plan = redist::build_runs(from, to);
    for (const auto& t : plan.transfers) {
      const SegmentProgram program = redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
      const redist::Kernel kernel = redist::specialize(program);
      ASSERT_EQ(kernel.elements(), program.elements);
      ASSERT_EQ(kernel.steps().size(), program.segments.size());
      for (const auto& span : kernel.spans()) {
        const std::string_view name = span.fragment->name;
        const auto catalog = redist::fragment_catalog();
        EXPECT_NE(std::find(catalog.begin(), catalog.end(), name),
                  catalog.end())
            << "span uses a fragment outside the catalog: " << name;
      }

      std::vector<double> src_local(
          static_cast<std::size_t>(from.local_count(t.src)));
      for (std::size_t i = 0; i < src_local.size(); ++i)
        src_local[i] = static_cast<double>(1000 * trial + i);

      // pack: kernel window vs interpreted pack_into.
      std::vector<double> via_walker(
          static_cast<std::size_t>(program.elements), -1.0);
      std::vector<double> via_kernel(
          static_cast<std::size_t>(program.elements), -2.0);
      redist::pack_into(program, src_local, via_walker);
      kernel.pack(src_local, via_kernel);
      ASSERT_EQ(via_kernel, via_walker)
          << from.to_string() << " -> " << to.to_string() << " ["
          << kernel.describe() << "]";

      // unpack: scatter the packed payload both ways.
      std::vector<double> dst_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> dst_kernel(dst_walker);
      redist::unpack(program, via_walker, dst_walker);
      kernel.unpack(via_walker, dst_kernel);
      ASSERT_EQ(dst_kernel, dst_walker) << kernel.describe();

      // copy: the local fast path.
      std::vector<double> copy_walker(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> copy_kernel(copy_walker);
      redist::copy_local(program, src_local, copy_walker);
      kernel.copy(src_local, copy_kernel);
      ASSERT_EQ(copy_kernel, copy_walker) << kernel.describe();
      ++programs_checked;
    }
  }
  EXPECT_GT(programs_checked, 50);
}

/// `arrays` aligned arrays remapped together per loop trip: exercises the
/// fused copy-group path, the local fast path, and steady-state plan
/// reuse in one workload (same shape as the fusion tests).
ir::Program multi_array_loop(Extent n, int procs, int arrays, Extent trips) {
  hpf::ProgramBuilder b("multi");
  b.procs("P", Shape{procs});
  b.tmpl("T", Shape{n});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{n});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  b.use(names);
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(names);
  b.redistribute("T", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use(names);
  DiagnosticEngine diags;
  return b.finish(diags);
}

Compiled compile_multi(Extent n, int procs, int arrays, Extent trips) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O0;
  Compiled compiled =
      driver::compile(multi_array_loop(n, procs, arrays, trips), options,
                      diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

// Under memory pressure the runtime falls back to evicting compiled plan
// slots (programs + kernels); the evicted slots recompile and
// re-specialize on their next use, so specialized_kernels rises past the
// unlimited run's install count while the results stay exact.
TEST(PlanEviction, EvictedSlotsReSpecializeLazily) {
  const Compiled compiled = compile_multi(96, 4, 3, 3);
  runtime::RunOptions options;
  options.seed = 11;
  const runtime::RunReport oracle = driver::run_oracle(compiled, options);
  const runtime::RunReport unlimited = driver::run(compiled, options);
  EXPECT_EQ(unlimited.signature, oracle.signature);
  EXPECT_EQ(unlimited.plan_evictions, 0);
  ASSERT_GT(unlimited.net.specialized_kernels, 0u);

  // Squeeze the limit down until plan slots get evicted AND re-installed
  // (deterministic: the run sequence is a pure function of the limit).
  runtime::RunReport squeezed;
  bool found = false;
  for (std::uint64_t limit = unlimited.peak_bytes; limit > 0 && !found;
       limit -= limit / 8 + 1) {
    options.memory_limit = limit;
    squeezed = driver::run(compiled, options);
    found = squeezed.plan_evictions > 0 &&
            squeezed.net.specialized_kernels > unlimited.net.specialized_kernels;
  }
  ASSERT_TRUE(found) << "no memory limit forced a plan-slot eviction";
  // Re-specialization changed no result and no dispatch accounting rule:
  // the squeezed run still matches the oracle exactly.
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);

  // The fused path survives member-plan eviction (cached fused rounds are
  // invalidated, not left dangling): re-running the same squeezed limit
  // reproduces the run exactly.
  const runtime::RunReport squeezed_again = driver::run(compiled, options);
  EXPECT_EQ(squeezed_again.signature, oracle.signature);
  EXPECT_EQ(squeezed_again.plan_evictions, squeezed.plan_evictions);
  EXPECT_EQ(squeezed_again.net, squeezed.net);
}

}  // namespace
}  // namespace hpfc
