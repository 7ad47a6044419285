// Experiment F5/F6 (Figures 5 and 6): the language-restriction checker —
// flow-ambiguous references are rejected, dead ambiguity is accepted and
// resolved by the runtime status descriptor.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "hpf/parser.hpp"

using namespace bench_common;
using hpfc::DiagId;
using hpfc::DiagnosticEngine;

namespace {

constexpr const char* kFig5 = R"(
routine fig5
processors P(4)
template T0(64)
distribute T0(block) onto P
template T1(64)
distribute T1(cyclic) onto P
real A(64)
align A(i) with T0(i)
begin
  use(A)
  if
    realign A(i) with T1(i)
  endif
  use(A)
end
)";

constexpr const char* kFig6 = R"(
routine fig6
processors P(4)
real A(64)
distribute A(block) onto P
begin
  use(A)
  if
    redistribute A(cyclic)
    use(A)
  endif
  redistribute A(cyclic)
  use(A)
end
)";

void report(Harness& h) {
  std::printf("\n=== F5/F6 — ambiguity checking (Figures 5 and 6) ===\n");
  std::printf("paper: Figure 5's reference under an ambiguous mapping is "
              "forbidden;\n       Figure 6's ambiguity is dead before any "
              "reference and accepted\n");

  {
    DiagnosticEngine diags;
    hpfc::driver::CompileOptions options;
    const auto compiled = hpfc::driver::compile_source(kFig5, options, diags);
    std::printf("figure 5: %s (%s)\n",
                compiled.ok ? "ACCEPTED (unexpected!)" : "rejected",
                diags.has(DiagId::AmbiguousReference)
                    ? "ambiguous-reference diagnosed"
                    : "missing diagnostic!");
  }
  {
    DiagnosticEngine diags;
    hpfc::driver::CompileOptions options;
    const auto compiled = hpfc::driver::compile_source(kFig6, options, diags);
    std::printf("figure 6: %s\n",
                compiled.ok ? "accepted" : "REJECTED (unexpected!)");
    if (compiled.ok) {
      for (const unsigned seed : {1u, 2u, 3u, 4u}) {
        const auto run = run_checked(compiled, h.run_options(seed));
        row("fig6 seed=" + std::to_string(seed), run);
        // compile_source above used the default CompileOptions level, O2.
        h.record("fig06", "seed=" + std::to_string(seed), {"O2", run});
      }
      note("on the then-path the final redistribute is a status no-op; on "
           "the other it performs the copy — same results either way");
    }
  }
}

void BM_reject_fig5(benchmark::State& state) {
  for (auto _ : state) {
    DiagnosticEngine diags;
    hpfc::driver::CompileOptions options;
    auto c = hpfc::driver::compile_source(kFig5, options, diags);
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_reject_fig5);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "fig05_ambiguity", report);
}
