// Experiment R (§1 motivation): end-to-end kernels that need remappings —
// ADI sweeps, a 2-D FFT (transpose redistribution), and a two-phase linear
// algebra solver (block factorization + cyclic load-balanced updates) —
// at O0/O1/O2 over machine sizes.
#include <benchmark/benchmark.h>

#include <string>

#include "common.hpp"
#include "hpf/builder.hpp"
#include "testing/figures.hpp"

using namespace bench_common;
using hpfc::driver::OptLevel;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::Shape;
using hpfc::testing::fig10;

namespace {

/// 2-D FFT: row FFTs with rows distributed, transpose, column FFTs, and
/// back — repeated `transforms` times (the paper's reference [10] pattern).
hpfc::ir::Program fft2d(Extent n, int procs, Extent transforms) {
  hpfc::hpf::ProgramBuilder b("fft2d");
  b.procs("P", Shape{procs});
  b.array("X", Shape{n, n});
  b.distribute_array("X", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.def({"X"});
  b.begin_loop(transforms);
  b.ref({"X"}, {"X"}, {}, "rows");  // row FFTs (rows local)
  b.redistribute("X", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "t1");
  b.ref({"X"}, {"X"}, {}, "cols");  // column FFTs (columns local)
  b.redistribute("X", {DistFormat::block(), DistFormat::collapsed()}, "",
                 "t2");
  b.end_loop();
  b.use({"X"});
  hpfc::DiagnosticEngine diags;
  return b.finish(diags);
}

/// Two-phase solver: factorization on block, solve/update phases on
/// cyclic for load balance (the paper's reference [2] pattern).
hpfc::ir::Program solver(Extent n, int procs, Extent phases) {
  hpfc::hpf::ProgramBuilder b("solver");
  b.procs("P", Shape{procs});
  b.array("M", Shape{n, n});
  b.distribute_array("M", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("V", Shape{n});
  b.distribute_array("V", {DistFormat::block()}, "P");
  b.def({"M", "V"});
  b.ref({"M", "V"}, {"M"}, {}, "factor");
  b.begin_loop(phases);
  b.redistribute("M", {DistFormat::cyclic(), DistFormat::collapsed()}, "",
                 "balance");
  b.redistribute("V", {DistFormat::cyclic()}, "", "vbalance");
  b.ref({"M", "V"}, {"V"}, {}, "update");
  b.redistribute("M", {DistFormat::block(), DistFormat::collapsed()}, "",
                 "back");
  b.redistribute("V", {DistFormat::block()}, "", "vback");
  b.ref({"M"}, {}, {}, "check");
  b.end_loop();
  b.use({"M", "V"});
  hpfc::DiagnosticEngine diags;
  return b.finish(diags);
}

void report(Harness& h) {
  banner("R / §1 kernels — ADI, 2-D FFT, linear solver",
         "remappings are useful (ADI, FFT, linear algebra) but naive "
         "translation wastes communication; optimization recovers it");
  for (const int procs : {4, 16, 64}) {
    h.measure("kernel-adi", "P=" + std::to_string(procs),
              [=] { return fig10(64, procs, 8); });
  }
  for (const int procs : {4, 16}) {
    h.measure("kernel-fft2d", "P=" + std::to_string(procs),
              [=] { return fft2d(64, procs, 4); });
  }
  for (const int procs : {4, 16}) {
    h.measure("kernel-solver", "P=" + std::to_string(procs),
              [=] { return solver(96, procs, 4); });
  }
  note("FFT transposes are genuinely needed (O2 == O0 on copies there is "
       "expected: every copy is useful); ADI and the solver lose their "
       "useless and loop-invariant remappings");
}

void BM_fft_transpose_run(benchmark::State& state) {
  const auto compiled = compile(fft2d(64, 4, 2), OptLevel::O2);
  for (auto _ : state) {
    auto r = hpfc::driver::run(compiled);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_fft_transpose_run);

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "kernels", report);
}
