// 2-D FFT with transpose redistributions — the paper's §1 FFT motivation
// (reference [10]: FFTs on distributed-memory machines using data
// redistributions). Row FFTs run with rows local, then the array is
// redistributed so columns are local, and back. Repeated transforms reuse
// live copies: the second and later transforms start from an
// already-correct distribution.
//
//   $ ./example_fft2d [n] [procs] [transforms]
#include <cstdio>
#include <cstdlib>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"

using namespace hpfc;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

namespace {

ir::Program fft2d(Extent n, int procs, Extent transforms) {
  hpf::ProgramBuilder b("fft2d");
  b.procs("P", Shape{procs});
  b.array("X", Shape{n, n});
  b.distribute_array("X", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("W", Shape{n});  // twiddle factors, replicated-ish: block row
  b.distribute_array("W", {DistFormat::block()}, "P");

  b.def({"X"}, "load");
  b.def({"W"}, "twiddles");
  b.begin_loop(transforms);
  b.ref({"X", "W"}, {"X"}, {}, "row_ffts");
  b.redistribute("X", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "transpose_fwd");
  b.ref({"X", "W"}, {"X"}, {}, "col_ffts");
  b.redistribute("X", {DistFormat::block(), DistFormat::collapsed()}, "",
                 "transpose_back");
  b.end_loop();
  b.use({"X"}, "store");

  DiagnosticEngine diags;
  return b.finish(diags);
}

}  // namespace

int main(int argc, char** argv) {
  const Extent n = argc > 1 ? std::atoll(argv[1]) : 128;
  const int procs = argc > 2 ? std::atoi(argv[2]) : 8;
  const Extent transforms = argc > 3 ? std::atoll(argv[3]) : 4;

  std::printf("2-D FFT %lldx%lld on %d ranks, %lld transforms\n",
              static_cast<long long>(n), static_cast<long long>(n), procs,
              static_cast<long long>(transforms));

  for (const auto level : {driver::OptLevel::O0, driver::OptLevel::O2}) {
    DiagnosticEngine diags;
    driver::CompileOptions options;
    options.level = level;
    const auto compiled =
        driver::compile(fft2d(n, procs, transforms), options, diags);
    if (!compiled.ok) {
      std::fprintf(stderr, "%s", diags.to_string().c_str());
      return 1;
    }
    const auto report = driver::run(compiled);
    const auto oracle = driver::run_oracle(compiled);
    std::printf(
        "%s: %d transposes (%llu elements), %llu msgs, %.3f ms sim  [%s]\n",
        driver::to_string(level), report.copies_performed,
        static_cast<unsigned long long>(report.elements_copied),
        static_cast<unsigned long long>(report.net.messages),
        report.net.sim_time * 1e3,
        report.signature == oracle.signature ? "oracle-match" : "MISMATCH");
    if (report.signature != oracle.signature) return 1;
  }
  std::printf(
      "note: FFT transposes are useful communication — the optimizer must\n"
      "keep them all (same copy count at O0/O2), unlike ADI's useless "
      "ones.\n");
  return 0;
}
