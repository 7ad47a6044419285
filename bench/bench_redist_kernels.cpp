// Experiment K (substrate, the paper's reference [19]): block-cyclic
// redistribution communication sets — exactness and plan-build throughput
// of the periodic-pattern method vs the sorted-list oracle — plus the
// kernel-fragment microbench: pack+unpack ns/element of the specialized
// kernel vs the interpreted segment walker, per segment shape (long
// memcpy, 3-element unrolled, singleton, the cyclic(2) -> cyclic(3)
// P=8 pattern both as compiled, a periodic body, and as its flat
// expansion, and gather/scatter/strided segments of non-unit stride at
// lengths 64 and 4096) — the direct-transfer microbench: ns/element of an
// off-rank transfer copied straight between two ranks' storage vs packed
// into and unpacked out of a payload, at segment lengths 64, 4096 and
// 16384 — the round-replay microbench: ns/element of one in-process
// fused round (hotpath's block <-> cyclic at n = 2^20 and cyclic_fine's
// cyclic(2) <-> cyclic(3) at 2^18, P=8) as production runs it, through
// the per-pair pull in one step and in cache tiles of 64, 128, 256 and
// 512 KiB, through its stencil in tiles of 16, 32 and 128 KiB where it
// has one, and on 4 threads — and the value-kernel
// microbench: ns/element of
// the read checksum's fold, the write stamp and the expected-value
// comparison (runtime/expected.hpp), each as the per-element loop over
// weight()/stamped() and as the residue-stepping kernel, over one long
// stretch at strides 1 and 8 and over cyclic(2)/cyclic(3) P=8 ownership —
// and the proc-round microbench: one ADI-sized fused round (a 512x512
// array remapped from (block, *) to (*, block) on 4 ranks) replayed on a
// live proc backend, reporting per round its wall ms, remote payload
// GB/s and wire bytes per remote byte — and the proc-backend lifetime
// microbench: ms to bring up and tear down a P=4 proc backend cold
// (fork the worker mesh, then reap it) and warm (adopt the parked mesh,
// then park it again).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/proc_backend.hpp"
#include "net/wire.hpp"
#include "persist/hash.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/segments.hpp"
#include "runtime/expected.hpp"
#include "runtime/round.hpp"
#include "testing/oracles.hpp"

using bench_common::Harness;
using bench_common::bench_main;
using hpfc::mapping::AlignTarget;
using hpfc::mapping::ConcreteLayout;
using hpfc::mapping::DimOwner;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::OwnedProgram;
using hpfc::mapping::OwnedRun;
using hpfc::mapping::Shape;

namespace {

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt) {
  DimOwner owner;
  owner.source = AlignTarget::axis(0);
  owner.template_extent = n;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(n, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

struct Case {
  const char* name;
  DistFormat from;
  DistFormat to;
};

const Case kCases[] = {
    {"block->cyclic", DistFormat::block(), DistFormat::cyclic()},
    {"cyclic->block", DistFormat::cyclic(), DistFormat::block()},
    {"cyclic(2)->cyclic(3)", DistFormat::cyclic(2), DistFormat::cyclic(3)},
    {"cyclic(5)->cyclic(7)", DistFormat::cyclic(5), DistFormat::cyclic(7)},
    {"block->block", DistFormat::block(), DistFormat::block()},
};

void report(Harness& h) {
  std::printf("\n=== K — block-cyclic redistribution kernels (ref [19]) "
              "===\n");
  std::printf("paper substrate: efficient communication-set computation for "
              "arbitrary block-cyclic pairs\n");
  std::printf("%-24s %8s %8s %10s %10s %12s %12s\n", "pair", "N", "P",
              "transfers", "remote", "oracle-ms", "periodic-ms");
  for (const auto& c : kCases) {
    for (const Extent n : {1 << 12, 1 << 16}) {
      for (const Extent p : {4, 16, 64}) {
        const auto from = one_dim(n, p, c.from);
        const auto to = one_dim(n, p, c.to);
        const auto t0 = std::chrono::steady_clock::now();
        const auto oracle = hpfc::redist::build(from, to);
        const auto t1 = std::chrono::steady_clock::now();
        const auto fast = hpfc::redist::build_runs(from, to).materialize();
        const auto t2 = std::chrono::steady_clock::now();
        if (oracle.transfers.size() != fast.transfers.size() ||
            oracle.total_elements() != fast.total_elements())
          std::abort();
        const double oracle_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double periodic_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        std::printf("%-24s %8lld %8lld %10zu %10d %12.3f %12.3f\n", c.name,
                    static_cast<long long>(n), static_cast<long long>(p),
                    fast.transfers.size(), fast.remote_transfers(),
                    oracle_ms, periodic_ms);
        const std::string config = std::string(c.name) +
                                   " N=" + std::to_string(n) +
                                   " P=" + std::to_string(p);
        h.record_timing("redist-plan", config, "oracle", oracle_ms);
        h.record_timing("redist-plan", config, "periodic", periodic_ms);
      }
    }
  }
  std::printf("  -> the periodic (lcm-window) method matches the oracle "
              "exactly and builds plans substantially faster at scale\n");
}

/// Median wall milliseconds of `reps` timed calls after `warmup` untimed
/// ones.
double median_ms(int warmup, int reps, const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// One shape of the fragment microbench: programs with their source and
/// destination storage.
struct ShapeCase {
  std::vector<hpfc::redist::SegmentProgram> programs;
  std::vector<std::vector<double>> src;
  std::vector<std::vector<double>> dst;
  Extent elements = 0;
};

/// A single hand-built flat program of `count` segments of `len`
/// elements with strides `src_stride`/`dst_stride`, spaced
/// `src_gap`/`dst_gap` apart so none coalesce.
ShapeCase flat_shape(Extent count, Extent len, Extent src_gap,
                     Extent dst_gap, Extent src_stride = 1,
                     Extent dst_stride = 1) {
  ShapeCase c;
  std::vector<hpfc::redist::CopySegment> segments;
  for (Extent i = 0; i < count; ++i)
    segments.push_back(
        {i * src_gap, src_stride, i * dst_gap, dst_stride, len});
  c.programs.push_back(
      hpfc::redist::SegmentProgram::flat(0, 0, std::move(segments)));
  c.src.assign(1, std::vector<double>(
                      static_cast<std::size_t>(count * src_gap), 1.0));
  c.dst.assign(1, std::vector<double>(
                      static_cast<std::size_t>(count * dst_gap), 0.0));
  c.elements = count * len;
  return c;
}

/// Every transfer of cyclic(2) -> cyclic(3) at P=8, n=2^18: periodic
/// (as compiled) or flat (the same segments, expanded).
ShapeCase cyclic_shape(bool periodic) {
  const Extent n = 1 << 18;
  const auto from = one_dim(n, 8, DistFormat::cyclic(2));
  const auto to = one_dim(n, 8, DistFormat::cyclic(3));
  ShapeCase c;
  for (const auto& t : hpfc::redist::build_runs(from, to).transfers) {
    const auto src = from.owned_index_runs(t.src);
    const auto dst = to.owned_index_runs(t.dst);
    c.programs.push_back(
        periodic ? hpfc::redist::compile_transfer(t, src, dst)
                 : hpfc::redist::SegmentProgram::flat(
                       t.src, t.dst, hpfc::testing::flat_segments(t, src, dst)));
    c.elements += c.programs.back().elements;
  }
  for (int r = 0; r < 8; ++r) {
    c.src.emplace_back(static_cast<std::size_t>(from.local_count(r)), 1.0);
    c.dst.emplace_back(static_cast<std::size_t>(to.local_count(r)), 0.0);
  }
  return c;
}

/// ns/element of pack + unpack through the kernels and through the
/// walker, over the same programs.
void time_shape(Harness& h, const char* shape, ShapeCase c) {
  std::vector<hpfc::redist::Kernel> kernels;
  for (const auto& p : c.programs) kernels.push_back(hpfc::redist::specialize(p));
  std::vector<double> payload;
  const auto run = [&](bool kernel) {
    for (std::size_t i = 0; i < c.programs.size(); ++i) {
      const auto& p = c.programs[i];
      payload.resize(static_cast<std::size_t>(p.elements));
      auto& src = c.src[static_cast<std::size_t>(p.src)];
      auto& dst = c.dst[static_cast<std::size_t>(p.dst)];
      if (kernel) {
        kernels[i].pack(src, payload);
        kernels[i].unpack(payload, dst);
      } else {
        hpfc::redist::pack_into(p, src, payload);
        hpfc::redist::unpack(p, payload, dst);
      }
    }
  };
  const int reps = std::max(3, h.options().reps);
  const int warmup = h.options().warmup;
  const double kernel_ms = median_ms(warmup, reps, [&] { run(true); });
  const double walker_ms = median_ms(warmup, reps, [&] { run(false); });
  const auto per_element = [&](double ms) {
    return ms * 1e6 / static_cast<double>(c.elements);
  };
  std::uint64_t segments = 0;
  std::size_t table = 0;
  for (const auto& p : c.programs) {
    segments += p.segment_count();
    table += p.segments.size();
  }
  std::printf("%-30s %10llu %10zu %12.3f %12.3f %s\n", shape,
              static_cast<unsigned long long>(segments), table,
              per_element(kernel_ms), per_element(walker_ms),
              kernels.front().describe().substr(0, 40).c_str());
  h.record_timing("fragments", shape, "kernel", kernel_ms);
  h.record_timing("fragments", shape, "walker", walker_ms);
}

void report_fragments(Harness& h) {
  std::printf("\n=== kernel fragments vs walker by segment shape "
              "(pack+unpack) ===\n");
  std::printf("%-30s %10s %10s %12s %12s %s\n", "shape", "segments",
              "table", "kernel-ns/el", "walker-ns/el", "first kernel");
  time_shape(h, "memcpy len=4096", flat_shape(256, 4096, 4096, 4096));
  time_shape(h, "unrolled len=3", flat_shape(1 << 18, 3, 4, 5));
  time_shape(h, "singleton", flat_shape(1 << 19, 1, 2, 3));
  time_shape(h, "cyclic(2)->cyclic(3) flat", cyclic_shape(false));
  time_shape(h, "cyclic(2)->cyclic(3) periodic", cyclic_shape(true));
  // Non-unit strides over 2^18 elements, each segment's elements
  // interleaved `stride` apart: the A/B of the runtime-stride bodies
  // against constant-stride ones (docs/kernels.md), where stride 5 is the
  // control that no constant-stride set covered.
  struct Strided {
    const char* kind;
    Extent src_stride;
    Extent dst_stride;
  };
  const Strided strided[] = {{"gather s=2", 2, 1},  {"gather s=3", 3, 1},
                             {"gather s=16", 16, 1}, {"gather s=5", 5, 1},
                             {"scatter s=4", 1, 4},  {"strided s=3x2", 3, 2}};
  for (const Extent len : {64, 4096}) {
    for (const Strided& s : strided) {
      const std::string shape =
          std::string(s.kind) + " len=" + std::to_string(len);
      time_shape(h, shape.c_str(),
                 flat_shape((1 << 18) / len, len, len * s.src_stride,
                            len * s.dst_stride, s.src_stride, s.dst_stride));
    }
  }
}

// ---- direct vs staged off-rank transfer -----------------------------------

/// ns/element of one off-rank transfer (rank 0 -> rank 1) of 2^18
/// elements in contiguous segments of `len`, moved as the in-process
/// backends move it (Kernel::copy straight between the two ranks'
/// storage) and as proc moves it (pack into a payload, unpack out of it).
void time_direct(Harness& h, Extent len) {
  constexpr Extent kElements = 1 << 18;
  const Extent count = kElements / len;
  std::vector<hpfc::redist::CopySegment> segments;
  for (Extent i = 0; i < count; ++i)
    segments.push_back({i * len, 1, i * len, 1, len});
  const hpfc::redist::Kernel kernel = hpfc::redist::specialize(
      hpfc::redist::SegmentProgram::flat(0, 1, std::move(segments)));
  const std::vector<double> src(static_cast<std::size_t>(kElements), 1.0);
  std::vector<double> dst(static_cast<std::size_t>(kElements), 0.0);
  std::vector<double> payload(static_cast<std::size_t>(kElements));
  const int reps = std::max(3, h.options().reps);
  const int warmup = h.options().warmup;
  const double direct_ms =
      median_ms(warmup, reps, [&] { kernel.copy(src, dst); });
  const double staged_ms = median_ms(warmup, reps, [&] {
    kernel.pack(src, payload);
    kernel.unpack(payload, dst);
  });
  const auto per_element = [&](double ms) {
    return ms * 1e6 / static_cast<double>(kElements);
  };
  const std::string config = "off-rank len=" + std::to_string(len);
  std::printf("%-30s %12.3f %12.3f\n", config.c_str(), per_element(direct_ms),
              per_element(staged_ms));
  h.record_timing("direct", config, "direct", direct_ms);
  h.record_timing("direct", config, "staged", staged_ms);
}

void report_direct(Harness& h) {
  std::printf("\n=== off-rank transfer: direct copy vs staged pack+unpack "
              "(ns/element) ===\n");
  std::printf("%-30s %12s %12s\n", "shape", "direct", "staged");
  for (const Extent len : {64, 4096, 16384}) time_direct(h, len);
}

// ---- fused round replay --------------------------------------------------

/// The specialized kernels of every transfer of `from -> to`.
std::vector<hpfc::redist::Kernel> transfer_kernels(const ConcreteLayout& from,
                                                   const ConcreteLayout& to) {
  std::vector<hpfc::redist::Kernel> kernels;
  for (const auto& t : hpfc::redist::build_runs(from, to).transfers) {
    kernels.push_back(
        hpfc::redist::specialize(hpfc::redist::compile_transfer(
            t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst))));
  }
  return kernels;
}

/// Per-rank storage of `layout`, rank r filled with `value(r)`.
hpfc::runtime::RankLocals rank_storage(const ConcreteLayout& layout,
                                       const std::function<double(int)>& value) {
  hpfc::runtime::RankLocals locals(static_cast<std::size_t>(layout.ranks()));
  for (int r = 0; r < layout.ranks(); ++r)
    locals[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(layout.local_count(r)), value(r));
  return locals;
}

/// One in-process fused round over `from -> to` on 8 ranks, built once
/// outside the Machine and replayed with warm storage: FusedRound::run on
/// seq (`tiled`, production: the stencil in its period-range tiles on a
/// round with one, else the per-pair pull in the tiles of kTileBytes);
/// the per-pair pull in one step, in the tiles of kTileBytes (`per-pair`,
/// the fallback path) and of the other budgets (the rows that pick
/// kTileBytes); on a round with a stencil, the stencil in the tiles of
/// two other budgets (the rows that pick kStencilTileBytes); and
/// FusedRound::run on a 4-worker thread backend. The rows are timed
/// round-robin, so drift hits each alike. Per row: the steps (the
/// stencil's tiles), ns/element over every element the round moves, and
/// remote GB/s (remote payload bytes over the round's time, as
/// `redist.pack_gb_s` reads a run).
void replay_round(Harness& h, const char* name, Extent n, DistFormat from_fmt,
                  DistFormat to_fmt) {
  using hpfc::runtime::FusedRound;
  using hpfc::runtime::tile_count;
  constexpr int kRanks = 8;
  const ConcreteLayout from = one_dim(n, kRanks, from_fmt);
  const ConcreteLayout to = one_dim(n, kRanks, to_fmt);
  const std::vector<hpfc::redist::Kernel> kernels = transfer_kernels(from, to);
  const hpfc::runtime::RankLocals src =
      rank_storage(from, [](int r) { return 1.0 + r; });
  hpfc::runtime::RankLocals dst = rank_storage(to, [](int) { return 0.0; });
  FusedRound round(kRanks, {{kernels, &src, &dst}}, 0);
  const std::uint64_t elements = round.local_elements() + round.remote_elements();
  const std::uint64_t bytes = elements * sizeof(double);
  const auto seq = hpfc::exec::make_backend(hpfc::exec::BackendKind::Seq, kRanks);
  const auto thread =
      hpfc::exec::make_backend(hpfc::exec::BackendKind::Thread, kRanks, 4);

  struct Row {
    std::string level;
    int steps;
    std::function<void()> replay;
    std::vector<double> ms;
  };
  std::vector<Row> rows;
  rows.push_back({"one-step", 1, [&] { round.pull(*seq, 1); }, {}});
  rows.push_back({"tiled",
                  round.has_stencil() ? round.stencil_tiles() : round.tiles(),
                  [&] { (void)round.run(*seq); }, {}});
  rows.push_back({"per-pair", round.tiles(),
                  [&] { round.pull(*seq, round.tiles()); }, {}});
  for (const std::uint64_t kib : {64, 256, 512}) {
    const int steps = tile_count(bytes, kib << 10);
    rows.push_back({"tiled-" + std::to_string(kib) + "k", steps,
                    [&round, &seq, steps] { round.pull(*seq, steps); }, {}});
  }
  if (round.has_stencil()) {
    for (const std::uint64_t kib : {16, 128}) {
      const int tiles = tile_count(bytes, kib << 10);
      rows.push_back({"stencil-" + std::to_string(kib) + "k", tiles,
                      [&round, &seq, tiles] { round.gather(*seq, tiles); },
                      {}});
    }
  }
  rows.push_back({"thread-4", 1, [&] { (void)round.run(*thread); }, {}});

  const int reps = std::max(11, h.options().reps);
  const int warmup = std::max(2, h.options().warmup);
  for (int i = 0; i < warmup + reps; ++i) {
    for (Row& row : rows) {
      const auto start = std::chrono::steady_clock::now();
      row.replay();
      if (i >= warmup)
        row.ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
  }
  for (const auto& local : dst)
    if (std::find(local.begin(), local.end(), 0.0) != local.end())
      std::abort();  // an element the round never delivered

  const std::string config = std::string(name) + " P=8 n=" + std::to_string(n);
  for (Row& row : rows) {
    std::sort(row.ms.begin(), row.ms.end());
    const double ms = row.ms[row.ms.size() / 2];
    std::printf("%-36s %-12s %6d %12.3f %12.3f\n", config.c_str(),
                row.level.c_str(), row.steps,
                ms * 1e6 / static_cast<double>(elements),
                static_cast<double>(round.remote_elements() * sizeof(double)) /
                    (ms * 1e6));
    h.record_timing("round", config, row.level, ms);
  }
}

void report_rounds(Harness& h) {
  std::printf("\n=== fused round replay: stencil and per-pair pull, in one "
              "step vs in cache tiles (kTileBytes = %llu KiB, "
              "kStencilTileBytes = %llu KiB) ===\n",
              static_cast<unsigned long long>(hpfc::runtime::kTileBytes >> 10),
              static_cast<unsigned long long>(
                  hpfc::runtime::kStencilTileBytes >> 10));
  std::printf("%-36s %-12s %6s %12s %12s\n", "round", "pull", "steps",
              "ns/element", "remote-GB/s");
  // hotpath's two rounds, then cyclic_fine's.
  replay_round(h, "block->cyclic", 1 << 20, DistFormat::block(),
               DistFormat::cyclic());
  replay_round(h, "cyclic->block", 1 << 20, DistFormat::cyclic(),
               DistFormat::block());
  replay_round(h, "cyclic(2)->cyclic(3)", 1 << 18, DistFormat::cyclic(2),
               DistFormat::cyclic(3));
  replay_round(h, "cyclic(3)->cyclic(2)", 1 << 18, DistFormat::cyclic(3),
               DistFormat::cyclic(2));
}

// ---- value kernels ------------------------------------------------------

using hpfc::testing::fold_per_element;
using hpfc::testing::matches_per_element;
using hpfc::testing::stamp_per_element;

using hpfc::runtime::detail::Bodies;
using hpfc::runtime::detail::wide_lanes;

/// ns/element of fold, stamp and matches over `prog` on storage of
/// `storage` elements of a `shape` array: the per-element loop, the
/// kernel with every line in the narrow body, and (where the CPU has the
/// lanes) the kernel as dispatched, lines of at least kWideMinLine
/// elements in the wide body. Aborts unless every form agrees.
void time_values(Harness& h, const std::string& name, const OwnedProgram& prog,
                 Extent storage, const Shape& shape) {
  using hpfc::runtime::fold;
  using hpfc::runtime::matches;
  using hpfc::runtime::stamp;
  constexpr std::uint64_t kCounter = 12345;
  Extent elements = 0;
  prog.for_each_stretch([&](const OwnedRun& run) { elements += run.len; });
  std::vector<double> local(static_cast<std::size_t>(storage), 0.0);
  std::vector<double> narrow(local.size(), 0.0);
  std::vector<double> reference(local.size(), 0.0);
  stamp(prog, local.data(), kCounter);
  stamp<Bodies::narrow>(prog, narrow.data(), kCounter);
  stamp_per_element(prog, reference.data(), kCounter);
  hpfc::runtime::ExpectedValues expected(shape);
  expected.write(kCounter, shape);
  const std::uint64_t sum = fold_per_element(prog, local.data());
  if (local != reference || narrow != reference ||
      fold(prog, local.data()) != sum ||
      fold<Bodies::narrow>(prog, local.data()) != sum ||
      !matches(prog, local.data(), shape, expected) ||
      !matches<Bodies::narrow>(prog, local.data(), shape, expected) ||
      !matches_per_element(prog, local.data(), shape, expected))
    std::abort();

  const int reps = std::max(11, h.options().reps);
  const int warmup = std::max(1, h.options().warmup);
  const auto ns_per_element = [&](double ms) {
    return ms * 1e6 / static_cast<double>(elements);
  };
  const bool wide = wide_lanes();
  const auto row = [&](const char* op, const std::function<void()>& per,
                       const std::function<void()>& narrow_kernel,
                       const std::function<void()>& wide_kernel) {
    const std::string config = std::string(op) + " " + name;
    const double per_ms = median_ms(warmup, reps, per);
    const double narrow_ms = median_ms(warmup, reps, narrow_kernel);
    h.record_timing("value_kernels", config, "per-element", per_ms);
    h.record_timing("value_kernels", config, "narrow", narrow_ms);
    std::printf("%-34s %-8s %12.3f %10.3f", name.c_str(), op,
                ns_per_element(per_ms), ns_per_element(narrow_ms));
    if (wide) {
      const double wide_ms = median_ms(warmup, reps, wide_kernel);
      h.record_timing("value_kernels", config, "wide", wide_ms);
      std::printf(" %10.3f\n", ns_per_element(wide_ms));
    } else {
      std::printf(" %10s\n", "-");
    }
  };
  std::uint64_t sink = 0;
  row("fold", [&] { sink += fold_per_element(prog, local.data()); },
      [&] { sink += fold<Bodies::narrow>(prog, local.data()); },
      [&] { sink += fold(prog, local.data()); });
  row("stamp", [&] { stamp_per_element(prog, reference.data(), kCounter); },
      [&] { stamp<Bodies::narrow>(prog, narrow.data(), kCounter); },
      [&] { stamp(prog, local.data(), kCounter); });
  row("matches",
      [&] { sink += matches_per_element(prog, local.data(), shape, expected); },
      [&] {
        sink += matches<Bodies::narrow>(prog, local.data(), shape, expected);
      },
      [&] { sink += matches(prog, local.data(), shape, expected); });
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(local.data());
  benchmark::DoNotOptimize(narrow.data());
  benchmark::DoNotOptimize(reference.data());
}

/// ns/element of the narrow and the wide body on back-to-back lines of
/// `len` elements (2^16 elements in all): where the wide body starts to
/// win sets kWideMinLine.
void time_value_lines(Harness& h, Extent len) {
#if HPFC_WIDE_VALUE_KERNELS
  namespace detail = hpfc::runtime::detail;
  using hpfc::runtime::kStampMod;
  using hpfc::runtime::kWeightMod;
  constexpr Extent kElements = 1 << 16;
  std::vector<double> vals(static_cast<std::size_t>(kElements));
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>(i % 1000);
  const detail::ResidueStep<kWeightMod> weight(1, hpfc::runtime::kWeightMul);
  const detail::ResidueStep<kStampMod> stamp(1, 1);
  const int reps = std::max(11, h.options().reps);
  const int warmup = std::max(1, h.options().warmup);
  std::uint64_t sink = 0;
  // Each line starts at residue 0: the sweep times the bodies, not the
  // residue set-up the kernels do per line.
  const auto lines = [&](auto&& body) {
    return median_ms(warmup, reps, [&] {
      for (Extent at = 0; at + len <= kElements; at += len) body(at);
    });
  };
  const double fold_narrow = lines([&](Extent at) {
    sink += detail::fold_line_narrow(vals.data() + at, 1, len, 0, weight);
  });
  const double fold_wide = lines([&](Extent at) {
    sink += detail::fold_line_wide(vals.data() + at, 1, len, 0, weight);
  });
  const double stamp_narrow = lines([&](Extent at) {
    detail::stamp_line_narrow(vals.data() + at, 1, len, 0, stamp, 1009);
  });
  const double stamp_wide = lines([&](Extent at) {
    detail::stamp_line_wide(vals.data() + at, 1, len, 0, stamp, 1009);
  });
  benchmark::DoNotOptimize(sink);
  const auto ns = [&](double ms) {
    return ms * 1e6 / static_cast<double>(kElements / len * len);
  };
  const std::string config = "line len=" + std::to_string(len);
  std::printf("%-34s %10.3f %10.3f %10.3f %10.3f\n", config.c_str(),
              ns(fold_narrow), ns(fold_wide), ns(stamp_narrow),
              ns(stamp_wide));
  h.record_timing("value_lines", "fold " + config, "narrow", fold_narrow);
  h.record_timing("value_lines", "fold " + config, "wide", fold_wide);
  h.record_timing("value_lines", "stamp " + config, "narrow", stamp_narrow);
  h.record_timing("value_lines", "stamp " + config, "wide", stamp_wide);
#else
  (void)h;
  (void)len;
#endif
}

void report_values(Harness& h) {
  std::printf("\n=== value kernels vs per-element loops (ns/element) ===\n");
  std::printf("%-34s %-8s %12s %10s %10s\n", "shape", "op", "per-element",
              "narrow", "wide");
  // 2^20 is the oracle's hotpath array, one 8 MiB line.
  for (const Extent len : {131072, 1 << 20}) {
    time_values(h, "stretch len=" + std::to_string(len) + " stride=1",
                OwnedProgram::flat({OwnedRun{0, 0, 1, len}}), len,
                Shape{len});
  }
  constexpr Extent kLen = 131072;
  time_values(h, "stretch len=131072 stride=8",
              OwnedProgram::flat({OwnedRun{0, 3, 8, kLen}}), kLen,
              Shape{8 * kLen});
  // Rank 3's ownership under cyclic(2) and cyclic(3) on 8 ranks, the
  // cyclic_fine pattern: one len-2 (len-3) body entry repeated per window.
  const Extent n = 1 << 18;
  for (const Extent k : {2, 3}) {
    const auto layout = one_dim(n, 8, DistFormat::cyclic(k));
    time_values(h, "periodic len=" + std::to_string(k) + " cyclic(" +
                       std::to_string(k) + ") P=8",
                layout.owned_program(3), layout.local_count(3), Shape{n});
  }
  if (!wide_lanes()) return;
  std::printf("\n=== value-kernel lines: narrow vs wide body (ns/element) "
              "===\n");
  std::printf("%-34s %10s %10s %10s %10s\n", "line", "fold-narrow",
              "fold-wide", "stamp-narrow", "stamp-wide");
  for (const Extent len : {16, 24, 32, 48, 64}) time_value_lines(h, len);
}

// ---- checksums -----------------------------------------------------------

/// GB/s of the proc wire's frame checksum (net::wire::checksum_bytes) and
/// of the snapshot tree's leaf hash (persist::leaf_hash) over `elements`
/// doubles.
void time_checksums(Harness& h, Extent elements) {
  std::vector<double> values(static_cast<std::size_t>(elements));
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<double>(i % 1000);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(double));
  const int reps = std::max(11, h.options().reps);
  const int warmup = std::max(1, h.options().warmup);
  std::uint64_t sink = 0;
  const double wire_ms = median_ms(
      warmup, reps, [&] { sink += hpfc::net::wire::checksum_bytes(bytes); });
  const double leaf_ms = median_ms(warmup, reps, [&] {
    sink += hpfc::persist::leaf_hash(values.data(), values.size());
  });
  benchmark::DoNotOptimize(sink);
  const auto gb_s = [&](double ms) {
    return static_cast<double>(bytes.size()) / (ms * 1e6);
  };
  const std::string config = std::to_string(bytes.size()) + " bytes";
  std::printf("%-30s %12.3f %12.3f\n", config.c_str(), gb_s(wire_ms),
              gb_s(leaf_ms));
  h.record_timing("checksum", config, "wire", wire_ms);
  h.record_timing("checksum", config, "leaf_hash", leaf_ms);
}

void report_checksums(Harness& h) {
  std::printf("\n=== checksums: wire frame checksum and snapshot leaf hash "
              "(GB/s) ===\n");
  std::printf("%-30s %12s %12s\n", "payload", "wire", "leaf_hash");
  // The ADI round's remote payload (1.5 MiB) and hotpath's version (8 MiB).
  for (const Extent elements : {196608, 1 << 20}) time_checksums(h, elements);
}

// ---- proc round ----------------------------------------------------------

/// One fused round the size of the ADI sweep's remaps (Fig. 10): a
/// 512x512 array moved from (block, *) to (*, block) on 4 ranks, so every
/// rank ships three quarters of its rows, replayed on a live proc backend.
/// Per round: wall ms (median), remote payload GB/s and wire bytes per
/// remote byte (every socket byte the round writes, control channels
/// included, over the payload bytes it must move).
void report_proc_round(Harness& h) {
  constexpr Extent kN = 512;
  constexpr int kRanks = 4;
  const auto rows_on = [&](int axis) {
    DimOwner owner;
    owner.source = AlignTarget::axis(axis);
    owner.template_extent = kN;
    owner.format = DistFormat::block();
    owner.format.param = owner.format.resolved_param(kN, kRanks);
    return ConcreteLayout::make(Shape{kN, kN}, Shape{kRanks}, {owner});
  };
  const ConcreteLayout from = rows_on(0);
  const ConcreteLayout to = rows_on(1);
  const std::vector<hpfc::redist::Kernel> kernels = transfer_kernels(from, to);
  const hpfc::runtime::RankLocals src =
      rank_storage(from, [](int r) { return 1.0 + r; });
  hpfc::runtime::RankLocals dst = rank_storage(to, [](int) { return 0.0; });
  hpfc::runtime::FusedRound round(kRanks, {{kernels, &src, &dst}}, 0);
  hpfc::exec::ProcBackend backend(kRanks, hpfc::exec::ProcConfig{});

  const int reps = std::max(5, h.options().reps);
  const int warmup = std::max(1, h.options().warmup);
  std::vector<double> exchange;
  const double round_ms = median_ms(warmup, reps, [&] {
    exchange.push_back(round.run(backend).exchange_ms);
  });
  std::sort(exchange.begin(), exchange.end());
  // Every replay writes the same frames: one more gives the per-round
  // socket traffic.
  const hpfc::exec::WireStats before = backend.wire();
  (void)round.run(backend);
  const std::uint64_t wire_bytes =
      backend.wire().wire_bytes - before.wire_bytes;
  const std::uint64_t remote_bytes =
      round.remote_elements() * sizeof(double);
  for (int r = 0; r < kRanks; ++r) {
    const auto& local = dst[static_cast<std::size_t>(r)];
    if (std::find(local.begin(), local.end(), 0.0) != local.end())
      std::abort();  // an element the round never delivered
  }

  const double gb_s = static_cast<double>(remote_bytes) / (round_ms * 1e6);
  const double per_remote =
      static_cast<double>(wire_bytes) / static_cast<double>(remote_bytes);
  const std::string config = "ADI 512x512 (block,*)->(*,block) P=4";
  std::printf("\n=== proc round: one ADI-sized fused round on a live proc "
              "backend ===\n");
  std::printf("%-38s %10s %10s %12s %12s\n", "round", "ms", "remote-GB/s",
              "wire/remote", "exchange-ms");
  std::printf("%-38s %10.3f %10.3f %12.3f %12.3f\n", config.c_str(),
              round_ms, gb_s, per_remote, exchange[exchange.size() / 2]);

  bench_common::LevelRecord level;
  level.level = "proc";
  level.report.net.messages = round.exchange().messages.size();
  level.report.net.bytes = remote_bytes;
  level.report.wire_bytes = wire_bytes;
  level.report.exec_ms = round_ms;
  level.report.exchange_ms = exchange[exchange.size() / 2];
  level.run_wall_ms = round_ms;
  h.record("proc_round", config, std::move(level));
}

// ---- proc backend lifetime -----------------------------------------------

/// The per-Machine cost of a P=4 proc backend, brought up and torn down
/// with no exchange: cold forks the worker mesh and reaps it (what every
/// backend paid before meshes were parked), warm adopts the parked mesh
/// and parks it again.
void report_proc_backend(Harness& h) {
  constexpr int kRanks = 4;
  const int reps = std::max(5, h.options().reps);
  const int warmup = std::max(1, h.options().warmup);
  const auto bring_up = [] {
    const hpfc::exec::ProcBackend backend(kRanks, hpfc::exec::ProcConfig{});
  };
  const double cold_ms = median_ms(warmup, reps, [&] {
    bring_up();
    hpfc::exec::ProcBackend::release_parked();
  });
  const double warm_ms = median_ms(warmup, reps, bring_up);

  const std::string config = "P=" + std::to_string(kRanks);
  std::printf("\n=== proc backend: bring up and tear down (ms) ===\n");
  std::printf("%-30s %12s %12s\n", "backend", "cold", "warm");
  std::printf("%-30s %12.3f %12.3f\n", config.c_str(), cold_ms, warm_ms);
  h.record_timing("proc_backend", config, "cold", cold_ms);
  h.record_timing("proc_backend", config, "warm", warm_ms);
}

void BM_plan_oracle(benchmark::State& state) {
  const Extent n = state.range(0);
  const auto from = one_dim(n, 16, DistFormat::cyclic(2));
  const auto to = one_dim(n, 16, DistFormat::cyclic(3));
  for (auto _ : state) {
    auto plan = hpfc::redist::build(from, to);
    benchmark::DoNotOptimize(&plan);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_plan_oracle)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14)->Complexity();

void BM_plan_periodic(benchmark::State& state) {
  const Extent n = state.range(0);
  const auto from = one_dim(n, 16, DistFormat::cyclic(2));
  const auto to = one_dim(n, 16, DistFormat::cyclic(3));
  for (auto _ : state) {
    auto plan = hpfc::redist::build_runs(from, to).materialize();
    benchmark::DoNotOptimize(&plan);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_plan_periodic)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "redist_kernels", [](Harness& h) {
    report(h);
    report_fragments(h);
    report_direct(h);
    report_rounds(h);
    report_values(h);
    report_checksums(h);
    report_proc_round(h);
    report_proc_backend(h);
  });
}
