// Plan construction and pack throughput at large N: the list-based oracle
// build() materializes every per-dimension index, so its cost scales with
// the array extent; the run-based build_runs() works on closed-form
// interval runs, so for fixed P its cost is independent of N. The pack
// stage measures segment-program compilation plus bulk pack/unpack
// throughput on a real redistribution. The `symbolic_sweep` figure runs the
// runtime's PlanCache across an (N, P) grid: a cold lookup builds the
// plan with build_runs, and a warm lookup is one map find, flat in N. The
// `plan_cache` figure is the lookup's own microbench: ns per hit and per
// miss in a cache of 1 and of 64 plans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "mapping/layout.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "redist/plan_cache.hpp"
#include "support/piece.hpp"
#include "testing/oracles.hpp"

namespace {

using hpfc::mapping::AlignTarget;
using hpfc::mapping::ConcreteLayout;
using hpfc::mapping::DimOwner;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::Shape;

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt) {
  DimOwner owner;
  owner.source = AlignTarget::axis(0);
  owner.template_extent = n;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(n, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

/// Median wall time of `reps` calls of `fn`, each after an untimed call
/// of `setup`.
double median_ms(int reps, const std::function<void()>& setup,
                 const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double median_ms(int reps, const std::function<void()>& fn) {
  return median_ms(reps, [] {}, fn);
}

struct LayoutPair {
  std::string name;
  DistFormat from;
  DistFormat to;
};

void measure_plan_build(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  const Extent procs = 8;
  const LayoutPair pairs[] = {
      {"block-cyclic", DistFormat::block(), DistFormat::cyclic()},
      {"cyclic3-block", DistFormat::cyclic(3), DistFormat::block()},
      {"cyclic2-cyclic5", DistFormat::cyclic(2), DistFormat::cyclic(5)},
  };
  for (const Extent n : {Extent{1} << 16, Extent{1} << 18, Extent{1} << 20,
                         Extent{1} << 21}) {
    for (const LayoutPair& pair : pairs) {
      const auto from = one_dim(n, procs, pair.from);
      const auto to = one_dim(n, procs, pair.to);
      const std::string config =
          pair.name + " N=" + std::to_string(n) + " P=" +
          std::to_string(procs);

      hpfc::testing::RedistPlan list_plan;
      const double list_ms = median_ms(
          reps, [&] { list_plan = hpfc::testing::build(from, to); });
      hpfc::redist::RedistPlanV2 runs_plan;
      const double runs_ms = median_ms(
          reps, [&] { runs_plan = hpfc::redist::build_runs(from, to); });
      if (runs_plan.total_elements() != list_plan.total_elements()) {
        std::fprintf(stderr,
                     "bench_plan_build: element mismatch on %s (%lld vs "
                     "%lld)\n",
                     config.c_str(),
                     static_cast<long long>(runs_plan.total_elements()),
                     static_cast<long long>(list_plan.total_elements()));
        std::exit(1);
      }
      harness.record_timing("plan_build", config, "list", list_ms);
      harness.record_timing("plan_build", config, "runs", runs_ms);
      bench_common::note(config + ": list " + std::to_string(list_ms) +
                         " ms, runs " + std::to_string(runs_ms) + " ms (" +
                         runs_plan.summary() + ")");
    }
  }
}

// One PlanCache per layout pair, looked up across the whole (N, P) grid
// (the figure keeps its historical name): `build_runs` builds the plan
// directly, `instantiate_cold` is an acquire on a fresh cache — a miss
// that builds the plan and inserts it — and `instantiate` is the warm
// path, the cache hit every later plan slot with the same layout pair
// pays.
void measure_symbolic_sweep(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  constexpr int kWarmCalls = 4096;  // inner average; one call is ~a map find
  const LayoutPair pairs[] = {
      {"block-cyclic", DistFormat::block(), DistFormat::cyclic()},
      {"cyclic3-block", DistFormat::cyclic(3), DistFormat::block()},
      {"cyclic2-cyclic5", DistFormat::cyclic(2), DistFormat::cyclic(5)},
  };
  for (const LayoutPair& pair : pairs) {
    hpfc::redist::PlanCache cache;
    double warm_min_ms = 1e9;
    double warm_max_ms = 0.0;
    for (const Extent n : {Extent{1} << 16, Extent{1} << 18, Extent{1} << 20,
                           Extent{1} << 21, Extent{1} << 22}) {
      for (const Extent procs : {Extent{2}, Extent{4}, Extent{8},
                                 Extent{16}}) {
        const auto from = one_dim(n, procs, pair.from);
        const auto to = one_dim(n, procs, pair.to);
        const std::string config = pair.name + " N=" + std::to_string(n) +
                                   " P=" + std::to_string(procs);

        hpfc::redist::RedistPlanV2 concrete;
        const double concrete_ms = median_ms(
            reps, [&] { concrete = hpfc::redist::build_runs(from, to); });

        // Each cold sample misses in a fresh cache, emptied untimed.
        hpfc::redist::PlanCache cold_cache;
        const double cold_ms = median_ms(
            reps, [&] { cold_cache = {}; },
            [&] { (void)cold_cache.acquire(from, to); });
        const hpfc::redist::RedistPlanV2* plan = cache.acquire(from, to).plan;
        if (plan->total_elements() != concrete.total_elements()) {
          std::fprintf(
              stderr,
              "bench_plan_build: cached/concrete mismatch on %s (%lld vs "
              "%lld)\n",
              config.c_str(),
              static_cast<long long>(plan->total_elements()),
              static_cast<long long>(concrete.total_elements()));
          std::exit(1);
        }

        const double warm_ms =
            median_ms(reps,
                      [&] {
                        for (int i = 0; i < kWarmCalls; ++i)
                          plan = cache.acquire(from, to).plan;
                      }) /
            kWarmCalls;
        warm_min_ms = std::min(warm_min_ms, warm_ms);
        warm_max_ms = std::max(warm_max_ms, warm_ms);

        harness.record_timing("symbolic_sweep", config, "build_runs",
                              concrete_ms);
        harness.record_timing("symbolic_sweep", config, "instantiate_cold",
                              cold_ms);
        harness.record_timing("symbolic_sweep", config, "instantiate",
                              warm_ms);
      }
    }
    bench_common::note(pair.name + ": " + std::to_string(cache.size()) +
                       " cached plans; warm lookup " +
                       std::to_string(warm_min_ms * 1e6) + "-" +
                       std::to_string(warm_max_ms * 1e6) +
                       " ns across the (N, P) grid");
  }
}

// The plan-cache lookup microbench: ns per PlanCache::acquire that hits
// (a map find in a cache of `entries` cyclic(2) -> cyclic(3) plans) and
// per acquire that misses (the find, build_runs and the insert, each
// sample on a copy of the cache made untimed), beside build_runs of the
// missing plan alone, so `miss` - `build_runs` is the cache's own cost of
// a miss.
void measure_plan_cache_lookup(bench_common::Harness& harness) {
  const int reps = std::max(3, harness.options().reps);
  constexpr int kHits = 4096;  // inner average; one hit is ~a map find
  constexpr Extent kProcs = 8;
  const auto pair_of = [](Extent n) {
    return std::pair(one_dim(n, kProcs, DistFormat::cyclic(2)),
                     one_dim(n, kProcs, DistFormat::cyclic(3)));
  };
  for (const int entries : {1, 64}) {
    hpfc::redist::PlanCache cache;
    std::vector<std::pair<ConcreteLayout, ConcreteLayout>> cached;
    for (int i = 0; i < entries; ++i) {
      cached.push_back(pair_of(1024 + Extent{48} * i));
      (void)cache.acquire(cached.back().first, cached.back().second);
    }
    const auto& [from, to] = cached[cached.size() / 2];
    const double hit_ms =
        median_ms(reps,
                  [&] {
                    for (int i = 0; i < kHits; ++i)
                      (void)cache.acquire(from, to);
                  }) /
        kHits;

    const auto [miss_from, miss_to] = pair_of(1000);
    hpfc::redist::PlanCache copy;
    bool hit = false;
    const double miss_ms = median_ms(
        reps, [&] { copy = cache; },
        [&] { hit = copy.acquire(miss_from, miss_to).hit || hit; });
    if (hit) {
      std::fprintf(stderr, "bench_plan_build: the missing plan hit\n");
      std::exit(1);
    }
    const double build_ms = median_ms(
        reps, [&] { (void)hpfc::redist::build_runs(miss_from, miss_to); });

    const std::string config = "entries=" + std::to_string(entries);
    harness.record_timing("plan_cache", config, "hit", hit_ms);
    harness.record_timing("plan_cache", config, "miss", miss_ms);
    harness.record_timing("plan_cache", config, "build_runs", build_ms);
    bench_common::note("plan cache " + config + ": hit " +
                       std::to_string(hit_ms * 1e6) + " ns, miss " +
                       std::to_string(miss_ms * 1e6) + " ns (build_runs " +
                       std::to_string(build_ms * 1e6) + " ns)");
  }
}

void measure_pack_throughput(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  const Extent procs = 8;
  const Extent n = Extent{1} << 21;  // 2M elements, 16 MiB of doubles
  const auto from = one_dim(n, procs, DistFormat::block());
  const auto to = one_dim(n, procs, DistFormat::cyclic(4));
  const std::string config =
      "block-cyclic4 N=" + std::to_string(n) + " P=" + std::to_string(procs);

  std::vector<hpfc::redist::SegmentProgram> programs;
  const double compile_ms = median_ms(reps, [&] {
    programs.clear();
    const auto plan = hpfc::redist::build_runs(from, to);
    for (const auto& t : plan.transfers)
      programs.push_back(hpfc::redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst)));
  });
  harness.record_timing("pack", config, "compile", compile_ms);

  std::vector<hpfc::Piece> src_locals(static_cast<std::size_t>(from.ranks()));
  std::vector<hpfc::Piece> dst_locals(static_cast<std::size_t>(to.ranks()));
  for (int r = 0; r < from.ranks(); ++r)
    src_locals[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(from.local_count(r)), 1.0);
  for (int r = 0; r < to.ranks(); ++r)
    dst_locals[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(to.local_count(r)), 0.0);

  std::vector<double> payload;
  std::uint64_t moved = 0;
  std::uint64_t segments = 0;
  const double xfer_ms = median_ms(reps, [&] {
    moved = 0;
    segments = 0;
    for (const auto& p : programs) {
      hpfc::testing::pack(p, src_locals[static_cast<std::size_t>(p.src)],
                         payload);
      hpfc::testing::unpack(p, payload,
                           dst_locals[static_cast<std::size_t>(p.dst)]);
      moved += static_cast<std::uint64_t>(p.elements);
      segments += p.segment_count();
    }
  });
  harness.record_timing("pack", config, "pack-unpack", xfer_ms);
  const double gbps =
      static_cast<double>(moved) * sizeof(double) / (xfer_ms * 1e6);
  bench_common::note(config + ": compile " + std::to_string(compile_ms) +
                     " ms, pack+unpack " + std::to_string(xfer_ms) + " ms (" +
                     std::to_string(gbps) + " GB/s, " +
                     std::to_string(segments) + " segments for " +
                     std::to_string(moved) + " elements)");
}

}  // namespace

int main(int argc, char** argv) {
  return bench_common::bench_main(
      argc, argv, "plan_build", [](bench_common::Harness& harness) {
        bench_common::banner(
            "plan_build",
            "run-based plan construction is O(runs), not O(N), for fixed P");
        measure_plan_build(harness);
        measure_symbolic_sweep(harness);
        measure_plan_cache_lookup(harness);
        measure_pack_throughput(harness);
      });
}
