#include "runtime/round.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace hpfc::runtime {

namespace {

/// Wall milliseconds spent in fn().
template <typename Fn>
double timed_ms(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// "(src, dst)" for diagnostics.
std::string pair_name(int src, int dst) {
  return "(" + std::to_string(src) + ", " + std::to_string(dst) + ")";
}

using redist::Extent;

/// A kernel normalized to per-period lanes: its payload positions
/// [payload, payload + periods*per_period) run `per_period` elements in
/// each of the periods [first, first + periods) of a line `width` wide.
/// Lane i writes line position lane_at[i] (< width) of each period and
/// reads source position lane_src[i] + p*step in period p (which lies
/// outside the source before `first`).
struct PeriodLanes {
  Extent width = 0;
  Extent step = 0;
  Extent first = 0;
  Extent periods = 0;
  Extent payload = 0;
  Extent per_period = 0;
  std::array<int, redist::kMaxGatherWidth> lane_at{};
  std::array<Extent, redist::kMaxGatherWidth> lane_src{};
};

/// `program`'s per-period lanes, from its largest block: a repeated block
/// (width: its destination step, step: its source step) whose body, at
/// most kMaxGatherWidth elements, lands in one period of the destination
/// line; or a reps == 1 single-segment block (width and step: its two
/// strides), one lane of one element per period. The other blocks are
/// the kernel's rests. nullopt when that block is neither, or its width
/// is outside [2, kMaxGatherWidth]. O(program size).
std::optional<PeriodLanes> period_lanes(const redist::SegmentProgram& program) {
  const redist::SegmentBlock* best = nullptr;
  Extent best_at = 0;
  Extent best_body = 0;
  Extent at = 0;
  for (const redist::SegmentBlock& block : program.blocks) {
    Extent body = 0;
    for (std::uint32_t i = block.first; i < block.first + block.count; ++i)
      body += program.segments[i].len;
    if (best == nullptr || body * block.reps > best_body * best->reps) {
      best = &block;
      best_at = at;
      best_body = body;
    }
    at += body * block.reps;
  }
  if (best == nullptr || best_body == 0) return std::nullopt;
  PeriodLanes lanes;
  lanes.payload = best_at;
  std::array<Extent, redist::kMaxGatherWidth> dst{};
  if (best->reps >= 2) {
    lanes.width = best->dst_step;
    lanes.step = best->src_step;
    if (best_body > redist::kMaxGatherWidth) return std::nullopt;
    lanes.periods = best->reps;
    lanes.per_period = best_body;
    int i = 0;
    for (std::uint32_t s = best->first; s < best->first + best->count; ++s) {
      const redist::CopySegment& seg = program.segments[s];
      for (Extent e = 0; e < seg.len; ++e, ++i) {
        dst[static_cast<std::size_t>(i)] = seg.dst_base + e * seg.dst_stride;
        lanes.lane_src[static_cast<std::size_t>(i)] =
            seg.src_base + e * seg.src_stride;
      }
    }
  } else {
    const redist::CopySegment& seg = program.segments[best->first];
    if (best->count != 1 || seg.len < 2) return std::nullopt;
    lanes.width = seg.dst_stride;
    lanes.step = seg.src_stride;
    lanes.periods = seg.len;
    lanes.per_period = 1;
    dst[0] = seg.dst_base;
    lanes.lane_src[0] = seg.src_base;
  }
  if (lanes.width < 2 || lanes.width > redist::kMaxGatherWidth)
    return std::nullopt;
  // The period of the lanes' first destination position; every lane of
  // the block must land in it.
  const auto lanes_end = dst.begin() + lanes.per_period;
  const Extent low = *std::min_element(dst.begin(), lanes_end);
  if (low < 0) return std::nullopt;
  lanes.first = low / lanes.width;
  const Extent origin = lanes.first * lanes.width;
  if (*std::max_element(dst.begin(), lanes_end) >= origin + lanes.width)
    return std::nullopt;
  for (std::size_t i = 0; i < static_cast<std::size_t>(lanes.per_period);
       ++i) {
    lanes.lane_at[i] = static_cast<int>(dst[i] - origin);
    lanes.lane_src[i] -= lanes.first * lanes.step;
  }
  return lanes;
}

}  // namespace

int tile_count(std::uint64_t bytes, std::uint64_t tile_bytes) {
  HPFC_ASSERT(tile_bytes > 0);
  return static_cast<int>(
      std::max<std::uint64_t>(1, (bytes + tile_bytes - 1) / tile_bytes));
}

FusedRound::FusedRound(int ranks, std::vector<RoundMember> members,
                       int group)
    : members_(std::move(members)), group_(group) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (std::size_t j = 0; j < members_.size(); ++j) {
      HPFC_ASSERT_MSG(members_[i].dst != members_[j].src,
                      "copy group " + std::to_string(group_) + ": member " +
                          std::to_string(i) +
                          " writes the storage member " + std::to_string(j) +
                          " reads");
    }
  }
  std::vector<std::span<const redist::Kernel>> kernels;
  kernels.reserve(members_.size());
  for (const RoundMember& m : members_) kernels.push_back(m.kernels);
  exchange_ = redist::build_fused_exchange(ranks, kernels);

  std::size_t units = 0;
  for (const auto& local : exchange_.local_by_rank) units += local.size();
  traffic_.reserve(units + exchange_.messages.size());
  for (std::size_t r = 0; r < exchange_.local_by_rank.size(); ++r) {
    for (const redist::FusedLocal& u : exchange_.local_by_rank[r]) {
      const redist::SegmentProgram& tp = kernel(u.member, u.kernel).program();
      const auto elements = static_cast<std::uint64_t>(tp.elements);
      ++local_copies_;
      local_elements_ += elements;
      traffic_.push_back({static_cast<net::Rank>(r),
                          static_cast<net::Rank>(r),
                          elements * sizeof(double), tp.segment_count()});
    }
  }
  dispatches_ = local_copies_;
  for (const redist::FusedMessage& fm : exchange_.messages) {
    remote_elements_ += static_cast<std::uint64_t>(fm.elements);
    dispatches_ += fm.frames.size();
    traffic_.push_back(
        {fm.src, fm.dst,
         static_cast<std::uint64_t>(fm.elements) * sizeof(double),
         static_cast<std::uint64_t>(fm.segments)});
  }
  tiles_ = tile_count((local_elements_ + remote_elements_) * sizeof(double));
  // The arena layout: out-slots in table order from the arena's start,
  // then the in-slots in the same order.
  slots_.reserve(exchange_.messages.size());
  std::uint64_t at = 0;
  for (std::size_t mi = 0; mi < exchange_.messages.size(); ++mi) {
    const redist::FusedMessage& fm = exchange_.messages[mi];
    const auto elements = static_cast<std::uint64_t>(fm.elements);
    slots_.push_back({fm.src, fm.dst, static_cast<int>(mi), fm.segments,
                      elements, at, remote_elements_ + at});
    at += elements;
  }
  build_stencil(ranks);
}

void FusedRound::build_stencil(int ranks) {
  // Every kernel with elements normalizes to lanes, or the round has no
  // stencil.
  struct Normalized {
    int member;
    int kernel;
    PeriodLanes lanes;
  };
  std::size_t count = 0;
  for (const RoundMember& m : members_) count += m.kernels.size();
  std::vector<Normalized> kernels;
  Extent lane_count = 0;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    for (std::size_t k = 0; k < members_[m].kernels.size(); ++k) {
      const redist::SegmentProgram& program = members_[m].kernels[k].program();
      if (program.elements == 0) continue;
      std::optional<PeriodLanes> lanes = period_lanes(program);
      if (!lanes) return;
      // A round that fails at its first kernel, the common case,
      // allocates nothing.
      if (kernels.empty()) kernels.reserve(count);
      lane_count += lanes->per_period;
      kernels.push_back(
          {static_cast<int>(m), static_cast<int>(k), *lanes});
    }
  }
  if (kernels.empty()) return;
  const auto dst_of = [&](const Normalized& n) {
    return kernel(n.member, n.kernel).program().dst;
  };
  std::sort(kernels.begin(), kernels.end(),
            [&](const Normalized& a, const Normalized& b) {
              return std::pair(dst_of(a), a.member) <
                     std::pair(dst_of(b), b.member);
            });

  // One line per (destination rank, member): its kernels' lanes must
  // share one width and one step and hit each line position once, and
  // the periods all of them run are the line's. Lines and rests come out
  // in destination rank order.
  std::vector<StencilLine> lines;
  lines.reserve(kernels.size());
  std::vector<StencilLane> lanes;
  lanes.reserve(static_cast<std::size_t>(lane_count));
  std::vector<StencilRest> rests;
  rests.reserve(2 * kernels.size());
  std::vector<std::uint32_t> rest_begin(static_cast<std::size_t>(ranks) + 1,
                                        0);
  for (std::size_t a = 0; a < kernels.size();) {
    std::size_t b = a;
    while (b < kernels.size() && kernels[b].member == kernels[a].member &&
           dst_of(kernels[b]) == dst_of(kernels[a]))
      ++b;
    const Extent width = kernels[a].lanes.width;
    const Extent step = kernels[a].lanes.step;
    std::uint32_t hit = 0;
    Extent lo = 0;
    Extent hi = std::numeric_limits<Extent>::max();
    for (std::size_t i = a; i < b; ++i) {
      const PeriodLanes& pl = kernels[i].lanes;
      if (pl.width != width || pl.step != step) return;
      for (std::size_t l = 0; l < static_cast<std::size_t>(pl.per_period);
           ++l) {
        const std::uint32_t bit = std::uint32_t{1} << pl.lane_at[l];
        if ((hit & bit) != 0) return;
        hit |= bit;
      }
      lo = std::max(lo, pl.first);
      hi = std::min(hi, pl.first + pl.periods);
    }
    if (hit != (std::uint32_t{1} << width) - 1 || lo >= hi) return;

    StencilLine line;
    line.gather = redist::gather_fragment(static_cast<int>(width));
    line.member = kernels[a].member;
    line.rank = dst_of(kernels[a]);
    line.width = static_cast<int>(width);
    line.step = step;
    line.first = static_cast<std::uint32_t>(lanes.size());
    line.base = lo * width;
    line.periods = hi - lo;
    lines.push_back(line);
    lanes.resize(lanes.size() + static_cast<std::size_t>(width));
    for (std::size_t i = a; i < b; ++i) {
      const Normalized& n = kernels[i];
      const PeriodLanes& pl = n.lanes;
      const redist::SegmentProgram& program =
          kernel(n.member, n.kernel).program();
      for (std::size_t l = 0; l < static_cast<std::size_t>(pl.per_period);
           ++l) {
        lanes[line.first + static_cast<std::size_t>(pl.lane_at[l])] = {
            program.src, pl.lane_src[l] + lo * step};
      }
      // The payload positions of periods [lo, hi) are one range; the
      // rest of the kernel runs through copy_range.
      const Extent gathered_lo = pl.payload + (lo - pl.first) * pl.per_period;
      const Extent gathered_hi = pl.payload + (hi - pl.first) * pl.per_period;
      if (gathered_lo > 0)
        rests.push_back({n.member, n.kernel, 0, gathered_lo});
      if (gathered_hi < program.elements)
        rests.push_back({n.member, n.kernel, gathered_hi, program.elements});
    }
    rest_begin[static_cast<std::size_t>(line.rank) + 1] =
        static_cast<std::uint32_t>(rests.size());
    a = b;
  }
  // A rank without a line starts its (empty) rests where the rank before
  // it ends.
  for (std::size_t r = 1; r < rest_begin.size(); ++r)
    rest_begin[r] = std::max(rest_begin[r], rest_begin[r - 1]);
  stencil_ = std::make_unique<Stencil>();
  stencil_->lane_src.resize(lanes.size());
  stencil_->line_dst.resize(lines.size());
  stencil_->lines = std::move(lines);
  stencil_->lanes = std::move(lanes);
  stencil_->rests = std::move(rests);
  stencil_->rest_begin = std::move(rest_begin);
  stencil_->tiles = tile_count(
      (local_elements_ + remote_elements_) * sizeof(double), kStencilTileBytes);
}

RoundTimes FusedRound::run(exec::Backend& backend) {
  RoundTimes times;
  auto* proc = dynamic_cast<exec::ProcBackend*>(&backend);
  if (proc == nullptr) {
    if (has_stencil()) {
      times.pack_ms = timed_ms([&] { gather(backend, stencil_->tiles); });
      return times;
    }
    // Each step is a barrier: on more than one worker, the steps a tiled
    // pull adds cost more than the cache reuse it wins.
    const int steps = backend.workers() > 1 ? 1 : tiles_;
    times.pack_ms = timed_ms([&] { pull(backend, steps); });
    return times;
  }
  const std::span<double> arena = proc->arena(arena_elements());
  times.pack_ms = timed_ms([&] { pack(backend, arena); });
  // A round without off-rank messages has nothing to put on the wire.
  if (slots_.empty()) return times;
  exec::Inboxes inboxes;
  times.exchange_ms = timed_ms([&] { inboxes = proc->exchange(slots_); });
  times.unpack_ms = timed_ms([&] { unpack(backend, inboxes, arena); });
  return times;
}

void FusedRound::copy_local(int r) const {
  const auto rank = static_cast<std::size_t>(r);
  for (const redist::FusedLocal& u : exchange_.local_by_rank[rank]) {
    const RoundMember& m = members_[static_cast<std::size_t>(u.member)];
    kernel(u.member, u.kernel).copy((*m.src)[rank], (*m.dst)[rank]);
  }
}

void FusedRound::pull(exec::Backend& backend, int steps) const {
  HPFC_ASSERT(steps >= 1);
  for (int step = 0; step < steps; ++step) {
    // Step `step`'s slice of a unit or frame of the kernel k.
    const auto copy_tile = [&](const redist::Kernel& k,
                               const std::vector<double>& src,
                               std::vector<double>& dst) {
      const redist::Extent n = k.elements();
      k.copy_range(src, dst, n * step / steps, n * (step + 1) / steps);
    };
    backend.step([&](int r) {
      const auto rank = static_cast<std::size_t>(r);
      for (const redist::FusedLocal& u : exchange_.local_by_rank[rank]) {
        const RoundMember& m = members_[static_cast<std::size_t>(u.member)];
        copy_tile(kernel(u.member, u.kernel), (*m.src)[rank], (*m.dst)[rank]);
      }
      for (const int mi : exchange_.by_dst[rank]) {
        const redist::FusedMessage& fm =
            exchange_.messages[static_cast<std::size_t>(mi)];
        for (const redist::FusedFrame& fr : fm.frames) {
          const RoundMember& m =
              members_[static_cast<std::size_t>(fr.member)];
          copy_tile(kernel(fr.member, fr.kernel),
                    (*m.src)[static_cast<std::size_t>(fm.src)],
                    (*m.dst)[rank]);
        }
      }
    });
  }
}

void FusedRound::gather(exec::Backend& backend, int tiles) {
  HPFC_ASSERT(has_stencil() && tiles >= 1);
  Stencil& st = *stencil_;
  HPFC_ASSERT(static_cast<std::size_t>(backend.ranks()) + 1 ==
              st.rest_begin.size());
  // Patch the holes: the storage's base pointers as they are now.
  for (std::size_t i = 0; i < st.lines.size(); ++i) {
    const StencilLine& line = st.lines[i];
    const RoundMember& m = members_[static_cast<std::size_t>(line.member)];
    st.line_dst[i] =
        (*m.dst)[static_cast<std::size_t>(line.rank)].data() + line.base;
    for (std::size_t j = 0; j < static_cast<std::size_t>(line.width); ++j) {
      const StencilLane& lane = st.lanes[line.first + j];
      st.lane_src[line.first + j] =
          (*m.src)[static_cast<std::size_t>(lane.rank)].data() + lane.offset;
    }
  }
  const int tasks = backend.ranks();
  // Task t's tiles, then its rank's rests: every write lands on a
  // position of its own, so the tasks need no barrier but the step's.
  backend.step([&](int t) {
    std::array<const double*, redist::kMaxGatherWidth> src{};
    for (int k = tiles * t / tasks; k < tiles * (t + 1) / tasks; ++k) {
      for (std::size_t i = 0; i < st.lines.size(); ++i) {
        const StencilLine& line = st.lines[i];
        const Extent lo = line.periods * k / tiles;
        const Extent hi = line.periods * (k + 1) / tiles;
        if (lo == hi) continue;
        for (std::size_t j = 0; j < static_cast<std::size_t>(line.width); ++j)
          src[j] = st.lane_src[line.first + j] + lo * line.step;
        line.gather(src.data(), st.line_dst[i] + lo * line.width, hi - lo,
                    line.step);
      }
    }
    const auto rank = static_cast<std::size_t>(t);
    for (std::uint32_t i = st.rest_begin[rank]; i < st.rest_begin[rank + 1];
         ++i) {
      const StencilRest& rest = st.rests[i];
      const RoundMember& m = members_[static_cast<std::size_t>(rest.member)];
      const redist::Kernel& k = kernel(rest.member, rest.kernel);
      k.copy_range((*m.src)[static_cast<std::size_t>(k.program().src)],
                   (*m.dst)[rank], rest.lo, rest.hi);
    }
  });
}

void FusedRound::pack(exec::Backend& backend, std::span<double> arena) const {
  HPFC_ASSERT(arena.size() >= arena_elements());
  backend.step([&](int r) {
    copy_local(r);
    const auto rank = static_cast<std::size_t>(r);
    for (const int mi : exchange_.by_src[rank]) {
      const auto i = static_cast<std::size_t>(mi);
      const auto out = arena.subspan(slots_[i].out_offset, slots_[i].elements);
      for (const redist::FusedFrame& fr : exchange_.messages[i].frames) {
        const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
        kernel(fr.member, fr.kernel)
            .pack((*m.src)[rank],
                  out.subspan(static_cast<std::size_t>(fr.offset),
                              static_cast<std::size_t>(fr.len)));
      }
    }
  });
}

void FusedRound::check_inbox(
    int r, const std::vector<net::wire::Descriptor>& inbox) const {
  const std::vector<int>& expected =
      exchange_.by_dst[static_cast<std::size_t>(r)];
  const auto mismatch = [&](int src, const std::string& why) {
    return InternalError("copy group " + std::to_string(group_) +
                         ": message " + pair_name(src, r) + " " + why);
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const int mi = expected[i];
    const exec::ArenaMessage& slot = slots_[static_cast<std::size_t>(mi)];
    if (i >= inbox.size())
      throw mismatch(slot.src, "is missing from the inbox");
    const net::wire::Descriptor& got = inbox[i];
    if (got.src != slot.src || got.dst != slot.dst) {
      throw mismatch(slot.src, "is missing from the inbox: slot " +
                                   std::to_string(i) + " holds " +
                                   pair_name(got.src, got.dst));
    }
    if (got.tag != mi) {
      throw mismatch(slot.src, "carries tag " + std::to_string(got.tag) +
                                   " where the message table has entry " +
                                   std::to_string(mi));
    }
    if (got.segments != slot.segments) {
      throw mismatch(slot.src, "carries " + std::to_string(got.segments) +
                                   " segments where its frames have " +
                                   std::to_string(slot.segments));
    }
    if (got.elements != slot.elements) {
      throw mismatch(slot.src, "carries " + std::to_string(got.elements) +
                                   " elements where its frames need " +
                                   std::to_string(slot.elements));
    }
    if (got.offset != slot.in_offset) {
      throw mismatch(slot.src,
                     "landed at in-slot " + std::to_string(got.offset) +
                         " where the table has " +
                         std::to_string(slot.in_offset) +
                         " (the round's region holds " +
                         std::to_string(arena_elements()) + " elements)");
    }
  }
  if (inbox.size() > expected.size()) {
    throw mismatch(inbox[expected.size()].src,
                   "is not in the message table: the inbox holds " +
                       std::to_string(inbox.size()) + " messages, the table " +
                       std::to_string(expected.size()));
  }
}

void FusedRound::unpack(exec::Backend& backend, const exec::Inboxes& inboxes,
                        std::span<const double> arena) const {
  HPFC_ASSERT_MSG(inboxes.size() == exchange_.by_dst.size(),
                  "copy group " + std::to_string(group_) + ": " +
                      std::to_string(inboxes.size()) + " inboxes for " +
                      std::to_string(exchange_.by_dst.size()) + " ranks");
  HPFC_ASSERT(arena.size() >= arena_elements());
  for (std::size_t r = 0; r < inboxes.size(); ++r)
    check_inbox(static_cast<int>(r), inboxes[r]);

  // Every inbox matches the table, so each rank reads its messages from
  // the table's in-slots.
  backend.step([&](int r) {
    const auto rank = static_cast<std::size_t>(r);
    for (const int mi : exchange_.by_dst[rank]) {
      const auto i = static_cast<std::size_t>(mi);
      const auto in = arena.subspan(slots_[i].in_offset, slots_[i].elements);
      for (const redist::FusedFrame& fr : exchange_.messages[i].frames) {
        const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
        kernel(fr.member, fr.kernel)
            .unpack(in.subspan(static_cast<std::size_t>(fr.offset),
                               static_cast<std::size_t>(fr.len)),
                    (*m.dst)[rank]);
      }
    }
  });
}

}  // namespace hpfc::runtime
