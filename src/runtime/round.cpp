#include "runtime/round.hpp"

#include <algorithm>
#include <chrono>
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
}

RoundTimes FusedRound::run(exec::Backend& backend) {
  RoundTimes times;
  auto* proc = dynamic_cast<exec::ProcBackend*>(&backend);
  if (proc == nullptr) {
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
