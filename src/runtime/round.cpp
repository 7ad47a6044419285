#include "runtime/round.hpp"

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

/// `stats` after one more superstep that charged `step` from zero
/// NetStats: the fields a superstep moves, added in the order
/// net::account_superstep adds them, so the sum is bit-exact.
net::NetStats charged(net::NetStats stats, const net::NetStats& step) {
  stats.messages += step.messages;
  stats.bytes += step.bytes;
  stats.local_copies += step.local_copies;
  stats.local_bytes += step.local_bytes;
  stats.segments += step.segments;
  stats.supersteps += step.supersteps;
  stats.sim_time += step.sim_time;
  return stats;
}

}  // namespace

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

  for (const auto& units : exchange_.local_by_rank) {
    for (const redist::FusedLocal& u : units) {
      const redist::SegmentProgram& tp = kernel(u.member, u.kernel).program();
      ++local_copies_;
      local_segments_ += tp.segment_count();
      local_elements_ += static_cast<std::uint64_t>(tp.elements);
    }
  }
  dispatches_ = local_copies_;
  traffic_.reserve(exchange_.messages.size());
  for (const redist::FusedMessage& fm : exchange_.messages) {
    remote_elements_ += static_cast<std::uint64_t>(fm.elements);
    dispatches_ += fm.frames.size();
    traffic_.push_back(
        {fm.src, fm.dst,
         static_cast<std::uint64_t>(fm.elements) * sizeof(double),
         static_cast<std::uint64_t>(fm.segments)});
  }
}

RoundTimes FusedRound::run(exec::Backend& backend) {
  if (backend.kind() == exec::BackendKind::Proc) return send(backend);
  return pull(backend);
}

void FusedRound::copy_local(int r) const {
  const auto rank = static_cast<std::size_t>(r);
  for (const redist::FusedLocal& u : exchange_.local_by_rank[rank]) {
    const RoundMember& m = members_[static_cast<std::size_t>(u.member)];
    kernel(u.member, u.kernel).copy((*m.src)[rank], (*m.dst)[rank]);
  }
}

void FusedRound::account_counters(exec::Backend& backend) const {
  backend.account_local(local_copies_, local_elements_ * sizeof(double),
                        local_segments_);
  backend.account_specialization(0, dispatches_);
}

RoundTimes FusedRound::pull(exec::Backend& backend) {
  RoundTimes times;
  times.pack_ms = timed_ms([&] {
    backend.step([&](int r) {
      copy_local(r);
      const auto rank = static_cast<std::size_t>(r);
      for (const int mi : exchange_.by_dst[rank]) {
        const redist::FusedMessage& fm =
            exchange_.messages[static_cast<std::size_t>(mi)];
        for (const redist::FusedFrame& fr : fm.frames) {
          const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
          kernel(fr.member, fr.kernel)
              .copy((*m.src)[static_cast<std::size_t>(fm.src)],
                    (*m.dst)[rank]);
        }
      }
    });
  });
  account_counters(backend);
  backend.account_round(traffic_);
  return times;
}

RoundTimes FusedRound::send(exec::Backend& backend) {
  RoundTimes times;
  payload_pool_.resize(exchange_.messages.size());
  // The recycled mailbox skeleton becomes this round's outboxes.
  auto outboxes = std::move(mailbox_pool_);
  outboxes.resize(static_cast<std::size_t>(backend.ranks()));
  for (auto& box : outboxes) box.clear();
  times.pack_ms = timed_ms([&] {
    backend.step([&](int r) {
      copy_local(r);
      const auto rank = static_cast<std::size_t>(r);
      for (const int mi : exchange_.by_src[rank]) {
        const redist::FusedMessage& fm =
            exchange_.messages[static_cast<std::size_t>(mi)];
        net::Message msg;
        msg.src = fm.src;
        msg.dst = fm.dst;
        msg.tag = mi;
        msg.segments = fm.segments;
        // Payload buffers are drawn from (and returned to) their tag's
        // pool slot.
        msg.payload = std::move(payload_pool_[static_cast<std::size_t>(mi)]);
        msg.payload.resize(static_cast<std::size_t>(fm.elements));
        for (const redist::FusedFrame& fr : fm.frames) {
          const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
          const std::span<double> window(msg.payload.data() + fr.offset,
                                         static_cast<std::size_t>(fr.len));
          kernel(fr.member, fr.kernel).pack((*m.src)[rank], window);
        }
        outboxes[rank].push_back(std::move(msg));
      }
    });
  });
  account_counters(backend);

  if (!step_charge_) {
    step_charge_.emplace();
    net::account_flows(*step_charge_, backend.cost_model(), backend.ranks(),
                       traffic_);
  }
  const net::NetStats expected = charged(backend.stats(), *step_charge_);
  std::vector<std::vector<net::Message>> inboxes;
  times.exchange_ms = timed_ms(
      [&] { inboxes = backend.exchange(std::move(outboxes)); });
  HPFC_ASSERT_MSG(backend.stats() == expected,
                  "copy group " + std::to_string(group_) +
                      ": the exchange charged " + backend.stats().summary() +
                      " where the round's traffic table charges " +
                      expected.summary());

  times.unpack_ms = timed_ms([&] {
    backend.step([&](int r) {
      const auto rank = static_cast<std::size_t>(r);
      for (const auto& msg : inboxes[rank]) {
        const redist::FusedMessage& fm =
            exchange_.messages[static_cast<std::size_t>(msg.tag)];
        for (const redist::FusedFrame& fr : fm.frames) {
          const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
          const std::span<const double> window(
              msg.payload.data() + fr.offset,
              static_cast<std::size_t>(fr.len));
          kernel(fr.member, fr.kernel).unpack(window, (*m.dst)[rank]);
        }
      }
    });
  });
  // Recycle: payload buffers go back to their tag's pool slot, and the
  // routed mailbox skeleton (outer + inner vector capacities) becomes
  // the next execution's outboxes.
  for (auto& inbox : inboxes)
    for (auto& msg : inbox)
      payload_pool_[static_cast<std::size_t>(msg.tag)] =
          std::move(msg.payload);
  for (auto& inbox : inboxes) inbox.clear();
  mailbox_pool_ = std::move(inboxes);
  return times;
}

}  // namespace hpfc::runtime
