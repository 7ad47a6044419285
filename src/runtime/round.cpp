#include "runtime/round.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "exec/proc_backend.hpp"
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
}

RoundTimes FusedRound::run(exec::Backend& backend) {
  RoundTimes times;
  auto* proc = dynamic_cast<exec::ProcBackend*>(&backend);
  if (proc == nullptr) {
    times.pack_ms = timed_ms([&] { pull(backend); });
    return times;
  }
  std::vector<std::vector<net::Message>> outboxes;
  std::vector<std::vector<net::Message>> inboxes;
  times.pack_ms = timed_ms([&] { outboxes = pack(backend); });
  times.exchange_ms =
      timed_ms([&] { inboxes = proc->exchange(std::move(outboxes)); });
  times.unpack_ms = timed_ms([&] { unpack(backend, std::move(inboxes)); });
  return times;
}

void FusedRound::copy_local(int r) const {
  const auto rank = static_cast<std::size_t>(r);
  for (const redist::FusedLocal& u : exchange_.local_by_rank[rank]) {
    const RoundMember& m = members_[static_cast<std::size_t>(u.member)];
    kernel(u.member, u.kernel).copy((*m.src)[rank], (*m.dst)[rank]);
  }
}

void FusedRound::pull(exec::Backend& backend) const {
  backend.step([&](int r) {
    copy_local(r);
    const auto rank = static_cast<std::size_t>(r);
    for (const int mi : exchange_.by_dst[rank]) {
      const redist::FusedMessage& fm =
          exchange_.messages[static_cast<std::size_t>(mi)];
      for (const redist::FusedFrame& fr : fm.frames) {
        const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
        kernel(fr.member, fr.kernel)
            .copy((*m.src)[static_cast<std::size_t>(fm.src)], (*m.dst)[rank]);
      }
    }
  });
}

std::vector<std::vector<net::Message>> FusedRound::pack(
    exec::Backend& backend) {
  payload_pool_.resize(exchange_.messages.size());
  // The recycled mailbox skeleton becomes this round's outboxes.
  auto outboxes = std::move(mailbox_pool_);
  outboxes.resize(static_cast<std::size_t>(backend.ranks()));
  for (auto& box : outboxes) box.clear();
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
  return outboxes;
}

void FusedRound::check_inbox(int r,
                             const std::vector<net::Message>& inbox) const {
  const std::vector<int>& expected =
      exchange_.by_dst[static_cast<std::size_t>(r)];
  const auto mismatch = [&](int src, const std::string& why) {
    return InternalError("copy group " + std::to_string(group_) +
                         ": message " + pair_name(src, r) + " " + why);
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const int mi = expected[i];
    const redist::FusedMessage& fm =
        exchange_.messages[static_cast<std::size_t>(mi)];
    if (i >= inbox.size()) throw mismatch(fm.src, "is missing from the inbox");
    const net::Message& msg = inbox[i];
    if (msg.src != fm.src || msg.dst != fm.dst) {
      throw mismatch(fm.src, "is missing from the inbox: slot " +
                                 std::to_string(i) + " holds " +
                                 pair_name(msg.src, msg.dst));
    }
    if (msg.tag != mi) {
      throw mismatch(fm.src, "carries tag " + std::to_string(msg.tag) +
                                 " where the message table has entry " +
                                 std::to_string(mi));
    }
    if (msg.segments != fm.segments) {
      throw mismatch(fm.src, "carries " + std::to_string(msg.segments) +
                                 " segments where its frames have " +
                                 std::to_string(fm.segments));
    }
    if (msg.payload.size() != static_cast<std::size_t>(fm.elements)) {
      throw mismatch(fm.src, "carries " + std::to_string(msg.payload.size()) +
                                 " elements where its frames need " +
                                 std::to_string(fm.elements));
    }
  }
  if (inbox.size() > expected.size()) {
    throw mismatch(inbox[expected.size()].src,
                   "is not in the message table: the inbox holds " +
                       std::to_string(inbox.size()) + " messages, the table " +
                       std::to_string(expected.size()));
  }
}

void FusedRound::unpack(exec::Backend& backend,
                        std::vector<std::vector<net::Message>> inboxes) {
  HPFC_ASSERT_MSG(inboxes.size() == exchange_.by_dst.size(),
                  "copy group " + std::to_string(group_) + ": " +
                      std::to_string(inboxes.size()) + " inboxes for " +
                      std::to_string(exchange_.by_dst.size()) + " ranks");
  for (std::size_t r = 0; r < inboxes.size(); ++r)
    check_inbox(static_cast<int>(r), inboxes[r]);

  backend.step([&](int r) {
    const auto rank = static_cast<std::size_t>(r);
    for (const auto& msg : inboxes[rank]) {
      const redist::FusedMessage& fm =
          exchange_.messages[static_cast<std::size_t>(msg.tag)];
      for (const redist::FusedFrame& fr : fm.frames) {
        const RoundMember& m = members_[static_cast<std::size_t>(fr.member)];
        const std::span<const double> window(msg.payload.data() + fr.offset,
                                             static_cast<std::size_t>(fr.len));
        kernel(fr.member, fr.kernel).unpack(window, (*m.dst)[rank]);
      }
    }
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
}

}  // namespace hpfc::runtime
