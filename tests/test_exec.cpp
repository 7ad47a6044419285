// Backend equivalence: the thread-per-rank and process-per-rank engines
// must be observationally identical to the sequential BSP engine — same
// read checksums, same NetStats byte for byte — across randomized
// programs, machine sizes, worker counts, and random_layout-generated
// redistributions; the proc exchange delivers the reference router's
// deterministic (src, emission) inbox order, and a fused round's message
// path refuses inboxes that differ from its message table. The proc
// backend additionally proves its robustness contract: a killed worker
// surfaces as a bounded-time ProcError diagnostic, never a hang.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "net/wire.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/segments.hpp"
#include "runtime/round.hpp"
#include "support/check.hpp"
#include "testing/oracles.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::ConcreteLayout;
using mapping::Index;
using mapping::Shape;
using Mailboxes = std::vector<std::vector<net::Message>>;

TEST(BackendKind, ParsesAndPrints) {
  EXPECT_EQ(exec::parse_backend_kind("seq"), exec::BackendKind::Seq);
  EXPECT_EQ(exec::parse_backend_kind("thread"), exec::BackendKind::Thread);
  EXPECT_EQ(exec::parse_backend_kind("proc"), exec::BackendKind::Proc);
  EXPECT_FALSE(exec::parse_backend_kind("mpi").has_value());
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Seq), "seq");
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Thread), "thread");
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Proc), "proc");
}

TEST(Backend, FactoryReportsKindRanksWorkers) {
  const auto seq = exec::make_backend(exec::BackendKind::Seq, 5);
  EXPECT_EQ(seq->kind(), exec::BackendKind::Seq);
  EXPECT_EQ(seq->ranks(), 5);
  EXPECT_EQ(seq->workers(), 1);

  const auto pooled =
      exec::make_backend(exec::BackendKind::Thread, 5, /*threads=*/2);
  EXPECT_EQ(pooled->kind(), exec::BackendKind::Thread);
  EXPECT_EQ(pooled->ranks(), 5);
  EXPECT_EQ(pooled->workers(), 2);

  // Oversubscription clamps: never more workers than ranks.
  const auto clamped =
      exec::make_backend(exec::BackendKind::Thread, 3, /*threads=*/64);
  EXPECT_EQ(clamped->workers(), 3);

  // Proc: compute stays in the controlling process, spread over a step
  // pool sized like the thread backend's; one process forked per rank.
  const auto proc = exec::make_backend(exec::BackendKind::Proc, 3);
  EXPECT_EQ(proc->kind(), exec::BackendKind::Proc);
  EXPECT_EQ(proc->ranks(), 3);
  EXPECT_GE(proc->workers(), 1);
  EXPECT_LE(proc->workers(), 3);
  EXPECT_EQ(proc->wire().proc_spawns, 3u);
  // The in-process backends never touch a real socket.
  EXPECT_EQ(seq->wire(), exec::WireStats{});
}

TEST(Backend, StepRunsEveryRankExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    const auto backend =
        exec::make_backend(exec::BackendKind::Thread, 7, threads);
    std::vector<int> visits(7, 0);
    for (int repeat = 0; repeat < 50; ++repeat)
      backend->step([&](int r) { ++visits[static_cast<std::size_t>(r)]; });
    for (const int count : visits) EXPECT_EQ(count, 50);
  }
}

TEST(Backend, StepRethrowsRankFailures) {
  const auto backend =
      exec::make_backend(exec::BackendKind::Thread, 4, /*threads=*/4);
  // RankFn is a non-owning reference; keep the callable alive in a named
  // lambda for the duration of the step.
  const auto boom = [](int r) {
    if (r == 2) HPFC_ASSERT_MSG(false, "rank 2 exploded");
  };
  EXPECT_THROW(backend->step(boom), InternalError);
  // The pool survives a throwing step and keeps working.
  std::vector<int> visits(4, 0);
  backend->step([&](int r) { ++visits[static_cast<std::size_t>(r)]; });
  for (const int count : visits) EXPECT_EQ(count, 1);
}

/// Random messages between random ranks: the proc backend's socket
/// exchange must deliver what the reference router delivers, in the same
/// order, and count the physical traffic in its WireStats.
TEST(Backend, ProcExchangeMatchesReferenceRouter) {
  std::mt19937 rng(42);
  for (const int ranks : {1, 2, 5, 8}) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::vector<net::Message>> outboxes(
          static_cast<std::size_t>(ranks));
      for (int src = 0; src < ranks; ++src) {
        const int count = static_cast<int>(rng() % 5);
        for (int m = 0; m < count; ++m) {
          net::Message msg;
          msg.src = src;
          msg.dst = static_cast<int>(rng() % static_cast<unsigned>(ranks));
          msg.tag = m;
          msg.segments = 1 + static_cast<int>(rng() % 3);
          msg.payload.assign(rng() % 16, static_cast<double>(rng() % 100));
          outboxes[static_cast<std::size_t>(src)].push_back(std::move(msg));
        }
      }

      exec::ProcBackend proc(ranks, exec::ProcConfig{});
      const auto routed = testing::route_superstep(outboxes, ranks);
      const auto proc_in = proc.exchange(outboxes);

      ASSERT_EQ(routed.size(), proc_in.size());
      for (std::size_t r = 0; r < routed.size(); ++r) {
        ASSERT_EQ(routed[r].size(), proc_in[r].size()) << "rank " << r;
        for (std::size_t i = 0; i < routed[r].size(); ++i) {
          EXPECT_EQ(routed[r][i].src, proc_in[r][i].src);
          EXPECT_EQ(routed[r][i].dst, proc_in[r][i].dst);
          EXPECT_EQ(routed[r][i].tag, proc_in[r][i].tag);
          EXPECT_EQ(routed[r][i].segments, proc_in[r][i].segments);
          EXPECT_EQ(routed[r][i].payload, proc_in[r][i].payload);
        }
      }
      std::size_t total = 0;
      for (const auto& outbox : outboxes) total += outbox.size();
      if (total > 0) {
        EXPECT_GT(proc.wire().wire_bytes, 0u);
        EXPECT_GE(proc.wire().wire_msgs, total);
      }
    }
  }
}

/// Robustness contract: a worker killed mid-flight surfaces as a
/// ProcError naming the wire failure within the configured deadline —
/// never a hang — and the backend refuses further supersteps.
TEST(Backend, ProcBackendKilledWorkerFailsFastWithDiagnostic) {
  exec::ProcBackend backend(4, exec::ProcConfig{.timeout_ms = 2000});
  // One healthy superstep first, so the kill hits an established wire.
  std::vector<std::vector<net::Message>> outboxes(4);
  net::Message msg;
  msg.src = 0;
  msg.dst = 2;
  msg.segments = 1;
  msg.payload.assign(8, 1.0);
  outboxes[0].push_back(msg);
  (void)backend.exchange(outboxes);

  backend.kill_worker(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)backend.exchange(outboxes), exec::ProcError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Bounded by the deadline (with slack for scheduling), not a hang.
  EXPECT_LT(elapsed, 8.0);
  // The wire is down for good: later supersteps fail instantly.
  EXPECT_THROW((void)backend.exchange(outboxes), exec::ProcError);
}

/// Timed exchange supersteps on a live proc backend feed the fit.
TEST(Backend, ProcBackendCalibration) {
  const exec::Calibration fit =
      exec::calibrate_wire(2, exec::ProcConfig{}, /*rounds=*/3);
  EXPECT_GT(fit.latency, 0.0);
  EXPECT_GT(fit.inv_bandwidth, 0.0);
  EXPECT_EQ(fit.samples, 6);
  const net::CostModel cost = fit.cost_model();
  EXPECT_EQ(cost.latency, fit.latency);
  EXPECT_EQ(cost.inv_bandwidth, fit.inv_bandwidth);
}

namespace wire = net::wire;

std::vector<net::Message> wire_test_messages(unsigned seed, int count) {
  std::mt19937 rng(seed);
  std::vector<net::Message> messages;
  for (int m = 0; m < count; ++m) {
    net::Message msg;
    msg.src = 1;
    msg.dst = 2;
    msg.tag = m;
    msg.segments = 1 + m;
    // Include zero-length payloads: they are legal on the wire and are
    // the decoder's trickiest state transition.
    msg.payload.assign(m == 0 ? 0 : rng() % 64,
                       static_cast<double>(rng() % 1000));
    messages.push_back(std::move(msg));
  }
  return messages;
}

/// The zero-copy gather encoder must put byte-for-byte the same frame on
/// the wire as the staging encoder — stitching its iovec chunks together
/// reproduces encode_frame's buffer exactly (same body, same checksum).
TEST(Wire, GatherEncodeMatchesEncodeFrameByteForByte) {
  for (int count : {0, 1, 2, 5}) {
    const auto messages = wire_test_messages(17u + count, count);
    wire::Tally reported;
    reported.bytes = 12345;
    reported.msgs = 7;
    const auto flat =
        wire::encode_frame(wire::FrameKind::Inbox, 3, messages, reported);
    const auto gather = wire::encode_frame_gather(wire::FrameKind::Inbox, 3,
                                                  messages, reported);
    std::vector<std::uint8_t> stitched;
    for (const auto& iov : gather.iov) {
      const auto* base = static_cast<const std::uint8_t*>(iov.iov_base);
      stitched.insert(stitched.end(), base, base + iov.iov_len);
    }
    EXPECT_EQ(stitched, flat) << "count=" << count;
    EXPECT_EQ(gather.bytes, flat.size());
    EXPECT_EQ(gather.msgs, static_cast<std::uint64_t>(count));
  }
}

/// recv_all / recv_frame_scatter must reassemble a frame that dribbles in
/// one byte at a time (worst-case short reads on a byte stream), landing
/// every payload straight in its destination buffer and still verifying
/// the checksum. Inputs are (kind, message count); the Shutdown case is
/// the zero-message frame the controller sends a worker on teardown.
TEST(Wire, ScatterReceiveReassemblesOneByteChunks) {
  const std::pair<wire::FrameKind, int> cases[] = {
      {wire::FrameKind::Peer, 4},
      {wire::FrameKind::Shutdown, 0},
  };
  for (const auto& [kind, count] : cases) {
    SCOPED_TRACE(count);
    auto [ours, theirs] = wire::make_stream_pair();
    const auto messages = wire_test_messages(23, count);
    const auto encoded = wire::encode_frame(kind, 1, messages);

    std::thread sender([&, fd = ours.fd()] {
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        // One byte per send; sockets are non-blocking, so spin on EAGAIN.
        for (;;) {
          const ssize_t n = ::send(fd, encoded.data() + i, 1, MSG_NOSIGNAL);
          if (n == 1) break;
          ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                errno == EINTR));
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
    const wire::Frame frame =
        wire::recv_frame_scatter(theirs.fd(), 10000, "chunk test");
    sender.join();

    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.src, 1);
    EXPECT_EQ(frame.frame_bytes, encoded.size());
    ASSERT_EQ(frame.messages.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(frame.messages[i].tag, messages[i].tag);
      EXPECT_EQ(frame.messages[i].segments, messages[i].segments);
      EXPECT_EQ(frame.messages[i].payload, messages[i].payload);
    }
  }
}

/// A truncated frame (the sender stops mid-body) must surface as a
/// WireError within the deadline — never a hang.
TEST(Wire, ScatterReceiveTimesOutOnTruncatedFrame) {
  auto [ours, theirs] = wire::make_stream_pair();
  const auto messages = wire_test_messages(29, 3);
  const auto encoded =
      wire::encode_frame(wire::FrameKind::Peer, 0, messages);
  // Header plus half the body, then silence.
  const std::size_t half = wire::kHeaderBytes + (encoded.size() / 2);
  wire::send_all(ours.fd(), encoded.data(), half, 1000, "partial send");

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)wire::recv_frame_scatter(theirs.fd(), 300, "truncated test"),
      wire::WireError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 5.0) << "deadline did not bound the short read";
}

/// A corrupted body must surface as a WireError. A flipped payload bit
/// fails the checksum at the end of the body; a corrupted message count
/// or payload length is read before the checksum is known, so the
/// decoder must bound it by the bytes left instead of allocating it.
TEST(Wire, ScatterReceiveRejectsCorruptedBody) {
  const auto messages = wire_test_messages(31, 3);
  const auto clean = wire::encode_frame(wire::FrameKind::Peer, 0, messages);
  // Body layout: reported bytes (8), reported msgs (8), count (4), then
  // per message src/dst/tag/segments (4 each) and the payload length (8).
  const std::size_t count_at = wire::kHeaderBytes + 16;
  const std::size_t length_at = count_at + 4 + 16;
  const auto overwrite = [](std::vector<std::uint8_t>& frame,
                            std::size_t at, auto value) {
    std::memcpy(frame.data() + at, &value, sizeof(value));
  };
  std::vector<std::vector<std::uint8_t>> corrupted(3, clean);
  corrupted[0].back() ^= 0x40;  // flip one payload bit past the header
  overwrite(corrupted[1], count_at, std::uint32_t{0xFFFFFFFF});
  overwrite(corrupted[2], length_at, std::uint64_t{1} << 61);
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    SCOPED_TRACE(i);
    auto [ours, theirs] = wire::make_stream_pair();
    wire::send_all(ours.fd(), corrupted[i].data(), corrupted[i].size(), 1000,
                   "send");
    EXPECT_THROW(
        (void)wire::recv_frame_scatter(theirs.fd(), 1000, "corrupt test"),
        wire::WireError);
  }
}

/// The gather send path must survive a socket whose send buffer is far
/// smaller than the frame (many partial sendmsg calls) and deliver the
/// same bytes; the tally must account the whole frame exactly once.
TEST(Wire, GatherSendDrainsThroughTinySendBuffer) {
  auto [ours, theirs] = wire::make_stream_pair();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(ours.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::vector<net::Message> messages = wire_test_messages(37, 3);
  messages[1].payload.assign(1 << 16, 2.5);  // ~512 KiB payload
  const auto gather =
      wire::encode_frame_gather(wire::FrameKind::Peer, 2, messages);

  wire::Tally tally;
  std::thread sender([&, fd = ours.fd()] {
    wire::send_gather_frame(fd, gather, 10000, "tiny sndbuf", &tally);
  });
  const wire::Frame frame =
      wire::recv_frame_scatter(theirs.fd(), 10000, "tiny sndbuf recv");
  sender.join();

  EXPECT_EQ(tally.bytes, gather.bytes);
  EXPECT_EQ(tally.msgs, gather.msgs);
  ASSERT_EQ(frame.messages.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i)
    EXPECT_EQ(frame.messages[i].payload, messages[i].payload);
}

/// One full redistribution between testing::random_layout placements,
/// executed as the message path executes it (pack in rank context,
/// exchange, unpack in rank context): the proc backend's socket exchange
/// must leave the destination memories the reference router leaves on
/// seq and thread.
TEST(Backend, RandomLayoutRedistributionMatchesAcrossBackends) {
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    const Shape shape = (round % 2 == 0) ? Shape{48} : Shape{12, 10};
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const int ranks = std::max(from.ranks(), to.ranks());

    // Compile the transfers once (shared, immutable).
    redist::RedistPlanV2 plan = redist::build_runs(from, to);
    std::vector<redist::SegmentProgram> programs;
    for (const auto& transfer : plan.transfers) {
      programs.push_back(redist::compile_transfer(
          transfer, from.owned_index_runs(transfer.src),
          to.owned_index_runs(transfer.dst)));
    }

    std::vector<std::vector<double>> src_locals(
        static_cast<std::size_t>(from.ranks()));
    for (int r = 0; r < from.ranks(); ++r) {
      auto& local = src_locals[static_cast<std::size_t>(r)];
      local.assign(static_cast<std::size_t>(from.local_count(r)), 0.0);
      from.for_each_owned(r, [&](std::span<const Index> global, Index pos) {
        local[static_cast<std::size_t>(pos)] =
            static_cast<double>(shape.linearize(global) + 1);
      });
    }

    const auto route = [&](Mailboxes outboxes) {
      return testing::route_superstep(std::move(outboxes), ranks);
    };
    const auto run = [&](exec::Backend& backend, const auto& exchange) {
      std::vector<std::vector<double>> dst_locals(
          static_cast<std::size_t>(to.ranks()));
      for (int r = 0; r < to.ranks(); ++r)
        dst_locals[static_cast<std::size_t>(r)].assign(
            static_cast<std::size_t>(to.local_count(r)), 0.0);
      std::vector<std::vector<net::Message>> outboxes(
          static_cast<std::size_t>(ranks));
      backend.step([&](int r) {
        for (std::size_t t = 0; t < programs.size(); ++t) {
          if (programs[t].src != r) continue;
          net::Message msg;
          msg.src = r;
          msg.dst = programs[t].dst;
          msg.tag = static_cast<int>(t);
          msg.segments = narrow<int>(programs[t].segment_count());
          redist::pack(programs[t], src_locals[static_cast<std::size_t>(r)],
                       msg.payload);
          outboxes[static_cast<std::size_t>(r)].push_back(std::move(msg));
        }
      });
      const Mailboxes inboxes = exchange(std::move(outboxes));
      backend.step([&](int r) {
        for (const auto& msg : inboxes[static_cast<std::size_t>(r)])
          redist::unpack(programs[static_cast<std::size_t>(msg.tag)],
                         msg.payload,
                         dst_locals[static_cast<std::size_t>(r)]);
      });
      return dst_locals;
    };

    const auto seq = exec::make_backend(exec::BackendKind::Seq, ranks);
    const auto thr =
        exec::make_backend(exec::BackendKind::Thread, ranks,
                           /*threads=*/1 + static_cast<int>(rng() % 8));
    exec::ProcBackend proc(ranks, exec::ProcConfig{});
    const auto expected = run(*seq, route);
    EXPECT_EQ(expected, run(*thr, route)) << "round " << round;
    EXPECT_EQ(expected, run(proc, [&](Mailboxes outboxes) {
                return proc.exchange(std::move(outboxes));
              }))
        << "round " << round;
  }
}

/// Arrays of one fused round: per member, the layouts and the source and
/// destination storage, plus the specialized kernels of the transfer.
struct RoundArray {
  ConcreteLayout from;
  ConcreteLayout to;
  std::vector<redist::Kernel> kernels;
  runtime::RankLocals src;
  double base = 0.0;  ///< element values are base + global linear index
};

RoundArray make_round_array(std::mt19937& rng, const Shape& shape,
                            double base) {
  RoundArray a{testing::random_layout(rng, shape),
               testing::random_layout(rng, shape), {}, {}, base};
  const redist::RedistPlanV2 plan = redist::build_runs(a.from, a.to);
  for (const auto& transfer : plan.transfers) {
    a.kernels.push_back(redist::specialize(redist::compile_transfer(
        transfer, a.from.owned_index_runs(transfer.src),
        a.to.owned_index_runs(transfer.dst))));
  }
  a.src.resize(static_cast<std::size_t>(a.from.ranks()));
  for (int r = 0; r < a.from.ranks(); ++r) {
    auto& local = a.src[static_cast<std::size_t>(r)];
    local.assign(static_cast<std::size_t>(a.from.local_count(r)), 0.0);
    a.from.for_each_owned(r, [&](std::span<const Index> global, Index pos) {
      local[static_cast<std::size_t>(pos)] =
          base + static_cast<double>(shape.linearize(global));
    });
  }
  return a;
}

/// Zero-filled destination storage for every array of a round.
std::vector<runtime::RankLocals> fresh_destinations(
    const std::vector<RoundArray>& arrays) {
  std::vector<runtime::RankLocals> dst;
  for (const RoundArray& a : arrays) {
    auto& locals = dst.emplace_back(static_cast<std::size_t>(a.to.ranks()));
    for (int r = 0; r < a.to.ranks(); ++r)
      locals[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(a.to.local_count(r)), 0.0);
  }
  return dst;
}

std::vector<runtime::RoundMember> round_members(
    const std::vector<RoundArray>& arrays,
    std::vector<runtime::RankLocals>& dst) {
  std::vector<runtime::RoundMember> members;
  for (std::size_t m = 0; m < arrays.size(); ++m)
    members.push_back({arrays[m].kernels, &arrays[m].src, &dst[m]});
  return members;
}

/// What a round's superstep charges from zero NetStats when its off-rank
/// traffic is read off the routed `inboxes` instead of its table: the
/// check that the table describes the messages the round really ships.
net::NetStats charge_of_inboxes(const runtime::FusedRound& round, int ranks,
                                const Mailboxes& inboxes) {
  std::vector<net::Flow> flows;
  for (const net::Flow& flow : round.traffic())
    if (flow.src == flow.dst) flows.push_back(flow);
  for (const auto& inbox : inboxes)
    for (const net::Message& msg : inbox)
      flows.push_back({msg.src, msg.dst, msg.bytes(),
                       static_cast<std::uint64_t>(msg.segments)});
  net::NetStats stats;
  net::account_flows(stats, {1e-6, 1e-9}, ranks, flows);
  return stats;
}

/// The in-process pull step and the message path (pack -> reference
/// router -> unpack) move a fused round identically: over random layout
/// pairs (1-D, 2-D, replicated) with one to three members sharing the
/// round, both leave the same destination storage, every destination
/// element holds its source value, and the routed messages charge what
/// the round's traffic table charges, on seq and on thread with 1-8
/// workers. A pull round is one step: no exchange or unpack window.
TEST(FusedRound, PullStepMatchesMessagePath) {
  std::mt19937 rng(5);
  int replicated = 0;
  int fused_messages = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int count = 1 + trial % 3;
    std::vector<RoundArray> arrays;
    int ranks = 1;
    for (int m = 0; m < count; ++m) {
      const Shape shape = ((trial + m) % 2 == 0) ? Shape{48} : Shape{12, 10};
      arrays.push_back(make_round_array(rng, shape, 1000.0 * (m + 1)));
      ranks = std::max({ranks, arrays.back().from.ranks(),
                        arrays.back().to.ranks()});
      if (arrays.back().from.replicated() || arrays.back().to.replicated())
        ++replicated;
    }

    const auto run = [&](exec::BackendKind kind, int threads, bool pull) {
      auto dst = fresh_destinations(arrays);
      runtime::FusedRound round(ranks, round_members(arrays, dst), trial);
      const auto backend = exec::make_backend(kind, ranks, threads);
      if (pull) {
        const runtime::RoundTimes times = round.run(*backend);
        EXPECT_EQ(times.exchange_ms, 0.0);
        EXPECT_EQ(times.unpack_ms, 0.0);
      } else {
        Mailboxes inboxes =
            testing::route_superstep(round.pack(*backend), ranks);
        net::NetStats from_table;
        net::account_flows(from_table, {1e-6, 1e-9}, ranks, round.traffic());
        EXPECT_EQ(charge_of_inboxes(round, ranks, inboxes), from_table)
            << "trial " << trial;
        round.unpack(*backend, std::move(inboxes));
      }
      for (const auto& fm : round.exchange().messages)
        if (fm.frames.size() >= 2) ++fused_messages;
      return dst;
    };

    const auto expected = run(exec::BackendKind::Seq, 0, /*pull=*/false);
    for (std::size_t m = 0; m < arrays.size(); ++m) {
      const RoundArray& a = arrays[m];
      for (int r = 0; r < a.to.ranks(); ++r) {
        a.to.for_each_owned(r, [&](std::span<const Index> global, Index pos) {
          ASSERT_EQ(expected[m][static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(pos)],
                    a.base + static_cast<double>(
                                 a.from.array_shape().linearize(global)))
              << "trial " << trial << " member " << m << " rank " << r;
        });
      }
    }
    const auto seq = run(exec::BackendKind::Seq, 0, /*pull=*/true);
    EXPECT_EQ(seq, expected) << "trial " << trial;
    for (int threads = 1; threads <= 8; ++threads) {
      EXPECT_EQ(run(exec::BackendKind::Thread, threads, true), expected)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(run(exec::BackendKind::Thread, threads, false), expected)
          << "trial " << trial << " threads " << threads;
    }
  }
  EXPECT_GT(replicated, 0);
  EXPECT_GT(fused_messages, 0);
}

/// A pull step writes each destination piece while other ranks read the
/// sources, so a round whose member destination is another member's
/// source is rejected when it is built, naming the copy group.
TEST(FusedRound, RejectsDestinationAliasingAMemberSource) {
  std::mt19937 rng(3);
  std::vector<RoundArray> arrays;
  arrays.push_back(make_round_array(rng, Shape{48}, 0.0));
  arrays.push_back(make_round_array(rng, Shape{48}, 0.0));
  auto dst = fresh_destinations(arrays);
  auto members = round_members(arrays, dst);
  members[1].src = members[0].dst;
  try {
    runtime::FusedRound round(8, std::move(members), 4);
    FAIL() << "an aliased round was accepted";
  } catch (const InternalError& err) {
    EXPECT_NE(std::string(err.what()).find("copy group 4"), std::string::npos)
        << err.what();
  }
}

/// unpack checks the routed inboxes against the round's message table
/// before it touches destination storage: a dropped message, a duplicated
/// one, a tag outside the table and a payload shorter than its frames
/// each fail the round with an InternalError naming the copy group, and
/// leave every destination element as it was. The same round on a real
/// proc backend passes the check and matches the in-process pull.
TEST(FusedRound, UnpackRejectsInboxesThatDifferFromTheTable) {
  std::mt19937 rng(9);
  std::vector<RoundArray> arrays;
  int ranks = 1;
  // A round with off-rank messages: redraw the layouts until one ships.
  for (;;) {
    arrays.clear();
    arrays.push_back(make_round_array(rng, Shape{48}, 0.0));
    ranks = std::max(arrays[0].from.ranks(), arrays[0].to.ranks());
    auto dst = fresh_destinations(arrays);
    const runtime::FusedRound probe(ranks, round_members(arrays, dst), 6);
    if (probe.exchange().messages.size() >= 2) break;
  }

  struct Fault {
    const char* name;
    bool names_pair;  ///< the diagnostic names the faulted (src, dst)
    void (*apply)(std::vector<net::Message>& inbox, int table_size);
  };
  const Fault faults[] = {
      {"dropped", true,
       [](std::vector<net::Message>& inbox, int) {
         inbox.erase(inbox.begin());
       }},
      {"duplicated", false,
       [](std::vector<net::Message>& inbox, int) {
         inbox.insert(inbox.begin() + 1, inbox.front());
       }},
      {"tag out of range", true,
       [](std::vector<net::Message>& inbox, int table_size) {
         inbox.front().tag = table_size;
       }},
      {"short payload", true,
       [](std::vector<net::Message>& inbox, int) {
         inbox.front().payload.pop_back();
       }},
  };
  for (const Fault& fault : faults) {
    auto dst = fresh_destinations(arrays);
    runtime::FusedRound round(ranks, round_members(arrays, dst), 6);
    const auto backend = exec::make_backend(exec::BackendKind::Seq, ranks);
    Mailboxes inboxes = testing::route_superstep(round.pack(*backend), ranks);
    const auto before = dst;
    auto& inbox = *std::find_if(inboxes.begin(), inboxes.end(),
                                [](const auto& in) { return !in.empty(); });
    ASSERT_FALSE(inbox.front().payload.empty());
    const std::string pair = "(" + std::to_string(inbox.front().src) + ", " +
                             std::to_string(inbox.front().dst) + ")";
    fault.apply(inbox, static_cast<int>(round.exchange().messages.size()));
    try {
      round.unpack(*backend, std::move(inboxes));
      ADD_FAILURE() << "a " << fault.name << " message went unnoticed";
    } catch (const InternalError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("copy group 6"), std::string::npos)
          << fault.name << ": " << what;
      if (fault.names_pair) {
        EXPECT_NE(what.find(pair), std::string::npos)
            << fault.name << ": " << what;
      }
    }
    EXPECT_EQ(dst, before) << fault.name;
  }

  // The same round on a real proc backend passes the check and matches
  // the in-process pull.
  auto pulled = fresh_destinations(arrays);
  runtime::FusedRound pull_round(ranks, round_members(arrays, pulled), 6);
  const auto seq = exec::make_backend(exec::BackendKind::Seq, ranks);
  (void)pull_round.run(*seq);
  auto sent = fresh_destinations(arrays);
  runtime::FusedRound send_round(ranks, round_members(arrays, sent), 6);
  const auto proc = exec::make_backend(exec::BackendKind::Proc, ranks);
  (void)send_round.run(*proc);
  EXPECT_EQ(sent, pulled);
}

class BackendPrograms : public ::testing::TestWithParam<unsigned> {};

/// Whole-machine equivalence on randomized compilable programs: for every
/// optimization level, machine size, and worker count, the thread and
/// proc backends reproduce the seq backend's checksums, counters, and
/// NetStats, and all match the sequential oracle.
TEST_P(BackendPrograms, WorkerBackendsMatchSeqBackend) {
  testing::GenConfig config;
  config.seed = GetParam();
  auto accepted = testing::generate_compilable(config);
  ASSERT_TRUE(accepted.has_value()) << "no compilable program found";

  for (const OptLevel level : {OptLevel::O0, OptLevel::O2}) {
    testing::GenConfig regen = config;
    regen.seed = accepted->second;
    DiagnosticEngine diags;
    CompileOptions options;
    options.level = level;
    Compiled compiled =
        driver::compile(testing::generate(regen), options, diags);
    ASSERT_TRUE(compiled.ok) << diags.to_string();

    // ranks=0 resolves to the largest arrangement; 16 oversizes the
    // machine past every random arrangement (layouts own a prefix of it).
    for (const int ranks : {0, 16}) {
      runtime::RunOptions run_options;
      run_options.seed = 1000 + GetParam();
      run_options.ranks = ranks;
      const auto oracle = driver::run_oracle(compiled, run_options);
      EXPECT_EQ(oracle.backend, "seq");  // the oracle never threads

      run_options.backend = exec::BackendKind::Seq;
      const auto seq = driver::run(compiled, run_options);
      ASSERT_EQ(seq.signature, oracle.signature);

      for (const int threads : {0, 1, 2, 7}) {
        run_options.backend = exec::BackendKind::Thread;
        run_options.threads = threads;
        const auto thr = driver::run(compiled, run_options);
        EXPECT_EQ(thr.backend, "thread");
        EXPECT_EQ(thr.ranks, seq.ranks);
        EXPECT_EQ(thr.signature, seq.signature)
            << "threads=" << threads << " ranks=" << ranks;
        EXPECT_TRUE(thr.exported_values_ok);
        EXPECT_EQ(thr.copies_performed, seq.copies_performed);
        EXPECT_EQ(thr.elements_copied, seq.elements_copied);
        EXPECT_EQ(thr.skipped_already_mapped, seq.skipped_already_mapped);
        EXPECT_EQ(thr.skipped_live_copy, seq.skipped_live_copy);
        EXPECT_EQ(thr.peak_bytes, seq.peak_bytes);
        EXPECT_EQ(thr.net, seq.net) << "NetStats diverged at threads="
                                    << threads << " ranks=" << ranks;
      }

      run_options.backend = exec::BackendKind::Proc;
      const auto proc = driver::run(compiled, run_options);
      EXPECT_EQ(proc.backend, "proc");
      EXPECT_EQ(proc.ranks, seq.ranks);
      EXPECT_EQ(proc.signature, seq.signature) << "ranks=" << ranks;
      EXPECT_TRUE(proc.exported_values_ok);
      EXPECT_EQ(proc.net, seq.net)
          << "NetStats diverged on the proc backend at ranks=" << ranks;
      // The wire counters prove payloads physically crossed sockets
      // (whenever the program communicated at all) and stay zero for
      // the in-process backends.
      EXPECT_EQ(proc.proc_spawns, static_cast<std::uint64_t>(proc.ranks));
      if (seq.net.messages > 0) {
        EXPECT_GT(proc.wire_bytes, 0u);
      }
      EXPECT_EQ(seq.wire_bytes, 0u);
      EXPECT_EQ(seq.wire_msgs, 0u);
      EXPECT_EQ(seq.proc_spawns, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendPrograms,
                         ::testing::Range(1u, 13u, 1u));

/// A mesh that cannot fit under the open-file limit is refused up front
/// with a ProcError naming P, the descriptors needed and the limit — not
/// an abort halfway through the socketpair calls. The limit is lowered
/// in a forked child so the test process keeps its own.
TEST(Backend, ProcBackendRefusesMeshBeyondDescriptorLimit) {
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    rlimit limit{};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    limit.rlim_cur = 64;
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
    try {
      exec::ProcBackend backend(32, exec::ProcConfig{});
    } catch (const exec::ProcError& err) {
      const std::string what = err.what();
      const bool named = what.find("P=32") != std::string::npos &&
                         what.find("1056") != std::string::npos &&
                         what.find("is 64") != std::string::npos;
      ::_exit(named ? 0 : 3);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(5);  // the backend came up despite the limit
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: setrlimit failed, 3: diagnostic misses P/needed/limit, "
         "4: wrong exception type, 5: no error";
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 5.0);  // refused before any socket or fork
}

}  // namespace
}  // namespace hpfc
