// Backend equivalence: the thread-per-rank and process-per-rank engines
// must be observationally identical to the sequential BSP engine — same
// read checksums, same NetStats byte for byte — across randomized
// programs, machine sizes, worker counts, and random_layout-generated
// redistributions; the proc exchange delivers the reference router's
// deterministic (src, emission) inbox order, and a fused round's arena
// path refuses inboxes that differ from its message table. The proc
// backend additionally proves its robustness contract: a killed worker
// or a descriptor outside the payload arena surfaces as a bounded-time
// ProcError diagnostic, never a hang or a crash.
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <set>
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
#include "testing/figures.hpp"
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
  // pool sized like the thread backend's; one process per rank, forked
  // by the first backend of the process and adopted by the next.
  exec::ProcBackend::release_parked();
  auto proc = exec::make_backend(exec::BackendKind::Proc, 3);
  EXPECT_EQ(proc->kind(), exec::BackendKind::Proc);
  EXPECT_EQ(proc->ranks(), 3);
  EXPECT_GE(proc->workers(), 1);
  EXPECT_LE(proc->workers(), 3);
  EXPECT_EQ(proc->wire().proc_spawns, 3u);
  proc.reset();  // parks the mesh
  proc = exec::make_backend(exec::BackendKind::Proc, 3);
  EXPECT_EQ(proc->wire().proc_spawns, 0u);
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

/// Random messages between random ranks: the proc backend's arena
/// exchange (through the net::Message adapter) must deliver what the
/// reference router delivers, in the same order, and count the physical
/// traffic in its WireStats: every off-rank payload crosses one socket.
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
      const auto proc_in = testing::exchange_messages(proc, outboxes);

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
      std::size_t remote = 0;
      for (const auto& outbox : outboxes) {
        total += outbox.size();
        for (const auto& msg : outbox) remote += msg.src != msg.dst ? 1 : 0;
      }
      if (total > 0) {
        EXPECT_GT(proc.wire().wire_bytes, 0u);
      }
      EXPECT_EQ(proc.wire().wire_msgs, remote);
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
  (void)testing::exchange_messages(backend, outboxes);

  backend.kill_worker(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)testing::exchange_messages(backend, outboxes),
               exec::ProcError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Bounded by the deadline (with slack for scheduling), not a hang.
  EXPECT_LT(elapsed, 8.0);
  // The wire is down for good: later supersteps fail instantly.
  EXPECT_THROW((void)testing::exchange_messages(backend, outboxes),
               exec::ProcError);
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

/// Peer-frame test messages from rank 1 to rank 2, their payloads back
/// to back in `arena`.
struct WireMessages {
  std::vector<wire::Descriptor> sends;
  std::vector<double> arena;
};

WireMessages wire_test_messages(unsigned seed, int count) {
  std::mt19937 rng(seed);
  WireMessages out;
  for (int m = 0; m < count; ++m) {
    // Include a zero-length payload: it is legal on the wire and is the
    // decoder's trickiest state transition.
    const std::uint64_t elements = m == 0 ? 0 : 1 + rng() % 64;
    out.sends.push_back({1, 2, m, 1 + m, elements, out.arena.size()});
    for (std::uint64_t i = 0; i < elements; ++i)
      out.arena.push_back(static_cast<double>(rng() % 1000));
  }
  return out;
}

/// The sends as a Peer frame delivers them: source, tag and element
/// count only.
std::vector<wire::Descriptor> peer_records(
    const std::vector<wire::Descriptor>& sends) {
  std::vector<wire::Descriptor> records;
  for (const wire::Descriptor& d : sends)
    records.push_back({d.src, -1, d.tag, 0, d.elements, 0});
  return records;
}

/// Lands the payloads of `sends`, in order, at their offsets of `landed`
/// (sized like the sender's arena).
wire::Lander land_in(std::vector<double>& landed,
                     const std::vector<wire::Descriptor>& sends) {
  return [&landed, &sends, next = std::size_t{0}](
             const wire::Descriptor&) mutable {
    const wire::Descriptor& d = sends.at(next++);
    return std::span<double>(landed).subspan(d.offset, d.elements);
  };
}

/// The zero-copy gather encoder must put byte-for-byte the same frame on
/// the wire as the staging encoder — stitching its iovec chunks together
/// reproduces encode_frame's buffer exactly (same body, same checksum) —
/// for a Peer frame with payloads and for a descriptor-only Inbox frame.
TEST(Wire, GatherEncodeMatchesEncodeFrameByteForByte) {
  for (int count : {0, 1, 2, 5}) {
    const auto messages = wire_test_messages(17u + count, count);
    wire::Tally reported;
    reported.bytes = 12345;
    reported.msgs = 7;
    const std::pair<wire::FrameKind, std::uint64_t> kinds[] = {
        {wire::FrameKind::Peer, static_cast<std::uint64_t>(count)},
        {wire::FrameKind::Inbox, 0}};
    for (const auto& [kind, msgs] : kinds) {
      const bool peer = kind == wire::FrameKind::Peer;
      const std::span<const wire::Descriptor> sends =
          peer ? std::span<const wire::Descriptor>(messages.sends)
               : std::span<const wire::Descriptor>();
      const std::span<const wire::Descriptor> receives =
          peer ? std::span<const wire::Descriptor>() : messages.sends;
      const auto flat = wire::encode_frame(kind, 3, sends, receives,
                                           messages.arena.data(), reported);
      const auto gather = wire::encode_frame_gather(
          kind, 3, sends, receives, messages.arena.data(), reported);
      std::vector<std::uint8_t> stitched;
      for (const auto& iov : gather.iov) {
        const auto* base = static_cast<const std::uint8_t*>(iov.iov_base);
        stitched.insert(stitched.end(), base, base + iov.iov_len);
      }
      EXPECT_EQ(stitched, flat) << "count=" << count << " peer=" << peer;
      EXPECT_EQ(gather.bytes, flat.size());
      EXPECT_EQ(gather.msgs, msgs);
    }
  }
}

/// recv_all / recv_frame must reassemble a frame that dribbles in one
/// byte at a time (worst-case short reads on a byte stream), landing
/// every payload straight where the lander points and still verifying
/// the checksum. Inputs are (kind, message count); the Shutdown case is
/// the empty frame the controller sends a worker on teardown, and the
/// Outbox case carries descriptors both ways and no payload.
TEST(Wire, ScatterReceiveReassemblesOneByteChunks) {
  const std::pair<wire::FrameKind, int> cases[] = {
      {wire::FrameKind::Peer, 4},
      {wire::FrameKind::Outbox, 3},
      {wire::FrameKind::Shutdown, 0},
  };
  for (const auto& [kind, count] : cases) {
    SCOPED_TRACE(count);
    auto [ours, theirs] = wire::make_stream_pair();
    const auto messages = wire_test_messages(23, count);
    const auto encoded = wire::encode_frame(kind, 1, messages.sends,
                                            messages.sends,
                                            messages.arena.data());

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
    std::vector<double> landed(messages.arena.size(), -1.0);
    const wire::Frame frame = wire::recv_frame(theirs.fd(), 10000,
                                               "chunk test",
                                               land_in(landed, messages.sends));
    sender.join();

    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.src, 1);
    EXPECT_EQ(frame.frame_bytes, encoded.size());
    EXPECT_EQ(frame.receives, messages.sends);
    if (kind == wire::FrameKind::Peer) {
      EXPECT_EQ(frame.sends, peer_records(messages.sends));
      EXPECT_EQ(landed, messages.arena);
    } else {
      EXPECT_EQ(frame.sends, messages.sends);
      EXPECT_EQ(landed, std::vector<double>(messages.arena.size(), -1.0));
    }
  }
}

/// A truncated frame (the sender stops mid-body) must surface as a
/// WireError within the deadline — never a hang.
TEST(Wire, ScatterReceiveTimesOutOnTruncatedFrame) {
  auto [ours, theirs] = wire::make_stream_pair();
  const auto messages = wire_test_messages(29, 3);
  const auto encoded = wire::encode_frame(
      wire::FrameKind::Peer, 0, messages.sends, {}, messages.arena.data());
  // Header plus half the body, then silence.
  const std::size_t half = wire::kHeaderBytes + (encoded.size() / 2);
  wire::send_all(ours.fd(), encoded.data(), half, 1000, "partial send");

  std::vector<double> landed(messages.arena.size());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)wire::recv_frame(theirs.fd(), 300, "truncated test",
                                      land_in(landed, messages.sends)),
               wire::WireError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 5.0) << "deadline did not bound the short read";
}

/// A corrupted body must surface as a WireError. A flipped payload bit
/// fails the checksum at the end of the body; a corrupted descriptor
/// count or element count is read before the checksum is known, so the
/// decoder must bound it by the bytes left instead of allocating it or
/// asking the lander for it.
TEST(Wire, ScatterReceiveRejectsCorruptedBody) {
  const auto messages = wire_test_messages(31, 3);
  const auto clean = wire::encode_frame(wire::FrameKind::Peer, 0,
                                        messages.sends, {},
                                        messages.arena.data());
  // Peer body layout: send count (4), receive count (4), then per send
  // its tag (4), element count (8) and payload.
  const std::size_t count_at = wire::kHeaderBytes;
  const std::size_t elements_at = wire::kHeaderBytes + wire::kCountsBytes + 4;
  const auto overwrite = [](std::vector<std::uint8_t>& frame,
                            std::size_t at, auto value) {
    std::memcpy(frame.data() + at, &value, sizeof(value));
  };
  std::vector<std::vector<std::uint8_t>> corrupted(3, clean);
  corrupted[0].back() ^= 0x40;  // flip one bit of the last payload
  overwrite(corrupted[1], count_at, std::uint32_t{0xFFFFFFFF});
  overwrite(corrupted[2], elements_at, std::uint64_t{1} << 61);
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    SCOPED_TRACE(i);
    auto [ours, theirs] = wire::make_stream_pair();
    wire::send_all(ours.fd(), corrupted[i].data(), corrupted[i].size(), 1000,
                   "send");
    std::vector<double> landed(messages.arena.size());
    EXPECT_THROW((void)wire::recv_frame(theirs.fd(), 1000, "corrupt test",
                                        land_in(landed, messages.sends)),
                 wire::WireError);
  }
}

/// The checksum folds whole 64-bit words and then the body's sub-word
/// tail byte by byte; one flipped byte must fail it wherever it sits: at
/// each offset mod 8 of a payload, and in each byte of the tail.
TEST(Wire, ChecksumCatchesAFlippedByteAtEveryWordOffset) {
  const auto messages = wire_test_messages(41, 3);
  const auto clean = wire::encode_frame(wire::FrameKind::Peer, 0,
                                        messages.sends, {},
                                        messages.arena.data());
  const std::size_t tail = (clean.size() - wire::kHeaderBytes) % 8;
  ASSERT_NE(tail, 0u) << "the body needs a sub-word tail";
  // Message 1's payload follows the counts, message 0's record (tag and
  // element count; its payload is empty) and its own record.
  const std::size_t payload_at =
      wire::kHeaderBytes + wire::kCountsBytes + 2 * (4 + 8);
  ASSERT_GE(messages.sends[1].elements, 1u);
  std::vector<std::size_t> flips;
  for (std::size_t k = 0; k < 8; ++k) flips.push_back(payload_at + k);
  for (std::size_t k = clean.size() - tail; k < clean.size(); ++k)
    flips.push_back(k);
  for (const std::size_t at : flips) {
    SCOPED_TRACE(at);
    std::vector<std::uint8_t> corrupted = clean;
    corrupted[at] ^= 0x01;
    auto [ours, theirs] = wire::make_stream_pair();
    wire::send_all(ours.fd(), corrupted.data(), corrupted.size(), 1000,
                   "send");
    std::vector<double> landed(messages.arena.size());
    EXPECT_THROW((void)wire::recv_frame(theirs.fd(), 1000, "flip test",
                                        land_in(landed, messages.sends)),
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
  WireMessages messages = wire_test_messages(37, 3);
  // A ~512 KiB payload appended past the others.
  messages.sends[1].offset = messages.arena.size();
  messages.sends[1].elements = 1 << 16;
  messages.arena.resize(messages.arena.size() + (1 << 16), 2.5);
  const auto gather = wire::encode_frame_gather(
      wire::FrameKind::Peer, 1, messages.sends, {}, messages.arena.data());

  wire::Tally tally;
  std::thread sender([&, fd = ours.fd()] {
    wire::send_gather_frame(fd, gather, 10000, "tiny sndbuf", &tally);
  });
  std::vector<double> landed(messages.arena.size(), 0.0);
  const wire::Frame frame = wire::recv_frame(
      theirs.fd(), 10000, "tiny sndbuf recv",
      land_in(landed, messages.sends));
  sender.join();

  EXPECT_EQ(tally.bytes, gather.bytes);
  EXPECT_EQ(tally.msgs, gather.msgs);
  EXPECT_EQ(frame.sends, peer_records(messages.sends));
  for (const wire::Descriptor& d : messages.sends) {
    const auto at = static_cast<std::ptrdiff_t>(d.offset);
    const auto len = static_cast<std::ptrdiff_t>(d.elements);
    EXPECT_TRUE(std::equal(landed.begin() + at, landed.begin() + at + len,
                           messages.arena.begin() + at));
  }
}

/// One full redistribution between testing::random_layout placements,
/// executed message by message (pack in rank context, exchange, unpack
/// in rank context): the proc backend's arena exchange, through the
/// net::Message adapter, must leave the destination memories the
/// reference router leaves on seq and thread.
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

    runtime::RankLocals src_locals(static_cast<std::size_t>(from.ranks()));
    for (int r = 0; r < from.ranks(); ++r) {
      auto& local = src_locals[static_cast<std::size_t>(r)];
      local.assign(static_cast<std::size_t>(from.local_count(r)), 0.0);
      testing::for_each_owned(
          from, r, [&](std::span<const Index> global, Index pos) {
            local[static_cast<std::size_t>(pos)] =
                static_cast<double>(shape.linearize(global) + 1);
          });
    }

    const auto route = [&](Mailboxes outboxes) {
      return testing::route_superstep(std::move(outboxes), ranks);
    };
    const auto run = [&](exec::Backend& backend, const auto& exchange) {
      runtime::RankLocals dst_locals(static_cast<std::size_t>(to.ranks()));
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
          testing::pack(programs[t], src_locals[static_cast<std::size_t>(r)],
                       msg.payload);
          outboxes[static_cast<std::size_t>(r)].push_back(std::move(msg));
        }
      });
      const Mailboxes inboxes = exchange(std::move(outboxes));
      backend.step([&](int r) {
        for (const auto& msg : inboxes[static_cast<std::size_t>(r)])
          testing::unpack(programs[static_cast<std::size_t>(msg.tag)],
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
    EXPECT_EQ(expected, run(proc, [&](const Mailboxes& outboxes) {
                return testing::exchange_messages(proc, outboxes);
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

RoundArray round_array(ConcreteLayout from, ConcreteLayout to, double base) {
  RoundArray a{std::move(from), std::move(to), {}, {}, base};
  const Shape& shape = a.from.array_shape();
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
    testing::for_each_owned(
        a.from, r, [&](std::span<const Index> global, Index pos) {
          local[static_cast<std::size_t>(pos)] =
              base + static_cast<double>(shape.linearize(global));
        });
  }
  return a;
}

RoundArray make_round_array(std::mt19937& rng, const Shape& shape,
                            double base) {
  ConcreteLayout from = testing::random_layout(rng, shape);
  ConcreteLayout to = testing::random_layout(rng, shape);
  return round_array(std::move(from), std::move(to), base);
}

/// Every destination element of `dst` holds its source value: the
/// array's base plus its global linear index.
void expect_delivered(const std::vector<RoundArray>& arrays,
                      const std::vector<runtime::RankLocals>& dst,
                      const std::string& where) {
  for (std::size_t m = 0; m < arrays.size(); ++m) {
    const RoundArray& a = arrays[m];
    for (int r = 0; r < a.to.ranks(); ++r) {
      testing::for_each_owned(
          a.to, r, [&](std::span<const Index> global, Index pos) {
            const auto& local = dst[m][static_cast<std::size_t>(r)];
            ASSERT_EQ(local[static_cast<std::size_t>(pos)],
                      a.base + static_cast<double>(
                                   a.from.array_shape().linearize(global)))
                << where << " member " << m << " rank " << r;
          });
    }
  }
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
                                const exec::Inboxes& inboxes) {
  std::vector<net::Flow> flows;
  for (const net::Flow& flow : round.traffic())
    if (flow.src == flow.dst) flows.push_back(flow);
  for (const auto& inbox : inboxes)
    for (const wire::Descriptor& d : inbox)
      flows.push_back({d.src, d.dst, d.elements * sizeof(double),
                       static_cast<std::uint64_t>(d.segments)});
  net::NetStats stats;
  net::account_flows(stats, {1e-6, 1e-9}, ranks, flows);
  return stats;
}

/// The in-process pull step and the arena path (pack into the out-slots
/// -> reference slot router -> unpack from the in-slots) move a fused
/// round identically: over random layout
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
        std::vector<double> arena(round.arena_elements());
        round.pack(*backend, arena);
        const exec::Inboxes inboxes =
            testing::route_slots(round.slots(), ranks, arena);
        net::NetStats from_table;
        net::account_flows(from_table, {1e-6, 1e-9}, ranks, round.traffic());
        EXPECT_EQ(charge_of_inboxes(round, ranks, inboxes), from_table)
            << "trial " << trial;
        round.unpack(*backend, inboxes, arena);
      }
      for (const auto& fm : round.exchange().messages)
        if (fm.frames.size() >= 2) ++fused_messages;
      return dst;
    };

    const auto expected = run(exec::BackendKind::Seq, 0, /*pull=*/false);
    expect_delivered(arrays, expected, "trial " + std::to_string(trial));
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

/// The seq step engine, claiming `workers` workers, counting its steps.
class CountingBackend final : public exec::Backend {
 public:
  CountingBackend(int ranks, int workers) : Backend(ranks), workers_(workers) {}
  [[nodiscard]] exec::BackendKind kind() const override {
    return exec::BackendKind::Seq;
  }
  [[nodiscard]] int workers() const override { return workers_; }
  void step(const exec::RankFn& fn) override {
    ++steps;
    for (int r = 0; r < ranks_; ++r) fn(r);
  }
  int steps = 0;

 private:
  int workers_;
};

ConcreteLayout line(Index n, Index ranks, mapping::DistFormat format) {
  mapping::DimOwner owner;
  owner.source = mapping::AlignTarget::axis(0);
  owner.template_extent = n;
  owner.format = format;
  owner.format.param = format.resolved_param(n, ranks);
  return ConcreteLayout::make(Shape{n}, Shape{ranks}, {owner});
}

/// A round large enough to tile — block <-> cyclic on 8 ranks at n = 2^16
/// (512 KiB) fused with a cyclic(2) -> cyclic(3) member (32 KiB), so
/// tiles() is 5 at kTileBytes and 17 at kStencilTileBytes — leaves the
/// same storage pulled in its tiles, in one tile and in uneven tile
/// counts, as the arena path through the reference slot router does, on
/// seq and on thread with 4 workers, in both directions. run() moves the
/// round in one step on any in-process backend: the per-pair pull
/// without a stencil (block -> cyclic), the stencil with one
/// (cyclic -> block).
TEST(FusedRound, TiledPullMatchesOneStepAndTheArenaPath) {
  using mapping::DistFormat;
  constexpr Index kN = Index{1} << 16;
  constexpr int kRanks = 8;
  const ConcreteLayout block = line(kN, kRanks, DistFormat::block());
  const ConcreteLayout cyclic = line(kN, kRanks, DistFormat::cyclic());
  for (const bool to_cyclic : {true, false}) {
    SCOPED_TRACE(to_cyclic ? "block -> cyclic" : "cyclic -> block");
    std::vector<RoundArray> arrays;
    arrays.push_back(to_cyclic ? round_array(block, cyclic, 0.0)
                               : round_array(cyclic, block, 0.0));
    arrays.push_back(round_array(line(4096, kRanks, DistFormat::cyclic(2)),
                                 line(4096, kRanks, DistFormat::cyclic(3)),
                                 1e6));
    const auto move = [&](const auto& how) {
      auto dst = fresh_destinations(arrays);
      runtime::FusedRound round(kRanks, round_members(arrays, dst), 0);
      EXPECT_EQ(round.tiles(), to_cyclic ? 5 : 17);
      EXPECT_EQ(round.has_stencil(), !to_cyclic);
      how(round);
      return dst;
    };

    const auto expected = move([](const runtime::FusedRound& round) {
      const auto backend = exec::make_backend(exec::BackendKind::Seq, kRanks);
      std::vector<double> arena(round.arena_elements());
      round.pack(*backend, arena);
      round.unpack(*backend, testing::route_slots(round.slots(), kRanks, arena),
                   arena);
    });
    expect_delivered(arrays, expected, "arena path");
    for (const exec::BackendKind kind :
         {exec::BackendKind::Seq, exec::BackendKind::Thread}) {
      const auto backend = exec::make_backend(kind, kRanks, 4);
      SCOPED_TRACE(backend->name());
      EXPECT_EQ(move([&](runtime::FusedRound& round) { round.run(*backend); }),
                expected);
      for (const int tiles : {1, 5, 7, 97}) {
        EXPECT_EQ(move([&](const runtime::FusedRound& round) {
                    round.pull(*backend, tiles);
                  }),
                  expected)
            << tiles << " tiles";
      }
    }
    for (const int workers : {1, 4}) {
      CountingBackend counting(kRanks, workers);
      EXPECT_EQ(
          move([&](runtime::FusedRound& round) { round.run(counting); }),
          expected);
      EXPECT_EQ(counting.steps, 1) << workers << " workers";
    }
  }
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

/// The count argument behind a skipped fill (FusedRound::covers): over
/// random layout pairs (block, cyclic(k), 2-D, replicated; P <= 8), a
/// full-box copy's kernels write every position of every destination
/// piece exactly once, checked against a per-position hit map, and its
/// member covers; the same copy restricted to a live region that leaves
/// an element out does not.
TEST(FusedRound, FullCopiesCoverTheirDestinationExactlyOnce) {
  std::mt19937 rng(11);
  int replicated = 0;
  int two_d = 0;  // 2-D processor grids
  for (int trial = 0; trial < 60; ++trial) {
    const Shape shape = (trial % 2 == 0) ? Shape{48} : Shape{12, 10};
    std::vector<RoundArray> arrays;
    arrays.push_back(make_round_array(rng, shape, 0.0));
    const RoundArray& a = arrays[0];
    const int ranks = std::max(a.from.ranks(), a.to.ranks());
    if (a.from.replicated() || a.to.replicated()) ++replicated;
    if (a.from.proc_shape().rank() > 1 || a.to.proc_shape().rank() > 1)
      ++two_d;

    std::vector<std::vector<int>> hits(static_cast<std::size_t>(a.to.ranks()));
    for (int r = 0; r < a.to.ranks(); ++r)
      hits[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(a.to.local_count(r)), 0);
    for (const redist::Kernel& k : a.kernels) {
      auto& rank_hits = hits[static_cast<std::size_t>(k.program().dst)];
      k.program().for_each_segment([&](const redist::CopySegment& s) {
        for (Index e = 0; e < s.len; ++e)
          ++rank_hits.at(static_cast<std::size_t>(s.dst_base +
                                                  e * s.dst_stride));
      });
    }
    for (std::size_t r = 0; r < hits.size(); ++r)
      for (std::size_t p = 0; p < hits[r].size(); ++p)
        ASSERT_EQ(hits[r][p], 1)
            << "trial " << trial << " rank " << r << " position " << p;
    auto dst = fresh_destinations(arrays);
    EXPECT_TRUE(
        runtime::FusedRound(ranks, round_members(arrays, dst), 0).covers(0))
        << "trial " << trial;

    // A live region one element short of the shape in a random dimension.
    ir::Region region;
    for (int d = 0; d < shape.rank(); ++d)
      region.push_back({0, shape.extent(d)});
    const auto cut = static_cast<std::size_t>(rng() % region.size());
    if (rng() % 2 == 0)
      ++region[cut].first;
    else
      --region[cut].second;
    std::vector<redist::Kernel> restricted;
    for (redist::TransferV2 t : redist::build_runs(a.from, a.to).transfers) {
      if (!t.restrict_to(region)) continue;
      restricted.push_back(redist::specialize(redist::compile_transfer(
          t, a.from.owned_index_runs(t.src), a.to.owned_index_runs(t.dst))));
    }
    std::vector<runtime::RoundMember> members{{restricted, &a.src, &dst[0]}};
    EXPECT_FALSE(runtime::FusedRound(ranks, std::move(members), 1).covers(0))
        << "trial " << trial;
  }
  EXPECT_GT(replicated, 0);
  EXPECT_GT(two_d, 0);
}

/// A random round over one 48-element array that ships at least two
/// off-rank messages; `ranks` receives its machine size.
std::vector<RoundArray> shipping_round(std::mt19937& rng, int& ranks) {
  for (;;) {
    std::vector<RoundArray> arrays;
    arrays.push_back(make_round_array(rng, Shape{48}, 0.0));
    ranks = std::max(arrays[0].from.ranks(), arrays[0].to.ranks());
    auto dst = fresh_destinations(arrays);
    const runtime::FusedRound probe(ranks, round_members(arrays, dst), 6);
    if (probe.exchange().messages.size() >= 2) return arrays;
  }
}

/// unpack checks the exchanged inboxes against the round's message table
/// before it touches destination storage. Faults injected into the
/// descriptor inboxes of a real proc exchange — a dropped message, a
/// duplicated one, a tag outside the table, a short element count and an
/// in-slot outside the round's region — each fail the round with an
/// InternalError naming the copy group, and leave every destination
/// element as it was. The same round run whole on proc passes the check
/// and matches the in-process pull.
TEST(FusedRound, UnpackRejectsInboxesThatDifferFromTheTable) {
  std::mt19937 rng(9);
  int ranks = 1;
  const std::vector<RoundArray> arrays = shipping_round(rng, ranks);

  using Inbox = std::vector<wire::Descriptor>;
  struct Fault {
    const char* name;
    bool names_pair;  ///< the diagnostic names the faulted (src, dst)
    void (*apply)(Inbox& inbox, int table_size, std::uint64_t region);
  };
  const Fault faults[] = {
      {"dropped", true,
       [](Inbox& inbox, int, std::uint64_t) { inbox.erase(inbox.begin()); }},
      {"duplicated", false,
       [](Inbox& inbox, int, std::uint64_t) {
         inbox.insert(inbox.begin() + 1, inbox.front());
       }},
      {"tag out of range", true,
       [](Inbox& inbox, int table_size, std::uint64_t) {
         inbox.front().tag = table_size;
       }},
      {"short elements", true,
       [](Inbox& inbox, int, std::uint64_t) { --inbox.front().elements; }},
      {"in-slot outside the region", true,
       [](Inbox& inbox, int, std::uint64_t region) {
         inbox.front().offset = region;
       }},
  };
  exec::ProcBackend proc(ranks, exec::ProcConfig{});
  for (const Fault& fault : faults) {
    auto dst = fresh_destinations(arrays);
    runtime::FusedRound round(ranks, round_members(arrays, dst), 6);
    const std::span<double> arena = proc.arena(round.arena_elements());
    round.pack(proc, arena);
    exec::Inboxes inboxes = proc.exchange(round.slots());
    const auto before = dst;
    auto& inbox = *std::find_if(inboxes.begin(), inboxes.end(),
                                [](const auto& in) { return !in.empty(); });
    ASSERT_GT(inbox.front().elements, 0u);
    const std::string pair = "(" + std::to_string(inbox.front().src) + ", " +
                             std::to_string(inbox.front().dst) + ")";
    fault.apply(inbox, static_cast<int>(round.exchange().messages.size()),
                round.arena_elements());
    try {
      round.unpack(proc, inboxes, arena);
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
  (void)send_round.run(proc);
  EXPECT_EQ(sent, pulled);
}

/// The payload arena grows between rounds on one backend: a small round,
/// then one with at least four times its elements (the workers remap the
/// grown memfd), then the small one again, each leaving what the seq pull
/// leaves.
TEST(ProcArena, GrowsBetweenRoundsOnOneBackend) {
  std::mt19937 rng(21);
  int ranks = 1;
  std::vector<RoundArray> small;
  std::vector<RoundArray> large;
  std::size_t small_elements = 0;
  std::size_t large_elements = 0;
  do {
    small = shipping_round(rng, ranks);
    large.clear();
    large.push_back(make_round_array(rng, Shape{40, 32}, 500.0));
    ranks = std::max({ranks, large[0].from.ranks(), large[0].to.ranks()});
    auto a = fresh_destinations(small);
    auto b = fresh_destinations(large);
    small_elements =
        runtime::FusedRound(ranks, round_members(small, a), 1).arena_elements();
    large_elements =
        runtime::FusedRound(ranks, round_members(large, b), 2).arena_elements();
  } while (large_elements < 4 * small_elements);

  const auto seq = exec::make_backend(exec::BackendKind::Seq, ranks);
  // A fresh mesh, so the arena starts empty: an adopted one may already
  // hold the large round.
  exec::ProcBackend::release_parked();
  exec::ProcBackend proc(ranks, exec::ProcConfig{});
  const auto matches_pull = [&](const std::vector<RoundArray>& arrays) {
    auto pulled = fresh_destinations(arrays);
    runtime::FusedRound pull(ranks, round_members(arrays, pulled), 3);
    (void)pull.run(*seq);
    auto sent = fresh_destinations(arrays);
    runtime::FusedRound round(ranks, round_members(arrays, sent), 3);
    (void)round.run(proc);
    return sent == pulled;
  };
  EXPECT_TRUE(matches_pull(small));
  const std::size_t before = proc.arena(0).size();
  EXPECT_TRUE(matches_pull(large));
  EXPECT_GE(proc.arena(0).size(), large_elements);
  EXPECT_GT(proc.arena(0).size(), before);
  EXPECT_TRUE(matches_pull(small));
}

/// A descriptor that ends past the payload arena is rejected by the
/// worker that holds it, before it touches arena memory: the exchange
/// fails with a ProcError naming that rank within the socket deadline,
/// whether the bad window is a sender's out-slot or a receiver's in-slot,
/// and the controller lives on to refuse later supersteps.
TEST(ProcArena, DescriptorPastTheArenaFailsWithDiagnostic) {
  constexpr int kTimeoutMs = 2000;
  struct Case {
    bool bad_out_slot;  ///< else the in-slot is past the arena
    int named;          ///< the rank whose worker rejects it
  };
  for (const Case c : {Case{true, 1}, Case{false, 3}}) {
    SCOPED_TRACE(c.named);
    exec::ProcBackend backend(4, exec::ProcConfig{.timeout_ms = kTimeoutMs});
    const std::size_t size = backend.arena(64).size();
    std::vector<exec::ArenaMessage> table = {{0, 2, 0, 1, 8, 0, 32},
                                             {1, 3, 1, 1, 8, 8, 40}};
    (void)backend.exchange(table);  // a healthy superstep first
    if (c.bad_out_slot) {
      table[1].out_offset = size - 4;
    } else {
      table[1].in_offset = size;
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)backend.exchange(table);
      ADD_FAILURE() << "a descriptor past the arena went unnoticed";
    } catch (const exec::ProcError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("rank " + std::to_string(c.named) + ":"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("payload arena"), std::string::npos) << what;
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(elapsed, kTimeoutMs / 1000.0);
    EXPECT_THROW((void)backend.exchange(table), exec::ProcError);
  }
}

/// A round's wire traffic is its frames and nothing else: one Outbox
/// frame per rank carrying a descriptor per message sent or received,
/// one Peer frame per ordered rank pair with messages carrying a
/// descriptor and the payload per message, and one Inbox frame per rank
/// carrying a descriptor per message received. Only the Peer frames
/// carry payload, so wire_msgs counts each off-rank message once.
TEST(ProcArena, WireBytesAreTheRoundsFrameBytes) {
  std::mt19937 rng(13);
  int ranks = 1;
  const std::vector<RoundArray> arrays = shipping_round(rng, ranks);
  auto dst = fresh_destinations(arrays);
  runtime::FusedRound round(ranks, round_members(arrays, dst), 0);
  exec::ProcBackend proc(ranks, exec::ProcConfig{});
  (void)round.run(proc);

  const auto p = static_cast<std::uint64_t>(ranks);
  const std::uint64_t messages = round.slots().size();
  const std::uint64_t frame = wire::kHeaderBytes + wire::kCountsBytes;
  const std::uint64_t outboxes =
      p * frame + 2 * messages * wire::kDescriptorBytes;
  std::set<std::pair<int, int>> pairs;
  for (const exec::ArenaMessage& m : round.slots())
    pairs.emplace(m.src, m.dst);
  const std::uint64_t peers = pairs.size() * frame +
                              messages * wire::kPeerRecordBytes +
                              round.remote_elements() * sizeof(double);
  const std::uint64_t inboxes = p * (frame + wire::kTallyBytes) +
                                messages * wire::kDescriptorBytes;
  EXPECT_EQ(proc.wire().wire_bytes, outboxes + peers + inboxes);
  EXPECT_EQ(proc.wire().wire_msgs, messages);
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

      // The first proc run forks its workers; the second adopts them and
      // must compute exactly the same.
      run_options.backend = exec::BackendKind::Proc;
      exec::ProcBackend::release_parked();
      const auto proc = driver::run(compiled, run_options);
      const auto adopted = driver::run(compiled, run_options);
      EXPECT_EQ(proc.backend, "proc");
      EXPECT_EQ(proc.ranks, seq.ranks);
      EXPECT_EQ(proc.signature, seq.signature) << "ranks=" << ranks;
      EXPECT_EQ(adopted.signature, seq.signature) << "ranks=" << ranks;
      EXPECT_TRUE(proc.exported_values_ok);
      EXPECT_TRUE(adopted.exported_values_ok);
      EXPECT_EQ(proc.net, seq.net)
          << "NetStats diverged on the proc backend at ranks=" << ranks;
      EXPECT_EQ(adopted.net, seq.net)
          << "NetStats diverged on the adopted mesh at ranks=" << ranks;
      // The wire counters prove payloads physically crossed sockets
      // (whenever the program communicated at all) and stay zero for
      // the in-process backends.
      EXPECT_EQ(proc.proc_spawns, static_cast<std::uint64_t>(proc.ranks));
      EXPECT_EQ(adopted.proc_spawns, 0u);
      EXPECT_EQ(adopted.wire_bytes, proc.wire_bytes);
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
/// with a ProcError naming P, the descriptors needed (P(P+1) sockets and
/// the payload arena) and the limit — not an abort halfway through the
/// socketpair calls. The limit is lowered
/// in a forked child so the test process keeps its own.
TEST(Backend, ProcBackendRefusesMeshBeyondDescriptorLimit) {
  // The child inherits this process's parked mesh, which it must neither
  // adopt nor count against the check.
  {
    exec::ProcBackend parked(2, exec::ProcConfig{});
  }
  const auto start = std::chrono::steady_clock::now();
  std::fflush(nullptr);
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
                         what.find("1057") != std::string::npos &&
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

// ---- worker mesh lifetime --------------------------------------------

/// One message from every rank to every rank: whether `proc` delivers
/// exactly what the reference router delivers.
bool exchanges_like_the_router(exec::ProcBackend& proc) {
  const int ranks = proc.ranks();
  Mailboxes outboxes(static_cast<std::size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    for (int dst = 0; dst < ranks; ++dst) {
      net::Message msg;
      msg.src = src;
      msg.dst = dst;
      msg.tag = dst;
      msg.segments = 1;
      msg.payload.assign(static_cast<std::size_t>(4 + dst), 10.0 * src + dst);
      outboxes[static_cast<std::size_t>(src)].push_back(std::move(msg));
    }
  }
  const Mailboxes routed = testing::route_superstep(outboxes, ranks);
  const Mailboxes got = testing::exchange_messages(proc, outboxes);
  if (got.size() != routed.size()) return false;
  for (std::size_t r = 0; r < routed.size(); ++r) {
    if (got[r].size() != routed[r].size()) return false;
    for (std::size_t i = 0; i < routed[r].size(); ++i) {
      if (got[r][i].src != routed[r][i].src ||
          got[r][i].tag != routed[r][i].tag ||
          got[r][i].payload != routed[r][i].payload)
        return false;
    }
  }
  return true;
}

std::vector<pid_t> worker_pids(const exec::ProcBackend& proc) {
  std::vector<pid_t> pids;
  for (int r = 0; r < proc.ranks(); ++r) pids.push_back(proc.worker_pid(r));
  return pids;
}

/// The process is gone and reaped (no zombie left either).
bool reaped(pid_t pid) { return ::kill(pid, 0) != 0 && errno == ESRCH; }

Compiled compile_adi() {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O2;
  Compiled compiled = driver::compile(testing::fig10(64, 4, 3), options, diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

/// A second backend with the same P and timeout adopts the parked mesh:
/// it forks nothing and talks to the same workers, and a whole program
/// run on the adopted mesh computes what seq computes, with identical
/// NetStats.
TEST(ProcMesh, SecondBackendAdoptsTheParkedMesh) {
  exec::ProcBackend::release_parked();
  std::vector<pid_t> pids;
  {
    exec::ProcBackend first(4, exec::ProcConfig{});
    EXPECT_EQ(first.wire().proc_spawns, 4u);
    EXPECT_TRUE(exchanges_like_the_router(first));
    pids = worker_pids(first);
  }
  {
    exec::ProcBackend second(4, exec::ProcConfig{});
    EXPECT_EQ(second.wire().proc_spawns, 0u);
    EXPECT_EQ(worker_pids(second), pids);
    EXPECT_TRUE(exchanges_like_the_router(second));
  }

  const Compiled compiled = compile_adi();
  runtime::RunOptions options;
  options.seed = 5;
  const auto seq = driver::run(compiled, options);
  options.backend = exec::BackendKind::Proc;
  const auto proc = driver::run(compiled, options);
  ASSERT_EQ(proc.ranks, 4);
  EXPECT_EQ(proc.proc_spawns, 0u);
  EXPECT_EQ(proc.signature, seq.signature);
  EXPECT_TRUE(proc.exported_values_ok);
  EXPECT_EQ(proc.net, seq.net);
  EXPECT_GT(proc.wire_msgs, 0u);
}

/// A worker that dies while its mesh is parked fails the next backend's
/// liveness check: that backend reaps the rest of the old mesh, forks a
/// fresh one, and its exchanges succeed.
TEST(ProcMesh, WorkerKilledWhileParkedForcesAFreshMesh) {
  exec::ProcBackend::release_parked();
  std::vector<pid_t> old;
  {
    exec::ProcBackend first(4, exec::ProcConfig{});
    old = worker_pids(first);
  }
  ASSERT_EQ(::kill(old[1], SIGKILL), 0);
  // Wait for the death without reaping it: the liveness check must find
  // the exited worker itself.
  siginfo_t info{};
  const auto victim = static_cast<id_t>(old[1]);
  ASSERT_EQ(::waitid(P_PID, victim, &info, WEXITED | WNOWAIT), 0);

  exec::ProcBackend second(4, exec::ProcConfig{});
  EXPECT_EQ(second.wire().proc_spawns, 4u);
  for (const pid_t pid : old) EXPECT_TRUE(reaped(pid)) << pid;
  EXPECT_TRUE(exchanges_like_the_router(second));
}

/// A backend whose exchange failed (here through kill_worker) shuts its
/// mesh down instead of parking it: the next backend forks afresh.
TEST(ProcMesh, FailedRunIsNeverParked) {
  exec::ProcBackend::release_parked();
  const exec::ProcConfig config{.timeout_ms = 2000};
  std::vector<pid_t> old;
  {
    exec::ProcBackend failed(4, config);
    EXPECT_TRUE(exchanges_like_the_router(failed));
    old = worker_pids(failed);
    failed.kill_worker(2);
    EXPECT_THROW((void)exchanges_like_the_router(failed), exec::ProcError);
  }
  for (const pid_t pid : old) EXPECT_TRUE(reaped(pid)) << pid;

  exec::ProcBackend next(4, config);
  EXPECT_EQ(next.wire().proc_spawns, 4u);
  EXPECT_TRUE(exchanges_like_the_router(next));
}

/// A backend with another P, or another timeout, replaces the parked
/// mesh: the old workers are reaped before the new ones are forked.
TEST(ProcMesh, DifferentRanksOrTimeoutReplaceTheParkedMesh) {
  exec::ProcBackend::release_parked();
  std::vector<pid_t> old;
  {
    exec::ProcBackend three(3, exec::ProcConfig{});
    old = worker_pids(three);
  }
  {
    exec::ProcBackend two(2, exec::ProcConfig{});
    EXPECT_EQ(two.wire().proc_spawns, 2u);
    for (const pid_t pid : old) EXPECT_TRUE(reaped(pid)) << pid;
    EXPECT_TRUE(exchanges_like_the_router(two));
    old = worker_pids(two);
  }
  exec::ProcBackend slower(2, exec::ProcConfig{.timeout_ms = 5000});
  EXPECT_EQ(slower.wire().proc_spawns, 2u);
  for (const pid_t pid : old) EXPECT_TRUE(reaped(pid)) << pid;
  EXPECT_TRUE(exchanges_like_the_router(slower));
}

/// No worker outlives its process. A forked child runs a proc Machine,
/// which parks its mesh, and leaves through exit(0). The child must fork
/// its own workers rather than adopt the parent's parked mesh, and reap
/// them on the way out. Every process the child forks inherits the write
/// end of a pipe, so the read end reaches EOF only once the child and all
/// of its workers are gone. The parent's parked mesh survives untouched.
TEST(ProcMesh, ForkedChildLeavesNoWorkerBehind) {
  exec::ProcBackend::release_parked();
  std::vector<pid_t> parked;
  {
    exec::ProcBackend mine(4, exec::ProcConfig{});
    parked = worker_pids(mine);
  }
  const Compiled compiled = compile_adi();
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0) << std::strerror(errno);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      runtime::RunOptions options;
      const auto seq = driver::run(compiled, options);
      options.backend = exec::BackendKind::Proc;
      const auto proc = driver::run(compiled, options);
      if (proc.proc_spawns != 4) code = 3;
      if (proc.signature != seq.signature) code = 4;
    } catch (...) {
      code = 5;
    }
    std::exit(code);  // static destructors reap the parked mesh
  }
  ::close(fds[1]);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool eof = false;
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char byte = 0;
    eof = ::read(fds[0], &byte, 1) == 0;
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(eof) << "a worker outlived the child that forked it";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "3: the child adopted its parent's mesh, 4: signature mismatch, "
         "5: the run threw";

  exec::ProcBackend again(4, exec::ProcConfig{});
  EXPECT_EQ(again.wire().proc_spawns, 0u);
  EXPECT_EQ(worker_pids(again), parked);
  EXPECT_TRUE(exchanges_like_the_router(again));
}

}  // namespace
}  // namespace hpfc
