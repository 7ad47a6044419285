// ProcBackend: process-per-rank execution with a real socket mesh.
//
// Topology (all pairs created before any fork, so no connect/accept
// races):
//   - one control channel per rank: controller <-> worker r
//   - one mesh channel per unordered rank pair {a, b}: worker a <-> b
//
// One exchange() superstep:
//   1. controller frames outboxes[r] and sends an Outbox frame to every
//      worker in rank order (each worker drains its frame completely
//      before touching the mesh, so these sends cannot deadlock);
//   2. each worker splits its outbox by destination and runs a
//      poll-driven, non-blocking send/receive state machine across all
//      P-1 peers (an empty Peer frame still flows to every peer, so
//      receivers know when a source is done);
//   3. each worker assembles its inbox in (src ascending, emission) order
//      — exactly the reference router's order — and returns it to the
//      controller as an Inbox frame carrying its mesh-traffic tally;
//   4. the controller validates conservation and accumulates WireStats.
//      It charges no NetStats: the runtime charges the round's traffic
//      table and checks the inboxes against it.
//
// Failure model: any socket error or deadline overrun in a worker makes
// it _exit(1); the controller then sees EOF (or its own deadline) on the
// next control-channel operation and raises ProcError naming the rank.
// The destructor always reaps: Shutdown frames first (skipped once the
// wire broke), then a bounded waitpid loop, then SIGKILL for stragglers.
#include "exec/proc_backend.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>

#include "net/network.hpp"
#include "support/check.hpp"

namespace hpfc::exec {

namespace wire = net::wire;

namespace {

using Clock = std::chrono::steady_clock;

/// Per-peer progress for the worker mesh phase: a gather-encoded outgoing
/// frame (payload iovecs point into the per-destination message groups —
/// no staging copy) draining at a GatherCursor, and an incoming frame
/// arriving header-first, its body scatter-decoded straight into the
/// destination Message payloads.
struct PeerIO {
  int fd = -1;
  int peer = -1;
  std::string label;  ///< "mesh exchange with rank N" (error context)
  wire::GatherFrame out;
  wire::GatherCursor out_cursor;
  bool sent = false;

  std::uint8_t header[wire::kHeaderBytes] = {};
  std::size_t header_pos = 0;
  bool body_started = false;
  wire::BodyScatterDecoder body;
  bool received = false;

  [[nodiscard]] bool send_done() const { return sent; }
};

[[noreturn]] void mesh_fail(int peer, const std::string& why) {
  throw wire::WireError("mesh exchange with rank " + std::to_string(peer) +
                        ": " + why);
}

/// Drives one peer's non-blocking gather send forward until EAGAIN or
/// done (the frame's payload bytes leave straight from the message
/// buffers — sendmsg, no staging copy).
void pump_send(PeerIO& io, wire::Tally& tally) {
  if (io.sent) return;
  if (!wire::pump_gather_send(io.fd, io.out, io.out_cursor, io.label)) return;
  io.sent = true;
  tally.bytes += io.out.bytes;
  tally.msgs += io.out.msgs;
}

/// Drives one peer's non-blocking receive forward until EAGAIN or a
/// complete, checksum-verified frame (payload bytes land straight in
/// their destination Message buffers via the scatter decoder).
void pump_recv(PeerIO& io) {
  while (!io.received) {
    if (!io.body_started) {
      const ssize_t n = ::recv(io.fd, io.header + io.header_pos,
                               wire::kHeaderBytes - io.header_pos, 0);
      if (n > 0) {
        io.header_pos += static_cast<std::size_t>(n);
        if (io.header_pos == wire::kHeaderBytes) {
          wire::FrameKind kind = wire::FrameKind::Shutdown;
          int src = -1;
          std::uint64_t body_bytes = 0;
          std::uint64_t expected = 0;
          wire::decode_header(
              std::span<const std::uint8_t>(io.header, wire::kHeaderBytes),
              kind, src, body_bytes, expected);
          io.body.reset(kind, src, body_bytes, expected);
          io.body_started = true;
        }
        continue;
      }
      if (n == 0) mesh_fail(io.peer, "peer died mid-superstep");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      mesh_fail(io.peer, std::strerror(errno));
    } else {
      if (io.body.done()) {
        if (!io.body.checksum_ok())
          mesh_fail(io.peer, "frame checksum mismatch");
        io.received = true;
        return;
      }
      const auto window = io.body.window();
      const ssize_t n = ::recv(io.fd, window.data(), window.size(), 0);
      if (n > 0) {
        io.body.advance(static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) mesh_fail(io.peer, "peer died mid-superstep");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      mesh_fail(io.peer, std::strerror(errno));
    }
  }
}

/// The worker-side all-to-all: ships this rank's per-destination message
/// groups to every peer while concurrently receiving theirs, then
/// assembles the inbox in (src ascending, emission) order. `self` holds
/// the rank's self-addressed messages (they never touch the mesh but
/// keep their place in the inbox).
std::vector<net::Message> mesh_exchange(int rank, int ranks,
                                        const std::vector<int>& peer_fds,
                                        std::vector<net::Message> outbox,
                                        int timeout_ms, wire::Tally& tally) {
  std::vector<std::vector<net::Message>> per_dst(
      static_cast<std::size_t>(ranks));
  for (auto& msg : outbox)
    per_dst[static_cast<std::size_t>(msg.dst)].push_back(std::move(msg));

  std::vector<PeerIO> ios;
  ios.reserve(static_cast<std::size_t>(ranks) - 1);
  for (int peer = 0; peer < ranks; ++peer) {
    if (peer == rank) continue;
    PeerIO io;
    io.fd = peer_fds[static_cast<std::size_t>(peer)];
    io.peer = peer;
    io.label = "mesh exchange with rank " + std::to_string(peer);
    // Gather-encode: the frame's iovecs point into per_dst's payloads,
    // which stay put until the inbox assembly below.
    io.out = wire::encode_frame_gather(wire::FrameKind::Peer, rank,
                                       per_dst[static_cast<std::size_t>(peer)]);
    ios.push_back(std::move(io));
  }

  const bool bounded = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.clear();
    std::vector<PeerIO*> active;
    for (PeerIO& io : ios) {
      short events = 0;
      if (!io.send_done()) events |= POLLOUT;
      if (!io.received) events |= POLLIN;
      if (events == 0) continue;
      pfds.push_back(pollfd{io.fd, events, 0});
      active.push_back(&io);
    }
    if (pfds.empty()) break;  // all frames sent and received

    int left = -1;
    if (bounded) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
      left = ms < 0 ? 0 : static_cast<int>(ms);
      if (left == 0) mesh_fail(active.front()->peer, "timed out");
    }
    const int ready = ::poll(pfds.data(), pfds.size(), left);
    if (ready == 0) mesh_fail(active.front()->peer, "timed out");
    if (ready < 0) {
      if (errno == EINTR) continue;
      mesh_fail(active.front()->peer, std::strerror(errno));
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      PeerIO& io = *active[i];
      if (!io.send_done() &&
          (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) != 0)
        pump_send(io, tally);
      if (!io.received &&
          (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0)
        pump_recv(io);
    }
  }

  // Assemble (src ascending, emission order) — the reference router's
  // order.
  std::vector<net::Message> inbox;
  inbox.reserve(per_dst[static_cast<std::size_t>(rank)].size());
  std::size_t next_peer = 0;
  for (int src = 0; src < ranks; ++src) {
    if (src == rank) {
      for (auto& msg : per_dst[static_cast<std::size_t>(rank)])
        inbox.push_back(std::move(msg));
      continue;
    }
    PeerIO& io = ios[next_peer++];
    HPFC_ASSERT(io.peer == src);
    wire::Frame frame = io.body.take(io.label);
    if (frame.kind != wire::FrameKind::Peer || frame.src != src)
      mesh_fail(src, "unexpected frame on the mesh");
    for (auto& msg : frame.messages) {
      if (msg.dst != rank) mesh_fail(src, "misrouted message");
      inbox.push_back(std::move(msg));
    }
  }
  return inbox;
}

/// The controller holds every socket pair at once before the first fork:
/// P control pairs plus P(P-1)/2 mesh pairs, P(P+1) descriptors. Refuses
/// up front with a diagnostic when the soft descriptor limit is lower,
/// instead of failing halfway through the socketpair calls.
void check_descriptor_budget(int ranks) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur == RLIM_INFINITY)
    return;
  const auto p = static_cast<std::uint64_t>(ranks);
  const std::uint64_t needed = p * (p + 1);
  if (needed <= limit.rlim_cur) return;
  throw ProcError("proc backend: P=" + std::to_string(ranks) + " needs " +
                  std::to_string(needed) +
                  " socket descriptors (P(P+1)) but the open-file limit is " +
                  std::to_string(limit.rlim_cur) +
                  "; raise it (ulimit -n) or run fewer ranks");
}

}  // namespace

void ProcBackend::worker_main(int rank, int ranks, int ctrl_fd,
                              std::vector<int> peer_fds, int timeout_ms) {
  try {
    for (;;) {
      // Idle wait is unbounded: the controller may legitimately compute
      // for a long time between supersteps. Its death still wakes us
      // (EOF on the control channel) and we exit below. Scatter receive:
      // outbox payloads land straight in their Message buffers.
      wire::Frame frame =
          wire::recv_frame_scatter(ctrl_fd, -1, "control channel");
      switch (frame.kind) {
        case wire::FrameKind::Shutdown:
          ::_exit(0);
        case wire::FrameKind::Outbox: {
          wire::Tally tally;
          auto inbox = mesh_exchange(rank, ranks, peer_fds,
                                     std::move(frame.messages), timeout_ms,
                                     tally);
          // Gather send: inbox payload bytes leave straight from the
          // message buffers (no encode staging copy).
          const auto reply = wire::encode_frame_gather(wire::FrameKind::Inbox,
                                                       rank, inbox, tally);
          wire::send_gather_frame(ctrl_fd, reply, timeout_ms, "inbox reply",
                                  nullptr);
          break;
        }
        default:
          ::_exit(1);  // protocol violation
      }
    }
  } catch (...) {
    // Any wire failure: die; the controller turns the EOF into a
    // ProcError diagnostic. Never unwind back into the forked runtime.
    ::_exit(1);
  }
}

ProcBackend::ProcBackend(int ranks, ProcConfig config)
    : Backend(ranks), config_(config) {
  check_descriptor_budget(ranks);
  const auto n = static_cast<std::size_t>(ranks);
  // Create every socket pair before the first fork: child r inherits its
  // control channel and its row of the mesh; everything else is closed
  // right after the fork.
  std::vector<std::pair<wire::Socket, wire::Socket>> ctrl;  // {ours, theirs}
  ctrl.reserve(n);
  for (int r = 0; r < ranks; ++r)
    ctrl.push_back(wire::make_stream_pair());
  // mesh[a][b]: worker a's end of the {a, b} channel (invalid on diagonal).
  std::vector<std::vector<wire::Socket>> mesh(n);
  for (auto& row : mesh) row.resize(n);
  for (int a = 0; a < ranks; ++a) {
    for (int b = a + 1; b < ranks; ++b) {
      auto pair = wire::make_stream_pair();
      mesh[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          std::move(pair.first);
      mesh[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] =
          std::move(pair.second);
    }
  }

  workers_.resize(n);
  for (int r = 0; r < ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      broken_ = true;  // destructor reaps the workers already forked
      throw ProcError(std::string("proc backend: fork: ") +
                      std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep ctrl[r].second and mesh[r][*]; close everything else
      // (raw close — the parent's Socket objects still track the fds,
      // but this process only ever leaves through _exit).
      std::vector<int> peer_fds(n, -1);
      for (int p = 0; p < ranks; ++p) {
        if (p != r)
          peer_fds[static_cast<std::size_t>(p)] =
              mesh[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)]
                  .fd();
      }
      for (int x = 0; x < ranks; ++x) {
        if (x != r && ctrl[static_cast<std::size_t>(x)].second.valid())
          ::close(ctrl[static_cast<std::size_t>(x)].second.fd());
        if (ctrl[static_cast<std::size_t>(x)].first.valid())
          ::close(ctrl[static_cast<std::size_t>(x)].first.fd());
        for (int y = 0; y < ranks; ++y) {
          auto& sock =
              mesh[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)];
          if (x != r && sock.valid()) ::close(sock.fd());
        }
      }
      worker_main(r, ranks, ctrl[static_cast<std::size_t>(r)].second.fd(),
                  std::move(peer_fds), config_.timeout_ms);
    }
    workers_[static_cast<std::size_t>(r)].pid = pid;
    wire_.proc_spawns += 1;
  }
  // Only after every fork: adopt the controller ends (so no child ever
  // inherits a moved-from vector hole) and let the worker ends plus the
  // whole mesh close with this scope — the workers own their copies.
  for (int r = 0; r < ranks; ++r)
    workers_[static_cast<std::size_t>(r)].ctrl =
        std::move(ctrl[static_cast<std::size_t>(r)].first);
  // The step pool comes LAST: forking with pool threads alive would snap
  // a mutex-holding thread into the child. After this line the backend
  // never forks again.
  pool_ = std::make_unique<StepPool>(ranks, /*threads=*/0);
}

void ProcBackend::step(const RankFn& fn) { pool_->run(fn); }

ProcBackend::~ProcBackend() { shutdown_workers(); }

void ProcBackend::wire_failed(int rank, const std::string& why) {
  broken_ = true;
  throw ProcError("proc backend: rank " + std::to_string(rank) + ": " + why +
                  " (worker dead or wedged; run aborted)");
}

std::vector<std::vector<net::Message>> ProcBackend::exchange(
    std::vector<std::vector<net::Message>> outboxes) {
  const auto counts = net::check_outboxes(outboxes, ranks_);
  if (broken_)
    throw ProcError("proc backend: wire already failed; backend is dead");
  const std::size_t sent_msgs =
      std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  const auto n = static_cast<std::size_t>(ranks_);

  // Phase 1: every worker gets its full outbox. Workers drain the frame
  // completely before entering the mesh, so the controller's sends are
  // mutually independent and run concurrently across the pool: per-rank
  // gather sends, payload bytes leaving straight from the outbox message
  // buffers, so rank r's frame can be in flight while another rank's is
  // still encoding. Errors are captured per rank (not rethrown mid-pool)
  // so the lowest failing rank deterministically names the diagnostic.
  wire::Tally ctrl_tally;
  std::vector<wire::Tally> tallies(n);
  std::vector<std::string> errors(n);
  pool_->run([&](int r) {
    const auto& outbox = outboxes[static_cast<std::size_t>(r)];
    const auto frame = wire::encode_frame_gather(
        wire::FrameKind::Outbox, wire::kControllerRank, outbox);
    try {
      wire::send_gather_frame(workers_[static_cast<std::size_t>(r)].ctrl.fd(),
                              frame, config_.timeout_ms,
                              "outbox to rank " + std::to_string(r),
                              &tallies[static_cast<std::size_t>(r)]);
    } catch (const wire::WireError& err) {
      errors[static_cast<std::size_t>(r)] = err.what();
    }
  });
  for (int r = 0; r < ranks_; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty())
      wire_failed(r, errors[static_cast<std::size_t>(r)]);
    ctrl_tally += tallies[static_cast<std::size_t>(r)];
  }
  outboxes.clear();

  // Phase 2: collect every inbox. Returns are independent (the mesh is
  // already drained by the time a worker replies), so each pool worker
  // receives into its own rank's frame slot. Scatter receive lands inbox
  // payloads straight in their destination Message buffers. `errors` is
  // all empty here: wire_failed threw on the first phase-1 failure.
  std::vector<wire::Frame> frames(n);
  pool_->run([&](int r) {
    try {
      frames[static_cast<std::size_t>(r)] = wire::recv_frame_scatter(
          workers_[static_cast<std::size_t>(r)].ctrl.fd(),
          config_.timeout_ms, "inbox from rank " + std::to_string(r));
    } catch (const wire::WireError& err) {
      errors[static_cast<std::size_t>(r)] = err.what();
    }
  });
  for (int r = 0; r < ranks_; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty())
      wire_failed(r, errors[static_cast<std::size_t>(r)]);
  }

  // Validation stays serial.
  std::vector<std::vector<net::Message>> inboxes(n);
  std::size_t received_msgs = 0;
  for (int r = 0; r < ranks_; ++r) {
    wire::Frame& frame = frames[static_cast<std::size_t>(r)];
    if (frame.kind != wire::FrameKind::Inbox || frame.src != r)
      wire_failed(r, "unexpected frame kind on the control channel");
    // Worker-reported mesh traffic + the two control-channel hops.
    ctrl_tally += frame.reported;
    ctrl_tally.bytes += frame.frame_bytes;
    ctrl_tally.msgs += frame.messages.size();
    received_msgs += frame.messages.size();
    for (const auto& msg : frame.messages) {
      if (msg.dst != r) wire_failed(r, "misrouted message in inbox");
    }
    inboxes[static_cast<std::size_t>(r)] = std::move(frame.messages);
  }
  HPFC_ASSERT_MSG(received_msgs == sent_msgs,
                  "superstep lost or duplicated messages on the wire");

  wire_.wire_bytes += ctrl_tally.bytes;
  wire_.wire_msgs += ctrl_tally.msgs;
  return inboxes;
}

void ProcBackend::kill_worker(int rank) {
  HPFC_ASSERT(rank >= 0 && rank < ranks_);
  Worker& worker = workers_[static_cast<std::size_t>(rank)];
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);
    // Reap now so the pid cannot linger as a zombie; the socket stays
    // open controller-side so the next exchange sees EOF, not EBADF.
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker.pid = -1;
  }
}

void ProcBackend::shutdown_workers() noexcept {
  // Graceful first: a Shutdown frame per live worker — skipped when the
  // wire already failed (the protocol state is unknown; frames could
  // block on full buffers).
  if (!broken_) {
    const auto frame = wire::encode_frame_gather(
        wire::FrameKind::Shutdown, wire::kControllerRank, {});
    for (auto& worker : workers_) {
      if (worker.pid <= 0 || !worker.ctrl.valid()) continue;
      try {
        wire::send_gather_frame(worker.ctrl.fd(), frame, 200, "shutdown",
                                nullptr);
      } catch (...) {
        // Already dying; SIGKILL below.
      }
    }
  }
  // Closing the control sockets is a second exit signal (EOF wakes an
  // idle worker even if the Shutdown frame was lost).
  for (auto& worker : workers_) worker.ctrl.close();

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         std::max(200, std::min(config_.timeout_ms, 2000)));
  for (auto& worker : workers_) {
    while (worker.pid > 0) {
      int status = 0;
      const pid_t done = ::waitpid(worker.pid, &status, WNOHANG);
      if (done == worker.pid || (done < 0 && errno == ECHILD)) {
        worker.pid = -1;
        break;
      }
      if (done < 0 && errno != EINTR) {
        worker.pid = -1;
        break;
      }
      if (Clock::now() >= deadline) {
        ::kill(worker.pid, SIGKILL);
        while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
        }
        worker.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::unique_ptr<Backend> make_proc_backend(int ranks, ProcConfig config) {
  return std::make_unique<ProcBackend>(ranks, config);
}

namespace {

/// One calibration observation: the cost model would charge
/// `msgs * alpha + bytes * beta` for the superstep that took `secs`.
struct WireSample {
  double msgs = 0.0;
  double bytes = 0.0;
  double secs = 0.0;
};

double median(std::vector<double> values) {
  HPFC_ASSERT(!values.empty());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Busiest-rank load net::account_flows would charge for `outboxes`.
void busiest_load(const std::vector<std::vector<net::Message>>& outboxes,
                  int ranks, double& msgs, double& bytes) {
  std::vector<std::uint64_t> m(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> b(static_cast<std::size_t>(ranks), 0);
  for (const auto& outbox : outboxes) {
    for (const auto& msg : outbox) {
      if (msg.src == msg.dst) continue;
      const std::uint64_t nbytes = msg.bytes();
      m[static_cast<std::size_t>(msg.src)] += 1;
      b[static_cast<std::size_t>(msg.src)] += nbytes;
      m[static_cast<std::size_t>(msg.dst)] += 1;
      b[static_cast<std::size_t>(msg.dst)] += nbytes;
    }
  }
  msgs = 0.0;
  bytes = 0.0;
  double best = -1.0;
  for (int r = 0; r < ranks; ++r) {
    // The same tie-break the cost model applies: pick the rank whose
    // charge dominates (any positive alpha/beta ranks bytes first here
    // because the patterns below are uniform; msgs break ties).
    const double score = static_cast<double>(
                             b[static_cast<std::size_t>(r)]) +
                         static_cast<double>(m[static_cast<std::size_t>(r)]);
    if (score > best) {
      best = score;
      msgs = static_cast<double>(m[static_cast<std::size_t>(r)]);
      bytes = static_cast<double>(b[static_cast<std::size_t>(r)]);
    }
  }
}

std::vector<std::vector<net::Message>> pair_pattern(int ranks,
                                                    std::size_t doubles) {
  std::vector<std::vector<net::Message>> outboxes(
      static_cast<std::size_t>(ranks));
  net::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.tag = 0;
  msg.segments = 1;
  msg.payload.assign(doubles, 1.0);
  outboxes[0].push_back(std::move(msg));
  return outboxes;
}

std::vector<std::vector<net::Message>> all_to_all_pattern(
    int ranks, std::size_t doubles) {
  std::vector<std::vector<net::Message>> outboxes(
      static_cast<std::size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    for (int dst = 0; dst < ranks; ++dst) {
      if (dst == src) continue;
      net::Message msg;
      msg.src = src;
      msg.dst = dst;
      msg.tag = 0;
      msg.segments = 1;
      msg.payload.assign(doubles, 1.0);
      outboxes[static_cast<std::size_t>(src)].push_back(std::move(msg));
    }
  }
  return outboxes;
}

}  // namespace

Calibration calibrate_wire(int ranks, ProcConfig config, int rounds) {
  ranks = std::max(2, ranks);
  rounds = std::max(3, rounds);
  ProcBackend backend(ranks, config);

  // Warm the wire (page in buffers, fault in code) before timing.
  (void)backend.exchange(all_to_all_pattern(ranks, 64));

  // Probe patterns spanning the (msgs, bytes) plane: point-to-point
  // round-trips give alpha leverage (tiny payloads, cost dominated by
  // per-message overhead), all-to-all sweeps at graded payload sizes
  // give beta leverage. Medians over `rounds` reject scheduler noise.
  struct Probe {
    bool all_to_all;
    std::size_t doubles;
  };
  const Probe probes[] = {
      {false, 8},     {false, 4096}, {false, 131072},
      {true, 64},     {true, 8192},  {true, 65536},
  };

  std::vector<WireSample> samples;
  for (const Probe& probe : probes) {
    auto make = [&] {
      return probe.all_to_all ? all_to_all_pattern(ranks, probe.doubles)
                              : pair_pattern(ranks, probe.doubles);
    };
    WireSample sample;
    busiest_load(make(), ranks, sample.msgs, sample.bytes);
    std::vector<double> walls;
    walls.reserve(static_cast<std::size_t>(rounds));
    for (int i = 0; i < rounds; ++i) {
      const auto start = std::chrono::steady_clock::now();
      (void)backend.exchange(make());
      walls.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    sample.secs = median(std::move(walls));
    samples.push_back(sample);
  }

  // Least squares for t ~= alpha * msgs + beta * bytes (no intercept):
  // solve the 2x2 normal equations.
  double smm = 0.0;
  double smb = 0.0;
  double sbb = 0.0;
  double smt = 0.0;
  double sbt = 0.0;
  for (const WireSample& s : samples) {
    smm += s.msgs * s.msgs;
    smb += s.msgs * s.bytes;
    sbb += s.bytes * s.bytes;
    smt += s.msgs * s.secs;
    sbt += s.bytes * s.secs;
  }
  const double det = smm * sbb - smb * smb;
  Calibration result;
  result.samples = static_cast<int>(samples.size());
  if (det > 0.0) {
    result.latency = (smt * sbb - sbt * smb) / det;
    result.inv_bandwidth = (smm * sbt - smb * smt) / det;
  }
  // A fit can go slightly negative when one term dominates; clamp to
  // physical minimums so the cost model stays monotone.
  result.latency = std::clamp(result.latency, 1e-7, 1e-2);
  result.inv_bandwidth = std::clamp(result.inv_bandwidth, 1e-12, 1e-5);
  return result;
}

}  // namespace hpfc::exec
