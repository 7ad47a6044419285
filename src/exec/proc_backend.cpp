// ProcBackend: process-per-rank execution with a real socket mesh and a
// shared payload arena.
//
// Topology (all pairs and the arena created before any fork, so no
// connect/accept races):
//   - one control channel per rank: controller <-> worker r
//   - one mesh channel per unordered rank pair {a, b}: worker a <-> b
//   - one payload arena: a memfd every process maps MAP_SHARED
//
// One exchange() superstep over a table of ArenaMessages whose payloads
// the controller already packed into their arena out-slots:
//   1. controller sends every worker an Outbox frame of descriptors: the
//      out-slots of the messages the rank sends and the in-slots of the
//      messages it receives (each worker drains its frame completely
//      before touching the mesh, so these sends cannot deadlock);
//   2. each worker checks every descriptor against the arena file (a bad
//      one makes it _exit with kRejectedExit before it touches arena
//      memory), remaps the arena if it grew, and runs a poll-driven,
//      non-blocking send/receive state machine across its peers: one
//      Peer frame per destination gathers the payloads straight from the
//      out-slots, and the receiver matches each incoming (src, tag,
//      elements) against its own descriptors and scatters the payload
//      straight into the in-slot they name (both ends hold the pair's
//      descriptors, so a Peer frame flows only where there are
//      messages); self-addressed messages are copied out-slot to in-slot;
//   3. each worker returns its filled in-slots to the controller as an
//      Inbox frame of descriptors in (src ascending, emission) order —
//      exactly the reference router's order — with its mesh tally;
//   4. the controller validates conservation and accumulates WireStats.
//      It charges no NetStats: the runtime charges the round's traffic
//      table and checks the inboxes against it.
//
// Lifetime: the workers, their channels and the arena form a ProcMesh
// that outlives the backend. A healthy backend parks it in the process's
// one parking slot (releasing the controller's arena pages first), and
// the next backend with the same P and timeout adopts it after a
// waitpid(WNOHANG) check of every worker. Between supersteps a worker
// only waits on its control channel, so an adopted mesh is in the state
// a fresh one starts in.
//
// Failure model: any socket error, deadline overrun or bad descriptor in
// a worker makes it _exit; the controller then sees EOF (or its own
// deadline) on the next control-channel operation and raises ProcError
// naming the rank. A mesh that failed is never parked. Shutting a mesh
// down always reaps: Shutdown frames first (skipped once the wire
// broke), then a bounded waitpid loop, then SIGKILL for stragglers.
#include "exec/proc_backend.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "support/check.hpp"

namespace hpfc::exec {

namespace wire = net::wire;
using wire::Descriptor;

namespace {

using Clock = std::chrono::steady_clock;

/// Exit status of a worker that rejected a descriptor (any other wire
/// failure exits 1): it tells the controller which rank caused a
/// superstep's failure when the other workers only lost a peer.
constexpr int kRejectedExit = 3;

/// A descriptor that names memory outside the arena or a rank outside the
/// machine, caught before any arena memory is touched.
class DescriptorRejected : public wire::WireError {
 public:
  using wire::WireError::WireError;
};

/// A worker's view of the payload arena: the inherited memfd, mapped
/// MAP_SHARED on demand. The controller grows the file between
/// supersteps; a worker remaps when a descriptor ends past its mapping.
class WorkerArena {
 public:
  explicit WorkerArena(int fd) : fd_(fd) {}

  /// Checks every descriptor of an Outbox frame: its route (sends leave
  /// `rank`, receives arrive at it, the other end is a rank of the
  /// machine) and its window against the arena file's size. Remaps to
  /// the whole file when a window ends past the current mapping. Throws
  /// DescriptorRejected before touching arena memory.
  void cover(const wire::Frame& outbox, int rank, int ranks) {
    std::uint64_t end = 0;
    const auto check = [&](const Descriptor& d, int self, int other) {
      if (self != rank || other < 0 || other >= ranks)
        reject(d, "routes outside this rank's (src, dst) pairs");
      if (d.offset > UINT64_MAX - d.elements)
        reject(d, "overflows the arena's offsets");
      end = std::max(end, d.offset + d.elements);
    };
    for (const Descriptor& d : outbox.sends) check(d, d.src, d.dst);
    for (const Descriptor& d : outbox.receives) check(d, d.dst, d.src);
    if (end <= mapped_) return;
    struct stat st {};
    if (::fstat(fd_, &st) != 0)
      throw wire::WireError(std::string("arena fstat: ") +
                            std::strerror(errno));
    const auto file = static_cast<std::uint64_t>(st.st_size) / sizeof(double);
    if (end > file) {
      throw DescriptorRejected("a descriptor ends at element " +
                               std::to_string(end) + " past the " +
                               std::to_string(file) +
                               "-element payload arena");
    }
    if (base_ != nullptr) ::munmap(base_, mapped_ * sizeof(double));
    void* base = ::mmap(nullptr, file * sizeof(double),
                        PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (base == MAP_FAILED) {
      base_ = nullptr;
      mapped_ = 0;
      throw wire::WireError(std::string("arena mmap: ") +
                            std::strerror(errno));
    }
    base_ = static_cast<double*>(base);
    mapped_ = file;
  }

  /// The `elements` doubles of a descriptor cover() accepted.
  [[nodiscard]] std::span<double> window(const Descriptor& d) const {
    return {base_ + d.offset, static_cast<std::size_t>(d.elements)};
  }
  [[nodiscard]] const double* base() const { return base_; }

 private:
  [[noreturn]] static void reject(const Descriptor& d, const char* why) {
    throw DescriptorRejected("descriptor (" + std::to_string(d.src) + ", " +
                             std::to_string(d.dst) + ") tag " +
                             std::to_string(d.tag) + " " + why);
  }

  int fd_;
  double* base_ = nullptr;
  std::uint64_t mapped_ = 0;  ///< elements mapped
};

/// Per-peer progress for the worker mesh phase: a gather-encoded outgoing
/// Peer frame (payload iovecs point into the arena's out-slots — no
/// staging copy) draining at a GatherCursor, and an incoming frame
/// arriving header-first, its payloads scatter-decoded straight into the
/// in-slots this rank's own descriptors name.
struct PeerIO {
  int fd = -1;
  int peer = -1;
  std::string label;  ///< "mesh exchange with rank N" (error context)
  wire::GatherFrame out;
  wire::GatherCursor out_cursor;
  bool sent = false;

  /// This rank's receive descriptors from `peer`, in emission order, and
  /// how many of them the incoming frame has matched so far.
  std::vector<Descriptor> expected;
  std::size_t matched = 0;
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

/// Whether an incoming message is the one this rank's descriptor
/// expects: the same source, tag and element count.
bool same_message(const Descriptor& got, const Descriptor& want) {
  return got.src == want.src && got.tag == want.tag &&
         got.elements == want.elements;
}

/// Drives one peer's non-blocking gather send forward until EAGAIN or
/// done (the frame's payload bytes leave straight from the arena —
/// sendmsg, no staging copy).
void pump_send(PeerIO& io, wire::Tally& tally) {
  if (io.sent) return;
  if (!wire::pump_gather_send(io.fd, io.out, io.out_cursor, io.label)) return;
  io.sent = true;
  tally.bytes += io.out.bytes;
  tally.msgs += io.out.msgs;
}

/// Drives one peer's non-blocking receive forward until EAGAIN or a
/// complete, checksum-verified frame (payload bytes land straight in
/// their in-slots via the scatter decoder).
void pump_recv(PeerIO& io, const WorkerArena& arena) {
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
          if (kind != wire::FrameKind::Peer || src != io.peer)
            mesh_fail(io.peer, "unexpected frame on the mesh");
          // Each payload lands in the in-slot of the next descriptor this
          // rank holds for the peer, once (src, tag, elements) match.
          io.body.reset(kind, src, body_bytes, expected,
                        [&io, &arena](const Descriptor& d) {
                          if (io.matched >= io.expected.size() ||
                              !same_message(d, io.expected[io.matched]))
                            mesh_fail(io.peer, "unexpected message (tag " +
                                                   std::to_string(d.tag) +
                                                   ")");
                          return arena.window(io.expected[io.matched++]);
                        });
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

/// The worker-side all-to-all over one Outbox frame cover() accepted:
/// ships this rank's out-slots to every peer while concurrently landing
/// theirs in its in-slots, copies its self-addressed messages out-slot to
/// in-slot, and returns its receive descriptors in (src ascending,
/// emission) order.
std::vector<Descriptor> mesh_exchange(int rank, int ranks,
                                      const std::vector<int>& peer_fds,
                                      const wire::Frame& outbox,
                                      const WorkerArena& arena, int timeout_ms,
                                      wire::Tally& tally) {
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::vector<Descriptor>> to(n);
  std::vector<std::vector<Descriptor>> from(n);
  for (const Descriptor& d : outbox.sends)
    to[static_cast<std::size_t>(d.dst)].push_back(d);
  for (const Descriptor& d : outbox.receives)
    from[static_cast<std::size_t>(d.src)].push_back(d);

  // Self-addressed messages never touch the mesh.
  const auto self = static_cast<std::size_t>(rank);
  if (to[self].size() != from[self].size())
    mesh_fail(rank, "self-addressed sends and receives differ");
  for (std::size_t i = 0; i < to[self].size(); ++i) {
    if (!same_message(to[self][i], from[self][i]))
      mesh_fail(rank, "self-addressed sends and receives differ");
    const auto src = arena.window(to[self][i]);
    if (src.empty()) continue;
    std::memmove(arena.window(from[self][i]).data(), src.data(),
                 src.size() * sizeof(double));
  }

  // One slot per rank. Both ends of a pair hold its messages'
  // descriptors, so a Peer frame flows only where there are messages, and
  // the slot of a peer with nothing either way (and this rank's) is done
  // from the start.
  std::vector<PeerIO> ios(n);
  for (int peer = 0; peer < ranks; ++peer) {
    const auto p = static_cast<std::size_t>(peer);
    PeerIO& io = ios[p];
    io.peer = peer;
    io.sent = peer == rank || to[p].empty();
    io.received = peer == rank || from[p].empty();
    if (io.sent && io.received) continue;
    io.fd = peer_fds[p];
    io.label = "mesh exchange with rank " + std::to_string(peer);
    // Gather-encode: the frame's iovecs point into the arena out-slots.
    if (!io.sent) {
      io.out = wire::encode_frame_gather(wire::FrameKind::Peer, rank, to[p],
                                         {}, arena.base());
    }
    io.expected = std::move(from[p]);
  }

  const bool bounded = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<pollfd> pfds;
  std::vector<PeerIO*> active;
  for (;;) {
    pfds.clear();
    active.clear();
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
        pump_recv(io, arena);
    }
  }

  // Assemble (src ascending, emission order) — the reference router's
  // order — once every frame passed its checksum.
  std::vector<Descriptor> inbox;
  inbox.reserve(outbox.receives.size());
  for (int src = 0; src < ranks; ++src) {
    if (src == rank) {
      inbox.insert(inbox.end(), from[self].begin(), from[self].end());
      continue;
    }
    PeerIO& io = ios[static_cast<std::size_t>(src)];
    if (io.expected.empty()) continue;
    (void)io.body.take(io.label);
    if (io.matched != io.expected.size())
      mesh_fail(src, "missing " + std::to_string(io.expected.size() -
                                                  io.matched) +
                         " message(s)");
    inbox.insert(inbox.end(), io.expected.begin(), io.expected.end());
  }
  return inbox;
}

/// The controller holds every socket pair and the payload arena at once
/// before the first fork: P control pairs plus P(P-1)/2 mesh pairs,
/// P(P+1) descriptors, and the arena's memfd. Refuses up front with a
/// diagnostic when the soft descriptor limit is lower, instead of
/// failing halfway through the socketpair calls.
void check_descriptor_budget(int ranks) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur == RLIM_INFINITY)
    return;
  const auto p = static_cast<std::uint64_t>(ranks);
  const std::uint64_t needed = p * (p + 1) + 1;
  if (needed <= limit.rlim_cur) return;
  throw ProcError("proc backend: P=" + std::to_string(ranks) + " needs " +
                  std::to_string(needed) +
                  " descriptors (P(P+1) sockets and the payload arena) but "
                  "the open-file limit is " +
                  std::to_string(limit.rlim_cur) +
                  "; raise it (ulimit -n) or run fewer ranks");
}

/// A worker's whole life: serve Outbox frames on the control channel
/// until a Shutdown frame or EOF, then _exit.
[[noreturn]] void worker_main(int rank, int ranks, int ctrl_fd, int arena_fd,
                             std::vector<int> peer_fds, int timeout_ms) {
  try {
    WorkerArena arena(arena_fd);
    for (;;) {
      // Idle wait is unbounded: the controller may legitimately compute
      // for a long time between supersteps. Its death still wakes us
      // (EOF on the control channel) and we exit below.
      const wire::Frame frame =
          wire::recv_frame(ctrl_fd, -1, "control channel");
      switch (frame.kind) {
        case wire::FrameKind::Shutdown:
          ::_exit(0);
        case wire::FrameKind::Outbox: {
          arena.cover(frame, rank, ranks);
          wire::Tally tally;
          const auto inbox = mesh_exchange(rank, ranks, peer_fds, frame,
                                           arena, timeout_ms, tally);
          const auto reply = wire::encode_frame_gather(
              wire::FrameKind::Inbox, rank, {}, inbox, nullptr, tally);
          wire::send_gather_frame(ctrl_fd, reply, timeout_ms, "inbox reply",
                                  nullptr);
          break;
        }
        default:
          ::_exit(1);  // protocol violation
      }
    }
  } catch (const DescriptorRejected&) {
    ::_exit(kRejectedExit);
  } catch (...) {
    // Any wire failure: die; the controller turns the EOF into a
    // ProcError diagnostic. Never unwind back into the forked runtime.
    ::_exit(1);
  }
}

}  // namespace

/// The worker side of a ProcBackend: the P forked workers (each holding
/// its row of the socket mesh), the controller ends of their control
/// channels, and the payload arena.
struct ProcMesh {
  struct Worker {
    pid_t pid = -1;
    wire::Socket ctrl;  ///< controller end of the control channel
  };

  ProcMesh(int ranks, int timeout_ms)
      : ranks(ranks),
        timeout_ms(timeout_ms),
        workers(static_cast<std::size_t>(ranks)) {}
  ProcMesh(const ProcMesh&) = delete;
  ProcMesh& operator=(const ProcMesh&) = delete;
  ~ProcMesh() {
    shutdown(/*graceful=*/true);
    if (arena_base != nullptr) ::munmap(arena_base, arena_bytes);
    if (arena_fd >= 0) ::close(arena_fd);
  }

  /// This process forked the workers (a forked child holds a copy of its
  /// parent's mesh, and must leave those workers alone).
  [[nodiscard]] bool owned() const { return owner == ::getpid(); }

  /// Every worker is still running: none was reaped, and a
  /// waitpid(WNOHANG) finds none exited (one that did is reaped here).
  [[nodiscard]] bool alive() {
    for (Worker& worker : workers) {
      if (worker.pid <= 0) return false;
      int status = 0;
      pid_t done = 0;
      while ((done = ::waitpid(worker.pid, &status, WNOHANG)) < 0 &&
             errno == EINTR) {
      }
      if (done != 0) {
        worker.pid = -1;
        return false;
      }
    }
    return true;
  }

  /// Reaps every worker of an owned mesh: a Shutdown frame per live
  /// worker when `graceful` (skipped once the wire failed — the protocol
  /// state is unknown and frames could block on full buffers), then EOF
  /// on every control channel, a bounded waitpid loop and SIGKILL for
  /// stragglers. Idempotent.
  void shutdown(bool graceful) noexcept {
    if (!owned()) return;
    if (graceful) {
      const auto frame = wire::encode_frame_gather(
          wire::FrameKind::Shutdown, wire::kControllerRank, {}, {});
      for (auto& worker : workers) {
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
    for (auto& worker : workers) worker.ctrl.close();

    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(std::max(200, std::min(timeout_ms, 2000)));
    for (auto& worker : workers) {
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

  const int ranks;
  const int timeout_ms;
  const pid_t owner = ::getpid();
  std::vector<Worker> workers;
  /// The payload arena: a memfd every worker inherits, and the
  /// controller's MAP_SHARED mapping of all of it.
  int arena_fd = -1;
  double* arena_base = nullptr;
  std::size_t arena_bytes = 0;
};

namespace {

/// The process's one parking slot: the idle mesh of the last healthy
/// backend, if any. Destroyed at exit, which reaps a mesh this process
/// forked; a forked child's inherited copy is only closed.
struct Parking {
  std::mutex mutex;
  std::unique_ptr<ProcMesh> mesh;
};

Parking& parking() {
  static Parking slot;
  return slot;
}

std::unique_ptr<ProcMesh> take_parked() {
  Parking& slot = parking();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return std::move(slot.mesh);
}

/// Forks a fresh mesh of `ranks` workers. Every socket pair and the arena
/// exist before the first fork, so there are no connect/accept races.
std::unique_ptr<ProcMesh> fork_mesh(int ranks, int timeout_ms) {
  check_descriptor_budget(ranks);
  const auto n = static_cast<std::size_t>(ranks);
  // Declared first, so it is destroyed last: if a fork fails, the worker
  // ends below close first and the workers already forked exit on EOF
  // before this mesh reaps them.
  auto mesh = std::make_unique<ProcMesh>(ranks, timeout_ms);
  // The arena comes first: every worker inherits its descriptor. It
  // starts empty; ProcBackend::arena() grows it.
  mesh->arena_fd = ::memfd_create("hpfc-payload-arena", MFD_CLOEXEC);
  if (mesh->arena_fd < 0) {
    throw ProcError(std::string("proc backend: memfd_create: ") +
                    std::strerror(errno));
  }
  // Create every socket pair before the first fork: child r inherits its
  // control channel and its row of the mesh; everything else is closed
  // right after the fork.
  std::vector<std::pair<wire::Socket, wire::Socket>> ctrl;  // {ours, theirs}
  ctrl.reserve(n);
  for (int r = 0; r < ranks; ++r)
    ctrl.push_back(wire::make_stream_pair());
  // peers[a][b]: worker a's end of the {a, b} channel (invalid on
  // diagonal).
  std::vector<std::vector<wire::Socket>> peers(n);
  for (auto& row : peers) row.resize(n);
  for (int a = 0; a < ranks; ++a) {
    for (int b = a + 1; b < ranks; ++b) {
      auto pair = wire::make_stream_pair();
      peers[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          std::move(pair.first);
      peers[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] =
          std::move(pair.second);
    }
  }

  for (int r = 0; r < ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw ProcError(std::string("proc backend: fork: ") +
                      std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep ctrl[r].second, peers[r][*] and the arena; close
      // everything else (raw close — the parent's Socket objects still
      // track the fds, but this process only ever leaves through _exit).
      std::vector<int> peer_fds(n, -1);
      for (int p = 0; p < ranks; ++p) {
        if (p != r)
          peer_fds[static_cast<std::size_t>(p)] =
              peers[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)]
                  .fd();
      }
      for (int x = 0; x < ranks; ++x) {
        if (x != r && ctrl[static_cast<std::size_t>(x)].second.valid())
          ::close(ctrl[static_cast<std::size_t>(x)].second.fd());
        if (ctrl[static_cast<std::size_t>(x)].first.valid())
          ::close(ctrl[static_cast<std::size_t>(x)].first.fd());
        for (int y = 0; y < ranks; ++y) {
          auto& sock =
              peers[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)];
          if (x != r && sock.valid()) ::close(sock.fd());
        }
      }
      worker_main(r, ranks, ctrl[static_cast<std::size_t>(r)].second.fd(),
                  mesh->arena_fd, std::move(peer_fds), timeout_ms);
    }
    mesh->workers[static_cast<std::size_t>(r)].pid = pid;
  }
  // Only after every fork: adopt the controller ends (so no child ever
  // inherits a moved-from vector hole) and let the worker ends plus the
  // whole mesh close with this scope — the workers own their copies.
  for (int r = 0; r < ranks; ++r)
    mesh->workers[static_cast<std::size_t>(r)].ctrl =
        std::move(ctrl[static_cast<std::size_t>(r)].first);
  return mesh;
}

}  // namespace

ProcBackend::ProcBackend(int ranks, ProcConfig config)
    : Backend(ranks), config_(config), mesh_(take_parked()) {
  // A parked mesh that does not fit, lost a worker, or belongs to the
  // parent of this (forked) process is dropped before any fork, so no new
  // worker inherits its descriptors.
  if (mesh_ != nullptr &&
      !(mesh_->owned() && mesh_->ranks == ranks &&
        mesh_->timeout_ms == config.timeout_ms && mesh_->alive()))
    mesh_.reset();
  if (mesh_ == nullptr) {
    mesh_ = fork_mesh(ranks, config.timeout_ms);
    wire_.proc_spawns = static_cast<std::uint64_t>(ranks);
  }
  // The step pool comes LAST: forking with pool threads alive would snap
  // a mutex-holding thread into the child. After this line the backend
  // never forks again.
  pool_ = std::make_unique<StepPool>(ranks, /*threads=*/0);
}

void ProcBackend::step(const RankFn& fn) { pool_->run(fn); }

ProcBackend::~ProcBackend() {
  if (broken_ || !mesh_->owned() || !mesh_->alive()) {
    mesh_->shutdown(/*graceful=*/!broken_);
    return;
  }
  // Park: the controller's arena pages leave its RSS (the memfd keeps
  // them, so the next adopter re-maps them without zero-filling).
  if (mesh_->arena_base != nullptr)
    ::madvise(mesh_->arena_base, mesh_->arena_bytes, MADV_DONTNEED);
  // A mesh parked meanwhile by another backend is replaced, and shut
  // down outside the lock.
  std::unique_ptr<ProcMesh> replaced;
  {
    Parking& slot = parking();
    const std::lock_guard<std::mutex> lock(slot.mutex);
    replaced = std::exchange(slot.mesh, std::move(mesh_));
  }
}

void ProcBackend::release_parked() { (void)take_parked(); }

std::span<double> ProcBackend::arena(std::size_t elements) {
  const std::size_t bytes = elements * sizeof(double);
  if (bytes > mesh_->arena_bytes) {
    // Grow at least geometrically, in whole pages, so a run of growing
    // rounds remaps a handful of times; a memfd page costs memory only
    // once something writes it.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::size_t grown = std::max(bytes, 2 * mesh_->arena_bytes);
    grown = (grown + page - 1) / page * page;
    if (::ftruncate(mesh_->arena_fd, static_cast<off_t>(grown)) != 0) {
      throw ProcError("proc backend: cannot grow the payload arena to " +
                      std::to_string(grown) + " bytes: " +
                      std::strerror(errno));
    }
    void* base = ::mmap(nullptr, grown, PROT_READ | PROT_WRITE, MAP_SHARED,
                        mesh_->arena_fd, 0);
    if (base == MAP_FAILED) {
      throw ProcError(std::string("proc backend: cannot map the payload "
                                  "arena: ") +
                      std::strerror(errno));
    }
    if (mesh_->arena_base != nullptr)
      ::munmap(mesh_->arena_base, mesh_->arena_bytes);
    mesh_->arena_base = static_cast<double*>(base);
    mesh_->arena_bytes = grown;
  }
  return {mesh_->arena_base, mesh_->arena_bytes / sizeof(double)};
}

void ProcBackend::wire_failed(int rank, const std::string& why) {
  broken_ = true;
  throw ProcError("proc backend: rank " + std::to_string(rank) + ": " + why +
                  " (worker dead or wedged; run aborted)");
}

void ProcBackend::check_phase(const std::vector<std::string>& errors) {
  int lowest = -1;
  // A worker that rejected a descriptor exited first; the others failed
  // because it left the mesh. Its exit status is waited for briefly only:
  // a wedged (live) worker must not stall the diagnostic.
  const auto deadline = Clock::now() + std::chrono::milliseconds(100);
  for (int r = 0; r < ranks_; ++r) {
    if (errors[static_cast<std::size_t>(r)].empty()) continue;
    if (lowest < 0) lowest = r;
    ProcMesh::Worker& worker = mesh_->workers[static_cast<std::size_t>(r)];
    int status = 0;
    pid_t done = 0;
    while (worker.pid > 0 &&
           (done = ::waitpid(worker.pid, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (done != worker.pid) continue;
    worker.pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == kRejectedExit) {
      wire_failed(r, "worker rejected a descriptor outside the payload "
                     "arena (" +
                         errors[static_cast<std::size_t>(r)] + ")");
    }
  }
  if (lowest >= 0)
    wire_failed(lowest, errors[static_cast<std::size_t>(lowest)]);
}

Inboxes ProcBackend::exchange(std::span<const ArenaMessage> table) {
  if (broken_)
    throw ProcError("proc backend: wire already failed; backend is dead");
  const auto n = static_cast<std::size_t>(ranks_);

  // Each rank's send descriptors (out-slots, table order) and receive
  // descriptors (in-slots, by source rank, then table order).
  std::vector<std::vector<Descriptor>> sends(n);
  std::vector<std::vector<Descriptor>> receives(n);
  std::vector<std::vector<std::size_t>> by_src(n);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const ArenaMessage& m = table[i];
    HPFC_ASSERT_MSG(m.src >= 0 && m.src < ranks_ && m.dst >= 0 &&
                        m.dst < ranks_,
                    "arena message routed outside the machine");
    sends[static_cast<std::size_t>(m.src)].push_back(
        {m.src, m.dst, m.tag, m.segments, m.elements, m.out_offset});
    by_src[static_cast<std::size_t>(m.src)].push_back(i);
  }
  for (const auto& indices : by_src) {
    for (const std::size_t i : indices) {
      const ArenaMessage& m = table[i];
      receives[static_cast<std::size_t>(m.dst)].push_back(
          {m.src, m.dst, m.tag, m.segments, m.elements, m.in_offset});
    }
  }

  // Until the last inbox is validated the protocol is mid-superstep: a
  // failure anywhere below leaves the backend broken (and the mesh
  // unparked).
  broken_ = true;

  // Phase 1: every worker gets its descriptors. Workers drain the frame
  // completely before entering the mesh, so the controller's sends are
  // mutually independent and run concurrently across the pool. Errors are
  // captured per rank (not rethrown mid-pool) so check_phase names the
  // rank deterministically.
  std::vector<wire::Tally> tallies(n);
  std::vector<std::string> errors(n);
  pool_->run([&](int r) {
    const auto rank = static_cast<std::size_t>(r);
    const auto frame =
        wire::encode_frame_gather(wire::FrameKind::Outbox,
                                  wire::kControllerRank, sends[rank],
                                  receives[rank]);
    try {
      wire::send_gather_frame(mesh_->workers[rank].ctrl.fd(), frame,
                              config_.timeout_ms,
                              "outbox to rank " + std::to_string(r),
                              &tallies[rank]);
    } catch (const wire::WireError& err) {
      errors[rank] = err.what();
    }
  });
  check_phase(errors);

  // Phase 2: collect every inbox. Returns are independent (the mesh is
  // already drained by the time a worker replies), so each pool worker
  // receives into its own rank's frame slot.
  std::vector<wire::Frame> frames(n);
  pool_->run([&](int r) {
    const auto rank = static_cast<std::size_t>(r);
    try {
      frames[rank] = wire::recv_frame(mesh_->workers[rank].ctrl.fd(),
                                      config_.timeout_ms,
                                      "inbox from rank " + std::to_string(r));
    } catch (const wire::WireError& err) {
      errors[rank] = err.what();
    }
  });
  check_phase(errors);

  // Validation stays serial.
  wire::Tally tally;
  Inboxes inboxes(n);
  for (int r = 0; r < ranks_; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    wire::Frame& frame = frames[rank];
    if (frame.kind != wire::FrameKind::Inbox || frame.src != r)
      wire_failed(r, "unexpected frame kind on the control channel");
    if (frame.receives.size() != receives[rank].size())
      wire_failed(r, "inbox holds " + std::to_string(frame.receives.size()) +
                         " messages where " +
                         std::to_string(receives[rank].size()) +
                         " were sent");
    for (const Descriptor& d : frame.receives) {
      if (d.dst != r) wire_failed(r, "misrouted message in inbox");
    }
    // Outbox frame, the worker-reported mesh traffic, and the Inbox frame.
    tally += tallies[rank];
    tally += frame.reported;
    tally.bytes += frame.frame_bytes;
    inboxes[rank] = std::move(frame.receives);
  }
  wire_.wire_bytes += tally.bytes;
  wire_.wire_msgs += tally.msgs;
  broken_ = false;
  return inboxes;
}

void ProcBackend::kill_worker(int rank) {
  HPFC_ASSERT(rank >= 0 && rank < ranks_);
  ProcMesh::Worker& worker = mesh_->workers[static_cast<std::size_t>(rank)];
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

pid_t ProcBackend::worker_pid(int rank) const {
  HPFC_ASSERT(rank >= 0 && rank < ranks_);
  return mesh_->workers[static_cast<std::size_t>(rank)].pid;
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

/// Busiest-rank load net::account_flows would charge for `table`.
void busiest_load(std::span<const ArenaMessage> table, int ranks,
                  double& msgs, double& bytes) {
  std::vector<std::uint64_t> m(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> b(static_cast<std::size_t>(ranks), 0);
  for (const ArenaMessage& msg : table) {
    if (msg.src == msg.dst) continue;
    const std::uint64_t nbytes = msg.elements * sizeof(double);
    m[static_cast<std::size_t>(msg.src)] += 1;
    b[static_cast<std::size_t>(msg.src)] += nbytes;
    m[static_cast<std::size_t>(msg.dst)] += 1;
    b[static_cast<std::size_t>(msg.dst)] += nbytes;
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

/// A probe superstep: `pairs` messages of `doubles` elements each, laid
/// out as the runtime lays a round out — every out-slot, then every
/// in-slot.
std::vector<ArenaMessage> probe_table(
    const std::vector<std::pair<int, int>>& pairs, std::uint64_t doubles) {
  std::vector<ArenaMessage> table;
  const std::uint64_t total = pairs.size() * doubles;
  for (const auto& [src, dst] : pairs) {
    const std::uint64_t at = table.size() * doubles;
    table.push_back({src, dst, 0, 1, doubles, at, total + at});
  }
  return table;
}

std::vector<ArenaMessage> pair_pattern(std::uint64_t doubles) {
  return probe_table({{0, 1}}, doubles);
}

std::vector<ArenaMessage> all_to_all_pattern(int ranks,
                                             std::uint64_t doubles) {
  std::vector<std::pair<int, int>> pairs;
  for (int src = 0; src < ranks; ++src)
    for (int dst = 0; dst < ranks; ++dst)
      if (dst != src) pairs.emplace_back(src, dst);
  return probe_table(pairs, doubles);
}

}  // namespace

Calibration calibrate_wire(int ranks, ProcConfig config, int rounds) {
  ranks = std::max(2, ranks);
  rounds = std::max(3, rounds);
  ProcBackend backend(ranks, config);

  // Probe patterns spanning the (msgs, bytes) plane: point-to-point
  // round-trips give alpha leverage (tiny payloads, cost dominated by
  // per-message overhead), all-to-all sweeps at graded payload sizes
  // give beta leverage. Medians over `rounds` reject scheduler noise.
  // The payloads are timed through the arena exchange the runtime uses;
  // their values do not matter, so the probes leave the arena as is.
  struct Probe {
    bool all_to_all;
    std::uint64_t doubles;
  };
  const Probe probes[] = {
      {false, 8},     {false, 4096}, {false, 131072},
      {true, 64},     {true, 8192},  {true, 65536},
  };
  std::vector<std::vector<ArenaMessage>> tables;
  std::size_t arena = 0;
  for (const Probe& probe : probes) {
    tables.push_back(probe.all_to_all
                         ? all_to_all_pattern(ranks, probe.doubles)
                         : pair_pattern(probe.doubles));
    arena = std::max(arena, 2 * tables.back().size() *
                                static_cast<std::size_t>(probe.doubles));
  }
  // Size the arena once, then warm the wire (fault in every page the
  // probes touch, and the code) before timing.
  const std::span<double> memory = backend.arena(arena);
  std::fill(memory.begin(), memory.begin() + static_cast<std::ptrdiff_t>(arena),
            1.0);
  for (const auto& table : tables) (void)backend.exchange(table);

  std::vector<WireSample> samples;
  for (const auto& table : tables) {
    WireSample sample;
    busiest_load(table, ranks, sample.msgs, sample.bytes);
    std::vector<double> walls;
    walls.reserve(static_cast<std::size_t>(rounds));
    for (int i = 0; i < rounds; ++i) {
      const auto start = std::chrono::steady_clock::now();
      (void)backend.exchange(table);
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
