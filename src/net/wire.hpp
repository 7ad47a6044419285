// Wire framing for the real-process execution backend: checksummed frames
// of message descriptors moved over byte-stream sockets (AF_UNIX
// socketpairs).
//
// Payloads live in the proc backend's shared payload arena (a memfd that
// the controller and every worker map, exec/proc_backend.hpp), so a frame
// names each message by a Descriptor: its route, tag, segment count,
// element count and element offset in the arena. Control frames (Outbox,
// Inbox, Shutdown) carry descriptors only. The worker-to-worker Peer
// frame is the one frame that carries payload bytes, and it carries them
// the one hop they travel: gather-sent straight out of the source
// worker's arena out-slots and scatter-received straight into the
// in-slots the destination worker names.
//
// The layer is deliberately dumb: it knows how to create a connected
// stream pair, how to gather-send and scatter-receive a frame (one
// encoder, one decoder; every frame kind has the same body layout), and
// how to move exact byte counts with a bounded deadline. Everything
// protocol-shaped (which rank sends what when, which descriptors are
// valid) lives in exec::ProcBackend. All sockets are non-blocking;
// send_all/recv_all poll with a deadline so a dead or wedged peer
// surfaces as a WireError diagnostic instead of a hang.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/fnv.hpp"

namespace hpfc::net::wire {

/// Thrown when the wire fails: a peer closed the connection, an
/// operation exceeded its deadline, or a frame arrived corrupted.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// RAII owner of a socket file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Creates a connected bidirectional byte-stream pair (an AF_UNIX
/// socketpair). Both ends are non-blocking.
std::pair<Socket, Socket> make_stream_pair();

enum class FrameKind : std::uint16_t {
  Outbox = 1,    ///< controller -> worker: the rank's out- and in-slots
  Peer = 2,      ///< worker -> worker: one (src, dst) hop, with payloads
  Inbox = 3,     ///< worker -> controller: the in-slots the rank filled
  Shutdown = 6,  ///< controller -> worker: exit cleanly (no descriptors)
};

/// Sender rank placed in frame headers by the controlling process.
inline constexpr int kControllerRank = 0xFFFF;

/// Serialized frame header size (magic, kind, src, body size, checksum).
inline constexpr std::size_t kHeaderBytes = 24;
/// Every body opens with its send and receive counts; an Inbox body
/// follows them with the worker's tally (bytes, messages).
inline constexpr std::size_t kCountsBytes = 4 + 4;
inline constexpr std::size_t kTallyBytes = 8 + 8;
/// Serialized descriptor size (src, dst, tag, segments, elements, offset).
inline constexpr std::size_t kDescriptorBytes = 4 * 4 + 8 + 8;
/// Serialized size of a Peer frame's send record: its tag and element
/// count. The header names the source, the receiving worker is the
/// destination, and each end keeps its own arena offsets, so the rest of
/// the descriptor never travels with the payload.
inline constexpr std::size_t kPeerRecordBytes = 4 + 8;

/// One message as the wire names it: its route, its tag and segment
/// count, and where its `elements` doubles lie in the payload arena.
struct Descriptor {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t tag = 0;
  std::int32_t segments = 0;
  std::uint64_t elements = 0;
  std::uint64_t offset = 0;  ///< element offset into the payload arena

  friend bool operator==(const Descriptor&, const Descriptor&) = default;
};

/// Bytes moved over a socket and payload messages carried, accumulated
/// by the send helpers (a payload message counts once per hop it is
/// serialized onto; control-frame descriptors carry no payload and count
/// as bytes only).
struct Tally {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;

  Tally& operator+=(const Tally& other) {
    bytes += other.bytes;
    msgs += other.msgs;
    return *this;
  }
};

/// A decoded frame. Every kind has the same body: the counts (and the
/// tally in an Inbox frame), the sends — descriptors, or in a Peer frame
/// records each followed by its payload — then the receive descriptors.
struct Frame {
  FrameKind kind = FrameKind::Shutdown;
  int src = -1;
  /// Outbox: the rank's messages and their out-slots; Peer: the hop's
  /// messages as their records carry them — the frame's src, the tag and
  /// the element count, with dst -1 and segments and offset 0.
  std::vector<Descriptor> sends;
  /// Outbox: the rank's incoming messages and their in-slots; Inbox: the
  /// in-slots the worker filled, in (src, emission) order.
  std::vector<Descriptor> receives;
  Tally reported;                 ///< Inbox only: the worker's mesh tally
  std::uint64_t frame_bytes = 0;  ///< on-wire size (header + body)
};

/// Encodes a complete frame (header + body) into one flat buffer. In a
/// Peer frame each send's payload is read from
/// `payloads[offset, offset + elements)`; other kinds carry no payload
/// and ignore `payloads`. `reported` rides along in Inbox frames so
/// workers can surface their mesh-phase traffic to the controller. The
/// wire sends with encode_frame_gather; this flat form is its test
/// reference.
std::vector<std::uint8_t> encode_frame(FrameKind kind, int src,
                                       std::span<const Descriptor> sends,
                                       std::span<const Descriptor> receives,
                                       const double* payloads = nullptr,
                                       const Tally& reported = {});
/// Decodes a header; throws WireError on a bad magic.
void decode_header(std::span<const std::uint8_t> header, FrameKind& kind,
                   int& src, std::uint64_t& body_bytes,
                   std::uint64_t& checksum);

/// The frame-body integrity checksum: FNV-1a a 64-bit word at a time
/// with a byte-wise sub-word tail (FnvWordFold, support/fnv.hpp). The
/// gather encoder and the scatter decoder fold a body in pieces, which
/// yields the same value as one contiguous pass, so neither ever
/// materializes the body.
std::uint64_t checksum_bytes(std::span<const std::uint8_t> data);

/// A frame encoded for gather sending: every non-payload byte (the
/// header, the body prefix, the descriptors and records) lives in `meta`,
/// and `iov`
/// lists the frame's on-wire chunks in order — slices of `meta`
/// interleaved, in a Peer frame, with the payload bytes in place.
/// writev-ing the chunks puts byte-for-byte the same frame on the wire
/// as encode_frame (same body, same checksum) without copying a single
/// payload double. The payload memory must outlive the send.
struct GatherFrame {
  std::vector<std::uint8_t> meta;
  std::vector<::iovec> iov;  ///< points into `meta` and the payloads
  std::uint64_t bytes = 0;   ///< total on-wire size (header + body)
  std::uint64_t msgs = 0;    ///< payload messages framed (Peer sends)
};

/// Gather-encodes a frame (the zero-copy encode_frame).
GatherFrame encode_frame_gather(FrameKind kind, int src,
                                std::span<const Descriptor> sends,
                                std::span<const Descriptor> receives,
                                const double* payloads = nullptr,
                                const Tally& reported = {});

/// Progress of a GatherFrame onto the wire, for poll-driven senders that
/// interleave many frames (the worker mesh).
struct GatherCursor {
  std::size_t chunk = 0;  ///< next iov entry
  std::size_t off = 0;    ///< bytes of that entry already written

  [[nodiscard]] bool done(const GatherFrame& frame) const {
    return chunk >= frame.iov.size();
  }
};

/// Drives one frame's non-blocking gather send forward (sendmsg with
/// MSG_NOSIGNAL) until the frame is fully written (returns true) or the
/// socket would block (returns false; poll POLLOUT and call again).
/// Throws WireError on a dead peer.
bool pump_gather_send(int fd, const GatherFrame& frame, GatherCursor& cursor,
                      const std::string& what);

/// Sends one gather frame completely, polling with a deadline
/// (send_all's rules), and accounts it into `tally` when non-null.
void send_gather_frame(int fd, const GatherFrame& frame, int timeout_ms,
                       const std::string& what, Tally* tally);

/// Where a Peer frame's payloads land: called with each send (as Frame
/// decodes it), in frame order, as soon as it is decoded (before any of
/// its payload bytes arrive), it returns the window of exactly
/// `elements` doubles the payload goes to, or throws WireError to refuse
/// the message.
using Lander = std::function<std::span<double>(const Descriptor&)>;

/// Incremental scatter decoder for one frame body — the only frame
/// decoder: bytes are landed where window() points — payloads STRAIGHT
/// into the window the Lander names, descriptors into a tiny internal
/// scratch — and advance() folds them into the running checksum and
/// steps the parse. No staging buffer, no decode copy. The checksum is
/// only known at the end of the body, so every count and length read
/// before then is bounded by the bytes the body has left.
class BodyScatterDecoder {
 public:
  /// Arms the decoder for a frame whose header was just decoded. `land`
  /// places a Peer frame's payloads; a Peer frame with a payload and no
  /// lander is malformed.
  void reset(FrameKind kind, int src, std::uint64_t body_bytes,
             std::uint64_t expected_checksum, Lander land = {});
  [[nodiscard]] bool done() const { return state_ == State::Done; }
  /// The next landing area; non-empty while !done().
  [[nodiscard]] std::span<std::uint8_t> window();
  /// Commits `n` bytes written at window().data(). Throws WireError on a
  /// malformed body (a descriptor count or payload length larger than
  /// the rest of the body, trailing bytes) or a payload the lander
  /// refuses.
  void advance(std::size_t n);
  /// Valid once done(): the accumulated checksum matched the header's.
  [[nodiscard]] bool checksum_ok() const;
  /// Verifies the checksum and moves the decoded frame out.
  Frame take(const std::string& what);

 private:
  enum class State { Prefix, Descriptor, Payload, Done };

  /// Opens the next descriptor piece, or finishes the body.
  void open_next();

  State state_ = State::Done;
  Frame frame_;
  Lander land_;
  std::uint64_t body_left_ = 0;
  std::uint64_t expected_checksum_ = 0;
  FnvWordFold fold_;
  std::uint32_t sends_left_ = 0;
  std::uint32_t receives_left_ = 0;
  std::uint8_t scratch_[kDescriptorBytes] = {};
  std::span<std::uint8_t> payload_;  ///< the open payload's window
  std::size_t need_ = 0;             ///< bytes of the open piece
  std::size_t pos_ = 0;              ///< bytes landed of the open piece
};

/// Writes exactly `size` bytes, polling with a deadline; `timeout_ms < 0`
/// waits forever. Throws WireError on timeout or a closed peer.
void send_all(int fd, const void* data, std::size_t size, int timeout_ms,
              const std::string& what);
/// Reads exactly `size` bytes under the same deadline rules.
void recv_all(int fd, void* data, std::size_t size, int timeout_ms,
              const std::string& what);

/// Receives one frame, parsed as it arrives (BodyScatterDecoder): a Peer
/// frame's payload bytes go straight from the socket to where `land`
/// says. recv_all's deadline rules; throws WireError on a malformed body
/// or a checksum mismatch.
Frame recv_frame(int fd, int timeout_ms, const std::string& what,
                 Lander land = {});

}  // namespace hpfc::net::wire
