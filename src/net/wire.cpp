#include "net/wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "support/check.hpp"

namespace hpfc::net::wire {

namespace {

constexpr std::uint32_t kMagic = 0x48504657;  // "HPFW"

using Clock = std::chrono::steady_clock;

[[noreturn]] void wire_fail(const std::string& what, const std::string& why) {
  throw WireError("wire: " + what + ": " + why);
}

/// Milliseconds left before `deadline`; -1 when there is no deadline.
int remaining_ms(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

void await(int fd, short events, bool bounded, Clock::time_point deadline,
           const std::string& what) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int left = remaining_ms(bounded, deadline);
    if (bounded && left == 0) wire_fail(what, "timed out");
    const int ready = ::poll(&pfd, 1, left);
    if (ready > 0) return;  // readable/writable, or HUP/ERR -> next I/O op
    if (ready == 0) wire_fail(what, "timed out");
    if (errno != EINTR) wire_fail(what, std::strerror(errno));
  }
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

template <typename T>
void append_value(std::vector<std::uint8_t>& out, T value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
T read_value(std::span<const std::uint8_t>& in, const char* what) {
  if (in.size() < sizeof(T)) wire_fail(what, "truncated frame body");
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

void set_nonblocking(int fd) {
  // O_NONBLOCK via fcntl, so poll-driven loops never wedge in a syscall.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HPFC_ASSERT_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "cannot make socket non-blocking");
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Socket, Socket> make_stream_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    wire_fail("socketpair", std::strerror(errno));
  std::pair<Socket, Socket> pair{Socket(fds[0]), Socket(fds[1])};
  set_nonblocking(pair.first.fd());
  set_nonblocking(pair.second.fd());
  return pair;
}

std::uint64_t checksum_bytes(std::span<const std::uint8_t> data) {
  FnvWordFold fold;
  fold.update(data.data(), data.size());
  return fold.finish();
}

namespace {

void append_header(std::vector<std::uint8_t>& out, FrameKind kind, int src,
                   std::uint64_t body_bytes, std::uint64_t checksum) {
  append_value<std::uint32_t>(out, kMagic);
  append_value<std::uint16_t>(out, static_cast<std::uint16_t>(kind));
  append_value<std::uint16_t>(out, static_cast<std::uint16_t>(src));
  append_value<std::uint64_t>(out, body_bytes);
  append_value<std::uint64_t>(out, checksum);
}

}  // namespace

namespace {

/// Body prefix size of a frame kind: the counts, and the tally in Inbox
/// frames.
constexpr std::size_t prefix_bytes(FrameKind kind) {
  return kCountsBytes + (kind == FrameKind::Inbox ? kTallyBytes : 0);
}

/// Serialized size of one send of a frame kind, payload excluded: a Peer
/// record, or a full descriptor.
constexpr std::size_t send_bytes(FrameKind kind) {
  return kind == FrameKind::Peer ? kPeerRecordBytes : kDescriptorBytes;
}

void append_descriptor(std::vector<std::uint8_t>& out, const Descriptor& d) {
  append_value<std::int32_t>(out, d.src);
  append_value<std::int32_t>(out, d.dst);
  append_value<std::int32_t>(out, d.tag);
  append_value<std::int32_t>(out, d.segments);
  append_value<std::uint64_t>(out, d.elements);
  append_value<std::uint64_t>(out, d.offset);
}

void append_prefix(std::vector<std::uint8_t>& out, FrameKind kind,
                   const Tally& reported, std::size_t sends,
                   std::size_t receives) {
  append_value<std::uint32_t>(out, static_cast<std::uint32_t>(sends));
  append_value<std::uint32_t>(out, static_cast<std::uint32_t>(receives));
  if (kind != FrameKind::Inbox) return;
  append_value<std::uint64_t>(out, reported.bytes);
  append_value<std::uint64_t>(out, reported.msgs);
}

/// One send as `kind` serializes it: a Peer record or a descriptor.
void append_send(std::vector<std::uint8_t>& out, FrameKind kind,
                 const Descriptor& d) {
  if (kind != FrameKind::Peer) {
    append_descriptor(out, d);
    return;
  }
  append_value<std::int32_t>(out, d.tag);
  append_value<std::uint64_t>(out, d.elements);
}

/// The payload bytes a send carries: its arena window in a Peer frame,
/// nothing in any other frame kind.
[[nodiscard]] std::span<const std::uint8_t> payload_bytes(
    FrameKind kind, const Descriptor& d, const double* payloads) {
  if (kind != FrameKind::Peer || d.elements == 0) return {};
  HPFC_ASSERT_MSG(payloads != nullptr, "Peer frame without payload memory");
  return {reinterpret_cast<const std::uint8_t*>(payloads + d.offset),
          d.elements * sizeof(double)};
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameKind kind, int src,
                                       std::span<const Descriptor> sends,
                                       std::span<const Descriptor> receives,
                                       const double* payloads,
                                       const Tally& reported) {
  std::vector<std::uint8_t> body;
  append_prefix(body, kind, reported, sends.size(), receives.size());
  for (const Descriptor& d : sends) {
    append_send(body, kind, d);
    const auto payload = payload_bytes(kind, d, payloads);
    append_bytes(body, payload.data(), payload.size());
  }
  for (const Descriptor& d : receives) append_descriptor(body, d);
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + body.size());
  append_header(frame, kind, src, body.size(), checksum_bytes(body));
  append_bytes(frame, body.data(), body.size());
  return frame;
}

GatherFrame encode_frame_gather(FrameKind kind, int src,
                                std::span<const Descriptor> sends,
                                std::span<const Descriptor> receives,
                                const double* payloads,
                                const Tally& reported) {
  GatherFrame frame;
  const std::size_t meta_bytes = kHeaderBytes + prefix_bytes(kind) +
                                 sends.size() * send_bytes(kind) +
                                 receives.size() * kDescriptorBytes;
  std::uint64_t body_bytes = meta_bytes - kHeaderBytes;
  for (const Descriptor& d : sends) {
    const auto payload = payload_bytes(kind, d, payloads);
    body_bytes += payload.size();
    if (kind == FrameKind::Peer) ++frame.msgs;
  }
  frame.bytes = kHeaderBytes + body_bytes;

  // All non-payload bytes in wire order, header space first (filled once
  // the checksum is known). Reserved up front so the offsets recorded
  // below survive — iov pointers are taken only after meta stops growing.
  auto& meta = frame.meta;
  meta.reserve(meta_bytes);
  meta.resize(kHeaderBytes);
  append_prefix(meta, kind, reported, sends.size(), receives.size());
  // Meta-chunk boundaries: chunk i ends where send i's payload cuts in.
  std::vector<std::size_t> cuts;
  cuts.reserve(sends.size());
  for (const Descriptor& d : sends) {
    append_send(meta, kind, d);
    cuts.push_back(meta.size());
  }
  for (const Descriptor& d : receives) append_descriptor(meta, d);

  // The body checksum walks the logical body — meta slices interleaved
  // with payloads — yielding exactly encode_frame's value.
  FnvWordFold fold;
  std::size_t prev = kHeaderBytes;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    fold.update(meta.data() + prev, cuts[i] - prev);
    const auto payload = payload_bytes(kind, sends[i], payloads);
    fold.update(payload.data(), payload.size());
    prev = cuts[i];
  }
  fold.update(meta.data() + prev, meta.size() - prev);

  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  append_header(header, kind, src, body_bytes, fold.finish());
  std::memcpy(meta.data(), header.data(), kHeaderBytes);

  // On-wire chunks: [header + prefix + send 0], payload 0, [send 1],
  // payload 1, ..., [receives] — empty payloads add no entry.
  frame.iov.reserve(1 + 2 * sends.size());
  prev = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const auto payload = payload_bytes(kind, sends[i], payloads);
    if (payload.empty()) continue;  // the meta chunk runs on
    frame.iov.push_back(::iovec{meta.data() + prev, cuts[i] - prev});
    frame.iov.push_back(
        ::iovec{const_cast<std::uint8_t*>(payload.data()), payload.size()});
    prev = cuts[i];
  }
  if (prev < meta.size())
    frame.iov.push_back(::iovec{meta.data() + prev, meta.size() - prev});
  return frame;
}

bool pump_gather_send(int fd, const GatherFrame& frame, GatherCursor& cursor,
                      const std::string& what) {
  constexpr std::size_t kBatch = 64;  // far below any IOV_MAX
  while (!cursor.done(frame)) {
    ::iovec batch[kBatch];
    std::size_t count = 0;
    for (std::size_t c = cursor.chunk;
         c < frame.iov.size() && count < kBatch; ++c, ++count) {
      batch[count] = frame.iov[c];
      if (c == cursor.chunk) {
        batch[count].iov_base =
            static_cast<std::uint8_t*>(batch[count].iov_base) + cursor.off;
        batch[count].iov_len -= cursor.off;
      }
    }
    ::msghdr mh{};
    mh.msg_iov = batch;
    mh.msg_iovlen = count;
    // MSG_NOSIGNAL: a dead peer must yield EPIPE, not kill the process.
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      auto left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t avail =
            frame.iov[cursor.chunk].iov_len - cursor.off;
        if (left >= avail) {
          left -= avail;
          ++cursor.chunk;
          cursor.off = 0;
        } else {
          cursor.off += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n < 0 && errno == EINTR) continue;
    wire_fail(what, n < 0 ? std::strerror(errno) : "peer closed");
  }
  return true;
}

void send_gather_frame(int fd, const GatherFrame& frame, int timeout_ms,
                       const std::string& what, Tally* tally) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  GatherCursor cursor;
  while (!pump_gather_send(fd, frame, cursor, what))
    await(fd, POLLOUT, bounded, deadline, what);
  if (tally != nullptr) {
    tally->bytes += frame.bytes;
    tally->msgs += frame.msgs;
  }
}

void decode_header(std::span<const std::uint8_t> header, FrameKind& kind,
                   int& src, std::uint64_t& body_bytes,
                   std::uint64_t& checksum) {
  HPFC_ASSERT(header.size() == kHeaderBytes);
  std::span<const std::uint8_t> in = header;
  if (read_value<std::uint32_t>(in, "header") != kMagic)
    throw WireError("wire: bad frame magic (stream out of sync?)");
  kind = static_cast<FrameKind>(read_value<std::uint16_t>(in, "header"));
  src = read_value<std::uint16_t>(in, "header");
  body_bytes = read_value<std::uint64_t>(in, "header");
  checksum = read_value<std::uint64_t>(in, "header");
}

void send_all(int fd, const void* data, std::size_t size, int timeout_ms,
              const std::string& what) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a dead peer must yield EPIPE, not kill the process.
    const ssize_t n =
        ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      await(fd, POLLOUT, bounded, deadline, what);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    wire_fail(what, n < 0 ? std::strerror(errno) : "peer closed");
  }
}

void recv_all(int fd, void* data, std::size_t size, int timeout_ms,
              const std::string& what) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, bytes + received, size - received, 0);
    if (n > 0) {
      received += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) wire_fail(what, "peer closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      await(fd, POLLIN, bounded, deadline, what);
      continue;
    }
    if (errno != EINTR) wire_fail(what, std::strerror(errno));
  }
}

void BodyScatterDecoder::reset(FrameKind kind, int src,
                               std::uint64_t body_bytes,
                               std::uint64_t expected_checksum, Lander land) {
  frame_ = Frame{};
  frame_.kind = kind;
  frame_.src = src;
  frame_.frame_bytes = kHeaderBytes + body_bytes;
  land_ = std::move(land);
  body_left_ = body_bytes;
  expected_checksum_ = expected_checksum;
  fold_ = FnvWordFold();
  sends_left_ = receives_left_ = 0;
  payload_ = {};
  if (body_bytes < prefix_bytes(kind))
    throw WireError("wire: truncated frame body");
  need_ = prefix_bytes(kind);
  pos_ = 0;
  state_ = State::Prefix;
}

std::span<std::uint8_t> BodyScatterDecoder::window() {
  switch (state_) {
    case State::Prefix:
    case State::Descriptor:
      return {scratch_ + pos_, need_ - pos_};
    case State::Payload:
      return payload_.subspan(pos_);
    case State::Done:
      return {};
  }
  return {};
}

void BodyScatterDecoder::open_next() {
  if (sends_left_ == 0 && receives_left_ == 0) {
    if (body_left_ != 0)
      throw WireError("wire: trailing bytes after frame body");
    state_ = State::Done;
    return;
  }
  need_ = sends_left_ > 0 ? send_bytes(frame_.kind) : kDescriptorBytes;
  if (body_left_ < need_) throw WireError("wire: truncated frame body");
  state_ = State::Descriptor;
  pos_ = 0;
}

void BodyScatterDecoder::advance(std::size_t n) {
  HPFC_ASSERT_MSG(state_ != State::Done, "advance on a completed frame body");
  const auto landed = window().subspan(0, n);
  fold_.update(landed.data(), landed.size());
  HPFC_ASSERT(n <= body_left_);
  body_left_ -= n;
  pos_ += n;
  if (pos_ < need_) return;  // wait for the rest of the piece
  // A piece completed: parse it and open the next one.
  switch (state_) {
    case State::Prefix: {
      std::span<const std::uint8_t> in(scratch_, need_);
      sends_left_ = read_value<std::uint32_t>(in, "frame");
      receives_left_ = read_value<std::uint32_t>(in, "frame");
      if (frame_.kind == FrameKind::Inbox) {
        frame_.reported.bytes = read_value<std::uint64_t>(in, "frame");
        frame_.reported.msgs = read_value<std::uint64_t>(in, "frame");
      }
      // Unverified until the checksum: bound the counts by the body
      // before reserving anything.
      if (std::uint64_t{sends_left_} * send_bytes(frame_.kind) +
              std::uint64_t{receives_left_} * kDescriptorBytes >
          body_left_)
        throw WireError("wire: descriptor count exceeds frame body");
      frame_.sends.reserve(sends_left_);
      frame_.receives.reserve(receives_left_);
      break;
    }
    case State::Descriptor: {
      std::span<const std::uint8_t> in(scratch_, need_);
      Descriptor d;
      if (sends_left_ > 0 && frame_.kind == FrameKind::Peer) {
        d.src = frame_.src;
        d.dst = -1;
        d.tag = read_value<std::int32_t>(in, "frame");
        d.elements = read_value<std::uint64_t>(in, "frame");
      } else {
        d.src = read_value<std::int32_t>(in, "frame");
        d.dst = read_value<std::int32_t>(in, "frame");
        d.tag = read_value<std::int32_t>(in, "frame");
        d.segments = read_value<std::int32_t>(in, "frame");
        d.elements = read_value<std::uint64_t>(in, "frame");
        d.offset = read_value<std::uint64_t>(in, "frame");
      }
      if (sends_left_ == 0) {
        --receives_left_;
        frame_.receives.push_back(d);
        break;
      }
      --sends_left_;
      frame_.sends.push_back(d);
      if (frame_.kind != FrameKind::Peer) break;
      // Divide, not multiply: a corrupted length must not overflow.
      if (d.elements > body_left_ / sizeof(double))
        throw WireError("wire: truncated message payload");
      if (!land_) {
        if (d.elements == 0) break;
        throw WireError("wire: payload with nowhere to land");
      }
      // Every message goes through the lander, empty ones included, so
      // it sees the frame's messages in order.
      const std::span<double> target = land_(d);
      HPFC_ASSERT_MSG(target.size() == d.elements,
                      "a lander returned a window of the wrong size");
      if (target.empty()) break;
      payload_ = {reinterpret_cast<std::uint8_t*>(target.data()),
                  target.size() * sizeof(double)};
      state_ = State::Payload;
      need_ = payload_.size();
      pos_ = 0;
      return;  // wait for the payload bytes
    }
    case State::Payload:
      payload_ = {};
      break;
    case State::Done:
      return;
  }
  open_next();
}

bool BodyScatterDecoder::checksum_ok() const {
  return fold_.finish() == expected_checksum_;
}

Frame BodyScatterDecoder::take(const std::string& what) {
  HPFC_ASSERT_MSG(state_ == State::Done,
                  "take on an incomplete frame body");
  if (!checksum_ok())
    throw WireError("wire: " + what + ": frame checksum mismatch");
  return std::move(frame_);
}

Frame recv_frame(int fd, int timeout_ms, const std::string& what,
                 Lander land) {
  std::uint8_t header[kHeaderBytes];
  recv_all(fd, header, kHeaderBytes, timeout_ms, what);
  FrameKind kind;
  int src;
  std::uint64_t body_bytes;
  std::uint64_t expected;
  decode_header(std::span<const std::uint8_t>(header, kHeaderBytes), kind,
                src, body_bytes, expected);
  BodyScatterDecoder decoder;
  decoder.reset(kind, src, body_bytes, expected, std::move(land));
  while (!decoder.done()) {
    const auto window = decoder.window();
    recv_all(fd, window.data(), window.size(), timeout_ms, what);
    decoder.advance(window.size());
  }
  return decoder.take(what);
}

}  // namespace hpfc::net::wire
