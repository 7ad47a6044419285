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

std::uint64_t checksum_init() {
  return 1469598103934665603ull;  // FNV-1a offset basis
}

std::uint64_t checksum_feed(std::uint64_t hash,
                            std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t checksum_bytes(std::span<const std::uint8_t> data) {
  return checksum_feed(checksum_init(), data);
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

std::vector<std::uint8_t> encode_frame(FrameKind kind, int src,
                                       std::span<const Message> messages,
                                       const Tally& reported) {
  std::vector<std::uint8_t> body;
  append_value<std::uint64_t>(body, reported.bytes);
  append_value<std::uint64_t>(body, reported.msgs);
  append_value<std::uint32_t>(body,
                              static_cast<std::uint32_t>(messages.size()));
  for (const Message& msg : messages) {
    append_value<std::int32_t>(body, msg.src);
    append_value<std::int32_t>(body, msg.dst);
    append_value<std::int32_t>(body, msg.tag);
    append_value<std::int32_t>(body, msg.segments);
    append_value<std::uint64_t>(body, msg.payload.size());
    append_bytes(body, msg.payload.data(),
                 msg.payload.size() * sizeof(double));
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + body.size());
  append_header(frame, kind, src, body.size(), checksum_bytes(body));
  append_bytes(frame, body.data(), body.size());
  return frame;
}

namespace {

/// Body-prefix and per-message metadata sizes of a message frame body
/// (see encode_frame): reported.bytes + reported.msgs + count, then
/// src/dst/tag/segments + payload length per message.
constexpr std::size_t kBodyPrefixBytes = 8 + 8 + 4;
constexpr std::size_t kMessageMetaBytes = 4 * 4 + 8;

[[nodiscard]] std::span<const std::uint8_t> payload_bytes(const Message& msg) {
  return {reinterpret_cast<const std::uint8_t*>(msg.payload.data()),
          msg.payload.size() * sizeof(double)};
}

}  // namespace

GatherFrame encode_frame_gather(FrameKind kind, int src,
                                std::span<const Message> messages,
                                const Tally& reported) {
  GatherFrame frame;
  frame.msgs = messages.size();
  std::uint64_t body_bytes = kBodyPrefixBytes;
  for (const Message& msg : messages)
    body_bytes += kMessageMetaBytes + msg.payload.size() * sizeof(double);
  frame.bytes = kHeaderBytes + body_bytes;

  // All non-payload bytes in wire order, header space first (filled once
  // the checksum is known). Reserved up front so the offsets recorded
  // below survive — iov pointers are taken only after meta stops growing.
  auto& meta = frame.meta;
  meta.reserve(kHeaderBytes + kBodyPrefixBytes +
               messages.size() * kMessageMetaBytes);
  meta.resize(kHeaderBytes);
  append_value<std::uint64_t>(meta, reported.bytes);
  append_value<std::uint64_t>(meta, reported.msgs);
  append_value<std::uint32_t>(meta,
                              static_cast<std::uint32_t>(messages.size()));
  // Meta-chunk boundaries: chunk i ends where message i's payload cuts in.
  std::vector<std::size_t> cuts;
  cuts.reserve(messages.size());
  for (const Message& msg : messages) {
    append_value<std::int32_t>(meta, msg.src);
    append_value<std::int32_t>(meta, msg.dst);
    append_value<std::int32_t>(meta, msg.tag);
    append_value<std::int32_t>(meta, msg.segments);
    append_value<std::uint64_t>(meta, msg.payload.size());
    cuts.push_back(meta.size());
  }

  // The body checksum walks the logical body — meta slices interleaved
  // with payloads — yielding exactly encode_frame's value.
  std::uint64_t hash = checksum_init();
  std::size_t prev = kHeaderBytes;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    hash = checksum_feed(
        hash, std::span<const std::uint8_t>(meta.data() + prev,
                                            cuts[i] - prev));
    hash = checksum_feed(hash, payload_bytes(messages[i]));
    prev = cuts[i];
  }
  hash = checksum_feed(hash, std::span<const std::uint8_t>(
                                 meta.data() + prev, meta.size() - prev));

  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  append_header(header, kind, src, body_bytes, hash);
  std::memcpy(meta.data(), header.data(), kHeaderBytes);

  // On-wire chunks: [header + prefix + msg 0 meta], payload 0,
  // [msg 1 meta], payload 1, ... — zero-length payloads add no entry.
  frame.iov.reserve(1 + 2 * messages.size());
  prev = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    frame.iov.push_back(::iovec{meta.data() + prev, cuts[i] - prev});
    const auto payload = payload_bytes(messages[i]);
    if (!payload.empty())
      frame.iov.push_back(
          ::iovec{const_cast<std::uint8_t*>(payload.data()), payload.size()});
    prev = cuts[i];
  }
  if (prev < meta.size() || frame.iov.empty())
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
                               std::uint64_t expected_checksum) {
  frame_ = Frame{};
  frame_.kind = kind;
  frame_.src = src;
  frame_.frame_bytes = kHeaderBytes + body_bytes;
  body_left_ = body_bytes;
  expected_checksum_ = expected_checksum;
  hash_ = checksum_init();
  msgs_left_ = 0;
  scratch_pos_ = 0;
  payload_pos_ = 0;
  if (body_bytes < kBodyPrefixBytes)
    throw WireError("wire: truncated frame body");
  scratch_need_ = kBodyPrefixBytes;
  state_ = State::Prefix;
}

std::span<std::uint8_t> BodyScatterDecoder::window() {
  switch (state_) {
    case State::Prefix:
    case State::Meta:
      return {scratch_ + scratch_pos_, scratch_need_ - scratch_pos_};
    case State::Payload: {
      auto& payload = frame_.messages.back().payload;
      return {reinterpret_cast<std::uint8_t*>(payload.data()) + payload_pos_,
              payload.size() * sizeof(double) - payload_pos_};
    }
    case State::Done:
      return {};
  }
  return {};
}

void BodyScatterDecoder::advance(std::size_t n) {
  const auto landed = window().subspan(0, n);
  hash_ = checksum_feed(hash_, landed);
  HPFC_ASSERT(n <= body_left_);
  body_left_ -= n;
  switch (state_) {
    case State::Prefix:
    case State::Meta:
      scratch_pos_ += n;
      if (scratch_pos_ < scratch_need_) return;
      break;
    case State::Payload:
      payload_pos_ += n;  // completeness is decided below
      break;
    case State::Done:
      HPFC_ASSERT_MSG(false, "advance on a completed frame body");
  }
  // A piece completed: parse it and open the next non-empty one.
  for (;;) {
    switch (state_) {
      case State::Prefix: {
        std::span<const std::uint8_t> in(scratch_, kBodyPrefixBytes);
        frame_.reported.bytes = read_value<std::uint64_t>(in, "frame");
        frame_.reported.msgs = read_value<std::uint64_t>(in, "frame");
        msgs_left_ = read_value<std::uint32_t>(in, "frame");
        // Unverified until the checksum: bound it by the body before
        // reserving anything.
        if (msgs_left_ > body_left_ / kMessageMetaBytes)
          throw WireError("wire: message count exceeds frame body");
        frame_.messages.reserve(msgs_left_);
        state_ = State::Meta;
        break;
      }
      case State::Meta: {
        if (scratch_pos_ == scratch_need_ && !frame_.messages.empty() &&
            scratch_need_ == kMessageMetaBytes) {
          // A metadata piece just filled: open its payload.
          std::span<const std::uint8_t> in(scratch_, kMessageMetaBytes);
          Message& msg = frame_.messages.back();
          msg.src = read_value<std::int32_t>(in, "frame");
          msg.dst = read_value<std::int32_t>(in, "frame");
          msg.tag = read_value<std::int32_t>(in, "frame");
          msg.segments = read_value<std::int32_t>(in, "frame");
          const auto doubles = read_value<std::uint64_t>(in, "frame");
          // Divide, not multiply: a corrupted length must not overflow.
          if (doubles > body_left_ / sizeof(double))
            throw WireError("wire: truncated message payload");
          msg.payload.resize(doubles);
          payload_pos_ = 0;
          --msgs_left_;
          state_ = State::Payload;
          break;
        }
        if (msgs_left_ == 0) {
          if (body_left_ != 0)
            throw WireError("wire: trailing bytes after frame body");
          state_ = State::Done;
          return;
        }
        if (body_left_ < kMessageMetaBytes)
          throw WireError("wire: truncated frame body");
        frame_.messages.emplace_back();
        scratch_pos_ = 0;
        scratch_need_ = kMessageMetaBytes;
        return;  // wait for the metadata bytes
      }
      case State::Payload: {
        auto& payload = frame_.messages.back().payload;
        if (payload_pos_ < payload.size() * sizeof(double))
          return;  // wait for the rest of the payload
        scratch_pos_ = scratch_need_ = 0;
        state_ = State::Meta;  // next message (or the end of the body)
        break;
      }
      case State::Done:
        return;
    }
  }
}

bool BodyScatterDecoder::checksum_ok() const {
  return hash_ == expected_checksum_;
}

Frame BodyScatterDecoder::take(const std::string& what) {
  HPFC_ASSERT_MSG(state_ == State::Done,
                  "take on an incomplete frame body");
  if (!checksum_ok())
    throw WireError("wire: " + what + ": frame checksum mismatch");
  return std::move(frame_);
}

Frame recv_frame_scatter(int fd, int timeout_ms, const std::string& what) {
  std::uint8_t header[kHeaderBytes];
  recv_all(fd, header, kHeaderBytes, timeout_ms, what);
  FrameKind kind;
  int src;
  std::uint64_t body_bytes;
  std::uint64_t expected;
  decode_header(std::span<const std::uint8_t>(header, kHeaderBytes), kind,
                src, body_bytes, expected);
  BodyScatterDecoder decoder;
  decoder.reset(kind, src, body_bytes, expected);
  while (!decoder.done()) {
    const auto window = decoder.window();
    recv_all(fd, window.data(), window.size(), timeout_ms, what);
    decoder.advance(window.size());
  }
  return decoder.take(what);
}

}  // namespace hpfc::net::wire
