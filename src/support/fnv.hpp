// FNV-1a, byte-wise and a 64-bit word at a time, and the streaming word
// fold that both checksummed byte streams use: the journal's record
// payloads (persist/journal) and the proc backend's frame bodies
// (net/wire). Whole words fold with one XOR-multiply per 8 bytes, across
// the boundaries of the pieces a stream arrives in, and the sub-word tail
// folds byte-wise at finish(), so a stream fed in any split checksums
// exactly like the same bytes fed in one piece.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpfc {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte range, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t len,
                                  std::uint64_t h = kFnvOffset);

/// FNV-1a folding `n_words` native-endian 64-bit words, one XOR-multiply
/// per word — 8x fewer multiplies than the byte loop on bulk data. The
/// words are read with memcpy, so `data` need not be aligned.
[[nodiscard]] std::uint64_t fnv1a_words(const void* data, std::size_t n_words,
                                        std::uint64_t h = kFnvOffset);

/// The streaming word fold: update() with the stream's pieces in order,
/// then finish(). Equals fnv1a_words over the stream's whole words
/// followed by fnv1a over its last (size mod 8) bytes, starting from
/// `seed`.
class FnvWordFold {
 public:
  explicit FnvWordFold(std::uint64_t seed = kFnvOffset) : h_(seed) {}

  void update(const void* data, std::size_t len);
  [[nodiscard]] std::uint64_t finish() const;

 private:
  std::uint64_t h_;
  std::uint8_t pending_[8] = {};
  std::size_t pending_len_ = 0;
};

}  // namespace hpfc
