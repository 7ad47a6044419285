#include "support/fnv.hpp"

#include <algorithm>
#include <cstring>

namespace hpfc {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_words(const void* data, std::size_t n_words,
                          std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n_words; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i * sizeof(word), sizeof(word));
    h ^= word;
    h *= kFnvPrime;
  }
  return h;
}

void FnvWordFold::update(const void* data, std::size_t len) {
  if (len == 0) return;  // `data` may be null then
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (pending_len_ > 0) {
    const std::size_t take = std::min(len, 8 - pending_len_);
    std::memcpy(pending_ + pending_len_, bytes, take);
    pending_len_ += take;
    bytes += take;
    len -= take;
    if (pending_len_ < 8) return;
    h_ = fnv1a_words(pending_, 1, h_);
    pending_len_ = 0;
  }
  const std::size_t words = len / 8;
  h_ = fnv1a_words(bytes, words, h_);
  pending_len_ = len - words * 8;
  std::memcpy(pending_, bytes + words * 8, pending_len_);
}

std::uint64_t FnvWordFold::finish() const {
  return fnv1a(pending_, pending_len_, h_);
}

}  // namespace hpfc
