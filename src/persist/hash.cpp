#include "persist/hash.hpp"

namespace hpfc::persist {

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= value & 0xffu;
    h *= kFnvPrime;
    value >>= 8;
  }
  return h;
}

std::uint64_t leaf_hash(const double* values, std::size_t len) {
  return fnv1a_words(values, len);
}

std::uint64_t leaf_hash(const double* values, std::size_t len,
                        std::size_t reps, std::size_t step) {
  if (step == len) return fnv1a_words(values, len * reps);
  std::uint64_t h = kFnvOffset;
  for (std::size_t k = 0; k < reps; ++k)
    h = fnv1a_words(values + k * step, len, h);
  return h;
}

std::uint64_t rank_hash(const std::vector<std::uint64_t>& leaves) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t leaf : leaves) h = fnv1a_u64(leaf, h);
  return h;
}

std::uint64_t version_hash(bool allocated, bool live,
                           const std::vector<std::uint64_t>& rank_hashes) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(allocated ? 1 : 0, h);
  h = fnv1a_u64(live ? 1 : 0, h);
  if (!allocated) return h;
  for (const std::uint64_t rank : rank_hashes) h = fnv1a_u64(rank, h);
  return h;
}

std::uint64_t array_root(int status,
                         const std::vector<std::uint64_t>& version_hashes) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(status)),
                h);
  for (const std::uint64_t version : version_hashes) h = fnv1a_u64(version, h);
  return h;
}

}  // namespace hpfc::persist
