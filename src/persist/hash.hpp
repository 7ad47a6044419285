// The snapshot hash tree over the versioned array store. The tree
// mirrors the store's structure:
//
//   leaf                 one body entry of one block of a rank's periodic
//                        ownership program (mapping::OwnedProgram): the
//                        entry's OwnedRun stretch repeated `reps` times,
//                        `local_step` apart — its reps × len element
//                        bytes in expansion order
//   rank hash            fold over the rank's leaf hashes, in program
//                        order (block by block, body entry by entry)
//   version hash         the (allocated, live) flags, then — when
//                        allocated — a fold over the rank hashes
//   array root           the array's runtime status, then a fold over its
//                        version hashes in version order
//
// Both the snapshot writer and the restore path compute the same tree
// from their own side of the journal, so "restored bit-identically" is
// checkable as root equality, and the roots are byte-identical across
// execution backends by the runtime's determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/fnv.hpp"

namespace hpfc::persist {

/// Folds one 64-bit value (a child hash or a scalar) into `h`.
[[nodiscard]] std::uint64_t fnv1a_u64(std::uint64_t value,
                                      std::uint64_t h = kFnvOffset);

/// Leaf hash of `len` contiguous doubles: a word-wise FNV-1a fold over
/// their bit patterns.
[[nodiscard]] std::uint64_t leaf_hash(const double* values, std::size_t len);

/// Leaf hash of a periodic leaf read in place: repetition k is the `len`
/// doubles at `values + k * step`, folded in repetition order. Equals
/// leaf_hash() of the same reps × len values laid out contiguously.
[[nodiscard]] std::uint64_t leaf_hash(const double* values, std::size_t len,
                                      std::size_t reps, std::size_t step);

/// Rank hash: fold over the rank's leaf hashes in program order.
[[nodiscard]] std::uint64_t rank_hash(const std::vector<std::uint64_t>& leaves);

/// Version hash: the storage flags, then each rank's hash in rank order.
/// An unallocated version hashes its flags only (`rank_hashes` ignored).
[[nodiscard]] std::uint64_t version_hash(
    bool allocated, bool live, const std::vector<std::uint64_t>& rank_hashes);

/// Array root: the runtime status descriptor, then every version hash in
/// version order.
[[nodiscard]] std::uint64_t array_root(
    int status, const std::vector<std::uint64_t>& version_hashes);

}  // namespace hpfc::persist
