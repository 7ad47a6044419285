// Flat reference walks for the periodic programs. The runtime compiles a
// rank's ownership and a transfer's copy list in closed form
// (mapping::ConcreteLayout::owned_program, redist::compile_transfer); the
// walks here enumerate the same stretches one period window at a time,
// so the property tests can assert that every periodic program expands
// to exactly the flat list.
#pragma once

#include <span>
#include <vector>

#include "mapping/layout.hpp"
#include "mapping/runs.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"

namespace hpfc::testing {

/// The member set of `runs` as maximal arithmetic progressions, in
/// ascending order: consecutive run instances that continue one
/// progression (a single member, or the same stride) come out as one run,
/// whose `offset` is the absolute first member. No two consecutive
/// results together form one progression. Walks every window.
std::vector<mapping::IndexRun> stretches_of(const mapping::IndexRuns& runs);

/// The flat stretch list of `rank`'s owned set in local order: outer
/// dimensions member by member, the innermost as stretches_of per row.
std::vector<mapping::OwnedRun> owned_stretches(
    const mapping::ConcreteLayout& layout, int rank);

/// The flat segment list of `transfer` (the expansion compile_transfer
/// must reproduce): every window of every dimension is decomposed and
/// pushed through the coalescing rule one segment at a time.
std::vector<redist::CopySegment> flat_segments(
    const redist::TransferV2& transfer,
    std::span<const mapping::IndexRuns> src_owned,
    std::span<const mapping::IndexRuns> dst_owned);

}  // namespace hpfc::testing
