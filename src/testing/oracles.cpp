#include "testing/oracles.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "support/check.hpp"

namespace hpfc::testing {

using mapping::Extent;
using mapping::Index;
using mapping::IndexRun;
using mapping::IndexRuns;
using mapping::OwnedRun;
using redist::CopySegment;
using redist::TransferV2;

std::vector<IndexRun> stretches_of(const IndexRuns& runs) {
  std::vector<IndexRun> out;
  IndexRun open{0, 1, 0};  // the progression being grown; empty at first
  // A single member's stride is free: it takes the gap to whatever
  // follows.
  runs.for_each_instance([&](Index start, Extent stride, Extent count) {
    const Extent gap = start - open.last();
    if (open.count == 1 && (count == 1 || stride == gap)) {
      open.stride = gap;
      open.count += count;
      return;
    }
    if (open.count > 1 && gap == open.stride &&
        (count == 1 || stride == open.stride)) {
      open.count += count;
      return;
    }
    if (open.count > 0) out.push_back(open);
    open = {start, count == 1 ? 1 : stride, count};
  });
  if (open.count > 0) out.push_back(open);
  return out;
}

std::vector<OwnedRun> owned_stretches(const mapping::ConcreteLayout& layout,
                                      int rank) {
  const mapping::Shape& shape = layout.array_shape();
  const int dims = shape.rank();
  if (dims == 0) return {OwnedRun{0, 0, 1, 1}};
  std::vector<OwnedRun> out;
  const auto runs = layout.owned_index_runs(rank);
  for (const auto& r : runs)
    if (r.empty()) return out;

  std::vector<Extent> shape_stride(static_cast<std::size_t>(dims), 1);
  for (int d = dims - 2; d >= 0; --d)
    shape_stride[static_cast<std::size_t>(d)] =
        shape_stride[static_cast<std::size_t>(d + 1)] * shape.extent(d + 1);
  std::vector<std::vector<Index>> outer;
  for (int d = 0; d + 1 < dims; ++d)
    outer.push_back(runs[static_cast<std::size_t>(d)].materialize());
  const std::vector<IndexRun> inner =
      stretches_of(runs[static_cast<std::size_t>(dims - 1)]);

  Index local = 0;
  std::vector<std::size_t> pos(outer.size(), 0);
  while (true) {
    Index base = 0;
    for (std::size_t d = 0; d < outer.size(); ++d)
      base += outer[d][pos[d]] * shape_stride[d];
    for (const IndexRun& s : inner) {
      out.push_back(OwnedRun{local, base + s.offset, s.stride, s.count});
      local += s.count;
    }
    int d = static_cast<int>(outer.size()) - 1;
    for (; d >= 0; --d) {
      if (++pos[static_cast<std::size_t>(d)] <
          outer[static_cast<std::size_t>(d)].size())
        break;
      pos[static_cast<std::size_t>(d)] = 0;
    }
    if (d < 0) break;
  }
  return out;
}

namespace {


/// One stretch of a dimension's member sequence over which the positions
/// within both owners' run sets advance with constant per-dimension steps.
struct DimPiece {
  Index src_pos0 = 0;
  Index dst_pos0 = 0;
  Extent src_step = 0;
  Extent dst_step = 0;
  Extent len = 0;
};

/// Position deltas over a member spacing `st` are constant when the owner
/// set is a full interval (positions are affine in the index) or when the
/// spacing covers whole owner periods (the phase is preserved, so the
/// member count of every stretch is the same).
bool affine_over(const mapping::IndexRuns& owner, Extent st) {
  return owner.full() || st % owner.period() == 0;
}

std::vector<DimPiece> decompose(const mapping::IndexRuns& x,
                                const mapping::IndexRuns& src,
                                const mapping::IndexRuns& dst) {
  std::vector<DimPiece> pieces;
  const Extent cnt = x.count();
  if (cnt == 0) return pieces;

  const auto piece_from = [&](Index start, Extent stride, Extent count) {
    const Index s0 = src.position_of(start);
    const Index d0 = dst.position_of(start);
    HPFC_ASSERT_MSG(s0 >= 0 && d0 >= 0,
                    "transfer element outside its owners' sets");
    if (count == 1) {
      pieces.push_back({s0, d0, 0, 0, 1});
      return;
    }
    const Index s1 = src.position_of(start + stride);
    const Index d1 = dst.position_of(start + stride);
    HPFC_ASSERT(s1 >= 0 && d1 >= 0);
    pieces.push_back({s0, d0, s1 - s0, d1 - d0, count});
  };

  // One member per period with uniform owner stretches: the cross-period
  // repetition itself is a single arithmetic piece (e.g. block <-> cyclic,
  // where every period contributes one strided element).
  if (cnt > 1 && x.count_in_period() == 1 && affine_over(src, x.period()) &&
      affine_over(dst, x.period())) {
    piece_from(x.first(), x.period(), cnt);
    return pieces;
  }

  x.for_each_instance([&](Index start, Extent stride, Extent count) {
    if (count == 1 || stride == 1 ||
        (affine_over(src, stride) && affine_over(dst, stride))) {
      piece_from(start, stride, count);
    } else {
      // Irregular spacing against a finer owner period: fall back to
      // per-member pieces for this instance only.
      for (Extent j = 0; j < count; ++j)
        piece_from(start + j * stride, 1, 1);
    }
  });
  return pieces;
}


}  // namespace

std::vector<CopySegment> flat_segments(const TransferV2& transfer,
                                       std::span<const IndexRuns> src_owned,
                                       std::span<const IndexRuns> dst_owned) {
  const int dims = static_cast<int>(transfer.dim_runs.size());
  HPFC_ASSERT(static_cast<int>(src_owned.size()) == dims &&
              static_cast<int>(dst_owned.size()) == dims);
  std::vector<CopySegment> segments;
  if (dims == 0) return {{0, 1, 0, 1, 1}};
  if (transfer.count() == 0) return segments;

  std::vector<std::vector<DimPiece>> pieces(static_cast<std::size_t>(dims));
  for (int d = 0; d < dims; ++d)
    pieces[static_cast<std::size_t>(d)] =
        decompose(transfer.dim_runs[static_cast<std::size_t>(d)],
                  src_owned[static_cast<std::size_t>(d)],
                  dst_owned[static_cast<std::size_t>(d)]);

  // Row-major local strides of the owned products at both end points.
  std::vector<Extent> src_stride(static_cast<std::size_t>(dims), 1);
  std::vector<Extent> dst_stride(static_cast<std::size_t>(dims), 1);
  for (int d = dims - 2; d >= 0; --d) {
    src_stride[static_cast<std::size_t>(d)] =
        src_stride[static_cast<std::size_t>(d + 1)] *
        src_owned[static_cast<std::size_t>(d + 1)].count();
    dst_stride[static_cast<std::size_t>(d)] =
        dst_stride[static_cast<std::size_t>(d + 1)] *
        dst_owned[static_cast<std::size_t>(d + 1)].count();
  }

  // Appends one emitted stretch, coalescing it into the trailing segment
  // when it continues that segment with a uniform stride on both end
  // points. A single-element segment has no stride of its own and adopts
  // its neighbour's (two adjacent singletons define the merged stride),
  // so cross-period singleton streams compress back into one strided
  // segment. The element sequence — and with it the pack order — is
  // exactly the emission order either way.
  const auto push_segment = [&segments](const CopySegment& next) {
    if (!segments.empty()) {
      CopySegment& prev = segments.back();
      Extent ss = prev.len > 1 ? prev.src_stride : next.src_stride;
      Extent ds = prev.len > 1 ? prev.dst_stride : next.dst_stride;
      if (prev.len == 1 && next.len == 1) {
        ss = next.src_base - prev.src_base;
        ds = next.dst_base - prev.dst_base;
      }
      const bool strides_agree =
          prev.len == 1 || next.len == 1 ||
          (prev.src_stride == next.src_stride &&
           prev.dst_stride == next.dst_stride);
      if (strides_agree && ss >= 1 && ds >= 1 &&
          next.src_base == prev.src_base + prev.len * ss &&
          next.dst_base == prev.dst_base + prev.len * ds) {
        prev.src_stride = ss;
        prev.dst_stride = ds;
        prev.len += next.len;
        return;
      }
    }
    segments.push_back(next);
  };

  const auto emit = [&](auto&& self, int d, Index src_base,
                        Index dst_base) -> void {
    const Extent sl = src_stride[static_cast<std::size_t>(d)];
    const Extent dl = dst_stride[static_cast<std::size_t>(d)];
    if (d == dims - 1) {
      for (const DimPiece& piece : pieces[static_cast<std::size_t>(d)]) {
        push_segment({src_base + piece.src_pos0 * sl, piece.src_step * sl,
                      dst_base + piece.dst_pos0 * dl, piece.dst_step * dl,
                      piece.len});
      }
      return;
    }
    for (const DimPiece& piece : pieces[static_cast<std::size_t>(d)]) {
      for (Extent j = 0; j < piece.len; ++j) {
        self(self, d + 1,
             src_base + (piece.src_pos0 + j * piece.src_step) * sl,
             dst_base + (piece.dst_pos0 + j * piece.dst_step) * dl);
      }
    }
  };
  emit(emit, 0, 0, 0);

  return segments;
}

std::uint64_t fold_per_element(const mapping::OwnedProgram& prog,
                               const double* local) {
  std::uint64_t sum = 0;
  prog.for_each_stretch([&](const OwnedRun& run) {
    for (Extent j = 0; j < run.len; ++j)
      sum += static_cast<std::uint64_t>(local[run.local_base + j]) *
             runtime::weight(run.global_base + j * run.global_stride);
  });
  return sum;
}

void stamp_per_element(const mapping::OwnedProgram& prog, double* local,
                       std::uint64_t counter) {
  prog.for_each_stretch([&](const OwnedRun& run) {
    for (Extent j = 0; j < run.len; ++j)
      local[run.local_base + j] =
          runtime::stamped(counter, run.global_base + j * run.global_stride);
  });
}

bool matches_per_element(const mapping::OwnedProgram& prog,
                         const double* local, const mapping::Shape& shape,
                         const runtime::ExpectedValues& expected) {
  bool match = true;
  prog.for_each_stretch([&](const OwnedRun& run) {
    const auto [j_lo, j_hi] = expected.stamped_members(shape, run);
    for (Extent j = 0; j < run.len && match; ++j) {
      const double want =
          j >= j_lo && j < j_hi
              ? runtime::stamped(expected.counter,
                                 run.global_base + j * run.global_stride)
              : 0.0;
      match = local[run.local_base + j] == want;
    }
  });
  return match;
}

std::vector<std::vector<net::Message>> route_superstep(
    std::vector<std::vector<net::Message>> outboxes, int ranks) {
  // Count first so every inbox is reserved exactly once (no growth
  // reallocations while routing).
  const auto counts = net::check_outboxes(outboxes, ranks);
  std::vector<std::vector<net::Message>> inboxes(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    inboxes[static_cast<std::size_t>(r)].reserve(
        counts[static_cast<std::size_t>(r)]);
  // Deterministic receive order: by source rank, then emission order —
  // guaranteed by this fill order.
  for (int src = 0; src < ranks; ++src) {
    for (auto& msg : outboxes[static_cast<std::size_t>(src)])
      inboxes[static_cast<std::size_t>(msg.dst)].push_back(std::move(msg));
  }
  return inboxes;
}

exec::Inboxes route_slots(std::span<const exec::ArenaMessage> table,
                          int ranks, std::span<double> arena) {
  exec::Inboxes inboxes(static_cast<std::size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    for (const exec::ArenaMessage& m : table) {
      if (m.src != src) continue;
      HPFC_ASSERT(m.dst >= 0 && m.dst < ranks);
      const auto out = arena.subspan(m.out_offset, m.elements);
      std::copy(out.begin(), out.end(),
                arena.subspan(m.in_offset, m.elements).begin());
      inboxes[static_cast<std::size_t>(m.dst)].push_back(
          {m.src, m.dst, m.tag, m.segments, m.elements, m.in_offset});
    }
  }
  return inboxes;
}

std::vector<std::vector<net::Message>> exchange_messages(
    exec::ProcBackend& backend,
    const std::vector<std::vector<net::Message>>& outboxes) {
  (void)net::check_outboxes(outboxes, backend.ranks());
  std::vector<exec::ArenaMessage> table;
  std::uint64_t total = 0;
  for (const auto& outbox : outboxes) {
    for (const net::Message& msg : outbox) {
      table.push_back({msg.src, msg.dst, msg.tag, msg.segments,
                       msg.payload.size(), total, 0});
      total += msg.payload.size();
    }
  }
  for (exec::ArenaMessage& m : table) m.in_offset = total + m.out_offset;
  const std::span<double> arena =
      backend.arena(static_cast<std::size_t>(2 * total));
  std::size_t i = 0;
  for (const auto& outbox : outboxes)
    for (const net::Message& msg : outbox)
      std::copy(msg.payload.begin(), msg.payload.end(),
                arena.begin() +
                    static_cast<std::ptrdiff_t>(table[i++].out_offset));

  const exec::Inboxes slots = backend.exchange(table);
  std::vector<std::vector<net::Message>> inboxes(slots.size());
  for (std::size_t r = 0; r < slots.size(); ++r) {
    for (const net::wire::Descriptor& d : slots[r]) {
      const auto in = arena.subspan(d.offset, d.elements);
      inboxes[r].push_back(
          {d.src, d.dst, d.tag, {in.begin(), in.end()}, d.segments});
    }
  }
  return inboxes;
}

}  // namespace hpfc::testing
