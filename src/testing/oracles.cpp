#include "testing/oracles.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace hpfc::testing {

using mapping::AlignTarget;
using mapping::DistFormat;
using mapping::IndexRun;
using mapping::IndexRuns;
using mapping::OwnedRun;
using redist::CopySegment;
using redist::SegmentProgram;
using redist::TransferV2;

namespace {

/// Whether index `i` of array dimension `dim` lies on grid coordinate
/// `coords[p]` along every grid dimension p whose owner reads `dim`.
bool axis_owns(const ConcreteLayout& layout, const mapping::IndexVec& coords,
               int dim, Index i) {
  for (int p = 0; p < layout.proc_shape().rank(); ++p) {
    const AlignTarget& source =
        layout.owners()[static_cast<std::size_t>(p)].source;
    if (source.kind == AlignTarget::Kind::Axis && source.array_dim == dim &&
        layout.coord_of_template(p, source.apply(i)) !=
            coords[static_cast<std::size_t>(p)])
      return false;
  }
  return true;
}

/// Whether the grid coordinates `coords` hold the array at all: every
/// Constant owner's template cell lies on them, and under `for_sending`
/// every Replicated grid dimension is at coordinate 0.
bool grid_owns(const ConcreteLayout& layout, const mapping::IndexVec& coords,
               bool for_sending) {
  for (int p = 0; p < layout.proc_shape().rank(); ++p) {
    const AlignTarget& source =
        layout.owners()[static_cast<std::size_t>(p)].source;
    const Extent coord = coords[static_cast<std::size_t>(p)];
    if (source.kind == AlignTarget::Kind::Replicated && for_sending &&
        coord != 0)
      return false;
    if (source.kind == AlignTarget::Kind::Constant &&
        layout.coord_of_template(p, source.offset) != coord)
      return false;
  }
  return true;
}

/// The list form of a transfer: each dimension's run set member by member.
Transfer materialize(const TransferV2& transfer) {
  Transfer out;
  out.src = transfer.src;
  out.dst = transfer.dst;
  for (const IndexRuns& runs : transfer.dim_runs)
    out.dim_indices.push_back(runs.materialize());
  return out;
}

/// The expansion of `blocks` over `body` as a flat list.
template <typename Entry>
std::vector<Entry> expanded(const std::vector<Entry>& body,
                            std::span<const mapping::SegmentBlock> blocks) {
  std::vector<Entry> out;
  out.reserve(static_cast<std::size_t>(mapping::expanded_count(blocks)));
  mapping::for_each_expanded(body, blocks,
                             [&](const Entry& e) { out.push_back(e); });
  return out;
}

}  // namespace

ConcreteLayout random_layout(std::mt19937& rng,
                             const mapping::Shape& array_shape,
                             int max_procs) {
  using mapping::DimOwner;

  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };

  std::vector<Extent> proc_extents;
  if (array_shape.rank() > 1 && pick(3) == 0)
    proc_extents = {1 + pick(3), 1 + pick(3)};
  else
    proc_extents = {1 + pick(max_procs)};

  std::vector<int> free_dims;
  for (int d = 0; d < array_shape.rank(); ++d) free_dims.push_back(d);

  std::vector<DimOwner> owners;
  for (const Extent procs : proc_extents) {
    DimOwner owner;
    const int kind = pick(10);
    if (kind < 6 && !free_dims.empty()) {
      // Each array dimension feeds at most one grid dimension (HPF rule).
      const int slot = pick(static_cast<int>(free_dims.size()));
      const int dim = free_dims[static_cast<std::size_t>(slot)];
      free_dims.erase(free_dims.begin() + slot);
      const Extent n = array_shape.extent(dim);
      static constexpr Extent kStrides[] = {1, 1, 2, -1, -2};
      const Extent s = kStrides[pick(5)];
      const Extent extra = pick(3);
      // Keep the affine image s*i + extra within [0, template_extent).
      const Extent o = s > 0 ? extra : (-s) * (n - 1) + extra;
      owner.source = AlignTarget::axis(dim, s, o);
      owner.template_extent = (s > 0 ? s * (n - 1) + o : o) + 1;
    } else if (kind < 8) {
      const Extent m = 1 + pick(6);
      owner.source = AlignTarget::constant(pick(static_cast<int>(m)));
      owner.template_extent = m;
    } else {
      owner.source = AlignTarget::replicated();
      owner.template_extent = 1 + pick(4);
    }
    const Extent m = owner.template_extent;
    if (pick(2) == 0) {
      // BLOCK(b) needs b >= ceil(m / procs) so every template cell maps to
      // a valid grid coordinate.
      const Extent min_b = (m + procs - 1) / procs;
      owner.format = DistFormat::block(min_b + pick(3));
    } else {
      owner.format = DistFormat::cyclic(1 + pick(4));
    }
    owners.push_back(owner);
  }
  return ConcreteLayout::make(array_shape, mapping::Shape{proc_extents},
                              std::move(owners));
}

std::vector<std::vector<Index>> owned_index_lists(const ConcreteLayout& layout,
                                                  int rank, bool for_sending) {
  HPFC_ASSERT(rank >= 0 && rank < layout.ranks());
  const mapping::Shape& shape = layout.array_shape();
  const mapping::IndexVec coords = layout.proc_shape().delinearize(rank);
  std::vector<std::vector<Index>> lists(static_cast<std::size_t>(shape.rank()));
  if (!grid_owns(layout, coords, for_sending)) return lists;
  for (int d = 0; d < shape.rank(); ++d) {
    auto& list = lists[static_cast<std::size_t>(d)];
    for (Index i = 0; i < shape.extent(d); ++i)
      if (axis_owns(layout, coords, d, i)) list.push_back(i);
  }
  // Empty on any dim means the rank owns nothing: normalize all-empty.
  for (const auto& list : lists) {
    if (list.empty()) {
      for (auto& l : lists) l.clear();
      break;
    }
  }
  return lists;
}

bool owns(const ConcreteLayout& layout, int rank,
          std::span<const Index> global) {
  HPFC_ASSERT(layout.array_shape().contains(global));
  const mapping::IndexVec coords = layout.proc_shape().delinearize(rank);
  if (!grid_owns(layout, coords, /*for_sending=*/false)) return false;
  for (std::size_t d = 0; d < global.size(); ++d)
    if (!axis_owns(layout, coords, static_cast<int>(d), global[d]))
      return false;
  return true;
}

std::vector<int> owners_of(const ConcreteLayout& layout,
                           std::span<const Index> global) {
  std::vector<int> result;
  for (int r = 0; r < layout.ranks(); ++r)
    if (owns(layout, r, global)) result.push_back(r);
  return result;
}

int primary_owner(const ConcreteLayout& layout,
                  std::span<const Index> global) {
  const std::vector<int> owners = owners_of(layout, global);
  HPFC_ASSERT_MSG(!owners.empty(), "every element has an owner");
  return owners.front();
}

Index position_in_lists(const std::vector<std::vector<Index>>& lists,
                        std::span<const Index> global) {
  HPFC_ASSERT(lists.size() == global.size());
  Index position = 0;
  for (std::size_t d = 0; d < lists.size(); ++d) {
    const auto& list = lists[d];
    const auto it = std::lower_bound(list.begin(), list.end(), global[d]);
    if (it == list.end() || *it != global[d]) return -1;
    position = position * static_cast<Index>(list.size()) +
               static_cast<Index>(it - list.begin());
  }
  return position;
}

Index local_position(const ConcreteLayout& layout, int rank,
                     std::span<const Index> global) {
  return position_in_lists(owned_index_lists(layout, rank), global);
}

Extent Transfer::count() const {
  Extent product = 1;
  for (const auto& list : dim_indices)
    product *= static_cast<Extent>(list.size());
  return product;
}

Extent RedistPlan::total_elements() const {
  Extent total = 0;
  for (const auto& t : transfers) total += t.count();
  return total;
}

int RedistPlan::remote_transfers() const {
  int count = 0;
  for (const auto& t : transfers)
    if (t.src != t.dst) ++count;
  return count;
}

RedistPlan build(const ConcreteLayout& from, const ConcreteLayout& to) {
  HPFC_ASSERT_MSG(from.array_shape() == to.array_shape(),
                  "redistribution requires identical array shapes");
  // A rank owning nothing sends/receives nothing.
  const auto alive = [](const std::vector<std::vector<Index>>& lists) {
    return !lists.front().empty();
  };
  RedistPlan plan;
  std::vector<std::vector<std::vector<Index>>> dst_lists;
  for (int dst = 0; dst < to.ranks(); ++dst)
    dst_lists.push_back(owned_index_lists(to, dst));
  for (int src = 0; src < from.ranks(); ++src) {
    const auto src_lists = owned_index_lists(from, src, /*for_sending=*/true);
    if (!alive(src_lists)) continue;
    for (int dst = 0; dst < to.ranks(); ++dst) {
      const auto& dst_list = dst_lists[static_cast<std::size_t>(dst)];
      if (!alive(dst_list)) continue;
      Transfer transfer;
      transfer.src = src;
      transfer.dst = dst;
      bool empty = false;
      for (std::size_t d = 0; d < src_lists.size() && !empty; ++d) {
        std::vector<Index> common;
        std::set_intersection(src_lists[d].begin(), src_lists[d].end(),
                              dst_list[d].begin(), dst_list[d].end(),
                              std::back_inserter(common));
        empty = common.empty();
        transfer.dim_indices.push_back(std::move(common));
      }
      if (!empty) plan.transfers.push_back(std::move(transfer));
    }
  }
  return plan;
}

RedistPlan materialize(const redist::RedistPlanV2& plan) {
  RedistPlan out;
  for (const TransferV2& t : plan.transfers)
    out.transfers.push_back(materialize(t));
  return out;
}

std::vector<CopySegment> expand(const SegmentProgram& program) {
  return expanded(program.segments, program.blocks);
}

std::vector<OwnedRun> expand(const mapping::OwnedProgram& program) {
  return expanded(program.body, program.blocks);
}

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

void pack(const SegmentProgram& program, std::span<const double> src_local,
          std::vector<double>& payload) {
  payload.resize(static_cast<std::size_t>(program.elements));
  pack_into(program, src_local, payload);
}

void pack_into(const SegmentProgram& program, std::span<const double> src_local,
               std::span<double> window) {
  HPFC_ASSERT(static_cast<Extent>(window.size()) == program.elements);
  double* out = window.data();
  program.for_each_segment([&](const CopySegment& seg) {
    const double* in = src_local.data() + seg.src_base;
    if (seg.src_stride == 1) {
      std::copy_n(in, seg.len, out);
    } else {
      for (Extent j = 0; j < seg.len; ++j) out[j] = in[j * seg.src_stride];
    }
    out += seg.len;
  });
}

void unpack(const SegmentProgram& program, std::span<const double> payload,
            std::span<double> dst_local) {
  HPFC_ASSERT(static_cast<Extent>(payload.size()) == program.elements);
  const double* in = payload.data();
  program.for_each_segment([&](const CopySegment& seg) {
    double* out = dst_local.data() + seg.dst_base;
    if (seg.dst_stride == 1) {
      std::copy_n(in, seg.len, out);
    } else {
      for (Extent j = 0; j < seg.len; ++j) out[j * seg.dst_stride] = in[j];
    }
    in += seg.len;
  });
}

void copy_local(const SegmentProgram& program,
                std::span<const double> src_local,
                std::span<double> dst_local) {
  program.for_each_segment([&](const CopySegment& seg) {
    const double* in = src_local.data() + seg.src_base;
    double* out = dst_local.data() + seg.dst_base;
    if (seg.src_stride == 1 && seg.dst_stride == 1) {
      std::copy_n(in, seg.len, out);
    } else {
      for (Extent j = 0; j < seg.len; ++j)
        out[j * seg.dst_stride] = in[j * seg.src_stride];
    }
  });
}

std::vector<std::size_t> check_outboxes(
    const std::vector<std::vector<net::Message>>& outboxes, int ranks) {
  HPFC_ASSERT(static_cast<int>(outboxes.size()) == ranks);
  std::vector<std::size_t> counts(static_cast<std::size_t>(ranks), 0);
  for (int src = 0; src < ranks; ++src) {
    for (const auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      HPFC_ASSERT_MSG(msg.src == src, "message src must match its outbox");
      HPFC_ASSERT_MSG(msg.dst >= 0 && msg.dst < ranks, "bad destination");
      ++counts[static_cast<std::size_t>(msg.dst)];
    }
  }
  return counts;
}

std::vector<std::vector<net::Message>> route_superstep(
    std::vector<std::vector<net::Message>> outboxes, int ranks) {
  // Count first so every inbox is reserved exactly once (no growth
  // reallocations while routing).
  const auto counts = check_outboxes(outboxes, ranks);
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
  (void)check_outboxes(outboxes, backend.ranks());
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
