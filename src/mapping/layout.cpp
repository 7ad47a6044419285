#include "mapping/layout.hpp"

#include <algorithm>
#include <sstream>

#include "mapping/periodic.hpp"
#include "support/check.hpp"

namespace hpfc::mapping {

namespace {

Index floor_div(Index a, Index b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

Index ceil_div(Index a, Index b) {
  return a > 0 ? (a + b - 1) / b : -(-a / b);
}

/// The i-interval [lo, hi) whose affine template image s*i + o lies in the
/// template window [w0, w1).
std::pair<Index, Index> window_to_interval(Extent s, Extent o, Index w0,
                                           Index w1) {
  if (s > 0) return {ceil_div(w0 - o, s), ceil_div(w1 - o, s)};
  const Extent t = -s;  // w0 <= s*i+o < w1  <=>  (o-w1)/t < i <= (o-w0)/t
  return {floor_div(o - w1, t) + 1, floor_div(o - w0, t) + 1};
}

/// Canonicalizes one owner rule so that placement-equal layouts compare
/// equal structurally. See header comment.
DimOwner canonicalize(DimOwner owner, Extent procs, Extent array_extent) {
  // A single-processor grid dimension constrains nothing.
  if (procs == 1) {
    owner.source = AlignTarget::constant(0);
    owner.format = DistFormat::block(1);
    owner.template_extent = 1;
    return owner;
  }
  const Extent m = owner.template_extent;
  // CYCLIC(k) that wraps at most once is BLOCK(k).
  if (owner.format.kind == DistFormat::Kind::Cyclic &&
      owner.format.param * procs >= m) {
    owner.format = DistFormat::block(owner.format.param);
  }
  // BLOCK(b) with b >= m puts everything on coordinate 0.
  if (owner.format.kind == DistFormat::Kind::Block &&
      owner.format.param >= m) {
    owner.format = DistFormat::block(m);
  }
  // An axis over a one-element array dimension is a constant.
  if (owner.source.kind == AlignTarget::Kind::Axis && array_extent == 1) {
    owner.source = AlignTarget::constant(owner.source.offset);
  }
  return owner;
}

}  // namespace

ConcreteLayout ConcreteLayout::make(Shape array_shape, Shape proc_shape,
                                    std::vector<DimOwner> owners) {
  HPFC_ASSERT_MSG(static_cast<int>(owners.size()) == proc_shape.rank(),
                  "one owner rule per processor-grid dimension");
  HPFC_ASSERT_MSG(array_shape.rank() >= 1,
                  "a mapped array has at least one dimension");
  ConcreteLayout layout;
  layout.array_shape_ = std::move(array_shape);
  layout.proc_shape_ = std::move(proc_shape);
  layout.owners_.reserve(owners.size());
  for (int p = 0; p < layout.proc_shape_.rank(); ++p) {
    DimOwner& owner = owners[static_cast<std::size_t>(p)];
    HPFC_ASSERT_MSG(owner.format.distributed(),
                    "grid dimensions carry block or cyclic formats");
    HPFC_ASSERT(owner.format.param > 0);
    const Extent array_extent =
        owner.source.kind == AlignTarget::Kind::Axis
            ? layout.array_shape_.extent(owner.source.array_dim)
            : 1;
    layout.owners_.push_back(
        canonicalize(owner, layout.proc_shape_.extent(p), array_extent));
  }
  return layout;
}

ConcreteLayout ConcreteLayout::serial(Shape array_shape) {
  ConcreteLayout layout;
  layout.array_shape_ = std::move(array_shape);
  layout.proc_shape_ = Shape{1};
  layout.owners_ = {DimOwner{AlignTarget::constant(0), DistFormat::block(1), 1}};
  // Run through make() canonicalization for the single-proc rule.
  return make(layout.array_shape_, layout.proc_shape_, layout.owners_);
}

bool ConcreteLayout::replicated() const {
  return std::any_of(owners_.begin(), owners_.end(), [](const DimOwner& o) {
    return o.source.kind == AlignTarget::Kind::Replicated;
  });
}

Extent ConcreteLayout::coord_of_template(int p, Extent t) const {
  const DimOwner& owner = owners_[static_cast<std::size_t>(p)];
  const Extent procs = proc_shape_.extent(p);
  HPFC_ASSERT_MSG(t >= 0 && t < owner.template_extent,
                  "template coordinate out of range");
  switch (owner.format.kind) {
    case DistFormat::Kind::Block: {
      const Extent coord = t / owner.format.param;
      HPFC_ASSERT(coord < procs);
      return coord;
    }
    case DistFormat::Kind::Cyclic:
      return (t / owner.format.param) % procs;
    case DistFormat::Kind::Collapsed:
      break;
  }
  HPFC_ASSERT_MSG(false, "collapsed format on a grid dimension");
  return 0;
}

IndexRuns ConcreteLayout::axis_runs(int p, Extent coord) const {
  const DimOwner& owner = owners_[static_cast<std::size_t>(p)];
  HPFC_ASSERT(owner.source.kind == AlignTarget::Kind::Axis);
  const Extent n = array_shape_.extent(owner.source.array_dim);
  const Extent s = owner.source.stride;
  const Extent o = owner.source.offset;
  const Extent k = owner.format.param;
  const Extent procs = proc_shape_.extent(p);

  if (owner.format.kind == DistFormat::Kind::Block) {
    // One template window [coord*k, (coord+1)*k) -> one index interval.
    auto [lo, hi] = window_to_interval(s, o, coord * k, (coord + 1) * k);
    return IndexRuns::interval(std::max<Index>(lo, 0), std::min<Index>(hi, n));
  }

  HPFC_ASSERT(owner.format.kind == DistFormat::Kind::Cyclic);
  // Ownership is periodic in i with period cycle/gcd(|s|, cycle): the
  // template phase advances by s*period, a multiple of the cycle.
  const Extent cycle = k * procs;
  const Extent period =
      std::min<Extent>(cycle / gcd64(s < 0 ? -s : s, cycle), n);
  // Template image of one period window [0, period).
  const Extent t_lo = s > 0 ? o : s * (period - 1) + o;
  const Extent t_hi = s > 0 ? s * (period - 1) + o : o;
  // Owned template windows [(coord + j*procs)*k, +k) overlapping the image.
  const Extent j_lo = ceil_div(t_lo - k + 1 - coord * k, cycle);
  const Extent j_hi = floor_div(t_hi - coord * k, cycle);
  std::vector<IndexRun> runs;
  for (Extent j = j_lo; j <= j_hi; ++j) {
    const Index w0 = (coord + j * procs) * k;
    auto [lo, hi] = window_to_interval(s, o, w0, w0 + k);
    lo = std::max<Index>(lo, 0);
    hi = std::min<Index>(hi, period);
    if (lo < hi) runs.push_back({lo, 1, hi - lo});
  }
  std::sort(runs.begin(), runs.end(),
            [](const IndexRun& a, const IndexRun& b) {
              return a.offset < b.offset;
            });
  return IndexRuns(0, period, std::move(runs), n);
}

std::vector<IndexRuns> ConcreteLayout::owned_index_runs(
    int rank, bool for_sending) const {
  HPFC_ASSERT(rank >= 0 && rank < ranks());
  const IndexVec coords = proc_shape_.delinearize(rank);

  std::vector<IndexRuns> runs(static_cast<std::size_t>(array_shape_.rank()));
  for (int d = 0; d < array_shape_.rank(); ++d)
    runs[static_cast<std::size_t>(d)] =
        IndexRuns::interval(0, array_shape_.extent(d));

  for (int p = 0; p < proc_shape_.rank(); ++p) {
    const DimOwner& owner = owners_[static_cast<std::size_t>(p)];
    const Extent coord = coords[static_cast<std::size_t>(p)];
    switch (owner.source.kind) {
      case AlignTarget::Kind::Replicated:
        if (for_sending && coord != 0) {
          for (auto& r : runs) r = IndexRuns{};
          return runs;
        }
        break;
      case AlignTarget::Kind::Constant:
        if (coord_of_template(p, owner.source.offset) != coord) {
          for (auto& r : runs) r = IndexRuns{};
          return runs;
        }
        break;
      case AlignTarget::Kind::Axis:
        runs[static_cast<std::size_t>(owner.source.array_dim)] =
            axis_runs(p, coord);
        break;
    }
  }
  for (const auto& r : runs) {
    if (r.empty()) {
      for (auto& other : runs) other = IndexRuns{};
      break;
    }
  }
  return runs;
}

Extent ConcreteLayout::local_count(int rank) const {
  const auto runs = owned_index_runs(rank);
  Extent count = 1;
  for (const auto& r : runs) count *= r.count();
  return count;
}

OwnedProgram OwnedProgram::flat(std::vector<OwnedRun> runs) {
  OwnedProgram program;
  program.blocks = flat_blocks(runs.size());
  program.body = std::move(runs);
  return program;
}

OwnedProgram ConcreteLayout::owned_program(int rank) const {
  const int dims = array_shape_.rank();
  OwnedProgram program;
  const auto runs = owned_index_runs(rank);
  for (const auto& r : runs)
    if (r.empty()) return program;

  // Row-major linear strides of the global array shape; the innermost
  // dimension's stride is 1, so a member stride there is a linear stride.
  std::vector<Extent> shape_stride(static_cast<std::size_t>(dims), 1);
  for (int d = dims - 2; d >= 0; --d)
    shape_stride[static_cast<std::size_t>(d)] =
        shape_stride[static_cast<std::size_t>(d + 1)] *
        array_shape_.extent(d + 1);

  // One row of the innermost dimension as (local -> global) segments,
  // coalesced once: its first full window repeated full_windows() times
  // one period apart, then the clipped last window. A single-member
  // instance takes stride 1 until coalescing gives it its neighbour's.
  const IndexRuns& inner = runs[static_cast<std::size_t>(dims - 1)];
  const Extent full = inner.full_windows();
  std::vector<CopySegment> window;
  const auto window_runs = [&](Extent w) {
    window.clear();
    Index local = w * inner.count_in_period();
    inner.for_each_window_instance(w, [&](Index start, Extent stride,
                                          Extent count) {
      window.push_back({local, 1, start, count == 1 ? 1 : stride, count});
      local += count;
    });
  };
  SegmentCoalescer coalescer;
  if (full > 0) {
    window_runs(0);
    coalescer.push_windows(window, full, inner.count_in_period(),
                           inner.period());
  }
  if (full * inner.period() < inner.span()) {
    window_runs(full);
    for (const CopySegment& r : window) coalescer.push(r);
  }
  const PeriodicSegments row = coalescer.finish();

  // Outer dimensions are enumerated member by member (their member count
  // is the local extent): one row per outer coordinate tuple, each the
  // row program shifted by its local offset and global base. A stretch
  // never crosses a row, so it varies only the innermost dimension.
  std::vector<std::vector<Index>> outer;
  outer.reserve(static_cast<std::size_t>(dims - 1));
  for (int d = 0; d + 1 < dims; ++d)
    outer.push_back(runs[static_cast<std::size_t>(d)].materialize());

  Index local = 0;
  std::vector<std::size_t> pos(outer.size(), 0);
  while (true) {
    Index base = 0;
    for (std::size_t d = 0; d < outer.size(); ++d)
      base += outer[d][pos[d]] * shape_stride[d];
    const auto first = narrow<std::uint32_t>(program.body.size());
    for (const CopySegment& r : row.segments)
      program.body.push_back(
          {r.src_base + local, r.dst_base + base, r.dst_stride, r.len});
    for (SegmentBlock b : row.blocks) {
      b.first += first;
      // Consecutive repetition-free blocks merge into one.
      SegmentBlock* last = program.blocks.empty() ? nullptr
                                                  : &program.blocks.back();
      if (b.reps == 1 && last != nullptr && last->reps == 1 &&
          last->first + last->count == b.first)
        last->count += b.count;
      else
        program.blocks.push_back(b);
    }
    local += inner.count();
    int d = static_cast<int>(outer.size()) - 1;
    for (; d >= 0; --d) {
      if (++pos[static_cast<std::size_t>(d)] <
          outer[static_cast<std::size_t>(d)].size())
        break;
      pos[static_cast<std::size_t>(d)] = 0;
    }
    if (d < 0) break;
  }
  return program;
}

std::string ConcreteLayout::to_string() const {
  std::ostringstream os;
  os << array_shape_.to_string() << " on " << proc_shape_.to_string() << " [";
  for (std::size_t p = 0; p < owners_.size(); ++p) {
    if (p > 0) os << ", ";
    os << owners_[p].source.to_string() << ":"
       << owners_[p].format.to_string() << "/" << owners_[p].template_extent;
  }
  os << "]";
  return os.str();
}

}  // namespace hpfc::mapping
