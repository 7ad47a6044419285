#include "mapping/mapping.hpp"

#include "support/check.hpp"

namespace hpfc::mapping {

ConcreteLayout FullMapping::normalize(const Shape& array_shape) const {
  HPFC_ASSERT_MSG(static_cast<int>(dist.per_dim.size()) ==
                      template_shape.rank(),
                  "distribution and template rank mismatch");
  std::vector<DimOwner> owners;
  owners.reserve(static_cast<std::size_t>(dist.proc_shape.rank()));
  for (int t = 0; t < template_shape.rank(); ++t) {
    const DistFormat& format = dist.per_dim[static_cast<std::size_t>(t)];
    if (!format.distributed()) continue;
    const int p = *dist.proc_dim_of(t);
    DimOwner owner;
    owner.source = align.per_template_dim[static_cast<std::size_t>(t)];
    owner.template_extent = template_shape.extent(t);
    owner.format = format;
    owner.format.param = format.resolved_param(owner.template_extent,
                                               dist.proc_shape.extent(p));
    owners.push_back(owner);
  }
  return ConcreteLayout::make(array_shape, dist.proc_shape, std::move(owners));
}

std::string FullMapping::validate(const Shape& array_shape) const {
  if (std::string err = align.validate(array_shape, template_shape);
      !err.empty())
    return err;
  return dist.validate(template_shape);
}

int VersionTable::intern(const ConcreteLayout& layout,
                         const FullMapping& representative) {
  const int existing = find(layout);
  if (existing >= 0) return existing;
  layouts_.push_back(layout);
  representatives_.push_back(representative);
  return static_cast<int>(layouts_.size()) - 1;
}

int VersionTable::find(const ConcreteLayout& layout) const {
  for (std::size_t v = 0; v < layouts_.size(); ++v)
    if (layouts_[v] == layout) return static_cast<int>(v);
  return -1;
}

const ConcreteLayout& VersionTable::layout(int version) const {
  HPFC_ASSERT(version >= 0 && version < size());
  return layouts_[static_cast<std::size_t>(version)];
}

const FullMapping& VersionTable::representative(int version) const {
  HPFC_ASSERT(version >= 0 && version < size());
  return representatives_[static_cast<std::size_t>(version)];
}

}  // namespace hpfc::mapping
