#include "ir/effects.hpp"

namespace hpfc::ir {

EffectMap merge(const EffectMap& a, const EffectMap& b) {
  // An array absent from one side has Use::none() on that path; the merge
  // must record that the value passes through unscreened there (a one-sided
  // D must not claim "redefined on every path").
  EffectMap result = a;
  for (const auto& [array, use] : b) {
    auto [it, inserted] = result.try_emplace(array, use.merge(Use::none()));
    if (!inserted) it->second = it->second.merge(use);
  }
  for (auto& [array, use] : result)
    if (b.find(array) == b.end()) use = use.merge(Use::none());
  return result;
}

EffectMap then(const EffectMap& first, const EffectMap& after) {
  EffectMap result = after;
  for (const auto& [array, use] : first) {
    const auto it = result.find(array);
    const Use tail = it == result.end() ? Use::none() : it->second;
    result[array] = use.then(tail);
  }
  return result;
}

}  // namespace hpfc::ir
