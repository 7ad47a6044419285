#include "runtime/toggles.hpp"

namespace hpfc::runtime {

namespace {

constexpr Toggle kToggles[] = {
    {"paranoid", "paranoid", &RunOptions::paranoid,
     "validate the liveness invariant after every step (slow; for tests)"},
};

}  // namespace

std::span<const Toggle> toggles() { return kToggles; }

const Toggle* find_toggle(std::string_view name_or_key) {
  for (const Toggle& toggle : kToggles) {
    if (toggle.name == name_or_key || toggle.key == name_or_key)
      return &toggle;
  }
  return nullptr;
}

bool RunOptions::set(std::string_view toggle, bool value) {
  const Toggle* found = find_toggle(toggle);
  if (found == nullptr) return false;
  this->*(found->flag) = value;
  return true;
}

}  // namespace hpfc::runtime
