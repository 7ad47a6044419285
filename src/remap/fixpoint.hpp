// The fixpoint solver of every dataflow problem in remap/ and opt/.
#pragma once

#include <cstddef>
#include <vector>

namespace hpfc::remap {

/// Runs `visit(n)` over nodes 0..size-1 until nothing changes. The first
/// sweep visits every node of `order`; later sweeps visit, in `order`,
/// only nodes marked since their last visit. When `visit(d)` returns true
/// it marks `dependents(d)`; a node marked later in `order` is visited in
/// the same sweep. Only visits that would change nothing are skipped, so a
/// step that interns ids as it meets new values numbers them as a
/// sweep-until-stable loop would.
template <typename Order, typename Dependents, typename Visit>
void solve_fixpoint(int size, const Order& order, Dependents&& dependents,
                    Visit&& visit) {
  std::vector<char> pending(static_cast<std::size_t>(size), 1);
  for (bool again = true; again;) {
    again = false;
    for (const int n : order) {
      if (!pending[static_cast<std::size_t>(n)]) continue;
      pending[static_cast<std::size_t>(n)] = 0;
      if (!visit(n)) continue;
      for (const int d : dependents(n)) {
        pending[static_cast<std::size_t>(d)] = 1;
        again = true;
      }
    }
  }
}

}  // namespace hpfc::remap
