// Host heap allocation counter behind runtime.host_allocs: this executable
// replaces the global operator new (alloc_count.cpp), as the remap_hotpath
// bench does, so every allocation of every thread is counted.
#pragma once

#include <cstdint>

namespace e2e {

/// Heap allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t host_allocations();

}  // namespace e2e
