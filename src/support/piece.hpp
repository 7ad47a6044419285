// Rank storage that can be sized without being written.
//
// A std::vector value-initializes what resize() adds, so sizing a piece
// of n doubles zero-fills it: n writes and, on fresh pages, n/512 page
// faults, taken on the thread that sizes it. A Piece sizes its elements
// by default-initialization instead, which writes nothing. Its contents
// are then indeterminate until someone writes them: the runtime zero-fills
// a version's pieces before anything reads them, unless a copy round
// overwrites every position first (runtime/machine.cpp, `fill`).
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpfc {

/// An allocator whose value-less construct() default-initializes, so a
/// container of trivial elements grows without writing them. Every other
/// construct() forwards to the underlying allocator `A`.
template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), ptr,
                      std::forward<Args>(args)...);
  }
};

/// One rank's local piece of one array version, indexed by local position.
/// resize() leaves the new elements unwritten; assign(n, v) and the
/// value constructors write them as a std::vector would.
using Piece = std::vector<double, DefaultInitAllocator<double>>;

}  // namespace hpfc
