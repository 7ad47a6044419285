// Lightweight contract checking used across the library.
//
// HPFC_ASSERT is an internal invariant check (a failure is a bug in this
// library, not a user error); it is active in all build types because the
// analyses here are graph algorithms whose cost dwarfs the checks.
// User-visible errors (bad programs, ambiguous mappings, ...) go through
// support/diagnostics.hpp instead.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>

namespace hpfc {

/// Thrown when an internal invariant is violated. Tests may catch this to
/// assert that misuse of an API is detected.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] void assert_fail(const char* expr, std::source_location loc,
                              const std::string& message);

#define HPFC_ASSERT(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::hpfc::assert_fail(#expr, std::source_location::current(), {});     \
  } while (false)

#define HPFC_ASSERT_MSG(expr, msg)                                         \
  do {                                                                     \
    if (!(expr))                                                           \
      ::hpfc::assert_fail(#expr, std::source_location::current(), (msg));  \
  } while (false)

/// Checked narrowing conversion (Core Guidelines ES.46 flavour).
template <class To, class From>
constexpr To narrow(From value) {
  const To result = static_cast<To>(value);
  HPFC_ASSERT_MSG(static_cast<From>(result) == value &&
                      ((result < To{}) == (value < From{})),
                  "narrowing conversion lost information");
  return result;
}

/// Ceiling division for non-negative integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Floored modulus: result is always in [0, b) for b > 0.
constexpr std::int64_t floor_mod(std::int64_t a, std::int64_t b) {
  const std::int64_t m = a % b;
  return m < 0 ? m + b : m;
}

/// Floored division, consistent with floor_mod.
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return (a - floor_mod(a, b)) / b;
}

constexpr std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

constexpr std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  return a / gcd64(a, b) * b;
}

}  // namespace hpfc
