// Small string helpers shared by printers and the HPF-lite front end.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace hpfc {

/// Joins the elements of `items` with `sep`, using operator<< to render each.
template <class Range>
std::string join(const Range& items, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << item;
  }
  return os.str();
}

/// Renders a byte count as a human-friendly string ("1.5 KiB").
std::string format_bytes(std::uint64_t bytes);

/// Escapes `text` for the inside of a JSON string literal: `"` and `\`,
/// the short forms for \n, \t, \r, \b and \f, and \u00XX for every other
/// byte below 0x20.
std::string json_escape(std::string_view text);

}  // namespace hpfc
