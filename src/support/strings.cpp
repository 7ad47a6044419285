#include "support/strings.hpp"

#include <array>
#include <iomanip>

namespace hpfc {

std::string format_bytes(std::uint64_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KiB", "MiB",
                                                        "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < kUnits.size()) {
    value /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(unit == 0 ? 0 : 1) << value << " "
     << kUnits[unit];
  return os.str();
}

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      case '\r': escaped += "\\r"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          escaped += "\\u00";
          escaped += kHex[byte >> 4];
          escaped += kHex[byte & 0xf];
        } else {
          escaped += c;
        }
      }
    }
  }
  return escaped;
}

}  // namespace hpfc
