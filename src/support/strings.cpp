#include "support/strings.hpp"

#include <array>
#include <cctype>
#include <iomanip>

namespace hpfc {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

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
