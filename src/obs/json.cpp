#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace aqueduct::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  // The shortest %.*g precision that round-trips, else %.17g. No decimal
  // with fewer significant digits than the shortest round-trip form
  // (to_chars' scientific digits) parses back to `v`, so the search starts
  // there; to_chars with a precision formats exactly as printf's %.*g.
  char buf[32];
  char* const last = buf + sizeof(buf);
  char* end = std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (; precision < 17; ++precision) {
    end = std::to_chars(buf, last, v, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == v) return std::string(buf, end);
  }
  end = std::to_chars(buf, last, v, std::chars_format::general, 17).ptr;
  return std::string(buf, end);
}

}  // namespace aqueduct::obs
