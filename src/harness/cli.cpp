#include "harness/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <system_error>

namespace aqueduct::harness {

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view s) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

template <typename T>
T require(const std::optional<T>& value, std::string_view flag,
          std::string_view text, const char* expected,
          const std::function<void()>& usage) {
  if (value) return *value;
  std::cerr << "flag " << flag << " needs " << expected << ", got '" << text
            << "'\n";
  usage();
  std::exit(2);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  // from_chars already rejects '+', whitespace and (for unsigned) '-'.
  return parse_whole<std::uint64_t>(s);
}

std::optional<double> parse_double(std::string_view s) {
  const auto value = parse_whole<double>(s);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::uint64_t require_u64(std::string_view flag, std::string_view text,
                          const std::function<void()>& usage) {
  return require(parse_u64(text), flag, text, "a non-negative integer", usage);
}

double require_double(std::string_view flag, std::string_view text,
                      const std::function<void()>& usage) {
  return require(parse_double(text), flag, text, "a finite number", usage);
}

}  // namespace aqueduct::harness
