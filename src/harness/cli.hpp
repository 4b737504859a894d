// Strict numeric parsing for command-line flags, shared by every CLI.
//
// The whole argument must convert: no sign on unsigned values, no leading
// whitespace, nothing trailing, no overflow, no inf/nan. A malformed value
// is a usage error (exit 2), so "--requests abc" or "--seeds -1" can never
// abort with an uncaught exception or wrap around.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

namespace aqueduct::harness {

std::optional<std::uint64_t> parse_u64(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// The value `text` given for numeric flag `flag`. If it does not parse,
/// names the flag on stderr, calls `usage` (the CLI's help printer; it may
/// exit itself) and exits 2.
std::uint64_t require_u64(std::string_view flag, std::string_view text,
                          const std::function<void()>& usage);
double require_double(std::string_view flag, std::string_view text,
                      const std::function<void()>& usage);

}  // namespace aqueduct::harness
