// Shared helpers for the experiment-reproduction binaries.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "harness/cli.hpp"

namespace aqueduct::bench {

/// Command-line options shared by the harness-driven benches.
///
/// Parsing is strict: an unknown flag, a flag missing its value, or a
/// malformed number prints usage and exits 2, so CI cannot green-light a
/// typo'd invocation that silently ran with defaults.
struct Options {
  /// Requests per client per run (the paper uses 1000 alternating
  /// write/read requests).
  std::size_t requests = 1000;
  std::uint64_t seed = 42;
  /// Repetition count for the benches that take one (0 = the bench's
  /// default).
  std::size_t seeds = 0;
  bool json = true;   // write the BENCH_<name>.json summary
  std::string json_out;  // overrides the default BENCH_<name>.json path

  static void usage(const char* prog, std::ostream& os) {
    os << "usage: " << prog << " [options]\n"
       << "  --quick            small request count (200) for CI shards\n"
       << "  --requests N       requests per client per run\n"
       << "  --seed N           first seed\n"
       << "  --seeds N          repetitions (benches that take one)\n"
       << "  --json-out PATH    override the BENCH_<name>.json path\n"
       << "  --no-json          skip the JSON summary\n"
       << "  --help             show this help\n";
  }

  static Options parse(int argc, char** argv) {
    Options opt;
    const auto value = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": flag " << argv[i] << " needs a value\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto fail = [&] { usage(argv[0], std::cerr); };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        opt.requests = 200;
      } else if (arg == "--requests") {
        opt.requests = harness::require_u64(arg, value(i), fail);
      } else if (arg == "--seed") {
        opt.seed = harness::require_u64(arg, value(i), fail);
      } else if (arg == "--seeds") {
        opt.seeds = harness::require_u64(arg, value(i), fail);
      } else if (arg == "--json-out") {
        opt.json_out = value(i);
      } else if (arg == "--no-json") {
        opt.json = false;
      } else if (arg == "--help") {
        usage(argv[0], std::cout);
        std::exit(0);
      } else {
        std::cerr << argv[0] << ": unknown flag " << arg << "\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
    }
    return opt;
  }
};

}  // namespace aqueduct::bench
