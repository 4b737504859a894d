// Shared helpers for the experiment-reproduction binaries.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "obs/json.hpp"
#include "sim/time.hpp"

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
  /// Seed count for the sweep-driven benches (0 = the bench's default).
  std::size_t seeds = 0;
  /// Worker threads for the sweep-driven benches (0 = one per core).
  /// Output is byte-identical for any value — see runner/sweep.hpp.
  std::size_t threads = 0;
  bool csv = false;   // also emit CSV blocks
  bool json = true;   // write the BENCH_<name>.json summary
  std::string json_out;  // overrides the default BENCH_<name>.json path

  static void usage(const char* prog, std::ostream& os) {
    os << "usage: " << prog << " [options]\n"
       << "  --quick            small request count (200) for CI shards\n"
       << "  --requests N       requests per client per run\n"
       << "  --seed N           first seed\n"
       << "  --seeds N          seed count (sweep-driven benches)\n"
       << "  --threads N        sweep worker threads (0 = one per core)\n"
       << "  --csv              also emit CSV blocks\n"
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
      } else if (arg == "--threads") {
        opt.threads = harness::require_u64(arg, value(i), fail);
      } else if (arg == "--csv") {
        opt.csv = true;
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

/// One row of a bench's machine-readable summary: a single scenario run
/// seen from one client's perspective.
struct RunSummary {
  std::string name;  // configuration label (selector, interarrival, ...)
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_abandoned = 0;
  double simulated_seconds = 0.0;
  double throughput_rps = 0.0;  // completed reads per simulated second
  double avg_read_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double timing_failure_rate = 0.0;
  double timing_failure_ci_lower = 0.0;  // 95% Wilson score interval
  double timing_failure_ci_upper = 0.0;
  double avg_replicas_selected = 0.0;
};

/// Builds a RunSummary from one client's results of a finished scenario.
inline RunSummary summarize_run(std::string name,
                                const harness::ClientResult& result,
                                sim::Duration simulated) {
  const auto& stats = result.stats;
  RunSummary run;
  run.name = std::move(name);
  run.reads_completed = stats.reads_completed;
  run.reads_abandoned = stats.reads_abandoned;
  run.simulated_seconds = sim::to_sec(simulated);
  run.throughput_rps = run.simulated_seconds <= 0.0
                           ? 0.0
                           : static_cast<double>(stats.reads_completed) /
                                 run.simulated_seconds;
  run.avg_read_ms = sim::to_ms(stats.avg_response_time());
  run.p50_ms = harness::percentile(result.read_response_times, 0.50) * 1000.0;
  run.p95_ms = harness::percentile(result.read_response_times, 0.95) * 1000.0;
  run.p99_ms = harness::percentile(result.read_response_times, 0.99) * 1000.0;
  run.timing_failure_rate = stats.timing_failure_probability();
  const auto ci = harness::binomial_ci_wilson(stats.timing_failures,
                                              stats.reads_completed);
  run.timing_failure_ci_lower = ci.lower;
  run.timing_failure_ci_upper = ci.upper;
  run.avg_replicas_selected = stats.avg_replicas_selected();
  return run;
}

/// Writes BENCH_<name>.json (or --json-out) with the collected runs.
/// Returns the path written, empty if JSON output is disabled.
inline std::string write_json_summary(const Options& opt,
                                      const std::string& bench_name,
                                      const std::vector<RunSummary>& runs) {
  if (!opt.json) return {};
  const std::string path =
      opt.json_out.empty() ? "BENCH_" + bench_name + ".json" : opt.json_out;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench: cannot write " << path << "\n";
    return {};
  }
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("bench", bench_name);
  w.field("seed", static_cast<std::uint64_t>(opt.seed));
  w.field("requests", static_cast<std::uint64_t>(opt.requests));
  w.key("runs");
  w.begin_array();
  for (const RunSummary& run : runs) {
    w.begin_object();
    w.field("name", run.name);
    w.field("reads_completed", run.reads_completed);
    w.field("reads_abandoned", run.reads_abandoned);
    w.field("simulated_seconds", run.simulated_seconds);
    w.field("throughput_rps", run.throughput_rps);
    w.field("avg_read_ms", run.avg_read_ms);
    w.field("p50_ms", run.p50_ms);
    w.field("p95_ms", run.p95_ms);
    w.field("p99_ms", run.p99_ms);
    w.field("timing_failure_rate", run.timing_failure_rate);
    w.field("timing_failure_ci_lower", run.timing_failure_ci_lower);
    w.field("timing_failure_ci_upper", run.timing_failure_ci_upper);
    w.field("avg_replicas_selected", run.avg_replicas_selected);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return path;
}

}  // namespace aqueduct::bench
