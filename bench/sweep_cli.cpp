// sweep_cli: the one driver for scenario experiments. Runs a named plan
// (src/runner/plans.cpp) over a seed range on the parallel sweep engine.
//
//   sweep_cli --plan recovery --seeds 32 --threads 8
//
// fans 32 shared-nothing scenario runs across 8 workers, prints a summary
// per config point, writes BENCH_recovery.json, and exits non-zero unless
// the plan's pass gate holds. The merged output is byte-identical for any
// --threads value (a --threads 1 run is the oracle), which --self-bench
// verifies end-to-end: it runs the same spec single- and multi-threaded,
// compares the bytes, and writes BENCH_sweep.json with the measured
// speedup. Progress is reported through obs gauges (--metrics-out dumps
// them) and a live line on stderr.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"

using namespace aqueduct;

namespace {

struct CliOptions {
  std::string plan;
  std::uint64_t seed = 42;
  std::size_t seeds = 8;
  std::size_t threads = 0;  // 0 = one per core
  std::size_t requests = 0;  // 0 = plan default
  bool json = true;
  std::string json_out;
  std::string metrics_out;
  bool list = false;
  bool self_bench = false;
  std::string timing_out;  // BENCH_sweep.json override
};

void usage(const char* prog, std::ostream& os) {
  os << "usage: " << prog << " --plan NAME [options]\n"
     << "  --plan NAME        bench plan to sweep (see --list)\n"
     << "  --seed N           first seed (default 42)\n"
     << "  --seeds N          seed count (default 8)\n"
     << "  --threads N        worker threads (0 = one per core); merged\n"
     << "                     output is byte-identical for any value\n"
     << "  --requests N       requests per client (0 = plan default)\n"
     << "  --json-out PATH    override the BENCH_<plan>.json path\n"
     << "  --no-json          skip the JSON summary\n"
     << "  --metrics-out PATH dump the sweep progress gauges as JSON\n"
     << "  --self-bench       run at --threads 1 then --threads N, verify\n"
     << "                     byte-identical output, write BENCH_sweep.json\n"
     << "                     with the measured speedup\n"
     << "  --timing-out PATH  override the BENCH_sweep.json path\n"
     << "  --list             list available plans\n"
     << "  --help             show this help\n";
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
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
    if (arg == "--plan") {
      opt.plan = value(i);
    } else if (arg == "--seed") {
      opt.seed = harness::require_u64(arg, value(i), fail);
    } else if (arg == "--seeds") {
      opt.seeds = harness::require_u64(arg, value(i), fail);
    } else if (arg == "--threads") {
      opt.threads = harness::require_u64(arg, value(i), fail);
    } else if (arg == "--requests") {
      opt.requests = harness::require_u64(arg, value(i), fail);
    } else if (arg == "--json-out") {
      opt.json_out = value(i);
    } else if (arg == "--no-json") {
      opt.json = false;
    } else if (arg == "--metrics-out") {
      opt.metrics_out = value(i);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--self-bench") {
      opt.self_bench = true;
    } else if (arg == "--timing-out") {
      opt.timing_out = value(i);
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

void print_binomial(const std::string& label, std::uint64_t failures,
                    std::uint64_t trials) {
  const auto ci = harness::binomial_ci_wilson(failures, trials);
  std::cout << "  " << label << ": " << ci.point << " [" << ci.lower << ", "
            << ci.upper << "] (" << failures << "/" << trials << ")\n";
}

/// Console summary, one block per config point: the plan's binomials over
/// that point's rows (rate and 95% Wilson CI), the mean over seeds of each
/// scalar value, and each counter's total; then, for a multi-point plan,
/// the pooled binomials and counters over every row. Console only; the
/// JSON is untouched.
void print_summary(const runner::Plan& plan, const runner::SweepSpec& spec,
                   const runner::SweepResult& result) {
  for (std::size_t point = 0; point < plan.points.size(); ++point) {
    std::vector<const runner::SeedRecord*> rows;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      if (spec.units[i].point == point && result.rows[i].ok) {
        rows.push_back(&result.rows[i]);
      }
    }
    std::cout << plan.points[point] << " (" << rows.size() << " seed"
              << (rows.size() == 1 ? "" : "s") << ")\n";
    for (const runner::BinomialSpec& b : plan.binomials) {
      std::uint64_t failures = 0, trials = 0;
      for (const runner::SeedRecord* row : rows) {
        failures += row->counter_or_zero(b.failures);
        trials += row->counter_or_zero(b.trials);
      }
      print_binomial(b.label, failures, trials);
    }
    if (rows.empty()) continue;
    // A plan's rows share one schema, so the first row names the fields.
    for (const auto& [name, first] : rows.front()->values) {
      double sum = 0.0;
      for (const runner::SeedRecord* row : rows) sum += row->value_or(name);
      std::cout << "  " << name << ": "
                << sum / static_cast<double>(rows.size()) << "\n";
    }
    for (const auto& [name, first] : rows.front()->counters) {
      std::uint64_t total = 0;
      for (const runner::SeedRecord* row : rows) {
        total += row->counter_or_zero(name);
      }
      std::cout << "  " << name << ": " << total << "\n";
    }
  }
  if (plan.points.size() == 1) return;  // the one point is the pool
  std::cout << "pooled\n";
  for (const auto& b : result.binomials) {
    print_binomial(b.label, b.failures, b.trials);
  }
  for (const auto& [name, v] : result.pooled_counters) {
    std::cout << "  " << name << ": " << v << "\n";
  }
}

/// Writes the progress gauges to `path`; false when it cannot be opened.
bool write_metrics(const std::string& path,
                   const obs::MetricsRegistry& metrics) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "sweep_cli: cannot write " << path << "\n";
    return false;
  }
  metrics.write_json(os);
  return true;
}

runner::SweepResult run_with_progress(const runner::SweepSpec& spec,
                                      obs::MetricsRegistry* metrics) {
  runner::SweepOptions opts;
  opts.metrics = metrics;
  opts.on_progress = [&spec](std::size_t done, std::size_t failed,
                             std::size_t total) {
    std::cerr << "\rsweep " << spec.name << ": " << done << "/" << total
              << " units";
    if (failed > 0) std::cerr << " (" << failed << " failed)";
    if (done == total) std::cerr << "\n";
    std::cerr.flush();
  };
  return runner::run_sweep(spec, opts);
}

int self_bench(const CliOptions& opt, const runner::Plan& plan) {
  obs::MetricsRegistry metrics;

  runner::SweepSpec oracle = runner::make_spec(plan, opt.seed, opt.seeds,
                                               /*threads=*/1, opt.requests);
  std::cerr << "self-bench: oracle pass (1 thread, " << oracle.units.size()
            << " units)\n";
  const auto r1 = run_with_progress(oracle, &metrics);

  runner::SweepSpec wide = runner::make_spec(plan, opt.seed, opt.seeds,
                                             opt.threads, opt.requests);
  const auto rn = run_with_progress(wide, &metrics);

  const std::string json1 = runner::sweep_json(oracle, r1);
  const std::string jsonn = runner::sweep_json(wide, rn);
  const bool identical = json1 == jsonn;
  const double speedup =
      rn.wall_seconds <= 0.0 ? 0.0 : r1.wall_seconds / rn.wall_seconds;

  std::cout << "plan " << plan.name << ": " << oracle.units.size()
            << " units; 1 thread " << r1.wall_seconds << "s, "
            << rn.threads_used << " threads " << rn.wall_seconds
            << "s; speedup " << speedup << "x; output "
            << (identical ? "byte-identical" : "DIVERGED") << "\n";

  if (opt.json) {
    const std::string path =
        opt.json_out.empty() ? "BENCH_" + plan.name + ".json" : opt.json_out;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "sweep_cli: cannot write " << path << "\n";
      return 1;
    }
    os << jsonn;
    std::cout << "wrote " << path << "\n";
  }
  const std::string timing_path =
      opt.timing_out.empty() ? "BENCH_sweep.json" : opt.timing_out;
  {
    std::ofstream os(timing_path);
    if (!os) {
      std::cerr << "sweep_cli: cannot write " << timing_path << "\n";
      return 1;
    }
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("bench", std::string("sweep"));
    w.field("plan", plan.name);
    w.field("units", static_cast<std::uint64_t>(oracle.units.size()));
    w.field("seed", opt.seed);
    w.field("seeds", static_cast<std::uint64_t>(opt.seeds));
    w.field("threads", static_cast<std::uint64_t>(rn.threads_used));
    w.field("oracle_wall_seconds", r1.wall_seconds);
    w.field("parallel_wall_seconds", rn.wall_seconds);
    w.field("speedup", speedup);
    w.field("identical_output", identical);
    w.field("failed_units", static_cast<std::uint64_t>(rn.failed));
    w.end_object();
    os << "\n";
    std::cout << "wrote " << timing_path << "\n";
  }
  if (!opt.metrics_out.empty() && !write_metrics(opt.metrics_out, metrics)) {
    return 1;
  }
  return identical && runner::passes(plan, r1) && runner::passes(plan, rn)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  if (opt.list) {
    for (const runner::Plan& p : runner::plans()) {
      std::cout << p.name << " — " << p.description << " ("
                << p.points.size() << " config point"
                << (p.points.size() == 1 ? "" : "s") << ", default "
                << p.default_requests << " requests)\n";
    }
    return 0;
  }
  if (opt.plan.empty()) {
    std::cerr << argv[0] << ": --plan is required (see --list)\n";
    usage(argv[0], std::cerr);
    return 2;
  }
  const runner::Plan* plan = runner::find_plan(opt.plan);
  if (plan == nullptr) {
    std::cerr << argv[0] << ": unknown plan " << opt.plan << " (see --list)\n";
    return 2;
  }
  if (opt.seeds == 0) {
    std::cerr << argv[0] << ": --seeds must be at least 1\n";
    return 2;
  }

  if (opt.self_bench) return self_bench(opt, *plan);

  obs::MetricsRegistry metrics;
  const runner::SweepSpec spec =
      runner::make_spec(*plan, opt.seed, opt.seeds, opt.threads, opt.requests);
  const auto result = run_with_progress(spec, &metrics);

  std::cout << "plan " << plan->name << ": " << spec.units.size()
            << " units on " << result.threads_used << " thread"
            << (result.threads_used == 1 ? "" : "s") << " in "
            << result.wall_seconds << "s";
  if (result.failed > 0) std::cout << "; " << result.failed << " FAILED";
  std::cout << "\n";
  print_summary(*plan, spec, result);

  if (opt.json) {
    const std::string path =
        opt.json_out.empty() ? "BENCH_" + plan->name + ".json" : opt.json_out;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "sweep_cli: cannot write " << path << "\n";
      return 1;
    }
    runner::write_sweep_json(os, spec, result);
    std::cout << "wrote " << path << "\n";
  }
  if (!opt.metrics_out.empty() && !write_metrics(opt.metrics_out, metrics)) {
    return 1;
  }
  if (!runner::passes(*plan, result)) {
    std::cerr << "sweep_cli: plan " << plan->name << " failed its pass gate\n";
    return 1;
  }
  return 0;
}
