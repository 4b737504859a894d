// The repository benchmark: drives one workload through harness::Scenario
// and prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics from untraced repetitions;
// --trace 1 runs the traced ledger (ledger.hpp) and prints the per-layer
// metrics. Exit status: 0 correct, 1 a correctness check failed (the JSON
// is still printed, with "correct": false), 2 bad arguments.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "measure.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Fewest repetitions per run: medians need several even on a slow machine.
constexpr std::size_t kMinReps = 3;
// Extra set-ups (build + install, no run) after each repetition: set-up
// takes well under a millisecond, so it needs many samples spread over the
// whole run.
constexpr std::size_t kSetupsPerRep = 8;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n";
  return 2;
}

int run_untraced(const Workload& w, const Options& opt) {
  const double begin = wall_s();
  std::vector<RepResult> reps;
  std::vector<double> setup;
  // On the DES one more repetition follows the loop (the determinism
  // check), so the loop leaves room for it.
  for (std::uint64_t rep = 0;; ++rep) {
    const double rep_begin = wall_s();
    reps.push_back(run_rep(w, rep_seed(opt.seed, rep), opt.smoke));
    // Set-up time at reference speed (see reference_ms()): seconds on a
    // machine whose reference call takes 1 ms.
    const double ref_ms = reps.back().ref_ms;
    setup.push_back(reps.back().setup_s / ref_ms);
    for (std::size_t i = 0; i < kSetupsPerRep; ++i) {
      setup.push_back(time_setup(w, reps.back().seed, opt.smoke) / ref_ms);
    }
    const double reserve = w.realtime ? 0.0 : wall_s() - rep_begin;
    if (reps.size() >= kMinReps && wall_s() - begin + reserve >= opt.seconds) break;
  }
  Report report;
  // The DES is deterministic: repeating the first seed must reproduce its
  // outcome exactly. Its timings join the wall-clock samples; its reads
  // do not join the pooled latencies (they would count that seed twice).
  std::vector<RepResult> timed = reps;
  if (!w.realtime) {
    RepResult again = run_rep(w, reps.front().seed, opt.smoke);
    if (again.digest != reps.front().digest || again.events != reps.front().events) {
      report.fail("seed " + std::to_string(again.seed) +
                  ": repeated DES run produced a different outcome digest");
    }
    timed.push_back(std::move(again));
  }

  std::vector<double> cpu_us, read_ms;
  double update_ms = 0.0, updates = 0.0;
  for (const RepResult& r : timed) {
    // In reference microseconds (see reference_ms()): CPU time divided by
    // the machine's current reference speed.
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.completed()) / r.ref_ms);
    report.count(r);
  }
  for (const RepResult& r : reps) {
    read_ms.insert(read_ms.end(), r.read_ms.begin(), r.read_ms.end());
    update_ms += r.update_ms_sum;
    updates += static_cast<double>(r.updates_completed);
  }
  const std::size_t samples = read_ms.size();
  report.metric("cpu_ref_us_per_request", median(cpu_us), "ref_us");
  report.metric("setup_s", median(setup), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("read_p50_ms", quantile(read_ms, 0.50), "ms");
  report.metric("read_p98_ms", quantile(read_ms, 0.98), "ms");
  report.metric("update_mean_ms", updates > 0 ? update_ms / updates : 0.0, "ms");
  report.metric("completed_ops_share", report.completed_share(), "ratio");
  std::cout << "# " << w.name << ": " << reps.size() << " seeds + "
            << (timed.size() - reps.size()) << " repeat, " << samples
            << " read samples ("
            << (w.realtime ? "wall clock" : "simulated clock") << ")\n";
  return report.print();
}

int main_impl(int argc, char** argv) {
  Options opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        workload = value();
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = opt.seconds > 0;
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (flag == "--smoke") {
        opt.smoke = true;
      } else if (flag == "--out-dir") {
        opt.out_dir = value();
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  return opt.trace ? run_ledger(*w, opt) : run_untraced(*w, opt);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
