// One repetition of a workload: build the Scenario (timed as set-up), run
// it (timed as wall and process CPU), then check its outcome from public
// ReplicaServer / ClientStats state and digest it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RepResult {
  std::uint64_t seed = 0;
  /// Building the Scenario and installing its faults and telemetry.
  double setup_s = 0.0;
  double run_wall_s = 0.0;
  double cpu_s = 0.0;
  /// Reference-kernel milliseconds per call around this repetition (see
  /// reference_ms()).
  double ref_ms = 0.0;
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_abandoned = 0;
  std::uint64_t timing_failures = 0;
  std::uint64_t updates_issued = 0;
  std::uint64_t updates_completed = 0;
  double update_ms_sum = 0.0;
  /// Client-observed response time of every read, on the workload's clock.
  std::vector<double> read_ms;
  /// Correctness-gate failures, one line each (empty = correct).
  std::vector<std::string> violations;
  /// FNV-1a over the run's outcome (client results, replica CSNs, sends);
  /// equal across repetitions of one seed on the DES, traced or not.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  /// Bytes the workload's telemetry sink wrote (0 with telemetry off).
  std::size_t telemetry_bytes = 0;
  /// Requests the workload's clients were to issue.
  std::uint64_t expected = 0;
  /// GSN conflicts + stale replies + replicas disagreeing with their shard.
  std::uint64_t safety_violations = 0;

  std::uint64_t completed() const { return reads_completed + updates_completed; }
  /// Requests not completed (abandoned or lost) plus safety violations.
  std::uint64_t failed_ops() const {
    return (expected - std::min(expected, completed())) + safety_violations;
  }
};

/// Hooks a traced repetition uses to attach sinks before run() and to probe
/// the end state after it (the Scenario is still alive then).
struct RepHooks {
  std::function<void(aqueduct::harness::Scenario&)> before_run;
  std::function<void(aqueduct::harness::Scenario&, const RepResult&)> after_run;
};

RepResult run_rep(const Workload& w, std::uint64_t seed, bool smoke,
                  bool telemetry = true, const RepHooks* hooks = nullptr);

/// Set-up alone (build + install, no run): more samples for setup_s.
double time_setup(const Workload& w, std::uint64_t seed, bool smoke);

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty vector.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// The machine's current speed, as wall milliseconds per call of a fixed
/// kernel of the benchmark's own: heap-ordered callbacks, small allocations
/// and map updates, the kind of work the simulator does. The median of five
/// calls. Wall-clock costs divided by it are in "reference" units, which on
/// a shared machine stay put while its speed swings with the neighbours.
double reference_ms();

double peak_rss_mb();
double process_cpu_s();
double wall_s();

}  // namespace perfbench
