// The benchmark's four workloads, each a generated harness::ScenarioConfig
// plus the faults and telemetry installed on the built Scenario. The
// program receives only these generated inputs; every random choice is a
// function of the seed passed in.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/sinks.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Runs on runtime::RealTimeExecutor (wall clock) instead of the DES.
  bool realtime = false;
  /// Workload clients and the requests each issues per repetition.
  std::size_t clients = 0;
  std::size_t requests_per_client = 0;
};

/// Null if `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// `smoke` shrinks the request count for the self-test.
aqueduct::harness::ScenarioConfig make_config(const Workload& w,
                                              std::uint64_t seed, bool smoke);

/// What install() attached to a Scenario; must outlive its run().
struct Installed {
  std::unique_ptr<std::ostringstream> telemetry_stream;
  std::unique_ptr<aqueduct::obs::JsonlSnapshotSink> telemetry_sink;
  std::size_t telemetry_bytes() const {
    return telemetry_stream ? telemetry_stream->str().size() : 0;
  }
};

/// Installs the workload's fault schedule, dependability manager and
/// telemetry (`telemetry` = false leaves telemetry off, for the traced
/// run's telemetry-overhead comparison).
void install(const Workload& w, aqueduct::harness::Scenario& scenario,
             std::uint64_t seed, bool telemetry, Installed& out);

/// sharded_gray's chaos-transport fault rates, at the middle of the ranges
/// its seeds draw from (the ledger's chaos send probe uses these).
struct GrayNetwork {
  double loss = 0.0;
  double duplicate = 0.0;
};
inline constexpr GrayNetwork kGrayNetwork{.loss = 0.004, .duplicate = 0.05};

/// Derives the seed of repetition `rep` from the run's seed.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep);

}  // namespace perfbench
