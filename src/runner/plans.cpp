#include "runner/plans.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include "fault/schedule.hpp"
#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/sinks.hpp"
#include "replication/objects.hpp"
#include "sim/random.hpp"

namespace aqueduct::runner {

namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// ------------------------------------------------------ per-unit telemetry

/// Every plan unit runs with periodic telemetry streaming to a JSONL sink
/// whose bytes are hashed and counted as they are written, never stored;
/// the series is rolled up into the row as a deterministic digest plus
/// snapshot/violation counters. Because the series is a pure function of
/// the unit's (seed, point), the digest is byte-identical for any sweep
/// thread count — the determinism suite asserts it.
class UnitTelemetry {
 public:
  explicit UnitTelemetry(harness::Scenario& scenario) {
    scenario.enable_telemetry(milliseconds(250)).add_sink(&sink_);
  }

  void report(harness::Scenario& scenario, SeedRecord& rec) {
    std::ostringstream digest;
    digest << std::hex << std::setw(16) << std::setfill('0')
           << series_.digest();
    rec.text("telemetry_digest", digest.str());
    rec.counter("telemetry_snapshots", scenario.telemetry()->snapshots());
    rec.counter("telemetry_bytes", series_.bytes());
    rec.counter("sla_violations",
                scenario.observability().sla.total_violations());
  }

 private:
  obs::DigestStreamBuf series_;
  std::ostream out_{&series_};
  obs::JsonlSnapshotSink sink_{out_};
};

// ---------------------------------------------------------- paper workload

/// The paper's two-client workload (Section 6.1), which most plans vary
/// one knob of: client 1 at a=4, d=200 ms, Pc=0.1 next to client 2, the
/// measured client, at a=2, d=140 ms, Pc=0.9; both with a 1 s request
/// delay.
harness::ScenarioConfig paper_workload(std::uint64_t seed,
                                       std::size_t requests,
                                       sim::Duration lazy_update_interval) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.lazy_update_interval = lazy_update_interval;
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = c == 0 ? 4u : 2u,
                .deadline = milliseconds(c == 0 ? 200 : 140),
                .min_probability = c == 0 ? 0.1 : 0.9},
        .request_delay = milliseconds(1000),
        .num_requests = requests,
    });
  }
  return config;
}

/// The measured client's selection and read outcomes.
void report_reads(SeedRecord& rec, const client::ClientStats& stats) {
  rec.value("avg_replicas_selected", stats.avg_replicas_selected());
  rec.value("deferred_fraction",
            stats.reads_completed == 0
                ? 0.0
                : static_cast<double>(stats.deferred_replies) /
                      static_cast<double>(stats.reads_completed));
  rec.counter("reads_completed", stats.reads_completed);
  rec.counter("reads_abandoned", stats.reads_abandoned);
  rec.counter("timing_failures", stats.timing_failures);
  rec.counter("staleness_violations", stats.staleness_violations);
  rec.counter("deferred_replies", stats.deferred_replies);
}

/// The measured client's read latency and throughput over the run's
/// simulated span.
void report_latency(SeedRecord& rec, const harness::ClientResult& client,
                    sim::Duration simulated) {
  const double simulated_s = sim::to_sec(simulated);
  rec.value("simulated_seconds", simulated_s);
  rec.value("throughput_rps",
            simulated_s <= 0.0
                ? 0.0
                : static_cast<double>(client.stats.reads_completed) /
                      simulated_s);
  rec.value("avg_read_ms", sim::to_ms(client.stats.avg_response_time()));
  const auto& times = client.read_response_times;
  rec.value("p50_ms", harness::percentile(times, 0.50) * 1000.0);
  rec.value("p95_ms", harness::percentile(times, 0.95) * 1000.0);
  rec.value("p99_ms", harness::percentile(times, 0.99) * 1000.0);
}

/// Plan-specific row fields read off the finished scenario.
using ExtraFields = std::function<void(
    harness::Scenario&, const std::vector<harness::ClientResult>&,
    SeedRecord&)>;

/// Runs one point of a plan: the knob values that name the point, then the
/// measured client's reads and latency (client 2 of the paper workload by
/// default), then `extra`.
SeedRecord run_measured(
    harness::ScenarioConfig config,
    std::initializer_list<std::pair<const char*, double>> knobs,
    const ExtraFields& extra = {}, std::size_t measured = 1) {
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);
  const auto results = scenario.run();
  SeedRecord rec;
  for (const auto& [name, v] : knobs) rec.value(name, v);
  report_reads(rec, results[measured].stats);
  report_latency(rec, results[measured],
                 scenario.executor().now() - sim::kEpoch);
  if (extra) extra(scenario, results, rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ---------------------------------------------------------------- recovery

constexpr std::size_t kRecoveryVictim = 1;  // a primary (0 = sequencer)
constexpr auto kRecoveryCrashAt = seconds(8);
constexpr auto kRecoveryRestartAt = seconds(14);

SeedRecord run_recovery(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = unit.seed;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.lazy_update_interval = seconds(2);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(250),
                .min_probability = 0.5},
        .request_delay = milliseconds(150),
        .num_requests = requests,
    });
  }
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);

  fault::FaultSchedule plan;
  plan.crash_restart(kRecoveryVictim, kRecoveryCrashAt, kRecoveryRestartAt);
  scenario.apply_faults(plan);

  auto run = scenario.run();
  const auto& reborn = scenario.replica(kRecoveryVictim);

  SeedRecord rec;
  const double recovered_s =
      reborn.recovered_at() > sim::kEpoch
          ? sim::to_sec(reborn.recovered_at() - sim::kEpoch)
          : -1.0;
  const double restart_s = sim::to_sec(sim::Duration(kRecoveryRestartAt));
  const double rejoin =
      recovered_s < 0.0 ? -1.0 : recovered_s - restart_s;
  const double first_selection =
      reborn.first_read_request_at() > sim::kEpoch
          ? sim::to_sec(reborn.first_read_request_at() - sim::kEpoch) -
                restart_s
          : -1.0;
  rec.value("time_to_rejoin_s", rejoin);
  rec.value("time_to_first_selection_s", first_selection);
  if (rejoin >= 0.0) rec.sample("rejoin_s", {rejoin});
  if (first_selection >= 0.0) rec.sample("first_selection_s", {first_selection});

  // Attribute every completed read to the outage window or steady state.
  const double outage_from = sim::to_sec(sim::Duration(kRecoveryCrashAt));
  const double outage_until =
      recovered_s < 0.0 ? sim::to_sec(scenario.executor().now() - sim::kEpoch)
                        : recovered_s;
  std::uint64_t reads_completed = 0, reads_abandoned = 0;
  std::uint64_t outage_reads = 0, outage_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  for (const auto& client : run) {
    reads_completed += client.stats.reads_completed;
    reads_abandoned += client.stats.reads_abandoned;
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const bool in_outage = client.read_completed_at[i] >= outage_from &&
                             client.read_completed_at[i] < outage_until;
      const bool failed = client.read_timing_failures[i];
      (in_outage ? outage_reads : steady_reads) += 1;
      if (failed) (in_outage ? outage_failures : steady_failures) += 1;
    }
  }
  rec.counter("reads_completed", reads_completed);
  rec.counter("reads_abandoned", reads_abandoned);
  rec.counter("outage_reads", outage_reads);
  rec.counter("outage_failures", outage_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("gsn_conflicts",
              harness::check_agreement(scenario).gsn_conflicts);
  rec.counter("recovered", rejoin >= 0.0 ? 1 : 0);
  rec.counter("selected", first_selection >= 0.0 ? 1 : 0);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------- failure injection

fault::FaultSchedule failure_schedule(std::size_t point) {
  fault::FaultSchedule schedule;
  switch (point) {
    case 0:  // baseline — no failures
      break;
    case 1:  // primary crash
      schedule.crash(2, seconds(100));
      break;
    case 2:  // two secondary crashes
      schedule.crash(6, seconds(100)).crash(8, seconds(100));
      break;
    case 3:  // sequencer crash
      schedule.crash(0, seconds(100));
      break;
    case 4:  // primary crash + recovery
      schedule.crash_restart(2, seconds(100), seconds(115));
      break;
  }
  return schedule;
}

SeedRecord run_failure_injection(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(paper_workload(unit.seed, requests, seconds(2)));
  UnitTelemetry telemetry(scenario);
  scenario.apply_faults(failure_schedule(unit.point));
  auto results = scenario.run();
  const auto& stats = results[1].stats;  // the tight-QoS client

  std::uint64_t reborn = 0;  // restarted slots (fresh incarnations)
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    reborn += scenario.incarnation(i);
  }
  SeedRecord rec;
  rec.value("avg_replicas_selected", stats.avg_replicas_selected());
  rec.counter("reads_completed", stats.reads_completed);
  rec.counter("reads_abandoned", stats.reads_abandoned);
  rec.counter("timing_failures", stats.timing_failures);
  rec.counter("retries", stats.retries);
  rec.counter("staleness_violations", results[0].stats.staleness_violations +
                                          stats.staleness_violations);
  rec.counter("reborn", reborn);
  rec.counter("gsn_conflicts",
              harness::check_agreement(scenario).gsn_conflicts);
  telemetry.report(scenario, rec);
  return rec;
}

// --------------------------------------------------------- fig4 adaptivity

struct Fig4Config {
  double pc;
  sim::Duration lui;
  std::string label() const {
    return "(prob: " + harness::Table::num(pc, 1) +
           ", LUI: " + harness::Table::num(sim::to_sec(lui), 0) + " secs)";
  }
};

const std::vector<Fig4Config>& fig4_configs() {
  static const std::vector<Fig4Config> configs = {
      {0.9, seconds(4)},
      {0.5, seconds(4)},
      {0.9, seconds(2)},
      {0.5, seconds(2)},
  };
  return configs;
}

const std::vector<int>& fig4_deadlines_ms() {
  static const std::vector<int> deadlines = {80,  100, 120, 140,
                                             160, 180, 200, 220};
  return deadlines;
}

SeedRecord run_fig4(const Unit& unit, std::size_t requests) {
  const auto& configs = fig4_configs();
  const auto& deadlines = fig4_deadlines_ms();
  const Fig4Config& c = configs[unit.point % configs.size()];
  const int deadline_ms = deadlines[unit.point / configs.size()];

  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, c.lui);
  config.clients[1].qos.deadline = milliseconds(deadline_ms);
  config.clients[1].qos.min_probability = c.pc;
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);
  auto results = scenario.run();

  SeedRecord rec;
  rec.value("deadline_ms", static_cast<double>(deadline_ms));
  rec.value("pc", c.pc);
  rec.value("lui_s", sim::to_sec(c.lui));
  report_reads(rec, results[1].stats);  // client 2 is the measured client
  std::vector<double> read_ms;
  read_ms.reserve(results[1].read_response_times.size());
  for (const double s : results[1].read_response_times) {
    read_ms.push_back(s * 1000.0);
  }
  rec.sample("read_ms", std::move(read_ms));
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ chaos suites

/// Shared invariant distillation: liveness, staleness, GSN uniqueness,
/// exactly-once commits, committed-prefix convergence and, in the shard
/// plans, key placement. Violation counters stay 0 on a healthy run; the
/// chaos tests assert exactly that.
struct Invariants {
  std::uint64_t liveness_violations = 0;
  std::uint64_t staleness_violations = 0;
  harness::Agreement agreement;
  /// Only the shard plans report `leaked_keys`; on one shard it is 0 by
  /// construction (every key maps to shard 0).
  bool placement = false;

  void report(SeedRecord& rec) const {
    rec.counter("liveness_violations", liveness_violations);
    rec.counter("staleness_violations", staleness_violations);
    rec.counter("gsn_conflicts", agreement.gsn_conflicts);
    rec.counter("csn_mismatches", agreement.csn_mismatches);
    rec.counter("divergences", agreement.divergences);
    if (placement) rec.counter("leaked_keys", agreement.leaked_keys);
    rec.counter("violations", liveness_violations + staleness_violations +
                                  agreement.total());
  }
};

/// The clients' share: every read completed or abandoned (liveness), and
/// no reply staler than its client's threshold.
Invariants client_invariants(const std::vector<harness::ClientResult>& results,
                             std::uint64_t expected_reads) {
  Invariants inv;
  for (const auto& r : results) {
    if (r.stats.reads_completed + r.stats.reads_abandoned != expected_reads) {
      ++inv.liveness_violations;
    }
    inv.staleness_violations += r.stats.staleness_violations;
  }
  return inv;
}

/// The clients' share plus harness::check_agreement; `placement` also
/// reports leaked keys (the shard plans).
Invariants checked_invariants(
    const harness::Scenario& scenario,
    const std::vector<harness::ClientResult>& results,
    std::uint64_t expected_reads, bool placement = false) {
  Invariants inv = client_invariants(results, expected_reads);
  inv.agreement = harness::check_agreement(scenario);
  inv.placement = placement;
  return inv;
}

harness::ScenarioConfig chaos_config(std::uint64_t seed,
                                     std::size_t num_primaries,
                                     std::size_t num_secondaries,
                                     std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_primaries = num_primaries;
  config.num_secondaries = num_secondaries;
  config.lazy_update_interval = seconds(2);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(200),
                .min_probability = 0.5},
        .request_delay = milliseconds(200),
        .num_requests = requests,
    });
  }
  return config;
}

/// Randomized loss + crashes (no restarts): the original ChaosProperty
/// suite. Crash candidates avoid primary 1 and the last secondary so the
/// service always stays alive.
SeedRecord run_chaos(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 3, 3, requests));
  UnitTelemetry telemetry(scenario);

  sim::Rng chaos(unit.seed * 7919 + 13);
  fault::FaultSchedule plan;
  plan.loss(0.10, seconds(5)).loss(0.0, seconds(25));
  const std::size_t crashes = 1 + chaos.uniform_int(2);
  std::vector<std::size_t> crashed;
  for (std::size_t i = 0; i < crashes; ++i) {
    const std::size_t candidates[] = {0, 2, 3, 4, 5};
    const std::size_t victim = candidates[chaos.uniform_int(5)];
    if (std::find(crashed.begin(), crashed.end(), victim) != crashed.end()) {
      continue;
    }
    crashed.push_back(victim);
    plan.crash(victim, seconds(8 + 10 * static_cast<int>(i)));
  }
  scenario.apply_faults(plan);

  auto results = scenario.run();

  // Not harness::check_agreement: this rule also holds primaries that are
  // still recovering at the end to the commit rule, which that checker
  // skips, so folding it in would loosen the gate.
  Invariants inv = client_invariants(results, requests / 2);
  std::uint64_t max_csn = 0;
  for (std::size_t i = 0; i <= 3; ++i) {
    if (std::find(crashed.begin(), crashed.end(), i) != crashed.end()) continue;
    const auto& replica = scenario.replica(i);
    inv.agreement.gsn_conflicts += replica.stats().gsn_conflicts;
    const auto& store =
        dynamic_cast<const replication::KeyValueStore&>(replica.object());
    if (store.version() != replica.csn()) ++inv.agreement.csn_mismatches;
    max_csn = std::max(max_csn, replica.csn());
  }
  for (std::size_t i = 1; i <= 3; ++i) {
    if (std::find(crashed.begin(), crashed.end(), i) != crashed.end()) continue;
    if (scenario.replica(i).csn() + 2 < max_csn) ++inv.agreement.divergences;
  }
  SeedRecord rec;
  inv.report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

/// Crash-then-recover chaos: every crash is followed by a seed-derived
/// restart, so the invariants must hold across reincarnations.
SeedRecord run_chaos_recovery(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 2, 3, requests));
  UnitTelemetry telemetry(scenario);

  fault::RandomFaultParams params;
  params.crash_candidates = scenario.num_replicas();
  params.min_crashes = 1;
  params.max_crashes = 2;
  params.earliest_crash = seconds(6);
  params.crash_spacing = seconds(10);
  params.min_outage = seconds(4);
  params.max_outage = seconds(10);
  params.loss_probability = 0.05;
  params.loss_from = seconds(5);
  params.loss_until = seconds(20);
  scenario.apply_faults(
      fault::FaultSchedule::random(unit.seed * 7919 + 13, params));

  auto results = scenario.run();

  SeedRecord rec;
  checked_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ gray failures

/// Invariant collection shared by the gray plans: no replica crashes in
/// them, so every replica is checked and primaries must agree on the
/// committed prefix. Not harness::check_agreement: this rule also holds
/// primaries that are still recovering at the end (after an eviction
/// restart) to the commit rule, which that checker skips, so folding it in
/// would loosen the gate.
Invariants collect_gray_invariants(
    harness::Scenario& scenario,
    const std::vector<harness::ClientResult>& results,
    std::uint64_t expected_reads) {
  Invariants inv = client_invariants(results, expected_reads);
  harness::Agreement& agreement = inv.agreement;
  agreement.gsn_conflicts = harness::check_agreement(scenario).gsn_conflicts;
  std::uint64_t max_csn = 0;
  const std::size_t num_primaries = 3;  // chaos_config(…, 3, 3, …) layout
  for (std::size_t i = 0; i <= num_primaries; ++i) {
    const auto& replica = scenario.replica(i);
    const auto& store =
        dynamic_cast<const replication::KeyValueStore&>(replica.object());
    if (store.version() != replica.csn()) ++agreement.csn_mismatches;
    max_csn = std::max(max_csn, replica.csn());
  }
  for (std::size_t i = 1; i <= num_primaries; ++i) {
    if (scenario.replica(i).csn() + 2 < max_csn) ++agreement.divergences;
  }
  return inv;
}

constexpr auto kGrayOnset = seconds(5);
constexpr auto kGrayHealAt = seconds(18);

/// Severity ladder for the gray_failure plan. Each point layers more
/// degradation onto the same window [kGrayOnset, kGrayHealAt): reordering
/// and duplication first, then a slow-but-alive primary with lossy
/// sequencer links, then a partial partition plus a throttled link.
fault::FaultSchedule gray_severity_schedule(std::size_t point) {
  fault::FaultSchedule plan;
  const auto window = kGrayHealAt - kGrayOnset;
  switch (point) {
    case 0:  // baseline — no degradation
      break;
    case 1:  // mild
      plan.reorder(0.10, milliseconds(20), kGrayOnset)
          .duplicate_storm(0.05, kGrayOnset);
      break;
    case 2:  // moderate
      plan.reorder(0.20, milliseconds(30), kGrayOnset)
          .duplicate_storm(0.10, kGrayOnset)
          .latency_spike(2, milliseconds(3), milliseconds(1), kGrayOnset,
                         window)
          .degrade_link(0, 2, milliseconds(2), milliseconds(1), 0.05,
                        kGrayOnset)
          .degrade_link(2, 0, milliseconds(2), milliseconds(1), 0.05,
                        kGrayOnset);
      break;
    case 3:  // severe
      plan.reorder(0.30, milliseconds(40), kGrayOnset)
          .duplicate_storm(0.25, kGrayOnset)
          .latency_spike(2, milliseconds(4), milliseconds(2), kGrayOnset,
                         window)
          .degrade_link(0, 2, milliseconds(3), milliseconds(1), 0.10,
                        kGrayOnset)
          .degrade_link(2, 0, milliseconds(3), milliseconds(1), 0.10,
                        kGrayOnset)
          .throttle_link(0, 3, milliseconds(2), kGrayOnset)
          .partial_partition(2, 5, kGrayOnset + seconds(1), seconds(6));
      break;
  }
  plan.heal_gray(kGrayHealAt);
  return plan;
}

/// Severity ladder: timing-failure rate inside vs outside the degradation
/// window and time-to-detect (first deadline miss after onset), with the
/// safety counters that must pool to 0. The chaos decorator wraps the
/// loopback, so the whole trajectory stays a pure function of the seed.
SeedRecord run_gray_failure(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = chaos_config(unit.seed, 3, 3, requests);
  config.chaos = true;
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);
  scenario.apply_faults(gray_severity_schedule(unit.point));

  auto results = scenario.run();

  const double onset_s = sim::to_sec(sim::Duration(kGrayOnset));
  const double heal_s = sim::to_sec(sim::Duration(kGrayHealAt));
  std::uint64_t degraded_reads = 0, degraded_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  double detect_s = -1.0;
  for (const auto& client : results) {
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const double t = client.read_completed_at[i];
      const bool degraded = unit.point > 0 && t >= onset_s && t < heal_s;
      const bool failed = client.read_timing_failures[i];
      (degraded ? degraded_reads : steady_reads) += 1;
      if (failed) {
        (degraded ? degraded_failures : steady_failures) += 1;
        if (degraded && (detect_s < 0.0 || t - onset_s < detect_s)) {
          detect_s = t - onset_s;
        }
      }
    }
  }

  SeedRecord rec;
  rec.value("severity", static_cast<double>(unit.point));
  rec.counter("degraded_reads", degraded_reads);
  rec.counter("degraded_failures", degraded_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("detected", detect_s >= 0.0 ? 1 : 0);
  if (detect_s >= 0.0) rec.sample("time_to_detect_s", {detect_s});

  const net::TransportStats ts = scenario.transport_stats();
  rec.counter("messages_duplicated", ts.messages_duplicated);
  rec.counter("messages_reordered", ts.messages_reordered);
  rec.counter("messages_delayed", ts.messages_delayed);
  rec.counter("messages_dropped_loss", ts.messages_dropped_loss);

  collect_gray_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

/// Seed-randomized gray chaos: reordering + duplication + a degraded link
/// + a partial partition, all healed before the run ends. The gtest suite
/// fans this across 12 seeds and asserts the invariants pool to 0.
SeedRecord run_gray_chaos(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = chaos_config(unit.seed, 3, 3, requests);
  config.chaos = true;
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);

  sim::Rng gray(unit.seed * 6271 + 17);
  const std::size_t num_replicas = scenario.num_replicas();
  fault::FaultSchedule plan;
  plan.reorder(0.05 + 0.25 * gray.uniform(),
               milliseconds(10 + gray.uniform_int(40)), seconds(4));
  plan.duplicate_storm(0.02 + 0.18 * gray.uniform(), seconds(4));
  plan.loss(0.05, seconds(4));
  const std::size_t from = gray.uniform_int(num_replicas);
  std::size_t to = gray.uniform_int(num_replicas);
  if (to == from) to = (to + 1) % num_replicas;
  plan.degrade_link(from, to, milliseconds(1 + gray.uniform_int(3)),
                    milliseconds(1), 0.05, seconds(5));
  // Partial partition between a primary and a secondary, healed after 5s.
  plan.partial_partition(1 + gray.uniform_int(3), 4 + gray.uniform_int(3),
                         seconds(6), seconds(5));
  plan.heal_gray(seconds(14));
  scenario.apply_faults(plan);

  auto results = scenario.run();

  SeedRecord rec;
  const net::TransportStats ts = scenario.transport_stats();
  rec.counter("messages_duplicated", ts.messages_duplicated);
  rec.counter("messages_reordered", ts.messages_reordered);
  rec.counter("messages_delayed", ts.messages_delayed);
  rec.counter("messages_dropped_loss", ts.messages_dropped_loss);
  collect_gray_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ shard plans

harness::ScenarioConfig shard_config(std::uint64_t seed, std::size_t shards,
                                     std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_shards = shards;
  config.num_primaries = 1;
  config.num_secondaries = 1;
  config.lazy_update_interval = seconds(2);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(250),
                .min_probability = 0.5},
        .request_delay = milliseconds(200),
        .num_requests = requests,
        .num_keys = 64,
    });
  }
  return config;
}

/// Per-shard routed request tallies across every workload client.
std::vector<std::uint64_t> routed_per_shard(harness::Scenario& scenario) {
  std::vector<std::uint64_t> routed(scenario.num_shards(), 0);
  for (std::size_t w = 0; w < scenario.num_workloads(); ++w) {
    const auto& router = scenario.workload(w).router();
    for (std::size_t k = 0; k < routed.size(); ++k) {
      routed[k] += router.route_stats(k).reads_routed +
                   router.route_stats(k).updates_routed;
    }
  }
  return routed;
}

constexpr std::size_t kShardScalingCounts[] = {1, 4, 16};

/// Same substrate, same workload, 1 → 4 → 16 replica groups: routing
/// balance, intra-shard agreement, and the placement invariant must hold
/// at every width.
SeedRecord run_shard_scaling(const Unit& unit, std::size_t requests) {
  const std::size_t shards = kShardScalingCounts[unit.point % 3];
  harness::Scenario scenario(shard_config(unit.seed, shards, requests));
  UnitTelemetry telemetry(scenario);
  auto results = scenario.run();

  std::uint64_t reads_completed = 0, reads_abandoned = 0;
  std::uint64_t timing_failures = 0, retries = 0, updates_completed = 0;
  std::vector<double> read_ms;
  for (const auto& r : results) {
    reads_completed += r.stats.reads_completed;
    reads_abandoned += r.stats.reads_abandoned;
    timing_failures += r.stats.timing_failures;
    retries += r.stats.retries;
    updates_completed += r.stats.updates_completed;
    for (const double s : r.read_response_times) read_ms.push_back(s * 1000.0);
  }
  const std::vector<std::uint64_t> routed = routed_per_shard(scenario);
  std::uint64_t total_routed = 0, max_routed = 0;
  for (const std::uint64_t r : routed) {
    total_routed += r;
    max_routed = std::max(max_routed, r);
  }
  const double mean_routed =
      static_cast<double>(total_routed) / static_cast<double>(routed.size());

  SeedRecord rec;
  rec.value("shards", static_cast<double>(shards));
  // max/mean shard load: 1.0 = perfectly uniform routing.
  rec.value("balance_ratio",
            mean_routed == 0.0 ? 0.0
                               : static_cast<double>(max_routed) / mean_routed);
  // Simulated-time span of the run, for deterministic throughput trends
  // (ops per simulated second; wall time is excluded from sweep JSON).
  rec.value("sim_end_s", sim::to_sec(scenario.executor().now() - sim::kEpoch));
  rec.counter("reads_completed", reads_completed);
  rec.counter("reads_abandoned", reads_abandoned);
  rec.counter("updates_completed", updates_completed);
  rec.counter("timing_failures", timing_failures);
  rec.counter("retries", retries);
  rec.sample("read_ms", std::move(read_ms));
  checked_invariants(scenario, results, requests / 2, /*placement=*/true)
      .report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

constexpr std::size_t kHotShardShards = 16;
constexpr auto kShardFaultOnset = seconds(5);
constexpr auto kShardFaultHeal = seconds(16);

/// Cross-shard fault matrix on a 16-shard pool: a uniform baseline, one
/// overloaded (hot) replica group, and a correlated rack failure taking
/// the same slot from every shard at once. Faults on one shard must never
/// bleed into another's agreement or placement invariants.
SeedRecord run_hot_shard(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(
      shard_config(unit.seed, kHotShardShards, requests));
  UnitTelemetry telemetry(scenario);

  // The hot group is whichever shard owns the workload's first key, so the
  // fault always lands on shard that actually serves traffic.
  const std::size_t hot = scenario.shard_map().shard_for("k0");
  fault::FaultSchedule plan;
  switch (unit.point) {
    case 0:  // uniform — no faults
      break;
    case 1:  // one overloaded replica group: the spike has to clear the
             // 250 ms deadline, or the hot shard is invisible to the QoS
             // contract and the degraded window carries no signal
      plan.hot_shard(hot, scenario.servers_per_shard(), milliseconds(300),
                     milliseconds(80), kShardFaultOnset,
                     kShardFaultHeal - kShardFaultOnset);
      break;
    case 2:  // shared rack: every shard loses its secondary, then recovers
      plan.correlated_rack_failure(/*rack_slot=*/2, kHotShardShards,
                                   kShardFaultOnset + seconds(1),
                                   kShardFaultHeal - seconds(4));
      break;
  }
  scenario.apply_faults(plan);
  auto results = scenario.run();

  const double onset_s = sim::to_sec(sim::Duration(kShardFaultOnset));
  const double heal_s = sim::to_sec(sim::Duration(kShardFaultHeal));
  std::uint64_t degraded_reads = 0, degraded_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  for (const auto& client : results) {
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const double t = client.read_completed_at[i];
      const bool degraded = unit.point > 0 && t >= onset_s && t < heal_s;
      const bool failed = client.read_timing_failures[i];
      (degraded ? degraded_reads : steady_reads) += 1;
      if (failed) (degraded ? degraded_failures : steady_failures) += 1;
    }
  }
  std::uint64_t reborn = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    reborn += scenario.incarnation(i);
  }
  const std::vector<std::uint64_t> routed = routed_per_shard(scenario);
  std::uint64_t total_routed = 0;
  for (const std::uint64_t r : routed) total_routed += r;

  SeedRecord rec;
  rec.value("hot_shard", static_cast<double>(hot));
  rec.value("hot_fraction",
            total_routed == 0 ? 0.0
                              : static_cast<double>(routed[hot]) /
                                    static_cast<double>(total_routed));
  rec.counter("degraded_reads", degraded_reads);
  rec.counter("degraded_failures", degraded_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("reborn", reborn);
  checked_invariants(scenario, results, requests / 2, /*placement=*/true)
      .report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------ paper-workload sweeps

/// Section 7 ablation: the lazy-update interval T_L is the consistency/
/// timeliness knob of the two-level replica organization.
constexpr double kAblationLuisS[] = {1, 2, 4, 8};

SeedRecord run_ablation_lui(const Unit& unit, std::size_t requests) {
  const double lui = kAblationLuisS[unit.point];
  return run_measured(paper_workload(unit.seed, requests, sim::from_sec(lui)),
                      {{"lui_s", lui}});
}

/// Section 7 ablation: the request delay sets the update arrival rate and
/// the replicas' load.
constexpr int kAblationDelaysMs[] = {250, 500, 1000, 2000};

SeedRecord run_ablation_request_delay(const Unit& unit,
                                      std::size_t requests) {
  const int delay = kAblationDelaysMs[unit.point];
  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, seconds(4));
  for (auto& client : config.clients) {
    client.request_delay = milliseconds(delay);
  }
  // Each client issues one update per write/read pair, i.e. roughly one
  // update per 2 * (delay + ~110 ms response) per client.
  return run_measured(std::move(config),
                      {{"request_delay_ms", delay},
                       {"est_lambda_u_per_s",
                        2.0 / (2.0 * (delay / 1000.0 + 0.11))}});
}

/// Section 5's motivation: Algorithm 1 against select-all, select-one and
/// fixed-k, plus ablations of its two design rules.
struct BaselineSelector {
  std::string name;
  harness::SelectorFactory factory;
};

const std::vector<BaselineSelector>& baseline_selectors() {
  static const std::vector<BaselineSelector> selectors = {
      {"probabilistic (Algorithm 1)",
       [] { return std::make_unique<core::ProbabilisticSelector>(); }},
      {"probabilistic, no failure allowance",
       [] {
         return std::make_unique<core::ProbabilisticSelector>(
             core::ProbabilisticOptions{.tolerate_one_failure = false});
       }},
      {"probabilistic, greedy CDF order",
       [] {
         return std::make_unique<core::ProbabilisticSelector>(
             core::ProbabilisticOptions{.sort_by_ert = false});
       }},
      {"select-all",
       [] { return std::make_unique<core::SelectAllSelector>(); }},
      {"select-one (random)",
       [] {
         return std::make_unique<core::SelectOneSelector>(
             core::SelectOneSelector::Policy::kRandom);
       }},
      {"select-one (LRU)",
       [] {
         return std::make_unique<core::SelectOneSelector>(
             core::SelectOneSelector::Policy::kLeastRecentlyUsed);
       }},
      {"fixed-k (k=3)",
       [] { return std::make_unique<core::FixedKSelector>(3); }},
  };
  return selectors;
}

SeedRecord run_baselines(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, seconds(4));
  for (auto& client : config.clients) {
    client.selector = baseline_selectors()[unit.point].factory;
  }
  return run_measured(
      std::move(config), {},
      [](harness::Scenario& scenario,
         const std::vector<harness::ClientResult>& results, SeedRecord& rec) {
        // Load proxy: how many replica services each read consumed.
        std::uint64_t reads_served = 0;
        for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
          reads_served += scenario.replica(i).stats().reads_served;
        }
        const std::uint64_t total_reads = results[0].stats.reads_completed +
                                          results[1].stats.reads_completed;
        rec.value("replica_msgs_per_read",
                  total_reads == 0 ? 0.0
                                   : static_cast<double>(reads_served) /
                                         static_cast<double>(total_reads));
      });
}

/// Section 3: the primary/secondary split of a fixed 10-replica pool, from
/// write-all (10/0) to a small primary group feeding a large lazy tier.
constexpr std::size_t kGroupPrimaries[] = {10, 8, 6, 4, 2};

SeedRecord run_group_sizing(const Unit& unit, std::size_t requests) {
  const std::size_t primaries = kGroupPrimaries[unit.point];
  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, seconds(4));
  config.num_primaries = primaries;
  config.num_secondaries = 10 - primaries;
  return run_measured(
      std::move(config),
      {{"primaries", static_cast<double>(primaries)},
       {"secondaries", static_cast<double>(10 - primaries)}},
      [](harness::Scenario& scenario,
         const std::vector<harness::ClientResult>& results, SeedRecord& rec) {
        // Every primary (and the sequencer) services every update: the
        // write-all cost the two-level organization avoids.
        std::uint64_t update_services = 0;
        for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
          update_services += scenario.replica(i).stats().updates_committed;
        }
        const std::uint64_t updates = results[0].stats.updates_completed +
                                      results[1].stats.updates_completed;
        rec.value("avg_update_ms",
                  sim::to_ms(results[1].stats.avg_update_response_time()));
        rec.value("update_services_per_update",
                  updates == 0 ? 0.0
                               : static_cast<double>(update_services) /
                                     static_cast<double>(updates));
      });
}

/// The paper's 300 MHz-1 GHz testbed: pools of equal aggregate capacity
/// with growing speed skew (sequencer + 4 primaries + 6 secondaries).
struct SpeedPool {
  std::string name;
  std::vector<double> speed_factors;
};

const std::vector<SpeedPool>& speed_pools() {
  static const std::vector<SpeedPool> pools = {
      {"homogeneous (all 1.0x)", {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
      {"mixed (paper-like 0.55x-1.8x)",
       {1, 1.8, 1.25, 0.8, 0.55, 1.8, 1.25, 1.0, 0.8, 0.65, 0.55}},
      {"fast primaries, slow secondaries",
       {1, 1.8, 1.8, 1.8, 1.8, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6}},
      {"slow primaries, fast secondaries",
       {1, 0.6, 0.6, 0.6, 0.6, 1.8, 1.8, 1.8, 1.8, 1.8, 1.8}},
  };
  return pools;
}

SeedRecord run_heterogeneous(const Unit& unit, std::size_t requests) {
  const std::vector<double>& speeds = speed_pools()[unit.point].speed_factors;
  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, seconds(4));
  config.speed_factors = speeds;
  return run_measured(
      std::move(config), {},
      [&speeds](harness::Scenario& scenario,
                const std::vector<harness::ClientResult>&, SeedRecord& rec) {
        // Read work that landed on the slowest replica (first among equals,
        // sequencer excluded) as a share of all reads served.
        std::size_t slowest = 1;
        for (std::size_t i = 1; i < scenario.num_replicas(); ++i) {
          if (speeds[i] < speeds[slowest]) slowest = i;
        }
        std::uint64_t total_reads = 0;
        for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
          total_reads += scenario.replica(i).stats().reads_served;
        }
        rec.value("slowest_replica_share",
                  total_reads == 0
                      ? 0.0
                      : static_cast<double>(
                            scenario.replica(slowest).stats().reads_served) /
                            static_cast<double>(total_reads));
      });
}

/// Beyond the paper: open-loop Poisson arrivals at growing offered load,
/// with both clients at d=200 ms, until the pool saturates.
constexpr int kOpenLoopGapsMs[] = {2000, 1000, 500, 250, 125};

SeedRecord run_open_loop(const Unit& unit, std::size_t requests) {
  const int gap_ms = kOpenLoopGapsMs[unit.point];
  harness::ScenarioConfig config =
      paper_workload(unit.seed, requests, seconds(2));
  for (auto& client : config.clients) {
    client.qos.deadline = milliseconds(200);
    client.request_delay = milliseconds(gap_ms);
    client.arrival = harness::Arrival::kOpenPoisson;
  }
  return run_measured(std::move(config),
                      {{"mean_interarrival_ms", gap_ms},
                       {"offered_req_per_s", 2.0 * 1000.0 / gap_ms}});
}

/// Beyond the paper: every network message of the paper workload by type.
/// gcs.data carries the whole application protocol (requests, replies, GSN
/// broadcasts, lazy updates, performance publications); the other types
/// are the GCS control plane, mostly the fixed-rate heartbeats.
SeedRecord run_protocol_overhead(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(paper_workload(unit.seed, requests, seconds(4)));
  UnitTelemetry telemetry(scenario);
  struct CostSink final : obs::TraceSink {
    /// Messages and bytes per type name.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_type;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    void on_message(const obs::MessageEvent& event) override {
      auto& [type_messages, type_bytes] = by_type[event.type_name];
      ++type_messages;
      type_bytes += event.wire_size;
      ++messages;
      bytes += event.wire_size;
    }
  } sink;
  scenario.transport().tracing().add(&sink);
  const auto results = scenario.run();
  scenario.transport().tracing().remove(&sink);

  std::uint64_t reads = 0, updates = 0;
  for (const auto& r : results) {
    reads += r.stats.reads_completed;
    updates += r.stats.updates_completed;
  }

  SeedRecord rec;
  rec.value("messages_per_request",
            reads + updates == 0 ? 0.0
                                 : static_cast<double>(sink.messages) /
                                       static_cast<double>(reads + updates));
  rec.counter("reads_completed", reads);
  rec.counter("updates_completed", updates);
  rec.counter("messages", sink.messages);
  rec.counter("bytes", sink.bytes);
  for (const auto& [type, cost] : sink.by_type) {
    rec.value(type + ".share_of_msgs",
              static_cast<double>(cost.first) /
                  static_cast<double>(sink.messages));
    rec.counter(type + ".messages", cost.first);
    rec.counter(type + ".bytes", cost.second);
  }
  telemetry.report(scenario, rec);
  return rec;
}

// ---------------------------------------------------------------- ordering

/// Paper Section 4, Fig. 2: the gateway hosts more than one timed
/// consistency handler. The same pool and workload under each ordering
/// policy the service supports; only the policy and the client's
/// read-your-writes session bound differ.
struct OrderingPoint {
  const char* name;
  core::Ordering ordering;
  bool read_your_writes;
};
constexpr OrderingPoint kOrderingPoints[] = {
    {"sequential", core::Ordering::kSequential, false},
    {"fifo_read_your_writes", core::Ordering::kFifo, true},
    {"fifo", core::Ordering::kFifo, false},
};

/// Sequencer + 2 primaries + 4 secondaries, one client alternating writes
/// and reads of one key at a=2, d=140 ms, Pc=0.9 with 200 ms between them.
SeedRecord run_ordering(const Unit& unit, std::size_t requests) {
  const OrderingPoint& point = kOrderingPoints[unit.point];
  harness::ScenarioConfig config;
  config.seed = unit.seed;
  config.num_primaries = 2;
  config.num_secondaries = 4;
  config.ordering = point.ordering;
  config.lazy_update_interval = seconds(2);
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 2,
              .deadline = milliseconds(140),
              .min_probability = 0.9},
      .request_delay = milliseconds(200),
      .num_requests = requests,
      .num_keys = 1,
      .read_your_writes = point.read_your_writes,
  });
  const auto agreement = [](harness::Scenario& scenario, const auto&,
                            SeedRecord& rec) {
    const harness::Agreement a = harness::check_agreement(scenario);
    rec.counter("gsn_conflicts", a.gsn_conflicts);
    rec.counter("csn_mismatches", a.csn_mismatches);
    rec.counter("divergences", a.divergences);
  };
  return run_measured(std::move(config), {}, agreement, /*measured=*/0);
}

// ------------------------------------------------------------- pass gates

/// Pass gate: every named counter pools to 0.
std::function<bool(const SweepResult&)> pooled_zero(
    std::vector<std::string> counters) {
  return [counters = std::move(counters)](const SweepResult& result) {
    return std::all_of(counters.begin(), counters.end(),
                       [&](const std::string& name) {
                         return result.pooled_counter_or_zero(name) == 0;
                       });
  };
}

/// The measured client's deadline misses over its completed reads.
std::vector<BinomialSpec> timing_failure_binomial() {
  return {{"timing_failure", "timing_failures", "reads_completed"}};
}

std::vector<Plan> build_plans() {
  std::vector<Plan> all;

  {
    Plan p;
    p.name = "recovery";
    p.description =
        "primary crash at t=8s, restart at t=14s: time-to-rejoin, "
        "time-to-first-selection, outage vs steady timing failures";
    p.default_requests = 300;
    p.points = {"crash_restart_primary"};
    p.binomials = {
        {"outage_timing_failure", "outage_failures", "outage_reads"},
        {"steady_timing_failure", "steady_failures", "steady_reads"},
    };
    p.run = run_recovery;
    // Every seed's victim must rejoin, and no GSN may commit twice.
    p.pass = [](const SweepResult& result) {
      return result.pooled_counter_or_zero("recovered") ==
                 result.rows.size() &&
             result.pooled_counter_or_zero("gsn_conflicts") == 0;
    };
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "failure_injection";
    p.description =
        "adaptivity under replica crashes: baseline, primary, two "
        "secondaries, sequencer, crash+recovery";
    p.default_requests = 400;
    p.points = {"baseline", "primary_crash", "two_secondary_crashes",
                "sequencer_crash", "primary_crash_recovery"};
    p.binomials = timing_failure_binomial();
    p.run = run_failure_injection;
    p.pass = pooled_zero({"gsn_conflicts", "staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "fig4_adaptivity";
    p.description =
        "Figure 4 grid: 4 (Pc, LUI) configs x 8 deadlines, client 2 measured";
    p.default_requests = 1000;
    for (const int d : fig4_deadlines_ms()) {
      for (const Fig4Config& c : fig4_configs()) {
        p.points.push_back("d=" + std::to_string(d) + "ms " + c.label());
      }
    }
    p.binomials = timing_failure_binomial();
    p.run = run_fig4;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "chaos";
    p.description =
        "randomized loss + crashes; safety/liveness invariant violations "
        "(must pool to 0)";
    p.default_requests = 80;
    p.points = {"crash_loss"};
    p.run = run_chaos;
    p.pass = pooled_zero({"violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "gray_failure";
    p.description =
        "gray-failure severity ladder (reorder/duplication/slow links/"
        "partial partition) over the chaos transport: timing-failure rate "
        "and time-to-detect vs severity; safety counters must pool to 0";
    p.default_requests = 120;
    p.points = {"baseline", "mild", "moderate", "severe"};
    p.binomials = {
        {"degraded_timing_failure", "degraded_failures", "degraded_reads"},
        {"steady_timing_failure", "steady_failures", "steady_reads"},
    };
    p.run = run_gray_failure;
    // Gray failure may cost timeliness, never consistency — and the chaos
    // layer must actually have injected something.
    p.pass = [](const SweepResult& result) {
      std::uint64_t injected = 0;
      for (const char* name : {"messages_duplicated", "messages_reordered",
                               "messages_delayed", "messages_dropped_loss"}) {
        injected += result.pooled_counter_or_zero(name);
      }
      return result.pooled_counter_or_zero("violations") == 0 && injected > 0;
    };
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "gray_chaos";
    p.description =
        "randomized reorder+duplication+partial-partition gray chaos over "
        "the chaos transport; invariant violations must pool to 0";
    p.default_requests = 80;
    p.points = {"gray"};
    p.run = run_gray_chaos;
    p.pass = pooled_zero({"violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "shard_scaling";
    p.description =
        "sharded service at 1/4/16 replica groups (sequencer + 1 primary + "
        "1 secondary each) on one substrate: routing balance, intra-shard "
        "agreement, and key-placement invariants (must pool to 0)";
    p.default_requests = 120;
    p.points = {"shards_1", "shards_4", "shards_16"};
    p.binomials = timing_failure_binomial();
    p.run = run_shard_scaling;
    p.pass = pooled_zero({"violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "hot_shard";
    p.description =
        "cross-shard fault matrix on a 16-shard pool: uniform baseline, one "
        "hot (overloaded) replica group, correlated rack failure; "
        "per-window failure rates plus agreement/placement invariants "
        "(must pool to 0)";
    p.default_requests = 120;
    p.points = {"uniform", "hot_shard", "correlated_rack"};
    p.binomials = {
        {"degraded_timing_failure", "degraded_failures", "degraded_reads"},
        {"steady_timing_failure", "steady_failures", "steady_reads"},
    };
    p.run = run_hot_shard;
    // Only the correlated-rack point restarts replicas, so a pooled
    // `reborn` of 0 means the rack failure never fired.
    p.pass = [](const SweepResult& result) {
      return result.pooled_counter_or_zero("violations") == 0 &&
             result.pooled_counter_or_zero("reborn") > 0;
    };
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "chaos_recovery";
    p.description =
        "randomized crash+restart chaos; invariants across reincarnations "
        "(must pool to 0)";
    p.default_requests = 80;
    p.points = {"crash_restart_loss"};
    p.run = run_chaos_recovery;
    p.pass = pooled_zero({"violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "ablation_lui";
    p.description =
        "Section 7 ablation: lazy-update interval 1/2/4/8 s on the paper "
        "workload, client 2 (a=2, d=140ms, Pc=0.9) measured";
    p.default_requests = 1000;
    p.points = {"lui_1s", "lui_2s", "lui_4s", "lui_8s"};
    p.binomials = timing_failure_binomial();
    p.run = run_ablation_lui;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "ablation_request_delay";
    p.description =
        "Section 7 ablation: request delay 250/500/1000/2000 ms on the paper "
        "workload (LUI 4s), client 2 measured";
    p.default_requests = 1000;
    p.points = {"delay_250ms", "delay_500ms", "delay_1000ms", "delay_2000ms"};
    p.binomials = timing_failure_binomial();
    p.run = run_ablation_request_delay;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "baselines";
    p.description =
        "Section 5 baselines: Algorithm 1 and two ablations of it vs "
        "select-all / select-one / fixed-k, both clients on the selector";
    p.default_requests = 1000;
    for (const BaselineSelector& selector : baseline_selectors()) {
      p.points.push_back(selector.name);
    }
    p.binomials = timing_failure_binomial();
    p.run = run_baselines;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "group_sizing";
    p.description =
        "Section 3 group sizing: primary/secondary split of a 10-replica "
        "pool from 10/0 to 2/8 (write-all cost vs lazy-tier staleness)";
    p.default_requests = 1000;
    for (const std::size_t primaries : kGroupPrimaries) {
      p.points.push_back("primaries_" + std::to_string(primaries));
    }
    p.binomials = timing_failure_binomial();
    p.run = run_group_sizing;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "heterogeneous";
    p.description =
        "heterogeneous hosts: per-replica speed skew at equal aggregate "
        "capacity, and fast vs slow primaries";
    p.default_requests = 1000;
    for (const SpeedPool& pool : speed_pools()) p.points.push_back(pool.name);
    p.binomials = timing_failure_binomial();
    p.run = run_heterogeneous;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "open_loop";
    p.description =
        "open-loop Poisson arrivals: offered-load sweep (mean interarrival "
        "2000..125 ms) to saturation";
    p.default_requests = 600;
    for (const int gap_ms : kOpenLoopGapsMs) {
      p.points.push_back("interarrival_" + std::to_string(gap_ms) + "ms");
    }
    p.binomials = timing_failure_binomial();
    p.run = run_open_loop;
    p.pass = pooled_zero({"staleness_violations"});
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "protocol_overhead";
    p.description =
        "protocol overhead: network messages and bytes by type for the "
        "paper workload";
    p.default_requests = 1000;
    p.points = {"paper_workload"};
    p.run = run_protocol_overhead;
    all.push_back(std::move(p));
  }
  {
    Plan p;
    p.name = "ordering";
    p.description =
        "Section 4 ordering handlers: sequential vs FIFO with and without "
        "read-your-writes on one pool (1+2 primaries, 4 secondaries); "
        "agreement and staleness violations must pool to 0";
    p.default_requests = 600;
    for (const OrderingPoint& point : kOrderingPoints) {
      p.points.push_back(point.name);
    }
    p.binomials = timing_failure_binomial();
    p.run = run_ordering;
    p.pass = pooled_zero({"staleness_violations", "gsn_conflicts",
                          "csn_mismatches", "divergences"});
    all.push_back(std::move(p));
  }
  return all;
}

}  // namespace

const std::vector<Plan>& plans() {
  static const std::vector<Plan> all = build_plans();
  return all;
}

const Plan* find_plan(const std::string& name) {
  for (const Plan& p : plans()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool passes(const Plan& plan, const SweepResult& result) {
  return result.all_ok() && (!plan.pass || plan.pass(result));
}

SweepSpec make_spec(const Plan& plan, std::uint64_t seed_begin,
                    std::size_t seed_count, std::size_t threads,
                    std::size_t requests) {
  const std::size_t effective_requests =
      requests == 0 ? plan.default_requests : requests;
  SweepSpec spec;
  spec.name = plan.name;
  spec.threads = threads;
  spec.binomials = plan.binomials;
  for (std::size_t point = 0; point < plan.points.size(); ++point) {
    for (std::uint64_t s = 0; s < seed_count; ++s) {
      Unit unit;
      unit.seed = seed_begin + s;
      unit.point = point;
      unit.label = plan.points.size() == 1
                       ? "seed_" + std::to_string(unit.seed)
                       : plan.points[point] + " seed_" + std::to_string(unit.seed);
      spec.units.push_back(std::move(unit));
    }
  }
  const auto run_body = plan.run;
  spec.run = [run_body, effective_requests](const Unit& unit) {
    return run_body(unit, effective_requests);
  };
  return spec;
}

}  // namespace aqueduct::runner
