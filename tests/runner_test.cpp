// Determinism and fault-tolerance suite for the parallel sweep engine.
//
// The engine's contract (runner/sweep.hpp): a sweep's merged output is a
// pure function of the SweepSpec — byte-identical JSON for any thread
// count, with a `threads = 1` run as the oracle — and a throwing unit
// becomes a failed row, never a hung or torn sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/stats.hpp"
#include "obs/metrics.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"

namespace aqueduct {
namespace {

/// Synthetic unit body: a cheap, fully deterministic function of the seed
/// that exercises values, counters, and samples.
runner::SeedRecord synthetic_run(const runner::Unit& unit) {
  runner::SeedRecord rec;
  rec.value("phase", static_cast<double>(unit.seed % 7) / 7.0);
  rec.counter("failures", unit.seed % 3);
  rec.counter("trials", 10 + unit.seed % 5);
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 20; ++i) {
    samples.push_back(std::fmod(static_cast<double>(unit.seed * 37 + i * 11),
                                100.0));
  }
  rec.sample("latency", std::move(samples));
  return rec;
}

runner::SweepSpec synthetic_spec(std::size_t units, std::size_t threads) {
  runner::SweepSpec spec;
  spec.name = "synthetic";
  spec.threads = threads;
  for (std::size_t i = 0; i < units; ++i) {
    spec.units.push_back(runner::Unit{
        .label = "seed_" + std::to_string(100 + i),
        .seed = 100 + i,
        .point = 0,
    });
  }
  spec.run = synthetic_run;
  spec.binomials = {{"failure_rate", "failures", "trials"}};
  return spec;
}

TEST(SweepDeterminism, ByteIdenticalJsonAcrossThreadCounts) {
  const auto oracle_spec = synthetic_spec(10, 1);
  const auto oracle =
      runner::sweep_json(oracle_spec, runner::run_sweep(oracle_spec));
  for (const std::size_t threads : {2, 8}) {
    const auto spec = synthetic_spec(10, threads);
    const auto json = runner::sweep_json(spec, runner::run_sweep(spec));
    EXPECT_EQ(oracle, json) << "threads=" << threads;
  }
}

// The real thing: full scenario runs (simulator, network, GCS, replicas)
// through the chaos plan must also be thread-count invariant — this is
// the shared-nothing audit as an executable check. Hidden cross-run state
// (a process-wide counter, a shared RNG) would show up here as divergent
// bytes even when no data race is detected.
TEST(SweepDeterminism, ScenarioPlanByteIdenticalAcrossThreadCounts) {
  const runner::Plan* plan = runner::find_plan("chaos");
  ASSERT_NE(plan, nullptr);
  const auto spec1 = runner::make_spec(*plan, 1, 4, 1, /*requests=*/40);
  const auto spec4 = runner::make_spec(*plan, 1, 4, 4, /*requests=*/40);
  const auto json1 = runner::sweep_json(spec1, runner::run_sweep(spec1));
  const auto json4 = runner::sweep_json(spec4, runner::run_sweep(spec4));
  EXPECT_EQ(json1, json4);
}

// The plans folded in from the per-experiment bench binaries run under
// the same determinism oracle as the chaos plan above.
TEST(SweepDeterminism, PaperWorkloadPlansByteIdenticalAcrossThreadCounts) {
  for (const char* name :
       {"ablation_lui", "ablation_request_delay", "baselines", "group_sizing",
        "heterogeneous", "open_loop", "protocol_overhead", "ordering"}) {
    const runner::Plan* plan = runner::find_plan(name);
    ASSERT_NE(plan, nullptr) << name;
    const auto spec1 = runner::make_spec(*plan, 3, 2, 1, /*requests=*/20);
    const auto spec2 = runner::make_spec(*plan, 3, 2, 2, /*requests=*/20);
    EXPECT_EQ(runner::sweep_json(spec1, runner::run_sweep(spec1)),
              runner::sweep_json(spec2, runner::run_sweep(spec2)))
        << name;
  }
}

TEST(SweepDeterminism, MergeOrderFollowsUnitOrderNotCompletionOrder) {
  // Make early units slow: if the merge followed completion order, rows
  // would come back reversed under parallelism.
  runner::SweepSpec spec = synthetic_spec(8, 8);
  spec.run = [](const runner::Unit& unit) {
    if (unit.seed < 104) {
      // Busy-wait long enough that later (cheap) units finish first.
      volatile double sink = 0.0;
      for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
    }
    return synthetic_run(unit);
  };
  const auto result = runner::run_sweep(spec);
  ASSERT_EQ(result.rows.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.rows[i].counter_or_zero("trials"), 10 + (100 + i) % 5)
        << "row " << i;
  }
}

TEST(SweepFaults, ThrowingUnitBecomesFailedRowNotTornSweep) {
  runner::SweepSpec spec = synthetic_spec(10, 4);
  spec.run = [](const runner::Unit& unit) {
    if (unit.seed == 103) {
      throw std::runtime_error("worker crash on seed 103");
    }
    return synthetic_run(unit);
  };
  const auto result = runner::run_sweep(spec);
  ASSERT_EQ(result.rows.size(), 10u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_FALSE(result.all_ok());
  EXPECT_FALSE(result.rows[3].ok);
  EXPECT_EQ(result.rows[3].error, "worker crash on seed 103");
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(result.rows[i].ok) << "row " << i;
  }
  // Failed rows are excluded from pooled aggregates.
  std::uint64_t expected_trials = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (i != 3) expected_trials += 10 + (100 + i) % 5;
  }
  EXPECT_EQ(result.pooled_counter_or_zero("trials"), expected_trials);
}

TEST(SweepFaults, FailedRowsSerializeDeterministically) {
  const auto make = [](std::size_t threads) {
    runner::SweepSpec spec = synthetic_spec(10, threads);
    spec.run = [](const runner::Unit& unit) {
      if (unit.seed % 2 == 0) {
        throw std::runtime_error("boom seed " + std::to_string(unit.seed));
      }
      return synthetic_run(unit);
    };
    return spec;
  };
  const auto spec1 = make(1);
  const auto spec8 = make(8);
  EXPECT_EQ(runner::sweep_json(spec1, runner::run_sweep(spec1)),
            runner::sweep_json(spec8, runner::run_sweep(spec8)));
}

TEST(SweepAggregation, PooledCountersBinomialsAndPercentiles) {
  const auto spec = synthetic_spec(10, 2);
  const auto result = runner::run_sweep(spec);

  std::uint64_t failures = 0, trials = 0;
  std::vector<double> all_samples;
  for (const auto& unit : spec.units) {
    const auto rec = synthetic_run(unit);
    failures += rec.counter_or_zero("failures");
    trials += rec.counter_or_zero("trials");
    all_samples.insert(all_samples.end(), rec.samples[0].second.begin(),
                       rec.samples[0].second.end());
  }
  EXPECT_EQ(result.pooled_counter_or_zero("failures"), failures);
  EXPECT_EQ(result.pooled_counter_or_zero("trials"), trials);

  ASSERT_EQ(result.binomials.size(), 1u);
  const auto expected = harness::binomial_ci_wilson(failures, trials);
  EXPECT_DOUBLE_EQ(result.binomials[0].ci.lower, expected.lower);
  EXPECT_DOUBLE_EQ(result.binomials[0].ci.upper, expected.upper);

  ASSERT_EQ(result.samples.size(), 1u);
  EXPECT_EQ(result.samples[0].count, all_samples.size());
  EXPECT_DOUBLE_EQ(result.samples[0].quantiles[0],
                   harness::percentile(all_samples, 0.50));
  EXPECT_DOUBLE_EQ(result.samples[0].quantiles[2],
                   harness::percentile(all_samples, 0.99));
}

TEST(SweepProgress, MetricsGaugesAndCallbackReachTotals) {
  obs::MetricsRegistry metrics;
  runner::SweepOptions opts;
  opts.metrics = &metrics;
  opts.progress_interval = std::chrono::milliseconds(1);
  std::size_t last_done = 0, calls = 0;
  opts.on_progress = [&](std::size_t done, std::size_t, std::size_t total) {
    EXPECT_LE(done, total);
    last_done = done;
    ++calls;
  };
  const auto spec = synthetic_spec(6, 3);
  const auto result = runner::run_sweep(spec, opts);
  EXPECT_EQ(result.rows.size(), 6u);
  EXPECT_GE(calls, 2u);  // at least the initial and final publishes
  EXPECT_EQ(last_done, 6u);
  EXPECT_EQ(metrics.gauge("sweep_units_total").value(), 6.0);
  EXPECT_EQ(metrics.gauge("sweep_units_done").value(), 6.0);
  EXPECT_EQ(metrics.gauge("sweep_units_failed").value(), 0.0);
  EXPECT_GE(metrics.gauge("sweep_wall_seconds").value(), 0.0);
}

TEST(SweepThreads, ResolveAndClamp) {
  EXPECT_GE(runner::resolve_threads(0), 1u);
  EXPECT_EQ(runner::resolve_threads(5), 5u);
  // More threads than units: the pool is clamped to the unit count.
  const auto spec = synthetic_spec(2, 16);
  EXPECT_EQ(runner::run_sweep(spec).threads_used, 2u);
}

TEST(SweepPlans, RegistryExposesEveryPlanWithRunBody) {
  ASSERT_FALSE(runner::plans().empty());
  for (const runner::Plan& plan : runner::plans()) {
    EXPECT_TRUE(static_cast<bool>(plan.run)) << plan.name;
    EXPECT_FALSE(plan.points.empty()) << plan.name;
    EXPECT_EQ(runner::find_plan(plan.name), &plan);
  }
  EXPECT_EQ(runner::find_plan("no_such_plan"), nullptr);
  // make_spec fans point-major with stable labels.
  const runner::Plan* fi = runner::find_plan("failure_injection");
  ASSERT_NE(fi, nullptr);
  const auto spec = runner::make_spec(*fi, 7, 3, 2);
  ASSERT_EQ(spec.units.size(), fi->points.size() * 3);
  EXPECT_EQ(spec.units[0].label, "baseline seed_7");
  EXPECT_EQ(spec.units[1].seed, 8u);
  EXPECT_EQ(spec.units[3].point, 1u);
}

/// A finished sweep of `rows` clean units with the given pooled counters.
runner::SweepResult pooled_result(
    std::size_t rows,
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  runner::SweepResult result;
  result.rows.resize(rows);
  for (runner::SeedRecord& row : result.rows) row.ok = true;
  result.pooled_counters = std::move(counters);
  return result;
}

TEST(SweepPlans, PassGateRejectsEachPlansFailureCounter) {
  using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
  struct Case {
    const char* plan;
    Counters clean;   // passes
    Counters broken;  // the same sweep with one failure: must not pass
  };
  const Counters injected = {{"messages_duplicated", 5}};
  const auto with = [](Counters base, const Counters& more) {
    base.insert(base.end(), more.begin(), more.end());
    return base;
  };
  const std::vector<Case> cases = {
      {"recovery", {{"recovered", 2}, {"gsn_conflicts", 0}},
       {{"recovered", 2}, {"gsn_conflicts", 1}}},
      {"recovery", {{"recovered", 2}}, {{"recovered", 1}}},
      {"failure_injection", {{"gsn_conflicts", 0}}, {{"gsn_conflicts", 1}}},
      {"failure_injection", {}, {{"staleness_violations", 1}}},
      {"fig4_adaptivity", {{"staleness_violations", 0}},
       {{"staleness_violations", 1}}},
      {"chaos", {{"violations", 0}}, {{"violations", 1}}},
      {"chaos_recovery", {{"violations", 0}}, {{"violations", 1}}},
      {"gray_chaos", {{"violations", 0}}, {{"violations", 1}}},
      {"gray_failure", with({{"violations", 0}}, injected),
       with({{"violations", 1}}, injected)},
      {"gray_failure", with({}, injected), {{"messages_reordered", 0}}},
      {"shard_scaling", {{"violations", 0}}, {{"violations", 1}}},
      {"hot_shard", {{"violations", 0}, {"reborn", 16}},
       {{"violations", 1}, {"reborn", 16}}},
      {"hot_shard", {{"reborn", 16}}, {{"reborn", 0}}},
      {"ablation_lui", {}, {{"staleness_violations", 1}}},
      {"ablation_request_delay", {}, {{"staleness_violations", 1}}},
      {"baselines", {}, {{"staleness_violations", 1}}},
      {"group_sizing", {}, {{"staleness_violations", 1}}},
      {"heterogeneous", {}, {{"staleness_violations", 1}}},
      {"open_loop", {}, {{"staleness_violations", 1}}},
      {"ordering", {{"staleness_violations", 0}, {"divergences", 0}},
       {{"staleness_violations", 1}, {"divergences", 0}}},
      {"ordering", {}, {{"gsn_conflicts", 1}}},
      {"ordering", {}, {{"csn_mismatches", 1}}},
      {"ordering", {}, {{"divergences", 1}}},
  };
  for (const Case& c : cases) {
    const runner::Plan* plan = runner::find_plan(c.plan);
    ASSERT_NE(plan, nullptr) << c.plan;
    EXPECT_TRUE(runner::passes(*plan, pooled_result(2, c.clean))) << c.plan;
    EXPECT_FALSE(runner::passes(*plan, pooled_result(2, c.broken)))
        << c.plan;
  }
}

TEST(SweepPlans, PassGateRejectsAThrownUnitForEveryPlan) {
  for (const runner::Plan& plan : runner::plans()) {
    runner::SweepResult result = pooled_result(2, {{"recovered", 2},
                                                   {"reborn", 16},
                                                   {"messages_delayed", 1}});
    EXPECT_TRUE(runner::passes(plan, result)) << plan.name;
    result.rows[1].ok = false;
    result.failed = 1;
    EXPECT_FALSE(runner::passes(plan, result)) << plan.name;
  }
}

}  // namespace
}  // namespace aqueduct
