// Tests for the telemetry pipeline (src/obs/snapshot, src/obs/sinks): the
// periodic snapshotter's grid and delta semantics, the JSONL and Prometheus
// exporters, and the determinism contract — under SimExecutor, the same
// scenario + seed yields a byte-identical JSONL series, run after run and
// across sweep thread counts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/snapshot.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/time.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Histogram::exponential_bounds
// ---------------------------------------------------------------------------

TEST(ExponentialBounds, GeometricProgression) {
  const auto b = obs::Histogram::exponential_bounds(1.0, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_DOUBLE_EQ(b[4], 16.0);
}

TEST(ExponentialBounds, StrictlyIncreasing) {
  const auto b = obs::Histogram::exponential_bounds(0.1, 1.38, 40);
  ASSERT_EQ(b.size(), 40u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

TEST(ExponentialBounds, DefaultLatencyBoundsUseIt) {
  EXPECT_EQ(obs::default_latency_bounds_ms(),
            obs::Histogram::exponential_bounds(0.1, 1.38, 40));
  // Spans sub-millisecond to tens of seconds.
  const auto b = obs::default_latency_bounds_ms();
  EXPECT_LT(b.front(), 1.0);
  EXPECT_GT(b.back(), 10000.0);
}

// ---------------------------------------------------------------------------
// MetricsSnapshotter: periodic grid + delta semantics
// ---------------------------------------------------------------------------

/// Collects snapshots in memory for inspection.
class CaptureSink final : public obs::SnapshotSink {
 public:
  void on_snapshot(const obs::MetricsSnapshot& snap) override {
    snaps.push_back(snap);
  }
  std::vector<obs::MetricsSnapshot> snaps;
};

std::uint64_t counter_value(
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs,
    const std::string& name) {
  for (const auto& [n, v] : pairs)
    if (n == name) return v;
  return 0;
}

TEST(MetricsSnapshotter, PeriodicGridUnderSim) {
  runtime::SimExecutor exec(1);
  obs::MetricsRegistry reg;
  obs::MetricsSnapshotter snapshotter(exec, reg, sim::from_ms(100));
  CaptureSink sink;
  snapshotter.add_sink(&sink);
  snapshotter.start();
  exec.run_for(sim::from_ms(1000));
  snapshotter.stop();
  // Anchored grid: captures at t = 100, 200, ..., 1000 ms.
  ASSERT_EQ(sink.snaps.size(), 10u);
  for (std::size_t i = 0; i < sink.snaps.size(); ++i) {
    EXPECT_EQ(sink.snaps[i].seq, i);
    EXPECT_EQ(sink.snaps[i].at, sim::from_ms(100.0 * (i + 1)));
  }
  EXPECT_EQ(snapshotter.snapshots(), 10u);
}

TEST(MetricsSnapshotter, CounterDeltasDiffAdjacentSnapshots) {
  runtime::SimExecutor exec(1);
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("reads");
  obs::MetricsSnapshotter snapshotter(exec, reg, sim::from_ms(10));
  CaptureSink sink;
  snapshotter.add_sink(&sink);

  c.inc(5);
  snapshotter.start();
  exec.run_for(sim::from_ms(10));  // snapshot 0: cumulative 5, delta 5
  c.inc(3);
  exec.run_for(sim::from_ms(10));  // snapshot 1: cumulative 8, delta 3
  exec.run_for(sim::from_ms(10));  // snapshot 2: cumulative 8, delta 0
  snapshotter.stop();

  ASSERT_EQ(sink.snaps.size(), 3u);
  EXPECT_EQ(counter_value(sink.snaps[0].counters, "reads"), 5u);
  EXPECT_EQ(counter_value(sink.snaps[0].counter_deltas, "reads"), 5u);
  EXPECT_EQ(counter_value(sink.snaps[1].counters, "reads"), 8u);
  EXPECT_EQ(counter_value(sink.snaps[1].counter_deltas, "reads"), 3u);
  EXPECT_EQ(counter_value(sink.snaps[2].counters, "reads"), 8u);
  EXPECT_EQ(counter_value(sink.snaps[2].counter_deltas, "reads"), 0u);
}

TEST(MetricsSnapshotter, HistogramBucketsAreCumulative) {
  runtime::SimExecutor exec(1);
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {10.0, 100.0});
  obs::MetricsSnapshotter snapshotter(exec, reg, sim::from_ms(10));
  CaptureSink sink;
  snapshotter.add_sink(&sink);
  snapshotter.start();
  h.observe(5.0);
  exec.run_for(sim::from_ms(10));
  h.observe(50.0);
  exec.run_for(sim::from_ms(10));
  snapshotter.stop();

  ASSERT_EQ(sink.snaps.size(), 2u);
  const auto& first = sink.snaps[0].histograms.at(0).second;
  const auto& second = sink.snaps[1].histograms.at(0).second;
  EXPECT_EQ(first.count, 1u);
  EXPECT_EQ(second.count, 2u);  // cumulative, not per-interval
  ASSERT_EQ(second.buckets.size(), 3u);
  EXPECT_EQ(second.buckets[0], 1u);
  EXPECT_EQ(second.buckets[1], 1u);
  EXPECT_EQ(second.buckets[2], 0u);
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

TEST(JsonlSnapshotSink, BoundsEmittedOnlyOnFirstAppearance) {
  runtime::SimExecutor exec(1);
  obs::MetricsRegistry reg;
  reg.histogram("lat", {1.0, 2.0}).observe(1.5);
  obs::MetricsSnapshotter snapshotter(exec, reg, sim::from_ms(10));
  std::ostringstream out;
  obs::JsonlSnapshotSink sink(out);
  snapshotter.add_sink(&sink);
  snapshotter.start();
  exec.run_for(sim::from_ms(20));
  snapshotter.stop();
  EXPECT_EQ(sink.lines(), 2u);

  std::istringstream lines(out.str());
  std::string line1, line2;
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  EXPECT_NE(line1.find("\"bounds\""), std::string::npos);
  EXPECT_EQ(line2.find("\"bounds\""), std::string::npos);
  EXPECT_NE(line2.find("\"buckets\""), std::string::npos);
  EXPECT_NE(line1.find("\"type\":\"metrics\""), std::string::npos);
}

TEST(PrometheusTextSink, ExpositionFormat) {
  obs::MetricsRegistry reg;
  reg.counter("client.reads").inc(7);
  reg.gauge("queue.depth").set(2.5);
  obs::Histogram& h = reg.histogram("read.latency_ms", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);

  obs::MetricsSnapshot snap = reg.snapshot();
  std::ostringstream os;
  obs::PrometheusTextSink::write_text(os, snap);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE aqueduct_client_reads counter"),
            std::string::npos);
  EXPECT_NE(text.find("aqueduct_client_reads 7"), std::string::npos);
  EXPECT_NE(text.find("aqueduct_queue_depth 2.5"), std::string::npos);
  // Buckets are cumulative in `le`, with +Inf equal to the total count.
  EXPECT_NE(text.find("aqueduct_read_latency_ms_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("aqueduct_read_latency_ms_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("aqueduct_read_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("aqueduct_read_latency_ms_count 3"), std::string::npos);
}

TEST(PrometheusTextSink, NameSanitization) {
  EXPECT_EQ(obs::PrometheusTextSink::prometheus_name("client.reads"),
            "aqueduct_client_reads");
  EXPECT_EQ(obs::PrometheusTextSink::prometheus_name("sla.c1.spec0.rate"),
            "aqueduct_sla_c1_spec0_rate");
  EXPECT_EQ(obs::PrometheusTextSink::prometheus_name("a-b c:d"),
            "aqueduct_a_b_c:d");
}

TEST(DigestFnv1a64, KnownVectors) {
  // Reference vectors for 64-bit FNV-1a.
  EXPECT_EQ(obs::digest_fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::digest_fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::digest_fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(DigestFnv1a64, StreamBufMatchesDigestOfEverythingWritten) {
  obs::DigestStreamBuf buf;
  std::ostream out(&buf);
  EXPECT_EQ(buf.digest(), obs::digest_fnv1a64(""));
  // Single characters (overflow), strings (xsputn) and formatted numbers.
  out << 'f' << "oo" << std::string("bar") << 42 << ' ' << 0.5;
  EXPECT_EQ(buf.digest(), obs::digest_fnv1a64("foobar42 0.5"));
  EXPECT_EQ(buf.bytes(), 12u);
}

// ---------------------------------------------------------------------------
// Determinism: scenario + seed => byte-identical JSONL
// ---------------------------------------------------------------------------

harness::ScenarioConfig small_config(std::uint64_t seed) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_primaries = 2;
  config.num_secondaries = 1;
  config.service_mean = milliseconds(20);
  config.service_std = milliseconds(5);
  config.drain = milliseconds(250);
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 2,
              .deadline = milliseconds(150),
              .min_probability = 0.9},
      .request_delay = milliseconds(25),
      .num_requests = 40,
  });
  return config;
}

std::string run_with_telemetry(std::uint64_t seed) {
  harness::Scenario scenario(small_config(seed));
  std::ostringstream jsonl;
  obs::JsonlSnapshotSink sink(jsonl);
  scenario.enable_telemetry(sim::from_ms(100)).add_sink(&sink);
  scenario.run();
  EXPECT_GT(scenario.telemetry()->snapshots(), 0u);
  return jsonl.str();
}

TEST(TelemetryDeterminism, SameSeedSameBytes) {
  const std::string a = run_with_telemetry(42);
  const std::string b = run_with_telemetry(42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(TelemetryDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_with_telemetry(42), run_with_telemetry(43));
}

TEST(TelemetryDeterminism, EnablingTelemetryDoesNotPerturbTheRun) {
  // Snapshot callbacks read metrics but never touch protocol state or the
  // RNG, so the client-visible outcome must be identical with and without
  // the pipeline attached.
  harness::Scenario plain(small_config(42));
  const auto plain_results = plain.run();

  harness::Scenario instrumented(small_config(42));
  std::ostringstream jsonl;
  obs::JsonlSnapshotSink sink(jsonl);
  instrumented.enable_telemetry(sim::from_ms(100)).add_sink(&sink);
  const auto instrumented_results = instrumented.run();

  ASSERT_EQ(plain_results.size(), instrumented_results.size());
  for (std::size_t i = 0; i < plain_results.size(); ++i) {
    EXPECT_EQ(plain_results[i].stats.reads_completed,
              instrumented_results[i].stats.reads_completed);
    EXPECT_EQ(plain_results[i].stats.timing_failures,
              instrumented_results[i].stats.timing_failures);
  }
}

// The sweep rollup: every plan unit now reports a telemetry digest, and the
// merged JSON (digest included) must stay a pure function of the spec.
TEST(TelemetryDeterminism, SweepDigestInvariantAcrossThreadCounts) {
  const runner::Plan* plan = runner::find_plan("fig4_adaptivity");
  ASSERT_NE(plan, nullptr);
  const auto spec1 = runner::make_spec(*plan, 1, 3, 1, /*requests=*/30);
  const auto spec2 = runner::make_spec(*plan, 1, 3, 2, /*requests=*/30);
  const auto json1 = runner::sweep_json(spec1, runner::run_sweep(spec1));
  const auto json2 = runner::sweep_json(spec2, runner::run_sweep(spec2));
  EXPECT_EQ(json1, json2);
  EXPECT_NE(json1.find("telemetry_digest"), std::string::npos);
  EXPECT_NE(json1.find("telemetry_snapshots"), std::string::npos);
}

}  // namespace
}  // namespace aqueduct
