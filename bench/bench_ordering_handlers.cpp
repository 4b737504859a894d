// Ordering-guarantee cost comparison (paper Section 4, Figure 2: the
// framework hosts multiple timed consistency handlers).
//
// Same replica pool, workload and gateway handlers; the service's ordering
// policy is the only difference:
//   * sequential (TOTAL) — sequencer-ordered updates; reads wait for the
//     GSN broadcast and respect a global staleness threshold;
//   * FIFO — per-client update order only; reads are served immediately
//     (optionally with read-your-writes session freshness).
// The sequential policy pays for its stronger guarantee with the
// sequencer round-trip on every read and commit-ordering waits; FIFO
// reads are cheaper but only per-client consistent.
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "client/handler.hpp"
#include "gcs/endpoint.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "net/loopback.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "sim/simulator.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

namespace {

struct RunStats {
  std::vector<double> read_ms;
  std::uint64_t timing_failures = 0;
  std::uint64_t reads = 0;
  double avg_selected = 0.0;
};

constexpr std::size_t kPrimaries = 3;   // including the sequencer (TOTAL)
constexpr std::size_t kSecondaries = 4;

core::QoSSpec bench_qos() {
  return {.staleness_threshold = 2, .deadline = 140ms, .min_probability = 0.9};
}

/// One rig for every row: the same pool, workload and handler classes,
/// with the service's ordering policy and the client's read-your-writes
/// setting as the only parameters.
RunStats run(const bench::Options& opt, core::Ordering ordering,
             bool read_your_writes) {
  // Declaration order gives correct teardown: handlers go before their
  // endpoints, endpoints detach from the network before it is destroyed.
  sim::Simulator sim(opt.seed);
  net::LoopbackTransport lan(
      sim, std::make_unique<sim::NormalDuration>(500us, 200us));
  gcs::Directory directory;
  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  std::vector<std::unique_ptr<replication::ReplicaServer>> replicas;
  const auto groups = replication::ServiceGroups::for_service(1, ordering);
  for (std::size_t i = 0; i < kPrimaries + kSecondaries; ++i) {
    endpoints.push_back(std::make_unique<gcs::Endpoint>(sim, lan, directory));
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::NormalDuration>(100ms, 50ms);
    config.lazy_update_interval = 2s;
    replicas.push_back(std::make_unique<replication::ReplicaServer>(
        sim, *endpoints.back(), groups, i < kPrimaries,
        std::make_unique<replication::KeyValueStore>(), std::move(config)));
    sim.after(i * 10ms, [r = replicas.back().get()] { r->start(); });
  }

  endpoints.push_back(std::make_unique<gcs::Endpoint>(sim, lan, directory));
  client::ClientConfig config;
  config.read_your_writes = read_your_writes;
  client::ClientHandler client(sim, *endpoints.back(), groups,
                               std::move(config));
  client.start();
  sim.run_for(1s);

  RunStats stats;
  std::size_t issued = 0;
  std::function<void()> next = [&] {
    if (issued >= opt.requests) return;
    const std::size_t n = issued++;
    if (n % 2 == 0) {
      auto put = std::make_shared<replication::KvPut>();
      put->key = "k";
      put->value = std::to_string(n);
      client.update(put, [&](const client::UpdateOutcome&) {
        sim.after(200ms, next);
      });
    } else {
      client.read(std::make_shared<replication::KvGet>(), bench_qos(),
                  [&](const client::ReadOutcome& o) {
                    stats.read_ms.push_back(sim::to_ms(o.response_time));
                    if (o.timing_failure) ++stats.timing_failures;
                    ++stats.reads;
                    sim.after(200ms, next);
                  });
    }
  };
  next();
  sim.run_for(std::chrono::seconds(2 * opt.requests));
  stats.avg_selected = client.stats().avg_replicas_selected();
  return stats;
}

void add_row(harness::Table& table, const char* name, const RunStats& s) {
  const auto ci = harness::binomial_ci_normal(s.timing_failures, s.reads);
  table.add_row({name, std::to_string(s.reads),
                 harness::Table::num(harness::summarize(s.read_ms).mean, 1),
                 harness::Table::num(harness::percentile(s.read_ms, 0.5), 1),
                 harness::Table::num(harness::percentile(s.read_ms, 0.99), 1),
                 harness::Table::num(ci.point, 3),
                 harness::Table::num(s.avg_selected, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::Options::parse(argc, argv);
  if (opt.requests > 600) opt.requests = 600;

  std::cout << "=== Ordering-guarantee comparison: sequential (TOTAL) vs "
               "FIFO handler ===\n"
            << "same pool (3 primaries + 4 secondaries), alternating "
               "write/read, QoS a=2, d=140ms, Pc=0.9\n\n";

  harness::Table table({"handler", "reads", "mean_read_ms", "p50_read_ms",
                        "p99_read_ms", "timing_failure_prob",
                        "avg_replicas_selected"});
  add_row(table, "sequential (TOTAL order)",
          run(opt, core::Ordering::kSequential, false));
  add_row(table, "FIFO + read-your-writes",
          run(opt, core::Ordering::kFifo, true));
  add_row(table, "FIFO (no session bound)",
          run(opt, core::Ordering::kFifo, false));
  table.print();
  std::cout << "\nexpected shape: FIFO reads skip the sequencer GSN "
               "round-trip and any commit-order\nwaits, so they are "
               "cheaper; read-your-writes adds back deferral waits on "
               "stale\nsecondaries right after a write.\n";
  return 0;
}
