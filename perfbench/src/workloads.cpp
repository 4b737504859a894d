#include "workloads.hpp"

#include <chrono>

#include "fault/schedule.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::seconds;
namespace harness = aqueduct::harness;

// Workload sizes per repetition. A run repeats the workload on fresh seeds
// until its measuring time is spent, so these only set the granularity.
const std::vector<Workload> kWorkloads = {
    // The paper's Section 6 traffic: mostly idle groups, heartbeat-bound.
    {.name = "paper", .realtime = false, .clients = 2, .requests_per_client = 200},
    // Request-path bound: selection, ordering and delivery dominate.
    {.name = "dense", .realtime = false, .clients = 4, .requests_per_client = 500},
    // Fault path: chaos transport, evictions, state transfer, telemetry.
    {.name = "sharded_gray", .realtime = false, .clients = 4, .requests_per_client = 300},
    // The deployable path: the same stack on the wall-clock executor.
    {.name = "live", .realtime = true, .clients = 4, .requests_per_client = 500},
};

constexpr std::size_t kGrayShards = 4;
constexpr std::size_t kGrayFaultyShard = 1;
constexpr auto kGrayPartitionEvery = seconds(6);
constexpr auto kGrayPartitionFor = seconds(3);
// Past the end of any repetition (which lasts ~20 s of simulated time).
constexpr auto kGrayFaultsUntil = seconds(120);

harness::ClientSpec client(const aqueduct::core::QoSSpec& qos,
                           aqueduct::sim::Duration think,
                           std::size_t requests, std::size_t keys,
                           harness::Arrival arrival) {
  return harness::ClientSpec{.qos = qos,
                             .request_delay = think,
                             .num_requests = requests,
                             .num_keys = keys,
                             .arrival = arrival};
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  // splitmix64 finalizer, forced odd so a sub-seed is never 0.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + rep + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) | 1;
}

harness::ScenarioConfig make_config(const Workload& w, std::uint64_t seed,
                                    bool smoke) {
  harness::ScenarioConfig c;
  c.seed = seed;
  const std::size_t requests =
      smoke ? std::max<std::size_t>(20, w.requests_per_client / 10)
            : w.requests_per_client;
  using harness::Arrival;
  // A stalled client would keep the DES running to this cap; the
  // correctness gate then reports the requests it never completed.
  c.max_sim_time = seconds(600);
  if (w.name == "paper") {
    // ScenarioConfig's defaults are the paper's Section 6 group and
    // service model; only the clients are added.
    for (std::size_t i = 0; i < w.clients; ++i) {
      c.clients.push_back(client({.staleness_threshold = 2,
                                  .deadline = milliseconds(140),
                                  .min_probability = 0.9},
                                 seconds(1), requests, 16,
                                 Arrival::kClosedLoop));
    }
  } else if (w.name == "dense") {
    c.service_mean = milliseconds(5);
    c.service_std = milliseconds(2);
    for (std::size_t i = 0; i < w.clients; ++i) {
      c.clients.push_back(client({.staleness_threshold = 2,
                                  .deadline = milliseconds(12),
                                  .min_probability = 0.9},
                                 milliseconds(40), requests, 64,
                                 Arrival::kOpenPoisson));
    }
  } else if (w.name == "sharded_gray") {
    c.num_shards = kGrayShards;
    c.num_primaries = 2;
    c.num_secondaries = 2;
    c.service_mean = milliseconds(10);
    c.service_std = milliseconds(5);
    c.lazy_update_interval = seconds(2);
    c.chaos = true;
    for (std::size_t i = 0; i < w.clients; ++i) {
      c.clients.push_back(client({.staleness_threshold = 2,
                                  .deadline = milliseconds(40),
                                  .min_probability = 0.9},
                                 milliseconds(50), requests, 64,
                                 Arrival::kClosedLoop));
    }
  } else if (w.name == "live") {
    c.runtime = aqueduct::runtime::Kind::kRealTime;
    c.service_mean = microseconds(500);
    c.service_std = microseconds(100);
    c.drain = milliseconds(500);
    c.max_sim_time = seconds(120);
    for (std::size_t i = 0; i < w.clients; ++i) {
      c.clients.push_back(client({.staleness_threshold = 2,
                                  .deadline = milliseconds(4),
                                  .min_probability = 0.9},
                                 aqueduct::sim::Duration::zero(), requests, 16,
                                 Arrival::kClosedLoop));
    }
  }
  return c;
}

void install(const Workload& w, harness::Scenario& scenario,
             std::uint64_t seed, bool telemetry, Installed& out) {
  if (w.name != "sharded_gray") return;
  namespace fault = aqueduct::fault;
  aqueduct::sim::Rng rng(seed ^ 0x5bd1e995ULL);
  fault::FaultSchedule plan;
  // Duplication for the whole run. Every 6 s a 3 s partial partition
  // between the two secondaries of one shard, long enough for the failure
  // detector to evict one of them; the harness reincarnates it and state
  // transfer catches it up. A 1 s loss burst per period forces NACKs and
  // retransmissions; it is kept light so that about 1% of reads wait on a
  // fault and read_p98_ms stays below that tail (which shows in
  // client.timing_failure_rate instead). Whole-run loss and reordering
  // are left out: they make the program abandon updates or stall a client.
  plan.duplicate_storm(kGrayNetwork.duplicate * (0.5 + rng.uniform()), seconds(0));
  const std::size_t per_shard = scenario.servers_per_shard();
  for (auto at = seconds(3); at < kGrayFaultsUntil; at += kGrayPartitionEvery) {
    plan.partial_partition(fault::SlotRef{kGrayFaultyShard, per_shard - 2},
                           fault::SlotRef{kGrayFaultyShard, per_shard - 1}, at,
                           kGrayPartitionFor);
    plan.loss(kGrayNetwork.loss * (0.5 + rng.uniform()), at + seconds(2));
    plan.loss(0.0, at + seconds(3));
  }
  scenario.apply_faults(plan);
  scenario.enable_dependability(fault::DependabilityConfig{});
  if (telemetry) {
    out.telemetry_stream = std::make_unique<std::ostringstream>();
    out.telemetry_sink =
        std::make_unique<aqueduct::obs::JsonlSnapshotSink>(*out.telemetry_stream);
    scenario.enable_telemetry(milliseconds(100)).add_sink(out.telemetry_sink.get());
  }
}

}  // namespace perfbench
