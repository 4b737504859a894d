// Harness-level behaviours: heterogeneous speed factors, open-loop
// arrivals, workload accounting, node assembly.
#include <gtest/gtest.h>

#include <chrono>

#include "harness/scenario.hpp"
#include "runtime/sim_executor.hpp"

namespace aqueduct::harness {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

ClientSpec basic_client(std::size_t requests, Arrival arrival = Arrival::kClosedLoop) {
  return ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = milliseconds(300),
              .min_probability = 0.5},
      .request_delay = milliseconds(300),
      .num_requests = requests,
      .arrival = arrival,
  };
}

TEST(HarnessSpeedFactors, FastReplicasServeFaster) {
  auto run_with = [](std::vector<double> speeds) {
    ScenarioConfig config;
    config.seed = 3;
    config.num_primaries = 2;
    config.num_secondaries = 2;
    config.speed_factors = std::move(speeds);
    // Staleness-insensitive reads: a faster pool also raises the
    // closed-loop update rate, and with a tight threshold that would add
    // deferral waits which mask the pure service-speed effect.
    auto spec = basic_client(120);
    spec.qos.staleness_threshold = 1000;
    config.clients.push_back(std::move(spec));
    Scenario scenario(std::move(config));
    auto results = scenario.run();
    return sim::to_ms(results[0].stats.avg_response_time());
  };
  // Everyone 4x faster => markedly lower read latency.
  const double slow = run_with({1, 1, 1, 1, 1});
  const double fast = run_with({1, 4, 4, 4, 4});
  EXPECT_LT(fast, slow * 0.6);
}

TEST(HarnessSpeedFactors, MissingEntriesDefaultToOne) {
  ScenarioConfig config;
  config.seed = 4;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.speed_factors = {1.0};  // only the sequencer listed
  config.clients.push_back(basic_client(40));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_completed, 20u);
}

TEST(HarnessArrival, OpenLoopIssuesAllRequests) {
  ScenarioConfig config;
  config.seed = 5;
  config.clients.push_back(basic_client(60, Arrival::kOpenPoisson));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_issued, 30u);
  EXPECT_EQ(results[0].stats.updates_issued, 30u);
  EXPECT_EQ(results[0].stats.reads_completed + results[0].stats.reads_abandoned,
            30u);
}

TEST(HarnessArrival, OpenPeriodicFinishesInBoundedTime) {
  ScenarioConfig config;
  config.seed = 6;
  config.clients.push_back(basic_client(40, Arrival::kOpenPeriodic));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_completed, 20u);
  // 40 arrivals at 300 ms spacing start within 12 s; with boot and the
  // drain tail the run must stay well under a minute of simulated time.
  EXPECT_LT(scenario.executor().now(), sim::kEpoch + seconds(60));
}

TEST(HarnessArrival, OpenLoopIsFasterThanClosedLoopWallClock) {
  auto sim_time = [](Arrival arrival) {
    ScenarioConfig config;
    config.seed = 7;
    config.clients.push_back(basic_client(60, arrival));
    Scenario scenario(std::move(config));
    scenario.run();
    return scenario.executor().now() - sim::kEpoch;
  };
  // Closed loop waits for each completion; open loop overlaps requests.
  EXPECT_LT(sim_time(Arrival::kOpenPeriodic), sim_time(Arrival::kClosedLoop));
}

TEST(HarnessResults, ReadSamplesMatchCompletedReads) {
  ScenarioConfig config;
  config.seed = 8;
  config.clients.push_back(basic_client(50));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].read_response_times.size(),
            results[0].stats.reads_completed);
  EXPECT_EQ(results[0].reply_staleness.size(),
            results[0].stats.reads_completed);
}

void expect_same_server(const replication::ReplicaServer& built,
                        const replication::ReplicaServer& scenario_server,
                        std::size_t index) {
  SCOPED_TRACE("replica " + std::to_string(index));
  EXPECT_EQ(built.is_primary(), scenario_server.is_primary());
  EXPECT_EQ(built.groups().primary, scenario_server.groups().primary);
  EXPECT_EQ(built.groups().replication, scenario_server.groups().replication);
  EXPECT_EQ(built.groups().qos, scenario_server.groups().qos);
  EXPECT_EQ(built.groups().ordering, scenario_server.groups().ordering);
  EXPECT_EQ(built.lazy_update_interval(),
            scenario_server.lazy_update_interval());
}

// assemble_node on a substrate of its own builds, for every slot of a
// 2-shard layout, the server Scenario runs in that slot — and a restarted
// slot comes back as the same server.
TEST(HarnessAssembly, AssembledServersMatchScenarioSlotsAcrossRestarts) {
  for (const core::Ordering ordering :
       {core::Ordering::kSequential, core::Ordering::kFifo}) {
    SCOPED_TRACE(ordering == core::Ordering::kFifo ? "fifo" : "sequential");
    ScenarioConfig config;
    config.seed = 11;
    config.num_shards = 2;
    config.num_primaries = 2;
    config.num_secondaries = 2;
    config.ordering = ordering;
    config.lazy_update_interval = milliseconds(1500);
    config.clients.push_back(basic_client(4));
    Scenario scenario(config);

    auto exec = runtime::make_executor(runtime::Kind::kSim, config.seed);
    auto transport = net::make_loopback_transport(
        *exec, std::make_unique<sim::FixedDuration>(milliseconds(1)));
    gcs::Directory directory;
    const shard::ShardMap map(config.seed, config.num_shards);
    ASSERT_EQ(scenario.num_replicas(), 10u);
    for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
      gcs::Endpoint endpoint(*exec, *transport, directory, config.gcs);
      const Node node =
          assemble_node(config, map, server_at(config, i), *exec, endpoint);
      ASSERT_NE(node.server, nullptr);
      EXPECT_EQ(node.client, nullptr);
      // The layout itself: slot 0 sequences, then 2 primaries, then
      // secondaries; shard k runs service 1 + k, whose group ids are
      // 16 * (1 + k) + 1..3.
      const std::size_t slot = i % scenario.servers_per_shard();
      const auto service = static_cast<std::uint32_t>(1 + i / 5);
      EXPECT_EQ(node.server->is_primary(), slot <= 2) << i;
      EXPECT_EQ(node.server->groups().primary, gcs::GroupId{service * 16 + 1});
      EXPECT_EQ(node.server->groups().qos, gcs::GroupId{service * 16 + 3});
      EXPECT_EQ(node.server->groups().ordering, ordering);
      EXPECT_EQ(node.server->lazy_update_interval(), milliseconds(1500));
      expect_same_server(*node.server, scenario.replica(i), i);
      scenario.restart_replica(i);
      expect_same_server(*node.server, scenario.replica(i), i);
    }
    gcs::Endpoint endpoint(*exec, *transport, directory, config.gcs);
    const Node client =
        assemble_node(config, map, {Role::kClient, 0, 0}, *exec, endpoint);
    EXPECT_EQ(client.server, nullptr);
    ASSERT_NE(client.client, nullptr);
    EXPECT_EQ(client.client->router().num_shards(), 2u);
  }
}

// ClientSpec::read_your_writes reaches the client: under FIFO a reader
// bound to its own writes prices secondaries as possibly behind them, so
// it selects more replicas than a reader without the bound.
TEST(HarnessAssembly, ReadYourWritesReachesTheClient) {
  const auto selected = [](bool read_your_writes) {
    ScenarioConfig config;
    config.seed = 5;
    config.num_primaries = 2;
    config.num_secondaries = 4;
    config.ordering = core::Ordering::kFifo;
    config.lazy_update_interval = seconds(2);
    ClientSpec spec = basic_client(60);
    spec.qos = {.staleness_threshold = 2,
                .deadline = milliseconds(140),
                .min_probability = 0.9};
    spec.read_your_writes = read_your_writes;
    config.clients.push_back(std::move(spec));
    Scenario scenario(std::move(config));
    return scenario.run()[0].stats.avg_replicas_selected();
  };
  EXPECT_GT(selected(true), selected(false) + 1.0);
}

TEST(HarnessAssembly, ServerAtWalksTheShardMajorLayout) {
  ScenarioConfig config;
  config.num_shards = 2;
  config.num_primaries = 2;
  config.num_secondaries = 1;
  const std::vector<std::pair<Role, std::size_t>> slots = {
      {Role::kSequencer, 0}, {Role::kPrimary, 0}, {Role::kPrimary, 1},
      {Role::kSecondary, 0}};
  for (std::size_t i = 0; i < 2 * slots.size(); ++i) {
    const NodeSpec node = server_at(config, i);
    EXPECT_EQ(node.shard, i / slots.size()) << i;
    EXPECT_EQ(node.role, slots[i % slots.size()].first) << i;
    EXPECT_EQ(node.index, slots[i % slots.size()].second) << i;
  }
}

}  // namespace
}  // namespace aqueduct::harness
