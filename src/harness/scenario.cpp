#include "harness/scenario.hpp"

#include "runtime/sim_executor.hpp"
#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::harness {

// ---------------------------------------------------------------------------
// WorkloadClient
// ---------------------------------------------------------------------------

WorkloadClient::WorkloadClient(runtime::Executor& exec, gcs::Endpoint& endpoint,
                               const shard::ShardMap& map,
                               std::vector<replication::ServiceGroups> groups,
                               ClientSpec spec, std::size_t window_size)
    : exec_(exec), spec_(std::move(spec)) {
  // One handler per shard, constructed in shard order by the router so the
  // per-handler RNG splits are deterministic. The shard tag is only set in
  // a genuinely sharded run: the single-shard SLA gauges must keep their
  // pre-shard names bit-for-bit.
  const bool sharded = map.num_shards() > 1;
  router_ = std::make_unique<shard::ShardRouter>(
      exec, endpoint, map, std::move(groups),
      [this, window_size, sharded](std::size_t shard) {
        client::ClientConfig config;
        config.window_size = window_size;
        if (spec_.selector) config.selector = spec_.selector();
        config.read_your_writes = spec_.read_your_writes;
        if (sharded) config.shard = static_cast<std::int64_t>(shard);
        return config;
      });
}

void WorkloadClient::start() {
  router_->start();
  if (spec_.arrival == Arrival::kClosedLoop) {
    issue_next();
  } else {
    arrival_rng_ = std::make_unique<sim::Rng>(exec_.rng().split());
    schedule_open_arrival();
  }
}

void WorkloadClient::schedule_open_arrival() {
  if (issued_ >= spec_.num_requests) return;
  const sim::Duration gap =
      spec_.arrival == Arrival::kOpenPoisson
          ? arrival_rng_->exponential_duration(spec_.request_delay)
          : spec_.request_delay;
  exec_.after(gap, [this] {
    issue_next();
    schedule_open_arrival();
  });
}

void WorkloadClient::issue_next() {
  if (issued_ >= spec_.num_requests) return;
  const std::size_t n = issued_++;
  const std::string key = "k" + std::to_string(n % spec_.num_keys);
  if (n % 2 == 0) {
    // Write: put a fresh value.
    auto put = std::make_shared<replication::KvPut>();
    put->key = key;
    put->value = "v" + std::to_string(n);
    router_->update(key, put,
                    [this](const client::UpdateOutcome&) { on_complete(); });
  } else {
    auto get = std::make_shared<replication::KvGet>();
    get->key = key;
    router_->read(key, get, spec_.qos,
                  [this](const client::ReadOutcome& outcome) {
                    read_response_times_.push_back(
                        sim::to_sec(outcome.response_time));
                    reply_staleness_.push_back(
                        static_cast<double>(outcome.staleness));
                    read_completed_at_.push_back(
                        sim::to_sec(exec_.now() - sim::kEpoch));
                    read_timing_failures_.push_back(outcome.timing_failure);
                    on_complete();
                  });
  }
}

void WorkloadClient::on_complete() {
  ++completed_;
  if (spec_.arrival != Arrival::kClosedLoop) return;  // arrivals self-pace
  if (issued_ >= spec_.num_requests) return;
  exec_.after(spec_.request_delay, [this] { issue_next(); });
}

ClientResult WorkloadClient::result() const {
  ClientResult r;
  r.stats = router_->stats();
  r.read_response_times = read_response_times_;
  r.reply_staleness = reply_staleness_;
  r.read_completed_at = read_completed_at_;
  r.read_timing_failures = read_timing_failures_;
  return r;
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      shard_map_(config_.seed, config_.num_shards == 0 ? 1 : config_.num_shards) {
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  AQUEDUCT_CHECK_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  exec_ = runtime::make_executor(config_.runtime, config_.seed);
  transport_ = net::make_loopback_transport(
      *exec_, std::make_unique<sim::NormalDuration>(config_.net_latency_mean,
                                                    config_.net_latency_std));
  if (config_.chaos) {
    transport_ = net::make_chaos_transport(std::move(transport_));
  }

  // Flat shard-major layout; all shards share the one transport/directory
  // substrate (gcs multiplexes by group id). Within a shard, the sequencer
  // (slot 0) is the first primary-group joiner (rank 0 = leader), then
  // primaries, then secondaries.
  const std::size_t num_servers = config_.num_shards * servers_per_shard();
  for (std::size_t index = 0; index < num_servers; ++index) {
    auto endpoint = std::make_unique<gcs::Endpoint>(*exec_, *transport_,
                                                    directory_, config_.gcs);
    replicas_.push_back(make_replica_server(index, *endpoint));
    endpoints_.push_back(std::move(endpoint));
  }
  incarnations_.assign(num_servers, 0);

  // Per-shard liveness gauges only exist in a genuinely sharded run: a new
  // metric name would change the single-shard telemetry digest.
  if (config_.num_shards > 1) {
    obs::MetricsRegistry& reg = observability().metrics;
    for (std::size_t k = 0; k < config_.num_shards; ++k) {
      live_gauges_.push_back(
          &reg.gauge("shard" + std::to_string(k) + ".replicas_live"));
      live_gauges_.back()->set(static_cast<double>(servers_per_shard()));
    }
  }

  for (std::size_t c = 0; c < config_.clients.size(); ++c) {
    auto endpoint = std::make_unique<gcs::Endpoint>(*exec_, *transport_,
                                                    directory_, config_.gcs);
    workloads_.push_back(assemble_node(config_, shard_map_,
                                       {Role::kClient, 0, c}, *exec_,
                                       *endpoint)
                             .client);
    endpoints_.push_back(std::move(endpoint));
  }
}

obs::MetricsSnapshotter& Scenario::enable_telemetry(sim::Duration period) {
  AQUEDUCT_CHECK_MSG(!ran_, "enable_telemetry() must precede run()");
  AQUEDUCT_CHECK_MSG(!snapshotter_, "telemetry already enabled");
  snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(
      *exec_, observability().metrics, period);
  return *snapshotter_;
}

std::vector<ClientResult> Scenario::run() {
  AQUEDUCT_CHECK_MSG(!ran_, "Scenario::run() called twice");
  ran_ = true;
  if (snapshotter_) snapshotter_->start();

  // Staggered start: each shard's sequencer boots before its followers so
  // it becomes that primary group's leader; replicas follow, then clients
  // after the groups have settled. Offsets are relative to now(): under
  // kSim now() is kEpoch here (identical schedule to an absolute one);
  // under kRealTime construction already consumed wall time, so relative
  // is the only correct choice.
  sim::Duration at = sim::Duration::zero();
  for (auto& replica : replicas_) {
    exec_->after(at, [r = replica.get()] { r->start(); });
    at += std::chrono::milliseconds(10);
  }
  at += std::chrono::milliseconds(500);
  for (auto& workload : workloads_) {
    exec_->after(at, [w = workload.get()] { w->start(); });
    at += std::chrono::milliseconds(10);
  }

  const sim::TimePoint deadline = exec_->now() + config_.max_sim_time;
  while (exec_->now() < deadline) {
    const bool all_done =
        std::all_of(workloads_.begin(), workloads_.end(),
                    [](const auto& w) { return w->done(); });
    if (all_done) break;
    exec_->run_for(std::chrono::seconds(1));
  }
  // Drain trailing protocol work (late replies, final publications).
  exec_->run_for(config_.drain);
  if (snapshotter_) {
    snapshotter_->stop();
    snapshotter_->capture_now();  // pick up the post-drain tail
  }

  std::vector<ClientResult> results;
  results.reserve(workloads_.size());
  for (const auto& workload : workloads_) results.push_back(workload->result());
  return results;
}

std::unique_ptr<replication::ReplicaServer> Scenario::make_replica_server(
    std::size_t index, gcs::Endpoint& endpoint) {
  const std::size_t shard = shard_of(index);
  auto server = assemble_node(config_, shard_map_, server_at(config_, index),
                              *exec_, endpoint)
                    .server;
  // A group that ejects a live-but-gray replica leaves the server crashed;
  // reincarnate the slot after a supervisor delay (the reborn process joins
  // under a fresh NodeId, escaping any identity-keyed blackhole).
  if (config_.eviction_restart_delay > sim::Duration::zero()) {
    server->set_on_evicted([this, index, shard] {
      refresh_live_gauge(shard);
      exec_->after(config_.eviction_restart_delay, [this, index] {
        if (replicas_[index]->crashed()) restart_replica(index);
      });
    });
  }
  return server;
}

void Scenario::schedule_crash(std::size_t replica_index, sim::TimePoint at) {
  AQUEDUCT_CHECK(replica_index < replicas_.size());
  // Capture the index, not the server: a restart may have replaced the
  // object by the time this fires.
  exec_->at(at, [this, replica_index] { crash_replica(replica_index); });
}

void Scenario::schedule_restart(std::size_t replica_index, sim::TimePoint at) {
  AQUEDUCT_CHECK(replica_index < replicas_.size());
  exec_->at(at, [this, replica_index] { restart_replica(replica_index); });
}

void Scenario::crash_replica(std::size_t replica_index) {
  AQUEDUCT_CHECK(replica_index < replicas_.size());
  if (!replicas_[replica_index]->crashed()) replicas_[replica_index]->crash();
  refresh_live_gauge(shard_of(replica_index));
}

std::size_t Scenario::live_servers(std::size_t shard, bool primaries_only,
                                   std::size_t except) const {
  std::size_t live = 0;
  for (std::size_t slot = 0; slot < servers_per_shard(); ++slot) {
    const std::size_t i = slot_index(shard, slot);
    if (i == except || replicas_[i]->crashed()) continue;
    if (!primaries_only || replicas_[i]->is_primary()) ++live;
  }
  return live;
}

void Scenario::refresh_live_gauge(std::size_t shard) {
  if (live_gauges_.empty()) return;
  live_gauges_[shard]->set(static_cast<double>(live_servers(shard, false)));
}

void Scenario::restart_replica(std::size_t replica_index) {
  AQUEDUCT_CHECK(replica_index < replicas_.size());
  const std::size_t shard = shard_of(replica_index);
  const replication::ServiceGroups groups = service_groups(config_, shard);
  replication::ReplicaServer& old = *replicas_[replica_index];
  if (!old.crashed()) old.crash();
  const net::NodeId old_id = endpoints_[replica_index]->id();
  const bool was_primary = old.is_primary();

  // Destroy the dead server before reincarnating the endpoint — it holds
  // raw pointers into the endpoint's Member objects.
  replicas_[replica_index].reset();

  // Clear directory entries that still name the dead incarnation and have
  // no surviving member to fail over to (a joiner chasing such an entry
  // would retry against a dead process forever). When any other member is
  // alive its failover coordinator refreshes the entry itself, and erasing
  // it here could split the group into two disjoint views. Liveness is
  // judged within the slot's own shard: other shards' groups are disjoint.
  if (was_primary && live_servers(shard, true, replica_index) == 0) {
    directory_.forget_if(groups.primary, old_id);
  }
  if (live_servers(shard, false, replica_index) == 0) {
    directory_.forget_if(groups.replication, old_id);
    // Clients are QoS-group members too; only forget when none exist.
    if (workloads_.empty()) directory_.forget_if(groups.qos, old_id);
  }

  endpoints_[replica_index]->reincarnate();
  replicas_[replica_index] =
      make_replica_server(replica_index, *endpoints_[replica_index]);
  replicas_[replica_index]->start();
  ++incarnations_[replica_index];
  refresh_live_gauge(shard);
}

std::uint32_t Scenario::incarnation(std::size_t replica_index) const {
  AQUEDUCT_CHECK(replica_index < incarnations_.size());
  return incarnations_[replica_index];
}

net::NodeId Scenario::replica_node(std::size_t replica_index) const {
  AQUEDUCT_CHECK(replica_index < endpoints_.size());
  return endpoints_[replica_index]->id();
}

bool Scenario::replica_alive(std::size_t replica_index) const {
  AQUEDUCT_CHECK(replica_index < replicas_.size());
  return !replicas_[replica_index]->crashed();
}

void Scenario::apply_faults(const fault::FaultSchedule& schedule) {
  fault::FaultTargets targets;
  targets.crash = [this](std::size_t i) { crash_replica(i); };
  targets.restart = [this](std::size_t i) { restart_replica(i); };
  targets.node_id = [this](std::size_t i) { return replica_node(i); };
  targets.network = transport_->fault_injection();
  targets.num_replicas = replicas_.size();
  targets.slot_index = [this](fault::SlotRef ref) {
    AQUEDUCT_CHECK_MSG(ref.shard < num_shards(),
                       "fault SlotRef names a shard this scenario lacks");
    AQUEDUCT_CHECK_MSG(ref.slot < servers_per_shard(),
                       "fault SlotRef slot out of range");
    return slot_index(ref.shard, ref.slot);
  };
  fault::apply(schedule, *exec_, std::move(targets));
}

void Scenario::enable_dependability(fault::DependabilityConfig config) {
  AQUEDUCT_CHECK_MSG(!dependability_, "dependability manager already enabled");
  fault::DependabilityManager::Hooks hooks;
  hooks.num_replicas = [this] { return replicas_.size(); };
  hooks.alive = [this](std::size_t i) { return replica_alive(i); };
  hooks.restart = [this](std::size_t i) { restart_replica(i); };
  dependability_ = std::make_unique<fault::DependabilityManager>(
      *exec_, observability(), config, std::move(hooks));
  dependability_->start();
}

// ---------------------------------------------------------------------------
// Node assembly
// ---------------------------------------------------------------------------

NodeSpec server_at(const ScenarioConfig& config, std::size_t replica_index) {
  const std::size_t slot = replica_index % config.servers_per_shard();
  NodeSpec node{Role::kSequencer, replica_index / config.servers_per_shard(),
                0};
  if (slot > config.num_primaries) {
    node.role = Role::kSecondary;
    node.index = slot - 1 - config.num_primaries;
  } else if (slot > 0) {
    node.role = Role::kPrimary;
    node.index = slot - 1;
  }
  return node;
}

replication::ServiceGroups service_groups(const ScenarioConfig& config,
                                          std::size_t shard) {
  return replication::ServiceGroups::for_service(
      static_cast<std::uint32_t>(1 + shard), config.ordering);
}

Node assemble_node(const ScenarioConfig& config, const shard::ShardMap& map,
                   const NodeSpec& node, runtime::Executor& exec,
                   gcs::Endpoint& endpoint) {
  Node built;
  if (node.role == Role::kClient) {
    std::vector<replication::ServiceGroups> groups;
    groups.reserve(config.num_shards);
    for (std::size_t k = 0; k < config.num_shards; ++k) {
      groups.push_back(service_groups(config, k));
    }
    built.client = std::make_unique<WorkloadClient>(
        exec, endpoint, map, std::move(groups), config.clients.at(node.index),
        config.window_size);
    return built;
  }
  const std::size_t slot =
      node.role == Role::kSequencer ? 0
      : node.role == Role::kPrimary ? 1 + node.index
                                    : 1 + config.num_primaries + node.index;
  const std::size_t index = node.shard * config.servers_per_shard() + slot;
  double speed = 1.0;
  if (index < config.speed_factors.size() &&
      config.speed_factors[index] > 0.0) {
    speed = config.speed_factors[index];
  }
  replication::ReplicaConfig rc;
  rc.service_time = std::make_shared<sim::NormalDuration>(
      std::chrono::duration_cast<sim::Duration>(config.service_mean / speed),
      std::chrono::duration_cast<sim::Duration>(config.service_std / speed));
  rc.lazy_update_interval = config.lazy_update_interval;
  built.server = std::make_unique<replication::ReplicaServer>(
      exec, endpoint, service_groups(config, node.shard),
      node.role != Role::kSecondary,
      std::make_unique<replication::KeyValueStore>(), std::move(rc));
  return built;
}

Agreement check_agreement(const Scenario& scenario) {
  Agreement agreement;
  const auto held_to_commit = [](const replication::ReplicaServer& replica) {
    return !replica.crashed() && replica.is_primary() && !replica.recovering();
  };
  for (std::size_t shard = 0; shard < scenario.num_shards(); ++shard) {
    std::uint64_t max_csn = 0;
    for (std::size_t slot = 0; slot < scenario.servers_per_shard(); ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      agreement.gsn_conflicts += replica.stats().gsn_conflicts;
      const auto& store =
          dynamic_cast<const replication::KeyValueStore&>(replica.object());
      for (const auto& [key, value] : store.entries()) {
        if (scenario.shard_map().shard_for(key) != shard) {
          ++agreement.leaked_keys;
        }
      }
      if (!held_to_commit(replica)) continue;
      if (store.version() != replica.csn()) ++agreement.csn_mismatches;
      max_csn = std::max(max_csn, replica.csn());
    }
    for (std::size_t slot = 1; slot < scenario.servers_per_shard(); ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      if (held_to_commit(replica) && replica.csn() + 2 < max_csn) {
        ++agreement.divergences;
      }
    }
  }
  return agreement;
}

}  // namespace aqueduct::harness
