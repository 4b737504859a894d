// In-process loopback backend of net::Transport: point-to-point message
// delivery through the executor's timer queue with configurable latency
// models, probabilistic loss, partitions, and node crashes.
//
// Under a SimExecutor this is the simulated LAN every experiment runs on
// (delivery in virtual time, deterministic per seed); under a
// RealTimeExecutor the same code delivers after real wall-clock latency.
// Messages travel as shared pointers — nothing is serialized, so the
// simulated trajectory is byte-identical to what it was before the
// Transport split.
//
// Only composition roots (tests, benches, examples, tools) may include
// this header; protocol layers build loopbacks through
// net::make_loopback_transport() and inject faults through the
// FaultInjection interface (tools/check_layering.py enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/transport.hpp"

namespace aqueduct::net {

class LoopbackTransport final : public Transport, public FaultInjection {
 public:
  /// `default_latency` is sampled independently per message for every link
  /// without an explicit override.
  LoopbackTransport(runtime::Executor& exec,
                    std::unique_ptr<sim::DurationDistribution> default_latency);

  // ---- Transport ----
  NodeId attach(Endpoint& endpoint) override;
  void detach(NodeId id) override;
  bool is_attached(NodeId id) const override { return endpoints_.contains(id); }
  /// Delivery is scheduled after a latency sample.
  void send(NodeId from, NodeId to, MessagePtr msg) override;
  TransportStats stats() const override;
  obs::Observability& observability() override { return obs_; }
  runtime::Executor& executor() override { return exec_; }
  FaultInjection* fault_injection() override { return this; }

  // ---- FaultInjection ----
  void set_link_latency(
      NodeId a, NodeId b,
      std::shared_ptr<sim::DurationDistribution> latency) override;
  void set_node_latency(
      NodeId node, std::shared_ptr<sim::DurationDistribution> latency) override;
  void clear_node_latency(NodeId node) override;
  void set_loss_probability(double p) override;
  void set_link_loss(NodeId from, NodeId to, double p) override;
  void clear_link_loss(NodeId from, NodeId to) override;
  void set_inbound_loss(NodeId node, double p) override;
  void set_outbound_loss(NodeId node, double p) override;
  double loss_probability(NodeId from, NodeId to) const override;
  void partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b) override;
  void heal() override;

 private:
  sim::Duration sample_latency(NodeId from, NodeId to);
  bool partitioned(NodeId a, NodeId b) const;
  void tap(NodeId from, NodeId to, const MessagePtr& msg, std::size_t wire_size,
           const char* dropped);

  struct PairHash {
    std::size_t operator()(const std::pair<NodeId, NodeId>& p) const noexcept {
      return std::hash<NodeId>{}(p.first) * 1000003u ^ std::hash<NodeId>{}(p.second);
    }
  };

  runtime::Executor& exec_;
  sim::Rng rng_;
  std::unique_ptr<sim::DurationDistribution> default_latency_;
  std::unordered_map<NodeId, Endpoint*> endpoints_;
  std::unordered_map<std::pair<NodeId, NodeId>,
                     std::shared_ptr<sim::DurationDistribution>, PairHash>
      link_latency_;
  std::unordered_map<NodeId, std::shared_ptr<sim::DurationDistribution>>
      node_latency_;
  double loss_probability_ = 0.0;
  std::unordered_map<std::pair<NodeId, NodeId>, double, PairHash> link_loss_;
  std::unordered_map<NodeId, double> inbound_loss_;
  std::unordered_map<NodeId, double> outbound_loss_;
  std::unordered_set<NodeId> partition_a_;
  std::unordered_set<NodeId> partition_b_;
  std::uint32_t next_id_ = 1;

  obs::Observability obs_;  // must precede the instrument references below
  obs::Counter& c_sent_;
  obs::Counter& c_delivered_;
  obs::Counter& c_dropped_loss_;
  obs::Counter& c_dropped_partition_;
  obs::Counter& c_dropped_detached_;
  obs::Counter& c_bytes_sent_;
  obs::Histogram& h_delivery_latency_ms_;
};

}  // namespace aqueduct::net
