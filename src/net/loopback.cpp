#include "net/loopback.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::net {

LoopbackTransport::LoopbackTransport(
    runtime::Executor& exec,
    std::unique_ptr<sim::DurationDistribution> default_latency)
    : exec_(exec),
      rng_(exec.rng().split()),
      default_latency_(std::move(default_latency)),
      c_sent_(obs_.metrics.counter("net.messages_sent")),
      c_delivered_(obs_.metrics.counter("net.messages_delivered")),
      c_dropped_loss_(obs_.metrics.counter("net.messages_dropped_loss")),
      c_dropped_partition_(obs_.metrics.counter("net.messages_dropped_partition")),
      c_dropped_detached_(obs_.metrics.counter("net.messages_dropped_detached")),
      c_bytes_sent_(obs_.metrics.counter("net.bytes_sent")),
      h_delivery_latency_ms_(obs_.metrics.histogram("net.delivery_latency_ms")) {
  AQUEDUCT_CHECK(default_latency_ != nullptr);
}

TransportStats LoopbackTransport::stats() const {
  TransportStats s;
  s.messages_sent = c_sent_.value();
  s.messages_delivered = c_delivered_.value();
  s.messages_dropped_loss = c_dropped_loss_.value();
  s.messages_dropped_partition = c_dropped_partition_.value();
  s.messages_dropped_detached = c_dropped_detached_.value();
  s.bytes_sent = c_bytes_sent_.value();
  return s;
}

NodeId LoopbackTransport::attach(Endpoint& endpoint) {
  const NodeId id{next_id_++};
  endpoints_.emplace(id, &endpoint);
  return id;
}

void LoopbackTransport::detach(NodeId id) { endpoints_.erase(id); }

void LoopbackTransport::set_link_latency(
    NodeId a, NodeId b, std::shared_ptr<sim::DurationDistribution> latency) {
  AQUEDUCT_CHECK(latency != nullptr);
  link_latency_[{a, b}] = latency;
  link_latency_[{b, a}] = std::move(latency);
}

void LoopbackTransport::set_node_latency(
    NodeId node, std::shared_ptr<sim::DurationDistribution> latency) {
  AQUEDUCT_CHECK(latency != nullptr);
  node_latency_[node] = std::move(latency);
}

void LoopbackTransport::clear_node_latency(NodeId node) { node_latency_.erase(node); }

void LoopbackTransport::set_loss_probability(double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  loss_probability_ = p;
}

void LoopbackTransport::set_link_loss(NodeId from, NodeId to, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  link_loss_[{from, to}] = p;
}

void LoopbackTransport::clear_link_loss(NodeId from, NodeId to) {
  link_loss_.erase({from, to});
}

void LoopbackTransport::set_inbound_loss(NodeId node, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) {
    inbound_loss_.erase(node);
  } else {
    inbound_loss_[node] = p;
  }
}

void LoopbackTransport::set_outbound_loss(NodeId node, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) {
    outbound_loss_.erase(node);
  } else {
    outbound_loss_[node] = p;
  }
}

double LoopbackTransport::loss_probability(NodeId from, NodeId to) const {
  // A per-link override is authoritative (it can also *lower* loss below
  // the node/global level); otherwise the pessimistic max of the sender's
  // outbound, the receiver's inbound, and the global probability governs.
  if (auto it = link_loss_.find({from, to}); it != link_loss_.end()) {
    return it->second;
  }
  double p = loss_probability_;
  if (auto it = outbound_loss_.find(from); it != outbound_loss_.end()) {
    p = std::max(p, it->second);
  }
  if (auto it = inbound_loss_.find(to); it != inbound_loss_.end()) {
    p = std::max(p, it->second);
  }
  return p;
}

void LoopbackTransport::partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b) {
  partition_a_.clear();
  partition_b_.clear();
  partition_a_.insert(side_a.begin(), side_a.end());
  partition_b_.insert(side_b.begin(), side_b.end());
}

void LoopbackTransport::heal() {
  partition_a_.clear();
  partition_b_.clear();
}

bool LoopbackTransport::partitioned(NodeId a, NodeId b) const {
  const bool a_in_a = partition_a_.contains(a);
  const bool a_in_b = partition_b_.contains(a);
  const bool b_in_a = partition_a_.contains(b);
  const bool b_in_b = partition_b_.contains(b);
  return (a_in_a && b_in_b) || (a_in_b && b_in_a);
}

sim::Duration LoopbackTransport::sample_latency(NodeId from, NodeId to) {
  if (auto it = link_latency_.find({from, to}); it != link_latency_.end()) {
    return it->second->sample(rng_);
  }
  // Node overrides compose additively on top of nothing else: if either
  // endpoint has a node-level model, the slower of the two governs.
  auto f = node_latency_.find(from);
  auto t = node_latency_.find(to);
  if (f != node_latency_.end() || t != node_latency_.end()) {
    sim::Duration d = sim::Duration::zero();
    if (f != node_latency_.end()) d = std::max(d, f->second->sample(rng_));
    if (t != node_latency_.end()) d = std::max(d, t->second->sample(rng_));
    return d;
  }
  return default_latency_->sample(rng_);
}

void LoopbackTransport::tap(NodeId from, NodeId to, const MessagePtr& msg,
                            std::size_t wire_size, const char* dropped) {
  if (!obs_.trace.active()) return;
  obs::MessageEvent event;
  event.at = exec_.now();
  event.from = from;
  event.to = to;
  event.type_name = msg->type_name();
  event.wire_size = wire_size;
  event.dropped = dropped;
  obs_.trace.message(event);
}

void LoopbackTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  AQUEDUCT_CHECK(msg != nullptr);
  AQUEDUCT_CHECK_MSG(from.valid() && to.valid(), "send with invalid node id");
  c_sent_.inc();
  // Memoized on the message: a heartbeat shared by every peer is sized
  // once, by a size-only codec pass, never encoded.
  const std::size_t wire_size = msg->wire_size();
  c_bytes_sent_.inc(wire_size);
  if (!endpoints_.contains(from)) {
    // A detached (crashed) node cannot send.
    c_dropped_detached_.inc();
    tap(from, to, msg, wire_size, "detached");
    return;
  }
  if (partitioned(from, to)) {
    c_dropped_partition_.inc();
    tap(from, to, msg, wire_size, "partition");
    return;
  }
  const double loss = loss_probability(from, to);
  if (loss > 0.0 && rng_.bernoulli(loss)) {
    c_dropped_loss_.inc();
    tap(from, to, msg, wire_size, "loss");
    return;
  }
  tap(from, to, msg, wire_size, "");
  const sim::Duration latency = sample_latency(from, to);
  h_delivery_latency_ms_.observe(sim::to_ms(latency));
  exec_.after(latency, [this, from, to, msg = std::move(msg)] {
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      c_dropped_detached_.inc();
      return;
    }
    c_delivered_.inc();
    it->second->on_message(from, msg);
  });
}

std::unique_ptr<Transport> make_loopback_transport(
    runtime::Executor& exec,
    std::unique_ptr<sim::DurationDistribution> default_latency) {
  return std::make_unique<LoopbackTransport>(exec, std::move(default_latency));
}

}  // namespace aqueduct::net
