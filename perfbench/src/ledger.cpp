#include "ledger.hpp"

#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/pmf.hpp"
#include "core/selection.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/messages.hpp"
#include "measure.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"
#include "runtime/realtime_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

namespace harness = aqueduct::harness;
namespace net = aqueduct::net;
namespace obs = aqueduct::obs;
namespace sim = aqueduct::sim;
namespace gcs = aqueduct::gcs;
namespace core = aqueduct::core;
namespace replication = aqueduct::replication;
using std::chrono::milliseconds;
using std::chrono::seconds;

// ------------------------------------------------------------------ spans

/// Benchmark-side spans (name, start, end, parent), kept in memory and
/// written once at the end of the run.
class Spans {
 public:
  Spans() : origin_(wall_s()) {}
  std::size_t open(std::string name, std::ptrdiff_t parent) {
    spans_.push_back({std::move(name), parent, now_ns(), -1.0});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end_ns = now_ns(); }
  /// Records an already-measured interval as a child of `parent`.
  void add(std::string name, std::ptrdiff_t parent, double start_s, double end_s) {
    spans_.push_back({std::move(name), parent, (start_s - origin_) * 1e9,
                      (end_s - origin_) * 1e9});
  }
  void write(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"parent\": %td, "
                    "\"start_ns\": %.0f, \"end_ns\": %.0f}",
                    i, s.name.c_str(), s.parent, s.start_ns, s.end_ns);
      os << line << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
  }

 private:
  struct Span {
    std::string name;
    std::ptrdiff_t parent;
    double start_ns;
    double end_ns;
  };
  double now_ns() const { return (wall_s() - origin_) * 1e9; }
  double origin_;
  std::vector<Span> spans_;
};

/// Times `batch` (which performs `ops` operations) repeatedly for about
/// `budget_s` and returns the median nanoseconds per operation.
double ns_per_op(const std::function<void()>& batch, double ops, double budget_s) {
  std::vector<double> per_op;
  const double until = wall_s() + budget_s;
  while (per_op.size() < 5 || (wall_s() < until && per_op.size() < 1000)) {
    const double t0 = wall_s();
    batch();
    per_op.push_back((wall_s() - t0) * 1e9 / ops);
  }
  return median(per_op);
}

// ------------------------------------------------------- traced-run sink

/// Counts every MessageEvent by type and pairs request spans into the
/// replication layer's ordering and queueing waits. Request trace ids repeat
/// across shards (each shard's client handler numbers its own requests), so
/// ordering spans are paired within the shard of the replica that emitted
/// them; spans of replicas not yet mapped to a shard are skipped.
class Collector final : public obs::TraceSink {
 public:
  void map_node(net::NodeId node, std::size_t shard) { shard_of_[node.value()] = shard; }

  struct TypeCount {
    std::uint64_t sends = 0;
    std::uint64_t bytes = 0;
  };

  void on_message(const obs::MessageEvent& e) override {
    TypeCount& c = by_type_[e.type_name];
    ++c.sends;
    c.bytes += e.wire_size;
  }

  void on_span(const obs::SpanEvent& e) override {
    ++span_events_;
    switch (e.kind) {
      case obs::SpanKind::kDeliver:
        if (auto k = shard_key(e)) first_deliver_.try_emplace(*k, e.at);
        break;
      case obs::SpanKind::kGsnAssign:
        if (auto k = shard_key(e)) {
          if (auto it = first_deliver_.find(*k); it != first_deliver_.end()) {
            order_wait_ms_.push_back(sim::to_ms(e.at - it->second));
            first_deliver_.erase(it);
          }
        }
        break;
      case obs::SpanKind::kEnqueue:
        enqueued_[key(e)] = e.at;
        break;
      case obs::SpanKind::kExecute:
        if (auto it = enqueued_.find(key(e)); it != enqueued_.end()) {
          queue_wait_ms_.push_back(sim::to_ms(e.at - e.duration - it->second));
          enqueued_.erase(it);
        }
        break;
      default:
        break;
    }
  }

  const std::map<std::string, TypeCount>& by_type() const { return by_type_; }
  std::uint64_t sends(const std::string& type) const {
    auto it = by_type_.find(type);
    return it == by_type_.end() ? 0 : it->second.sends;
  }
  std::uint64_t total_sends() const {
    std::uint64_t n = 0;
    for (const auto& [type, c] : by_type_) n += c.sends;
    return n;
  }
  std::uint64_t gcs_sends() const {
    std::uint64_t n = 0;
    for (const auto& [type, c] : by_type_) {
      if (type.rfind("gcs.", 0) == 0) n += c.sends;
    }
    return n;
  }
  std::uint64_t span_events() const { return span_events_; }
  double order_wait_ms() const { return mean(order_wait_ms_); }
  double queue_wait_ms() const { return mean(queue_wait_ms_); }

 private:
  static std::uint64_t key(const obs::SpanEvent& e) {
    return e.trace.value * 0x9E3779B97F4A7C15ULL ^ e.node.value();
  }
  std::optional<std::uint64_t> shard_key(const obs::SpanEvent& e) const {
    auto it = shard_of_.find(e.node.value());
    if (it == shard_of_.end()) return std::nullopt;
    return e.trace.value * 0x9E3779B97F4A7C15ULL ^ it->second;
  }
  static double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }
  std::map<std::string, TypeCount> by_type_;
  std::unordered_map<std::uint32_t, std::size_t> shard_of_;
  std::unordered_map<std::uint64_t, sim::TimePoint> first_deliver_;
  std::unordered_map<std::uint64_t, sim::TimePoint> enqueued_;
  std::vector<double> order_wait_ms_;
  std::vector<double> queue_wait_ms_;
  std::uint64_t span_events_ = 0;
};

/// The request a data frame carries (the mcast probe multicasts it).
net::MessagePtr message_payload(const net::Message& data) {
  return dynamic_cast<const gcs::DataMsg&>(data).payload;
}

/// Everything read from the traced repetition's end state.
struct TracedState {
  std::map<std::string, std::uint64_t> counters;  // the metrics registry
  std::map<std::string, Collector::TypeCount> messages;
  std::uint64_t message_events = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t gcs_sends = 0;
  std::uint64_t data_sends = 0;
  std::uint64_t span_events = 0;
  double order_wait_ms = 0.0;
  double queue_wait_ms = 0.0;
  double queue_depth_mean = 0.0;
  double queue_depth_max = 0.0;
  std::vector<double> timer_late_us;
  std::uint64_t convolutions = 0;
  std::uint64_t selections = 0;
  std::uint64_t replicas_selected = 0;
  std::uint64_t transmits = 0;
  std::uint64_t retries = 0;
  std::uint64_t deferred_replies = 0;
  std::uint64_t abandoned = 0;
  double load_imbalance = 1.0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t reborn = 0;
  // End-state probes.
  double select_pruned_ns = 0.0;
  /// Per-round ns of {pruned, scan}; even rounds time pruned first.
  std::array<std::vector<double>, 2> select_rounds;
  double select_scan_ns = 0.0;
  double route_ns = 0.0;
  double capture_ns = 0.0;
  /// reference_ms() when the end-state probes ran.
  double end_state_ref_ms = 1.0;
};

std::uint64_t counter(const TracedState& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Selection on the end-state repository of client 0 (shard 0): the
/// workload's own candidate set, CDFs and QoS. The two subset-search
/// strategies are timed in alternating order; every round is kept in the
/// ledger file, so a run-order artifact shows there.
void probe_selection(harness::Scenario& scenario, const harness::ClientSpec& spec,
                     double budget_s, TracedState& out) {
  const auto& repo = scenario.workload(0).handler().repository();
  if (!repo.has_roles()) return;
  sim::Rng rng(7);
  const core::SelectionContext base =
      repo.selection_context(spec.qos, scenario.executor().now(), rng);
  core::ProbabilisticOptions pruned_opt;
  core::ProbabilisticOptions scan_opt;
  scan_opt.subset_search = core::ProbabilisticOptions::SubsetSearch::kExhaustiveScan;
  core::ProbabilisticSelector pruned(pruned_opt), scan(scan_opt);
  constexpr int kOps = 256;
  std::vector<core::SelectionContext> ctx(kOps, base);
  auto batch = [&](core::ProbabilisticSelector& sel) {
    return [&ctx, &base, &sel] {
      for (auto& c : ctx) {
        c.candidates = base.candidates;
        volatile bool sink = sel.select(c).satisfied;
        static_cast<void>(sink);
      }
    };
  };
  std::vector<double> p, s;
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 0) {
      p.push_back(ns_per_op(batch(pruned), kOps, budget_s / 8));
      s.push_back(ns_per_op(batch(scan), kOps, budget_s / 8));
    } else {
      s.push_back(ns_per_op(batch(scan), kOps, budget_s / 8));
      p.push_back(ns_per_op(batch(pruned), kOps, budget_s / 8));
    }
  }
  out.select_rounds = {p, s};
  out.select_pruned_ns = median(p);
  out.select_scan_ns = median(s);
}

void probe_route(harness::Scenario& scenario, std::size_t num_keys,
                 double budget_s, TracedState& out) {
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < num_keys; ++k) keys.push_back("k" + std::to_string(k));
  const auto& map = scenario.shard_map();
  out.route_ns = ns_per_op(
      [&] {
        std::size_t sum = 0;
        for (const auto& k : keys) sum += map.shard_for(k);
        volatile std::size_t sink = sum;
        static_cast<void>(sink);
      },
      static_cast<double>(keys.size()), budget_s);
}

/// MetricsSnapshotter::capture_now() over the end-state registry into an
/// in-memory JSONL sink, as the workload's telemetry would.
void probe_capture(harness::Scenario& scenario, double budget_s, TracedState& out) {
  obs::MetricsSnapshotter snap(scenario.executor(), scenario.observability().metrics,
                               milliseconds(100));
  std::ostringstream os;
  obs::JsonlSnapshotSink sink(os);
  snap.add_sink(&sink);
  constexpr int kOps = 16;
  out.capture_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) snap.capture_now();
        os.str("");
      },
      kOps, budget_s);
}

// ---------------------------------------------------------- layer probes

/// Messages shaped like the workload's: a heartbeat of a group of
/// `group_size` members and a p2p data frame carrying a key-value update.
struct ProbeMessages {
  std::shared_ptr<const net::Message> heartbeat;
  std::shared_ptr<const net::Message> data;
};

ProbeMessages make_messages(std::size_t group_size, std::uint64_t traffic) {
  const net::NodeId client{static_cast<std::uint32_t>(group_size + 1)};
  auto hb = std::make_shared<gcs::HeartbeatMsg>();
  hb->group = gcs::GroupId{19};
  hb->view = 3;
  hb->my_mcast_seq = traffic;
  for (std::uint32_t m = 1; m <= group_size; ++m) {
    const net::NodeId node{m};
    hb->mcast_acks[node] = traffic + m;
    if (m == 1) continue;
    hb->my_p2p_seq[node] = traffic / 2 + m;
    hb->p2p_acks[node] = traffic / 3 + m;
  }
  auto put = std::make_shared<replication::KvPut>();
  put->key = "k17";
  put->value = "v" + std::to_string(traffic);
  auto update = std::make_shared<replication::UpdateRequest>();
  update->id = replication::RequestId{client, traffic};
  update->op = put;
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{19};
  data->is_mcast = false;
  data->sender = client;
  data->dest = net::NodeId{2};
  data->seq = traffic;
  data->view_sent = 3;
  data->payload = update;
  return {hb, data};
}

struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double wire_size_ns = 0.0;
  double bytes = 0.0;
  CodecCost scaled(double s) const {
    return {encode_ns * s, decode_ns * s, wire_size_ns * s, bytes};
  }
};

CodecCost probe_codec(const net::Message& msg, double budget_s) {
  CodecCost c;
  constexpr int kOps = 256;
  const std::vector<std::uint8_t> frame = net::encode_frame(msg);
  c.bytes = static_cast<double>(frame.size());
  c.encode_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) {
          net::Writer w;
          net::encode_frame(msg, w);
          volatile std::size_t sink = w.size();
          static_cast<void>(sink);
        }
      },
      kOps, budget_s / 3);
  c.decode_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) {
          net::Reader r(frame);
          volatile bool sink = net::decode_frame(r) != nullptr;
          static_cast<void>(sink);
        }
      },
      kOps, budget_s / 3);
  c.wire_size_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) {
          volatile std::size_t sink = msg.wire_size();
          static_cast<void>(sink);
        }
      },
      kOps, budget_s / 3);
  return c;
}

/// EventQueue::schedule + pop at a steady depth of `depth` events.
double probe_event_queue(double depth, double budget_s) {
  sim::EventQueue q;
  sim::Rng rng(11);
  // Offsets up to one heartbeat period, the protocol's dominant timer.
  const auto horizon = static_cast<std::uint64_t>(sim::Duration(milliseconds(250)).count());
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(depth));
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(sim::kEpoch + sim::Duration(rng.uniform_int(horizon)), [] {});
  }
  constexpr int kOps = 1024;
  return ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) {
          auto [at, cb] = q.pop();
          cb();
          q.schedule(at + sim::Duration(rng.uniform_int(horizon)), [] {});
        }
      },
      kOps, budget_s);
}

class NullEndpoint final : public net::Endpoint {
 public:
  void on_message(net::NodeId, net::MessagePtr) override {}
};

/// Transport::send of a heartbeat plus its delivery event, through the bare
/// loopback or through the chaos decorator configured like the workload.
double probe_send(bool chaos, double loss, double dup,
                  const net::MessagePtr& msg, double budget_s) {
  sim::Simulator exec(5);
  auto transport = net::make_loopback_transport(
      exec, std::make_unique<sim::NormalDuration>(std::chrono::microseconds(500),
                                                  std::chrono::microseconds(200)));
  if (chaos) {
    transport = net::make_chaos_transport(std::move(transport));
    auto* fi = transport->fault_injection();
    fi->set_loss_probability(loss);
    fi->set_duplicate_probability(dup);
  }
  NullEndpoint a, b;
  const net::NodeId from = transport->attach(a);
  const net::NodeId to = transport->attach(b);
  constexpr int kOps = 512;
  return ns_per_op(
      [&] {
        for (int i = 0; i < kOps; ++i) transport->send(from, to, msg);
        exec.run();
      },
      kOps, budget_s);
}

/// An idle replica group (the workload's servers, no clients) on a
/// SimExecutor plus loopback: wall time per GCS send over the steady state,
/// taken as the difference between a long and a short idle run so group
/// formation cancels out.
double probe_heartbeat(const Workload& w, std::uint64_t seed, double budget_s) {
  auto idle_run = [&](sim::Duration drain, double& wall, std::uint64_t& sends) {
    auto config = make_config(w, seed, false);
    config.clients.clear();
    config.runtime = aqueduct::runtime::Kind::kSim;
    config.chaos = false;
    config.drain = drain;
    harness::Scenario scenario(std::move(config));
    const double t0 = wall_s();
    scenario.run();
    wall = wall_s() - t0;
    sends = scenario.transport_stats().messages_sent;
  };
  std::vector<double> per_send;
  const double until = wall_s() + budget_s;
  while (per_send.size() < 3 || (wall_s() < until && per_send.size() < 50)) {
    double short_wall = 0, long_wall = 0;
    std::uint64_t short_sends = 0, long_sends = 0;
    idle_run(seconds(5), short_wall, short_sends);
    idle_run(seconds(25), long_wall, long_sends);
    if (long_sends > short_sends) {
      per_send.push_back((long_wall - short_wall) * 1e9 /
                         static_cast<double>(long_sends - short_sends));
    }
  }
  return std::max(0.0, median(per_send));
}

/// An idle runtime::RealTimeExecutor running a chain of 5 ms
/// Executor::after timers for `seconds`: how late each fired (µs) and how
/// many callbacks the loop ran. Used on the DES workloads, whose own
/// executor is the simulator.
std::uint64_t probe_runtime(double seconds, std::vector<double>& late_us) {
  aqueduct::runtime::RealTimeExecutor exec(3);
  const auto period = milliseconds(5);
  sim::TimePoint target = exec.now() + period;
  std::function<void()> tick = [&] {
    late_us.push_back(std::chrono::duration<double, std::micro>(exec.now() - target).count());
    target = exec.now() + period;
    exec.after(period, tick);
  };
  exec.after(period, tick);
  exec.run_for(std::chrono::duration_cast<sim::Duration>(std::chrono::duration<double>(seconds)));
  return exec.events_executed();
}

/// A group of `members` endpoints on a SimExecutor plus loopback; one
/// member multicasts a batch of data payloads. Returns wall ns per
/// delivery to the application.
double probe_mcast(std::size_t members, const net::MessagePtr& payload,
                   double budget_s) {
  sim::Simulator exec(9);
  auto transport = net::make_loopback_transport(
      exec, std::make_unique<sim::NormalDuration>(std::chrono::microseconds(500),
                                                  std::chrono::microseconds(200)));
  gcs::Directory directory;
  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  std::uint64_t delivered = 0;
  const gcs::GroupId group{33};
  for (std::size_t i = 0; i < members; ++i) {
    endpoints.push_back(std::make_unique<gcs::Endpoint>(exec, *transport, directory));
    gcs::Member& m = endpoints.back()->member(group);
    m.set_on_deliver([&delivered](net::NodeId, const net::MessagePtr&) { ++delivered; });
    exec.after(milliseconds(10 * static_cast<int>(i)), [&m] { m.join(); });
  }
  exec.run_for(seconds(3));
  gcs::Member& sender = endpoints.front()->member(group);
  constexpr int kOps = 128;
  std::vector<double> per_delivery;
  const double until = wall_s() + budget_s;
  while (per_delivery.size() < 5 || (wall_s() < until && per_delivery.size() < 200)) {
    const std::uint64_t before = delivered;
    const double t0 = wall_s();
    for (int i = 0; i < kOps; ++i) sender.multicast(payload);
    exec.run_for(milliseconds(20));
    const double dt = wall_s() - t0;
    if (delivered > before) {
      per_delivery.push_back(dt * 1e9 / static_cast<double>(delivered - before));
    }
  }
  return median(per_delivery);
}

// ------------------------------------------------------------- the run

void write_ledger(const std::string& path, const TracedState& s, double wall,
                  const Report& report) {
  std::ofstream os(path);
  os << "{\n  \"run_wall_s\": " << wall << ",\n  \"message_events_by_type\": {";
  bool first = true;
  for (const auto& [type, c] : s.messages) {
    os << (first ? "" : ", ") << "\"" << type << "\": {\"sends\": " << c.sends
       << ", \"bytes\": " << c.bytes << "}";
    first = false;
  }
  os << "},\n  \"message_events\": " << s.message_events
     << ",\n  \"span_events\": " << s.span_events;
  for (int k = 0; k < 2; ++k) {
    os << ",\n  \"select_rounds_ns_" << (k == 0 ? "pruned" : "scan") << "\": [";
    for (std::size_t i = 0; i < s.select_rounds[k].size(); ++i) {
      os << (i ? ", " : "") << s.select_rounds[k][i];
    }
    os << "]";
  }
  os << ",\n  \"registry\": {";
  first = true;
  for (const auto& [name, v] : s.counters) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  os << "},\n  \"result\": ";
  report.write_json(os);
  os << "\n}\n";
}

}  // namespace

int run_ledger(const Workload& w, const Options& opt) {
  gcs::register_wire_codecs();
  replication::register_wire_codecs();
  Spans spans;
  const auto root = static_cast<std::ptrdiff_t>(spans.open("ledger." + w.name, -1));
  const double begin = wall_s();
  const std::uint64_t seed = rep_seed(opt.seed, 0);
  const auto spec = make_config(w, seed, opt.smoke);
  const harness::ClientSpec client_spec = spec.clients.front();
  const bool gray = spec.chaos;
  // Per-probe time budget: the probes take about half of --seconds, the
  // untraced/traced pairs the other half.
  const double budget = std::max(0.02, opt.seconds / 60.0);
  Report report;

  // --- traced repetition ------------------------------------------------
  std::ptrdiff_t current_rep = root;  // span of the repetition running now
  // Every traced repetition subscribes the collector and runs the probe
  // timers; only the first one keeps its counts and probes its end state.
  TracedState state;
  Collector collector;
  bool keep = true;
  std::uint64_t conv_before = 0;
  double depth_sum = 0.0;
  std::uint64_t depth_samples = 0;
  aqueduct::runtime::Executor* exec = nullptr;
  harness::Scenario* scenario = nullptr;
  auto map_nodes = [&] {
    for (std::size_t i = 0; i < scenario->num_replicas(); ++i) {
      collector.map_node(scenario->replica_node(i), scenario->shard_of(i));
    }
  };
  sim::TimePoint tick_target;
  std::function<void()> tick;
  const auto tick_period = w.realtime ? milliseconds(5) : milliseconds(10);
  // Benchmark-owned probe timer: samples the event-queue depth and, on the
  // wall clock, how late Executor::after timers fire.
  tick = [&] {
    map_nodes();  // picks up reincarnated replicas
    if (w.realtime) {
      state.timer_late_us.push_back(
          std::chrono::duration<double, std::micro>(exec->now() - tick_target).count());
    }
    const auto depth = static_cast<double>(exec->pending_events());
    depth_sum += depth;
    ++depth_samples;
    state.queue_depth_max = std::max(state.queue_depth_max, depth);
    tick_target = exec->now() + tick_period;
    exec->after(tick_period, tick);
  };
  RepHooks hooks;
  hooks.before_run = [&](harness::Scenario& s) {
    s.observability().trace.add(&collector);
    scenario = &s;
    map_nodes();
    exec = &s.executor();
    tick_target = exec->now() + tick_period;
    exec->after(tick_period, tick);
    conv_before = core::Pmf::convolutions_performed();
  };
  hooks.after_run = [&](harness::Scenario& s, const RepResult& r) {
    s.observability().trace.remove(&collector);
    if (!keep) return;
    state.convolutions = core::Pmf::convolutions_performed() - conv_before;
    const auto snap = s.observability().metrics.snapshot();
    for (const auto& [name, v] : snap.counters) state.counters[name] = v;
    state.messages = collector.by_type();
    state.message_events = collector.total_sends();
    state.heartbeats = collector.sends("gcs.heartbeat");
    state.gcs_sends = collector.gcs_sends();
    state.data_sends = collector.sends("gcs.data");
    state.span_events = collector.span_events();
    state.order_wait_ms = collector.order_wait_ms();
    state.queue_wait_ms = collector.queue_wait_ms();
    state.queue_depth_mean =
        depth_samples ? depth_sum / static_cast<double>(depth_samples) : 0.0;
    std::vector<std::uint64_t> per_shard(s.num_shards(), 0);
    for (std::size_t i = 0; i < s.num_workloads(); ++i) {
      const auto& router = s.workload(i).router();
      const auto st = router.stats();
      state.selections += st.selection_attempts;
      state.replicas_selected += st.replicas_selected_total;
      state.transmits += st.transmit_attempts;
      state.retries += st.retries;
      state.deferred_replies += st.deferred_replies;
      state.abandoned += st.reads_abandoned;
      for (std::size_t k = 0; k < per_shard.size(); ++k) {
        per_shard[k] += router.route_stats(k).reads_routed +
                        router.route_stats(k).updates_routed;
      }
    }
    const auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
    state.load_imbalance =
        *lo == 0 ? 0.0 : static_cast<double>(*hi) / static_cast<double>(*lo);
    state.snapshots = s.telemetry() ? s.telemetry()->snapshots() : 0;
    state.snapshot_bytes = r.telemetry_bytes;
    state.restarts = s.dependability() ? s.dependability()->stats().restarts_issued : 0;
    for (std::size_t i = 0; i < s.num_replicas(); ++i) state.reborn += s.incarnation(i);

    state.end_state_ref_ms = r.ref_ms;
    const auto probes = static_cast<std::ptrdiff_t>(spans.open("probe.end_state", current_rep));
    auto p = spans.open("core.select", probes);
    probe_selection(s, client_spec, 4 * budget, state);
    spans.close(p);
    p = spans.open("shard.route", probes);
    probe_route(s, client_spec.num_keys, budget, state);
    spans.close(p);
    p = spans.open("obs.capture", probes);
    probe_capture(s, budget, state);
    spans.close(p);
    spans.close(static_cast<std::size_t>(probes));
  };

  // --- untraced vs traced pairs (plus telemetry off on sharded_gray) -------
  std::vector<double> plain_wall, traced_wall, quiet_wall, raw_rate, raw_cpu_us, raw_setup,
      ref_ms;
  RepResult plain0, traced0;
  const auto pairs = static_cast<std::ptrdiff_t>(spans.open("overhead_pairs", root));
  auto timed = [&](const char* name, bool telemetry, const RepHooks* h) {
    const auto id = spans.open(name, pairs);
    current_rep = static_cast<std::ptrdiff_t>(id);
    const double t0 = wall_s();
    RepResult r = run_rep(w, seed, opt.smoke, telemetry, h);
    spans.close(id);
    spans.add("setup", current_rep, t0, t0 + r.setup_s);
    spans.add("run", current_rep, t0 + r.setup_s, t0 + r.setup_s + r.run_wall_s);
    report.count(r);
    return r;
  };
  for (int pair = 0;; ++pair) {
    RepResult plain = timed("rep.untraced", true, nullptr);
    plain_wall.push_back(plain.run_wall_s);
    const double n = static_cast<double>(plain.completed());
    raw_rate.push_back(n / plain.run_wall_s);
    raw_cpu_us.push_back(plain.cpu_s * 1e6 / n);
    raw_setup.push_back(plain.setup_s);
    ref_ms.push_back(plain.ref_ms);
    if (gray) quiet_wall.push_back(timed("rep.telemetry_off", false, nullptr).run_wall_s);
    keep = pair == 0;
    collector = Collector{};
    depth_sum = 0.0;
    depth_samples = 0;
    RepResult traced = timed("rep.traced", true, &hooks);
    traced_wall.push_back(traced.run_wall_s);
    if (pair == 0) {
      plain0 = std::move(plain);
      traced0 = std::move(traced);
    }
    if (pair >= 1 && wall_s() - begin >= opt.seconds / 2) break;
  }
  spans.close(static_cast<std::size_t>(pairs));
  if (!w.realtime && plain0.digest != traced0.digest) {
    report.fail("tracing changed the DES outcome digest");
  }

  // --- layer probes on workload-shaped inputs ------------------------------
  const auto probes = static_cast<std::ptrdiff_t>(spans.open("probe.layers", root));
  const ProbeMessages msgs =
      make_messages(spec.num_primaries + spec.num_secondaries + 1 + spec.clients.size(),
                    plain0.completed());
  // Every probe time is rescaled to the machine speed of the untraced
  // repetitions (the reference kernel measured around each), so probe and
  // workload times compare in one frame although the shared machine's
  // speed drifts between them.
  const double wall_ref_ms = median(ref_ms);
  auto probe = [&](const char* name, auto&& fn) {
    const auto id = spans.open(name, probes);
    const double before = reference_ms();
    auto v = fn();
    const double scale = wall_ref_ms / ((before + reference_ms()) / 2);
    spans.close(id);
    return std::make_pair(v, scale);
  };
  const auto [hb_raw, hb_scale] =
      probe("net.codec.heartbeat", [&] { return probe_codec(*msgs.heartbeat, 3 * budget); });
  const auto [data_raw, data_scale] =
      probe("net.codec.data", [&] { return probe_codec(*msgs.data, 3 * budget); });
  const CodecCost hb = hb_raw.scaled(hb_scale);
  const CodecCost data = data_raw.scaled(data_scale);
  auto scaled = [](const std::pair<double, double>& p) { return p.first * p.second; };
  const double event_ns = scaled(
      probe("sim.event", [&] { return probe_event_queue(state.queue_depth_mean, budget); }));
  const double loopback_ns = scaled(probe("net.loopback.send", [&] {
    return probe_send(false, 0, 0, msgs.heartbeat, budget);
  }));
  const GrayNetwork g = gray ? kGrayNetwork : GrayNetwork{};
  const double chaos_ns = scaled(probe("net.chaos.send", [&] {
    return probe_send(true, g.loss, g.duplicate, msgs.heartbeat, budget);
  }));
  const double heartbeat_ns =
      scaled(probe("gcs.heartbeat", [&] { return probe_heartbeat(w, seed, 4 * budget); }));
  const double mcast_ns = scaled(probe("gcs.mcast_delivery", [&] {
    return probe_mcast(1 + spec.num_primaries, message_payload(*msgs.data), 2 * budget);
  }));
  const double runtime_events =
      w.realtime ? static_cast<double>(plain0.events)
                 : static_cast<double>(probe("runtime.timers", [&] {
                     return probe_runtime(4 * budget, state.timer_late_us);
                   }).first);
  // The end-state probes ran right after the traced repetition.
  const double end_scale = wall_ref_ms / state.end_state_ref_ms;
  state.select_pruned_ns *= end_scale;
  state.select_scan_ns *= end_scale;
  for (auto& rounds : state.select_rounds) {
    for (double& v : rounds) v *= end_scale;
  }
  state.route_ns *= end_scale;
  state.capture_ns *= end_scale;
  spans.close(static_cast<std::size_t>(probes));
  spans.close(static_cast<std::size_t>(root));

  // --- the ledger ----------------------------------------------------------
  const double wall = median(plain_wall);
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, plain0.completed()));
  const double sends = static_cast<double>(counter(state, "net.messages_sent"));
  const double bytes = static_cast<double>(counter(state, "net.bytes_sent"));
  const double events = static_cast<double>(plain0.events);
  const double mcasts = static_cast<double>(counter(state, "gcs.mcasts_sent"));
  const double delivered = static_cast<double>(counter(state, "gcs.delivered"));
  const double send_ns = gray ? chaos_ns : loopback_ns;
  auto share = [&](double calls, double self_ns) {
    return calls * std::max(0.0, self_ns) * 1e-9 / wall;
  };
  const double sim_share = share(events, event_ns);
  const double net_share = share(sends, send_ns - event_ns);
  const double gcs_share =
      share(static_cast<double>(state.heartbeats), heartbeat_ns - loopback_ns) +
      share(delivered, mcast_ns - loopback_ns);
  const double core_share = share(static_cast<double>(state.selections), state.select_pruned_ns);
  const double obs_share = share(static_cast<double>(state.snapshots), state.capture_ns);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double issued = static_cast<double>(plain0.expected);

  report.metric("wall.requests_per_s", median(raw_rate), "req/s");
  report.metric("wall.cpu_us_per_request", median(raw_cpu_us), "us");
  report.metric("wall.setup_s", median(raw_setup), "s");
  report.metric("wall.reference_ms", median(ref_ms), "ms");
  report.metric("sim.events", w.realtime ? 0.0 : events, "count");
  report.metric("sim.events_per_request", w.realtime ? 0.0 : events / requests, "count/req");
  report.metric("sim.queue_depth_mean", state.queue_depth_mean, "count");
  report.metric("sim.queue_depth_max", state.queue_depth_max, "count");
  report.metric("sim.event_ns", event_ns, "ns");
  report.metric("sim.wall_share", sim_share, "ratio");
  report.metric("runtime.events", runtime_events, "count");
  report.metric("runtime.timer_late_p50_us", quantile(state.timer_late_us, 0.50), "us");
  report.metric("runtime.timer_late_p99_us", quantile(state.timer_late_us, 0.99), "us");
  report.metric("net.sends", sends, "count");
  report.metric("net.bytes", bytes, "B");
  report.metric("net.sends_per_request", sends / requests, "count/req");
  report.metric("net.bytes_per_request", bytes / requests, "B/req");
  report.metric("net.heartbeat_share",
                ratio(static_cast<double>(state.heartbeats), static_cast<double>(state.message_events)),
                "ratio");
  report.metric("net.codec.encode_ns.heartbeat", hb.encode_ns, "ns");
  report.metric("net.codec.encode_ns.data", data.encode_ns, "ns");
  report.metric("net.codec.decode_ns.heartbeat", hb.decode_ns, "ns");
  report.metric("net.codec.decode_ns.data", data.decode_ns, "ns");
  report.metric("net.codec.wire_size_ns.heartbeat", hb.wire_size_ns, "ns");
  report.metric("net.codec.wire_size_ns.data", data.wire_size_ns, "ns");
  report.metric("net.codec.bytes.heartbeat", hb.bytes, "B");
  report.metric("net.codec.bytes.data", data.bytes, "B");
  report.metric("net.loopback.send_ns", loopback_ns, "ns");
  report.metric("net.chaos.send_ns", chaos_ns, "ns");
  report.metric("net.chaos.dropped",
                static_cast<double>(counter(state, "net.chaos.dropped_loss") +
                                    counter(state, "net.chaos.dropped_partition")),
                "count");
  report.metric("net.chaos.duplicated", static_cast<double>(counter(state, "net.messages_duplicated")), "count");
  report.metric("net.chaos.reordered", static_cast<double>(counter(state, "net.messages_reordered")), "count");
  report.metric("net.wall_share", net_share, "ratio");
  report.metric("gcs.heartbeats", static_cast<double>(state.heartbeats), "count");
  report.metric("gcs.mcasts", mcasts, "count");
  report.metric("gcs.delivered", delivered, "count");
  report.metric("gcs.delivered_per_mcast", ratio(delivered, mcasts), "ratio");
  report.metric("gcs.retransmissions", static_cast<double>(counter(state, "gcs.retransmissions")), "count");
  report.metric("gcs.nacks", static_cast<double>(counter(state, "gcs.nacks_sent")), "count");
  report.metric("gcs.duplicates_dropped", static_cast<double>(counter(state, "gcs.duplicates_dropped")), "count");
  report.metric("gcs.view_changes", static_cast<double>(counter(state, "gcs.view_changes")), "count");
  report.metric("gcs.useful_share",
                ratio(static_cast<double>(state.data_sends), static_cast<double>(state.gcs_sends)),
                "ratio");
  report.metric("gcs.heartbeat_ns", heartbeat_ns, "ns");
  report.metric("gcs.mcast_delivery_ns", mcast_ns, "ns");
  report.metric("gcs.wall_share", gcs_share, "ratio");
  report.metric("repl.gsn_assigned", static_cast<double>(counter(state, "repl.gsn_assigned")), "count");
  report.metric("repl.updates_committed", static_cast<double>(counter(state, "repl.updates_committed")), "count");
  report.metric("repl.reads_served", static_cast<double>(counter(state, "repl.reads_served")), "count");
  report.metric("repl.deferred_reads", static_cast<double>(counter(state, "repl.deferred_reads")), "count");
  report.metric("repl.lazy_published", static_cast<double>(counter(state, "repl.lazy_updates_published")), "count");
  report.metric("repl.state_transfers", static_cast<double>(counter(state, "repl.state_transfers_requested")), "count");
  report.metric("repl.evictions", static_cast<double>(counter(state, "repl.evictions")), "count");
  report.metric("repl.read_useful_share",
                ratio(static_cast<double>(plain0.reads_completed),
                      static_cast<double>(counter(state, "repl.reads_served"))),
                "ratio");
  report.metric("repl.order_wait_ms", state.order_wait_ms, "ms");
  report.metric("repl.queue_wait_ms", state.queue_wait_ms, "ms");
  report.metric("core.selections", static_cast<double>(state.selections), "count");
  report.metric("core.convolutions", static_cast<double>(state.convolutions), "count");
  report.metric("core.replicas_per_selection",
                ratio(static_cast<double>(state.replicas_selected), static_cast<double>(state.selections)),
                "count");
  report.metric("core.select_ns.pruned", state.select_pruned_ns, "ns");
  report.metric("core.select_ns.scan", state.select_scan_ns, "ns");
  report.metric("core.wall_share", core_share, "ratio");
  report.metric("client.timing_failure_rate",
                ratio(static_cast<double>(plain0.timing_failures + plain0.reads_abandoned),
                      static_cast<double>(plain0.reads_issued)),
                "ratio");
  report.metric("client.transmits_per_request", ratio(static_cast<double>(state.transmits), issued), "count/req");
  report.metric("client.retries", static_cast<double>(state.retries), "count");
  report.metric("client.abandoned", static_cast<double>(state.abandoned), "count");
  report.metric("client.deferred_replies", static_cast<double>(state.deferred_replies), "count");
  report.metric("shard.route_ns", state.route_ns, "ns");
  report.metric("shard.load_imbalance", state.load_imbalance, "ratio");
  report.metric("obs.snapshots", static_cast<double>(state.snapshots), "count");
  report.metric("obs.snapshot_bytes", static_cast<double>(state.snapshot_bytes), "B");
  report.metric("obs.capture_ns", state.capture_ns, "ns");
  report.metric("obs.telemetry_wall_share",
                gray ? (wall - median(quiet_wall)) / wall : 0.0, "ratio");
  report.metric("trace.overhead_share", (median(traced_wall) - wall) / wall, "ratio");
  report.metric("obs.wall_share", obs_share, "ratio");
  report.metric("fault.restarts", static_cast<double>(state.restarts), "count");
  report.metric("fault.reborn", static_cast<double>(state.reborn), "count");
  report.metric("other.wall_share",
                1.0 - sim_share - net_share - gcs_share - core_share - obs_share, "ratio");

  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + w.name + "-" + std::to_string(opt.seed);
    std::ofstream spans_out(stem + ".spans.json");
    spans.write(spans_out);
    write_ledger(stem + ".ledger.json", state, wall, report);
  }
  std::cout << "# " << w.name << " ledger: " << plain_wall.size()
            << " untraced/traced pairs, " << state.message_events
            << " message events, " << state.span_events << " span events\n";
  return report.print();
}

}  // namespace perfbench
