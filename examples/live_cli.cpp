// Live scenario runner: the same protocol stack every experiment runs
// under the discrete-event simulator, driven by the wall clock instead.
//
//   live_cli [--duration SEC] [--requests N] [--seed S]
//            [--runtime real|sim] [--json-out FILE] [--no-json]
//            [--telemetry-out FILE] [--telemetry-period MS]
//            [--prom-out FILE]
//   live_cli --role {sequencer,primary,secondary,client}
//            --listen HOST:PORT --peer NAME=HOST:PORT [--peer ...]
//            [--duration SEC] [--requests N] [--seed S]
//            [--json-out FILE] [--no-json]
//            [--chaos-loss P] [--chaos-duplicate P] [--chaos-reorder P]
//            [--chaos-delay-ms MS]
//
// Both modes run one cluster (live_config: ~20 ms service, 500 ms lazy
// publication, clients alternating between a strict low-deadline reader
// and a relaxed staleness-tolerant one), and every node is built by
// harness::assemble_node, the path the simulated experiments use.
//
// Single-process mode boots a sequencer, two primaries, two secondaries
// and two clients through harness::Scenario on a RealTimeExecutor
// (--runtime sim swaps in the simulator). A MetricsSnapshotter streams the
// registry every --telemetry-period ms to the console, a JSONL time series
// (--telemetry-out) and a Prometheus text file (--prom-out). At the end it
// prints the timing-failure probability, per-client SLA status and the
// per-request latency breakdown, and checks committed-prefix agreement
// (harness::check_agreement).
//
// Multi-process mode (--role) runs ONE node per OS process over UDP, so
// messages cross a real socket through the wire codec. Every process gets
// the same --peer address book (harness/address_book.hpp); --listen must
// match this process's entry, whose name (e.g. "primary2") fixes its role,
// NodeId and slot, and the book numbers the primaries and secondaries.
// The "sequencer" process bootstraps the groups; everyone else pre-seeds
// its join directory with it. The highest-numbered primary joins last and
// so becomes the lazy publisher. The --chaos-* flags wrap this process's
// socket in the chaos decorator (net/chaos.hpp), which drops, duplicates,
// reorders or delays outbound messages. tools/live_smoke.py launches a
// full cluster (plain or --chaos) and cross-checks the per-process reports.
//
// Exit status: 0 on a clean run; 1 if no request completed, an
// ordering/agreement check failed, the socket could not be opened or
// bound, or an output file could not be written; 2 on a malformed command
// line (including a HOST that is not IPv4 or "localhost" and a --peer name
// or address given twice). BENCH_live.json is machine- and load-dependent
// and is NOT part of the bench-trend gate (see EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "harness/address_book.hpp"
#include "harness/cli.hpp"
#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/sinks.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "runtime/sim_executor.hpp"

using namespace aqueduct;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: live_cli [--duration SEC] [--requests N] [--seed S]\n"
      "  [--runtime real|sim] [--json-out FILE] [--no-json]\n"
      "  [--telemetry-out FILE] [--telemetry-period MS]\n"
      "  [--prom-out FILE]\n"
      "or (one node per process, over UDP):\n"
      "  live_cli --role {sequencer,primary,secondary,client}\n"
      "    --listen HOST:PORT --peer NAME=HOST:PORT [--peer ...]\n"
      "    [--duration SEC] [--requests N] [--seed S]\n"
      "    [--json-out FILE] [--no-json]\n"
      "    [--chaos-loss P] [--chaos-duplicate P] [--chaos-reorder P]\n"
      "    [--chaos-delay-ms MS]\n"
      "  where NAME is sequencer, primaryN, secondaryN, or clientN (each\n"
      "  name and address at most once), HOST is an IPv4 address or\n"
      "  localhost, and --listen matches this process's --peer entry.\n");
  std::exit(2);
}

/// The cluster both modes run: ~20 ms service, 500 ms lazy publication,
/// 50 ms between requests. Clients alternate between demanding (fresh
/// data, tight deadline, high assurance) and tolerating staleness for
/// cheap reads — the paper's trade-off, live.
harness::ScenarioConfig live_config(std::uint64_t seed, std::size_t requests,
                                    std::size_t primaries,
                                    std::size_t secondaries,
                                    std::size_t clients) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_primaries = primaries;
  config.num_secondaries = secondaries;
  config.service_mean = std::chrono::milliseconds(20);
  config.service_std = std::chrono::milliseconds(5);
  config.lazy_update_interval = std::chrono::milliseconds(500);
  for (std::size_t c = 0; c < clients; ++c) {
    const bool strict = c % 2 == 0;
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = strict ? 1u : 4u,
                .deadline = std::chrono::milliseconds(strict ? 150 : 250),
                .min_probability = strict ? 0.9 : 0.5},
        .request_delay = std::chrono::milliseconds(50),
        .num_requests = requests,
    });
  }
  return config;
}

// ---------------------------------------------------------------------------
// Multi-process deployment
// ---------------------------------------------------------------------------

/// Join stagger: the sequencer must bootstrap before anyone joins, and the
/// primaries join in number order, so the last primary-view member (the
/// lazy publisher) is the highest-numbered primary. Offsets are from this
/// process's own startup; the 1 s gcs join retry absorbs skew between
/// process launches.
sim::Duration start_delay(const harness::NodeSpec& node) {
  const int n = static_cast<int>(node.index) + 1;
  if (node.role == harness::Role::kSequencer) return sim::Duration::zero();
  if (node.role == harness::Role::kPrimary) {
    return std::chrono::milliseconds(300 + 100 * n);
  }
  if (node.role == harness::Role::kSecondary) {
    return std::chrono::milliseconds(600 + 100 * n);
  }
  return std::chrono::milliseconds(2000);  // client workloads start last
}

/// Every flag of both modes.
struct Options {
  double duration_s = 2.0;  // 10 s in multi-process mode unless given
  std::size_t requests = 15;
  std::uint64_t seed = 42;
  runtime::Kind kind = runtime::Kind::kRealTime;
  std::string json_out = "BENCH_live.json";
  bool write_json = true;
  std::string telemetry_out;  // empty = console only
  double telemetry_period_ms = 100.0;
  std::string prom_out;  // empty = no Prometheus dump
  // Multi-process mode: this node and the shared address book.
  std::string role;
  std::optional<harness::Address> listen;
  harness::AddressBook book;
  // Gray-failure injection on this process's outbound path (0 = off).
  double chaos_loss = 0.0;
  double chaos_duplicate = 0.0;
  double chaos_reorder = 0.0;
  double chaos_delay_ms = 0.0;

  bool multiproc() const {
    return !role.empty() || listen || !book.peers().empty();
  }
  bool chaos_enabled() const {
    return chaos_loss > 0.0 || chaos_duplicate > 0.0 || chaos_reorder > 0.0 ||
           chaos_delay_ms > 0.0;
  }
};

int run_multiproc(const Options& opt) {
  // This process is the address-book entry at --listen; the entry's name
  // fixes the NodeId and must agree with --role.
  const harness::Peer* self = opt.book.find(*opt.listen);
  if (self == nullptr) {
    std::fprintf(stderr, "live_cli: --listen %s:%u matches no --peer entry\n",
                 opt.listen->host.c_str(), opt.listen->port);
    return 2;
  }
  if (self->node.role != harness::parse_role(opt.role)) {
    std::fprintf(stderr, "live_cli: --role %s but --listen names '%s'\n",
                 opt.role.c_str(), self->name.c_str());
    return 2;
  }
  const std::string& self_name = self->name;
  net::UdpConfig ucfg;
  ucfg.local_id = self->id;
  ucfg.listen_host = opt.listen->host;
  ucfg.listen_port = opt.listen->port;
  for (const harness::Peer& peer : opt.book.peers()) {
    ucfg.peers.push_back(
        net::UdpPeer{peer.id, peer.address.host, peer.address.port});
  }
  const harness::ScenarioConfig config = live_config(
      opt.seed, opt.requests, opt.book.count(harness::Role::kPrimary),
      opt.book.count(harness::Role::kSecondary),
      opt.book.count(harness::Role::kClient));

  // Receiving serialized frames requires the decoders of every layer in
  // the stack (replication's registration pulls in gcs's).
  replication::register_wire_codecs();

  auto exec = runtime::make_executor(runtime::Kind::kRealTime, opt.seed);
  std::unique_ptr<net::Transport> transport_owner;
  try {
    transport_owner = std::make_unique<net::UdpTransport>(*exec, ucfg);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "live_cli[%s]: %s\n", self_name.c_str(), e.what());
    return 1;
  }
  if (opt.chaos_enabled()) {
    // Wrap the socket in the chaos decorator: every send from this process
    // runs the gray-failure pipeline before it reaches the wire. Each
    // process degrades only its own outbound path, so a chaos-flagged
    // cluster models per-host gray failures, not a lossy switch.
    transport_owner = net::make_chaos_transport(std::move(transport_owner));
    net::FaultInjection& chaos = *transport_owner->fault_injection();
    if (opt.chaos_loss > 0.0) chaos.set_loss_probability(opt.chaos_loss);
    if (opt.chaos_duplicate > 0.0) {
      chaos.set_duplicate_probability(opt.chaos_duplicate);
    }
    if (opt.chaos_reorder > 0.0) {
      chaos.set_reorder_probability(opt.chaos_reorder);
    }
    if (opt.chaos_delay_ms > 0.0) {
      chaos.set_default_delay(std::make_shared<sim::FixedDuration>(
          sim::from_ms(opt.chaos_delay_ms)));
    }
  }
  net::Transport& transport = *transport_owner;

  // Per-process join directory: everyone but the sequencer is told where
  // the groups' coordinator lives; the sequencer finds its directory empty,
  // claims the groups, and bootstraps singleton views.
  const auto groups = harness::service_groups(config, 0);
  gcs::Directory directory;
  if (self->node.role != harness::Role::kSequencer) {
    const net::NodeId sequencer_id{1};
    directory.update(groups.primary, sequencer_id);
    directory.update(groups.replication, sequencer_id);
    directory.update(groups.qos, sequencer_id);
  }
  gcs::Endpoint endpoint(*exec, transport, directory, config.gcs);
  const shard::ShardMap shard_map(config.seed, config.num_shards);
  const harness::Node node =
      harness::assemble_node(config, shard_map, self->node, *exec, endpoint);

  const sim::TimePoint deadline =
      runtime::kEpoch + sim::from_sec(opt.duration_s);
  std::printf("live_cli[%s]: node n%u listening on %s:%u, %zu peers, %.1fs\n",
              self_name.c_str(), self->id.value(), opt.listen->host.c_str(),
              opt.listen->port, ucfg.peers.size(), opt.duration_s);
  if (opt.chaos_enabled()) {
    std::printf(
        "live_cli[%s]: chaos on outbound: loss=%.2f dup=%.2f reorder=%.2f "
        "delay=%.1fms\n",
        self_name.c_str(), opt.chaos_loss, opt.chaos_duplicate,
        opt.chaos_reorder, opt.chaos_delay_ms);
  }

  int exit_code = 0;
  exec->after(start_delay(self->node), [&] {
    node.client ? node.client->start() : node.server->start();
  });

  const auto write_report = [&](const std::function<void(obs::JsonWriter&)>& extra) {
    if (!opt.write_json) return;
    std::ofstream out(opt.json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      exit_code = 1;
      return;
    }
    const net::TransportStats tstats = transport.stats();
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "live_multiproc");
    w.field("role", opt.role);
    w.field("name", self_name);
    w.field("node", std::uint64_t{self->id.value()});
    w.field("seed", opt.seed);
    w.field("elapsed_s", sim::to_sec(exec->now() - runtime::kEpoch));
    w.field("messages_sent", tstats.messages_sent);
    w.field("messages_delivered", tstats.messages_delivered);
    w.field("decode_errors", tstats.decode_errors);
    w.field("bytes_sent", tstats.bytes_sent);
    w.field("chaos", opt.chaos_enabled());
    w.field("messages_dropped_loss", tstats.messages_dropped_loss);
    w.field("messages_duplicated", tstats.messages_duplicated);
    w.field("messages_reordered", tstats.messages_reordered);
    w.field("messages_delayed", tstats.messages_delayed);
    extra(w);
    w.end_object();
    out << "\n";
    std::printf("wrote %s\n", opt.json_out.c_str());
  };

  if (node.client) {
    harness::WorkloadClient& workload = *node.client;
    // Poll for completion so a finished workload exits without burning the
    // full duration cap; the cap still bounds a stuck run.
    std::function<void()> check = [&] {
      if (workload.done()) {
        exec->stop();
        return;
      }
      exec->after(std::chrono::milliseconds(100), check);
    };
    exec->after(std::chrono::milliseconds(100), check);
    exec->run_until(deadline);

    const harness::ClientResult result = workload.result();
    const auto& stats = result.stats;
    const std::uint64_t completed =
        stats.reads_completed + stats.updates_completed;
    const double failure_rate =
        stats.reads_completed > 0
            ? static_cast<double>(stats.timing_failures) /
                  static_cast<double>(stats.reads_completed)
            : 0.0;
    std::printf(
        "%s: %llu reads, %llu updates, %llu timing failures "
        "(rate %.3f), avg read %.1f ms\n",
        self_name.c_str(),
        static_cast<unsigned long long>(stats.reads_completed),
        static_cast<unsigned long long>(stats.updates_completed),
        static_cast<unsigned long long>(stats.timing_failures), failure_rate,
        sim::to_ms(stats.avg_response_time()));
    write_report([&](obs::JsonWriter& w) {
      w.field("requests_completed", completed);
      w.field("reads_completed", stats.reads_completed);
      w.field("timing_failure_rate", failure_rate);
    });
    if (completed == 0) {
      std::fprintf(stderr, "FAIL[%s]: no request completed\n",
                   self_name.c_str());
      exit_code = 1;
    }
  } else {
    const replication::ReplicaServer& server = *node.server;
    exec->run_until(deadline);

    const auto& store =
        dynamic_cast<const replication::KeyValueStore&>(server.object());
    const auto& rstats = server.stats();
    std::printf(
        "%s: csn=%llu gsn=%llu store_version=%llu conflicts=%llu "
        "lazy_published=%llu recovering=%d\n",
        self_name.c_str(), static_cast<unsigned long long>(server.csn()),
        static_cast<unsigned long long>(server.gsn()),
        static_cast<unsigned long long>(store.version()),
        static_cast<unsigned long long>(rstats.gsn_conflicts),
        static_cast<unsigned long long>(rstats.lazy_updates_published),
        server.recovering() ? 1 : 0);
    // Local committed-prefix checks; cross-process CSN agreement is
    // asserted by tools/live_smoke.py over the per-process reports.
    if (rstats.gsn_conflicts != 0) {
      std::fprintf(stderr, "FAIL[%s]: %llu gsn conflicts\n", self_name.c_str(),
                   static_cast<unsigned long long>(rstats.gsn_conflicts));
      exit_code = 1;
    }
    if (server.is_primary() && !server.recovering() &&
        store.version() != server.csn()) {
      std::fprintf(stderr,
                   "FAIL[%s]: applied %llu updates but committed %llu\n",
                   self_name.c_str(),
                   static_cast<unsigned long long>(store.version()),
                   static_cast<unsigned long long>(server.csn()));
      exit_code = 1;
    }
    write_report([&](obs::JsonWriter& w) {
      w.field("csn", server.csn());
      w.field("gsn", server.gsn());
      w.field("store_version", store.version());
      w.field("gsn_conflicts", rstats.gsn_conflicts);
      w.field("is_primary", server.is_primary());
      w.field("recovering", server.recovering());
    });
  }
  if (opt.chaos_enabled()) {
    const net::TransportStats ts = transport.stats();
    std::printf(
        "%s: chaos injected: dropped=%llu duplicated=%llu reordered=%llu "
        "delayed=%llu\n",
        self_name.c_str(),
        static_cast<unsigned long long>(ts.messages_dropped_loss),
        static_cast<unsigned long long>(ts.messages_duplicated),
        static_cast<unsigned long long>(ts.messages_reordered),
        static_cast<unsigned long long>(ts.messages_delayed));
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// Single-process mode (the original live scenario)
// ---------------------------------------------------------------------------

/// One console line per snapshot: elapsed time, request progress (total and
/// delta since the previous snapshot), SLA violations so far.
class ConsoleTelemetry final : public obs::SnapshotSink {
 public:
  void on_snapshot(const obs::MetricsSnapshot& snap) override {
    const auto counter = [](const auto& pairs, const char* name) {
      for (const auto& [n, v] : pairs) {
        if (n == name) return v;
      }
      return std::uint64_t{0};
    };
    const std::uint64_t reads = counter(snap.counters, "client.reads_completed");
    const std::uint64_t updates =
        counter(snap.counters, "client.updates_completed");
    const std::uint64_t delta =
        counter(snap.counter_deltas, "client.reads_completed") +
        counter(snap.counter_deltas, "client.updates_completed");
    const std::uint64_t violations = counter(snap.counters, "sla.violations");
    std::printf(
        "[telemetry] t=%8.3fs seq=%3llu reads=%llu updates=%llu (+%llu) "
        "sla_violations=%llu\n",
        sim::to_sec(snap.at), static_cast<unsigned long long>(snap.seq),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(updates),
        static_cast<unsigned long long>(delta),
        static_cast<unsigned long long>(violations));
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool duration_set = false;
  // Strict numbers (harness/cli.hpp): a malformed value is a usage error.
  auto parse_probability = [&](const std::string& flag, const char* s) {
    const double p = harness::require_double(flag, s, usage);
    if (p < 0.0 || p > 1.0) usage();
    return p;
  };
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--duration") {
      opt.duration_s = harness::require_double(arg, next_value(i), usage);
      if (opt.duration_s <= 0.0) usage();
      duration_set = true;
    } else if (arg == "--requests") {
      opt.requests = harness::require_u64(arg, next_value(i), usage);
    } else if (arg == "--seed") {
      opt.seed = harness::require_u64(arg, next_value(i), usage);
    } else if (arg == "--runtime") {
      const std::string name = next_value(i);
      if (name == "real") {
        opt.kind = runtime::Kind::kRealTime;
      } else if (name == "sim") {
        opt.kind = runtime::Kind::kSim;
      } else {
        usage();
      }
    } else if (arg == "--json-out") {
      opt.json_out = next_value(i);
    } else if (arg == "--no-json") {
      opt.write_json = false;
    } else if (arg == "--telemetry-out") {
      opt.telemetry_out = next_value(i);
    } else if (arg == "--telemetry-period") {
      opt.telemetry_period_ms =
          harness::require_double(arg, next_value(i), usage);
      if (opt.telemetry_period_ms <= 0.0) usage();
    } else if (arg == "--prom-out") {
      opt.prom_out = next_value(i);
    } else if (arg == "--role") {
      opt.role = next_value(i);
      if (!harness::parse_role(opt.role)) usage();
    } else if (arg == "--listen") {
      opt.listen = harness::parse_address(next_value(i));
      if (!opt.listen) usage();
    } else if (arg == "--peer") {
      const std::string refused = opt.book.add(next_value(i));
      if (!refused.empty()) {
        std::fprintf(stderr, "live_cli: %s\n", refused.c_str());
        usage();
      }
    } else if (arg == "--chaos-loss") {
      opt.chaos_loss = parse_probability(arg, next_value(i));
    } else if (arg == "--chaos-duplicate") {
      opt.chaos_duplicate = parse_probability(arg, next_value(i));
    } else if (arg == "--chaos-reorder") {
      opt.chaos_reorder = parse_probability(arg, next_value(i));
    } else if (arg == "--chaos-delay-ms") {
      opt.chaos_delay_ms = harness::require_double(arg, next_value(i), usage);
      if (opt.chaos_delay_ms < 0.0) usage();
    } else {
      usage();
    }
  }

  if (opt.multiproc()) {
    if (opt.role.empty() || !opt.listen || opt.book.peers().empty()) usage();
    if (!opt.telemetry_out.empty() || !opt.prom_out.empty()) usage();
    if (!duration_set) opt.duration_s = 10.0;
    return run_multiproc(opt);
  }
  // The single-process scenario injects faults through fault::FaultSchedule
  // (see sweep_cli's chaos plans); the --chaos-* flags are for the
  // per-process UDP deployment only.
  if (opt.chaos_enabled()) usage();

  // Sequencer + 2 primaries + 2 secondaries and two clients.
  harness::ScenarioConfig config = live_config(opt.seed, opt.requests, 2, 2, 2);
  config.runtime = opt.kind;
  config.max_sim_time = sim::from_sec(opt.duration_s);
  config.drain = std::chrono::milliseconds(250);

  harness::Scenario scenario(std::move(config));
  obs::LatencyBreakdownCollector breakdown;
  scenario.observability().trace.add(&breakdown);

  // Telemetry pipeline: console every period, plus optional JSONL time
  // series and Prometheus text dump. The snapshotter runs on the scenario's
  // executor, so the cadence is wall time under `real` and simulated time
  // under `sim`.
  obs::MetricsSnapshotter& telemetry =
      scenario.enable_telemetry(sim::from_ms(opt.telemetry_period_ms));
  ConsoleTelemetry console;
  telemetry.add_sink(&console);
  std::ofstream telemetry_file;
  std::unique_ptr<obs::JsonlSnapshotSink> jsonl_sink;
  if (!opt.telemetry_out.empty()) {
    telemetry_file.open(opt.telemetry_out, std::ios::trunc);
    if (!telemetry_file) {
      std::fprintf(stderr, "cannot write %s\n", opt.telemetry_out.c_str());
      return 1;
    }
    jsonl_sink = std::make_unique<obs::JsonlSnapshotSink>(telemetry_file);
    telemetry.add_sink(jsonl_sink.get());
  }
  std::unique_ptr<obs::PrometheusTextSink> prom_sink;
  if (!opt.prom_out.empty()) {
    prom_sink = std::make_unique<obs::PrometheusTextSink>(opt.prom_out);
    telemetry.add_sink(prom_sink.get());
  }

  std::printf("live_cli: %s runtime, %zu requests x 2 clients, %.1fs cap\n",
              runtime::to_string(opt.kind), opt.requests, opt.duration_s);
  auto results = scenario.run();
  scenario.observability().trace.remove(&breakdown);

  std::uint64_t completed = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t timing_failures = 0;
  std::vector<double> read_times_s;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& stats = results[c].stats;
    completed += stats.reads_completed + stats.updates_completed;
    reads_completed += stats.reads_completed;
    timing_failures += stats.timing_failures;
    read_times_s.insert(read_times_s.end(),
                        results[c].read_response_times.begin(),
                        results[c].read_response_times.end());
    std::printf(
        "client %zu: %llu reads, %llu updates, %llu timing failures, "
        "avg read %.1f ms\n",
        c, static_cast<unsigned long long>(stats.reads_completed),
        static_cast<unsigned long long>(stats.updates_completed),
        static_cast<unsigned long long>(stats.timing_failures),
        sim::to_ms(stats.avg_response_time()));
  }
  const double failure_rate =
      reads_completed > 0
          ? static_cast<double>(timing_failures) /
                static_cast<double>(reads_completed)
          : 0.0;
  const double p50_ms = harness::percentile(read_times_s, 0.50) * 1000.0;
  const double p95_ms = harness::percentile(read_times_s, 0.95) * 1000.0;

  std::printf("\n%llu requests completed in %s (%llu events)\n",
              static_cast<unsigned long long>(completed),
              sim::format(scenario.executor().now()).c_str(),
              static_cast<unsigned long long>(
                  scenario.executor().events_executed()));
  std::printf("observed timing-failure probability: %.3f (%llu/%llu)\n",
              failure_rate, static_cast<unsigned long long>(timing_failures),
              static_cast<unsigned long long>(reads_completed));
  std::printf("read latency: p50 %.1f ms, p95 %.1f ms\n", p50_ms, p95_ms);

  // Per-client SLA status from the live monitor (one line per monitored
  // (client, spec) pair; the workload guarantees at least one read each).
  const auto sla_statuses =
      scenario.observability().sla.statuses(scenario.executor().now());
  std::printf("\nSLA status (%llu snapshots captured):\n",
              static_cast<unsigned long long>(telemetry.snapshots()));
  if (sla_statuses.empty()) {
    std::printf("sla: no reads recorded\n");
  }
  for (const auto& s : sla_statuses) {
    std::printf(
        "sla client n%u spec%u: Pc(d)=%.2f budget=%.3f observed=%.3f "
        "[wilson %.3f..%.3f] window=%llu/%llu %s, avg staleness %.2f, "
        "avg attempts %.2f\n",
        s.client.value(), s.spec_index, s.spec.min_probability, s.budget,
        s.failure_rate, s.wilson_lower, s.wilson_upper,
        static_cast<unsigned long long>(s.window_failures),
        static_cast<unsigned long long>(s.window_reads),
        s.violating ? "VIOLATING" : "ok", s.avg_staleness, s.avg_attempts);
  }

  std::printf("\nper-request latency breakdown (%zu requests):\n",
              breakdown.events().size());
  breakdown.write_json(std::cout);
  std::printf("\n");

  const harness::Agreement agreement = harness::check_agreement(scenario);
  const std::uint64_t violations = agreement.total();
  std::printf(
      "committed-prefix agreement: %s (%llu gsn conflicts, %llu csn "
      "mismatches, %llu divergences)\n",
      violations == 0 ? "OK" : "VIOLATED",
      static_cast<unsigned long long>(agreement.gsn_conflicts),
      static_cast<unsigned long long>(agreement.csn_mismatches),
      static_cast<unsigned long long>(agreement.divergences));

  if (opt.write_json) {
    std::ofstream out(opt.json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      return 1;
    }
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "live");
    w.field("runtime", runtime::to_string(opt.kind));
    w.field("seed", opt.seed);
    w.field("duration_cap_s", opt.duration_s);
    w.field("elapsed_s", sim::to_sec(scenario.executor().now() - sim::kEpoch));
    w.field("requests_completed", completed);
    w.field("reads_completed", reads_completed);
    w.field("timing_failure_rate", failure_rate);
    w.field("p50_ms", p50_ms);
    w.field("p95_ms", p95_ms);
    w.field("agreement_violations", violations);
    w.field("telemetry_snapshots", telemetry.snapshots());
    w.field("sla_violations",
            scenario.observability().sla.total_violations());
    w.end_object();
    out << "\n";
    std::printf("wrote %s\n", opt.json_out.c_str());
  }

  if (completed == 0) {
    std::fprintf(stderr, "FAIL: no request completed\n");
    return 1;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %llu agreement violations\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}
