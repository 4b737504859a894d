#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>

#include "replication/objects.hpp"

namespace perfbench {

namespace {

namespace harness = aqueduct::harness;
using aqueduct::replication::KeyValueStore;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

const KeyValueStore& store_of(const aqueduct::replication::ReplicaServer& r) {
  return dynamic_cast<const KeyValueStore&>(r.object());
}

/// The correctness gate. Safety: no GSN assigned twice, no reply staler
/// than the client's threshold `a`, live primaries of each shard agree on
/// CSN and store, every live replica's store matches its CSN (replicas
/// still rejoining are skipped). Liveness: every
/// issued request completed or was abandoned.
void check(harness::Scenario& s, const std::vector<harness::ClientResult>& results,
           std::size_t requests_per_client, RepResult& r) {
  auto fail = [&](std::string what) { r.violations.push_back(std::move(what)); };
  const std::uint64_t conflicts =
      s.observability().metrics.counter("repl.gsn_conflicts").value();
  if (conflicts != 0) fail(std::to_string(conflicts) + " GSN conflicts");
  r.safety_violations += conflicts;

  const std::uint64_t expected_updates = (requests_per_client + 1) / 2;
  const std::uint64_t expected_reads = requests_per_client / 2;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& st = results[c].stats;
    const std::string who = "client " + std::to_string(c) + ": ";
    r.safety_violations += st.staleness_violations;
    if (st.staleness_violations != 0) {
      fail(who + std::to_string(st.staleness_violations) +
           " replies staler than a");
    }
    if (st.reads_issued != expected_reads ||
        st.reads_completed + st.reads_abandoned != st.reads_issued) {
      fail(who + "reads issued " + std::to_string(st.reads_issued) +
           ", completed " + std::to_string(st.reads_completed) +
           ", abandoned " + std::to_string(st.reads_abandoned) + " of " +
           std::to_string(expected_reads));
    }
    if (st.updates_issued != expected_updates ||
        st.updates_completed != st.updates_issued) {
      fail(who + "updates issued " + std::to_string(st.updates_issued) +
           ", completed " + std::to_string(st.updates_completed) + " of " +
           std::to_string(expected_updates));
    }
  }

  const std::size_t per_shard = s.servers_per_shard();
  for (std::size_t shard = 0; shard < s.num_shards(); ++shard) {
    const aqueduct::replication::ReplicaServer* reference = nullptr;
    for (std::size_t slot = 0; slot < per_shard; ++slot) {
      const std::size_t index = s.slot_index(shard, slot);
      const auto& rep = s.replica(index);
      // A reincarnated replica is checked once its state transfer is done.
      const bool rejoining =
          s.incarnation(index) > 0 && rep.recovered_at() <= aqueduct::sim::kEpoch;
      if (rep.crashed() || rep.recovering() || rejoining) continue;
      const std::string where = "shard " + std::to_string(shard) + " slot " +
                                std::to_string(slot) + ": ";
      if (store_of(rep).version() != rep.csn()) {
        ++r.safety_violations;
        fail(where + "store version differs from CSN");
      }
      if (!rep.is_primary()) continue;
      if (reference == nullptr) {
        reference = &rep;
      } else if (rep.csn() != reference->csn() ||
                 store_of(rep).entries() != store_of(*reference).entries()) {
        ++r.safety_violations;
        fail(where + "CSN " + std::to_string(rep.csn()) + " / store differs from CSN " +
             std::to_string(reference->csn()));
      }
    }
  }
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double reference_ms() {
  // State persists across calls so every call does the same steady-state
  // work: a 2000-entry event heap and a 4096-key map of small buffers.
  static std::vector<std::pair<std::uint64_t, std::function<void()>>> heap;
  static std::map<std::uint64_t, std::shared_ptr<std::vector<char>>> buffers;
  static std::uint64_t x = 88172645463325252ULL;
  static volatile std::uint64_t sink = 0;
  auto later = [](const auto& a, const auto& b) { return a.first > b.first; };
  std::vector<double> ms;
  for (int call = 0; call < 5; ++call) {
    const double t0 = wall_s();
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.emplace_back(x & 0xffffff, [v = x] { sink = sink + v; });
      std::push_heap(heap.begin(), heap.end(), later);
      if (heap.size() > 2000) {
        std::pop_heap(heap.begin(), heap.end(), later);
        heap.back().second();
        heap.pop_back();
      }
      buffers[x & 4095] = std::make_shared<std::vector<char>>(64 + (x & 63));
    }
    ms.push_back((wall_s() - t0) * 1e3);
  }
  return median(ms);
}

double time_setup(const Workload& w, std::uint64_t seed, bool smoke) {
  auto config = make_config(w, seed, smoke);
  const double start = wall_s();
  harness::Scenario scenario(std::move(config));
  Installed installed;
  install(w, scenario, seed, true, installed);
  return wall_s() - start;
}

RepResult run_rep(const Workload& w, std::uint64_t seed, bool smoke,
                  bool telemetry, const RepHooks* hooks) {
  RepResult r;
  r.seed = seed;
  auto config = make_config(w, seed, smoke);
  const std::size_t requests_per_client = config.clients.front().num_requests;
  r.expected = requests_per_client * config.clients.size();

  const double setup_start = wall_s();
  harness::Scenario scenario(std::move(config));
  Installed installed;
  install(w, scenario, seed, telemetry, installed);
  r.setup_s = wall_s() - setup_start;
  auto& exec = scenario.executor();

  // On the wall clock, end the run as soon as every client is done instead
  // of at the next whole second of Scenario::run()'s polling loop.
  std::function<void()> poll;
  if (w.realtime) {
    poll = [&] {
      for (std::size_t i = 0; i < scenario.num_workloads(); ++i) {
        if (!scenario.workload(i).done()) {
          exec.after(std::chrono::milliseconds(1), poll);
          return;
        }
      }
      exec.stop();
    };
    exec.post(poll);
  }
  if (hooks && hooks->before_run) hooks->before_run(scenario);

  const double ref_before = reference_ms();
  const double cpu0 = process_cpu_s();
  const double run_start = wall_s();
  const auto results = scenario.run();
  r.run_wall_s = wall_s() - run_start;
  r.cpu_s = process_cpu_s() - cpu0;
  r.ref_ms = (ref_before + reference_ms()) / 2;
  r.events = exec.events_executed();
  r.telemetry_bytes = installed.telemetry_bytes();

  Fnv digest;
  for (const auto& res : results) {
    const auto& st = res.stats;
    r.reads_issued += st.reads_issued;
    r.reads_completed += st.reads_completed;
    r.reads_abandoned += st.reads_abandoned;
    r.timing_failures += st.timing_failures;
    r.updates_issued += st.updates_issued;
    r.updates_completed += st.updates_completed;
    r.update_ms_sum += aqueduct::sim::to_ms(st.total_update_response_time);
    for (const double s : res.read_response_times) r.read_ms.push_back(s * 1e3);
    digest.add(st.reads_completed);
    digest.add(st.timing_failures);
    digest.add(st.reads_abandoned);
    digest.add(st.updates_completed);
    digest.add(static_cast<std::uint64_t>(st.total_update_response_time.count()));
    for (const double s : res.read_response_times) digest.add(s);
  }
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    digest.add(scenario.replica(i).csn());
  }
  digest.add(scenario.transport_stats().messages_sent);
  r.digest = digest.value();

  check(scenario, results, requests_per_client, r);
  if (hooks && hooks->after_run) hooks->after_run(scenario, r);
  return r;
}

}  // namespace perfbench
