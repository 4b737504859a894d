// FIFO ordering policy (paper Figure 2: the framework hosts multiple
// ordering guarantees as pluggable handlers). The same ReplicaServer and
// ClientHandler run the service with ServiceGroups::ordering == kFifo.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/handler.hpp"
#include "gcs/endpoint.hpp"
#include "net/transport.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "sim/simulator.hpp"

namespace aqueduct::replication {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture {
  explicit Fixture(std::size_t primaries, std::size_t secondaries,
                   std::uint64_t seed = 1,
                   sim::Duration lazy_interval = seconds(1), bool chaos = false)
      : sim(seed), lazy_interval(lazy_interval) {
    network = net::make_loopback_transport(
        sim, std::make_unique<sim::NormalDuration>(
                 milliseconds(1), std::chrono::microseconds(300)));
    if (chaos) network = net::make_chaos_transport(std::move(network));
    for (std::size_t i = 0; i < primaries + secondaries; ++i) {
      endpoints.push_back(
          std::make_unique<gcs::Endpoint>(sim, *network, directory));
      replicas.push_back(make_replica(i, i < primaries));
    }
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      sim.after(milliseconds(10 * (i + 1)), [this, i] { replicas[i]->start(); });
    }
  }

  std::unique_ptr<ReplicaServer> make_replica(std::size_t slot, bool primary) {
    ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    config.lazy_update_interval = lazy_interval;
    return std::make_unique<ReplicaServer>(sim, *endpoints[slot], groups,
                                           primary,
                                           std::make_unique<SharedDocument>(),
                                           std::move(config));
  }

  /// Crash-restart: the slot comes back as a fresh incarnation that must
  /// rejoin and synchronize by state transfer.
  void restart(std::size_t slot) {
    const bool primary = replicas[slot]->is_primary();
    replicas[slot]->crash();
    replicas[slot].reset();
    endpoints[slot]->reincarnate();
    replicas[slot] = make_replica(slot, primary);
    replicas[slot]->start();
  }

  client::ClientHandler& add_client(bool read_your_writes = false) {
    client::ClientConfig config;
    config.read_your_writes = read_your_writes;
    return add_client(std::move(config));
  }

  client::ClientHandler& add_client(client::ClientConfig config) {
    auto endpoint = std::make_unique<gcs::Endpoint>(sim, *network, directory);
    clients.push_back(std::make_unique<client::ClientHandler>(
        sim, *endpoint, groups, std::move(config)));
    endpoints.push_back(std::move(endpoint));
    clients.back()->start();
    return *clients.back();
  }

  /// A bare QoS-group member that speaks the wire protocol by hand: a
  /// stand-in client or primary whose every message the test chooses.
  gcs::Member& add_raw_member(gcs::Member::DeliverFn on_deliver) {
    endpoints.push_back(
        std::make_unique<gcs::Endpoint>(sim, *network, directory));
    gcs::Member& member = endpoints.back()->member(groups.qos);
    member.set_on_deliver(std::move(on_deliver));
    member.join();
    return member;
  }

  net::FaultInjection& faults() { return *network->fault_injection(); }
  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  sim::Simulator sim;
  sim::Duration lazy_interval;
  std::unique_ptr<net::Transport> network;
  gcs::Directory directory;
  ServiceGroups groups = ServiceGroups::for_service(2, core::Ordering::kFifo);
  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  std::vector<std::unique_ptr<ReplicaServer>> replicas;
  std::vector<std::unique_ptr<client::ClientHandler>> clients;
};

core::QoSSpec loose() {
  return {.staleness_threshold = 0,
          .deadline = seconds(2),
          .min_probability = 0.5};
}

std::shared_ptr<DocAppend> append(const std::string& line) {
  auto op = std::make_shared<DocAppend>();
  op->line = line;
  return op;
}

std::vector<std::string> lines_of(const ReplicatedObject& object) {
  const auto& doc = dynamic_cast<const SharedDocument&>(object);
  return net::message_cast<DocContents>(
             doc.apply_read(std::make_shared<DocRead>()))
      ->lines;
}

/// The lines of `lines` starting with `prefix`, in document order — one
/// client's projection of a FIFO-ordered document.
std::vector<std::string> projection(const std::vector<std::string>& lines,
                                    const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& line : lines) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

bool is_prefix(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  const auto& shorter = a.size() <= b.size() ? a : b;
  const auto& longer = a.size() <= b.size() ? b : a;
  return std::equal(shorter.begin(), shorter.end(), longer.begin());
}

TEST(Fifo, UpdatesAppliedOnAllPrimaries) {
  Fixture f(3, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    client.update(append("p" + std::to_string(i)),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.settle(seconds(3));
  EXPECT_EQ(done, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(f.replicas[i]->is_sequencer()) << "primary " << i;
    EXPECT_EQ(f.replicas[i]->stats().updates_committed, 5u) << "primary " << i;
    EXPECT_EQ(f.replicas[i]->stats().gsn_assigned, 0u) << "primary " << i;
    const auto& doc = dynamic_cast<const SharedDocument&>(f.replicas[i]->object());
    EXPECT_EQ(doc.version(), 5u);
  }
}

TEST(Fifo, PerClientOrderPreserved) {
  Fixture f(2, 0);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 10; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(3));
  // FIFO consistency: each primary applied this client's appends in issue
  // order.
  for (std::size_t r = 0; r < 2; ++r) {
    const auto lines = lines_of(f.replicas[r]->object());
    ASSERT_EQ(lines.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(lines[static_cast<std::size_t>(i)], std::to_string(i));
    }
  }
}

TEST(Fifo, ReadYourWritesOnPrimary) {
  Fixture f(2, 0);
  f.settle();
  auto& client = f.add_client(/*read_your_writes=*/true);
  f.settle(seconds(1));
  client.update(append("mine"), {});
  std::size_t lines = 0;
  client.read(std::make_shared<DocRead>(), loose(),
              [&](const client::ReadOutcome& o) {
                const auto contents = net::message_cast<DocContents>(o.result);
                lines = contents->lines.size();
              });
  f.settle(seconds(2));
  EXPECT_EQ(lines, 1u);
}

TEST(Fifo, ReadYourWritesDefersOnStaleSecondary) {
  Fixture f(1, 2, 1, /*lazy=*/seconds(1));
  f.settle();
  auto& client = f.add_client(/*read_your_writes=*/true);
  f.settle(seconds(1));
  client.update(append("w"), {});
  f.sim.run_for(milliseconds(100));
  // Secondaries have not seen the lazy update yet; a read-your-writes read
  // served by one must defer (and still return the write).
  bool got = false;
  bool any_deferred = false;
  std::size_t lines = 0;
  for (int i = 0; i < 6; ++i) {
    client.read(std::make_shared<DocRead>(), loose(),
                [&](const client::ReadOutcome& o) {
                  got = true;
                  any_deferred |= o.deferred;
                  lines = net::message_cast<DocContents>(o.result)->lines.size();
                });
  }
  f.settle(seconds(5));
  EXPECT_TRUE(got);
  EXPECT_EQ(lines, 1u);
  std::uint64_t deferred = f.replicas[1]->stats().deferred_reads +
                           f.replicas[2]->stats().deferred_reads;
  // At least one read landed on a stale secondary and deferred (seed-
  // dependent but the selection sends to several replicas while histories
  // are empty).
  EXPECT_GT(deferred + (any_deferred ? 1 : 0), 0u);
}

TEST(Fifo, RelaxedReadServedImmediately) {
  Fixture f(1, 2, 1, /*lazy=*/std::chrono::hours(1));
  f.settle();
  auto& client = f.add_client(/*read_your_writes=*/false);
  f.settle(seconds(1));
  client.update(append("w"), {});
  f.sim.run_for(milliseconds(200));
  // Without read-your-writes, even a fully stale secondary answers at
  // once (possibly with the old document).
  int replies = 0;
  client.read(std::make_shared<DocRead>(), loose(),
              [&](const client::ReadOutcome& o) {
                ++replies;
                EXPECT_FALSE(o.deferred);
              });
  f.settle(seconds(2));
  EXPECT_EQ(replies, 1);
}

TEST(Fifo, SecondariesConvergeViaLazyUpdates) {
  Fixture f(2, 2, 1, /*lazy=*/milliseconds(500));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 6; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(3));
  for (std::size_t r = 2; r < 4; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.replicas[r]->object());
    EXPECT_EQ(doc.version(), 6u) << "secondary " << r;
    EXPECT_GT(f.replicas[r]->stats().lazy_updates_installed, 0u);
    EXPECT_EQ(f.replicas[r]->horizon_of(client.id()), 6u);  // seq of 6th update
  }
}

TEST(Fifo, SecondaryInstallsOnlyLazyUpdatesCoveringItsHorizons) {
  // A hand-driven lazy publisher feeds one secondary. An update that is
  // newer by CSN but behind on one client's horizon would drop that
  // client's applied update, so the secondary must skip it and install the
  // next update that covers every horizon it holds.
  Fixture f(0, 1, 3);
  f.settle();
  f.endpoints.push_back(
      std::make_unique<gcs::Endpoint>(f.sim, *f.network, f.directory));
  gcs::Member& publisher = f.endpoints.back()->member(f.groups.replication);
  publisher.join();
  f.settle(seconds(1));
  ReplicaServer& secondary = *f.replicas[0];
  ASSERT_FALSE(secondary.is_primary());

  const net::NodeId alice{9001}, bob{9002};
  const auto publish = [&](core::Csn csn,
                           const std::vector<std::string>& lines,
                           Horizons horizons) {
    SharedDocument doc;
    for (const auto& line : lines) doc.apply_update(append(line));
    auto lazy = std::make_shared<LazyUpdate>();
    lazy->csn = csn;
    lazy->snapshot = doc.snapshot();
    lazy->horizons = std::move(horizons);
    publisher.multicast(lazy);
    f.settle(milliseconds(100));
  };

  publish(2, {"a1", "b1"}, {{alice, 1}, {bob, 1}});
  ASSERT_EQ(secondary.stats().lazy_updates_installed, 1u);
  ASSERT_EQ(secondary.horizon_of(bob), 1u);

  // Ahead for alice and by CSN, behind for bob: not installed.
  publish(3, {"a1", "a2", "b0"}, {{alice, 2}, {bob, 0}});
  EXPECT_EQ(secondary.stats().lazy_updates_installed, 1u);
  EXPECT_EQ(secondary.horizons(), (Horizons{{alice, 1}, {bob, 1}}));
  EXPECT_EQ(lines_of(secondary.object()),
            (std::vector<std::string>{"a1", "b1"}));

  // Covers both horizons: installed.
  publish(4, {"a1", "b1", "a2"}, {{alice, 2}, {bob, 1}});
  EXPECT_EQ(secondary.stats().lazy_updates_installed, 2u);
  EXPECT_EQ(secondary.horizons(), (Horizons{{alice, 2}, {bob, 1}}));
  EXPECT_EQ(lines_of(secondary.object()),
            (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(Fifo, TwoClientsInterleaveButKeepOwnOrder) {
  Fixture f(2, 0, 3);
  f.settle();
  auto& a = f.add_client();
  auto& b = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 8; ++i) {
    a.update(append("a" + std::to_string(i)), {});
    b.update(append("b" + std::to_string(i)), {});
  }
  f.settle(seconds(5));
  for (std::size_t r = 0; r < 2; ++r) {
    const auto lines = lines_of(f.replicas[r]->object());
    ASSERT_EQ(lines.size(), 16u);
    // Per-client subsequences are in order.
    int next_a = 0, next_b = 0;
    for (const auto& line : lines) {
      if (line[0] == 'a') {
        EXPECT_EQ(line, "a" + std::to_string(next_a++));
      } else {
        EXPECT_EQ(line, "b" + std::to_string(next_b++));
      }
    }
    EXPECT_EQ(next_a, 8);
    EXPECT_EQ(next_b, 8);
  }
}

TEST(Fifo, TimingFailureDetected) {
  Fixture f(2, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  core::QoSSpec tight{.staleness_threshold = 0,
                      .deadline = milliseconds(1),
                      .min_probability = 0.5};
  bool failed = false;
  client.read(std::make_shared<DocRead>(), tight,
              [&](const client::ReadOutcome& o) { failed = o.timing_failure; });
  f.settle(seconds(2));
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.stats().timing_failures, 1u);
}

TEST(Fifo, DuplicateRequestsDeduplicated) {
  Fixture f(2, 0, 7);
  f.settle();
  f.faults().set_loss_probability(0.2);
  auto& client = f.add_client();
  f.settle(seconds(2));
  // The GCS retransmits under loss; replicas must not double-apply.
  for (int i = 0; i < 10; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(20));
  f.faults().set_loss_probability(0.0);
  f.settle(seconds(5));
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.replicas[r]->object());
    EXPECT_EQ(doc.version(), 10u) << "primary " << r;
  }
}

TEST(Fifo, ChaosAndPrimaryRestartKeepPerClientOrderAndSessions) {
  // Duplication, reordering and 1% loss under the GCS, plus a primary
  // crash-restart mid-run: every primary still applies each client's
  // updates exactly once in issue order, primaries agree on every
  // per-client prefix, read-your-writes never misses the client's latest
  // update, and the reborn primary catches up by state transfer.
  constexpr std::size_t kPrimaries = 3;
  constexpr int kUpdates = 60;
  Fixture f(kPrimaries, 1, 11, /*lazy=*/milliseconds(500), /*chaos=*/true);
  f.settle();
  f.faults().set_duplicate_probability(0.05);
  f.faults().set_reorder_probability(0.05);
  f.faults().set_reorder_window(milliseconds(20));
  f.faults().set_loss_probability(0.01);

  std::vector<client::ClientHandler*> clients;
  for (int c = 0; c < 2; ++c) clients.push_back(&f.add_client(true));
  f.settle(seconds(1));

  std::vector<int> completed(clients.size(), 0);
  int ryw_reads = 0;
  int ryw_misses = 0;
  std::vector<std::function<void()>> step(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const std::string prefix = "c" + std::to_string(c) + "-";
    step[c] = [&, c, prefix] {
      const int n = completed[c];
      if (n == kUpdates) return;
      clients[c]->update(append(prefix + std::to_string(n)),
                         [&, c, prefix, n](const client::UpdateOutcome& u) {
        ASSERT_TRUE(u.result) << "update abandoned";
        completed[c] = n + 1;
        clients[c]->read(std::make_shared<DocRead>(), loose(),
                         [&, c, prefix, n](const client::ReadOutcome& o) {
          ASSERT_TRUE(o.result) << "read abandoned";
          ++ryw_reads;
          const auto mine = projection(
              net::message_cast<DocContents>(o.result)->lines, prefix);
          if (mine.empty() || mine.back() != prefix + std::to_string(n)) {
            ++ryw_misses;
          }
          f.sim.after(milliseconds(100), step[c]);
        });
      });
    };
    step[c]();
  }

  // Pairwise per-client prefix agreement among the primaries, sampled.
  int prefix_checks = 0;
  int prefix_violations = 0;
  std::function<void()> check_prefixes = [&] {
    for (std::size_t a = 0; a < kPrimaries; ++a) {
      for (std::size_t b = a + 1; b < kPrimaries; ++b) {
        if (f.replicas[a]->crashed() || f.replicas[b]->crashed()) continue;
        const auto la = lines_of(f.replicas[a]->object());
        const auto lb = lines_of(f.replicas[b]->object());
        for (std::size_t c = 0; c < clients.size(); ++c) {
          const std::string prefix = "c" + std::to_string(c) + "-";
          ++prefix_checks;
          if (!is_prefix(projection(la, prefix), projection(lb, prefix))) {
            ++prefix_violations;
          }
        }
      }
    }
    f.sim.after(milliseconds(250), check_prefixes);
  };
  check_prefixes();

  constexpr std::size_t kVictim = 1;  // a primary that is not the leader
  f.sim.run_for(seconds(2));
  ASSERT_GT(completed[0] + completed[1], 0);
  ASSERT_LT(completed[0] + completed[1], 2 * kUpdates) << "run too short";
  f.replicas[kVictim]->crash();
  f.sim.run_for(seconds(2));
  f.restart(kVictim);
  f.sim.run_for(seconds(60));

  f.faults().set_duplicate_probability(0.0);
  f.faults().set_reorder_probability(0.0);
  f.faults().set_loss_probability(0.0);
  f.settle(seconds(5));

  const net::TransportStats injected = f.network->stats();
  EXPECT_GT(injected.messages_duplicated, 0u);
  EXPECT_GT(injected.messages_reordered, 0u);
  EXPECT_GT(injected.messages_dropped_loss, 0u);
  EXPECT_EQ(completed, std::vector<int>(clients.size(), kUpdates));
  EXPECT_EQ(ryw_reads, kUpdates * static_cast<int>(clients.size()));
  EXPECT_EQ(ryw_misses, 0);
  EXPECT_GT(prefix_checks, 0);
  EXPECT_EQ(prefix_violations, 0);
  EXPECT_GE(f.replicas[kVictim]->stats().state_snapshots_installed, 1u);
  EXPECT_GT(f.replicas[kVictim]->stats().updates_committed, 0u)
      << "the reborn primary never applied an update after rejoining";
  EXPECT_FALSE(f.replicas[kVictim]->recovering());

  const auto reference = lines_of(f.replicas[0]->object());
  auto sorted_reference = reference;
  std::sort(sorted_reference.begin(), sorted_reference.end());
  for (std::size_t r = 0; r < kPrimaries; ++r) {
    SCOPED_TRACE("primary " + std::to_string(r));
    ASSERT_FALSE(f.replicas[r]->crashed());
    const auto lines = lines_of(f.replicas[r]->object());
    for (std::size_t c = 0; c < clients.size(); ++c) {
      // Exactly once, in issue order.
      const std::string prefix = "c" + std::to_string(c) + "-";
      std::vector<std::string> expected;
      for (int i = 0; i < kUpdates; ++i) {
        expected.push_back(prefix + std::to_string(i));
      }
      EXPECT_EQ(projection(lines, prefix), expected);
    }
    // Same state as the peers up to the cross-client interleaving that
    // FIFO ordering leaves free, and the same per-client horizons.
    auto sorted = lines;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, sorted_reference);
    EXPECT_EQ(f.replicas[r]->horizons(), f.replicas[0]->horizons());
    EXPECT_EQ(f.replicas[r]->horizons().size(), clients.size());
  }
}

/// Sends a hand-built FIFO update from a raw member to one replica.
void send_update(gcs::Member& from, const ReplicaServer& to, std::uint64_t seq,
                 std::uint64_t after) {
  auto request = std::make_shared<UpdateRequest>();
  request->id = RequestId{from.self(), seq};
  request->op = append("f" + std::to_string(seq));
  request->after = after;
  from.send_to(to.id(), request);
}

TEST(Fifo, ClientChainsPastAbandonedUpdates) {
  // A stand-in primary that answers only the first update: the next two
  // are abandoned, so no primary may ever hold them and later updates must
  // follow the last one that completed.
  Fixture f(0, 0);
  std::vector<std::shared_ptr<const UpdateRequest>> seen;
  gcs::Member* primary = nullptr;
  primary = &f.add_raw_member([&](net::NodeId, const net::MessagePtr& msg) {
    auto update = net::message_cast<UpdateRequest>(msg);
    if (!update) return;
    seen.push_back(update);
    if (update->id.seq != 1) return;
    auto reply = std::make_shared<Reply>();
    reply->id = update->id;
    reply->is_update = true;
    reply->result = std::make_shared<DocContents>();
    reply->replica = primary->self();
    primary->send_to(update->id.client, reply);
  });
  f.settle(seconds(1));
  client::ClientConfig config;
  config.retry_timeout = milliseconds(50);
  config.max_retries = 1;
  config.retry_jitter = 0.0;
  auto& client = f.add_client(std::move(config));
  f.settle(seconds(1));
  auto info = std::make_shared<GroupInfo>();
  info->epoch = 1;
  info->primaries = {primary->self()};
  info->lazy_publisher = primary->self();
  primary->multicast(info);
  f.settle(milliseconds(100));
  ASSERT_TRUE(client.ready());

  std::vector<bool> completed;
  const auto record = [&](const client::UpdateOutcome& o) {
    completed.push_back(o.result != nullptr);
  };
  client.update(append("a"), record);
  f.settle(milliseconds(100));
  client.update(append("b"), record);
  client.update(append("c"), record);
  f.settle(seconds(1));
  EXPECT_EQ(completed, (std::vector<bool>{true, false, false}));
  client.update(append("d"), record);
  f.settle(milliseconds(100));

  std::map<std::uint64_t, std::uint64_t> after;  // seq -> after, per attempt
  for (const auto& update : seen) {
    const auto [it, fresh] = after.emplace(update->id.seq, update->after);
    EXPECT_TRUE(fresh || it->second == update->after)
        << "seq " << update->id.seq;
  }
  EXPECT_EQ(after, (std::map<std::uint64_t, std::uint64_t>{
                       {1, 0}, {2, 1}, {3, 2}, {4, 1}}));
}

TEST(Fifo, ClientPartitionWithUpdatesInFlight) {
  // The client loses every primary while two updates are in flight and
  // abandons both. Once the partition heals, later updates complete on
  // every primary, in order, and no primary keeps re-entering recovery.
  Fixture f(3, 0, 5);
  f.settle();
  client::ClientConfig config;
  config.retry_timeout = milliseconds(100);
  config.max_retries = 2;
  config.retry_jitter = 0.0;
  auto& client = f.add_client(std::move(config));
  f.settle(seconds(1));

  std::vector<bool> completed;
  const auto record = [&](const client::UpdateOutcome& o) {
    completed.push_back(o.result != nullptr);
  };
  client.update(append("u0"), record);
  f.settle(milliseconds(200));
  std::vector<net::NodeId> primaries;
  for (const auto& r : f.replicas) primaries.push_back(r->id());
  // Shorter than the failure detector's suspicion timeout, longer than the
  // client's whole retry budget.
  f.faults().partition({client.id()}, primaries);
  client.update(append("u1"), record);
  client.update(append("u2"), record);
  f.sim.run_for(milliseconds(1000));
  f.faults().heal();
  EXPECT_EQ(completed, (std::vector<bool>{true, false, false}));
  client.update(append("u3"), record);
  client.update(append("u4"), record);
  f.settle(seconds(3));
  EXPECT_EQ(completed,
            (std::vector<bool>{true, false, false, true, true}));

  std::vector<std::uint64_t> transfers;
  for (const auto& r : f.replicas) {
    transfers.push_back(r->stats().state_transfers_requested);
  }
  f.settle(seconds(6));
  const auto reference = lines_of(f.replicas[0]->object());
  EXPECT_EQ(projection(reference, "u").back(), "u4");
  for (std::size_t r = 0; r < f.replicas.size(); ++r) {
    SCOPED_TRACE("primary " + std::to_string(r));
    EXPECT_EQ(f.replicas[r]->stats().state_transfers_requested, transfers[r]);
    EXPECT_FALSE(f.replicas[r]->recovering());
    EXPECT_EQ(lines_of(f.replicas[r]->object()), reference);
    EXPECT_EQ(f.replicas[r]->horizon_of(client.id()), 5u);
  }
}

TEST(Fifo, RecoveryNeverInstallsSnapshotLackingAppliedUpdate) {
  // Primary 0 applies an update its transfer target (the lazy publisher,
  // primary 1) lacks, then blocks on an update whose predecessor never
  // came. Its recoveries must not install the lagging snapshot, and must
  // end anyway; once the target catches up, a transfer fills the hole.
  Fixture f(2, 0, 9);
  f.settle();
  gcs::Member& writer =
      f.add_raw_member([](net::NodeId, const net::MessagePtr&) {});
  f.settle(seconds(1));
  ReplicaServer& ahead = *f.replicas[0];
  ReplicaServer& target = *f.replicas[1];
  ASSERT_TRUE(target.is_lazy_publisher());

  send_update(writer, ahead, 1, 0);
  f.settle(milliseconds(200));
  ASSERT_EQ(ahead.horizon_of(writer.self()), 1u);
  ASSERT_EQ(target.horizon_of(writer.self()), 0u);
  send_update(writer, ahead, 3, 2);  // 2 never reaches primary 0
  f.settle(seconds(5));
  EXPECT_GE(ahead.stats().recoveries_completed, 1u);
  EXPECT_EQ(ahead.stats().state_snapshots_installed, 0u);
  EXPECT_FALSE(ahead.recovering());
  EXPECT_EQ(ahead.horizon_of(writer.self()), 1u);
  EXPECT_EQ(lines_of(ahead.object()), (std::vector<std::string>{"f1"}));

  send_update(writer, target, 1, 0);
  send_update(writer, target, 2, 1);
  f.settle(seconds(5));
  EXPECT_EQ(ahead.stats().state_snapshots_installed, 1u);
  EXPECT_EQ(ahead.horizon_of(writer.self()), 3u);
  EXPECT_EQ(lines_of(ahead.object()),
            (std::vector<std::string>{"f1", "f2", "f3"}));
  const std::uint64_t transfers = ahead.stats().state_transfers_requested;
  f.settle(seconds(5));
  EXPECT_EQ(ahead.stats().state_transfers_requested, transfers);
}

TEST(Fifo, SharedHoleEndsAfterOneTransfer) {
  // Every primary holds an update whose predecessor none of them has (it
  // followed an update its client abandoned). They recover at the same
  // instant and answer each other's transfers; a covering peer lacking the
  // predecessor too, they drop the blocked update and stop recovering, and
  // the client's next update, which skips it, applies everywhere.
  Fixture f(2, 0, 13);
  f.settle();
  // Restart primary 1 on primary 0's stall-check grid (primary 0 started
  // at 10 ms), so both find the hole, and recover, at the same instants.
  f.sim.run_for(milliseconds(1010));
  ASSERT_EQ((f.sim.now() - sim::kEpoch) % seconds(1), milliseconds(10));
  f.restart(1);
  f.settle();
  ASSERT_FALSE(f.replicas[1]->recovering());
  gcs::Member& writer =
      f.add_raw_member([](net::NodeId, const net::MessagePtr&) {});
  f.settle(seconds(1));
  for (const auto& r : f.replicas) {
    send_update(writer, *r, 1, 0);
    send_update(writer, *r, 3, 2);
  }
  f.settle(seconds(5));
  std::vector<std::uint64_t> transfers;
  for (const auto& r : f.replicas) {
    EXPECT_GE(r->stats().recoveries_completed, 1u);
    EXPECT_FALSE(r->recovering());
    transfers.push_back(r->stats().state_transfers_requested);
  }
  f.settle(seconds(5));
  for (std::size_t r = 0; r < f.replicas.size(); ++r) {
    EXPECT_EQ(f.replicas[r]->stats().state_transfers_requested, transfers[r]);
    send_update(writer, *f.replicas[r], 4, 1);
  }
  f.settle(seconds(1));
  for (const auto& r : f.replicas) {
    EXPECT_EQ(r->horizon_of(writer.self()), 4u);
    EXPECT_EQ(lines_of(r->object()), (std::vector<std::string>{"f1", "f4"}));
  }
}

}  // namespace
}  // namespace aqueduct::replication
