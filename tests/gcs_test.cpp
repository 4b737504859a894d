// Group-communication substrate: reliable FIFO multicast, views, p2p.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "net/loopback.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace aqueduct::gcs {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct TextMsg final : net::Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  std::string type_name() const override { return "test.text"; }
};

net::MessagePtr text(const std::string& t) { return std::make_shared<TextMsg>(t); }

std::string text_of(const net::MessagePtr& msg) {
  auto t = net::message_cast<TextMsg>(msg);
  return t ? t->text : "?";
}

constexpr GroupId kGroup{42};

/// N processes in one group over a jittery network.
struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1,
                   sim::Duration jitter = milliseconds(2), Config config = {})
      : sim(seed),
        network(sim, std::make_unique<sim::NormalDuration>(milliseconds(2), jitter)) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, network, directory, config));
      auto& member = endpoints[i]->member(kGroup);
      member.set_on_deliver([this, i](net::NodeId from, const net::MessagePtr& msg) {
        delivered[i].emplace_back(from, text_of(msg));
      });
      member.set_on_view([this, i](const View& v) { views[i].push_back(v); });
    }
  }

  /// Joins all members, staggered, and settles.
  void join_all() {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      sim.after(milliseconds(5), [this, i] { endpoints[i]->member(kGroup).join(); });
      sim.run_for(milliseconds(50));
    }
    settle();
  }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  Member& member(std::size_t i) { return endpoints[i]->member(kGroup); }

  /// Messages (as text) member i delivered from `from`, in order.
  std::vector<std::string> from_sender(std::size_t i, net::NodeId from) const {
    std::vector<std::string> out;
    auto it = delivered.find(i);
    if (it == delivered.end()) return out;
    for (const auto& [sender, msg] : it->second) {
      if (sender == from) out.push_back(msg);
    }
    return out;
  }

  sim::Simulator sim;
  net::LoopbackTransport network;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::map<std::size_t, std::vector<std::pair<net::NodeId, std::string>>> delivered;
  std::map<std::size_t, std::vector<View>> views;
};

TEST(GcsJoin, FirstJoinerBootstrapsSingleton) {
  Fixture f(1);
  f.member(0).join();
  f.settle(milliseconds(10));
  EXPECT_TRUE(f.member(0).joined());
  EXPECT_EQ(f.member(0).view().size(), 1u);
  EXPECT_TRUE(f.member(0).is_leader());
  ASSERT_EQ(f.views[0].size(), 1u);
  EXPECT_EQ(f.views[0][0].id, 1u);
}

TEST(GcsJoin, AllMembersConvergeToOneView) {
  Fixture f(5);
  f.join_all();
  const View& reference = f.member(0).view();
  EXPECT_EQ(reference.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(f.member(i).view().id, reference.id) << "member " << i;
    EXPECT_EQ(f.member(i).view().members, reference.members);
  }
}

TEST(GcsJoin, LeaderIsFirstJoiner) {
  Fixture f(3);
  f.join_all();
  EXPECT_TRUE(f.member(0).is_leader());
  EXPECT_FALSE(f.member(1).is_leader());
  EXPECT_EQ(f.member(1).view().leader(), f.member(0).self());
}

TEST(GcsJoin, DoubleJoinRejected) {
  Fixture f(1);
  f.member(0).join();
  f.settle(milliseconds(10));
  EXPECT_THROW(f.member(0).join(), InvariantViolation);
}

TEST(GcsMulticast, ReachesEveryMemberIncludingSelf) {
  Fixture f(4);
  f.join_all();
  f.member(1).multicast(text("hello"));
  f.settle();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto msgs = f.from_sender(i, f.member(1).self());
    ASSERT_EQ(msgs.size(), 1u) << "member " << i;
    EXPECT_EQ(msgs[0], "hello");
  }
}

TEST(GcsMulticast, FifoPerSenderDespiteJitter) {
  Fixture f(3, /*seed=*/9, /*jitter=*/milliseconds(3));
  f.join_all();
  for (int i = 0; i < 50; ++i) {
    f.member(0).multicast(text("a" + std::to_string(i)));
    f.member(1).multicast(text("b" + std::to_string(i)));
  }
  f.settle();
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t sender = 0; sender < 2; ++sender) {
      const auto msgs = f.from_sender(m, f.member(sender).self());
      ASSERT_EQ(msgs.size(), 50u);
      const char prefix = sender == 0 ? 'a' : 'b';
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(msgs[i], prefix + std::to_string(i));
      }
    }
  }
}

TEST(GcsMulticast, ReliableUnderMessageLoss) {
  Fixture f(3, /*seed=*/5);
  f.join_all();
  f.network.set_loss_probability(0.2);
  for (int i = 0; i < 30; ++i) f.member(0).multicast(text("m" + std::to_string(i)));
  f.settle(seconds(10));  // NACK/heartbeat repair needs a few rounds
  for (std::size_t m = 0; m < 3; ++m) {
    const auto msgs = f.from_sender(m, f.member(0).self());
    ASSERT_EQ(msgs.size(), 30u) << "member " << m;
    for (int i = 0; i < 30; ++i) EXPECT_EQ(msgs[i], "m" + std::to_string(i));
  }
  EXPECT_GT(f.member(0).stats().retransmissions +
                f.member(1).stats().nacks_sent +
                f.member(2).stats().nacks_sent,
            0u);
}

TEST(GcsMulticast, NoDuplicatesUnderRetransmission) {
  Fixture f(3, 11);
  f.join_all();
  f.network.set_loss_probability(0.3);
  for (int i = 0; i < 20; ++i) f.member(0).multicast(text("x" + std::to_string(i)));
  f.settle(seconds(10));
  f.network.set_loss_probability(0.0);
  f.settle(seconds(5));
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(f.from_sender(m, f.member(0).self()).size(), 20u);
  }
}

TEST(GcsP2p, DeliveredOnlyToDestination) {
  Fixture f(3);
  f.join_all();
  f.member(0).send_to(f.member(2).self(), text("secret"));
  f.settle();
  EXPECT_TRUE(f.from_sender(1, f.member(0).self()).empty());
  const auto msgs = f.from_sender(2, f.member(0).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "secret");
}

TEST(GcsP2p, FifoPerChannel) {
  Fixture f(2, 13, milliseconds(3));
  f.join_all();
  for (int i = 0; i < 40; ++i) {
    f.member(0).send_to(f.member(1).self(), text("p" + std::to_string(i)));
  }
  f.settle();
  const auto msgs = f.from_sender(1, f.member(0).self());
  ASSERT_EQ(msgs.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(msgs[i], "p" + std::to_string(i));
}

TEST(GcsP2p, ReliableUnderLoss) {
  Fixture f(2, 17);
  f.join_all();
  f.network.set_loss_probability(0.25);
  for (int i = 0; i < 25; ++i) {
    f.member(0).send_to(f.member(1).self(), text("q" + std::to_string(i)));
  }
  f.settle(seconds(10));
  EXPECT_EQ(f.from_sender(1, f.member(0).self()).size(), 25u);
}

TEST(GcsP2p, SendToSelfDelivers) {
  Fixture f(2);
  f.join_all();
  f.member(0).send_to(f.member(0).self(), text("me"));
  f.settle(milliseconds(100));
  const auto msgs = f.from_sender(0, f.member(0).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "me");
}

TEST(GcsP2p, SendToSet) {
  Fixture f(4);
  f.join_all();
  f.member(0).send_to_set({f.member(1).self(), f.member(3).self()}, text("s"));
  f.settle();
  EXPECT_EQ(f.from_sender(1, f.member(0).self()).size(), 1u);
  EXPECT_TRUE(f.from_sender(2, f.member(0).self()).empty());
  EXPECT_EQ(f.from_sender(3, f.member(0).self()).size(), 1u);
}

TEST(GcsStability, SentBuffersGarbageCollected) {
  Fixture f(3);
  f.join_all();
  for (int i = 0; i < 100; ++i) f.member(0).multicast(text("g" + std::to_string(i)));
  // Several heartbeat rounds: acks propagate, stability prunes buffers.
  f.settle(seconds(5));
  EXPECT_EQ(f.member(0).stats().mcasts_sent, 100u);
  // All members delivered everything; further multicasts still work.
  f.member(0).multicast(text("after-gc"));
  f.settle();
  EXPECT_EQ(f.from_sender(2, f.member(0).self()).back(), "after-gc");
}

TEST(GcsStability, NackRetransmitsOnlyUntilTheLastMemberAcks) {
  Fixture f(3);
  f.join_all();
  Member& sender = f.member(0);
  const net::NodeId lagging = f.member(2).self();
  // Member 2 hears nothing from the sender (for less than the suspect
  // timeout), so its heartbeats keep acking nothing of the new multicast.
  f.network.set_link_loss(sender.self(), lagging, 1.0);
  sender.multicast(text("held"));
  f.settle(milliseconds(600));  // member 1 delivers and acks; member 2 not
  ASSERT_EQ(f.from_sender(1, sender.self()).size(), 1u);
  ASSERT_TRUE(f.from_sender(2, sender.self()).empty());

  auto nack = std::make_shared<NackMsg>();
  nack->group = kGroup;
  nack->is_mcast = true;
  nack->from_seq = 1;
  nack->to_seq = 1000;
  const std::uint64_t before = sender.stats().retransmissions;
  sender.handle(f.member(1).self(), nack);
  EXPECT_EQ(sender.stats().retransmissions, before + 1)
      << "a multicast one member has not acked must still be held";

  // Member 2 repairs the gap; its next heartbeat makes the message stable.
  f.network.clear_link_loss(sender.self(), lagging);
  f.settle(seconds(1));
  ASSERT_EQ(f.from_sender(2, sender.self()).size(), 1u);
  const std::uint64_t after_repair = sender.stats().retransmissions;
  sender.handle(f.member(1).self(), nack);
  EXPECT_EQ(sender.stats().retransmissions, after_repair)
      << "a stable multicast must have been garbage-collected";
  EXPECT_EQ(sender.view().size(), 3u);
}

// Records the wire size of every delivered gcs.data message to one node.
struct DataSizesTo final : obs::TraceSink {
  explicit DataSizesTo(net::NodeId dest) : dest(dest) {}
  void on_message(const obs::MessageEvent& e) override {
    if (e.to == dest && e.type_name == "gcs.data" && e.dropped.empty()) {
      sizes[e.from].push_back(e.wire_size);
    }
  }
  net::NodeId dest;
  std::map<net::NodeId, std::vector<std::size_t>> sizes;
};

TEST(GcsStability, LastMemberToDeliverCollectsWithoutAnyRowChanging) {
  Fixture f(3);
  f.join_all();
  const net::NodeId sender = f.member(0).self();
  const net::NodeId peer = f.member(1).self();
  const net::NodeId lagging = f.member(2).self();
  // Member 2 delivers the multicast last, after a NACK repair. By then the
  // other rows already ack it, and with the group idle they never change
  // again: only member 2's own ack makes the message stable there.
  f.network.set_link_loss(sender, lagging, 1.0);
  f.member(0).multicast(text("late"));
  f.settle(milliseconds(600));
  f.network.clear_link_loss(sender, lagging);
  f.settle(seconds(1));
  ASSERT_EQ(f.from_sender(2, sender).size(), 1u);

  // A view change makes members 1 and 2 flush to the coordinator: their
  // flushes carry the same delivered cut and no held message each, so they
  // are the same size unless member 2 still retains the stable multicast.
  DataSizesTo to_coordinator(sender);
  f.network.tracing().add(&to_coordinator);
  f.member(1).leave();
  f.settle(milliseconds(500));
  f.network.tracing().remove(&to_coordinator);
  EXPECT_EQ(f.member(0).view().size(), 2u);
  // Member 1 sends its leave notice, then its flush; member 2 its flush.
  ASSERT_EQ(to_coordinator.sizes[peer].size(), 2u);
  ASSERT_EQ(to_coordinator.sizes[lagging].size(), 1u);
  EXPECT_EQ(to_coordinator.sizes[lagging].back(),
            to_coordinator.sizes[peer].back());
}

// ---- stability GC inputs -----------------------------------------------
//
// Each test below watches one member's held logs while the test feeds it ack
// rows by hand: the group runs with a heartbeat period far beyond the test's
// horizon, so no member heartbeats on its own and every pass of the
// stability GC follows an ack_heartbeat() call.

Config quiet_config() {
  Config config;
  config.heartbeat_period = seconds(1000);
  config.suspect_timeout = seconds(5000);
  return config;
}

/// Hands member `to` a heartbeat from member `from` whose multicast ack row
/// is `acks` (and which announces no multicast or p2p traffic).
void ack_heartbeat(Fixture& f, std::size_t to, std::size_t from, SeqTable acks) {
  auto hb = std::make_shared<HeartbeatMsg>();
  hb->group = kGroup;
  hb->view = f.member(to).view().id;
  hb->mcast_acks = std::move(acks);
  f.member(to).handle(f.member(from).self(), hb);
}

TEST(GcsStability, MemberWithoutARowBlocksUntilItsFirstHeartbeat) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  f.join_all();
  const net::NodeId s = f.member(1).self();
  f.member(1).multicast(text("held"));
  f.settle();
  ASSERT_EQ(f.member(0).retained_count(s), 1u);
  ack_heartbeat(f, 0, 1, {{s, 1}});
  EXPECT_EQ(f.member(0).retained_count(s), 1u)
      << "member 2 has no ack row yet, so it acks nothing";
  ack_heartbeat(f, 0, 2, {{s, 1}});
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
}

TEST(GcsStability, EmptiedLogThatRefillsIsCollectedOnTheNextHeartbeat) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  f.join_all();
  const net::NodeId s = f.member(1).self();
  f.member(1).multicast(text("first"));
  f.settle();
  ack_heartbeat(f, 0, 1, {{s, 1}});
  ack_heartbeat(f, 0, 2, {{s, 1}});
  ASSERT_EQ(f.member(0).retained_count(s), 0u);

  // The emptied log refills; no ack row has reached the new message yet.
  f.member(1).multicast(text("second"));
  f.settle();
  ASSERT_EQ(f.member(0).retained_count(s), 1u);
  ack_heartbeat(f, 0, 1, {{s, 2}});
  EXPECT_EQ(f.member(0).retained_count(s), 1u) << "member 2 has not acked it";
  ack_heartbeat(f, 0, 2, {{s, 2}});
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
}

TEST(GcsStability, ReorderedLowerRowCollectsNothing) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  f.join_all();
  const net::NodeId s = f.member(1).self();
  f.member(1).multicast(text("a"));
  f.member(1).multicast(text("b"));
  f.settle();
  ack_heartbeat(f, 0, 1, {{s, 2}});
  ack_heartbeat(f, 0, 2, {{s, 1}});
  ASSERT_EQ(f.member(0).retained_count(s), 1u)
      << "'a' is stable; member 2 holds 'b' back";

  // Member 2's older heartbeats, overtaken in the network, arrive late.
  ack_heartbeat(f, 0, 2, {{s, 0}});
  EXPECT_EQ(f.member(0).retained_count(s), 1u);
  ack_heartbeat(f, 0, 2, {});
  EXPECT_EQ(f.member(0).retained_count(s), 1u);
  ack_heartbeat(f, 0, 2, {{s, 1}});
  EXPECT_EQ(f.member(0).retained_count(s), 1u);
  ack_heartbeat(f, 0, 2, {{s, 2}});
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
}

TEST(GcsStability, OwnMulticastIsCollectedAfterSelfDeliveryAndEveryAck) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  f.join_all();
  Member& sender = f.member(0);
  const net::NodeId s = sender.self();
  sender.multicast(text("own"));
  EXPECT_EQ(sender.unstable_sent_count(), 1u);
  f.settle();  // every member delivers it, the sender last of all acks
  EXPECT_EQ(sender.retained_count(s), 1u);
  ack_heartbeat(f, 0, 1, {{s, 1}});
  EXPECT_EQ(sender.unstable_sent_count(), 1u) << "member 2 has not acked it";
  ack_heartbeat(f, 0, 2, {{s, 1}});
  EXPECT_EQ(sender.unstable_sent_count(), 0u);
  EXPECT_EQ(sender.retained_count(s), 0u);
}

TEST(GcsStability, LaggingMemberLeavingTheViewMakesTheStreamStable) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  f.join_all();
  const net::NodeId s = f.member(1).self();
  f.member(1).multicast(text("held"));
  f.settle();
  ack_heartbeat(f, 0, 1, {{s, 1}});
  ack_heartbeat(f, 0, 2, {{s, 0}});
  ASSERT_EQ(f.member(0).retained_count(s), 1u) << "member 2 blocks it";

  f.member(2).leave();
  f.settle();
  ASSERT_EQ(f.member(0).view().size(), 2u);
  // Member 1's row is the one it sent before: only the view change can
  // make the message stable.
  ack_heartbeat(f, 0, 1, {{s, 1}});
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
}

TEST(GcsStability, EvictingALaggingMemberMakesTheStreamStable) {
  Fixture f(3);
  f.join_all();
  const net::NodeId s = f.member(1).self();
  f.endpoints[2]->crash();
  f.member(1).multicast(text("held"));
  f.settle(milliseconds(500));
  ASSERT_EQ(f.member(0).retained_count(s), 1u)
      << "the crashed member never acks it";
  ASSERT_EQ(f.member(1).unstable_sent_count(), 1u);

  // The failure detector evicts member 2; heartbeats resume in the new view.
  f.settle(seconds(4));
  ASSERT_EQ(f.member(0).view().size(), 2u);
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
  EXPECT_EQ(f.member(1).unstable_sent_count(), 0u);
}

TEST(GcsStability, JoinerWithoutARowBlocksAfterTheInstall) {
  Fixture f(3, 1, milliseconds(2), quiet_config());
  const net::NodeId s = f.member(1).self();
  for (std::size_t i = 0; i < 2; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  // In view {0, 1}, a message becomes stable: member 0 now holds the ack
  // rows of both members.
  f.member(1).multicast(text("early"));
  f.settle();
  ack_heartbeat(f, 0, 1, {{s, 1}});
  ASSERT_EQ(f.member(0).retained_count(s), 0u);

  f.member(2).join();
  f.settle();
  ASSERT_EQ(f.member(0).view().size(), 3u);
  f.member(1).multicast(text("late"));
  f.settle();
  ack_heartbeat(f, 0, 1, {{s, 2}});
  EXPECT_EQ(f.member(0).retained_count(s), 1u)
      << "the joiner has no ack row yet, so it acks nothing";
  ack_heartbeat(f, 0, 2, {{s, 2}});
  EXPECT_EQ(f.member(0).retained_count(s), 0u);
}

TEST(GcsStability, HeartbeatFromANonMemberLeavesTheViewRowsInPlace) {
  Fixture f(4, 1, milliseconds(2), quiet_config());
  // Members 1–3 form the group; node 0, whose id sorts below theirs, stays
  // out, so its row lands in front of theirs in member 1's ack matrix.
  for (std::size_t i = 1; i < 4; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  ASSERT_EQ(f.member(1).view().size(), 3u);
  ASSERT_LT(f.member(0).self(), f.member(1).self());
  const net::NodeId s = f.member(2).self();
  f.member(2).multicast(text("held"));
  f.settle();
  ack_heartbeat(f, 1, 2, {{s, 1}});
  ack_heartbeat(f, 1, 3, {{s, 0}});
  ASSERT_EQ(f.member(1).retained_count(s), 1u) << "member 3 holds it back";

  ack_heartbeat(f, 1, 0, {{s, 1}});
  EXPECT_EQ(f.member(1).retained_count(s), 1u)
      << "a non-member's row must not stand in for member 3's";
  ack_heartbeat(f, 1, 3, {{s, 1}});
  EXPECT_EQ(f.member(1).retained_count(s), 0u);
}

TEST(GcsLeave, GracefulLeaveShrinksView) {
  Fixture f(3);
  f.join_all();
  f.member(2).leave();
  f.settle(seconds(3));
  EXPECT_EQ(f.member(0).view().size(), 2u);
  EXPECT_FALSE(f.member(0).view().contains(f.member(2).self()));
  EXPECT_FALSE(f.member(2).joined());
}

TEST(GcsLeave, LeaderLeavingHandsOver) {
  Fixture f(3);
  f.join_all();
  f.member(0).leave();
  f.settle(seconds(3));
  EXPECT_EQ(f.member(1).view().size(), 2u);
  EXPECT_TRUE(f.member(1).is_leader());
}

TEST(GcsViews, ViewIdsMonotonic) {
  Fixture f(4);
  f.join_all();
  for (const auto& [i, vs] : f.views) {
    for (std::size_t k = 1; k < vs.size(); ++k) {
      EXPECT_GT(vs[k].id, vs[k - 1].id) << "member " << i;
    }
  }
}

TEST(GcsViews, RankAndContains) {
  Fixture f(3);
  f.join_all();
  const View& v = f.member(0).view();
  EXPECT_EQ(v.rank_of(v.members[0]), 0u);
  EXPECT_EQ(v.rank_of(v.members[2]), 2u);
  EXPECT_TRUE(v.contains(v.members[1]));
  EXPECT_FALSE(v.contains(net::NodeId{999}));
}

TEST(GcsViews, SendBeforeJoinBuffersUntilInstalled) {
  Fixture f(2);
  f.member(0).join();
  f.settle(milliseconds(50));
  // Member 1 requested a join and immediately multicasts; the message must
  // go out once its first view is installed.
  f.member(1).join();
  f.member(1).multicast(text("early"));
  f.settle(seconds(3));
  const auto msgs = f.from_sender(0, f.member(1).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "early");
}

TEST(GcsDirectory, ClaimThenLookup) {
  Directory dir;
  EXPECT_FALSE(dir.lookup(GroupId{1}).has_value());
  EXPECT_FALSE(dir.claim_or_get(GroupId{1}, net::NodeId{5}).has_value());
  auto coordinator = dir.claim_or_get(GroupId{1}, net::NodeId{6});
  ASSERT_TRUE(coordinator.has_value());
  EXPECT_EQ(*coordinator, net::NodeId{5});
  dir.update(GroupId{1}, net::NodeId{7});
  EXPECT_EQ(*dir.lookup(GroupId{1}), net::NodeId{7});
}

TEST(GcsGroups, IndependentGroupsDoNotInterfere) {
  sim::Simulator sim(1);
  net::LoopbackTransport network(sim, std::make_unique<sim::FixedDuration>(milliseconds(1)));
  Directory directory;
  Endpoint a(sim, network, directory), b(sim, network, directory);
  std::vector<std::string> got_g1, got_g2;
  const GroupId g1{1}, g2{2};
  a.member(g1).set_on_deliver([&](net::NodeId, const net::MessagePtr& m) {
    got_g1.push_back(text_of(m));
  });
  a.member(g2).set_on_deliver([&](net::NodeId, const net::MessagePtr& m) {
    got_g2.push_back(text_of(m));
  });
  a.member(g1).join();
  a.member(g2).join();
  sim.run_for(milliseconds(100));
  b.member(g1).join();
  b.member(g2).join();
  sim.run_for(seconds(2));
  b.member(g1).multicast(text("one"));
  b.member(g2).multicast(text("two"));
  sim.run_for(seconds(1));
  ASSERT_EQ(got_g1.size(), 1u);
  ASSERT_EQ(got_g2.size(), 1u);
  EXPECT_EQ(got_g1[0], "one");
  EXPECT_EQ(got_g2[0], "two");
}

// Property sweep: FIFO + completeness for random member counts and loss.
class GcsReliabilityProperty
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {};

TEST_P(GcsReliabilityProperty, AllDeliverAllInOrder) {
  const auto [members, loss, seed] = GetParam();
  Fixture f(members, seed);
  f.join_all();
  f.network.set_loss_probability(loss);
  const int per_sender = 15;
  for (int i = 0; i < per_sender; ++i) {
    for (int s = 0; s < members; ++s) {
      f.member(s).multicast(text(std::to_string(s) + ":" + std::to_string(i)));
    }
  }
  f.network.set_loss_probability(loss);
  f.settle(seconds(15));
  for (int m = 0; m < members; ++m) {
    for (int s = 0; s < members; ++s) {
      const auto msgs = f.from_sender(m, f.member(s).self());
      ASSERT_EQ(msgs.size(), static_cast<std::size_t>(per_sender))
          << "member " << m << " from sender " << s;
      for (int i = 0; i < per_sender; ++i) {
        EXPECT_EQ(msgs[i], std::to_string(s) + ":" + std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcsReliabilityProperty,
    ::testing::Values(std::tuple{2, 0.0, 1ull}, std::tuple{3, 0.1, 2ull},
                      std::tuple{4, 0.0, 3ull}, std::tuple{4, 0.2, 4ull},
                      std::tuple{6, 0.05, 5ull}, std::tuple{8, 0.0, 6ull}));

}  // namespace
}  // namespace aqueduct::gcs
