#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aqueduct::sim {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
  EXPECT_EQ(from_ms(1.5), std::chrono::microseconds(1500));
  EXPECT_EQ(from_sec(0.25), milliseconds(250));
}

TEST(Time, Format) {
  EXPECT_EQ(format(std::chrono::nanoseconds(5)), "5ns");
  EXPECT_EQ(format(milliseconds(100)), "100.000ms");
  EXPECT_EQ(format(seconds(61)), "61.000s");
}

TEST(EventQueue, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(milliseconds(30), [&] { order.push_back(3); });
  sim.after(milliseconds(10), [&] { order.push_back(1); });
  sim.after(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.after(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  Simulator sim;
  auto handle = sim.after(milliseconds(5), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  Simulator sim;
  auto handle = sim.after(milliseconds(5), [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(EventQueue, EmptyHandleCancelIsNoop) {
  Simulator sim;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(EventQueue, FiredHandleDoesNotCancelEventReusingItsSlot) {
  EventQueue q;
  const EventHandle first = q.schedule(kEpoch + milliseconds(1), [] {});
  q.pop().second();
  // The fired event's slot is free; the next event takes it over.
  bool fired = false;
  const EventHandle second =
      q.schedule(kEpoch + milliseconds(2), [&] { fired = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, CancelledHandleDoesNotCancelEventReusingItsSlot) {
  EventQueue q;
  const EventHandle first = q.schedule(kEpoch + milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(first));
  EXPECT_TRUE(q.empty());  // discards the cancelled entry, freeing its slot
  bool fired = false;
  const EventHandle second =
      q.schedule(kEpoch + milliseconds(2), [&] { fired = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_FALSE(q.empty());
  q.pop().second();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, CallbackCanCancelSiblingAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  EventHandle sibling;
  sim.after(milliseconds(5), [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(sibling));
    EXPECT_FALSE(sim.cancel(sibling));
  });
  sibling = sim.after(milliseconds(5), [&] { order.push_back(2); });
  sim.after(milliseconds(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// 10^5 random schedule / cancel / pop operations against a reference
// model: a std::multimap keeps equal keys in insertion order, which is
// the queue's documented FIFO tie-break.
TEST(EventQueue, RandomOperationsMatchMultimapModel) {
  EventQueue q;
  std::multimap<TimePoint, std::size_t> model;
  std::vector<std::optional<std::multimap<TimePoint, std::size_t>::iterator>>
      live;  // by event id; nullopt once fired or cancelled
  std::vector<EventHandle> handles;
  std::vector<std::size_t> fired;
  Rng rng(2024);
  TimePoint now = kEpoch;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t dice = rng.uniform_int(10);
    if (dice < 5) {
      // Narrow time range: many events share a time point.
      const TimePoint at = now + milliseconds(rng.uniform_int(20));
      const std::size_t id = handles.size();
      handles.push_back(q.schedule(at, [&fired, id] { fired.push_back(id); }));
      live.emplace_back(model.emplace(at, id));
    } else if (dice < 7) {
      if (handles.empty()) continue;
      const std::size_t id = rng.uniform_int(handles.size());
      const bool expected = live[id].has_value();
      ASSERT_EQ(q.cancel(handles[id]), expected) << "op " << op;
      if (expected) {
        model.erase(*live[id]);
        live[id].reset();
      }
    } else {
      ASSERT_EQ(q.empty(), model.empty()) << "op " << op;
      if (model.empty()) continue;
      const auto head = model.begin();
      ASSERT_EQ(q.next_time(), head->first) << "op " << op;
      auto [at, cb] = q.pop();
      cb();
      ASSERT_EQ(at, head->first);
      ASSERT_FALSE(fired.empty());
      ASSERT_EQ(fired.back(), head->second) << "op " << op;
      live[head->second].reset();
      model.erase(head);
      now = at;
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
  }
  while (!model.empty()) {
    auto [at, cb] = q.pop();
    cb();
    ASSERT_EQ(fired.back(), model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen{};
  sim.after(milliseconds(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kEpoch + milliseconds(42));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(milliseconds(10), [&] { ++fired; });
  sim.after(milliseconds(30), [&] { ++fired; });
  sim.run_until(kEpoch + milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kEpoch + milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForAdvancesEvenWithoutEvents) {
  Simulator sim;
  sim.run_for(seconds(5));
  EXPECT_EQ(sim.now(), kEpoch + seconds(5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(milliseconds(1), recurse);
  };
  sim.after(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), kEpoch + milliseconds(5));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.after(milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.after(milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.after(milliseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(kEpoch + milliseconds(5), [] {}), InvariantViolation);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.after(milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// --- randomness --------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent(1);
  Rng a(parent.split()), b(parent.split());
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(1000) == b.uniform_int(1000)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Rng, NormalDurationTruncatesAtFloor) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Duration d =
        rng.normal_duration(milliseconds(1), milliseconds(100));
    EXPECT_GE(d, Duration::zero());
  }
}

TEST(Rng, NormalMeanApproximatelyCorrect) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(100.0, 10.0);
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  Duration total = Duration::zero();
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential_duration(milliseconds(50));
  EXPECT_NEAR(to_ms(total) / n, 50.0, 2.0);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  long total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.poisson(4.0);
  EXPECT_NEAR(static_cast<double>(total) / n, 4.0, 0.1);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_int(7), 7u);
}

TEST(DurationDistributions, FixedAlwaysSame) {
  FixedDuration dist(milliseconds(3));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.sample(rng), milliseconds(3));
  EXPECT_EQ(dist.mean(), milliseconds(3));
}

TEST(DurationDistributions, EmpiricalSamplesFromSet) {
  EmpiricalDuration dist({milliseconds(1), milliseconds(2), milliseconds(3)});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Duration d = dist.sample(rng);
    EXPECT_TRUE(d == milliseconds(1) || d == milliseconds(2) ||
                d == milliseconds(3));
  }
  EXPECT_EQ(dist.mean(), milliseconds(2));
}

TEST(DurationDistributions, NormalMeanReported) {
  NormalDuration dist(milliseconds(100), milliseconds(50));
  EXPECT_EQ(dist.mean(), milliseconds(100));
}

// Determinism across the whole simulator: same seed, same trajectory.
TEST(Simulator, FullyDeterministic) {
  auto trace = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<double> values;
    for (int i = 0; i < 20; ++i) {
      sim.after(milliseconds(i * 3), [&] { values.push_back(sim.rng().uniform()); });
    }
    sim.run();
    return values;
  };
  EXPECT_EQ(trace(5), trace(5));
  EXPECT_NE(trace(5), trace(6));
}

}  // namespace
}  // namespace aqueduct::sim
