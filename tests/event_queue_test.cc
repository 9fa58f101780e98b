#include "simsys/event_queue.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace gpuperf::simsys {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(3.0, [&] { order.push_back(3); });
  queue.Schedule(1.0, [&] { order.push_back(1); });
  queue.Schedule(2.0, [&] { order.push_back(2); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsAreFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NowAdvancesToFiredEvent) {
  EventQueue queue;
  double seen = -1;
  queue.Schedule(7.5, [&] { seen = queue.NowUs(); });
  queue.Run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(queue.NowUs(), 7.5);
}

TEST(EventQueueTest, CallbacksCanScheduleMoreEvents) {
  EventQueue queue;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) queue.ScheduleAfter(1.0, step);
  };
  queue.Schedule(0.0, step);
  queue.Run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(queue.NowUs(), 9.0);
  EXPECT_EQ(queue.fired_count(), 10);
}

TEST(EventQueueTest, RunOneReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.RunOne());
  queue.Schedule(1.0, [] {});
  EXPECT_TRUE(queue.RunOne());
  EXPECT_FALSE(queue.RunOne());
}

TEST(EventQueueDeathTest, SchedulingIntoThePastAborts) {
  EventQueue queue;
  queue.Schedule(5.0, [] {});
  queue.Run();
  EXPECT_DEATH(queue.Schedule(4.0, [] {}), "past");
}

TEST(EventQueueDeathTest, NegativeDelayAborts) {
  EventQueue queue;
  EXPECT_DEATH(queue.ScheduleAfter(-1.0, [] {}), "check failed");
}

TEST(EventQueueTest, StressRandomEventsStayOrdered) {
  EventQueue queue;
  Rng rng(77);
  double last_fired = -1;
  bool ordered = true;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.NextRange(0, 1000);
    queue.Schedule(t, [&queue, &last_fired, &ordered] {
      if (queue.NowUs() < last_fired) ordered = false;
      last_fired = queue.NowUs();
    });
  }
  queue.Run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(queue.fired_count(), 2000);
}

// --- Reserved sequence numbers: an event inserted late under a
// reserved sequence must fire exactly where it would have fired had it
// been scheduled at reservation time. Each test runs a lazily inserted
// chain against a twin queue where the same chain was pre-scheduled.

TEST(EventQueueTest, ReserveSequencesReturnsConsecutiveBlocks) {
  EventQueue queue;
  EXPECT_EQ(queue.ReserveSequences(3), 0);
  queue.Schedule(1.0, [] {});  // draws sequence 3
  EXPECT_EQ(queue.ReserveSequences(2), 4);
  EXPECT_EQ(queue.ReserveSequences(0), 6);
  EXPECT_EQ(queue.ReserveSequences(1), 6);
}

TEST(EventQueueTest, LazyReservedChainMatchesPreScheduledTwinOnTies) {
  // Chain times tie with ordinary events scheduled both before and
  // after the reservation: the before-events win their ties against
  // the chain, the chain wins against the after-events.
  const std::vector<double> chain = {1.0, 2.0, 2.0, 3.0};
  std::vector<std::string> lazy_order, eager_order;

  EventQueue lazy;
  lazy.Schedule(2.0, [&] { lazy_order.push_back("before@2"); });
  const std::int64_t first =
      lazy.ReserveSequences(static_cast<std::int64_t>(chain.size()));
  lazy.Schedule(1.0, [&] { lazy_order.push_back("after@1"); });
  lazy.Schedule(2.0, [&] { lazy_order.push_back("after@2"); });
  std::function<void(std::size_t)> insert = [&](std::size_t k) {
    const std::int64_t sequence = first + static_cast<std::int64_t>(k);
    lazy.ScheduleReserved(chain[k], sequence, [&, k] {
      if (k + 1 < chain.size()) insert(k + 1);
      lazy_order.push_back("chain" + std::to_string(k));
    });
  };
  insert(0);
  lazy.Run();

  EventQueue eager;
  eager.Schedule(2.0, [&] { eager_order.push_back("before@2"); });
  for (std::size_t k = 0; k < chain.size(); ++k) {
    eager.Schedule(chain[k], [&, k] {
      eager_order.push_back("chain" + std::to_string(k));
    });
  }
  eager.Schedule(1.0, [&] { eager_order.push_back("after@1"); });
  eager.Schedule(2.0, [&] { eager_order.push_back("after@2"); });
  eager.Run();

  // (time, sequence) keys: before@2 drew 0, the chain reserved 1-4,
  // after@1 and after@2 drew 5 and 6.
  const std::vector<std::string> expected = {
      "chain0",    // (1, 1)
      "after@1",   // (1, 5)
      "before@2",  // (2, 0)
      "chain1",    // (2, 2)
      "chain2",    // (2, 3)
      "after@2",   // (2, 6)
      "chain3",    // (3, 4)
  };
  EXPECT_EQ(lazy_order, expected);
  EXPECT_EQ(lazy_order, eager_order);
  EXPECT_EQ(lazy.fired_count(), eager.fired_count());
  EXPECT_DOUBLE_EQ(lazy.NowUs(), eager.NowUs());
}

/**
 * One twin of the randomized comparison: a `chain_length` chain at
 * nondecreasing integer times (dense ties), ordinary events scheduled
 * before and after the reservation, and events that spawn follow-ups
 * from inside callbacks (zero delay included). `lazy` inserts the chain
 * one link at a time; otherwise it is pre-scheduled. Returns the firing
 * order as event ids.
 */
std::vector<int> RunRandomTwin(bool lazy, std::uint64_t seed,
                               std::size_t chain_length) {
  EventQueue queue;
  Rng plan_rng(seed);
  std::vector<double> chain(chain_length);
  double t = 0;
  for (double& at : chain) {
    t += static_cast<double>(plan_rng.NextBelow(3));  // 0: tie with previous
    at = t;
  }
  // Firing-order randomness: both twins draw from it in firing order,
  // so identical orders draw identical follow-ups.
  Rng fire_rng(seed ^ 0x5eedULL);
  std::vector<int> order;
  int next_spawn_id = 1'000'000;
  std::function<void(int)> fire = [&](int id) {
    order.push_back(id);
    if (fire_rng.NextBelow(4) == 0) {
      const int spawned = next_spawn_id++;
      const double delay = static_cast<double>(fire_rng.NextBelow(3));
      queue.ScheduleAfter(delay, [&, spawned] { fire(spawned); });
    }
  };
  const std::uint64_t time_span = static_cast<std::uint64_t>(t) + 2;
  auto schedule_ordinary = [&](int first_id, int count) {
    for (int i = 0; i < count; ++i) {
      const double at = static_cast<double>(plan_rng.NextBelow(time_span));
      const int id = first_id + i;
      queue.Schedule(at, [&, id] { fire(id); });
    }
  };

  schedule_ordinary(/*first_id=*/100'000, /*count=*/300);
  std::int64_t first = 0;
  std::function<void(std::size_t)> insert = [&](std::size_t k) {
    const std::int64_t sequence = first + static_cast<std::int64_t>(k);
    queue.ScheduleReserved(chain[k], sequence, [&, k] {
      if (k + 1 < chain.size()) insert(k + 1);
      fire(static_cast<int>(k));
    });
  };
  if (lazy) {
    first = queue.ReserveSequences(static_cast<std::int64_t>(chain.size()));
  } else {
    for (std::size_t k = 0; k < chain.size(); ++k) {
      queue.Schedule(chain[k], [&, k] { fire(static_cast<int>(k)); });
    }
  }
  schedule_ordinary(/*first_id=*/200'000, /*count=*/300);
  if (lazy) insert(0);
  queue.Run();
  return order;
}

TEST(EventQueueTest, RandomizedLazyReservedChainMatchesPreScheduledTwin) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<int> lazy = RunRandomTwin(true, seed, 1000);
    const std::vector<int> eager = RunRandomTwin(false, seed, 1000);
    EXPECT_GT(lazy.size(), 1600u) << seed;  // chain + ordinary + spawned
    EXPECT_EQ(lazy, eager) << seed;
  }
}

TEST(EventQueueDeathTest, UnreservedSequenceAborts) {
  EventQueue queue;
  EXPECT_DEATH(queue.ScheduleReserved(1.0, 0, [] {}), "was not reserved");
  queue.ReserveSequences(2);
  EXPECT_DEATH(queue.ScheduleReserved(1.0, 2, [] {}), "was not reserved");
  EXPECT_DEATH(queue.ScheduleReserved(1.0, -1, [] {}), "was not reserved");
}

TEST(EventQueueDeathTest, ReservedEventInThePastAborts) {
  EventQueue queue;
  const std::int64_t sequence = queue.ReserveSequences(1);
  queue.Schedule(5.0, [] {});
  queue.Run();
  EXPECT_DEATH(queue.ScheduleReserved(4.0, sequence, [] {}), "past");
}

}  // namespace
}  // namespace gpuperf::simsys
