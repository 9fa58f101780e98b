#include "common/fault_injection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace gpuperf {
namespace {

FaultPlanConfig Config(double mtbf_s, double mttr_s, std::uint64_t seed) {
  FaultPlanConfig config;
  config.mtbf_s = mtbf_s;
  config.mttr_s = mttr_s;
  config.seed = seed;
  return config;
}

constexpr double kHorizonUs = 60e6;  // one simulated minute

TEST(FaultPlanTest, DisabledPlanHasNoOutages) {
  FaultPlan plan(4, kHorizonUs, Config(0, 2, 1));
  EXPECT_EQ(plan.resources(), 4u);
  for (std::size_t r = 0; r < plan.resources(); ++r) {
    EXPECT_TRUE(plan.Outages(r).empty());
    EXPECT_DOUBLE_EQ(plan.Availability(r), 1.0);
    EXPECT_FALSE(plan.IsDownAt(r, kHorizonUs / 2));
    EXPECT_EQ(plan.FirstOutageIn(r, 0, kHorizonUs), nullptr);
  }
}

TEST(FaultPlanTest, DisabledPlanIgnoresNonPositiveMttr) {
  // mttr is only meaningful when faults are on; a disabled config with a
  // zero mttr must not abort (the CLI default is --mtbf 0).
  FaultPlan plan(2, kHorizonUs, Config(0, 0, 1));
  EXPECT_TRUE(plan.Outages(0).empty());
}

TEST(FaultPlanTest, SameSeedIsBitIdentical) {
  FaultPlan a(3, kHorizonUs, Config(5, 1, 42));
  FaultPlan b(3, kHorizonUs, Config(5, 1, 42));
  for (std::size_t r = 0; r < 3; ++r) {
    const auto& oa = a.Outages(r);
    const auto& ob = b.Outages(r);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].down_us, ob[i].down_us);
      EXPECT_EQ(oa[i].up_us, ob[i].up_us);
    }
  }
}

TEST(FaultPlanTest, DifferentSeedsProduceDifferentPlans) {
  FaultPlan a(1, kHorizonUs, Config(5, 1, 1));
  FaultPlan b(1, kHorizonUs, Config(5, 1, 2));
  ASSERT_FALSE(a.Outages(0).empty());
  ASSERT_FALSE(b.Outages(0).empty());
  EXPECT_NE(a.Outages(0)[0].down_us, b.Outages(0)[0].down_us);
}

TEST(FaultPlanTest, OutagesAreSortedAndDisjoint) {
  FaultPlan plan(4, kHorizonUs, Config(3, 0.5, 7));
  for (std::size_t r = 0; r < plan.resources(); ++r) {
    const auto& outages = plan.Outages(r);
    double previous_up = 0;
    for (const DownInterval& o : outages) {
      EXPECT_GE(o.down_us, previous_up);
      EXPECT_GT(o.up_us, o.down_us);
      EXPECT_LT(o.down_us, kHorizonUs);
      previous_up = o.up_us;
    }
  }
}

TEST(FaultPlanTest, AvailabilityMatchesIntervalSum) {
  FaultPlan plan(2, kHorizonUs, Config(4, 1, 13));
  for (std::size_t r = 0; r < plan.resources(); ++r) {
    double down_total = 0;
    for (const DownInterval& o : plan.Outages(r)) {
      down_total += std::min(o.up_us, kHorizonUs) - o.down_us;
    }
    EXPECT_NEAR(plan.Availability(r), 1.0 - down_total / kHorizonUs, 1e-12);
    EXPECT_GT(plan.Availability(r), 0.0);
    EXPECT_LT(plan.Availability(r), 1.0);
  }
}

TEST(FaultPlanTest, IsDownAtAndFirstOutageInAgree) {
  FaultPlan plan(1, kHorizonUs, Config(5, 1, 3));
  const auto& outages = plan.Outages(0);
  ASSERT_FALSE(outages.empty());
  const DownInterval& first = outages[0];

  EXPECT_FALSE(plan.IsDownAt(0, first.down_us / 2));
  EXPECT_TRUE(plan.IsDownAt(0, first.down_us));
  EXPECT_TRUE(plan.IsDownAt(0, (first.down_us + first.up_us) / 2));
  EXPECT_FALSE(plan.IsDownAt(0, first.up_us));  // half-open [down, up)

  // A window entirely before the first outage sees nothing.
  EXPECT_EQ(plan.FirstOutageIn(0, 0, first.down_us), nullptr);
  // A window straddling the start finds it.
  const DownInterval* found =
      plan.FirstOutageIn(0, first.down_us / 2, first.down_us + 1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->down_us, first.down_us);
  // A window inside the outage finds it too (job running when GPU died).
  found = plan.FirstOutageIn(0, (first.down_us + first.up_us) / 2,
                             first.up_us + 1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->down_us, first.down_us);
}

TEST(FaultPlanTest, ResourceStreamsAreIndependentOfPoolSize) {
  // Per-resource streams are keyed on (seed, index), so growing the pool
  // never perturbs the timeline of the resources already in it.
  FaultPlan small(1, kHorizonUs, Config(5, 1, 21));
  FaultPlan large(6, kHorizonUs, Config(5, 1, 21));
  const auto& a = small.Outages(0);
  const auto& b = large.Outages(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].down_us, b[i].down_us);
    EXPECT_EQ(a[i].up_us, b[i].up_us);
  }
  // And distinct resources get distinct timelines.
  ASSERT_FALSE(large.Outages(1).empty());
  EXPECT_NE(large.Outages(0)[0].down_us, large.Outages(1)[0].down_us);
}

TEST(FaultPlanTest, DefaultConstructedPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_EQ(plan.resources(), 0u);
  EXPECT_DOUBLE_EQ(plan.horizon_us(), 0.0);
}

TEST(FaultPlanTest, MttrZeroYieldsInstantRepairBlips) {
  // MTTR 0 is instant repair: outages are zero-length blips that still
  // exist on the timeline (they fail jobs in flight across them) but
  // consume no downtime.
  FaultPlan plan(2, kHorizonUs, Config(5, 0, 9));
  for (std::size_t r = 0; r < plan.resources(); ++r) {
    const auto& outages = plan.Outages(r);
    ASSERT_FALSE(outages.empty());
    double previous = 0;
    for (const DownInterval& o : outages) {
      EXPECT_EQ(o.up_us, o.down_us);  // zero-length
      EXPECT_GE(o.down_us, previous);
      previous = o.up_us;
    }
    EXPECT_DOUBLE_EQ(plan.Availability(r), 1.0);
    // Half-open [down, down): no instant is "down", but a window
    // straddling the blip still reports the outage.
    const DownInterval& first = outages[0];
    EXPECT_FALSE(plan.IsDownAt(r, first.down_us));
    const DownInterval* found =
        plan.FirstOutageIn(r, first.down_us - 1, first.down_us + 1);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->down_us, first.down_us);
  }
}

TEST(FaultPlanTest, SubTickMtbfTerminatesAndStaysSorted) {
  // MTBF far below one microsecond (the sim's time unit): generation
  // must terminate, produce a dense but still sorted/disjoint timeline,
  // and keep availability in [0, 1].
  const double horizon_us = 1'000.0;
  FaultPlan plan(1, horizon_us, Config(1e-7, 1e-7, 5));
  const auto& outages = plan.Outages(0);
  EXPECT_GT(outages.size(), 100u);
  double previous_up = 0;
  for (const DownInterval& o : outages) {
    EXPECT_GE(o.down_us, previous_up);
    EXPECT_GE(o.up_us, o.down_us);
    EXPECT_LT(o.down_us, horizon_us);
    previous_up = o.up_us;
  }
  EXPECT_GE(plan.Availability(0), 0.0);
  EXPECT_LE(plan.Availability(0), 1.0);
}

ChaosPlanConfig GrayOnly(double mtbf_s, double mttr_s, double factor,
                         std::uint64_t seed) {
  ChaosPlanConfig config;
  config.seed = seed;
  config.gray_mtbf_s = mtbf_s;
  config.gray_mttr_s = mttr_s;
  config.gray_factor = factor;
  return config;
}

TEST(ChaosPlanTest, EmptyConfigIsEmptyPlan) {
  ChaosPlan plan(4, kHorizonUs, ChaosPlanConfig{}, nullptr);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.resources(), 4u);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_TRUE(plan.outage_plan().Outages(g).empty());
    EXPECT_TRUE(plan.Slowdowns(g).empty());
    EXPECT_DOUBLE_EQ(plan.SlowdownAt(g, kHorizonUs / 2), 1.0);
  }
}

TEST(ChaosPlanTest, GrayEpisodesSlowWithoutOutaging) {
  ChaosPlan plan(2, kHorizonUs, GrayOnly(5, 2, 3.0, 11), nullptr);
  EXPECT_FALSE(plan.empty());
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_TRUE(plan.outage_plan().Outages(g).empty());
    const auto& slow = plan.Slowdowns(g);
    ASSERT_FALSE(slow.empty());
    for (const SlowInterval& s : slow) {
      EXPECT_GT(s.end_us, s.start_us);
      EXPECT_DOUBLE_EQ(s.factor, 3.0);
    }
    const SlowInterval& first = slow[0];
    EXPECT_DOUBLE_EQ(plan.SlowdownAt(g, first.start_us / 2), 1.0);
    EXPECT_DOUBLE_EQ(
        plan.SlowdownAt(g, (first.start_us + first.end_us) / 2), 3.0);
  }
}

TEST(ChaosPlanTest, SameSeedIsBitIdentical) {
  ChaosPlanConfig config = GrayOnly(5, 2, 2.5, 42);
  config.flap_mtbf_s = 10;
  config.host.size = 2;
  config.host.mtbf_s = 20;
  ChaosPlan a(4, kHorizonUs, config, nullptr);
  ChaosPlan b(4, kHorizonUs, config, nullptr);
  for (std::size_t g = 0; g < 4; ++g) {
    const auto& oa = a.outage_plan().Outages(g);
    const auto& ob = b.outage_plan().Outages(g);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].down_us, ob[i].down_us);
      EXPECT_EQ(oa[i].up_us, ob[i].up_us);
    }
    const auto& sa = a.Slowdowns(g);
    const auto& sb = b.Slowdowns(g);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].start_us, sb[i].start_us);
      EXPECT_EQ(sa[i].end_us, sb[i].end_us);
      EXPECT_EQ(sa[i].factor, sb[i].factor);
    }
  }
}

TEST(ChaosPlanTest, FlapBurstsProduceShortSortedBlips) {
  ChaosPlanConfig config;
  config.seed = 7;
  config.flap_mtbf_s = 5;
  config.flap_count = 4;
  config.flap_period_s = 0.2;
  config.flap_down_s = 0.05;
  ChaosPlan plan(1, kHorizonUs, config, nullptr);
  const auto& outages = plan.outage_plan().Outages(0);
  ASSERT_GE(outages.size(), 4u);
  double previous_up = 0;
  for (const DownInterval& o : outages) {
    EXPECT_GE(o.down_us, previous_up);
    EXPECT_NEAR(o.up_us - o.down_us, 0.05e6, 1e-6);
    previous_up = o.up_us;
  }
}

TEST(ChaosPlanTest, HostEventFellsAllMemberGpusTogether) {
  ChaosPlanConfig config;
  config.seed = 5;
  config.host.size = 2;
  config.host.mtbf_s = 10;
  config.host.mttr_s = 1;
  ChaosPlan plan(4, kHorizonUs, config, nullptr);
  // GPUs 0,1 share host 0; GPUs 2,3 share host 1.
  const auto& a = plan.outage_plan().Outages(0);
  const auto& b = plan.outage_plan().Outages(1);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].down_us, b[i].down_us);
    EXPECT_EQ(a[i].up_us, b[i].up_us);
  }
  // The other host's stream is independent, so its timeline differs.
  const auto& c = plan.outage_plan().Outages(2);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a[0].down_us, c[0].down_us);
}

TEST(ChaosPlanTest, RackSlowdownComposesWithGrayEpisodes) {
  ChaosPlanConfig config = GrayOnly(5, 5, 2.0, 3);
  config.host.size = 2;
  config.rack.size = 2;  // one rack of 4 GPUs
  config.rack.mtbf_s = 8;
  config.rack.mttr_s = 5;
  config.rack.factor = 4.0;
  ChaosPlan plan(4, kHorizonUs, config, nullptr);
  bool saw_composed = false;
  for (std::size_t g = 0; g < 4 && !saw_composed; ++g) {
    for (double t = 0; t < kHorizonUs; t += kHorizonUs / 4096) {
      const double factor = plan.SlowdownAt(g, t);
      // Any overlap of a gray episode (2x) and the rack event (4x)
      // multiplies; either alone never exceeds 4.
      if (factor > 4.0) {
        EXPECT_DOUBLE_EQ(factor, 8.0);
        saw_composed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_composed);
}

TEST(ChaosPlanTest, ComposesWithBaseFaultPlan) {
  FaultPlan base(2, kHorizonUs, Config(5, 1, 17));
  ChaosPlanConfig config;
  config.seed = 17;
  config.flap_mtbf_s = 10;
  ChaosPlan plan(2, kHorizonUs, config, &base);
  for (std::size_t g = 0; g < 2; ++g) {
    // Composition can only add downtime, and every base outage is
    // covered by some merged interval.
    EXPECT_LE(plan.outage_plan().Availability(g), base.Availability(g));
    for (const DownInterval& o : base.Outages(g)) {
      const DownInterval* found = plan.outage_plan().FirstOutageIn(
          g, o.down_us, std::max(o.up_us, o.down_us + 1e-9));
      ASSERT_NE(found, nullptr);
      EXPECT_LE(found->down_us, o.down_us);
      EXPECT_GE(found->up_us, o.up_us);
    }
  }
}

TEST(ChaosPlanTest, DomainEventAtTimeZeroWithMttrZeroIsZeroLengthBlip) {
  // Regression: a correlated domain event pinned at t=0 with MTTR=0
  // must enter the timeline as a zero-length blip — not an interval
  // that never repairs (which would hold breakers open forever).
  ChaosPlanConfig config;
  config.seed = 1;
  config.host.size = 2;
  config.host.mtbf_s = 0;  // only the pinned event
  config.host.mttr_s = 0;
  config.host.first_event_at_s = 0;
  ChaosPlan plan(2, kHorizonUs, config, nullptr);
  for (std::size_t g = 0; g < 2; ++g) {
    const auto& outages = plan.outage_plan().Outages(g);
    ASSERT_EQ(outages.size(), 1u);
    EXPECT_DOUBLE_EQ(outages[0].down_us, 0.0);
    EXPECT_DOUBLE_EQ(outages[0].up_us, 0.0);
    // Instant repair: no time is actually "down" and full availability
    // is preserved, exactly like the per-resource MTTR=0 blips above.
    EXPECT_FALSE(plan.outage_plan().IsDownAt(g, 0.0));
    EXPECT_DOUBLE_EQ(plan.outage_plan().Availability(g), 1.0);
  }
}

TEST(FaultPlanTest, ExplicitPlanAllowsOutageAtTimeZero) {
  // A resource that is already down when the simulation starts.
  FaultPlan plan({{{0.0, 1'000.0}}, {}}, kHorizonUs);
  EXPECT_TRUE(plan.IsDownAt(0, 0.0));
  EXPECT_TRUE(plan.IsDownAt(0, 500.0));
  EXPECT_FALSE(plan.IsDownAt(0, 1'000.0));
  EXPECT_FALSE(plan.IsDownAt(1, 0.0));
  const DownInterval* found = plan.FirstOutageIn(0, 0.0, 1.0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->down_us, 0.0);
  EXPECT_LT(plan.Availability(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.Availability(1), 1.0);
}

// --- Cursor twins: a forward-only cursor must answer exactly like the
// random-access API it replaces on serving's hot path.

/**
 * Non-decreasing query times over [0, 1.05 * horizon_us]: repeats,
 * 1-ulp steps, landings exactly on or 1 ulp before an interval
 * boundary, and jumps. The horizon passes 1.7e7 us, where
 * `t + 1e-9 == t`.
 */
std::vector<double> ForwardTimes(std::vector<double> boundaries,
                                 double horizon_us, std::uint64_t seed) {
  std::sort(boundaries.begin(), boundaries.end());
  Rng rng(seed);
  std::vector<double> times;
  double now = 0;
  while (now <= 1.05 * horizon_us) {
    times.push_back(now);
    switch (rng.NextBelow(4)) {
      case 0:  // stay: several queries at one sim time
        break;
      case 1:
        now = std::nextafter(now, 2 * horizon_us);
        break;
      case 2: {  // the next boundary strictly after now, or just before
        const auto it =
            std::upper_bound(boundaries.begin(), boundaries.end(), now);
        if (it == boundaries.end()) {
          now += 1e3;
        } else {
          const double before = std::nextafter(*it, 0.0);
          now = before > now && rng.NextBelow(2) == 0 ? before : *it;
        }
        break;
      }
      default:
        now += rng.NextDouble() * horizon_us / 500;
        break;
    }
  }
  return times;
}

/** Drives one cursor per resource over ForwardTimes and compares every
 *  answer with the random-access plan, bit for bit. */
void ExpectCursorsMatchPlan(const FaultPlan& outages, const ChaosPlan* chaos,
                            std::uint64_t seed) {
  const double horizon_us = outages.horizon_us();
  for (std::size_t r = 0; r < outages.resources(); ++r) {
    SCOPED_TRACE(r);
    std::vector<double> boundaries;
    for (const DownInterval& o : outages.Outages(r)) {
      boundaries.push_back(o.down_us);
      boundaries.push_back(o.up_us);
    }
    if (chaos != nullptr) {
      for (const SlowInterval& s : chaos->Slowdowns(r)) {
        boundaries.push_back(s.start_us);
        boundaries.push_back(s.end_us);
      }
    }
    OutageCursor outage_cursor(outages.Outages(r));
    const std::vector<SlowInterval> no_slowdowns;
    SlowdownCursor slowdown_cursor(chaos != nullptr ? chaos->Slowdowns(r)
                                                    : no_slowdowns);
    Rng rng(seed + r);
    for (double now : ForwardTimes(boundaries, horizon_us, seed + r)) {
      outage_cursor.AdvanceTo(now);
      slowdown_cursor.AdvanceTo(now);
      ASSERT_EQ(outage_cursor.IsDownAt(now), outages.IsDownAt(r, now))
          << now;
      for (int k = 0; k < 3; ++k) {
        // A leg start at or after now, then a window of random length
        // (zero included) from it.
        double start = now;
        switch (rng.NextBelow(3)) {
          case 0:
            break;
          case 1: {
            const auto it = std::upper_bound(boundaries.begin(),
                                             boundaries.end(), now);
            if (it != boundaries.end()) start = *it;
            break;
          }
          default:
            start = now + rng.NextDouble() * horizon_us / 100;
            break;
        }
        const double end = start + (rng.NextBelow(4) == 0
                                        ? 0.0
                                        : rng.NextDouble() * horizon_us / 50);
        ASSERT_EQ(outage_cursor.IsDownAt(start), outages.IsDownAt(r, start))
            << start;
        ASSERT_EQ(outage_cursor.FirstOutageIn(start, end),
                  outages.FirstOutageIn(r, start, end))
            << start << " " << end;
        if (chaos != nullptr) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        slowdown_cursor.SlowdownAt(start)),
                    std::bit_cast<std::uint64_t>(chaos->SlowdownAt(r, start)))
              << start;
        }
      }
    }
  }
}

TEST(CursorTest, ChaosCursorsMatchRandomAccessBitForBit) {
  // Gray episodes overlapped by host- and rack-level slowdowns (three
  // factors can stack), flap blips, MTTR-0 base blips, and a rack
  // outage pinned at t = 0, over a horizon past 1.7e7 us.
  FaultPlan base(6, kHorizonUs, Config(4, 0, 5));
  for (std::uint64_t seed : {3u, 4u}) {
    SCOPED_TRACE(seed);
    ChaosPlanConfig config;
    config.seed = seed;
    config.gray_mtbf_s = 3;
    config.gray_mttr_s = 2;
    config.gray_factor = 3;
    config.flap_mtbf_s = 15;
    config.host.size = 2;
    config.host.mtbf_s = 6;
    config.host.mttr_s = 4;
    config.host.factor = 2;
    config.rack.size = 1;  // one host per rack
    config.rack.mtbf_s = 10;
    config.rack.mttr_s = 5;
    config.rack.factor = 1.5;
    ChaosPlan chaos(6, kHorizonUs, config, &base);
    ChaosPlanConfig outage_config = config;
    outage_config.rack.factor = 0;
    outage_config.rack.mttr_s = 0.5;
    outage_config.rack.first_event_at_s = 0;
    ChaosPlan with_outages(6, kHorizonUs, outage_config, &base);
    // The plans exercise what the twins are meant to cover.
    bool stacked = false;
    for (std::size_t g = 0; g < 6; ++g) {
      const std::vector<SlowInterval>& slow = chaos.Slowdowns(g);
      for (std::size_t i = 1; i < slow.size(); ++i) {
        stacked |= slow[i].start_us < slow[i - 1].end_us;
      }
    }
    EXPECT_TRUE(stacked);
    EXPECT_EQ(with_outages.outage_plan().Outages(0).front().down_us, 0.0);
    ExpectCursorsMatchPlan(chaos.outage_plan(), &chaos, seed);
    ExpectCursorsMatchPlan(with_outages.outage_plan(), &with_outages,
                           seed + 100);
  }
}

TEST(CursorTest, OutageCursorKeepsIsDownAtExactWindowEnd) {
  // Outages at t = 0, a zero-length blip, and outages beginning past
  // 1.7e7 us, where IsDownAt's window end t + 1e-9 rounds to t: there an
  // outage that begins exactly at t reads as up, before it as down.
  const FaultPlan plan({{{0.0, 5.0},
                         {10.0, 10.0},
                         {20.0, 30.0},
                         {2e7, 2e7 + 100},
                         {3e7, 3e7}}},
                       kHorizonUs);
  EXPECT_TRUE(plan.IsDownAt(0, 20.0));
  EXPECT_FALSE(plan.IsDownAt(0, 2e7));
  EXPECT_TRUE(plan.IsDownAt(0, 2e7 + 1));
  EXPECT_FALSE(plan.IsDownAt(0, 10.0));
  EXPECT_NE(plan.FirstOutageIn(0, 9.0, 11.0), nullptr);
  ExpectCursorsMatchPlan(plan, nullptr, 9);
}

}  // namespace
}  // namespace gpuperf
