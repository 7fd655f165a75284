// Tests for the RadioPowerTracker's TX-overlay nesting and a property
// fuzz of the scheduler's ordering/cancellation invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "power/radio_tracker.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wile {
namespace {

// ---------------------------------------------------------------------------
// RadioPowerTracker
// ---------------------------------------------------------------------------

class TrackerTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler_;
  power::PowerTimeline timeline_{volts(3.3)};
  power::RadioPowerTracker tracker_{scheduler_, timeline_, milliamps(180), usec(50)};
};

TEST_F(TrackerTest, TxOverlaysThenRestoresBaseline) {
  tracker_.set_phase(milliamps(40), power::PhaseId::Tx);
  scheduler_.run_until(TimePoint{usec(100)});
  tracker_.on_tx_start(usec(200));
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(150)})), 180.0, 1e-9);
  scheduler_.run_until_idle();
  // airtime 200 + ramp 50 => baseline restored at t=350.
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(349)})), 180.0, 1e-9);
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(351)})), 40.0, 1e-9);
}

TEST_F(TrackerTest, NestedTxRestoresOnlyAfterLast) {
  tracker_.set_phase(milliamps(40), power::PhaseId::Tx);
  tracker_.on_tx_start(usec(100));
  scheduler_.run_until(TimePoint{usec(120)});
  tracker_.on_tx_start(usec(100));  // second TX while first ramp pending
  scheduler_.run_until_idle();
  // First restore at 150 must NOT drop to baseline (nesting = 1).
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(160)})), 180.0, 1e-9);
  // Final restore at 120+100+50 = 270.
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(275)})), 40.0, 1e-9);
}

TEST_F(TrackerTest, PhaseChangeDuringTxDefersToRestore) {
  tracker_.set_phase(milliamps(40), power::PhaseId::Tx);
  tracker_.on_tx_start(usec(100));
  scheduler_.run_until(TimePoint{usec(50)});
  tracker_.set_phase(milliamps(25), power::PhaseId::RxWindow);
  // Still at TX current while the radio is hot.
  EXPECT_NEAR(in_milliamps(timeline_.current_at(scheduler_.now())), 180.0, 1e-9);
  scheduler_.run_until_idle();
  // After restore, the *new* baseline applies.
  EXPECT_NEAR(in_milliamps(timeline_.current_at(TimePoint{usec(200)})), 25.0, 1e-9);
}

TEST_F(TrackerTest, CustomCurrentOverridesDefault) {
  tracker_.set_phase(milliamps(40), power::PhaseId::Tx);
  tracker_.on_tx_start(usec(100), milliamps(240));
  EXPECT_NEAR(in_milliamps(timeline_.current_at(scheduler_.now())), 240.0, 1e-9);
  scheduler_.run_until_idle();
}

// ---------------------------------------------------------------------------
// Scheduler property fuzz
// ---------------------------------------------------------------------------

TEST(SchedulerFuzz, RandomScheduleCancelStormKeepsInvariants) {
  // Invariants under a random storm of schedule/cancel operations:
  //  * events fire in non-decreasing time order,
  //  * cancelled events never fire,
  //  * every non-cancelled event fires exactly once.
  Rng rng{99};
  for (int trial = 0; trial < 20; ++trial) {
    sim::Scheduler scheduler;
    struct Entry {
      sim::EventId id;
      std::int64_t at;
      bool cancelled = false;
      int fired = 0;
    };
    std::vector<Entry> entries;
    entries.reserve(300);
    std::int64_t last_fired_at = -1;
    bool order_ok = true;

    for (int i = 0; i < 300; ++i) {
      const auto at = static_cast<std::int64_t>(rng.below(10'000));
      entries.push_back({0, at, false, 0});
      const std::size_t idx = entries.size() - 1;
      entries[idx].id = scheduler.schedule_at(
          TimePoint{usec(at)}, [&entries, idx, &last_fired_at, &order_ok] {
            ++entries[idx].fired;
            if (entries[idx].at < last_fired_at) order_ok = false;
            last_fired_at = entries[idx].at;
          });
      // Randomly cancel some previously scheduled event.
      if (rng.chance(0.3) && !entries.empty()) {
        Entry& victim = entries[rng.below(entries.size())];
        if (victim.fired == 0) {
          scheduler.cancel(victim.id);
          victim.cancelled = true;
        }
      }
    }
    scheduler.run_until_idle();

    EXPECT_TRUE(order_ok) << "trial " << trial;
    for (const Entry& e : entries) {
      if (e.cancelled) {
        EXPECT_EQ(e.fired, 0) << "cancelled event fired (trial " << trial << ")";
      } else {
        EXPECT_EQ(e.fired, 1) << "event fired " << e.fired << " times (trial " << trial
                              << ")";
      }
    }
  }
}

TEST(SchedulerFuzz, EventsScheduledFromHandlersPreserveOrder) {
  sim::Scheduler scheduler;
  std::vector<int> order;
  // A handler that schedules two more events, one of which lands at the
  // same timestamp (must run after already-queued same-time events).
  scheduler.schedule_at(TimePoint{usec(10)}, [&] {
    order.push_back(1);
    scheduler.schedule_at(TimePoint{usec(10)}, [&] { order.push_back(3); });
    scheduler.schedule_at(TimePoint{usec(20)}, [&] { order.push_back(4); });
  });
  scheduler.schedule_at(TimePoint{usec(10)}, [&] { order.push_back(2); });
  scheduler.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace wile
