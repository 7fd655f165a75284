// Unit tests for src/power: timelines, energy integration, Eq. (1), and
// the simulated multimeter.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "power/battery.hpp"
#include "power/devices.hpp"
#include "power/timeline.hpp"
#include "power/trace_recorder.hpp"

namespace wile::power {
namespace {

TEST(Timeline, CurrentAtFollowsSegments) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "Sleep");
  tl.set_current(TimePoint{usec(100)}, milliamps(20), "Tx");
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(0)})), 10.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(99)})), 10.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(100)})), 20.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(10'000)})), 20.0, 1e-12);
}

TEST(Timeline, BeforeFirstSegmentIsZero) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(50)}, milliamps(10), "Sleep");
  EXPECT_EQ(tl.current_at(TimePoint{usec(10)}).value, 0.0);
}

TEST(Timeline, EnergyIntegratesPiecewise) {
  PowerTimeline tl{volts(2.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "Sleep");     // 2 W
  tl.set_current(TimePoint{usec(100)}, amps(0.5), "Tx");   // 1 W
  // 100 us at 2 W + 100 us at 1 W = 200 uJ + 100 uJ.
  const Joules e = tl.energy_between(TimePoint{usec(0)}, TimePoint{usec(200)});
  EXPECT_NEAR(in_microjoules(e), 300.0, 1e-9);
}

TEST(Timeline, EnergySubrange) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "Sleep");
  const Joules e = tl.energy_between(TimePoint{usec(40)}, TimePoint{usec(60)});
  EXPECT_NEAR(in_microjoules(e), 20.0, 1e-9);
}

TEST(Timeline, LastSegmentExtendsForever) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(2.0), "Sleep");
  const Joules e = tl.energy_between(TimePoint{seconds(10)}, TimePoint{seconds(11)});
  EXPECT_NEAR(e.value, 2.0, 1e-9);
}

TEST(Timeline, MergesIdenticalConsecutiveStates) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "Sleep");
  tl.set_current(TimePoint{usec(50)}, milliamps(10), "Sleep");
  EXPECT_EQ(tl.segments().size(), 1u);
}

TEST(Timeline, ZeroLengthSegmentReplaced) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(10)}, milliamps(10), "Sleep");
  tl.set_current(TimePoint{usec(10)}, milliamps(20), "Tx");
  ASSERT_EQ(tl.segments().size(), 1u);
  EXPECT_NEAR(in_milliamps(tl.segments()[0].current), 20.0, 1e-12);
}

TEST(Timeline, RejectsNonMonotonicUpdates) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(100)}, milliamps(10), "Sleep");
  EXPECT_THROW(tl.set_current(TimePoint{usec(50)}, milliamps(5), "Tx"), std::logic_error);
}

TEST(Timeline, AveragePower) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "Sleep");
  tl.set_current(TimePoint{usec(100)}, amps(3.0), "Tx");
  const Watts avg = tl.average_power(TimePoint{usec(0)}, TimePoint{usec(200)});
  EXPECT_NEAR(avg.value, 2.0, 1e-9);
}

TEST(Timeline, FindPhaseLocatesRange) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "Sleep");
  tl.set_current(TimePoint{usec(100)}, milliamps(40), "MC/WiFi init");
  tl.set_current(TimePoint{usec(300)}, milliamps(100), "Tx");
  tl.set_current(TimePoint{usec(400)}, milliamps(1), "Sleep");

  TimePoint start, end;
  ASSERT_TRUE(tl.find_phase(PhaseId::Tx, TimePoint{usec(0)}, &start, &end));
  EXPECT_EQ(start.us(), 300);
  EXPECT_EQ(end.us(), 400);
  EXPECT_FALSE(tl.find_phase(PhaseId::Dhcp, TimePoint{usec(0)}, nullptr, nullptr));
}

TEST(Timeline, BoundedHistoryFoldsExactlyWithinItsBound) {
  // 10k transitions through a 64-segment bound: the history folds over
  // and over, its storage never grows past the bound, and the lifetime
  // integral equals an unbounded twin's.
  PowerTimeline bounded{volts(3.3)};
  bounded.set_max_segments(64);
  PowerTimeline unbounded{volts(3.3)};
  const char* phases[] = {"Sleep", "MC/WiFi init", "Tx"};
  TimePoint t{};
  for (int i = 0; i < 10'000; ++i) {
    t = t + usec(100 + (i * 37) % 900);
    const Amps current = milliamps(1.0 + (i * 13) % 120);
    bounded.set_current(t, current, phases[i % 3]);
    unbounded.set_current(t, current, phases[i % 3]);
    ASSERT_LE(bounded.segments().capacity(), 64u);
  }
  EXPECT_LE(bounded.segments().size(), 64u);
  EXPECT_GT(bounded.retained_since(), TimePoint{});
  const TimePoint end = t + msec(5);
  const double want = unbounded.energy_between(TimePoint{}, end).value;
  EXPECT_NEAR(bounded.energy_between(TimePoint{}, end).value, want, 1e-12 * want);
  // A window inside the retained history is answered segment-exactly too.
  const TimePoint recent = bounded.retained_since() + usec(1);
  EXPECT_NEAR(bounded.energy_between(recent, end).value,
              unbounded.energy_between(recent, end).value, 1e-12 * want);
}

TEST(Timeline, QueriesIntoFoldedHistoryThrow) {
  // A bound of 4 folds all but the newest segments of 20 alternating
  // 1 mA / 40 mA steps, 10 ms apart. Only lifetime totals and windows
  // inside the retained history can still be answered.
  PowerTimeline bounded{volts(3.3)};
  bounded.set_max_segments(4);
  PowerTimeline unbounded{volts(3.3)};
  for (int i = 0; i < 20; ++i) {
    const TimePoint t{msec(10 * i)};
    const Amps current = milliamps(i % 2 == 0 ? 1.0 : 40.0);
    bounded.set_current(t, current, PhaseId::Sleep);
    unbounded.set_current(t, current, PhaseId::Sleep);
  }
  const TimePoint end{msec(200)};
  ASSERT_GT(bounded.retained_since(), TimePoint{msec(55)});
  EXPECT_NEAR(unbounded.energy_between(TimePoint{msec(55)}, end).value, 0.010131, 1e-9);
  EXPECT_THROW((void)bounded.energy_between(TimePoint{msec(55)}, end), std::out_of_range);
  EXPECT_THROW((void)bounded.energy_between(TimePoint{}, TimePoint{msec(55)}),
               std::out_of_range);
  EXPECT_THROW((void)bounded.current_at(TimePoint{msec(55)}), std::out_of_range);

  EXPECT_EQ(bounded.energy_between(TimePoint{}, end).value,
            unbounded.energy_between(TimePoint{}, end).value);
  const TimePoint kept = bounded.retained_since();
  EXPECT_EQ(bounded.energy_between(kept, end).value, unbounded.energy_between(kept, end).value);
  EXPECT_EQ(bounded.current_at(kept).value, unbounded.current_at(kept).value);
}

TEST(Timeline, RunningSumEqualsTheSegmentWalk) {
  // A sum opened at a mark mid-segment and read at several instants
  // equals energy_between(mark, to) bit for bit; a 4-segment bound,
  // which folds the mark away, leaves it unchanged.
  PowerTimeline bounded{volts(3.3)};
  bounded.set_max_segments(4);
  PowerTimeline unbounded{volts(3.3)};
  const TimePoint mark{msec(25)};
  for (int i = 0; i < 20; ++i) {
    const TimePoint t{msec(10 * i)};
    const Amps current = milliamps(1.0 + 7.0 * (i % 3));
    bounded.set_current(t, current, PhaseId::Sleep);
    unbounded.set_current(t, current, PhaseId::Sleep);
    if (t <= mark && mark < t + msec(10)) {
      bounded.open_sum(mark);
      unbounded.open_sum(mark);
    }
    const TimePoint to = t + usec(3'500);
    if (to > mark) {
      EXPECT_EQ(bounded.energy_since_mark(to).value, unbounded.energy_between(mark, to).value);
    }
  }
  EXPECT_GT(bounded.retained_since(), mark);
  EXPECT_THROW(bounded.open_sum(TimePoint{msec(5)}), std::logic_error);
}

static_assert(sizeof(Segment) == 24, "a segment is its start, its current and a one-byte phase");

TEST(Timeline, PhaseNamesRoundTrip) {
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    const auto id = static_cast<PhaseId>(i);
    EXPECT_EQ(phase_id(kPhaseNames[i]), id);
    EXPECT_EQ(phase_name(id), kPhaseNames[i]);
  }
  EXPECT_THROW((void)phase_id("a"), std::invalid_argument);
  PowerTimeline tl{volts(3.3)};
  EXPECT_THROW(tl.set_current(TimePoint{}, milliamps(1), "tx"), std::invalid_argument);
  EXPECT_TRUE(tl.segments().empty());
  // The by-name form records the same segment as the id form.
  tl.set_current(TimePoint{}, milliamps(1), "Probe/Auth./Associate");
  EXPECT_EQ(tl.segments().back().phase, PhaseId::Associate);
}

// ---------------------------------------------------------------------------
// Equation (1) of the paper
// ---------------------------------------------------------------------------

TEST(Eq1, MatchesHandComputation) {
  // Ptx=0.6 W for 140 us, Pidle=8.25 uW, INT=60 s.
  const Watts p = duty_cycle_average_power(watts(0.6) * usec(140), usec(140),
                                           microwatts(8.25), seconds(60));
  // (0.6*140e-6 + 8.25e-6*(60-0.00014)) / 60 = (84e-6 + 495e-6)/60.
  EXPECT_NEAR(in_microwatts(p), 9.65, 0.01);
}

TEST(Eq1, ShortIntervalApproachesTxPower) {
  const Watts p = duty_cycle_average_power(watts(0.5) * msec(100), msec(100),
                                           microwatts(1), msec(100));
  EXPECT_NEAR(p.value, 0.5, 1e-9);
}

TEST(Eq1, LongIntervalApproachesIdlePower) {
  const Watts p = duty_cycle_average_power(watts(0.5) * usec(100), usec(100),
                                           microwatts(10), minutes(60));
  EXPECT_NEAR(in_microwatts(p), 10.0, 0.2);
}

TEST(Eq1, MonotoneDecreasingInInterval) {
  double last = 1e9;
  for (int s = 10; s <= 300; s += 10) {
    const Watts p = duty_cycle_average_power(watts(0.6) * msec(200), msec(200),
                                             microwatts(8.25), seconds(s));
    EXPECT_LT(p.value, last);
    last = p.value;
  }
}

// ---------------------------------------------------------------------------
// TraceRecorder (the simulated Keysight 34465A)
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SamplesAtConfiguredRate) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "Sleep");
  TraceRecorder rec;  // 50 kS/s => 20 us period
  const auto trace = rec.record(tl, TimePoint{usec(0)}, TimePoint{msec(1)});
  EXPECT_EQ(trace.size(), 50u);
  EXPECT_NEAR(trace[1].time_s - trace[0].time_s, 20e-6, 1e-9);
  EXPECT_NEAR(trace[0].current_ma, 10.0, 1e-9);
}

TEST(TraceRecorder, CapturesSpikes) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "Sleep");
  tl.set_current(TimePoint{usec(500)}, milliamps(200), "Tx");
  tl.set_current(TimePoint{usec(640)}, milliamps(1), "Sleep");
  TraceRecorder rec;
  const auto trace = rec.record(tl, TimePoint{usec(0)}, TimePoint{msec(2)});
  EXPECT_NEAR(TraceRecorder::peak_ma(trace), 200.0, 1e-9);
}

TEST(TraceRecorder, DecimationPreservesPeaks) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "Sleep");
  tl.set_current(TimePoint{msec(500)}, milliamps(250), "Tx");
  tl.set_current(TimePoint{msec(500) + usec(100)}, milliamps(1), "Sleep");
  TraceRecorder rec;
  const auto dense = rec.record(tl, TimePoint{usec(0)}, TimePoint{seconds(1)});
  const auto sparse = TraceRecorder::decimate(dense, 200);
  EXPECT_LE(sparse.size(), 200u);
  EXPECT_NEAR(TraceRecorder::peak_ma(sparse), 250.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Device profiles (paper constants)
// ---------------------------------------------------------------------------

TEST(DeviceProfiles, PaperQuotedCurrents) {
  const Esp32PowerProfile esp;
  EXPECT_NEAR(in_microamps(esp.deep_sleep), 2.5, 1e-9);       // §5.1 / Table 1
  EXPECT_NEAR(in_milliamps(esp.light_sleep), 0.8, 1e-9);      // §5.1
  EXPECT_NEAR(esp.supply.value, 3.3, 1e-12);

  const Cc2541PowerProfile ble;
  EXPECT_NEAR(in_microamps(ble.sleep), 1.1, 1e-9);  // Table 1
  EXPECT_NEAR(ble.supply.value, 3.0, 1e-12);
}

TEST(DeviceProfiles, WiLeTxEnergyTargetsTable1) {
  // (airtime of a ~90-byte beacon at 72 Mbps + PA ramp) x 0.6 W should
  // land close to the paper's 84 uJ per message.
  const Esp32PowerProfile esp;
  const Watts p_tx = esp.supply * esp.radio_tx;
  EXPECT_NEAR(p_tx.value, 0.6, 0.01);
}

TEST(Battery, LifetimeFiniteUnderPositiveLoad) {
  const BatteryModel cell = BatteryModel::cr2032();
  const double secs = cell.lifetime_seconds(Watts{1e-3});
  EXPECT_TRUE(std::isfinite(secs));
  EXPECT_GT(secs, 0.0);
  // Sanity: ~2 kJ usable at ~1 mW net drain is on the order of weeks.
  EXPECT_NEAR(secs, cell.usable_energy().value /
                        (1e-3 + cell.self_discharge_power().value),
              1e-6);
}

TEST(Battery, LifetimeInfiniteWhenNetDrainNonPositive) {
  // A cell with no self-discharge and no load never empties; same for a
  // net-harvesting (negative) load. Both must report +infinity, not 0.
  BatteryModel ideal = BatteryModel::cr2032();
  ideal.self_discharge_per_year = 0.0;
  EXPECT_TRUE(std::isinf(ideal.lifetime_seconds(Watts{0.0})));
  EXPECT_GT(ideal.lifetime_seconds(Watts{0.0}), 0.0);  // +inf, not -inf

  const BatteryModel real = BatteryModel::cr2032();
  const Watts harvesting{-2.0 * real.self_discharge_power().value};
  EXPECT_TRUE(std::isinf(real.lifetime_seconds(harvesting)));
  // Zero load with real self-discharge stays finite (the cell still dies).
  EXPECT_TRUE(std::isfinite(real.lifetime_seconds(Watts{0.0})));
}

}  // namespace
}  // namespace wile::power
