// Closed-form oracles: the simulator held to an answer derived
// independently of its own code paths.
#include <gtest/gtest.h>

#include <vector>

#include "power/timeline.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

TEST(EnergyOracle, DeviceMeanPowerIsEquationOne) {
  // A jitter-free device on a 60 s period, alone for an hour. Over the
  // whole periods from its first wake it sleeps at the deep-sleep draw
  // except during each cycle, so its mean power is the paper's Eq. (1)
  // fed with its mean cycle energy and mean active time.
  constexpr Duration kPeriod = seconds(60);
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
  SenderConfig cfg;
  cfg.period = kPeriod;
  Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
  std::vector<SendReport> reports;
  sender.start_duty_cycle([] { return Bytes(16, 0x5a); },
                          [&reports](const SendReport& r) { reports.push_back(r); });
  const TimePoint end{seconds(3600)};
  scheduler.run_until(end);

  const TimePoint first_wake{kPeriod};
  ASSERT_EQ(reports.size(), 59u);  // wakes at 60, 120, ..., 3540 s
  double energy = 0.0;
  double active_s = 0.0;
  for (const SendReport& r : reports) {
    ASSERT_TRUE(r.success);
    energy += r.cycle_energy.value;
    active_s += to_seconds(r.active_time);
  }
  const double n = static_cast<double>(reports.size());
  const Watts predicted = power::duty_cycle_average_power(
      Joules{energy / n}, from_seconds(active_s / n), sender.idle_power_draw(), kPeriod);
  const Watts simulated = sender.timeline().average_power(first_wake, end);
  EXPECT_NEAR(simulated.value, predicted.value, 1e-9 * predicted.value);
}

}  // namespace
}  // namespace wile::core
