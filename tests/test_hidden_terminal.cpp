// The classic hidden-terminal scenario: carrier sense cannot protect two
// stations that do not hear each other, so their frames collide at a
// receiver both reach.
#include <gtest/gtest.h>

#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "sim/traffic.hpp"

namespace wile::sim {
namespace {

// A and B are 30 m apart at 0 dBm: below the -82 dBm carrier-sense floor
// for each other, but both comfortably reach the sink midway at 15 m
// (robust 6 Mbps data frames).

struct HiddenResult {
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::uint64_t collisions = 0;
};

HiddenResult run_hidden(std::uint64_t seed) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{seed}};

  TrafficConfig cfg_a;
  cfg_a.source_mac = MacAddress::from_seed(0xA1);
  cfg_a.sink_mac = MacAddress::from_seed(0x51);
  cfg_a.rate = phy::WifiRate::G6;
  cfg_a.tx_power_dbm = 0.0;
  cfg_a.frame_bytes = 1000;
  cfg_a.frames_per_second = 60;
  TrafficConfig cfg_b = cfg_a;
  cfg_b.source_mac = MacAddress::from_seed(0xB1);

  TrafficSink sink{scheduler, medium, {15, 0}, cfg_a.sink_mac};
  TrafficSource a{scheduler, medium, {0, 0}, cfg_a, Rng{seed + 1}};
  TrafficSource b{scheduler, medium, {30, 0}, cfg_b, Rng{seed + 2}};

  a.start();
  b.start();
  scheduler.run_until(TimePoint{seconds(20)});
  a.stop();
  b.stop();
  scheduler.run_until(scheduler.now() + seconds(2));

  HiddenResult out;
  out.delivered = a.frames_delivered() + b.frames_delivered();
  out.failed = a.frames_failed() + b.frames_failed();
  out.collisions = medium.stats().collision_losses;
  return out;
}

TEST(HiddenTerminal, HiddenTerminalsCollideWithoutProtection) {
  const HiddenResult plain = run_hidden(100);
  // Carrier sense is blind between A and B: collisions at the sink are
  // frequent and many frames exhaust their retries.
  EXPECT_GT(plain.collisions, 100u);
  EXPECT_GT(plain.failed, 20u);
}

}  // namespace
}  // namespace wile::sim
