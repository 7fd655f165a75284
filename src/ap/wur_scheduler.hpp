// AP-originated 802.11ba wake-up frame scheduling.
//
// The access point (mains-powered, so no power timeline here) owns the
// wake cadence for a fleet of WUR companions: unicast wakes round-robin
// over the fleet's 12-bit WUR IDs. Wake-up frames are ordinary medium
// traffic — they contend through the shared CSMA/DCF path like any
// broadcast (their 20 us legacy preamble is exactly what makes normal
// stations defer to them), collide with Wi-LE beacons, and cross shard
// boundaries as RemoteTx phantoms with no special handling.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "phy/wur_phy.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wile::ap {

struct WurSchedulerConfig {
  phy::WurRate rate = phy::WurRate::kHigh;
  /// Wake frames go out at AP power: the OOK envelope detector is far
  /// less sensitive than the main radio, so the downlink wake needs the
  /// link budget the uplink beacon does not.
  double tx_power_dbm = 20.0;
  /// Back-to-back repeats of every wake frame (same sequence number, so
  /// companions dedupe; repeats only buy delivery probability).
  int repeats = 1;
};

class WurScheduler : public sim::MediumClient {
 public:
  using Config = WurSchedulerConfig;

  WurScheduler(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
               Rng rng, Config config = {});

  /// One-shot unicast wake of a single companion receiver.
  void wake(std::uint16_t wur_id);

  /// Fixed-cadence round robin over a fleet: one unicast wake every
  /// `sweep_period / ids.size()`, first one gap in. The cadence is
  /// anchored to absolute times (schedule_at), so CSMA deferral of one
  /// frame never skews when the next is queued — the polling rate each
  /// device experiences is sweep_period exactly. Throws
  /// std::invalid_argument on an empty list or a non-positive period.
  void start_round_robin(std::vector<std::uint16_t> ids, Duration sweep_period);

  /// Cancel any running cadence (in-flight frames still leave the antenna).
  void stop();

  [[nodiscard]] std::uint64_t wakes_sent() const { return wakes_sent_; }
  [[nodiscard]] Duration tx_airtime_total() const { return tx_airtime_total_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] const Config& config() const { return config_; }

  // --- sim::MediumClient -----------------------------------------------------
  /// Transmit-only: the WUR downlink has no receive path at the AP.
  void on_frame(const sim::RxFrame&) override {}
  [[nodiscard]] bool rx_enabled() const override { return false; }

 private:
  void schedule_next_tick();

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  Config config_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;

  // Cadence state: starting a round robin (or stop()) strands the
  // previous campaign's scheduled ticks via the epoch.
  std::uint64_t campaign_epoch_ = 0;
  std::vector<std::uint16_t> rr_ids_;
  std::size_t rr_index_ = 0;
  Duration tick_gap_{};
  TimePoint next_tick_at_{};

  /// Wake-frame sequence counter per WUR ID. A companion drops a frame
  /// repeating the last sequence it acted on, so each ID needs its own
  /// count: one shared counter gives device j the same number on every
  /// sweep of a fleet whose size is a multiple of 256.
  std::array<std::uint8_t, phy::WurPhy::kMaxId + 1> seq_{};
  std::uint64_t wakes_sent_ = 0;
  Duration tx_airtime_total_{};
};

}  // namespace wile::ap
