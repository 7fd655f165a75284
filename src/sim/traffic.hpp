// Background WiFi traffic generation.
//
// Wi-LE shares the 2.4 GHz band with ordinary WiFi networks; §4.1 argues
// it "does not interfere with the normal operation of WiFi networks".
// Testing that needs a controllable source of ordinary traffic: a
// unicast data-frame stream at a configurable offered load, driven
// through the same CSMA/CA machinery as everything else, and a sink that
// acknowledges like a real peer. Used by bench/ablate_coexistence and
// the loss tests.
#pragma once

#include <cstdint>
#include <memory>

#include "dot11/frame.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wile::sim {

struct TrafficConfig {
  MacAddress source_mac = MacAddress::from_seed(0x7A1);
  MacAddress sink_mac = MacAddress::from_seed(0x7A2);
  std::size_t frame_bytes = 1500;  // MPDU payload size
  double frames_per_second = 200.0;
  phy::WifiRate rate = phy::WifiRate::Mcs7;
  double tx_power_dbm = 20.0;
};

/// Acknowledges every good unicast frame addressed to it and counts
/// deliveries — the AP side of a download, or a file-server peer.
class TrafficSink : public MediumClient {
 public:
  TrafficSink(Scheduler& scheduler, Medium& medium, Position position, MacAddress mac);

  [[nodiscard]] std::uint64_t frames_received() const { return received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_; }
  [[nodiscard]] MacAddress mac() const { return mac_; }

  void on_frame(const RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  Scheduler& scheduler_;
  Medium& medium_;
  MacAddress mac_;
  NodeId node_id_{};
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Offers `frames_per_second` data frames through CSMA. Under contention
/// the queue drains slower than the offered rate — exactly how a real
/// saturated station behaves.
class TrafficSource : public MediumClient {
 public:
  TrafficSource(Scheduler& scheduler, Medium& medium, Position position,
                TrafficConfig config, Rng rng);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t frames_offered() const { return offered_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t frames_failed() const { return failed_; }

  void on_frame(const RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  void schedule_next();
  void offer_frame();

  Scheduler& scheduler_;
  Medium& medium_;
  TrafficConfig config_;
  Rng rng_;
  NodeId node_id_{};
  std::unique_ptr<Csma> csma_;
  bool running_ = false;
  std::uint16_t seq_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace wile::sim
