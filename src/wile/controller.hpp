// Two-way Wi-LE: the infrastructure-side controller (§6 "Two-way
// communication").
//
// "An IoT device that utilizes Wi-LE can indicate in some beacon frames
// that it will be ready to receive packets for a short time slot after
// the current beacon." The Controller is the other half of that scheme:
// a mains-powered WiFi card that monitors Wi-LE beacons like a Receiver
// and, when it has a payload queued for a device that just announced an
// RX window, injects a Downlink beacon inside that window.
//
// Per-device bookkeeping (loss track, downlink queue, downlink sequence)
// lives in one DeviceState record per device inside a flat open-addressing
// table (wile/ingest.hpp): each received fragment resolves its device with
// a single hash probe instead of the former three unordered_map lookups.
#pragma once

#include <memory>

#include "wile/ingest.hpp"
#include "wile/receiver.hpp"
#include "phy/airtime.hpp"
#include "sim/csma.hpp"

namespace wile::core {

struct ControllerConfig {
  std::optional<Bytes> key;  // shared device key, as for Receiver
  MacAddress mac = MacAddress::from_seed(0xC0117011E7ULL);
  phy::WifiRate rate = phy::WifiRate::Mcs7Sgi;
  double tx_power_dbm = 0.0;
  /// Injection is aimed this far into the announced window (leaves room
  /// for scheduling slop on both sides).
  Duration aim_into_window = msec(1);
  /// Acknowledge every completed uplink message from a window-announcing
  /// device with an Ack downlink — the controller half of the senders'
  /// reliable mode.
  bool auto_ack = false;
  /// Send a ChannelReport downlink (receiver-side loss estimate) into
  /// each announced RX window — the controller half of the senders'
  /// loss-adaptive redundancy. One report per announced sequence number.
  bool channel_reports = false;
  /// Sequence positions the loss estimate covers (1..64). Small windows
  /// react fast, large ones smooth; 16 converges within a handful of
  /// cycles yet rides out single losses.
  int report_window = 16;
};

struct ControllerStats {
  std::uint64_t downlinks_queued = 0;
  std::uint64_t downlinks_sent = 0;
  std::uint64_t windows_seen = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t reports_sent = 0;
};

class Controller : public sim::MediumClient {
 public:
  Controller(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
             ControllerConfig config, Rng rng);

  /// Queue a downlink payload; it rides the target's next RX window.
  void queue_downlink(std::uint32_t device_id, Bytes data);

  using MessageCallback = std::function<void(const Message&, const RxMeta&)>;
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }

  /// Bind controller counters into a telemetry registry under `prefix`
  /// (canonically "node.<id>.controller").
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       const std::string& prefix) const;

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class TxKind { Downlink, Ack, Report };

  void inject_downlink(std::uint32_t device_id, DeviceState& dev,
                       const RxWindow& window);
  void schedule_injection(const RxWindow& window, Message message, TxKind kind);
  [[nodiscard]] Bytes build_downlink_beacon(const Message& message);
  [[nodiscard]] ChannelReport make_report(const DeviceState& dev) const;

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  ControllerConfig config_;
  Rng rng_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;
  Codec codec_;
  Reassembler reassembler_;
  MessageCallback callback_;

  IngestTable devices_;
  std::uint16_t seq_ctl_ = 0;
  ControllerStats stats_;
};

}  // namespace wile::core
