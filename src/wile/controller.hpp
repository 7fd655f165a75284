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
// Per-device bookkeeping (downlink queue, downlink sequence) lives in one
// DeviceState record per device inside a flat open-addressing table
// (util/flat_table.hpp). A record exists only for a device that has had
// a downlink queued or an uplink acknowledged; a fragment announcing an
// RX window costs one lookup.
#pragma once

#include <deque>
#include <memory>

#include "phy/airtime.hpp"
#include "sim/csma.hpp"
#include "util/flat_table.hpp"
#include "wile/receiver.hpp"

namespace wile::core {

/// Everything the controller keeps about one device. The downlink queue
/// — present for a tiny fraction of a massive-IoT fleet — lives behind a
/// lazily allocated pointer, so a record that never queues a downlink
/// stays flat and allocation-free.
struct DeviceState {
  std::uint32_t downlink_seq = 0;
  std::unique_ptr<std::deque<Bytes>> queued_downlinks;

  [[nodiscard]] bool has_queued() const {
    return queued_downlinks != nullptr && !queued_downlinks->empty();
  }
  /// The downlink queue, allocated on first use.
  [[nodiscard]] std::deque<Bytes>& queue() {
    if (!queued_downlinks) queued_downlinks = std::make_unique<std::deque<Bytes>>();
    return *queued_downlinks;
  }
};

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
};

struct ControllerStats {
  std::uint64_t downlinks_queued = 0;
  std::uint64_t downlinks_sent = 0;
  std::uint64_t windows_seen = 0;
  std::uint64_t acks_sent = 0;
};

class Controller : public sim::MediumClient {
 public:
  Controller(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
             ControllerConfig config, Rng rng);

  /// Queue a downlink payload; it rides the target's next RX window.
  /// Throws std::invalid_argument for a payload larger than one element
  /// carries (Codec::max_fragment_data(false, false)): the device does
  /// not reassemble.
  void queue_downlink(std::uint32_t device_id, Bytes data);

  using MessageCallback = std::function<void(const Message&, const RxMeta&)>;
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }

  /// Bind controller counters into a telemetry registry as node
  /// `node`'s ("node.<node>.controller.*").
  void publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) const;

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class TxKind { Downlink, Ack };

  void inject_downlink(std::uint32_t device_id, DeviceState& dev,
                       const RxWindow& window);
  void schedule_injection(const RxWindow& window, Message message, TxKind kind);
  [[nodiscard]] Bytes build_downlink_beacon(const Message& message);

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  ControllerConfig config_;
  Rng rng_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;
  Codec codec_;
  Reassembler reassembler_;
  MessageCallback callback_;

  util::FlatTable<DeviceState> devices_;
  std::uint16_t seq_ctl_ = 0;
  ControllerStats stats_;
};

}  // namespace wile::core
