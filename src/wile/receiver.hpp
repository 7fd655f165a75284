// The Wi-LE receiver — any WiFi device in monitor mode, or an ordinary
// smartphone/laptop whose OS surfaces received beacons (§4: "Upon
// receiving a WiFi beacon frame, the MAC layer forwards it to higher
// layer ... an application looks for special beacon frames transmitted
// by IoT devices and extracts their data").
//
// The receiver is passive: it never transmits, it just watches the
// medium for beacons carrying Wi-LE vendor elements, reassembles
// fragments, de-duplicates by (device, sequence), and keeps a per-device
// registry with loss estimates from sequence gaps.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "dot11/frame.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "wile/codec.hpp"

namespace wile::core {

struct ReceiverConfig {
  /// Device key for encrypted payloads (must match the senders').
  std::optional<Bytes> key;
  /// Accept only beacons using the hidden-SSID discipline (reject
  /// spoofed-SSID senders). Off by default: a monitor sees everything.
  bool require_hidden_ssid = false;
  /// Reassembly memory bound: at most this many in-progress fragmented
  /// messages are held; beyond it the stalest partial is evicted
  /// (surfaced as ReceiverStats::partials_evicted).
  std::size_t max_partials = Reassembler::kDefaultMaxPartials;
};

struct ReceiverStats {
  std::uint64_t beacons_seen = 0;         // all beacons, Wi-LE or not
  std::uint64_t wile_beacons = 0;         // beacons with >= 1 Wi-LE element
  std::uint64_t fragments = 0;
  std::uint64_t messages = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t decrypt_failures = 0;
  std::uint64_t fcs_failures = 0;         // corrupt radio frames observed
  std::uint64_t collisions_observed = 0;
  // --- FEC ---
  std::uint64_t recovery_beacons = 0; // distinct Recovery messages seen
  /// Messages rebuilt from recovery beacons without retransmission.
  /// Counted in `messages` too.
  std::uint64_t recovered = 0;
  std::uint64_t partials_evicted = 0; // reassembler memory-bound drops
};

struct DeviceInfo {
  std::uint32_t device_id = 0;
  std::uint32_t last_sequence = 0;
  std::uint64_t messages = 0;
  std::uint64_t estimated_losses = 0;  // from sequence gaps
  /// Sliding window over the last 64 sequence numbers: bit i set means
  /// sequence (last_sequence - i) was received. Lets a late retransmitted
  /// beacon fill its gap (decrementing estimated_losses) instead of being
  /// miscounted as a duplicate or inflating the loss estimate.
  std::uint64_t recent_seen = 1;
  TimePoint first_seen{};
  TimePoint last_seen{};
  double last_rssi_dbm = 0.0;
};

struct RxMeta {
  TimePoint received_at{};
  double rssi_dbm = 0.0;
  MacAddress bssid;  // the fake-AP address the device used
};

class Receiver : public sim::MediumClient {
 public:
  Receiver(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
           ReceiverConfig config = {});

  using MessageCallback = std::function<void(const Message&, const RxMeta&)>;
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }

  /// Bind this receiver's counters into a telemetry registry as node
  /// `node`'s ("node.<node>.receiver.*"), or under an aggregate prefix
  /// (a Gateway's "<gateway>.monitor"); stats() remains a view of the
  /// exact same slots.
  void publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) const;
  void publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const;
  /// Registry ordered by device id (stable iteration for tests/benches).
  [[nodiscard]] const std::map<std::uint32_t, DeviceInfo>& devices() const {
    return devices_;
  }

  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] const ReceiverConfig& config() const { return config_; }
  /// In-progress fragmented messages currently held. The chaos
  /// harness's partial-table oracle pins this to config().max_partials.
  [[nodiscard]] std::size_t reassembler_partials() const {
    return reassembler_.partials();
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  void on_corrupt_frame(const sim::RxFrame& frame, bool collision) override;
  [[nodiscard]] bool rx_enabled() const override;
  /// A monitor-mode 802.11 radio: it demodulates 802.11 PPDUs only.
  [[nodiscard]] bool demodulates(const std::optional<phy::WifiRate>& rate) const override;

 private:
  /// The receiver's metrics (stats() plus the device registry's size and
  /// its loss estimate), for both kinds of binding.
  static const telemetry::Schema& metric_schema();
  /// How many payloads (and how far back in sequence space) the FEC
  /// machinery can reach: matches DeviceInfo::recent_seen's 64-bit
  /// horizon, so anything the bitmap remembers is XOR-reconstructable.
  static constexpr std::size_t kPayloadCacheSize = 64;
  static constexpr std::size_t kMaxPendingRecoveries = 8;

  /// Per-device erasure-decoding state: recently delivered payloads (the
  /// XOR inputs) and recovery beacons still waiting for a second loss in
  /// their group to be filled by a later beacon or delivery.
  struct FecState {
    PayloadHistory<kPayloadCacheSize> cache;
    std::vector<RecoveryPayload> pending;
    std::optional<std::uint32_t> last_recovery_seq;
  };

  void accept_fragment(Fragment fragment, const RxMeta& meta);
  /// Registry update (dedup, gap/loss accounting, wrap-safe). Returns
  /// false for duplicates and beyond-horizon stragglers.
  bool register_message(const Message& message, const RxMeta& meta);
  /// Registry + cache + user callback for one completed message.
  void deliver(const Message& message, const RxMeta& meta, bool recovered);
  void handle_recovery(std::uint32_t device_id, std::uint32_t recovery_seq,
                       const RecoveryPayload& payload, const RxMeta& meta);
  /// Try to decode one recovery group. Returns true when the beacon is
  /// spent (recovered something, nothing missing, or unrecoverable) and
  /// false when it should stay pending.
  bool attempt_recovery(std::uint32_t device_id, const RecoveryPayload& payload,
                        const RxMeta& meta);
  /// Re-try pending recovery beacons until no further progress (one
  /// recovered message can complete another group).
  void drain_pending(std::uint32_t device_id, const RxMeta& meta);

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  ReceiverConfig config_;
  sim::NodeId node_id_;
  Codec codec_;
  Reassembler reassembler_;
  MessageCallback callback_;
  ReceiverStats stats_;
  std::map<std::uint32_t, DeviceInfo> devices_;
  std::map<std::uint32_t, FecState> fec_;
};

}  // namespace wile::core
