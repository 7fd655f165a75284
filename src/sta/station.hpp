// Simulated WiFi client station — the ESP32 firmware the paper measures.
//
// Implements the complete connection establishment of §3.1 with real
// frames: active probe, open-system authentication, association, the
// WPA2-PSK 4-way handshake (real key derivation and MICs), then
// DHCP DISCOVER/OFFER/REQUEST/ACK, ARP resolution of the gateway, a
// gratuitous ARP announcement, and finally the CCMP-protected UDP data
// packet. Every step drives the ESP32 power timeline, which is how the
// WiFi-DC trace of Fig. 3a and the Table-1 energies are produced.
//
// Two operating modes match the paper's §5.3 scenarios:
//   * duty cycle (WiFi-DC): deep sleep between transmissions; the whole
//     connect flow re-runs on every wake.
//   * power save (WiFi-PS): stay associated; sleep in automatic light
//     sleep waking for every `listen_skip`-th beacon; transmissions skip
//     re-association.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "dot11/ccmp.hpp"
#include "dot11/eapol.hpp"
#include "dot11/frame.hpp"
#include "net/arp.hpp"
#include "net/dhcp.hpp"
#include "net/llc.hpp"
#include "net/udp.hpp"
#include "power/devices.hpp"
#include "power/radio_tracker.hpp"
#include "power/timeline.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace wile::sta {

struct StationConfig {
  MacAddress mac = MacAddress::from_seed(0x57A);
  std::string ssid = "GoogleWifi";
  std::string passphrase = "hotnets2019";  // must match the AP (empty = open)
  /// Destination of the sensor reading (the paper's "base station").
  net::Ipv4Address server_ip{192, 168, 86, 2};
  std::uint16_t server_port = 9000;
  std::uint16_t source_port = 40000;

  phy::WifiRate mgmt_rate = phy::WifiRate::G6;
  phy::WifiRate data_rate = phy::WifiRate::Mcs7Sgi;  // 72 Mbps, as in §5.4
  double tx_power_dbm = 0.0;

  /// Listen interval for power-save mode: wake for every Nth beacon
  /// ("the WiFi chip wakes up only for every third beacon frame", §5.3).
  int listen_skip = 3;
  /// Radio-on window around each PS beacon reception (wake ramp +
  /// beacon airtime + TIM processing). Calibrated with listen_skip=3 to
  /// Table 1's 4500 uA average idle draw.
  Duration ps_beacon_rx_window = usec(10'300);
  /// Wake this long before the expected TBTT (sleep-clock guard).
  Duration ps_wake_guard = msec(2);
  /// PS-mode link supervision: after this many consecutive listen
  /// wake-ups with no beacon from our AP, declare the link dead, tear
  /// down to deep sleep and fire the link-lost handler. With
  /// listen_skip=3 and 100 TU beacons, the default detects an AP outage
  /// in ~8 * 307 ms ≈ 2.5 s. 0 disables supervision (pre-fault-injection
  /// behaviour: idle forever against a dead AP).
  int beacon_loss_limit = 8;

  /// Scan dwell after a probe response: real clients keep listening on
  /// the channel before committing to an AP (part of Fig. 3a's
  /// Probe/Auth./Associate phase width).
  Duration probe_dwell = msec(100);
  /// Network-stack configuration time after the address is bound
  /// (routes, gratuitous-ARP scheduling).
  Duration ip_config_delay = msec(60);
  /// Per-step response timeout before the step is retried.
  Duration response_timeout = msec(120);
  /// DHCP server processing is slow (Fig. 3a's long network-layer waits);
  /// real clients wait much longer before retransmitting.
  Duration dhcp_timeout = msec(900);
  int step_retry_limit = 4;

  power::Esp32PowerProfile power{};
};

/// Counters for the §3.1 frame-count claims (experiment E5).
struct StationStats {
  std::uint64_t mac_frames_sent = 0;      // everything incl. ACKs we emit
  std::uint64_t mac_frames_received = 0;  // frames addressed to us (incl. ACKs)
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  /// Management + EAPOL frames exchanged during connection establishment
  /// (both directions, including ACKs) — the paper's "20 MAC-layer
  /// frames".
  std::uint64_t connect_mac_frames = 0;
  /// DHCP/ARP packets exchanged (both directions) — the paper's
  /// "7 higher-layer frames".
  std::uint64_t connect_higher_layer_frames = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t beacons_heard = 0;
  std::uint64_t ps_polls_sent = 0;
  std::uint64_t downlink_packets = 0;
  /// PS listen windows that closed without hearing our AP's beacon.
  std::uint64_t beacons_missed = 0;
  /// Times link supervision (or a forced fault) declared the link dead.
  std::uint64_t link_losses = 0;
};

/// Summary of one completed transmission cycle.
struct CycleReport {
  bool success = false;
  TimePoint wake_time{};
  TimePoint sleep_time{};
  Joules energy{};           // integrated over [wake, sleep)
  Duration active_time{};    // sleep_time - wake_time
};

class Station : public sim::MediumClient {
 public:
  Station(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
          StationConfig config, Rng rng);

  using CycleCallback = std::function<void(const CycleReport&)>;
  using ReadyCallback = std::function<void(bool success)>;

  /// WiFi-DC: wake from deep sleep, run the full §3.1 connect flow, send
  /// one UDP payload, return to deep sleep, report.
  void run_duty_cycle_transmission(Bytes payload, CycleCallback done);

  /// WiFi-PS: connect once (same flow) and drop into power-save idle.
  void connect_and_enter_power_save(ReadyCallback ready);

  /// WiFi-PS: send one UDP payload from power-save idle (no
  /// re-association), reporting the wake-to-sleep cycle.
  void power_save_send(Bytes payload, CycleCallback done);

  /// Take back the buffer passed to the last payload-carrying send. The
  /// UDP packet copies the payload at TX time, so after the cycle
  /// callback fires (success or failure) the buffer is idle — a batching
  /// caller can reclaim it and re-fill in place instead of allocating a
  /// fresh one per send.
  [[nodiscard]] Bytes reclaim_payload() { return std::move(pending_payload_); }

  /// Downlink UDP sink (two-way traffic reaching this station).
  using DownlinkHandler =
      std::function<void(const net::Ipv4Header&, const net::UdpDatagram&)>;
  void set_downlink_handler(DownlinkHandler handler) { downlink_ = std::move(handler); }

  /// Invoked after the station declares its PS-mode link dead (beacon
  /// loss, an unacknowledged PS send, or force_link_down) and has torn
  /// down to deep sleep. The owner may call connect_and_enter_power_save
  /// again from inside the handler.
  using LinkLostHandler = std::function<void()>;
  void set_link_lost_handler(LinkLostHandler handler) { link_lost_ = std::move(handler); }

  /// Injected fault: the radio/driver dies while associated. Tears down
  /// to deep sleep immediately (failing any in-flight PS send via its
  /// callback) and fires the link-lost handler. No-op outside PS mode.
  void force_link_down();

  [[nodiscard]] bool deep_sleeping() const { return phase_ == Phase::DeepSleep; }

  [[nodiscard]] const power::PowerTimeline& timeline() const { return timeline_; }
  [[nodiscard]] const StationStats& stats() const { return stats_; }

  /// Bind station counters into a telemetry registry under the
  /// aggregate prefix `prefix` (a Gateway's "<gateway>.station");
  /// stats() keeps the same slots.
  void publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const;
  [[nodiscard]] const StationConfig& config() const { return config_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] std::optional<net::Ipv4Address> ip() const { return ip_; }
  /// Teardown generation of the current association (see link_epoch_).
  /// Strictly monotone for the station's lifetime — the chaos harness
  /// registers it as a monotone-counter invariant across brown-out
  /// resumes and forced link-downs.
  [[nodiscard]] std::uint64_t link_epoch() const { return link_epoch_; }
  [[nodiscard]] bool associated() const {
    return phase_ == Phase::PsIdle || phase_ == Phase::PsBeaconRx ||
           phase_ == Phase::PsSend;
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class Phase {
    DeepSleep,
    Boot,
    WifiInit,
    Probe,
    Auth,
    Assoc,
    Handshake,
    Dhcp,
    Arp,
    SendData,
    Shutdown,
    PsIdle,      // associated, automatic light sleep
    PsBeaconRx,  // awake listening for a beacon
    PsSend,      // awake transmitting in PS mode
  };

  // -- connect flow steps ------------------------------------------------------
  void begin_wake();
  void step_probe();
  void step_auth();
  void step_assoc();
  void on_m1(const dot11::EapolKeyFrame& m1);
  void on_m3(const dot11::EapolKeyFrame& m3);
  void step_dhcp_discover();
  void step_dhcp_request();
  void step_arp();
  void step_announce_and_send();
  void send_payload_and_finish(std::function<void()> after_tx);
  void finish_cycle(bool success);
  /// The cycle that woke at wake_time_ and ends now.
  [[nodiscard]] CycleReport cycle_report(bool success) const;
  void enter_deep_sleep();
  void enter_ps_idle();
  void schedule_ps_beacon_wake();
  void close_ps_beacon_window();
  void fail_step(const char* what);
  void fail_ps_send();
  void declare_link_lost(const char* why);

  // -- frame handling -----------------------------------------------------------
  void handle_mgmt(const dot11::ParsedMpdu& mpdu);
  void handle_data(const dot11::ParsedMpdu& mpdu);
  void handle_eapol(BytesView eapol_bytes);
  void handle_downlink_ip(BytesView packet);
  void send_ack_after_sifs(const MacAddress& to, bool count_as_connect = false);
  static BytesView mpdu_body_view(BytesView mpdu);

  // -- helpers -------------------------------------------------------------------
  void send_mgmt(dot11::MgmtSubtype subtype, BytesView body, bool expect_ack);
  void send_llc_to_ap(net::EtherType ethertype, BytesView payload, bool protect,
                      bool power_management);
  void arm_step_timeout(std::function<void()> retry,
                        std::optional<Duration> timeout = std::nullopt);
  void disarm_step_timeout();
  std::uint16_t next_seq() { return seq_++ & 0x0fff; }
  [[nodiscard]] bool radio_on() const;

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  StationConfig config_;
  Rng rng_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;
  power::PowerTimeline timeline_;
  power::RadioPowerTracker tracker_;

  Phase phase_ = Phase::DeepSleep;
  std::uint16_t seq_ = 0;
  int step_attempts_ = 0;
  std::optional<sim::EventId> step_timer_;
  std::optional<sim::EventId> ps_wake_timer_;
  /// Bumped on every teardown to deep sleep; continuation lambdas from a
  /// previous association (CSMA completions, PS timers) capture the epoch
  /// they were created in and bail out if it has moved on. Without this,
  /// a stale ACK-timeout callback could tear down a *new* association.
  std::uint64_t link_epoch_ = 0;
  int consecutive_beacon_misses_ = 0;
  bool beacon_seen_in_window_ = false;

  // connection state
  MacAddress bssid_;
  Bytes pmk_;
  std::array<std::uint8_t, 32> snonce_{};
  crypto::PairwiseTransientKey ptk_{};
  std::unique_ptr<dot11::CcmpSession> ccmp_;
  std::optional<net::Ipv4Address> ip_;
  MacAddress gateway_mac_;
  net::Ipv4Address gateway_ip_;
  std::optional<net::DhcpMessage> dhcp_offer_;
  std::uint32_t dhcp_xid_ = 0;
  std::uint16_t aid_ = 0;
  std::uint16_t beacon_interval_tu_ = 100;
  /// TSF tracking: arrival time of the last beacon heard from our AP,
  /// used to anchor power-save wake-ups to the TBTT schedule.
  std::optional<TimePoint> last_beacon_time_;

  // current cycle
  Bytes pending_payload_;
  CycleCallback cycle_done_;
  ReadyCallback ready_cb_;
  TimePoint wake_time_{};
  bool connect_then_ps_ = false;
  bool counting_connect_frames_ = false;
  /// Whether the most recent unicast we sent was a management/EAPOL
  /// frame (so its ACK counts toward the paper's 20 MAC frames).
  bool last_tx_was_connect_frame_ = false;

  DownlinkHandler downlink_;
  LinkLostHandler link_lost_;
  StationStats stats_;
};

}  // namespace wile::sta
