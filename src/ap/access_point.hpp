// Simulated WiFi access point (the paper's Google WiFi, §5.1).
//
// Implements everything the paper's connection-cost accounting relies
// on, with real frames end to end:
//   * periodic beacons with TIM,
//   * probe / open-system auth / association responders,
//   * WPA2-PSK authenticator (genuine PBKDF2 / PRF-384 / HMAC-SHA1 MICs,
//     GTK delivery via AES Key Wrap),
//   * CCMP-protected data path after the handshake,
//   * DHCP server and ARP responder (the "7 higher-layer frames"),
//   * 802.11 power-save buffering: TIM bits, PS-Poll service, more-data.
//
// The AP is mains powered, so it carries no power timeline — only the
// IoT-device side is metered, as in the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "dot11/ccmp.hpp"
#include "dot11/eapol.hpp"
#include "dot11/frame.hpp"
#include "net/arp.hpp"
#include "net/dhcp.hpp"
#include "net/udp.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace wile::ap {

struct AccessPointConfig {
  std::string ssid = "GoogleWifi";
  /// Empty passphrase = open network (no RSN, no handshake).
  std::string passphrase = "hotnets2019";
  MacAddress bssid = MacAddress::from_seed(0xA9);
  std::uint8_t channel = 6;
  std::uint16_t beacon_interval_tu = 100;  // 102.4 ms
  std::uint8_t dtim_period = 1;

  net::Ipv4Address ip{192, 168, 86, 1};
  net::Ipv4Address dhcp_pool_start{192, 168, 86, 20};
  std::uint32_t dhcp_lease_seconds = 86'400;

  /// Server-side processing latencies. Fig. 3a shows "fairly long wait
  /// times for network layer messages such as DHCP"; these reproduce
  /// that plateau.
  Duration auth_processing = msec(3);
  Duration assoc_processing = msec(5);
  Duration eapol_processing = msec(15);
  Duration dhcp_offer_delay = msec(200);
  Duration dhcp_ack_delay = msec(150);
  Duration arp_reply_delay = msec(45);

  phy::WifiRate mgmt_rate = phy::WifiRate::G6;
  phy::WifiRate data_rate = phy::WifiRate::Mcs7;
  double tx_power_dbm = 20.0;
};

/// Counters exposed for tests and the frame-count experiment (E5).
struct ApStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t probe_responses = 0;
  std::uint64_t auth_responses = 0;
  std::uint64_t assoc_responses = 0;
  std::uint64_t handshakes_completed = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t data_frames_received = 0;
  std::uint64_t eapol_frames_received = 0;
  std::uint64_t dhcp_acks_sent = 0;
  std::uint64_t arp_replies_sent = 0;
  std::uint64_t uplink_udp_datagrams = 0;
  std::uint64_t ps_poll_received = 0;
  std::uint64_t buffered_frames_delivered = 0;
  /// Crash-and-reboot accounting: stop() calls observed.
  std::uint64_t outages = 0;
};

class AccessPoint : public sim::MediumClient {
 public:
  AccessPoint(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
              AccessPointConfig config, Rng rng);

  /// Begin beaconing (also restarts after stop()). Without start() the AP
  /// still answers probes (it is just silent between them), which some
  /// tests exploit.
  void start();

  /// Take the AP down — power cut or crash. Beaconing stops, the radio
  /// goes deaf and mute, queued frames are discarded, and all
  /// association/handshake/lease state is lost, exactly as a reboot
  /// would lose it. start() brings it back with fresh state; clients must
  /// re-associate from scratch.
  void stop();

  [[nodiscard]] bool running() const { return !down_; }

  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] const AccessPointConfig& config() const { return config_; }
  [[nodiscard]] const ApStats& stats() const { return stats_; }

  /// Bind AP counters into a telemetry registry as node `node`'s
  /// ("node.<node>.ap.*"); stats() keeps the same slots.
  void publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) const;

  /// Uplink sink: called for every decrypted/deencapsulated UDP datagram
  /// a client sends through the AP.
  using UplinkHandler = std::function<void(
      const MacAddress& sta, const net::Ipv4Header& ip, const net::UdpDatagram& udp)>;
  void set_uplink_handler(UplinkHandler handler) { uplink_ = std::move(handler); }

  /// Queue a downlink UDP datagram toward an associated client. Respects
  /// power save: buffered + TIM-advertised if the client sleeps.
  /// Returns false if the STA is unknown.
  bool send_downlink_udp(const MacAddress& sta, net::Ipv4Address src_ip,
                         std::uint16_t src_port, std::uint16_t dst_port, BytesView payload);

  /// True once the given STA is associated (and through the handshake if
  /// the network is protected).
  [[nodiscard]] bool client_ready(const MacAddress& sta) const;
  [[nodiscard]] std::optional<net::Ipv4Address> client_ip(const MacAddress& sta) const;

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class ClientState {
    Authenticated,   // passed open-system auth
    Associated,      // assoc response sent; handshake pending if RSN
    HandshakeM1,     // M1 sent, waiting for M2
    HandshakeM3,     // M3 sent, waiting for M4
    Ready,           // open network associated, or RSN handshake done
  };

  struct Client {
    ClientState state = ClientState::Authenticated;
    std::uint16_t aid = 0;
    std::array<std::uint8_t, 32> anonce{};
    crypto::PairwiseTransientKey ptk{};
    std::uint64_t eapol_replay = 0;
    std::unique_ptr<dot11::CcmpSession> ccmp;
    bool power_save = false;
    std::deque<Bytes> buffered_llc;  // downlink LLC payloads awaiting PS-Poll
    std::optional<net::Ipv4Address> lease;
    std::optional<net::Ipv4Address> offered;  // stable across DISCOVER retries
  };

  void send_beacon();
  void schedule_next_beacon();
  void send_ack_after_sifs(const MacAddress& to);
  void send_mgmt(dot11::MgmtSubtype subtype, const MacAddress& da, BytesView body,
                 bool expect_ack);
  void send_eapol(const MacAddress& da, const dot11::EapolKeyFrame& frame);
  void send_downlink_llc(const MacAddress& da, Bytes llc, bool more_data);
  void deliver_or_buffer(const MacAddress& da, Bytes llc);

  void handle_probe_request(const dot11::ParsedMpdu& mpdu);
  void handle_auth(const dot11::ParsedMpdu& mpdu);
  void handle_assoc_request(const dot11::ParsedMpdu& mpdu);
  void handle_data(const dot11::ParsedMpdu& mpdu);
  void handle_eapol(const MacAddress& sta, BytesView eapol_bytes);
  void handle_uplink_ip(const MacAddress& sta, BytesView packet);
  void handle_dhcp(const MacAddress& sta, const net::DhcpMessage& msg);
  void handle_arp(const MacAddress& sta, const net::ArpPacket& arp);
  void handle_ps_poll(const dot11::PsPollFrame& poll);
  void update_power_save(const MacAddress& sta, bool ps);

  Client& client(const MacAddress& sta);
  [[nodiscard]] net::Ipv4Address allocate_ip(const MacAddress& sta);
  std::uint16_t next_seq() { return seq_++ & 0x0fff; }

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  AccessPointConfig config_;
  Rng rng_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;

  Bytes pmk_;                         // PBKDF2(passphrase, ssid)
  std::array<std::uint8_t, 16> gtk_{};
  dot11::InfoElement rsn_ie_;
  bool beaconing_ = false;
  bool down_ = false;
  std::optional<sim::EventId> beacon_timer_;
  std::uint16_t seq_ = 0;
  std::uint16_t next_aid_ = 1;
  std::uint32_t next_host_ = 0;

  std::unordered_map<MacAddress, Client> clients_;
  std::unordered_map<std::uint32_t, MacAddress> ip_to_mac_;
  UplinkHandler uplink_;
  ApStats stats_;
};

}  // namespace wile::ap
