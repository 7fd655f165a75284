#include "sta/station.hpp"

#include <utility>

#include "crypto/pbkdf2.hpp"
#include "net/llc.hpp"
#include "util/log.hpp"

namespace wile::sta {

using dot11::FrameControl;
using dot11::MgmtSubtype;
using power::PhaseId;

Station::Station(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
                 StationConfig config, Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      rng_(rng),
      timeline_(config_.power.supply),
      tracker_(scheduler, timeline_, config_.power.radio_tx, config_.power.tx_ramp) {
  node_id_ = medium_.attach(this, position);
  sim::CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_ = std::make_unique<sim::Csma>(scheduler_, medium_, node_id_, rng_.fork(), csma_cfg);
  csma_->set_tx_listener([this](Duration airtime, phy::WifiRate rate) {
    ++stats_.mac_frames_sent;
    const bool legacy = phy::rate_info(rate).modulation != phy::Modulation::HtMixed;
    tracker_.on_tx_start(airtime,
                         legacy ? std::optional<Amps>{config_.power.radio_tx_legacy}
                                : std::nullopt);
  });
  if (!config_.passphrase.empty()) {
    // The ESP32 caches the PMK in NVS; derive once, not per connection.
    pmk_ = crypto::wpa2_psk(config_.passphrase, config_.ssid);
  }
  timeline_.set_current(scheduler_.now(), config_.power.deep_sleep, PhaseId::Sleep);
}

bool Station::radio_on() const {
  switch (phase_) {
    case Phase::Probe:
    case Phase::Auth:
    case Phase::Assoc:
    case Phase::Handshake:
    case Phase::Dhcp:
    case Phase::Arp:
    case Phase::SendData:
    case Phase::PsBeaconRx:
    case Phase::PsSend:
      return true;
    default:
      return false;
  }
}

bool Station::rx_enabled() const {
  return radio_on() && !medium_.transmitting(node_id_);
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

void Station::run_duty_cycle_transmission(Bytes payload, CycleCallback done) {
  if (phase_ != Phase::DeepSleep) {
    throw std::logic_error("Station: duty-cycle transmission requires deep sleep");
  }
  pending_payload_ = std::move(payload);
  cycle_done_ = std::move(done);
  connect_then_ps_ = false;
  begin_wake();
}

void Station::connect_and_enter_power_save(ReadyCallback ready) {
  if (phase_ != Phase::DeepSleep) {
    throw std::logic_error("Station: connect requires deep sleep");
  }
  ready_cb_ = std::move(ready);
  connect_then_ps_ = true;
  begin_wake();
}

void Station::power_save_send(Bytes payload, CycleCallback done) {
  // Accept sends both from light sleep and from within a beacon-listen
  // window (the radio is already up in the latter case).
  if (phase_ != Phase::PsIdle && phase_ != Phase::PsBeaconRx) {
    throw std::logic_error("Station: power_save_send requires PS mode");
  }
  pending_payload_ = std::move(payload);
  cycle_done_ = std::move(done);
  wake_time_ = scheduler_.now();
  phase_ = Phase::PsSend;
  tracker_.set_phase(config_.power.cpu_active, PhaseId::Tx);
  // MCU wake from automatic light sleep, then hand the frame to the MAC.
  // Epoch guards: if the link is torn down (fault injection, beacon
  // loss) while these continuations are pending, they must not run
  // against the replacement association.
  scheduler_.schedule_in(config_.power.ps_wake_time, [this, epoch = link_epoch_] {
    if (epoch != link_epoch_) return;
    send_payload_and_finish([this, epoch] {
      if (epoch != link_epoch_) return;
      // Post-TX driver work, then settle back into PS idle.
      scheduler_.schedule_in(config_.power.ps_tx_processing, [this, epoch] {
        if (epoch != link_epoch_) return;
        const CycleReport report = cycle_report(true);
        enter_ps_idle();
        if (auto cb = std::exchange(cycle_done_, {})) cb(report);
      });
    });
  });
}

// ---------------------------------------------------------------------------
// Connect flow.
// ---------------------------------------------------------------------------

void Station::begin_wake() {
  wake_time_ = scheduler_.now();
  phase_ = Phase::Boot;
  step_attempts_ = 0;
  counting_connect_frames_ = true;
  tracker_.set_phase(config_.power.cpu_active, PhaseId::Init);
  const Duration init_time = config_.power.boot_from_deep_sleep + config_.power.wifi_client_init;
  scheduler_.schedule_in(init_time, [this] {
    phase_ = Phase::Probe;
    tracker_.set_phase(config_.power.radio_rx, PhaseId::Associate);
    step_probe();
  });
}

void Station::step_probe() {
  dot11::ProbeRequest req;
  req.ies.add(dot11::make_ssid_ie(config_.ssid));
  req.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  const Bytes mpdu =
      dot11::build_mgmt_mpdu(MgmtSubtype::ProbeRequest, MacAddress::broadcast(), config_.mac,
                             MacAddress::broadcast(), next_seq(), req.encode());
  ++stats_.connect_mac_frames;
  csma_->send(mpdu, config_.mgmt_rate, /*expect_ack=*/false, {});
  arm_step_timeout([this] { step_probe(); });
}

void Station::step_auth() {
  phase_ = Phase::Auth;
  dot11::Authentication auth;
  auth.transaction_seq = 1;
  ++stats_.connect_mac_frames;
  send_mgmt(MgmtSubtype::Authentication, auth.encode(), /*expect_ack=*/true);
  arm_step_timeout([this] { step_auth(); });
}

void Station::step_assoc() {
  phase_ = Phase::Assoc;
  dot11::AssocRequest req;
  req.listen_interval = static_cast<std::uint16_t>(config_.listen_skip);
  req.ies.add(dot11::make_ssid_ie(config_.ssid));
  req.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  req.ies.add(dot11::make_ht_caps_ie());
  if (!config_.passphrase.empty()) req.ies.add(dot11::make_rsn_psk_ccmp_ie());
  ++stats_.connect_mac_frames;
  send_mgmt(MgmtSubtype::AssocRequest, req.encode(), /*expect_ack=*/true);
  arm_step_timeout([this] { step_assoc(); });
}

void Station::on_m1(const dot11::EapolKeyFrame& m1) {
  disarm_step_timeout();
  for (auto& b : snonce_) b = static_cast<std::uint8_t>(rng_.below(256));
  ptk_ = crypto::derive_ptk(pmk_, bssid_, config_.mac, m1.nonce, snonce_);
  // Supplicant-side key derivation takes real time on the MCU.
  const std::uint64_t replay = m1.replay_counter;
  scheduler_.schedule_in(config_.power.wpa2_crypto_time, [this, replay] {
    const dot11::InfoElement rsn = dot11::make_rsn_psk_ccmp_ie();
    ByteWriter w(rsn.data.size() + 2);
    w.u8(static_cast<std::uint8_t>(dot11::IeId::Rsn));
    w.u8(static_cast<std::uint8_t>(rsn.data.size()));
    w.bytes(rsn.data);
    const Bytes rsn_encoded = w.take();
    const auto m2 = dot11::make_handshake_m2(replay, snonce_, rsn_encoded, ptk_.kck);
    ++stats_.connect_mac_frames;
    send_llc_to_ap(net::EtherType::Eapol, m2.encode(), /*protect=*/false,
                   /*power_management=*/false);
    arm_step_timeout([this] { fail_step("handshake M3 timeout"); });
  });
}

void Station::on_m3(const dot11::EapolKeyFrame& m3) {
  if (!m3.verify_mic(ptk_.kck)) {
    warn() << "STA: M3 MIC mismatch";
    return;
  }
  disarm_step_timeout();
  const auto gtk = dot11::extract_gtk(m3, ptk_.kek);
  if (!gtk) {
    fail_step("M3 carried no GTK");
    return;
  }
  const auto m4 = dot11::make_handshake_m4(m3.replay_counter, ptk_.kck);
  ++stats_.connect_mac_frames;
  send_llc_to_ap(net::EtherType::Eapol, m4.encode(), /*protect=*/false,
                 /*power_management=*/false);
  ccmp_ = std::make_unique<dot11::CcmpSession>(ptk_.tk);
  step_dhcp_discover();
}

void Station::step_dhcp_discover() {
  if (phase_ != Phase::Dhcp) {
    // First entry (not a retry): fresh transaction id; retransmissions
    // reuse it, as RFC 2131 requires.
    phase_ = Phase::Dhcp;
    dhcp_xid_ = static_cast<std::uint32_t>(rng_.next());
  }
  tracker_.set_phase(config_.power.dfs_idle_wait, PhaseId::Dhcp);
  const auto discover = net::DhcpMessage::discover(dhcp_xid_, config_.mac);
  const Bytes packet =
      net::udp_packet(net::Ipv4Address::any(), net::DhcpMessage::kClientPort,
                      net::Ipv4Address::broadcast(), net::DhcpMessage::kServerPort,
                      discover.encode());
  ++stats_.connect_higher_layer_frames;
  send_llc_to_ap(net::EtherType::Ipv4, packet, ccmp_ != nullptr, false);
  arm_step_timeout([this] { step_dhcp_discover(); }, config_.dhcp_timeout);
}

void Station::step_dhcp_request() {
  const auto request = net::DhcpMessage::request(*dhcp_offer_, config_.mac);
  const Bytes packet =
      net::udp_packet(net::Ipv4Address::any(), net::DhcpMessage::kClientPort,
                      net::Ipv4Address::broadcast(), net::DhcpMessage::kServerPort,
                      request.encode());
  ++stats_.connect_higher_layer_frames;
  send_llc_to_ap(net::EtherType::Ipv4, packet, ccmp_ != nullptr, false);
  arm_step_timeout([this] { step_dhcp_request(); }, config_.dhcp_timeout);
}

void Station::step_arp() {
  phase_ = Phase::Arp;
  const auto arp = net::ArpPacket::request(config_.mac, *ip_, gateway_ip_);
  ++stats_.connect_higher_layer_frames;
  send_llc_to_ap(net::EtherType::Arp, arp.encode(), ccmp_ != nullptr, false);
  arm_step_timeout([this] { step_arp(); });
}

void Station::step_announce_and_send() {
  // Gratuitous ARP announcement of our new address (the 7th higher-layer
  // frame of §3.1).
  net::ArpPacket announce = net::ArpPacket::request(config_.mac, *ip_, *ip_);
  ++stats_.connect_higher_layer_frames;
  send_llc_to_ap(net::EtherType::Arp, announce.encode(), ccmp_ != nullptr, false);
  counting_connect_frames_ = false;

  if (connect_then_ps_) {
    // Tell the AP we are entering power save, then settle into PS idle.
    const Bytes null_mpdu =
        dot11::build_null_data(bssid_, config_.mac, next_seq(), /*power_management=*/true);
    csma_->send(null_mpdu, config_.mgmt_rate, /*expect_ack=*/true,
                [this, epoch = link_epoch_](const sim::Csma::Result&) {
                  if (epoch != link_epoch_) return;
                  enter_ps_idle();
                  if (ready_cb_) {
                    auto cb = std::move(ready_cb_);
                    ready_cb_ = {};
                    cb(true);
                  }
                });
    return;
  }

  phase_ = Phase::SendData;
  tracker_.set_phase(config_.power.radio_rx, PhaseId::Tx);
  send_payload_and_finish([this] { finish_cycle(true); });
}

void Station::send_payload_and_finish(std::function<void()> after_tx) {
  const Bytes packet = net::udp_packet(ip_.value_or(net::Ipv4Address::any()),
                                       config_.source_port, config_.server_ip,
                                       config_.server_port, pending_payload_);
  const Bytes llc = net::llc_wrap(net::EtherType::Ipv4, packet);
  Bytes body = ccmp_ ? ccmp_->seal(config_.mac, llc) : llc;
  const bool pm = phase_ == Phase::PsSend;  // stay in PS while transmitting
  const Bytes mpdu = dot11::build_data_to_ds(bssid_, config_.mac, bssid_, next_seq(), body,
                                             ccmp_ != nullptr, pm);
  last_tx_was_connect_frame_ = false;
  csma_->send(mpdu, config_.data_rate, /*expect_ack=*/true,
              [this, epoch = link_epoch_,
               after_tx = std::move(after_tx)](const sim::Csma::Result& r) {
                if (epoch != link_epoch_) return;
                if (r.success) {
                  ++stats_.data_packets_sent;
                  after_tx();
                } else if (phase_ == Phase::PsSend) {
                  fail_ps_send();
                } else {
                  fail_step("data frame never acknowledged");
                }
              });
}

void Station::finish_cycle(bool success) {
  disarm_step_timeout();
  phase_ = Phase::Shutdown;
  tracker_.set_phase(config_.power.cpu_active, PhaseId::Init);
  scheduler_.schedule_in(config_.power.shutdown_time, [this, success] {
    const CycleReport report = cycle_report(success);
    enter_deep_sleep();
    if (auto cb = std::exchange(cycle_done_, {})) cb(report);
  });
}

CycleReport Station::cycle_report(bool success) const {
  // Read before the caller's sleep transition or after it alike: a
  // segment that starts now adds nothing to [wake, now).
  CycleReport report;
  report.success = success;
  report.wake_time = wake_time_;
  report.sleep_time = scheduler_.now();
  report.active_time = report.sleep_time - report.wake_time;
  report.energy = timeline_.energy_between(report.wake_time, report.sleep_time);
  return report;
}

void Station::enter_deep_sleep() {
  phase_ = Phase::DeepSleep;
  ++link_epoch_;  // invalidate continuations of the association being torn down
  ccmp_.reset();
  ip_.reset();
  dhcp_offer_.reset();
  last_beacon_time_.reset();
  consecutive_beacon_misses_ = 0;
  tracker_.set_phase(config_.power.deep_sleep, PhaseId::Sleep);
}

void Station::fail_ps_send() {
  // A PS-mode data frame exhausted its MAC retries: either the AP is
  // gone or it rebooted and forgot us. Report the failed cycle to the
  // caller, then declare the link dead so the owner can re-associate.
  const CycleReport report = cycle_report(false);
  auto cb = std::exchange(cycle_done_, {});
  declare_link_lost("PS data frame never acknowledged");
  if (cb) cb(report);
}

void Station::declare_link_lost(const char* why) {
  warn() << "STA: link lost: " << why;
  ++stats_.link_losses;
  if (ps_wake_timer_) {
    scheduler_.cancel(*ps_wake_timer_);
    ps_wake_timer_.reset();
  }
  disarm_step_timeout();
  enter_deep_sleep();
  if (link_lost_) link_lost_();
}

void Station::force_link_down() {
  if (phase_ != Phase::PsIdle && phase_ != Phase::PsBeaconRx && phase_ != Phase::PsSend) {
    return;  // only an established PS link can be killed
  }
  if (phase_ == Phase::PsSend && cycle_done_) {
    fail_ps_send();
    return;
  }
  declare_link_lost("forced down (injected fault)");
}

void Station::fail_step(const char* what) {
  warn() << "STA: connect step failed: " << what;
  counting_connect_frames_ = false;
  if (connect_then_ps_) {
    enter_deep_sleep();
    if (ready_cb_) {
      auto cb = std::move(ready_cb_);
      ready_cb_ = {};
      cb(false);
    }
    return;
  }
  finish_cycle(false);
}

// ---------------------------------------------------------------------------
// Power save idle.
// ---------------------------------------------------------------------------

void Station::enter_ps_idle() {
  phase_ = Phase::PsIdle;
  tracker_.set_phase(config_.power.light_sleep, PhaseId::Sleep);
  // A wake timer may survive from before a PS send; never run two chains.
  if (ps_wake_timer_) {
    scheduler_.cancel(*ps_wake_timer_);
    ps_wake_timer_.reset();
  }
  schedule_ps_beacon_wake();
}

void Station::schedule_ps_beacon_wake() {
  const Duration beacon_interval{static_cast<std::int64_t>(beacon_interval_tu_) * 1024};
  const Duration listen = beacon_interval * config_.listen_skip;
  // Anchor the wake-up to the AP's TBTT schedule (tracked from the last
  // beacon we actually heard), waking a guard interval early.
  TimePoint target = scheduler_.now() + listen;
  if (last_beacon_time_) {
    TimePoint tbtt = *last_beacon_time_ + listen;
    while (tbtt - config_.ps_wake_guard <= scheduler_.now()) tbtt += beacon_interval;
    target = tbtt - config_.ps_wake_guard;
  }
  ps_wake_timer_ = scheduler_.schedule_at(target, [this] {
    ps_wake_timer_.reset();
    if (phase_ != Phase::PsIdle) return;  // a send is in progress
    phase_ = Phase::PsBeaconRx;
    beacon_seen_in_window_ = false;
    tracker_.set_phase(config_.power.radio_rx, PhaseId::Sleep);
    // The close event is tracked in ps_wake_timer_ too, so a teardown
    // mid-window cancels the whole chain.
    ps_wake_timer_ = scheduler_.schedule_in(config_.ps_beacon_rx_window, [this] {
      ps_wake_timer_.reset();
      close_ps_beacon_window();
    });
  });
}

void Station::close_ps_beacon_window() {
  if (phase_ == Phase::PsBeaconRx) {
    phase_ = Phase::PsIdle;
    tracker_.set_phase(config_.power.light_sleep, PhaseId::Sleep);
    if (!beacon_seen_in_window_) {
      ++stats_.beacons_missed;
      ++consecutive_beacon_misses_;
      if (config_.beacon_loss_limit > 0 &&
          consecutive_beacon_misses_ >= config_.beacon_loss_limit) {
        // N consecutive silent TBTTs: the AP is gone (or we drifted so
        // far off its schedule that the link is useless either way).
        declare_link_lost("beacon loss");
        return;
      }
    }
  }
  schedule_ps_beacon_wake();
}

// ---------------------------------------------------------------------------
// Frame handling.
// ---------------------------------------------------------------------------

void Station::on_frame(const sim::RxFrame& frame) {
  if (dot11::is_control_frame(frame.mpdu)) {
    if (auto ack = dot11::parse_ack(frame.mpdu); ack && ack->fcs_ok) {
      if (ack->receiver == config_.mac) {
        ++stats_.mac_frames_received;
        ++stats_.acks_received;
        // Attribute the ACK to whatever we last transmitted: ACKs of
        // management/EAPOL frames belong to the paper's "20 MAC-layer
        // frames"; ACKs of DHCP/ARP data frames do not.
        if (counting_connect_frames_ && last_tx_was_connect_frame_) {
          ++stats_.connect_mac_frames;
        }
        csma_->notify_ack();
      }
    }
    return;
  }

  auto parsed = dot11::parse_mpdu(frame.mpdu);
  if (!parsed || !parsed->fcs_ok) return;
  const dot11::MacHeader& h = parsed->header;

  const bool for_us = h.addr1 == config_.mac;
  const bool broadcast = h.addr1.is_broadcast();
  if (h.addr2 == config_.mac) return;  // our own transmissions
  if (!for_us) {
    // Virtual carrier sense: honour the overheard NAV reservation.
    csma_->observe_nav(h.duration_id);
    if (!broadcast) return;
  }

  ++stats_.mac_frames_received;
  if (for_us) {
    // Decide now whether this ACK counts toward the connect-frame tally:
    // it acknowledges a management frame or an (unprotected) EAPOL data
    // frame, not a DHCP/ARP exchange.
    bool connect_ack = false;
    if (counting_connect_frames_) {
      if (h.fc.type == dot11::FrameType::Management) {
        connect_ack = true;
      } else if (h.fc.type == dot11::FrameType::Data && !h.fc.protected_frame) {
        if (auto llc = net::LlcSnap::decode(mpdu_body_view(frame.mpdu))) {
          connect_ack = llc->ethertype == net::EtherType::Eapol;
        }
      }
    }
    send_ack_after_sifs(h.addr2, connect_ack);
  }

  switch (h.fc.type) {
    case dot11::FrameType::Management:
      handle_mgmt(*parsed);
      break;
    case dot11::FrameType::Data:
      handle_data(*parsed);
      break;
    default:
      break;
  }
}

void Station::send_ack_after_sifs(const MacAddress& to, bool count_as_connect) {
  scheduler_.schedule_in(phy::MacTiming::kSifs, [this, to, count_as_connect] {
    if (medium_.transmitting(node_id_)) {
      scheduler_.schedule_in(Duration{10},
                             [this, to, count_as_connect] {
                               send_ack_after_sifs(to, count_as_connect);
                             });
      return;
    }
    sim::TxRequest req;
    req.mpdu = dot11::build_ack(to);
    req.airtime = phy::ack_airtime();
    req.tx_power_dbm = config_.tx_power_dbm;
    req.rate = phy::kControlResponseRate;
    tracker_.on_tx_start(req.airtime, config_.power.radio_tx_legacy);
    ++stats_.mac_frames_sent;
    ++stats_.acks_sent;
    if (count_as_connect) ++stats_.connect_mac_frames;
    medium_.transmit(node_id_, std::move(req));
  });
}

BytesView Station::mpdu_body_view(BytesView mpdu) {
  // Strip header and FCS; callers have already validated the frame.
  return mpdu.subspan(dot11::MacHeader::kSize,
                      mpdu.size() - dot11::MacHeader::kSize - dot11::kFcsSize);
}

void Station::handle_mgmt(const dot11::ParsedMpdu& mpdu) {
  const dot11::MacHeader& h = mpdu.header;
  switch (static_cast<MgmtSubtype>(h.fc.subtype)) {
    case MgmtSubtype::ProbeResponse: {
      if (phase_ != Phase::Probe) return;
      auto resp = dot11::ProbeResponse::decode(mpdu.body);
      if (!resp) return;
      const auto ssid = dot11::parse_ssid_ie(resp->ies);
      if (!ssid || *ssid != config_.ssid) return;
      disarm_step_timeout();
      ++stats_.connect_mac_frames;
      bssid_ = h.addr3;
      beacon_interval_tu_ = resp->beacon_interval_tu;
      // Finish the scan dwell before authenticating.
      scheduler_.schedule_in(config_.probe_dwell, [this] {
        if (phase_ == Phase::Probe) step_auth();
      });
      break;
    }
    case MgmtSubtype::Authentication: {
      if (phase_ != Phase::Auth) return;
      auto auth = dot11::Authentication::decode(mpdu.body);
      if (!auth || auth->transaction_seq != 2) return;
      if (auth->status != dot11::StatusCode::Success) {
        fail_step("authentication rejected");
        return;
      }
      disarm_step_timeout();
      ++stats_.connect_mac_frames;
      step_assoc();
      break;
    }
    case MgmtSubtype::AssocResponse: {
      if (phase_ != Phase::Assoc) return;
      auto resp = dot11::AssocResponse::decode(mpdu.body);
      if (!resp) return;
      if (resp->status != dot11::StatusCode::Success) {
        fail_step("association rejected");
        return;
      }
      disarm_step_timeout();
      ++stats_.connect_mac_frames;
      aid_ = resp->aid;
      if (config_.passphrase.empty()) {
        step_dhcp_discover();
      } else {
        phase_ = Phase::Handshake;
        arm_step_timeout([this] { fail_step("handshake M1 timeout"); });
      }
      break;
    }
    case MgmtSubtype::Beacon: {
      auto beacon = dot11::Beacon::decode(mpdu.body);
      if (!beacon) return;
      // Track the AP's TBTT whenever the radio happens to be on, even
      // outside PS windows (e.g. during connection establishment).
      if (h.addr3 == bssid_ || bssid_.is_zero()) {
        if (h.addr3 == bssid_) last_beacon_time_ = scheduler_.now();
      }
      if (phase_ != Phase::PsBeaconRx && phase_ != Phase::PsIdle) return;
      if (h.addr3 != bssid_) return;
      ++stats_.beacons_heard;
      beacon_seen_in_window_ = true;
      consecutive_beacon_misses_ = 0;  // the link is alive
      const auto tim = dot11::parse_tim_ie(beacon->ies);
      if (tim && aid_ != 0 && tim->traffic_for(aid_)) {
        // Fetch the buffered frame with a PS-Poll.
        phase_ = Phase::PsBeaconRx;  // stay awake for the delivery
        sim::TxRequest req;
        req.mpdu = dot11::build_ps_poll(aid_, bssid_, config_.mac);
        req.airtime = phy::frame_airtime(req.mpdu.size(), phy::kControlResponseRate);
        req.tx_power_dbm = config_.tx_power_dbm;
        req.rate = phy::kControlResponseRate;
        tracker_.on_tx_start(req.airtime, config_.power.radio_tx_legacy);
        ++stats_.mac_frames_sent;
        ++stats_.ps_polls_sent;
        scheduler_.schedule_in(phy::MacTiming::kSifs, [this, req = std::move(req)]() mutable {
          if (!medium_.transmitting(node_id_)) medium_.transmit(node_id_, std::move(req));
        });
      }
      break;
    }
    default:
      break;
  }
}

void Station::handle_data(const dot11::ParsedMpdu& mpdu) {
  const dot11::MacHeader& h = mpdu.header;
  if (!h.fc.from_ds) return;
  if (h.addr2 != bssid_ && !bssid_.is_zero()) return;

  Bytes plain;
  BytesView body = mpdu.body;
  if (h.fc.protected_frame) {
    if (!ccmp_) return;
    auto opened = ccmp_->open(h.addr2, body);
    if (!opened) return;
    plain = std::move(*opened);
    body = plain;
  }

  auto llc = net::LlcSnap::decode(body);
  if (!llc) return;
  switch (llc->ethertype) {
    case net::EtherType::Eapol: {
      auto frame = dot11::EapolKeyFrame::decode(llc->payload);
      if (!frame) return;
      const int msg = dot11::handshake_message_number(*frame);
      if (msg == 1 && phase_ == Phase::Handshake) {
        ++stats_.connect_mac_frames;
        on_m1(*frame);
      } else if (msg == 3 && phase_ == Phase::Handshake) {
        ++stats_.connect_mac_frames;
        on_m3(*frame);
      }
      break;
    }
    case net::EtherType::Ipv4:
      handle_downlink_ip(llc->payload);
      break;
    case net::EtherType::Arp: {
      auto arp = net::ArpPacket::decode(llc->payload);
      if (!arp) return;
      if (phase_ == Phase::Arp && arp->op == net::ArpPacket::Op::Reply &&
          arp->sender_ip == gateway_ip_) {
        disarm_step_timeout();
        ++stats_.connect_higher_layer_frames;
        gateway_mac_ = arp->sender_mac;
        // Bind the address into the stack before announcing + sending.
        scheduler_.schedule_in(config_.ip_config_delay, [this] {
          if (phase_ == Phase::Arp) step_announce_and_send();
        });
      }
      break;
    }
  }
}

void Station::handle_downlink_ip(BytesView packet) {
  auto parsed = net::Ipv4Header::decode(packet);
  if (!parsed || !parsed->checksum_ok) return;
  if (parsed->header.protocol != net::IpProto::Udp) return;
  auto udp = net::UdpDatagram::decode(parsed->payload, parsed->header.source,
                                      parsed->header.destination);
  if (!udp || !udp->checksum_ok) return;

  if (udp->datagram.dest_port == net::DhcpMessage::kClientPort) {
    auto dhcp = net::DhcpMessage::decode(udp->datagram.payload);
    if (!dhcp || dhcp->xid != dhcp_xid_ || dhcp->chaddr != config_.mac) return;
    if (dhcp->type == net::DhcpMessageType::Offer && phase_ == Phase::Dhcp &&
        !dhcp_offer_) {
      disarm_step_timeout();
      ++stats_.connect_higher_layer_frames;
      dhcp_offer_ = *dhcp;
      step_dhcp_request();
    } else if (dhcp->type == net::DhcpMessageType::Ack && phase_ == Phase::Dhcp &&
               dhcp_offer_) {
      disarm_step_timeout();
      ++stats_.connect_higher_layer_frames;
      ip_ = dhcp->yiaddr;
      gateway_ip_ = dhcp->ip_option(net::DhcpOption::kRouter).value_or(dhcp->siaddr);
      step_arp();
    }
    return;
  }

  ++stats_.downlink_packets;
  if (downlink_) downlink_(parsed->header, udp->datagram);
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

void Station::send_mgmt(MgmtSubtype subtype, BytesView body, bool expect_ack) {
  const Bytes mpdu =
      dot11::build_mgmt_mpdu(subtype, bssid_, config_.mac, bssid_, next_seq(), body);
  last_tx_was_connect_frame_ = true;
  csma_->send(mpdu, config_.mgmt_rate, expect_ack, {});
}

void Station::send_llc_to_ap(net::EtherType ethertype, BytesView payload, bool protect,
                             bool power_management) {
  const Bytes llc = net::llc_wrap(ethertype, payload);
  Bytes body = protect && ccmp_ ? ccmp_->seal(config_.mac, llc) : llc;
  const Bytes mpdu = dot11::build_data_to_ds(bssid_, config_.mac, bssid_, next_seq(), body,
                                             protect && ccmp_ != nullptr, power_management);
  last_tx_was_connect_frame_ = ethertype == net::EtherType::Eapol;
  csma_->send(mpdu, config_.data_rate, /*expect_ack=*/true, {});
}

void Station::arm_step_timeout(std::function<void()> retry, std::optional<Duration> timeout) {
  // Cancel any previous timer but keep the attempt counter: retries of
  // the same step must accumulate toward the retry limit. The counter is
  // cleared by disarm_step_timeout() when a step *succeeds*.
  if (step_timer_) {
    scheduler_.cancel(*step_timer_);
    step_timer_.reset();
  }
  step_timer_ = scheduler_.schedule_in(timeout.value_or(config_.response_timeout),
                                       [this, retry = std::move(retry)] {
    step_timer_.reset();
    if (++step_attempts_ > config_.step_retry_limit) {
      fail_step("too many retries");
      return;
    }
    retry();
  });
}

void Station::disarm_step_timeout() {
  if (step_timer_) {
    scheduler_.cancel(*step_timer_);
    step_timer_.reset();
  }
  step_attempts_ = 0;
}

void Station::publish_metrics(telemetry::MetricsRegistry& registry, std::string prefix) const {
  using S = StationStats;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<S>("mac_frames_sent", [](const S& s) { return s.mac_frames_sent; }),
      telemetry::counter<S>("mac_frames_received",
                            [](const S& s) { return s.mac_frames_received; }),
      telemetry::counter<S>("acks_sent", [](const S& s) { return s.acks_sent; }),
      telemetry::counter<S>("acks_received", [](const S& s) { return s.acks_received; }),
      telemetry::counter<S>("connect_mac_frames", [](const S& s) { return s.connect_mac_frames; }),
      telemetry::counter<S>("connect_higher_layer_frames",
                            [](const S& s) { return s.connect_higher_layer_frames; }),
      telemetry::counter<S>("data_packets_sent", [](const S& s) { return s.data_packets_sent; }),
      telemetry::counter<S>("beacons_heard", [](const S& s) { return s.beacons_heard; }),
      telemetry::counter<S>("ps_polls_sent", [](const S& s) { return s.ps_polls_sent; }),
      telemetry::counter<S>("downlink_packets", [](const S& s) { return s.downlink_packets; }),
      telemetry::counter<S>("beacons_missed", [](const S& s) { return s.beacons_missed; }),
      telemetry::counter<S>("link_losses", [](const S& s) { return s.link_losses; }),
  };
  static constexpr telemetry::Schema kSchema{"station", kRows};
  registry.bind_group(std::move(prefix), kSchema, &stats_);
}

}  // namespace wile::sta
