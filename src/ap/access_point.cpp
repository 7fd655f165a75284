#include "ap/access_point.hpp"

#include <algorithm>

#include "crypto/pbkdf2.hpp"
#include "net/llc.hpp"
#include "util/log.hpp"

namespace wile::ap {

using dot11::FrameControl;
using dot11::MgmtSubtype;

AccessPoint::AccessPoint(sim::Scheduler& scheduler, sim::Medium& medium,
                         sim::Position position, AccessPointConfig config, Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      rng_(rng),
      rsn_ie_(dot11::make_rsn_psk_ccmp_ie()) {
  node_id_ = medium_.attach(this, position);
  sim::CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_ = std::make_unique<sim::Csma>(scheduler_, medium_, node_id_, rng_.fork(), csma_cfg);
  if (!config_.passphrase.empty()) {
    pmk_ = crypto::wpa2_psk(config_.passphrase, config_.ssid);
    for (auto& b : gtk_) b = static_cast<std::uint8_t>(rng_.below(256));
  }
}

void AccessPoint::start() {
  down_ = false;
  if (beaconing_) return;
  beaconing_ = true;
  schedule_next_beacon();
}

void AccessPoint::stop() {
  if (down_) return;
  down_ = true;
  beaconing_ = false;
  if (beacon_timer_) {
    scheduler_.cancel(*beacon_timer_);
    beacon_timer_.reset();
  }
  ++stats_.outages;
  csma_->drop_queued();
  // A reboot loses all volatile state: associations, PTKs, PS buffers,
  // leases. Clients that think they are still associated will find their
  // frames ignored and must re-associate.
  clients_.clear();
  ip_to_mac_.clear();
}

bool AccessPoint::rx_enabled() const { return !down_ && !medium_.transmitting(node_id_); }

void AccessPoint::schedule_next_beacon() {
  const Duration interval{static_cast<std::int64_t>(config_.beacon_interval_tu) * 1024};
  beacon_timer_ = scheduler_.schedule_in(interval, [this] {
    beacon_timer_.reset();
    if (!beaconing_) return;
    send_beacon();
    schedule_next_beacon();
  });
}

void AccessPoint::send_beacon() {
  dot11::Beacon beacon;
  beacon.timestamp_us = static_cast<std::uint64_t>(scheduler_.now().us());
  beacon.beacon_interval_tu = config_.beacon_interval_tu;
  beacon.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  if (!config_.passphrase.empty()) beacon.capability |= dot11::Capability::kPrivacy;

  beacon.ies.add(dot11::make_ssid_ie(config_.ssid));
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  beacon.ies.add(dot11::make_ds_param_ie(config_.channel));

  dot11::Tim tim;
  tim.dtim_period = config_.dtim_period;
  for (const auto& [mac, cl] : clients_) {
    if (cl.power_save && !cl.buffered_llc.empty()) tim.aids.push_back(cl.aid);
  }
  std::sort(tim.aids.begin(), tim.aids.end());
  beacon.ies.add(dot11::make_tim_ie(tim));

  beacon.ies.add(dot11::make_country_ie());
  beacon.ies.add(dot11::make_erp_ie());
  beacon.ies.add(dot11::make_ht_caps_ie());
  if (!config_.passphrase.empty()) beacon.ies.add(rsn_ie_);

  const Bytes mpdu = dot11::build_mgmt_mpdu(MgmtSubtype::Beacon, MacAddress::broadcast(),
                                            config_.bssid, config_.bssid, next_seq(),
                                            beacon.encode());
  csma_->send(mpdu, config_.mgmt_rate, /*expect_ack=*/false,
              [this](const sim::Csma::Result&) { ++stats_.beacons_sent; });
}

void AccessPoint::send_ack_after_sifs(const MacAddress& to) {
  scheduler_.schedule_in(phy::MacTiming::kSifs, [this, to] {
    if (down_) return;
    if (medium_.transmitting(node_id_)) {
      // Extremely rare half-duplex clash; nudge the ACK slightly.
      scheduler_.schedule_in(Duration{10}, [this, to] { send_ack_after_sifs(to); });
      return;
    }
    sim::TxRequest req;
    req.mpdu = dot11::build_ack(to);
    req.airtime = phy::ack_airtime();
    req.tx_power_dbm = config_.tx_power_dbm;
    req.rate = phy::kControlResponseRate;
    medium_.transmit(node_id_, std::move(req));
    ++stats_.acks_sent;
  });
}

void AccessPoint::send_mgmt(MgmtSubtype subtype, const MacAddress& da, BytesView body,
                            bool expect_ack) {
  if (down_) return;
  const Bytes mpdu = dot11::build_mgmt_mpdu(subtype, da, config_.bssid, config_.bssid,
                                            next_seq(), body);
  csma_->send(mpdu, config_.mgmt_rate, expect_ack, {});
}

void AccessPoint::send_eapol(const MacAddress& da, const dot11::EapolKeyFrame& frame) {
  if (down_) return;
  const Bytes llc = net::llc_wrap(net::EtherType::Eapol, frame.encode());
  const Bytes mpdu = dot11::build_data_from_ds(da, config_.bssid, config_.bssid, next_seq(),
                                               llc, /*protected_frame=*/false);
  csma_->send(mpdu, config_.data_rate, /*expect_ack=*/true, {});
}

void AccessPoint::on_frame(const sim::RxFrame& frame) {
  // Control frames first: ACK (for our unicast sends) and PS-Poll.
  if (dot11::is_control_frame(frame.mpdu)) {
    if (auto ack = dot11::parse_ack(frame.mpdu); ack && ack->fcs_ok) {
      if (ack->receiver == config_.bssid) csma_->notify_ack();
      return;
    }
    if (auto poll = dot11::parse_ps_poll(frame.mpdu); poll && poll->fcs_ok) {
      if (poll->bssid == config_.bssid) {
        ++stats_.ps_poll_received;
        send_ack_after_sifs(poll->transmitter);
        handle_ps_poll(*poll);
      }
      return;
    }
    return;
  }

  auto parsed = dot11::parse_mpdu(frame.mpdu);
  if (!parsed || !parsed->fcs_ok) return;
  const dot11::MacHeader& h = parsed->header;

  // Ignore our own network's downlink frames echoed by the medium.
  if (h.addr2 == config_.bssid) return;

  const bool for_us = h.addr1 == config_.bssid;
  const bool broadcast = h.addr1.is_broadcast();
  if (!for_us) {
    csma_->observe_nav(h.duration_id);  // virtual carrier sense
    if (!broadcast) return;
  }

  // Every good unicast frame addressed to us is acknowledged.
  if (for_us) send_ack_after_sifs(h.addr2);

  switch (h.fc.type) {
    case dot11::FrameType::Management:
      switch (static_cast<MgmtSubtype>(h.fc.subtype)) {
        case MgmtSubtype::ProbeRequest:
          handle_probe_request(*parsed);
          break;
        case MgmtSubtype::Authentication:
          handle_auth(*parsed);
          break;
        case MgmtSubtype::AssocRequest:
          handle_assoc_request(*parsed);
          break;
        default:
          break;
      }
      break;
    case dot11::FrameType::Data:
      handle_data(*parsed);
      break;
    default:
      break;
  }
}

void AccessPoint::handle_probe_request(const dot11::ParsedMpdu& mpdu) {
  auto req = dot11::ProbeRequest::decode(mpdu.body);
  if (!req) return;
  // Respond to wildcard probes and probes naming our SSID.
  const auto ssid = dot11::parse_ssid_ie(req->ies);
  if (ssid && !ssid->empty() && *ssid != config_.ssid) return;

  dot11::ProbeResponse resp;
  resp.timestamp_us = static_cast<std::uint64_t>(scheduler_.now().us());
  resp.beacon_interval_tu = config_.beacon_interval_tu;
  resp.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  if (!config_.passphrase.empty()) resp.capability |= dot11::Capability::kPrivacy;
  resp.ies.add(dot11::make_ssid_ie(config_.ssid));
  resp.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  resp.ies.add(dot11::make_ds_param_ie(config_.channel));
  resp.ies.add(dot11::make_ht_caps_ie());
  if (!config_.passphrase.empty()) resp.ies.add(rsn_ie_);

  ++stats_.probe_responses;
  send_mgmt(MgmtSubtype::ProbeResponse, mpdu.header.addr2, resp.encode(),
            /*expect_ack=*/true);
}

void AccessPoint::handle_auth(const dot11::ParsedMpdu& mpdu) {
  auto auth = dot11::Authentication::decode(mpdu.body);
  if (!auth || auth->transaction_seq != 1) return;

  const MacAddress sta = mpdu.header.addr2;
  dot11::Authentication resp;
  resp.transaction_seq = 2;
  if (auth->algorithm != dot11::Authentication::Algorithm::OpenSystem) {
    resp.status = dot11::StatusCode::AuthAlgoUnsupported;
  } else {
    client(sta).state = ClientState::Authenticated;
  }
  scheduler_.schedule_in(config_.auth_processing, [this, sta, resp] {
    ++stats_.auth_responses;
    send_mgmt(MgmtSubtype::Authentication, sta, resp.encode(), /*expect_ack=*/true);
  });
}

void AccessPoint::handle_assoc_request(const dot11::ParsedMpdu& mpdu) {
  auto req = dot11::AssocRequest::decode(mpdu.body);
  if (!req) return;
  const MacAddress sta = mpdu.header.addr2;
  auto it = clients_.find(sta);
  if (it == clients_.end()) return;  // must authenticate first

  Client& cl = it->second;
  if (cl.aid == 0) cl.aid = next_aid_++;
  cl.state = ClientState::Associated;

  dot11::AssocResponse resp;
  resp.status = dot11::StatusCode::Success;
  resp.aid = cl.aid;
  resp.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  resp.ies.add(dot11::make_ht_caps_ie());

  scheduler_.schedule_in(config_.assoc_processing, [this, sta, resp] {
    ++stats_.assoc_responses;
    send_mgmt(MgmtSubtype::AssocResponse, sta, resp.encode(), /*expect_ack=*/true);
    // Protected network: kick off the 4-way handshake after the assoc
    // response is on its way.
    if (!config_.passphrase.empty()) {
      auto cit = clients_.find(sta);
      if (cit == clients_.end()) return;
      Client& cl2 = cit->second;
      for (auto& b : cl2.anonce) b = static_cast<std::uint8_t>(rng_.below(256));
      cl2.eapol_replay = 1;
      cl2.state = ClientState::HandshakeM1;
      scheduler_.schedule_in(config_.eapol_processing, [this, sta] {
        auto cit2 = clients_.find(sta);
        if (cit2 == clients_.end()) return;
        send_eapol(sta, dot11::make_handshake_m1(cit2->second.eapol_replay,
                                                 cit2->second.anonce));
      });
    } else {
      auto cit = clients_.find(sta);
      if (cit != clients_.end()) cit->second.state = ClientState::Ready;
    }
  });
}

void AccessPoint::handle_data(const dot11::ParsedMpdu& mpdu) {
  const dot11::MacHeader& h = mpdu.header;
  if (!h.fc.to_ds || h.fc.from_ds) return;
  const MacAddress sta = h.addr2;

  update_power_save(sta, h.fc.power_management);

  if (h.fc.is_data(dot11::DataSubtype::Null)) return;  // PS signalling only
  ++stats_.data_frames_received;

  auto it = clients_.find(sta);
  if (it == clients_.end()) return;
  Client& cl = it->second;

  Bytes plain_body;
  BytesView body = mpdu.body;
  if (h.fc.protected_frame) {
    if (!cl.ccmp) return;
    auto opened = cl.ccmp->open(sta, body);
    if (!opened) {
      warn() << "AP: CCMP open failed for " << sta.to_string();
      return;
    }
    plain_body = std::move(*opened);
    body = plain_body;
  }

  auto llc = net::LlcSnap::decode(body);
  if (!llc) return;
  switch (llc->ethertype) {
    case net::EtherType::Eapol:
      ++stats_.eapol_frames_received;
      handle_eapol(sta, llc->payload);
      break;
    case net::EtherType::Ipv4:
      handle_uplink_ip(sta, llc->payload);
      break;
    case net::EtherType::Arp: {
      auto arp = net::ArpPacket::decode(llc->payload);
      if (arp) handle_arp(sta, *arp);
      break;
    }
  }
}

void AccessPoint::handle_eapol(const MacAddress& sta, BytesView eapol_bytes) {
  auto frame = dot11::EapolKeyFrame::decode(eapol_bytes);
  if (!frame) return;
  auto it = clients_.find(sta);
  if (it == clients_.end()) return;
  Client& cl = it->second;

  const int msg = dot11::handshake_message_number(*frame);
  if (msg == 2 && cl.state == ClientState::HandshakeM1) {
    // Derive the PTK from the supplicant nonce and verify the MIC.
    cl.ptk = crypto::derive_ptk(pmk_, config_.bssid, sta, cl.anonce, frame->nonce);
    if (!frame->verify_mic(cl.ptk.kck)) {
      warn() << "AP: M2 MIC mismatch from " << sta.to_string();
      return;
    }
    cl.state = ClientState::HandshakeM3;
    cl.eapol_replay += 1;
    scheduler_.schedule_in(config_.eapol_processing, [this, sta] {
      auto cit = clients_.find(sta);
      if (cit == clients_.end()) return;
      Client& c = cit->second;
      ByteWriter w(rsn_ie_.data.size() + 2);
      w.u8(static_cast<std::uint8_t>(dot11::IeId::Rsn));
      w.u8(static_cast<std::uint8_t>(rsn_ie_.data.size()));
      w.bytes(rsn_ie_.data);
      const Bytes rsn_encoded = w.take();
      send_eapol(sta, dot11::make_handshake_m3(c.eapol_replay, c.anonce, rsn_encoded,
                                               gtk_, c.ptk.kck, c.ptk.kek));
    });
  } else if (msg == 4 && cl.state == ClientState::HandshakeM3) {
    if (!frame->verify_mic(cl.ptk.kck)) return;
    cl.state = ClientState::Ready;
    cl.ccmp = std::make_unique<dot11::CcmpSession>(cl.ptk.tk);
    ++stats_.handshakes_completed;
  }
}

void AccessPoint::handle_uplink_ip(const MacAddress& sta, BytesView packet) {
  auto parsed = net::Ipv4Header::decode(packet);
  if (!parsed || !parsed->checksum_ok) return;
  if (parsed->header.protocol != net::IpProto::Udp) return;
  auto udp = net::UdpDatagram::decode(parsed->payload, parsed->header.source,
                                      parsed->header.destination);
  if (!udp || !udp->checksum_ok) return;

  if (udp->datagram.dest_port == net::DhcpMessage::kServerPort) {
    auto dhcp = net::DhcpMessage::decode(udp->datagram.payload);
    if (dhcp) handle_dhcp(sta, *dhcp);
    return;
  }
  ++stats_.uplink_udp_datagrams;
  if (uplink_) uplink_(sta, parsed->header, udp->datagram);
}

void AccessPoint::handle_dhcp(const MacAddress& sta, const net::DhcpMessage& msg) {
  auto reply_llc = [this](const net::DhcpMessage& reply) {
    const Bytes udp = net::udp_packet(config_.ip, net::DhcpMessage::kServerPort,
                                      net::Ipv4Address::broadcast(),
                                      net::DhcpMessage::kClientPort, reply.encode());
    return net::llc_wrap(net::EtherType::Ipv4, udp);
  };

  if (msg.type == net::DhcpMessageType::Discover) {
    const net::Ipv4Address offered = allocate_ip(sta);
    const net::DhcpMessage offer =
        net::DhcpMessage::offer(msg, offered, config_.ip, config_.dhcp_lease_seconds);
    scheduler_.schedule_in(config_.dhcp_offer_delay, [this, sta, llc = reply_llc(offer)] {
      if (down_) return;
      // DHCP OFFER/ACK go out as broadcast data frames (the client has no
      // committed address yet and sets the broadcast flag).
      const Bytes mpdu =
          dot11::build_data_from_ds(MacAddress::broadcast(), config_.bssid, config_.bssid,
                                    next_seq(), llc, /*protected_frame=*/false);
      csma_->send(mpdu, config_.mgmt_rate, /*expect_ack=*/false, {});
    });
  } else if (msg.type == net::DhcpMessageType::Request) {
    const auto requested = msg.ip_option(net::DhcpOption::kRequestedIp);
    const net::Ipv4Address assigned = requested ? *requested : allocate_ip(sta);
    auto it = clients_.find(sta);
    if (it != clients_.end()) it->second.lease = assigned;
    ip_to_mac_[assigned.value()] = sta;
    const net::DhcpMessage ack =
        net::DhcpMessage::ack(msg, assigned, config_.ip, config_.dhcp_lease_seconds);
    scheduler_.schedule_in(config_.dhcp_ack_delay, [this, llc = reply_llc(ack)] {
      if (down_) return;
      ++stats_.dhcp_acks_sent;
      const Bytes mpdu =
          dot11::build_data_from_ds(MacAddress::broadcast(), config_.bssid, config_.bssid,
                                    next_seq(), llc, /*protected_frame=*/false);
      csma_->send(mpdu, config_.mgmt_rate, /*expect_ack=*/false, {});
    });
  }
}

void AccessPoint::handle_arp(const MacAddress& sta, const net::ArpPacket& arp) {
  if (arp.op != net::ArpPacket::Op::Request) return;  // announcements: observe only
  if (arp.target_ip != config_.ip) return;
  const net::ArpPacket reply =
      net::ArpPacket::reply(config_.bssid, config_.ip, arp.sender_mac, arp.sender_ip);
  scheduler_.schedule_in(config_.arp_reply_delay, [this, sta, reply] {
    ++stats_.arp_replies_sent;
    deliver_or_buffer(sta, net::llc_wrap(net::EtherType::Arp, reply.encode()));
  });
}

void AccessPoint::handle_ps_poll(const dot11::PsPollFrame& poll) {
  auto it = clients_.find(poll.transmitter);
  if (it == clients_.end()) return;
  Client& cl = it->second;
  if (cl.buffered_llc.empty()) return;
  Bytes llc = std::move(cl.buffered_llc.front());
  cl.buffered_llc.pop_front();
  ++stats_.buffered_frames_delivered;
  send_downlink_llc(poll.transmitter, std::move(llc), !cl.buffered_llc.empty());
}

void AccessPoint::update_power_save(const MacAddress& sta, bool ps) {
  auto it = clients_.find(sta);
  if (it == clients_.end()) return;
  Client& cl = it->second;
  if (cl.power_save == ps) return;
  cl.power_save = ps;
  if (!ps) {
    // Waking: flush everything we buffered.
    while (!cl.buffered_llc.empty()) {
      Bytes llc = std::move(cl.buffered_llc.front());
      cl.buffered_llc.pop_front();
      ++stats_.buffered_frames_delivered;
      send_downlink_llc(sta, std::move(llc), !cl.buffered_llc.empty());
    }
  }
}

void AccessPoint::send_downlink_llc(const MacAddress& da, Bytes llc, bool more_data) {
  if (down_) return;
  auto it = clients_.find(da);
  const bool protect = it != clients_.end() && it->second.ccmp != nullptr;
  Bytes body = protect ? it->second.ccmp->seal(config_.bssid, llc) : std::move(llc);
  const Bytes mpdu = dot11::build_data_from_ds(da, config_.bssid, config_.bssid, next_seq(),
                                               body, protect, more_data);
  csma_->send(mpdu, config_.data_rate, /*expect_ack=*/true, {});
}

void AccessPoint::deliver_or_buffer(const MacAddress& da, Bytes llc) {
  auto it = clients_.find(da);
  if (it != clients_.end() && it->second.power_save) {
    it->second.buffered_llc.push_back(std::move(llc));
    return;
  }
  send_downlink_llc(da, std::move(llc), /*more_data=*/false);
}

bool AccessPoint::send_downlink_udp(const MacAddress& sta, net::Ipv4Address src_ip,
                                    std::uint16_t src_port, std::uint16_t dst_port,
                                    BytesView payload) {
  auto it = clients_.find(sta);
  if (it == clients_.end() || !it->second.lease) return false;
  const Bytes packet = net::udp_packet(src_ip, src_port, *it->second.lease, dst_port, payload);
  deliver_or_buffer(sta, net::llc_wrap(net::EtherType::Ipv4, packet));
  return true;
}

bool AccessPoint::client_ready(const MacAddress& sta) const {
  auto it = clients_.find(sta);
  return it != clients_.end() && it->second.state == ClientState::Ready;
}

std::optional<net::Ipv4Address> AccessPoint::client_ip(const MacAddress& sta) const {
  auto it = clients_.find(sta);
  if (it == clients_.end()) return std::nullopt;
  return it->second.lease;
}

AccessPoint::Client& AccessPoint::client(const MacAddress& sta) { return clients_[sta]; }

net::Ipv4Address AccessPoint::allocate_ip(const MacAddress& sta) {
  auto it = clients_.find(sta);
  if (it != clients_.end()) {
    if (it->second.lease) return *it->second.lease;
    if (it->second.offered) return *it->second.offered;
  }
  const net::Ipv4Address ip{config_.dhcp_pool_start.value() + next_host_++};
  if (it != clients_.end()) it->second.offered = ip;
  return ip;
}

void AccessPoint::publish_metrics(telemetry::MetricsRegistry& registry,
                                  sim::NodeId node) const {
  using S = ApStats;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<S>("beacons_sent", [](const S& s) { return s.beacons_sent; }),
      telemetry::counter<S>("probe_responses", [](const S& s) { return s.probe_responses; }),
      telemetry::counter<S>("auth_responses", [](const S& s) { return s.auth_responses; }),
      telemetry::counter<S>("assoc_responses", [](const S& s) { return s.assoc_responses; }),
      telemetry::counter<S>("handshakes_completed",
                            [](const S& s) { return s.handshakes_completed; }),
      telemetry::counter<S>("acks_sent", [](const S& s) { return s.acks_sent; }),
      telemetry::counter<S>("data_frames_received",
                            [](const S& s) { return s.data_frames_received; }),
      telemetry::counter<S>("eapol_frames_received",
                            [](const S& s) { return s.eapol_frames_received; }),
      telemetry::counter<S>("dhcp_acks_sent", [](const S& s) { return s.dhcp_acks_sent; }),
      telemetry::counter<S>("arp_replies_sent", [](const S& s) { return s.arp_replies_sent; }),
      telemetry::counter<S>("uplink_udp_datagrams",
                            [](const S& s) { return s.uplink_udp_datagrams; }),
      telemetry::counter<S>("ps_poll_received", [](const S& s) { return s.ps_poll_received; }),
      telemetry::counter<S>("buffered_frames_delivered",
                            [](const S& s) { return s.buffered_frames_delivered; }),
      telemetry::counter<S>("outages", [](const S& s) { return s.outages; }),
  };
  static constexpr telemetry::Schema kSchema{"ap", kRows};
  registry.bind_node(node, kSchema, &stats_);
}

}  // namespace wile::ap
