#include "sim/traffic.hpp"

namespace wile::sim {

TrafficSink::TrafficSink(Scheduler& scheduler, Medium& medium, Position position,
                         MacAddress mac)
    : scheduler_(scheduler), medium_(medium), mac_(mac) {
  node_id_ = medium_.attach(this, position);
}

bool TrafficSink::rx_enabled() const { return !medium_.transmitting(node_id_); }

void TrafficSink::on_frame(const RxFrame& frame) {
  auto parsed = dot11::parse_mpdu(frame.mpdu);  // nullopt for control frames
  if (!parsed || !parsed->fcs_ok) return;
  if (parsed->header.addr1 != mac_) return;
  ++received_;
  bytes_ += parsed->body.size();
  const MacAddress ta = parsed->header.addr2;
  scheduler_.schedule_in(phy::MacTiming::kSifs, [this, ta] {
    if (medium_.transmitting(node_id_)) return;  // half-duplex clash: drop the ACK
    TxRequest req;
    req.mpdu = dot11::build_ack(ta);
    req.airtime = phy::ack_airtime();
    req.rate = phy::kControlResponseRate;
    req.tx_power_dbm = 20.0;
    medium_.transmit(node_id_, std::move(req));
  });
}

TrafficSource::TrafficSource(Scheduler& scheduler, Medium& medium, Position position,
                             TrafficConfig config, Rng rng)
    : scheduler_(scheduler), medium_(medium), config_(config), rng_(rng) {
  node_id_ = medium_.attach(this, position);
  CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_ = std::make_unique<Csma>(scheduler_, medium_, node_id_, rng_.fork(), csma_cfg);
}

bool TrafficSource::rx_enabled() const { return !medium_.transmitting(node_id_); }

void TrafficSource::on_frame(const RxFrame& frame) {
  if (auto ack = dot11::parse_ack(frame.mpdu); ack && ack->fcs_ok) {
    if (ack->receiver == config_.source_mac) csma_->notify_ack();
    return;
  }
  if (auto parsed = dot11::parse_mpdu(frame.mpdu);
      parsed && parsed->fcs_ok && parsed->header.addr1 != config_.source_mac) {
    csma_->observe_nav(parsed->header.duration_id);
  }
}

void TrafficSource::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void TrafficSource::stop() { running_ = false; }

void TrafficSource::schedule_next() {
  // Poisson arrivals at the offered rate.
  const double mean_gap_us = 1e6 / config_.frames_per_second;
  const double gap = -mean_gap_us * std::log(1.0 - rng_.uniform());
  scheduler_.schedule_in(Duration{static_cast<std::int64_t>(gap) + 1}, [this] {
    if (!running_) return;
    offer_frame();
    schedule_next();
  });
}

void TrafficSource::offer_frame() {
  ++offered_;
  Bytes payload(config_.frame_bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng_.below(256));
  const Bytes mpdu =
      dot11::build_data_to_ds(config_.sink_mac, config_.source_mac, config_.sink_mac,
                              seq_++ & 0x0fff, payload, /*protected_frame=*/false);
  csma_->send(mpdu, config_.rate, /*expect_ack=*/true, [this](const Csma::Result& r) {
    if (r.success) {
      ++delivered_;
    } else {
      ++failed_;
    }
  });
}

}  // namespace wile::sim
