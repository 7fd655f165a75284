#include "wile/controller.hpp"

#include <stdexcept>

#include "dot11/mgmt.hpp"

namespace wile::core {

Controller::Controller(sim::Scheduler& scheduler, sim::Medium& medium,
                       sim::Position position, ControllerConfig config, Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      rng_(rng),
      codec_(config_.key ? Codec{*config_.key} : Codec{}) {
  node_id_ = medium_.attach(this, position);
  sim::CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_ = std::make_unique<sim::Csma>(scheduler_, medium_, node_id_, rng_.fork(), csma_cfg);
}

bool Controller::rx_enabled() const { return !medium_.transmitting(node_id_); }

void Controller::queue_downlink(std::uint32_t device_id, Bytes data) {
  // The device keeps no reassembler: a downlink rides one element.
  if (data.size() > codec_.max_fragment_data(false, false)) {
    throw std::invalid_argument("Controller::queue_downlink: payload exceeds one element");
  }
  devices_.find_or_insert(device_id).queue().push_back(std::move(data));
  ++stats_.downlinks_queued;
}

void Controller::on_frame(const sim::RxFrame& frame) {
  const BeaconView beacon = read_beacon(frame.mpdu);
  if (beacon.status != BeaconStatus::Ok) return;
  const RxMeta meta{scheduler_.now(), frame.rx_power_dbm, beacon.addr3};

  codec_.for_each_fragment(beacon.elements, [&](std::optional<Fragment>&& fragment,
                                                DecodeError) {
    if (!fragment || !is_uplink_stream(fragment->type)) return;
    const std::optional<RxWindow> window = fragment->rx_window;
    if (window) {
      ++stats_.windows_seen;
      // Only a device with a queued downlink has a record to find.
      DeviceState* dev = devices_.find(fragment->device_id);
      if (dev != nullptr && dev->has_queued()) {
        inject_downlink(fragment->device_id, *dev, *window);
      }
    }
    if (auto message = reassembler_.add(std::move(*fragment))) {
      // Reliable mode: acknowledge completed uplinks into the window the
      // device just announced. Only data uplinks are acked — FEC and
      // control traffic is not part of the reliable stream.
      if (config_.auto_ack && window && is_uplink_data(message->type)) {
        Message ack;
        ack.device_id = message->device_id;
        ack.sequence = devices_.find_or_insert(message->device_id).downlink_seq++;
        ack.type = MessageType::Ack;
        ByteWriter w(4);
        w.u32le(message->sequence);
        ack.data = w.take();
        schedule_injection(*window, std::move(ack), TxKind::Ack);
      }
      if (callback_) callback_(*message, meta);
    }
  });
}

Bytes Controller::build_downlink_beacon(const Message& message) {
  dot11::Beacon beacon;
  beacon.timestamp_us = static_cast<std::uint64_t>(scheduler_.now().us());
  beacon.capability = dot11::Capability::kEss;
  beacon.ies.add(dot11::make_ssid_ie(""));  // hidden, like the devices
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  for (const auto& ie : codec_.encode(message)) beacon.ies.add(ie);
  return dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(),
                                config_.mac, config_.mac, seq_ctl_++ & 0x0fff,
                                beacon.encode());
}

void Controller::inject_downlink(std::uint32_t device_id, DeviceState& dev,
                                 const RxWindow& window) {
  Message message;
  message.device_id = device_id;
  message.sequence = dev.downlink_seq++;
  message.type = MessageType::Downlink;
  message.data = std::move(dev.queued_downlinks->front());
  dev.queued_downlinks->pop_front();
  schedule_injection(window, std::move(message), TxKind::Downlink);
}

void Controller::schedule_injection(const RxWindow& window, Message message, TxKind kind) {
  // The device starts listening `window.offset` after its beacon ended —
  // which is now (frames are delivered at end-of-airtime). Aim a little
  // into the window so CSMA slop does not miss it.
  const Duration lead = window.offset + config_.aim_into_window;
  scheduler_.schedule_in(lead, [this, message = std::move(message), kind] {
    const Bytes mpdu = build_downlink_beacon(message);
    csma_->send(mpdu, config_.rate, /*expect_ack=*/false,
                [this, kind](const sim::Csma::Result&) {
                  switch (kind) {
                    case TxKind::Ack: ++stats_.acks_sent; break;
                    case TxKind::Downlink: ++stats_.downlinks_sent; break;
                  }
                });
  });
}

void Controller::publish_metrics(telemetry::MetricsRegistry& registry, sim::NodeId node) const {
  using S = ControllerStats;
  static constexpr telemetry::Row kRows[] = {
      telemetry::counter<S>("downlinks_queued", [](const S& s) { return s.downlinks_queued; }),
      telemetry::counter<S>("downlinks_sent", [](const S& s) { return s.downlinks_sent; }),
      telemetry::counter<S>("windows_seen", [](const S& s) { return s.windows_seen; }),
      telemetry::counter<S>("acks_sent", [](const S& s) { return s.acks_sent; }),
  };
  static constexpr telemetry::Schema kSchema{"controller", kRows};
  registry.bind_node(node, kSchema, &stats_);
}

}  // namespace wile::core
