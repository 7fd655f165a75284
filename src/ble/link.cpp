#include "ble/link.hpp"

namespace wile::ble {

using power::PhaseId;

// ---------------------------------------------------------------------------
// Master.
// ---------------------------------------------------------------------------

BleMaster::BleMaster(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
                     BleLinkConfig config)
    : scheduler_(scheduler), medium_(medium), config_(config) {
  node_id_ = medium_.attach(this, position);
}

void BleMaster::start() {
  if (running_) return;
  running_ = true;
  scheduler_.schedule_in(config_.connection_interval, [this] { run_event(); });
}

bool BleMaster::rx_enabled() const { return !medium_.transmitting(node_id_); }

void BleMaster::run_event() {
  if (!running_) return;
  ++events_;
  const DataPdu poll = DataPdu::empty_poll(/*nesn=*/!sn_, /*sn=*/sn_);
  sn_ = !sn_;
  const Bytes packet =
      assemble_air_packet(config_.access_address, poll.encode(), config_.data_channel,
                          config_.crc_init);
  sim::TxRequest req;
  req.mpdu = packet;
  // On-air time includes the 1-byte preamble not present in `packet`.
  req.airtime = phy::BlePhy::pdu_airtime(poll.encode().size() - 2);
  req.tx_power_dbm = config_.tx_power_dbm;
  medium_.transmit(node_id_, std::move(req));
  scheduler_.schedule_in(config_.connection_interval, [this] { run_event(); });
}

void BleMaster::on_frame(const sim::RxFrame& frame) {
  auto air = parse_air_packet(frame.mpdu, config_.data_channel, config_.crc_init);
  if (!air || !air->crc_ok || air->access_address != config_.access_address) return;
  auto pdu = DataPdu::decode(air->pdu);
  if (!pdu) return;
  if (pdu->llid == DataPdu::Llid::Start && !pdu->payload.empty()) {
    received_.push_back(pdu->payload);
  }
}

// ---------------------------------------------------------------------------
// Slave.
// ---------------------------------------------------------------------------

BleSlave::BleSlave(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
                   BleLinkConfig config)
    : scheduler_(scheduler),
      medium_(medium),
      config_(config),
      timeline_(config.power.supply) {
  node_id_ = medium_.attach(this, position);
  timeline_.set_current(scheduler_.now(), config_.power.sleep, PhaseId::Sleep);
}

void BleSlave::start() {
  schedule_next_event(scheduler_.now() + config_.connection_interval);
}

void BleSlave::queue_payload(Bytes payload) {
  if (payload.size() > 27) throw std::invalid_argument("BLE payload exceeds 27 bytes");
  pending_.push_back(std::move(payload));
}

bool BleSlave::rx_enabled() const {
  return state_ == State::RxWait && !medium_.transmitting(node_id_);
}

void BleSlave::schedule_next_event(TimePoint anchor) {
  const Duration bring_up =
      config_.power.wake_up_time + config_.power.pre_processing_time + config_.rx_guard;
  const TimePoint wake_at = anchor - bring_up;
  scheduler_.schedule_at(wake_at, [this, anchor] {
    // Slave latency: with nothing to send and skips left in the budget,
    // sleep through this event entirely (the master transmits into
    // silence, as real masters do for latent slaves).
    if (config_.slave_latency > 0 && pending_.empty() &&
        consecutive_skips_ < config_.slave_latency) {
      ++consecutive_skips_;
      ++events_skipped_;
      schedule_next_event(anchor + config_.connection_interval);
      return;
    }
    consecutive_skips_ = 0;
    begin_event(anchor);
  });
}

void BleSlave::begin_event(TimePoint anchor) {
  ++events_;
  wake_time_ = scheduler_.now();
  state_ = State::WakeUp;
  timeline_.set_current(wake_time_, config_.power.wake_up, PhaseId::WakeUp);
  scheduler_.schedule_in(config_.power.wake_up_time, [this, anchor] {
    state_ = State::PreProcessing;
    timeline_.set_current(scheduler_.now(), config_.power.pre_processing, PhaseId::PreProcessing);
    scheduler_.schedule_in(config_.power.pre_processing_time, [this, anchor] {
      state_ = State::RxWait;
      timeline_.set_current(scheduler_.now(), config_.power.radio_rx, PhaseId::Rx);
      // Give up if the master's poll never arrives.
      const TimePoint deadline = anchor + config_.poll_timeout;
      poll_timer_ = scheduler_.schedule_at(deadline, [this] {
        poll_timer_.reset();
        ++polls_missed_;
        end_event(/*data_sent=*/false);
      });
    });
  });
}

void BleSlave::on_frame(const sim::RxFrame& frame) {
  if (state_ != State::RxWait) return;
  auto air = parse_air_packet(frame.mpdu, config_.data_channel, config_.crc_init);
  if (!air || !air->crc_ok || air->access_address != config_.access_address) return;
  auto pdu = DataPdu::decode(air->pdu);
  if (!pdu) return;

  if (poll_timer_) {
    scheduler_.cancel(*poll_timer_);
    poll_timer_.reset();
  }
  state_ = State::Ifs;
  timeline_.set_current(scheduler_.now(), config_.power.ifs_idle, PhaseId::Ifs);
  scheduler_.schedule_in(phy::BlePhy::kTifs, [this] { respond_with_data(); });
}

void BleSlave::respond_with_data() {
  DataPdu pdu;
  if (pending_.empty()) {
    pdu = DataPdu::empty_poll(!sn_, sn_);
  } else {
    pdu.llid = DataPdu::Llid::Start;
    pdu.payload = std::move(pending_.front());
    pending_.pop_front();
    pdu.nesn = !sn_;
    pdu.sn = sn_;
  }
  sn_ = !sn_;
  const bool has_data = pdu.llid == DataPdu::Llid::Start;

  const Bytes encoded = pdu.encode();
  const Bytes packet =
      assemble_air_packet(config_.access_address, encoded, config_.data_channel,
                          config_.crc_init);
  state_ = State::Tx;
  timeline_.set_current(scheduler_.now(), config_.power.radio_tx, PhaseId::Tx);

  sim::TxRequest req;
  req.mpdu = packet;
  req.airtime = phy::BlePhy::pdu_airtime(encoded.size() - 2);
  req.tx_power_dbm = config_.tx_power_dbm;
  req.on_complete = [this, has_data] {
    state_ = State::PostProcessing;
    timeline_.set_current(scheduler_.now(), config_.power.post_processing,
                          PhaseId::PostProcessing);
    scheduler_.schedule_in(config_.power.post_processing_time,
                           [this, has_data] { end_event(has_data); });
  };
  medium_.transmit(node_id_, std::move(req));
}

void BleSlave::end_event(bool data_sent) {
  state_ = State::Sleep;
  const TimePoint sleep_at = scheduler_.now();
  timeline_.set_current(sleep_at, config_.power.sleep, PhaseId::Sleep);

  BleEventReport report;
  report.data_sent = data_sent;
  report.wake_time = wake_time_;
  report.sleep_time = sleep_at;
  report.active_time = sleep_at - wake_time_;
  report.energy = timeline_.energy_between(wake_time_, sleep_at);
  if (event_cb_) event_cb_(report);

  // Next anchor: maintain the cadence relative to the event we just ran.
  const Duration bring_up =
      config_.power.wake_up_time + config_.power.pre_processing_time + config_.rx_guard;
  const TimePoint last_anchor = wake_time_ + bring_up;
  schedule_next_event(last_anchor + config_.connection_interval);
}

}  // namespace wile::ble
