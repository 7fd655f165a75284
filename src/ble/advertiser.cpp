#include "ble/advertiser.hpp"

#include <stdexcept>

namespace wile::ble {

using power::PhaseId;

BleAdvertiser::BleAdvertiser(sim::Scheduler& scheduler, sim::Medium& medium,
                             sim::Position position, BleAdvertiserConfig config, Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(config),
      timeline_(config.power.supply),
      rng_(rng) {
  if (config_.channels < 1 || config_.channels > 3) {
    throw std::invalid_argument("BleAdvertiser: channels must be 1..3");
  }
  node_id_ = medium_.attach(this, position);
  medium_.set_listening(node_id_, false);  // transmit-only: never polled
  timeline_.set_current(scheduler_.now(), config_.power.sleep, PhaseId::Sleep);
}

void BleAdvertiser::start(PayloadProvider provider, EventCallback per_event) {
  if (!provider) throw std::invalid_argument("BleAdvertiser: null payload provider");
  running_ = true;
  provider_ = std::move(provider);
  per_event_ = std::move(per_event);
  schedule_event_loop();
}

void BleAdvertiser::schedule_event_loop() {
  // Cadence is wake-to-wake; an advertising event lasts a few ms and the
  // spec's minimum interval is 100 ms, so events never overlap.
  Duration interval = config_.adv_interval;
  if (config_.adv_delay_max.count() > 0) {
    // Spec advDelay: perturb each event so co-periodic advertisers
    // cannot collide forever (pure ALOHA needs this to be honest).
    interval += Duration{static_cast<std::int64_t>(
        rng_.below(static_cast<std::uint64_t>(config_.adv_delay_max.count()) + 1))};
  }
  scheduler_.schedule_in(interval, [this] {
    if (!running_) return;
    schedule_event_loop();
    run_event(provider_(), [this](const AdvEventReport& r) {
      if (per_event_) per_event_(r);
    });
  });
}

void BleAdvertiser::stop() { running_ = false; }

void BleAdvertiser::advertise_once(Bytes adv_data, EventCallback done) {
  run_event(std::move(adv_data), std::move(done));
}

void BleAdvertiser::run_event(Bytes adv_data, EventCallback done) {
  if (adv_data.size() > phy::BlePhy::kMaxAdvData) {
    throw std::invalid_argument("BleAdvertiser: AdvData exceeds 31 bytes");
  }
  ++events_;
  wake_time_ = scheduler_.now();
  timeline_.set_current(wake_time_, config_.power.wake_up, PhaseId::WakeUp);
  scheduler_.schedule_in(config_.power.wake_up_time, [this, adv_data = std::move(adv_data),
                                                      done = std::move(done)]() mutable {
    timeline_.set_current(scheduler_.now(), config_.power.pre_processing, PhaseId::PreProcessing);
    scheduler_.schedule_in(config_.power.pre_processing_time,
                           [this, adv_data = std::move(adv_data),
                            done = std::move(done)]() mutable {
                             transmit_channel(0, std::move(adv_data), std::move(done));
                           });
  });
}

void BleAdvertiser::transmit_channel(int index, Bytes adv_data, EventCallback done) {
  AdvertisingPdu pdu;
  pdu.type = AdvPduType::AdvNonconnInd;
  pdu.advertiser = config_.address;
  pdu.adv_data = adv_data;
  const Bytes encoded = pdu.encode();
  const std::uint8_t channel = kAdvChannels[static_cast<std::size_t>(index)];
  const Bytes packet = assemble_air_packet(kAdvAccessAddress, encoded, channel);

  timeline_.set_current(scheduler_.now(), config_.power.radio_tx, PhaseId::Tx);
  sim::TxRequest req;
  req.mpdu = packet;
  req.airtime = phy::BlePhy::pdu_airtime(encoded.size() - 2);
  req.tx_power_dbm = config_.tx_power_dbm;
  req.on_complete = [this, index, adv_data = std::move(adv_data),
                     done = std::move(done)]() mutable {
    if (index + 1 < config_.channels) {
      // Retune to the next advertising channel.
      timeline_.set_current(scheduler_.now(), config_.power.pre_processing, PhaseId::Hop);
      scheduler_.schedule_in(config_.channel_hop_time,
                             [this, index, adv_data = std::move(adv_data),
                              done = std::move(done)]() mutable {
                               transmit_channel(index + 1, std::move(adv_data),
                                                std::move(done));
                             });
    } else {
      timeline_.set_current(scheduler_.now(), config_.power.post_processing,
                            PhaseId::PostProcessing);
      scheduler_.schedule_in(config_.power.post_processing_time,
                             [this, done = std::move(done), pdus = index + 1]() mutable {
                               finish_event(std::move(done), pdus);
                             });
    }
  };
  medium_.transmit(node_id_, std::move(req));
}

void BleAdvertiser::finish_event(EventCallback done, int pdus) {
  const TimePoint sleep_at = scheduler_.now();
  timeline_.set_current(sleep_at, config_.power.sleep, PhaseId::Sleep);
  AdvEventReport report;
  report.wake_time = wake_time_;
  report.sleep_time = sleep_at;
  report.active_time = sleep_at - wake_time_;
  report.energy = timeline_.energy_between(wake_time_, sleep_at);
  report.pdus_sent = pdus;
  if (done) done(report);
}

BleScanner::BleScanner(sim::Scheduler& scheduler, sim::Medium& medium,
                       sim::Position position) {
  (void)scheduler;
  node_id_ = medium.attach(this, position);
}

void BleScanner::on_frame(const sim::RxFrame& frame) {
  // Try all three advertising channels' whitening; a real scanner knows
  // which channel it is parked on, our single-medium model does not.
  for (std::uint8_t channel : kAdvChannels) {
    auto air = parse_air_packet(frame.mpdu, channel);
    if (!air || air->access_address != kAdvAccessAddress) continue;
    if (!air->crc_ok) continue;
    auto pdu = AdvertisingPdu::decode(air->pdu);
    if (!pdu) continue;
    ++received_;
    if (callback_) callback_(*pdu, frame.rx_power_dbm);
    return;
  }
  ++crc_failures_;
}

}  // namespace wile::ble
