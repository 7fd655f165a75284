// Extension experiment — Wi-LE vs the *other* BLE mode.
//
// The paper's BLE baseline is a connection (master polls, slave answers).
// But the interaction model Wi-LE actually copies — broadcast, no
// connection, any listener — is BLE *advertising*. This bench puts all
// three on equal footing: one ~20-byte reading delivered to a
// mains-powered listener, energy integrated on the battery device.
//
// It also sweeps the advertising payload to show where each scheme wins:
// BLE advertising caps at 31 bytes/event while one Wi-LE beacon carries
// 235 bytes, so Wi-LE's advantage grows with message size.
// The Wi-LE and BLE-advertising arms run through the ScenarioBuilder
// mode presets (TxMode::WiLeBeacon / TxMode::Ble) with auto_start off —
// the preset assembles the same two-node wiring the bench used to hand
// build (same seeds, same positions, same construction order), and the
// bench drives one send_now / advertise_once by hand. Cell values are
// output-identical to the pre-port bench. The BLE *connection* arm is
// Table 1's BLE measurement (wile/paper_rig.hpp) at each payload size: a
// connection is not one of the three transmission modes.
#include <cstdio>
#include <optional>

#include "wile/paper_rig.hpp"
#include "wile/scenario.hpp"

using namespace wile;

namespace {

/// The shared two-node bench environment: one battery device at the
/// origin, one mains-powered listener 2 m away, medium seeded with 1.
sim::ScenarioBuilder bench_pair() {
  return sim::ScenarioBuilder{}
      .devices(1)
      .auto_start(false)
      .telemetry(false)
      .timeline_max_segments(0)
      .medium_seed(1)
      .place_device([](int) { return sim::Position{0, 0}; })
      .gateways(1)
      .place_gateway([](int) { return sim::Position{2, 0}; });
}

double wile_energy_uj(std::size_t payload) {
  auto scenario = bench_pair()
                      .mode(TxMode::WiLeBeacon)
                      .device_rng([](int) { return Rng{2}; })
                      .build();
  core::Sender& sender = *scenario->devices().front();
  std::optional<core::SendReport> report;
  sender.send_now(Bytes(payload, 0x42), [&](const core::SendReport& r) { report = r; });
  scenario->scheduler().run_until_idle();
  if (scenario->gateways().front()->stats().messages != 1) return -1.0;
  return in_microjoules(report->tx_only_energy);
}

double ble_adv_energy_uj(std::size_t payload, int channels) {
  if (payload > phy::BlePhy::kMaxAdvData) return -1.0;
  sim::BleFleetOptions opts;
  opts.advertiser.channels = channels;
  opts.adv_delay_max = Duration{0};  // one-shot event; keep the legacy no-RNG path
  auto scenario = bench_pair().ble(opts).build();
  ble::BleAdvertiser& adv = *scenario->ble_devices().front();
  ble::BleScanner& scanner = *scenario->ble_scanners().front();
  std::optional<ble::AdvEventReport> report;
  adv.advertise_once(Bytes(payload, 0x42), [&](const ble::AdvEventReport& r) { report = r; });
  scenario->scheduler().run_until_idle();
  if (scanner.pdus_received() == 0) return -1.0;
  return in_microjoules(report->energy);
}

double ble_conn_energy_uj(std::size_t payload) {
  if (payload > 27) return -1.0;
  const rig::BleMeasurement m = rig::measure_ble(payload);
  return m.delivered ? in_microjoules(m.event.energy) : -1.0;
}

void print_cell(double uj) {
  if (uj < 0) {
    std::printf(" %14s |", "n/a");
  } else {
    std::printf(" %11.1f uJ |", uj);
  }
}

}  // namespace

int main() {
  std::printf("=== extension: Wi-LE vs BLE advertising vs BLE connection ===\n");
  std::printf("(energy on the battery device to deliver one message to a mains-powered "
              "listener)\n\n");
  std::printf("  %-8s | %15s | %15s | %15s | %15s\n", "payload", "Wi-LE beacon",
              "BLE adv (3ch)", "BLE adv (1ch)", "BLE connection");
  std::printf("  ---------+-----------------+-----------------+-----------------+--------"
              "---------\n");

  double wile20 = 0, adv20 = 0;
  for (std::size_t payload : {8u, 20u, 27u, 31u, 64u, 235u}) {
    std::printf("  %-8zu |", payload);
    const double w = wile_energy_uj(payload);
    const double a3 = ble_adv_energy_uj(payload, 3);
    const double a1 = ble_adv_energy_uj(payload, 1);
    const double c = ble_conn_energy_uj(payload);
    print_cell(w);
    print_cell(a3);
    print_cell(a1);
    print_cell(c);
    std::printf("\n");
    if (payload == 20) {
      wile20 = w;
      adv20 = a3;
    }
  }

  // Related-work arm (§2): SSID stuffing carries at most 27 bytes per
  // beacon and pollutes scan lists; energy is identical to a Wi-LE beacon
  // of the same size (same airtime), so the trade is capacity + UX, not
  // power.
  std::printf("\n  SSID stuffing (Chandra'07-style, §2): max %zu B/beacon, visible in "
              "every scan list; Wi-LE's hidden-SSID vendor IE carries %u B invisibly.\n",
              core::kSsidStuffingCapacity, 235u);

  std::printf("\n  at a typical 20-byte reading: Wi-LE %.1f uJ vs BLE advertising %.1f uJ "
              "— the connection-less WiFi beacon beats the connection-less BLE beacon "
              "(%.2fx), because 72 Mbps airtime is ~40x shorter than three 1 Mbps "
              "advertising PDUs.\n",
              wile20, adv20, adv20 / wile20);
  std::printf("  past 31 bytes BLE advertising cannot carry the message at all; past 27 "
              "bytes the BLE connection must fragment (n/a cells).\n");

  const bool ok = wile20 > 0 && adv20 > wile20;
  std::printf("\n  shape %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
