// Experiment E5 — the §3.1 connection-cost claim:
//   "At least 8 frames are exchanged during this [4-way handshake]
//    process. In addition to these 20 MAC-layer frames, 7 higher-layer
//    frames including DHCP and ARP have to be transmitted before a
//    client device can transmit to the AP."
//
// Runs one full association against the simulated Google-WiFi-class AP
// and prints the measured frame ledger, versus a single Wi-LE
// transmission which needs exactly one frame.
#include <cstdio>
#include <optional>

#include "wile/paper_rig.hpp"

using namespace wile;

int main() {
  std::printf("=== E5: frames required before the first data byte ===\n\n");

  rig::WifiCell cell;
  std::optional<sta::CycleReport> report;
  cell.station.run_duty_cycle_transmission(Bytes(16, 0x42),
                                           [&](const sta::CycleReport& r) { report = r; });
  cell.scheduler.run_until(TimePoint{seconds(10)});

  if (!report || !report->success) {
    std::fprintf(stderr, "association failed\n");
    return 1;
  }

  const auto& s = cell.station.stats();
  std::printf("  WiFi (WPA2-PSK infrastructure network):\n");
  std::printf("    MAC-layer connection frames (mgmt + EAPOL + their ACKs): %llu   "
              "(paper: \"at least 20\", incl. >= 8 for the 4-way handshake)\n",
              static_cast<unsigned long long>(s.connect_mac_frames));
  std::printf("    higher-layer frames (DHCP x4, ARP x2, gratuitous ARP):   %llu   "
              "(paper: 7)\n",
              static_cast<unsigned long long>(s.connect_higher_layer_frames));
  std::printf("    total before the sensor reading leaves the device:       %llu\n",
              static_cast<unsigned long long>(s.connect_mac_frames +
                                              s.connect_higher_layer_frames));

  // Wi-LE: one injected beacon, no ACK, nothing else.
  rig::WileDevice device;
  std::optional<core::SendReport> wile_report;
  device.sender.send_now(Bytes(16, 0x42),
                         [&](const core::SendReport& r) { wile_report = r; });
  device.scheduler.run_until_idle();

  std::printf("\n  Wi-LE (connection-less):\n");
  std::printf("    frames transmitted: %d (the injected beacon itself; broadcast, no "
              "ACK)\n",
              wile_report->beacons_sent);

  const bool ok = s.connect_mac_frames >= 18 && s.connect_higher_layer_frames == 7 &&
                  wile_report->beacons_sent == 1;
  std::printf("\n  shape %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
