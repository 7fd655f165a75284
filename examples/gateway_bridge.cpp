// Gateway bridge — "Wi-LE can utilize existing WiFi infrastructure" (§1).
//
// Topology:
//
//   [sensor]x4  ~~Wi-LE beacons~~>  [gateway]  ==WPA2/UDP==>  [AP]  ->  server
//
// The sensors never associate with anything (they deep-sleep at 2.5 uA).
// The mains-powered gateway runs two radios: a monitor-mode card that
// harvests Wi-LE beacons, and a normal client that is associated with
// the building's WPA2 AP in power-save mode and forwards each reading to
// a collector server as a UDP datagram — through a genuine 4-way
// handshake, DHCP lease and CCMP-protected data path.
//
// ScenarioBuilder owns the environment and the sensor fleet; the
// infrastructure side (AP + bridging Gateway) is built on the
// scenario's scheduler/medium and publishes into the same telemetry
// registry, so one JSON export covers the whole topology.
//
// Run:  ./gateway_bridge
#include <cstdio>
#include <memory>
#include <string>

#include "ap/access_point.hpp"
#include "wile/gateway.hpp"
#include "wile/scenario.hpp"

using namespace wile;

int main() {
  // Four Wi-LE sensors scattered around the gateway; no monitor from the
  // builder — the bridging Gateway below is the Wi-LE receiver.
  Rng seeder{3};
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(4)
          .gateways(0)
          .duty_cycle(seconds(45))
          .wake_jitter(msec(400))
          .timeline_max_segments(0)
          .stagger_starts(false)
          .medium_seed(321)
          .device_rng([&seeder](int) { return seeder.fork(); })
          .configure_sender([](core::SenderConfig& cfg, int i) {
            cfg.device_id = 0x2000 + i;
          })
          .place_device([](int i) { return sim::Position{6.0 + i, 2.0}; })
          .payload_provider([](int i) -> core::Sender::PayloadProvider {
            return [i] {
              ByteWriter w(3);
              w.u8(static_cast<std::uint8_t>(i));
              w.u16le(1700 + 10 * i);
              return w.take();
            };
          })
          .build();
  sim::Scheduler& scheduler = scenario->scheduler();

  // The building AP, with the collector "server" behind it.
  ap::AccessPointConfig ap_cfg;
  ap::AccessPoint access_point{scheduler, scenario->medium(), {0, 0}, ap_cfg, Rng{1}};
  std::uint64_t server_rows = 0;
  access_point.set_uplink_handler([&](const MacAddress&, const net::Ipv4Header&,
                                      const net::UdpDatagram& udp) {
    const auto batch = core::ForwardedBatch::decode(udp.payload);
    if (!batch) return;
    for (const core::ForwardedReading& reading : batch->readings) {
      ++server_rows;
      std::printf("t=%7.1fs  [server] device=%#06x seq=%-3u rssi=%d dBm data=%zuB\n",
                  to_seconds(scheduler.now().since_epoch()), reading.device_id,
                  reading.sequence, reading.rssi_dbm, reading.data.size());
    }
  });
  access_point.start();
  access_point.publish_metrics(scenario->metrics(), access_point.node_id());

  // The gateway, a few meters from the AP.
  core::GatewayConfig gw_cfg;
  gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
  core::Gateway gateway{scheduler, scenario->medium(), {4, 0}, gw_cfg, Rng{2}};
  gateway.start([&](bool ok) {
    std::printf("t=%7.1fs  [gateway] uplink %s (ip %s)\n",
                to_seconds(scheduler.now().since_epoch()),
                ok ? "associated" : "FAILED",
                gateway.station().ip() ? gateway.station().ip()->to_string().c_str()
                                       : "none");
  });
  gateway.publish_metrics(scenario->metrics(), "gateway");

  scenario->run_until(TimePoint{minutes(5)});
  scenario->stop_all();
  scenario->run_for(seconds(5));

  const auto& gw = gateway.stats();
  std::printf("\n--- after 5 minutes ---\n");
  std::printf("gateway: %llu Wi-LE messages received, %llu forwarded, %llu dropped, "
              "%llu failures\n",
              static_cast<unsigned long long>(gw.received),
              static_cast<unsigned long long>(gw.forwarded),
              static_cast<unsigned long long>(gw.dropped_queue_full),
              static_cast<unsigned long long>(gw.forward_failures));
  std::printf("server: %llu rows stored; AP handled %llu PS-Polls and delivered %llu "
              "buffered frames\n",
              static_cast<unsigned long long>(server_rows),
              static_cast<unsigned long long>(access_point.stats().ps_poll_received),
              static_cast<unsigned long long>(
                  access_point.stats().buffered_frames_delivered));
  return (server_rows > 0 && server_rows == gw.forwarded) ? 0 : 1;
}
