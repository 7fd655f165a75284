// The receive path, row by row: hand-built beacon MPDUs fed straight to
// a gateway (Receiver::on_frame) and a controller (Controller::on_frame),
// and injected into a device's RX window over the medium. Each row pins
// what the listener counts, delivers or ignores for one shape of frame:
// a good beacon, a truncated element chain, a corrupt element next to a
// good one, a foreign vendor element, a bad FCS, a short body, the SSID
// arms, the controller's own Acks and Downlinks, and a downlink split
// over two elements, which a device does not deliver.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dot11/frame.hpp"
#include "wile/controller.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

const MacAddress kBssid = MacAddress::from_seed(0xB55);

Message uplink(std::uint32_t device_id, std::uint32_t sequence) {
  Message m;
  m.device_id = device_id;
  m.sequence = sequence;
  m.data = Bytes{0x17, 0x2c};
  return m;
}

Message with_window(Message m) {
  m.rx_window = RxWindow{msec(2), msec(20)};
  return m;
}

Message control(MessageType type, std::uint32_t device_id, Bytes data) {
  Message m;
  m.device_id = device_id;
  m.type = type;
  m.data = std::move(data);
  return m;
}

Bytes ack_payload(std::uint32_t sequence) {
  ByteWriter w(4);
  w.u32le(sequence);
  return w.take();
}

/// A beacon body built element by element after its 12 fixed bytes.
class Body {
 public:
  Body() {
    w_.u64le(0);     // timestamp
    w_.u16le(100);   // beacon interval
    w_.u16le(dot11::Capability::kEss);
  }
  Body& ssid(std::string_view name) {
    w_.u8(static_cast<std::uint8_t>(dot11::IeId::Ssid));
    w_.u8(static_cast<std::uint8_t>(name.size()));
    w_.str(name);
    return *this;
  }
  /// Every element of `m`: one, unless its data needs fragments.
  Body& wile(const Message& m, const Codec& codec = Codec{}) {
    for (std::size_t i = 0; i < codec.element_count(m); ++i) codec.write_element(w_, m, i);
    return *this;
  }
  /// A Wi-LE element whose last data byte is flipped: its CRC fails.
  Body& corrupt_wile(const Message& m) {
    ByteWriter e;
    Codec{}.write_element(e, m, 0);
    Bytes bytes = e.take();
    bytes[bytes.size() - 5] ^= 0xff;
    w_.bytes(bytes);
    return *this;
  }
  Body& raw(std::initializer_list<std::uint8_t> bytes) {
    w_.bytes(Bytes(bytes));
    return *this;
  }
  [[nodiscard]] Bytes bytes() const { return Bytes(w_.view().begin(), w_.view().end()); }

 private:
  ByteWriter w_{64};
};

Bytes beacon_mpdu(BytesView body) {
  return dot11::build_mgmt_mpdu(dot11::MgmtSubtype::Beacon, MacAddress::broadcast(), kBssid,
                                kBssid, 0, body);
}

Bytes bad_fcs(Bytes mpdu) {
  mpdu.back() ^= 0xff;
  return mpdu;
}

sim::RxFrame rx(const Bytes& mpdu) {
  sim::RxFrame f;
  f.mpdu = FrameBuffer{mpdu};
  f.rx_power_dbm = -40.0;
  f.rate = phy::WifiRate::Mcs7Sgi;
  return f;
}

// --- the gateway -------------------------------------------------------------

struct Counts {
  std::uint64_t seen = 0, wile = 0, fragments = 0, messages = 0;
  std::uint64_t crc_failures = 0, fcs_failures = 0, decrypt_failures = 0, duplicates = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Counts& c) {
    return os << "seen " << c.seen << ", wile " << c.wile << ", fragments " << c.fragments
              << ", messages " << c.messages << ", crc " << c.crc_failures << ", fcs "
              << c.fcs_failures << ", decrypt " << c.decrypt_failures << ", duplicates "
              << c.duplicates;
  }
};

Counts counts(const ReceiverStats& s) {
  return {s.beacons_seen, s.wile_beacons,     s.fragments,        s.messages,
          s.crc_failures, s.fcs_failures, s.decrypt_failures, s.duplicates};
}

struct ReceiverRow {
  std::string frame;
  Bytes mpdu;
  Counts expected;
  std::size_t devices = 0;  // registry entries afterwards
  bool require_hidden_ssid = false;
  std::optional<Bytes> key{};
};

TEST(ReceivePath, ReceiverRows) {
  const Bytes good = Body{}.ssid("").wile(uplink(7, 0)).bytes();
  std::string stuffed = *encode_ssid_stuffed(uplink(9, 4));
  const Bytes key(16, 0x42);
  const Codec keyed{key};
  const Codec other_key{Bytes(16, 0x24)};
  const std::vector<ReceiverRow> rows = {
      {"good hidden-SSID beacon", beacon_mpdu(good), {1, 1, 1, 1, 0, 0, 0, 0}, 1},
      {"good beacon plus a truncated tail element",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0)).raw({221, 50, 1, 2, 3}).bytes()),
       {1, 0, 0, 0, 0, 0, 0, 0}},
      {"bad-CRC Wi-LE element before a good one",
       beacon_mpdu(Body{}.ssid("").corrupt_wile(uplink(7, 0)).wile(uplink(8, 0)).bytes()),
       {1, 1, 1, 1, 1, 0, 0, 0}, 1},
      {"vendor element with another OUI only",
       beacon_mpdu(Body{}.ssid("").raw({221, 6, 0x00, 0x50, 0xf2, 0x04, 0xaa, 0xbb}).bytes()),
       {1, 0, 0, 0, 0, 0, 0, 0}},
      {"bad FCS", bad_fcs(beacon_mpdu(good)), {0, 0, 0, 0, 0, 1, 0, 0}},
      {"body shorter than the 12 fixed bytes",
       beacon_mpdu(Bytes{1, 2, 3, 4, 5, 6, 7, 8}), {1, 0, 0, 0, 0, 0, 0, 0}},
      {"empty body", beacon_mpdu(Bytes{}), {1, 0, 0, 0, 0, 0, 0, 0}},
      {"named SSID under require_hidden_ssid",
       beacon_mpdu(Body{}.ssid("home").wile(uplink(7, 0)).bytes()),
       {1, 0, 0, 0, 0, 0, 0, 0}, 0, true},
      {"no SSID element under require_hidden_ssid",
       beacon_mpdu(Body{}.wile(uplink(7, 0)).bytes()), {1, 0, 0, 0, 0, 0, 0, 0}, 0, true},
      {"hidden SSID under require_hidden_ssid", beacon_mpdu(good),
       {1, 1, 1, 1, 0, 0, 0, 0}, 1, true},
      {"SSID-stuffed beacon", beacon_mpdu(Body{}.ssid(stuffed).bytes()),
       {1, 1, 1, 1, 0, 0, 0, 0}, 1},
      {"two Wi-LE elements of one device",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0)).wile(uplink(7, 1)).bytes()),
       {1, 1, 2, 2, 0, 0, 0, 0}, 1},
      {"the same element twice",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0)).wile(uplink(7, 0)).bytes()),
       {1, 1, 2, 1, 0, 0, 0, 1}, 1},
      {"a controller's Ack carrying the device's id",
       beacon_mpdu(Body{}.ssid("").wile(control(MessageType::Ack, 7, ack_payload(0))).bytes()),
       {1, 1, 1, 0, 0, 0, 0, 0}},
      {"a controller's Downlink carrying the device's id",
       beacon_mpdu(Body{}.ssid("").wile(control(MessageType::Downlink, 7, Bytes{1})).bytes()),
       {1, 1, 1, 0, 0, 0, 0, 0}},
      {"an element sealed with the receiver's key",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0), keyed).bytes()),
       {1, 1, 1, 1, 0, 0, 0, 0}, 1, false, key},
      {"an element sealed with another key",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0), other_key).bytes()),
       {1, 0, 0, 0, 0, 0, 1, 0}, 0, false, key},
      {"a sealed element at a receiver without a key",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 0), keyed).bytes()),
       {1, 0, 0, 0, 0, 0, 0, 0}},
      {"a probe request", dot11::build_mgmt_mpdu(dot11::MgmtSubtype::ProbeRequest,
                                                 MacAddress::broadcast(), kBssid, kBssid, 0,
                                                 good),
       {0, 0, 0, 0, 0, 0, 0, 0}},
      {"a runt shorter than a MAC header", Bytes{0x80, 0x00, 0x00, 0x00},
       {0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const ReceiverRow& row : rows) {
    SCOPED_TRACE(row.frame);
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
    ReceiverConfig cfg;
    cfg.require_hidden_ssid = row.require_hidden_ssid;
    cfg.key = row.key;
    Receiver receiver{scheduler, medium, {0, 0}, cfg};
    std::vector<RxMeta> metas;
    receiver.set_message_callback([&](const Message&, const RxMeta& meta) {
      metas.push_back(meta);
    });

    receiver.on_frame(rx(row.mpdu));

    EXPECT_EQ(counts(receiver.stats()), row.expected);
    EXPECT_EQ(receiver.devices().size(), row.devices);
    ASSERT_EQ(metas.size(), row.expected.messages);
    for (const RxMeta& meta : metas) {
      EXPECT_EQ(meta.bssid, kBssid);
      EXPECT_EQ(meta.rssi_dbm, -40.0);
    }
  }
}

// --- the controller ----------------------------------------------------------

struct ControllerRow {
  std::string frame;
  Bytes mpdu;
  std::uint64_t windows_seen = 0;
  std::size_t callbacks = 0;
  std::uint64_t downlinks_sent = 0;
  std::uint64_t acks_sent = 0;
};

TEST(ReceivePath, ControllerRows) {
  const Bytes windowed = Body{}.ssid("").wile(with_window(uplink(7, 3))).bytes();
  const std::vector<ControllerRow> rows = {
      {"uplink announcing a window", beacon_mpdu(windowed), 1, 1, 1, 1},
      {"uplink without a window",
       beacon_mpdu(Body{}.ssid("").wile(uplink(7, 3)).bytes()), 0, 1, 0, 0},
      {"the same plus a truncated tail element",
       beacon_mpdu(Body{}.ssid("").wile(with_window(uplink(7, 3))).raw({221, 50, 1, 2, 3})
                       .bytes()),
       0, 0, 0, 0},
      {"bad-CRC Wi-LE element before a good one",
       beacon_mpdu(Body{}.ssid("").corrupt_wile(uplink(8, 0)).wile(with_window(uplink(7, 3)))
                       .bytes()),
       1, 1, 1, 1},
      {"bad FCS", bad_fcs(beacon_mpdu(windowed)), 0, 0, 0, 0},
      {"body shorter than the 12 fixed bytes", beacon_mpdu(Bytes{1, 2, 3}), 0, 0, 0, 0},
      {"a controller's Ack carrying the device's id",
       beacon_mpdu(Body{}.ssid("")
                       .wile(with_window(control(MessageType::Ack, 7, ack_payload(3))))
                       .bytes()),
       0, 0, 0, 0},
      {"a controller's Downlink carrying the device's id",
       beacon_mpdu(Body{}.ssid("")
                       .wile(with_window(control(MessageType::Downlink, 7, Bytes{1})))
                       .bytes()),
       0, 0, 0, 0},
  };
  for (const ControllerRow& row : rows) {
    SCOPED_TRACE(row.frame);
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
    ControllerConfig cfg;
    cfg.auto_ack = true;
    Controller controller{scheduler, medium, {0, 0}, cfg, Rng{2}};
    controller.queue_downlink(7, Bytes{'c', 'f', 'g'});
    std::size_t callbacks = 0;
    controller.set_message_callback([&](const Message& m, const RxMeta& meta) {
      ++callbacks;
      EXPECT_EQ(m.device_id, 7u);
      EXPECT_EQ(meta.bssid, kBssid);
    });

    controller.on_frame(rx(row.mpdu));
    scheduler.run_until_idle();

    EXPECT_EQ(controller.stats().windows_seen, row.windows_seen);
    EXPECT_EQ(callbacks, row.callbacks);
    EXPECT_EQ(controller.stats().downlinks_sent, row.downlinks_sent);
    EXPECT_EQ(controller.stats().acks_sent, row.acks_sent);
  }
}

// --- the device's RX window --------------------------------------------------

/// Answers every window-announcing Wi-LE beacon it hears with one
/// hand-built MPDU, injected 1 ms into the announced window.
struct WindowInjector : sim::MediumClient {
  using Build = std::function<Bytes(const Fragment& announced)>;

  WindowInjector(sim::Scheduler& s, sim::Medium& m, Build b)
      : scheduler(s), medium(m), build(std::move(b)) {
    id = m.attach(this, {2, 0});
  }
  void on_frame(const sim::RxFrame& frame) override {
    auto parsed = dot11::parse_mpdu(frame.mpdu);
    if (!parsed || !parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) return;
    auto beacon = dot11::Beacon::decode(parsed->body);
    if (!beacon) return;
    for (const Fragment& f : Codec{}.decode_all(beacon->ies)) {
      if (!f.rx_window) continue;
      scheduler.schedule_in(f.rx_window->offset + msec(1), [this, f] {
        sim::TxRequest req;
        req.mpdu = build(f);
        req.airtime = phy::frame_airtime(req.mpdu.size(), phy::WifiRate::Mcs7Sgi);
        req.rate = phy::WifiRate::Mcs7Sgi;
        medium.transmit(id, std::move(req));
      });
    }
  }
  [[nodiscard]] bool rx_enabled() const override { return !medium.transmitting(id); }

  sim::Scheduler& scheduler;
  sim::Medium& medium;
  Build build;
  sim::NodeId id{};
};

struct DeviceRow {
  std::string frame;
  WindowInjector::Build build;
  bool acked = false;
  std::size_t downlinks = 0;
};

TEST(ReceivePath, DeviceRxWindowRows) {
  constexpr std::uint32_t kDevice = 0xD1;
  auto reply = [](MessageType type, std::uint32_t device_id, bool echo_sequence) {
    return [=](const Fragment& announced) {
      Bytes data = echo_sequence ? ack_payload(announced.sequence) : Bytes{'c', 'f', 'g'};
      return beacon_mpdu(Body{}.ssid("").wile(control(type, device_id, data)).bytes());
    };
  };
  const std::vector<DeviceRow> rows = {
      {"its own Ack", reply(MessageType::Ack, kDevice, true), true, 0},
      {"another device's Ack", reply(MessageType::Ack, kDevice + 1, true), false, 0},
      {"its own Downlink", reply(MessageType::Downlink, kDevice, false), false, 1},
      {"its own 300 B Downlink in two elements",
       [](const Fragment&) {
         const Message downlink = control(MessageType::Downlink, kDevice, Bytes(300, 0x77));
         return beacon_mpdu(Body{}.ssid("").wile(downlink).bytes());
       },
       false, 0},
      {"another device's Downlink", reply(MessageType::Downlink, kDevice + 1, false), false,
       0},
      {"an uplink carrying its id", reply(MessageType::Telemetry, kDevice, false), false, 0},
      {"its own Downlink with a bad FCS",
       [&](const Fragment& f) { return bad_fcs(reply(MessageType::Downlink, kDevice, false)(f)); },
       false, 0},
      {"its own Downlink plus a truncated tail element",
       [](const Fragment&) {
         return beacon_mpdu(Body{}
                                .ssid("")
                                .wile(control(MessageType::Downlink, kDevice, Bytes{1}))
                                .raw({221, 50, 1, 2, 3})
                                .bytes());
       },
       false, 0},
      {"a bad-CRC element before its own Downlink",
       [](const Fragment&) {
         return beacon_mpdu(Body{}
                                .ssid("")
                                .corrupt_wile(control(MessageType::Downlink, kDevice, Bytes{2}))
                                .wile(control(MessageType::Downlink, kDevice, Bytes{1}))
                                .bytes());
       },
       false, 1},
  };
  for (const DeviceRow& row : rows) {
    SCOPED_TRACE(row.frame);
    sim::Scheduler scheduler;
    sim::Medium medium{scheduler, phy::Channel{}, Rng{1}};
    SenderConfig cfg;
    cfg.device_id = kDevice;
    cfg.rx_window = RxWindow{msec(2), msec(20)};
    cfg.reliable = true;
    Sender sender{scheduler, medium, {0, 0}, cfg, Rng{2}};
    WindowInjector injector{scheduler, medium, row.build};
    std::size_t callbacks = 0;
    sender.set_downlink_callback([&](const Message& m) {
      ++callbacks;
      EXPECT_EQ(m.device_id, kDevice);
      EXPECT_EQ(m.type, MessageType::Downlink);
    });

    std::optional<SendReport> report;
    sender.send_now(Bytes{1}, [&](const SendReport& r) { report = r; });
    scheduler.run_until_idle();

    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->acked, row.acked);
    EXPECT_EQ(report->downlinks_received, row.downlinks);
    EXPECT_EQ(callbacks, row.downlinks);
  }
}

}  // namespace
}  // namespace wile::core
