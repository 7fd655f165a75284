// Full MPDU assembly and parsing: MAC header + body + FCS.
//
// This is the layer the simulated radio carries. Regular frames use the
// 24-byte three-address header; ACK and PS-Poll control frames use their
// short formats (§8.3.1).
#pragma once

#include <cstdint>
#include <optional>

#include "dot11/mac_header.hpp"
#include "dot11/mgmt.hpp"
#include "util/byte_buffer.hpp"
#include "util/mac_address.hpp"

namespace wile::dot11 {

constexpr std::size_t kFcsSize = 4;

/// Serialise header + body and append the CRC-32 FCS.
Bytes assemble_mpdu(const MacHeader& header, BytesView body);

/// Return a copy of `mpdu` with the Duration/ID field set to
/// `duration_us` and the FCS recomputed. Used by the MAC to fill in the
/// NAV reservation (SIFS + ACK time) just before transmission.
Bytes with_duration(BytesView mpdu, std::uint16_t duration_us);

/// A parsed regular (three-address) MPDU. `body` borrows from the input.
struct ParsedMpdu {
  MacHeader header;
  BytesView body;   // between header and FCS
  bool fcs_ok = false;
};

/// Parse a regular MPDU. Returns nullopt for buffers too short to hold a
/// header + FCS, or for control frames (which have short headers — use
/// parse_ack / parse_ps_poll).
std::optional<ParsedMpdu> parse_mpdu(BytesView mpdu);

// --- ACK (10-byte header + FCS = 14 bytes) ---------------------------------

Bytes build_ack(const MacAddress& receiver);

struct AckFrame {
  MacAddress receiver;
  bool fcs_ok = false;
};
std::optional<AckFrame> parse_ack(BytesView mpdu);

/// True if the raw MPDU is any control frame (short header formats).
bool is_control_frame(BytesView mpdu);

// --- PS-Poll (16-byte header + FCS = 20 bytes) ------------------------------

Bytes build_ps_poll(std::uint16_t aid, const MacAddress& bssid, const MacAddress& ta);

struct PsPollFrame {
  std::uint16_t aid = 0;
  MacAddress bssid;
  MacAddress transmitter;
  bool fcs_ok = false;
};
std::optional<PsPollFrame> parse_ps_poll(BytesView mpdu);

// --- Typed management frame builders ---------------------------------------

/// Build a complete management MPDU: DA/SA/BSSID header, sequence number,
/// encoded body, FCS.
Bytes build_mgmt_mpdu(MgmtSubtype subtype, const MacAddress& da, const MacAddress& sa,
                      const MacAddress& bssid, std::uint16_t seq, BytesView body);

/// Build a data MPDU to the DS (STA -> AP): addr1 = BSSID, addr2 = SA,
/// addr3 = final DA. `llc_payload` is the LLC/SNAP-encapsulated packet.
Bytes build_data_to_ds(const MacAddress& bssid, const MacAddress& sa, const MacAddress& da,
                       std::uint16_t seq, BytesView llc_payload, bool protected_frame,
                       bool power_management = false);

/// Build a data MPDU from the DS (AP -> STA): addr1 = DA, addr2 = BSSID,
/// addr3 = original SA.
Bytes build_data_from_ds(const MacAddress& da, const MacAddress& bssid, const MacAddress& sa,
                         std::uint16_t seq, BytesView llc_payload, bool protected_frame,
                         bool more_data = false);

/// Build a Null-function data frame (used by STAs to signal PS
/// transitions without a payload).
Bytes build_null_data(const MacAddress& bssid, const MacAddress& sa, std::uint16_t seq,
                      bool power_management);

}  // namespace wile::dot11
