// Bounds-checked binary codec primitives.
//
// Every wire format in this repository (802.11 frames, information
// elements, EAPOL, ARP/IPv4/UDP/DHCP, BLE PDUs, the Wi-LE payload
// container) is serialised through ByteWriter and parsed through
// ByteReader. 802.11 and BLE are little-endian on the wire; the IP suite
// is big-endian; both byte orders are provided explicitly so call sites
// never rely on host order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wile {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by ByteReader when a read would run past the end of the buffer.
/// Malformed network input is expected; parsers that face untrusted bytes
/// catch this at the frame boundary and report a decode failure.
class BufferUnderflow : public std::runtime_error {
 public:
  explicit BufferUnderflow(const std::string& what) : std::runtime_error(what) {}
};

/// Appends integers, byte ranges and strings to a growable byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16le(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u24le(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
    buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    buf_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  }
  void u32le(std::uint32_t v) {
    u16le(static_cast<std::uint16_t>(v & 0xffff));
    u16le(static_cast<std::uint16_t>(v >> 16));
  }
  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v & 0xffff));
  }
  void u64le(std::uint64_t v) {
    u32le(static_cast<std::uint32_t>(v & 0xffffffff));
    u32le(static_cast<std::uint32_t>(v >> 32));
  }
  void u64be(std::uint64_t v) {
    u32be(static_cast<std::uint32_t>(v >> 32));
    u32be(static_cast<std::uint32_t>(v & 0xffffffff));
  }

  void bytes(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void bytes(const std::uint8_t* data, std::size_t n) { bytes(BytesView{data, n}); }
  void str(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// Overwrite previously written bytes (e.g. patching a length field).
  void patch_u16be(std::size_t offset, std::uint16_t v) {
    buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    buf_.at(offset + 1) = static_cast<std::uint8_t>(v & 0xff);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] BytesView view() const { return buf_; }

  /// Drop the bytes written so far but keep the storage: a writer reused
  /// frame after frame stops allocating once it has grown to fit.
  void clear() { buf_.clear(); }

  /// Move the accumulated bytes out; the writer is empty afterwards.
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequential reader over a borrowed byte range. All reads are
/// bounds-checked and throw BufferUnderflow on truncated input.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16le() {
    need(2);
    const auto v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint16_t u16be() {
    need(2);
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u24le() {
    need(3);
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16);
    pos_ += 3;
    return v;
  }
  std::uint32_t u32le() {
    const std::uint32_t lo = u16le();
    const std::uint32_t hi = u16le();
    return lo | (hi << 16);
  }
  std::uint32_t u32be() {
    const std::uint32_t hi = u16be();
    const std::uint32_t lo = u16be();
    return (hi << 16) | lo;
  }
  std::uint64_t u64le() {
    const std::uint64_t lo = u32le();
    const std::uint64_t hi = u32le();
    return lo | (hi << 32);
  }
  std::uint64_t u64be() {
    const std::uint64_t hi = u32be();
    const std::uint64_t lo = u32be();
    return (hi << 32) | lo;
  }

  /// Borrow the next n bytes without copying.
  BytesView bytes(std::size_t n) {
    need(n);
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Copy the next n bytes.
  Bytes bytes_copy(std::size_t n) {
    BytesView v = bytes(n);
    return Bytes(v.begin(), v.end());
  }

  std::string str(std::size_t n) {
    BytesView v = bytes(n);
    return std::string(v.begin(), v.end());
  }

  void skip(std::size_t n) { need(n), pos_ += n; }

  /// Borrow and consume everything left.
  BytesView rest() {
    BytesView out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw BufferUnderflow("ByteReader: need " + std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()));
    }
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace wile
