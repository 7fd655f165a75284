// Refcounted immutable byte buffer for zero-copy frame fan-out.
//
// One radio transmission may be heard by thousands of receivers; the
// Medium hands every one of them the same FrameBuffer, so the payload
// bytes are allocated once per transmission instead of once per
// receiver. Copying a FrameBuffer bumps a refcount; the bytes
// themselves are immutable for the buffer's lifetime. It converts
// implicitly to BytesView, so every parser in the codebase (they all
// take views) accepts it unchanged.
//
// Thread safety: frames cross shard boundaries in the parallel engine
// (sim/parallel.hpp), so the control block's refcount is atomic —
// increments are relaxed (grabbing a new reference needs no ordering;
// the holder already owns one), the decrement is acq-rel (the thread
// that drops the last reference must observe every other thread's
// release before freeing the bytes). This is the standard shared_ptr
// discipline, but intrusive: control block and payload live in ONE
// arena allocation (header + bytes contiguously), halving the
// allocations per transmission versus the shared_ptr<Counted> scheme
// it replaced and keeping the payload header-adjacent in cache. On the
// single-threaded path the atomics are uncontended lock-prefixed adds —
// a handful of cycles, no fences beyond what the plain code paid for
// the shared_ptr control block before.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "util/byte_buffer.hpp"

namespace wile {

class FrameBuffer {
 public:
  FrameBuffer() = default;

  /// Copies `bytes` into a fresh single-allocation buffer (header and
  /// payload contiguous): one allocation, one memcpy. A transmission
  /// makes exactly one of these, at transmit time (sim::Csma, or the
  /// node that calls Medium::transmit directly).
  explicit FrameBuffer(BytesView bytes)
      : data_(bytes.empty() ? nullptr : allocate(bytes.data(), bytes.size())) {}
  /// Implicit, so `req.mpdu = build_...()` call sites keep compiling.
  /// Taken by reference: an lvalue is copied once, into the buffer.
  FrameBuffer(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : FrameBuffer(BytesView{bytes}) {}

  FrameBuffer(const FrameBuffer& other) : data_(other.data_) {
    // Relaxed: we hold a reference through `other` for the whole call,
    // so the count cannot reach zero concurrently.
    if (data_ != nullptr) data_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  FrameBuffer(FrameBuffer&& other) noexcept : data_(other.data_) {
    other.data_ = nullptr;
  }
  FrameBuffer& operator=(const FrameBuffer& other) {
    if (this != &other) {
      FrameBuffer tmp(other);  // ref first: self-safe and exception-safe
      std::swap(data_, tmp.data_);
    }
    return *this;
  }
  FrameBuffer& operator=(FrameBuffer&& other) noexcept {
    std::swap(data_, other.data_);
    return *this;
  }
  ~FrameBuffer() { release(); }

  [[nodiscard]] std::size_t size() const { return data_ ? data_->size : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return data_ ? data_->payload() : nullptr;
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }
  std::uint8_t operator[](std::size_t i) const { return data_->payload()[i]; }

  [[nodiscard]] BytesView view() const {
    return data_ ? BytesView{data_->payload(), data_->size} : BytesView{};
  }
  operator BytesView() const { return view(); }  // NOLINT(google-explicit-constructor)

  /// How many FrameBuffers share these bytes (tests pin the zero-copy
  /// contract with this). A relaxed snapshot: exact when no other thread
  /// is copying/dropping concurrently, advisory otherwise — same
  /// semantics shared_ptr::use_count had.
  [[nodiscard]] long owners() const {
    return data_ ? static_cast<long>(data_->refs.load(std::memory_order_relaxed)) : 0;
  }

  /// Distinct payload allocations currently alive, process-wide. Copies
  /// share an allocation; only creating/destroying the last owner moves
  /// this count. The chaos harness's leak oracle compares it against
  /// Medium::active_transmissions() on an idle channel — a component
  /// squirrelling away RxFrames past its contract shows up here. Relaxed
  /// census: read it only when the threads that could move it are
  /// quiescent (the oracle sweeps between events; tests join first).
  [[nodiscard]] static std::uint64_t live_buffers() {
    return live_count_.load(std::memory_order_relaxed);
  }

  friend bool operator==(const FrameBuffer& a, const FrameBuffer& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const FrameBuffer& a, const Bytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Bytes& a, const FrameBuffer& b) { return b == a; }

 private:
  /// Intrusive control block, immediately followed by the payload bytes
  /// in the same allocation.
  struct Counted {
    explicit Counted(std::uint32_t n) : refs(1), size(n) {}
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    [[nodiscard]] const std::uint8_t* payload() const {
      return reinterpret_cast<const std::uint8_t*>(this + 1);
    }
    [[nodiscard]] std::uint8_t* payload() {
      return reinterpret_cast<std::uint8_t*>(this + 1);
    }
  };
  static_assert(alignof(Counted) >= alignof(std::uint8_t));

  static Counted* allocate(const std::uint8_t* src, std::size_t n) {
    auto* raw = ::operator new(sizeof(Counted) + n);
    auto* c = new (raw) Counted{static_cast<std::uint32_t>(n)};
    std::memcpy(c->payload(), src, n);
    live_count_.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  void release() {
    if (data_ == nullptr) return;
    // Acq-rel: the releasing store publishes this thread's last use of
    // the bytes; the acquire on the final decrement makes every earlier
    // release visible to the deleting thread.
    if (data_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      live_count_.fetch_sub(1, std::memory_order_relaxed);
      data_->~Counted();
      ::operator delete(static_cast<void*>(data_));
    }
    data_ = nullptr;
  }

  static inline std::atomic<std::uint64_t> live_count_{0};

  Counted* data_ = nullptr;
};

}  // namespace wile
