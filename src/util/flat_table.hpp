// Flat open-addressing hash table keyed by 32-bit ids.
//
// One contiguous slot array, Fibonacci multiplicative hashing (the high
// bits carry the mix, so power-of-two masking stays well distributed),
// linear probing, and a load factor capped at 1/2 with doubling growth.
// Lookup is a single probe sequence over one cache line in the common
// case — no node allocations, no bucket chains, no rehash-on-read. Keys
// are never removed (device registries only grow), which keeps probing
// tombstone-free.
//
// Used for every per-device registry on the ingest hot path: the
// controller's DeviceState table (wile/controller.hpp) and the rules
// engine's per-(rule, device) state (wile/rules/engine.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wile::util {

template <typename Value>
class FlatTable {
 public:
  FlatTable() = default;

  /// Single-probe find-or-insert: returns the value for `key`, default
  /// constructing it on first sight. The reference stays valid until
  /// the next find_or_insert (which may grow the slot array).
  Value& find_or_insert(std::uint32_t key) {
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    } else if ((used_ + 1) * 2 > slots_.size()) {
      grow();
    }
    Slot& slot = probe(slots_, key);
    if (slot.key_plus_one == 0) {
      slot.key_plus_one = std::uint64_t{key} + 1;
      ++used_;
    }
    return slot.value;
  }

  /// Lookup without insertion; nullptr when the key was never seen.
  [[nodiscard]] Value* find(std::uint32_t key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = probe(slots_, key);
    return slot.key_plus_one != 0 ? &slot.value : nullptr;
  }
  [[nodiscard]] const Value* find(std::uint32_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = probe(const_cast<std::vector<Slot>&>(slots_), key);
    return slot.key_plus_one != 0 ? &slot.value : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return used_ == 0; }

  /// Visit every (key, value) pair in slot order. The order is a pure
  /// function of the insertion sequence (hash layout is deterministic),
  /// so same-seed runs iterate identically.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key_plus_one != 0) {
        fn(static_cast<std::uint32_t>(slot.key_plus_one - 1), slot.value);
      }
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key_plus_one != 0) {
        fn(static_cast<std::uint32_t>(slot.key_plus_one - 1), slot.value);
      }
    }
  }

 private:
  /// key+1 so 0 can mark an empty slot (device id 0 is a legal key).
  struct Slot {
    std::uint64_t key_plus_one = 0;
    Value value{};
  };

  static constexpr std::size_t kInitialSlots = 16;

  static Slot& probe(std::vector<Slot>& slots, std::uint32_t key) {
    const std::size_t mask = slots.size() - 1;
    std::uint64_t h = (std::uint64_t{key} + 1) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    const std::uint64_t want = std::uint64_t{key} + 1;
    while (slots[i].key_plus_one != 0 && slots[i].key_plus_one != want) {
      i = (i + 1) & mask;
    }
    return slots[i];
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (Slot& s : old) {
      if (s.key_plus_one == 0) continue;
      Slot& dst = probe(slots_, static_cast<std::uint32_t>(s.key_plus_one - 1));
      dst.key_plus_one = s.key_plus_one;
      dst.value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

}  // namespace wile::util
