// Open-addressing hash table keyed by ObjectId, for the simulator hot path.
//
// Every per-request simulator structure (LRU indexes, hint stores, metadata
// state, holder sets) maps object ids to small values, and node-based
// std::unordered_map spent most of a sweep allocating, freeing and chasing
// its nodes. This table keeps key and value together in one flat array:
//
// - linear probing over a power-of-two slot array; an id's home slot is
//   mix64(id) & mask, so clustered ids still spread;
// - the array doubles when an insert would take it past 7/8 full;
// - erase shifts the rest of the probe run back into the hole (no
//   tombstones), so erase-heavy use never slows later probes;
// - slot key 0 marks an empty slot, so id 0, which callers may use, lives
//   in one out-of-line slot instead.
//
// Pointers returned by find() and try_emplace() are invalidated by ANY
// later insert or erase on the same map (growth moves every slot; erase
// shifts neighbours). Use them before the next mutation, never across one.
// for_each visits id 0 first, then slot order: deterministic for a given
// history of operations, but otherwise unspecified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace bh {

template <typename V>
class FlatMap {
 public:
  V* find(ObjectId id) {
    if (id.value == 0) return zero_ ? &*zero_ : nullptr;
    const std::size_t i = locate(id.value);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* find(ObjectId id) const {
    if (id.value == 0) return zero_ ? &*zero_ : nullptr;
    const std::size_t i = locate(id.value);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  bool contains(ObjectId id) const { return find(id) != nullptr; }

  // Returns the value for `id` and whether it was inserted; a new value is
  // constructed from `args`, an existing one is left untouched.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(ObjectId id, Args&&... args) {
    if (id.value == 0) {
      if (zero_) return {&*zero_, false};
      zero_.emplace(std::forward<Args>(args)...);
      return {&*zero_, true};
    }
    if ((count_ + 1) * 8 > slots_.size() * 7) grow();
    std::size_t i = home(id.value);
    for (; slots_[i].key != 0; i = (i + 1) & mask()) {
      if (slots_[i].key == id.value) return {&slots_[i].value, false};
    }
    slots_[i].key = id.value;
    slots_[i].value = V(std::forward<Args>(args)...);
    ++count_;
    return {&slots_[i].value, true};
  }

  V& operator[](ObjectId id) { return *try_emplace(id).first; }

  bool erase(ObjectId id) {
    if (id.value == 0) {
      const bool had = zero_.has_value();
      zero_.reset();
      return had;
    }
    std::size_t hole = locate(id.value);
    if (hole == kAbsent) return false;
    // Backward shift: walk the rest of the probe run and move back every
    // entry whose home does not lie cyclically in (hole, j], i.e. every
    // entry the hole would otherwise cut off from its home.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].key != 0;
         j = (j + 1) & mask()) {
      const std::size_t k = home(slots_[j].key);
      if (((j - k) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --count_;
    return true;
  }

  std::size_t size() const { return count_ + (zero_ ? 1 : 0); }

  // Invokes fn(ObjectId, const V&) for every entry; fn must not mutate the
  // map.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (zero_) fn(ObjectId{0}, *zero_);
    for (const Slot& s : slots_) {
      if (s.key != 0) fn(ObjectId{s.key}, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty
    V value{};
  };

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(mix64(key)) & mask();
  }

  // Slot holding `key` (never 0), or kAbsent.
  std::size_t locate(std::uint64_t key) const {
    if (slots_.empty()) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return i;
      if (slots_[i].key == 0) return kAbsent;
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    for (Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != 0) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;  // occupied slots (id 0 excluded)
  std::optional<V> zero_;
};

}  // namespace bh
