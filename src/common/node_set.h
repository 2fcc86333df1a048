// Exact set of node indices, used to track which caches hold an object.
//
// Topologies in this study have tens of L1 caches (64 in the paper's default
// configuration), and one set is kept per object for millions of objects.
// Members 0..63 live in one inline word, so a set over such a topology is a
// plain value that never touches the heap; members from 64 up spill into a
// heap vector of further words, so the set stays exact for any topology
// size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace bh {

class NodeSet {
 public:
  NodeSet() = default;

  void insert(NodeIndex n) {
    if (n < 64) {
      low_ |= bit(n);
      return;
    }
    const std::size_t wi = (n >> 6) - 1;
    if (high_.size() <= wi) high_.resize(wi + 1, 0);
    high_[wi] |= bit(n);
  }

  void erase(NodeIndex n) {
    if (n < 64) {
      low_ &= ~bit(n);
    } else if (const std::size_t wi = (n >> 6) - 1; wi < high_.size()) {
      high_[wi] &= ~bit(n);
    }
  }

  bool contains(NodeIndex n) const {
    if (n < 64) return (low_ & bit(n)) != 0;
    const std::size_t wi = (n >> 6) - 1;
    return wi < high_.size() && (high_[wi] & bit(n)) != 0;
  }

  bool empty() const {
    return low_ == 0 &&
           std::all_of(high_.begin(), high_.end(),
                       [](std::uint64_t w) { return w == 0; });
  }

  std::size_t size() const {
    std::size_t c = static_cast<std::size_t>(__builtin_popcountll(low_));
    for (std::uint64_t w : high_) {
      c += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return c;
  }

  void clear() {
    low_ = 0;
    high_.clear();
  }

  // Smallest member, or kInvalidNode if the set is empty.
  NodeIndex first() const {
    NodeIndex n = kInvalidNode;
    for_each_until([&](NodeIndex m) {
      n = m;
      return false;
    });
    return n;
  }

  // Invokes fn(NodeIndex) for each member in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_until([&](NodeIndex n) {
      fn(n);
      return true;
    });
  }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    if (a.low_ != b.low_) return false;
    const std::size_t n = std::max(a.high_.size(), b.high_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wa = i < a.high_.size() ? a.high_[i] : 0;
      const std::uint64_t wb = i < b.high_.size() ? b.high_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }

 private:
  static std::uint64_t bit(NodeIndex n) { return 1ULL << (n & 63); }

  // Visits members in increasing order while fn(NodeIndex) returns true.
  template <typename Fn>
  void for_each_until(Fn&& fn) const {
    for (std::size_t wi = 0; wi <= high_.size(); ++wi) {
      std::uint64_t w = wi == 0 ? low_ : high_[wi - 1];
      while (w != 0) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(w));
        if (!fn(static_cast<NodeIndex>(wi * 64 + b))) return;
        w &= w - 1;
      }
    }
  }

  std::uint64_t low_ = 0;             // members 0..63
  std::vector<std::uint64_t> high_;  // word i holds members 64(i+1)..64(i+1)+63
};

}  // namespace bh
