// The hint-relay core (Section 3.2): one cache's share of update propagation.
//
// A cache applies each 20-byte inform/invalidate update it receives to its
// hint cache and re-advertises it, batched, to every neighbour except the
// one it came from. HintRelay is that rule as a single-threaded state
// machine with no clock, socket or lock of its own: the proxy daemon (under
// its queue lock) and the loopback HintPeer drive the same code, and tests
// drive it with no transport at all. It owns the nearest-copy decision, the
// pending queue with each entry's provenance (sender, relay depth), the hop
// bound, a bounded FIFO seen-set of update keys that drops duplicate relays
// and our own echoes in cyclic graphs (an arriving action retires its
// complement's key, so insert/evict/insert keeps propagating), pair
// coalescing, and per-neighbour batch building. When to flush, and how
// batches travel, is up to the code that owns the relay.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "hints/hint_cache.h"
#include "proto/wire.h"

namespace bh::proto {

class HintRelay {
 public:
  using Decision = hints::HintStore::BatchDecision;

  static constexpr int kDefaultMaxHops = 8;
  // Update keys the seen-set remembers before forgetting the oldest.
  static constexpr std::size_t kSeenCapacity = 4096;

  struct Pending {
    HintUpdate update;
    MachineId exclude;  // neighbour it arrived from (0 = originated here)
    int hops = 0;       // relays it has already undergone
  };

  // One POST's worth: the updates bound for one neighbour at one depth.
  struct Batch {
    int hops = 0;
    std::vector<HintUpdate> updates;
  };

  enum class Verdict {
    kQueued,     // fresh: queued for relay to the other neighbours
    kDuplicate,  // its key is in the seen-set: dropped
    kAboutSelf,  // it names this cache: nothing to relay
    kHopCapped,  // relaying it would reach the hop bound: dropped
  };

  // A received update is relayed at most `max_hops` hops from its origin
  // (1 = apply locally, never relay). `distance` (from this cache to a
  // machine) keeps the nearest advertised copy; empty means all copies are
  // equally near and the first hint wins.
  HintRelay(MachineId self, int max_hops,
            std::function<double(MachineId)> distance = {});

  // How `update` changes the current hint `cur` for its object: an inform
  // replaces no hint or a strictly farther one, an invalidate erases a hint
  // naming exactly its location, an update naming this cache changes
  // nothing. Reads only construction-time state, so an owner may call it
  // without the lock that guards the queue.
  Decision decide(const HintUpdate& update,
                  std::optional<MachineId> cur) const;
  // decide() against `store`'s current hint, applied; true if it changed.
  bool apply(hints::HintStore& store, const HintUpdate& update) const;

  // Queues an update about this cache's own copy for every neighbour and
  // marks it seen, so its echo through a cycle is dropped.
  void originate(Action action, ObjectId id);
  // Records `update`, received from `from` in a batch at depth `hops`; a
  // fresh one is queued for relay at depth hops + 1.
  Verdict receive(const HintUpdate& update, MachineId from, int hops);

  std::size_t pending() const { return pending_.size(); }
  // Moves the queue out, leaving it empty.
  std::vector<Pending> drain();

  // Retires drained inform/invalidate pairs for the same (object, location)
  // with the same provenance; returns how many entries were removed.
  static std::size_t coalesce(std::vector<Pending>& drained);
  // `neighbor`'s batches in ascending depth: every drained update that did
  // not come from it, repeats within a depth dropped (first one kept).
  static std::vector<Batch> batches_for(std::span<const Pending> drained,
                                        MachineId neighbor);

 private:
  // Retires the complement's key and records this one; false if already
  // seen.
  bool note_seen(const HintUpdate& update);

  const MachineId self_;
  const int max_hops_;
  const std::function<double(MachineId)> distance_;
  std::vector<Pending> pending_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> seen_order_;  // FIFO eviction for the seen-set
};

}  // namespace bh::proto
