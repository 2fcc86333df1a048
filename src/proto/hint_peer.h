// A protocol peer: one cache's hint module (Section 3.2) over a Transport.
//
// Each peer owns the prototype hint-cache structure and exchanges batched
// 20-byte updates with its neighbours. The propagation rule itself — the
// nearest-copy decision, the relay queue with its provenance, the hop bound,
// the seen-set and pair coalescing — is the shared proto::HintRelay, the
// same core the proxy daemon runs, so relaying is loop-free on any
// neighbour graph. The peer adds only the glue: a hint store, the transport,
// and batches sent at randomized intervals drawn uniformly from
// [0, max_period] to avoid the synchronization capture effects Floyd and
// Jacobson observed in periodic routing traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hints/hint_cache.h"
#include "proto/hint_relay.h"
#include "proto/transport.h"
#include "proto/wire.h"

namespace bh::proto {

struct PeerConfig {
  MachineId self;
  std::vector<MachineId> neighbors;
  // Upper bound of the randomized batch period, seconds (paper: 60).
  double max_batch_period = 60.0;
  // Network proximity oracle used to keep the *nearest* copy when several
  // locations are advertised. Defaults to "all equal" (first hint wins).
  std::function<double(MachineId, MachineId)> distance;
};

struct PeerStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t malformed_messages = 0;
};

class HintPeer {
 public:
  // Hint-cache size of every peer: 65,536 16-byte records. The protocol
  // peer models one cache's hint module over a workload of a few hundred
  // objects (examples/isp_cluster keeps 274 relay entries for 300), so
  // 4-way set conflicts never evict a hint there, while the zero-filled
  // record array stays at 1 MB resident per peer.
  static constexpr std::uint64_t kHintCacheBytes = 1ULL << 20;

  HintPeer(PeerConfig cfg, Transport& transport, std::uint64_t seed);

  // --- the three interface commands between the cache and the hint module ---
  // A copy of `id` is now stored locally; advertise it.
  void inform(ObjectId id);
  // The local copy is gone; advertise the non-presence.
  void invalidate(ObjectId id);
  // Nearest known remote copy, from local state only.
  std::optional<MachineId> find_nearest(ObjectId id);

  // Time-driven batching: call with the current time; flushes when the
  // randomized period has elapsed.
  void on_timer(SimTime now);
  SimTime next_flush_at() const { return next_flush_at_; }

  // Sends any pending updates immediately.
  void flush();

  const PeerStats& stats() const { return stats_; }
  hints::HintStore& store() { return *store_; }
  MachineId self() const { return cfg_.self; }

 private:
  void handle_message(MachineId from, std::span<const std::uint8_t> bytes);
  void schedule_next(SimTime now);

  PeerConfig cfg_;
  Transport& transport_;
  Rng rng_;
  std::unique_ptr<hints::HintStore> store_;
  HintRelay relay_;
  SimTime next_flush_at_ = 0;
  PeerStats stats_;
};

}  // namespace bh::proto
