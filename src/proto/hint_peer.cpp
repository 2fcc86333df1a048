#include "proto/hint_peer.h"

namespace bh::proto {
namespace {

// The relay measures distance from this peer; PeerConfig's oracle takes the
// pair.
std::function<double(MachineId)> distance_from(const PeerConfig& cfg) {
  if (!cfg.distance) return {};
  return [distance = cfg.distance, self = cfg.self](MachineId other) {
    return distance(self, other);
  };
}

}  // namespace

HintPeer::HintPeer(PeerConfig cfg, Transport& transport, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      transport_(transport),
      rng_(seed ^ cfg_.self.value),
      store_(hints::make_hint_store(kHintCacheBytes)),
      relay_(cfg_.self, HintRelay::kDefaultMaxHops, distance_from(cfg_)) {
  transport_.bind(cfg_.self, [this](MachineId from,
                                    std::span<const std::uint8_t> bytes) {
    handle_message(from, bytes);
  });
  schedule_next(0.0);
}

void HintPeer::inform(ObjectId id) { relay_.originate(Action::kInform, id); }

void HintPeer::invalidate(ObjectId id) {
  relay_.originate(Action::kInvalidate, id);
}

std::optional<MachineId> HintPeer::find_nearest(ObjectId id) {
  return store_->lookup(id);
}

void HintPeer::handle_message(MachineId from,
                              std::span<const std::uint8_t> bytes) {
  int hops = 0;
  const auto updates = decode_post(bytes, &hops);
  if (!updates) {
    ++stats_.malformed_messages;
    return;
  }
  for (const HintUpdate& u : *updates) {
    ++stats_.updates_received;
    stats_.updates_applied += relay_.apply(*store_, u);
    relay_.receive(u, from, hops);
  }
}

void HintPeer::on_timer(SimTime now) {
  if (now < next_flush_at_) return;
  flush();
  schedule_next(now);
}

void HintPeer::flush() {
  std::vector<HintRelay::Pending> pending = relay_.drain();
  HintRelay::coalesce(pending);
  for (MachineId nb : cfg_.neighbors) {
    for (const HintRelay::Batch& batch : HintRelay::batches_for(pending, nb)) {
      std::vector<std::uint8_t> message = encode_post(batch.updates, batch.hops);
      stats_.updates_sent += batch.updates.size();
      stats_.bytes_sent += message.size();
      ++stats_.batches_sent;
      transport_.send(cfg_.self, nb, std::move(message));
    }
  }
}

void HintPeer::schedule_next(SimTime now) {
  next_flush_at_ = now + rng_.uniform(0.0, cfg_.max_batch_period);
}

}  // namespace bh::proto
