#include "proto/hint_relay.h"

#include <iterator>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

namespace bh::proto {

HintRelay::HintRelay(MachineId self, int max_hops,
                     std::function<double(MachineId)> distance)
    : self_(self), max_hops_(max_hops), distance_(std::move(distance)) {}

HintRelay::Decision HintRelay::decide(const HintUpdate& update,
                                      std::optional<MachineId> cur) const {
  if (update.location == self_) return Decision::keep();
  if (update.action == Action::kInvalidate) {
    return cur == update.location ? Decision::erase_hint() : Decision::keep();
  }
  const bool replace =
      !cur || (distance_ && distance_(update.location) < distance_(*cur));
  return replace ? Decision::insert_loc(update.location) : Decision::keep();
}

bool HintRelay::apply(hints::HintStore& store,
                      const HintUpdate& update) const {
  const Decision d = decide(update, store.lookup(update.object));
  if (d.op == Decision::Op::kInsert) store.insert(update.object, d.loc);
  if (d.op == Decision::Op::kErase) store.erase(update.object);
  return d.op != Decision::Op::kKeep;
}

bool HintRelay::note_seen(const HintUpdate& update) {
  seen_.erase(complement_key(update));
  const std::uint64_t key = update_key(update);
  if (!seen_.insert(key).second) return false;
  seen_order_.push_back(key);
  // A retired complement may leave a stale deque slot; popping it is a
  // harmless no-op (slightly early forgetting, never a leak).
  while (seen_order_.size() > kSeenCapacity) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return true;
}

void HintRelay::originate(Action action, ObjectId id) {
  const HintUpdate update{action, id, self_};
  note_seen(update);
  pending_.push_back({update, MachineId{0}, 0});
}

HintRelay::Verdict HintRelay::receive(const HintUpdate& update,
                                      MachineId from, int hops) {
  if (!note_seen(update)) return Verdict::kDuplicate;
  if (update.location == self_) return Verdict::kAboutSelf;
  if (hops + 1 >= max_hops_) return Verdict::kHopCapped;
  pending_.push_back({update, from, hops + 1});
  return Verdict::kQueued;
}

std::vector<HintRelay::Pending> HintRelay::drain() {
  return std::exchange(pending_, {});
}

std::size_t HintRelay::coalesce(std::vector<Pending>& drained) {
  // A queued inform whose matching invalidate is also still queued (or the
  // reverse) is a net no-op for every receiver: whatever hint state a
  // receiver had for that (object, location) pair, applying both updates
  // returns it there. Only pairs with identical provenance may retire each
  // other — otherwise one receiver set could be skipped for half of the
  // pair. Updates for the same pair alternate inform/invalidate in queue
  // order (an insert can only follow an eviction and vice versa), so greedy
  // matching against the most recent open entry is exact.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> open;
  std::vector<char> dead(drained.size(), 0);
  std::size_t retired = 0;
  for (std::size_t i = 0; i < drained.size(); ++i) {
    auto& stack = open[pair_key(drained[i].update)];
    bool matched = false;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const Pending& o = drained[*it];
      if (o.update.action != drained[i].update.action &&
          o.exclude == drained[i].exclude && o.hops == drained[i].hops) {
        dead[*it] = 1;
        dead[i] = 1;
        retired += 2;
        stack.erase(std::next(it).base());
        matched = true;
        break;
      }
    }
    if (!matched) stack.push_back(i);
  }
  if (retired == 0) return 0;
  std::vector<Pending> kept;
  kept.reserve(drained.size() - retired);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    if (!dead[i]) kept.push_back(drained[i]);
  }
  drained.swap(kept);
  return retired;
}

std::vector<HintRelay::Batch> HintRelay::batches_for(
    std::span<const Pending> drained, MachineId neighbor) {
  // One batch per relay depth, so the receiver can hop-bound exactly what
  // it relays. In practice a drain spans one or two depths.
  std::map<int, std::vector<HintUpdate>> by_depth;
  std::set<std::pair<int, std::uint64_t>> queued;  // (depth, update key)
  for (const Pending& p : drained) {
    if (p.exclude == neighbor) continue;
    if (queued.emplace(p.hops, update_key(p.update)).second) {
      by_depth[p.hops].push_back(p.update);
    }
  }
  std::vector<Batch> out;
  for (auto& [hops, updates] : by_depth) out.push_back({hops, std::move(updates)});
  return out;
}

}  // namespace bh::proto
