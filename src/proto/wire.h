// Wire format for hint updates (Section 3.2).
//
// The prototype propagates hints by periodically POSTing a batch of updates
// to each neighbour cache at the "route://updates" URL. Each update is
// exactly 20 bytes on the wire: a 4-byte action, an 8-byte object identifier
// (part of the MD5 signature of the URL), and an 8-byte machine identifier
// (IP address and port). We frame batches as an HTTP/1.0 POST with a binary
// body, which is what Squid's internal communication interface carries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace bh::proto {

enum class Action : std::uint32_t {
  kInform = 1,      // a copy of the object is now stored at `location`
  kInvalidate = 2,  // the copy at `location` is gone
};

struct HintUpdate {
  Action action = Action::kInform;
  ObjectId object;
  MachineId location;

  friend bool operator==(const HintUpdate&, const HintUpdate&) = default;
};

// Exactly the paper's 20 bytes per update.
inline constexpr std::size_t kUpdateWireBytes = 20;

// Serializes updates into the 20-byte-per-record binary body.
std::vector<std::uint8_t> encode_body(std::span<const HintUpdate> updates);

// Parses a binary body; returns nullopt on malformed input (bad length or
// unknown action).
std::optional<std::vector<HintUpdate>> decode_body(
    std::span<const std::uint8_t> body);

// Stable 64-bit key over an update's content (action, object, location) —
// what the daemon's bounded seen-set dedups re-advertisements by, so the
// same update circulating a cyclic neighbor graph is forwarded once.
std::uint64_t update_key(const HintUpdate& update);

// Key of the complementary action (inform <-> invalidate) for the same
// (object, location) pair. When an update arrives, retiring its complement
// from the seen-set keeps alternating insert/evict sequences propagating.
std::uint64_t complement_key(const HintUpdate& update);

// Action-blind key: identical for an update and its complement (it is the
// inform-form update_key of the pair). The batching flusher coalesces on it —
// an inform followed by the matching invalidate still queued retires both,
// since the pair is a net no-op for every receiver.
std::uint64_t pair_key(const HintUpdate& update);

// Push-target list carried in the X-Push-Targets header of a pushed-object
// PUT: the ports of every other daemon the supplier pushed the same copy to,
// so a receiver can seed hints for its siblings' new copies immediately
// instead of waiting a hint-batch round trip. Header-safe comma-separated
// decimal ports ("8001,8002"); the empty list encodes to "".
std::string encode_push_targets(std::span<const std::uint16_t> ports);

// Parses an X-Push-Targets value; returns nullopt on any malformed token
// (non-numeric, out of port range, empty element). "" parses to the empty
// list.
std::optional<std::vector<std::uint16_t>> decode_push_targets(
    std::string_view value);

// Header carrying a batch's relay depth: how many relays its updates have
// already undergone (0 = the sender originated them).
inline constexpr std::string_view kHopHeader = "X-Hop";
// Largest depth an X-Hop value can carry; larger values clamp to it.
inline constexpr int kMaxHopValue = 1024;

// Parses an X-Hop value. A malformed value reads as 0 and anything above
// kMaxHopValue clamps, so a bad header can never disable the hop bound's
// arithmetic.
int parse_hops(std::string_view value);

// Wraps a body in the POST framing the prototype uses, with the batch's
// relay depth in the X-Hop header.
std::vector<std::uint8_t> encode_post(std::span<const HintUpdate> updates,
                                      int hops = 0);

// Parses a full POST message; validates the request line, the target URL
// ("/updates"), and Content-Length. When `hops` is given it receives the
// X-Hop depth (parse_hops; 0 when the header is absent).
std::optional<std::vector<HintUpdate>> decode_post(
    std::span<const std::uint8_t> message, int* hops = nullptr);

}  // namespace bh::proto
