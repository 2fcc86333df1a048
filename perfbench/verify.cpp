// Byte-exact response checking against the origin's deterministic content.
#include <bit>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/hash.h"

namespace pb {
namespace {

// First offset where `body` differs from origin_body(id, version, size) (the
// shorter length when one is a prefix of the other); npos when equal. The
// origin's body is generated 8 bytes at a time, as origin_body does (byte i
// is byte i % 8 of the i / 8-th mix64 state, little-endian), and compared
// word by word without building it.
std::size_t first_difference(bh::ObjectId id, bh::Version version,
                             std::size_t size, std::string_view body) {
  const std::size_t n = std::min(size, body.size());
  std::uint64_t state = bh::mix64(id.value ^ (std::uint64_t(version) << 32));
  for (std::size_t i = 0; i < n; i += 8) {
    state = bh::mix64(state);
    const std::size_t k = std::min<std::size_t>(8, n - i);
    if (k == 8 && std::endian::native == std::endian::little) {
      std::uint64_t word;
      std::memcpy(&word, body.data() + i, 8);
      if (word == state) continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (static_cast<unsigned char>(body[i + j]) != ((state >> (j * 8)) & 0xFF)) {
        return i + j;
      }
    }
  }
  return body.size() == size ? std::string_view::npos : n;
}

}  // namespace

Verdict verify_body(bh::ObjectId id, std::size_t size, std::string_view body,
                    bh::Version at_send, bh::Version newest) {
  Verdict v;
  newest = std::max<bh::Version>(newest, 1);
  std::size_t newest_diff = std::string_view::npos;
  for (bh::Version ver = newest; ver >= 1; --ver) {
    const std::size_t diff = first_difference(id, ver, size, body);
    if (diff == std::string_view::npos) {
      v.ok = true;
      v.matched = ver;
      v.stale = ver < at_send;
      return v;
    }
    if (ver == newest) newest_diff = diff;
  }
  char msg[256];
  std::snprintf(msg, sizeof msg,
                "body mismatch: id=%016llx version=%u (tried 1..%u) "
                "size=%zu got=%zu first differing byte offset=%zu",
                static_cast<unsigned long long>(id.value), newest, newest,
                size, body.size(), newest_diff);
  v.error = msg;
  return v;
}

}  // namespace pb
