#include "proto/wire.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string>

#include "common/hash.h"

namespace bh::proto {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr std::string_view kRequestLine = "POST /updates HTTP/1.0\r\n";

// The value of header `name` in a header block, up to its line end with
// leading spaces skipped; nullopt when absent.
std::optional<std::string_view> header_value(std::string_view headers,
                                             std::string_view name) {
  std::size_t pos = headers.find(name);
  if (pos == std::string_view::npos ||
      headers.substr(pos + name.size(), 1) != ":") {
    return std::nullopt;
  }
  pos += name.size() + 1;
  while (pos < headers.size() && headers[pos] == ' ') ++pos;
  return headers.substr(pos, headers.find("\r\n", pos) - pos);
}

}  // namespace

std::vector<std::uint8_t> encode_body(std::span<const HintUpdate> updates) {
  std::vector<std::uint8_t> out;
  out.reserve(updates.size() * kUpdateWireBytes);
  for (const HintUpdate& u : updates) {
    put_u32(out, static_cast<std::uint32_t>(u.action));
    put_u64(out, u.object.value);
    put_u64(out, u.location.value);
  }
  return out;
}

std::optional<std::vector<HintUpdate>> decode_body(
    std::span<const std::uint8_t> body) {
  if (body.size() % kUpdateWireBytes != 0) return std::nullopt;
  std::vector<HintUpdate> out;
  out.reserve(body.size() / kUpdateWireBytes);
  for (std::size_t off = 0; off < body.size(); off += kUpdateWireBytes) {
    const std::uint32_t action = get_u32(body.data() + off);
    if (action != static_cast<std::uint32_t>(Action::kInform) &&
        action != static_cast<std::uint32_t>(Action::kInvalidate)) {
      return std::nullopt;
    }
    HintUpdate u;
    u.action = static_cast<Action>(action);
    u.object = ObjectId{get_u64(body.data() + off + 4)};
    u.location = MachineId{get_u64(body.data() + off + 12)};
    out.push_back(u);
  }
  return out;
}

std::uint64_t update_key(const HintUpdate& update) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(update.action));
  h = mix64(h ^ update.object.value);
  return mix64(h ^ update.location.value);
}

std::uint64_t complement_key(const HintUpdate& update) {
  HintUpdate other = update;
  other.action = update.action == Action::kInform ? Action::kInvalidate
                                                  : Action::kInform;
  return update_key(other);
}

std::uint64_t pair_key(const HintUpdate& update) {
  HintUpdate canonical = update;
  canonical.action = Action::kInform;
  return update_key(canonical);
}

std::string encode_push_targets(std::span<const std::uint16_t> ports) {
  std::string out;
  for (const std::uint16_t p : ports) {
    if (!out.empty()) out += ',';
    out += std::to_string(p);
  }
  return out;
}

std::optional<std::vector<std::uint16_t>> decode_push_targets(
    std::string_view value) {
  std::vector<std::uint16_t> out;
  if (value.empty()) return out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = std::min(value.find(',', pos), value.size());
    const std::string_view tok = value.substr(pos, comma - pos);
    unsigned parsed = 0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), parsed);
    if (ec != std::errc{} || end != tok.data() + tok.size() || tok.empty() ||
        parsed > 65535) {
      return std::nullopt;
    }
    out.push_back(static_cast<std::uint16_t>(parsed));
    if (comma == value.size()) break;
    pos = comma + 1;
  }
  return out;
}

int parse_hops(std::string_view value) {
  std::uint64_t parsed = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  const bool ok = ec == std::errc{} && end == value.data() + value.size();
  return ok ? static_cast<int>(std::min<std::uint64_t>(parsed, kMaxHopValue))
            : 0;
}

std::vector<std::uint8_t> encode_post(std::span<const HintUpdate> updates,
                                      int hops) {
  const std::vector<std::uint8_t> body = encode_body(updates);
  std::string header(kRequestLine);
  header += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  header += std::string(kHopHeader) + ": " + std::to_string(hops) + "\r\n\r\n";
  std::vector<std::uint8_t> out;
  out.reserve(header.size() + body.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<std::vector<HintUpdate>> decode_post(
    std::span<const std::uint8_t> message, int* hops) {
  const std::string_view text(reinterpret_cast<const char*>(message.data()),
                              message.size());
  if (!text.starts_with(kRequestLine)) return std::nullopt;
  const std::size_t header_end = text.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return std::nullopt;

  const std::string_view headers =
      text.substr(kRequestLine.size(), header_end - kRequestLine.size());
  const auto length = header_value(headers, "Content-Length");
  if (!length) return std::nullopt;
  std::size_t len = 0;
  const auto [ptr, ec] =
      std::from_chars(length->data(), length->data() + length->size(), len);
  if (ec != std::errc{}) return std::nullopt;

  const std::size_t body_off = header_end + 4;
  if (message.size() - body_off != len) return std::nullopt;
  if (hops) *hops = parse_hops(header_value(headers, kHopHeader).value_or(""));
  return decode_body(message.subspan(body_off));
}

}  // namespace bh::proto
