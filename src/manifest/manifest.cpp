#include "manifest/manifest.hpp"

#include <cstring>
#include <iterator>

#include "util/bytes.hpp"

namespace vmic::manifest {

namespace {

constexpr std::uint8_t kMagic[8] = {'V', 'M', 'I', 'C', 'M', 'A', 'N', '1'};
constexpr std::uint32_t kVersion = 1;
// magic 8 + version 4 + generation 8 + count 4 + body len 4 + body fnv 8
// + header fnv 8.
constexpr std::size_t kHeaderSize = 44;
constexpr std::size_t kHeaderFnvAt = kHeaderSize - 8;

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  std::uint8_t b[2];
  store_be16(b, v);
  out.insert(out.end(), b, b + 2);
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t b[4];
  store_be32(b, v);
  out.insert(out.end(), b, b + 4);
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t b[8];
  store_be64(b, v);
  out.insert(out.end(), b, b + 8);
}

/// Bounded big-endian reader over the body; any read past the end trips
/// the `bad` flag instead of running off the buffer (a torn length field
/// must fail decode, not fault).
struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;
  bool bad = false;

  [[nodiscard]] bool need(std::size_t n) {
    if (buf.size() - pos < n) {
      bad = true;
      return false;
    }
    return true;
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = load_be16(buf.data() + pos);
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = load_be32(buf.data() + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = load_be64(buf.data() + pos);
    pos += 8;
    return v;
  }
  std::string str(std::size_t n) {
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(buf.data() + pos), n);
    pos += n;
    return s;
  }
};

}  // namespace

std::vector<std::uint8_t> encode(const NodeManifest& m) {
  std::vector<std::uint8_t> body;
  for (const CacheEntry& e : m.entries) {
    const std::size_t start = body.size();
    put16(body, static_cast<std::uint16_t>(e.image.size()));
    body.insert(body.end(), e.image.begin(), e.image.end());
    put16(body, static_cast<std::uint16_t>(e.cache_file.size()));
    body.insert(body.end(), e.cache_file.begin(), e.cache_file.end());
    put64(body, e.bytes);
    put64(body, e.fill_generation);
    put64(body, e.check_generation);
    body.push_back(e.dedup_indexed ? 1 : 0);
    put32(body, static_cast<std::uint32_t>(e.coverage.size()));
    for (const auto& [lo, hi] : e.coverage) {
      put64(body, lo);
      put64(body, hi);
    }
    put64(body, fnv1a({body.data() + start, body.size() - start}));
  }

  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  out.reserve(kHeaderSize + body.size());
  put32(out, kVersion);
  put64(out, m.generation);
  put32(out, static_cast<std::uint32_t>(m.entries.size()));
  put32(out, static_cast<std::uint32_t>(body.size()));
  put64(out, fnv1a(body));
  put64(out, fnv1a({out.data(), kHeaderFnvAt}));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Result<NodeManifest> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return Errc::invalid_format;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Errc::invalid_format;
  }
  if (fnv1a(bytes.subspan(0, kHeaderFnvAt)) !=
      load_be64(bytes.data() + kHeaderFnvAt)) {
    return Errc::corrupt;
  }
  if (load_be32(bytes.data() + 8) != kVersion) return Errc::unsupported;
  NodeManifest m;
  m.generation = load_be64(bytes.data() + 12);
  const std::uint32_t count = load_be32(bytes.data() + 20);
  const std::uint32_t body_len = load_be32(bytes.data() + 24);
  if (bytes.size() - kHeaderSize < body_len) return Errc::corrupt;
  const auto body = bytes.subspan(kHeaderSize, body_len);
  if (fnv1a(body) != load_be64(bytes.data() + 28)) return Errc::corrupt;

  Reader r{body};
  m.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t start = r.pos;
    CacheEntry e;
    e.image = r.str(r.u16());
    e.cache_file = r.str(r.u16());
    e.bytes = r.u64();
    e.fill_generation = r.u64();
    e.check_generation = r.u64();
    if (r.need(1)) e.dedup_indexed = body[r.pos++] != 0;
    const std::uint32_t nc = r.u32();
    // Bound before reserving: a torn count must not balloon allocation.
    if (!r.need(static_cast<std::size_t>(nc) * 16)) return Errc::corrupt;
    e.coverage.reserve(nc);
    for (std::uint32_t c = 0; c < nc; ++c) {
      const std::uint64_t lo = r.u64();
      const std::uint64_t hi = r.u64();
      e.coverage.emplace_back(lo, hi);
    }
    const std::uint64_t want = fnv1a({body.data() + start, r.pos - start});
    if (r.bad || r.u64() != want) return Errc::corrupt;
    m.entries.push_back(std::move(e));
  }
  if (r.bad || r.pos != body.size()) return Errc::corrupt;
  return m;
}

sim::Task<std::optional<NodeManifest>> Store::load_slot(
    const std::string& name) {
  if (!dir_->exists(name)) co_return std::nullopt;
  auto be = dir_->open_file(name, /*writable=*/false);
  if (!be.ok()) co_return std::nullopt;
  const std::uint64_t sz = (*be)->size();
  if (sz < kHeaderSize) co_return std::nullopt;
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(sz));
  auto rr = co_await (*be)->pread(0, buf);
  if (!rr.ok()) co_return std::nullopt;
  auto m = decode(buf);
  if (!m.ok()) co_return std::nullopt;
  co_return std::move(*m);
}

sim::Task<Result<std::optional<NodeManifest>>> Store::load() {
  auto a = co_await load_slot(slot_a());
  auto b = co_await load_slot(slot_b());
  gen_ = 0;
  active_ = -1;
  std::optional<NodeManifest> best;
  if (a) {
    best = std::move(a);
    active_ = 0;
  }
  if (b && (!best || b->generation > best->generation)) {
    best = std::move(b);
    active_ = 1;
  }
  if (best) gen_ = best->generation;
  co_return best;
}

sim::Task<Result<void>> Store::publish(NodeManifest m) {
  m.generation = ++gen_;
  const std::vector<std::uint8_t> bytes = encode(m);
  // Write the slot the last valid generation does NOT live in: a cut at
  // any point of this sequence leaves the active slot untouched.
  const int target = active_ == 0 ? 1 : 0;
  const std::string name = target == 0 ? slot_a() : slot_b();
  auto be = dir_->exists(name) ? dir_->open_file(name, /*writable=*/true)
                               : dir_->create_file(name);
  if (!be.ok()) co_return be.error();
  // Payload, then truncate any stale tail, then one flush barrier. Order
  // within the unflushed window does not matter — nothing is trusted
  // until the flush — and the checksums reject any torn subset.
  VMIC_CO_TRY_VOID(co_await (*be)->pwrite(0, bytes));
  VMIC_CO_TRY_VOID(co_await (*be)->truncate(bytes.size()));
  VMIC_CO_TRY_VOID(co_await (*be)->flush());
  active_ = target;
  co_return ok_result();
}

}  // namespace vmic::manifest
