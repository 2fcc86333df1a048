// Tests for bh::common — MD5, hashing, RNG, Zipf sampling, node sets, and
// table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/md5.h"
#include "common/node_set.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"
#include "common/zipf.h"

namespace bh {
namespace {

// --- MD5 (RFC 1321 appendix test vectors) ---

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(Md5::digest("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(Md5::digest("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(Md5::digest("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(Md5::digest("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(Md5::digest("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::hex(Md5::digest("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopq"
                                 "rstuvwxyz0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex(Md5::digest(
                "1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalUpdateMatchesOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog repeatedly and at length "
      "so that the message spans multiple 64-byte blocks in the md5 stream";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Md5 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(Md5::hex(h.finish()), Md5::hex(Md5::digest(msg)));
  }
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Lengths around the 56-byte padding boundary and the 64-byte block size.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Md5 a;
    a.update(msg);
    Md5 b;
    for (char c : msg) b.update(&c, 1);
    EXPECT_EQ(Md5::hex(a.finish()), Md5::hex(b.finish())) << "len=" << len;
  }
}

TEST(Md5Test, ObjectIdsDifferAcrossUrls) {
  const ObjectId a = object_id_from_url("http://example.com/a");
  const ObjectId b = object_id_from_url("http://example.com/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, object_id_from_url("http://example.com/a"));
}

TEST(UrlDigestCacheTest, AgreesWithUncachedDigest) {
  UrlDigestCache cache(64);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::string url = "http://example.com/obj/" + std::to_string(i);
      EXPECT_EQ(cache.object_id(url), object_id_from_url(url)) << url;
    }
  }
  // 500 URLs over 64 slots: plenty of collision-evictions, yet every answer
  // above matched the direct digest.
  EXPECT_GT(cache.misses(), 0u);
}

TEST(UrlDigestCacheTest, RepeatsHitTheMemo) {
  UrlDigestCache cache(256);
  const std::string url = "http://example.com/popular";
  const ObjectId first = cache.object_id(url);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cache.object_id(url), first);
  EXPECT_EQ(cache.hits(), 10u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(UrlDigestCacheTest, EmptyUrlNeverFalselyHits) {
  UrlDigestCache cache(16);
  // An empty URL maps to a vacant-looking slot; it must still be served by
  // recomputation, not a stale id.
  EXPECT_EQ(cache.object_id(""), object_id_from_url(""));
  EXPECT_EQ(cache.object_id(""), object_id_from_url(""));
  EXPECT_EQ(cache.hits(), 0u);
}

// --- hashing ---

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

// --- RNG ---

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, LognormalMedian) {
  Rng r(13);
  std::vector<double> v(100001);
  for (auto& x : v) x = r.lognormal(8.3, 1.3);
  std::nth_element(v.begin(), v.begin() + 50000, v.end());
  // Median of lognormal(mu, sigma) is exp(mu) ~= 4024.
  EXPECT_NEAR(v[50000], std::exp(8.3), std::exp(8.3) * 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

// --- Zipf ---

TEST(ZipfTest, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler z(1, 0.8);
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 0u);
}

TEST(ZipfTest, RanksWithinBounds) {
  ZipfSampler z(1000, 0.8);
  Rng r(17);
  for (int i = 0; i < 100000; ++i) ASSERT_LT(z.sample(r), 1000u);
}

// The empirical rank frequencies must follow rank^-s: check the ratio of
// rank-0 to rank-9 frequencies against the analytic value.
TEST(ZipfTest, FrequenciesFollowPowerLaw) {
  const double s = 1.0;
  ZipfSampler z(100000, s);
  Rng r(23);
  std::vector<std::uint64_t> counts(16, 0);
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = z.sample(r);
    if (k < counts.size()) ++counts[k];
  }
  const double ratio = static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
  EXPECT_NEAR(ratio, std::pow(10.0, s), std::pow(10.0, s) * 0.1);
}

TEST(ZipfTest, LowerExponentIsFlatter) {
  ZipfSampler steep(10000, 1.2), flat(10000, 0.5);
  Rng r1(29), r2(29);
  std::uint64_t head_steep = 0, head_flat = 0;
  for (int i = 0; i < 200000; ++i) {
    head_steep += steep.sample(r1) < 10;
    head_flat += flat.sample(r2) < 10;
  }
  EXPECT_GT(head_steep, head_flat);
}

// --- NodeSet ---

TEST(NodeSetTest, InsertEraseContains) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(64);
  s.insert(200);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(200));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 3u);
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.size(), 2u);
}

TEST(NodeSetTest, ForEachVisitsInOrder) {
  NodeSet s;
  s.insert(100);
  s.insert(1);
  s.insert(65);
  std::vector<NodeIndex> seen;
  s.for_each([&](NodeIndex n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<NodeIndex>{1, 65, 100}));
}

TEST(NodeSetTest, EqualityIgnoresCapacity) {
  NodeSet a, b;
  a.insert(5);
  a.insert(300);
  a.erase(300);
  b.insert(5);
  EXPECT_TRUE(a == b);
}

TEST(NodeSetTest, InsertIsIdempotent) {
  NodeSet s;
  s.insert(7);
  s.insert(7);
  EXPECT_EQ(s.size(), 1u);
}

TEST(NodeSetTest, AcrossTheInlineWordBoundary) {
  // Members 0..63 live in the inline word, 64 and up in the overflow words.
  NodeSet s;
  EXPECT_EQ(s.first(), kInvalidNode);
  for (NodeIndex n : {200u, 64u, 63u, 127u, 128u, 0u}) s.insert(n);
  EXPECT_EQ(s.size(), 6u);
  EXPECT_EQ(s.first(), 0u);
  std::vector<NodeIndex> seen;
  s.for_each([&](NodeIndex n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<NodeIndex>{0, 63, 64, 127, 128, 200}));

  s.erase(0);
  s.erase(63);
  EXPECT_EQ(s.first(), 64u);  // the smallest member is now an overflow one
  s.erase(64);
  s.erase(127);
  EXPECT_EQ(s.first(), 128u);
  EXPECT_FALSE(s.contains(63));
  EXPECT_FALSE(s.contains(1000));  // past every word: absent, no growth
  s.erase(1000);
  EXPECT_EQ(s.size(), 2u);
  s.erase(128);
  s.erase(200);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), kInvalidNode);
}

TEST(NodeSetTest, EqualityAcrossOverflowLengths) {
  NodeSet inline_only, short_overflow, long_overflow;
  for (NodeSet* s : {&inline_only, &short_overflow, &long_overflow}) {
    s->insert(5);
    s->insert(63);
  }
  short_overflow.insert(70);
  short_overflow.erase(70);   // one overflow word, all zero
  long_overflow.insert(640);
  long_overflow.erase(640);   // ten overflow words, all zero
  EXPECT_TRUE(inline_only == short_overflow);
  EXPECT_TRUE(short_overflow == long_overflow);
  EXPECT_TRUE(long_overflow == inline_only);

  long_overflow.insert(640);
  EXPECT_FALSE(inline_only == long_overflow);
  EXPECT_FALSE(long_overflow == short_overflow);
  inline_only.insert(64);
  EXPECT_FALSE(inline_only == short_overflow);
  short_overflow.insert(64);
  EXPECT_TRUE(inline_only == short_overflow);
  short_overflow.erase(5);  // differ only in the inline word
  EXPECT_FALSE(inline_only == short_overflow);
}

// --- FlatMap ---

using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

// The map holds exactly the reference's entries: size, find for each key,
// and for_each visiting each entry once.
void expect_same(const FlatMap<std::uint64_t>& flat, const Reference& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const std::uint64_t* got = flat.find(ObjectId{k});
    ASSERT_NE(got, nullptr) << "key " << k;
    EXPECT_EQ(*got, v) << "key " << k;
  }
  Reference seen;
  flat.for_each([&](ObjectId id, const std::uint64_t& v) {
    EXPECT_TRUE(seen.emplace(id.value, v).second) << "key " << id.value;
  });
  EXPECT_EQ(seen, ref);
}

// The first `n` keys (from 1 up) whose home slot in a table of `slots` slots
// is one of its last two, so their probe run wraps past the array's end.
std::vector<std::uint64_t> wrapping_keys(std::size_t slots, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if ((mix64(k) & (slots - 1)) >= slots - 2) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMapTest, KeyZeroIsAnOrdinaryKey) {
  FlatMap<std::uint64_t> flat;
  Reference ref;
  EXPECT_EQ(flat.find(ObjectId{0}), nullptr);
  EXPECT_FALSE(flat.erase(ObjectId{0}));
  EXPECT_TRUE(flat.try_emplace(ObjectId{0}, 7).second);
  EXPECT_FALSE(flat.try_emplace(ObjectId{0}, 8).second);  // kept, not replaced
  ref[0] = 7;
  for (std::uint64_t k = 1; k <= 40; ++k) {
    flat[ObjectId{k}] = k * 3;
    ref[k] = k * 3;
  }
  flat[ObjectId{0}] = 9;
  ref[0] = 9;
  expect_same(flat, ref);
  EXPECT_TRUE(flat.contains(ObjectId{0}));
  EXPECT_TRUE(flat.erase(ObjectId{0}));
  EXPECT_FALSE(flat.erase(ObjectId{0}));
  ref.erase(0);
  expect_same(flat, ref);
}

TEST(FlatMapTest, WrappedClusterSurvivesEraseAndGrowth) {
  // 13 keys homed on the last two of the first 16 slots fill one probe run
  // that wraps from slot 14 through slot 10.
  const std::vector<std::uint64_t> keys = wrapping_keys(16, 40);
  FlatMap<std::uint64_t> flat;
  Reference ref;
  for (std::size_t i = 0; i < 13; ++i) {
    flat[ObjectId{keys[i]}] = i;
    ref[keys[i]] = i;
  }
  expect_same(flat, ref);
  // Where linear probing put each key: slot -> index into `keys`.
  std::vector<int> at(16, -1);
  for (std::size_t i = 0; i < 13; ++i) {
    std::size_t slot = mix64(keys[i]) & 15;
    while (at[slot] != -1) slot = (slot + 1) & 15;
    at[slot] = static_cast<int>(i);
  }
  // Erase at the wrap point (slots 15 and 0), from the middle of the run
  // (slot 5) and at its head (slot 14); every key behind a hole must shift
  // back and stay reachable.
  for (std::size_t slot : {15u, 0u, 5u, 14u}) {
    const std::uint64_t k = keys[static_cast<std::size_t>(at[slot])];
    EXPECT_TRUE(flat.erase(ObjectId{k}));
    EXPECT_FALSE(flat.erase(ObjectId{k}));
    ref.erase(k);
    expect_same(flat, ref);
  }
  // Refill the run and keep going: the table grows while the run is full,
  // and the grown table's run wraps again.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    flat.try_emplace(ObjectId{keys[i]}, 100 + i);
    ref.try_emplace(keys[i], 100 + i);
    expect_same(flat, ref);
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(flat.erase(ObjectId{keys[i]}));
    ref.erase(keys[i]);
  }
  expect_same(flat, ref);
  for (std::size_t i = 1; i < keys.size(); i += 2) {
    EXPECT_TRUE(flat.erase(ObjectId{keys[i]}));
    ref.erase(keys[i]);
  }
  expect_same(flat, ref);
  EXPECT_EQ(flat.size(), 0u);
}

TEST(FlatMapTest, SeededOpsMatchUnorderedMap) {
  // A small key space (0..511) makes inserts, overwrites and erases of the
  // same keys collide constantly, across several growths.
  Rng rng(0xF1A7);
  FlatMap<std::uint64_t> flat;
  Reference ref;
  for (int step = 1; step <= 40000; ++step) {
    const std::uint64_t k = rng.next_below(step < 20000 ? 512 : 64);
    const std::uint64_t v = rng.next_u64();
    switch (rng.next_below(4)) {
      case 0: {
        const auto [got, inserted] = flat.try_emplace(ObjectId{k}, v);
        const auto [it, ref_inserted] = ref.try_emplace(k, v);
        ASSERT_EQ(inserted, ref_inserted) << "step " << step;
        ASSERT_EQ(*got, it->second) << "step " << step;
        break;
      }
      case 1:
        flat[ObjectId{k}] = v;
        ref[k] = v;
        break;
      case 2: {
        const std::uint64_t* got = flat.find(ObjectId{k});
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "step " << step;
        }
        break;
      }
      default:
        ASSERT_EQ(flat.erase(ObjectId{k}), ref.erase(k) == 1)
            << "step " << step;
        break;
    }
    if (step % 2000 == 0) expect_same(flat, ref);
  }
  expect_same(flat, ref);
}

// --- units & ids ---

TEST(TypesTest, ByteLiterals) {
  EXPECT_EQ(4_KB, 4096u);
  EXPECT_EQ(1_MB, 1048576u);
  EXPECT_EQ(2_GB, 2147483648u);
}

TEST(TypesTest, StrongIdsCompare) {
  EXPECT_EQ(ObjectId{1}, ObjectId{1});
  EXPECT_NE(ObjectId{1}, ObjectId{2});
  EXPECT_LT(MachineId{1}, MachineId{2});
}

// --- table formatting ---

TEST(TableTest, AlignsAndRejectsBadArity) {
  TextTable t({"a", "long-header"});
  t.add_row({"x", "y"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(fmt(1.25, 1), "1.2");
  EXPECT_EQ(fmt(1.25, 2), "1.25");
  EXPECT_EQ(fmt_count(22100000), "22.1M");
  EXPECT_EQ(fmt_count(4150), "4.2K");
  EXPECT_EQ(fmt_count(12), "12");
}

}  // namespace
}  // namespace bh
