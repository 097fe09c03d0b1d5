// Property tests for the bank's slot-set code (bcwire, src/bcast/bc_bank.hpp)
// and the LEB128 varint it is built on (src/common/codec.hpp).
//
// The code must round-trip every set, give every permutation of one set the
// same bytes (BankCache::canonical shares payloads by bytes), pick the
// shorter of its two forms, and — fed truncated or random bytes — never
// throw out of the batch decoders nor hand back more than the plane's K ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/common/codec.hpp"
#include "src/common/rng.hpp"

namespace bobw {
namespace {

using Slots = std::vector<std::uint32_t>;

Bytes encode_set(Slots s) {
  Writer w;
  bcwire::put_slot_set(w, s);
  return w.take();
}

Slots decode_set(const Bytes& b, std::uint64_t K) {
  Reader r(b);
  Slots out;
  bcwire::get_slot_set(r, K, out);
  EXPECT_TRUE(r.exhausted());
  return out;
}

/// Sorted, repeat-free ids of [0, K) drawn by `shape`.
Slots make_set(const std::string& shape, std::uint64_t K, Rng& rng) {
  Slots s;
  const auto id = [&](std::uint64_t x) { s.push_back(static_cast<std::uint32_t>(x)); };
  if (shape == "empty") return s;
  if (shape == "single") {
    id(rng.next_below(K));
  } else if (shape == "long_run") {
    const std::uint64_t lo = rng.next_below(K);
    const std::uint64_t len = 1 + rng.next_below(K - lo);
    for (std::uint64_t x = lo; x < lo + len; ++x) id(x);
  } else if (shape == "dense") {
    for (std::uint64_t x = 0; x < K; ++x)
      if (rng.next_below(10) != 0) id(x);
  } else if (shape == "sparse") {
    for (std::uint64_t x = 0; x < K; ++x)
      if (rng.next_below(std::max<std::uint64_t>(K / 4, 2)) == 0) id(x);
  } else if (shape == "alternating") {
    for (std::uint64_t x = rng.next_below(2); x < K; x += 2) id(x);
  } else {  // "random": a few short runs at random offsets
    const std::uint64_t runs = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t lo = rng.next_below(K);
      for (std::uint64_t x = lo; x < std::min(K, lo + 1 + rng.next_below(5)); ++x) id(x);
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return s;
}

/// Every group of a decoded batch: ids below K, strictly ascending.
template <typename Group>
void expect_clipped(const std::vector<Group>& groups, std::uint64_t K, std::uint64_t budget) {
  std::uint64_t total = 0;
  for (const auto& g : groups) {
    EXPECT_LE(g.slots.size(), K);
    for (std::size_t i = 0; i < g.slots.size(); ++i) {
      EXPECT_LT(g.slots[i], K);
      if (i > 0) {
        EXPECT_LT(g.slots[i - 1], g.slots[i]);
      }
    }
    total += g.slots.size();
  }
  EXPECT_LE(total, budget);
}

TEST(Varint, RoundTripsEveryWidthAndRejectsOverflow) {
  const std::vector<std::uint64_t> values{0,
                                          1,
                                          127,
                                          128,
                                          16383,
                                          16384,
                                          0xFFFFFFFFull,
                                          0x100000000ull,
                                          std::uint64_t{1} << 63,
                                          std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  std::size_t bytes = 0;
  for (std::uint64_t v : values) {
    w.var(v);
    bytes += Writer::var_size(v);
    EXPECT_EQ(w.data().size(), bytes) << v;
  }
  EXPECT_EQ(Writer::var_size(127), 1u);
  EXPECT_EQ(Writer::var_size(128), 2u);
  EXPECT_EQ(Writer::var_size(std::numeric_limits<std::uint64_t>::max()), 10u);
  Reader r(w.data());
  for (std::uint64_t v : values) EXPECT_EQ(r.var(), v);
  EXPECT_TRUE(r.exhausted());

  const Bytes truncated{0x80, 0x80};
  const Bytes eleven(11, 0x80);
  Bytes past64(9, 0xFF);
  past64.push_back(0x02);  // the tenth byte may carry bit 63 only
  for (const Bytes& bad : {truncated, eleven, past64}) {
    Reader rb(bad);
    EXPECT_THROW(rb.var(), CodecError);
  }
}

TEST(SlotSet, RoundTripsRandomSetsAtEveryPlaneSize) {
  Rng rng(31);
  const std::vector<std::string> shapes{"empty",  "single",      "long_run", "dense",
                                        "sparse", "alternating", "random"};
  // K up to n² at n = 256 (a ΠVSS ok grid's slot count).
  for (std::uint64_t K : {1u, 2u, 7u, 16u, 100u, 256u, 4096u, 65536u})
    for (const std::string& shape : shapes)
      for (int rep = 0; rep < 4; ++rep) {
        const Slots s = make_set(shape, K, rng);
        const Bytes b = encode_set(s);
        Slots copy = s;
        EXPECT_EQ(bcwire::slot_set_size(copy), b.size()) << shape << " K " << K;
        EXPECT_EQ(decode_set(b, K), s) << shape << " K " << K;
      }
}

TEST(SlotSet, RoundTripsIdsNearTheTopOfTheIdSpace) {
  const std::uint32_t top = std::numeric_limits<std::uint32_t>::max();
  const std::vector<Slots> sets{{top},
                                {top - 2, top - 1, top},
                                {0, top},
                                {top - 64, top - 33, top - 1},
                                {1, 2, 3, top - 3, top - 2, top}};
  for (const Slots& s : sets) {
    EXPECT_EQ(decode_set(encode_set(s), bcwire::kMaxSlots), s);
    // Reversed, the top id is followed by a low one: 2^32 − 1 then 0 must
    // read as out of order, not as a run wrapping past the top.
    EXPECT_EQ(encode_set(Slots(s.rbegin(), s.rend())), encode_set(s));
    // The same bytes on a plane of 4 slots: only the ids below 4 stand.
    Slots low;
    std::copy_if(s.begin(), s.end(), std::back_inserter(low),
                 [](std::uint32_t x) { return x < 4; });
    EXPECT_EQ(decode_set(encode_set(s), 4), low);
  }
}

TEST(SlotSet, EveryPermutationEncodesToTheSameBytes) {
  Rng rng(77);
  for (int rep = 0; rep < 50; ++rep) {
    const Slots s = make_set(rep % 2 ? "random" : "sparse", 512, rng);
    const Bytes want = encode_set(s);
    Slots shuffled = s;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    if (!s.empty()) shuffled.push_back(s[rng.next_below(s.size())]);  // a repeat
    EXPECT_EQ(encode_set(shuffled), want) << rep;

    // And inside both messages, which is what the canonical-payload table
    // compares.
    EXPECT_EQ(bcwire::encode_acast_batch({{1, Bytes{9}, shuffled}}),
              bcwire::encode_acast_batch({{1, Bytes{9}, s}}));
    EXPECT_EQ(bcwire::encode_sba({3, {{Bytes{1, 2}, shuffled}}, Bytes{}}),
              bcwire::encode_sba({3, {{Bytes{1, 2}, s}}, Bytes{}}));
  }
}

TEST(SlotSet, PicksTheShorterFormWithTheCountedLength) {
  // Runs [5, 10) and {1000}: tag, 2 runs, (gap 5, len−1 4), (gap 990 as a
  // two-byte varint, len−1 0) = 7 bytes. The bitmap would be 1 + 1 + 2 +
  // ⌈996/8⌉ = 129.
  EXPECT_EQ(encode_set({5, 6, 7, 8, 9, 1000}), (Bytes{0x00, 0x02, 0x05, 0x04, 0xDE, 0x07, 0x00}));
  // Eight alternating ids from 3: as runs 1 + 1 + 8 × 2 = 18 bytes; as a
  // bitmap tag, lo 3, span 15 and two bytes of every other bit = 5.
  EXPECT_EQ(encode_set({3, 5, 7, 9, 11, 13, 15, 17}), (Bytes{0x01, 0x03, 0x0F, 0x55, 0x55}));
  // A tie goes to the run form; the empty set is a run form of no runs.
  EXPECT_EQ(encode_set({0}), (Bytes{0x00, 0x01, 0x00, 0x00}));
  EXPECT_EQ(encode_set({}), (Bytes{0x00, 0x00}));
}

TEST(SlotSet, ForgedRunsAndBitmapsAreClippedToThePlane) {
  const std::uint64_t K = 16;
  Slots all(K);
  for (std::uint32_t i = 0; i < K; ++i) all[i] = i;
  // One run of length 2^32 − 1 from slot 0: eight bytes on the wire.
  const Bytes bomb{0x00, 0x01, 0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F};
  EXPECT_EQ(decode_set(bomb, K), all);
  // A run of 2^64 − 1 ids, then a gap of 2^64 − 1: saturates, never wraps
  // back into [0, K).
  Writer sat;
  sat.u8(0x00);
  sat.var(2);
  sat.var(0);
  sat.var(std::numeric_limits<std::uint64_t>::max());
  sat.var(std::numeric_limits<std::uint64_t>::max());
  sat.var(0);
  EXPECT_EQ(decode_set(sat.data(), K), all);
  // A run starting past K yields nothing; a bitmap straddling K keeps the
  // ids below it.
  EXPECT_TRUE(decode_set(Bytes{0x00, 0x01, 0x20, 0x05}, K).empty());
  EXPECT_EQ(decode_set(Bytes{0x01, 0x0E, 0x04, 0x0F}, K), (Slots{14, 15}));
  // A bitmap whose span outruns the payload is a framing error.
  const Bytes short_bitmap_bytes{0x01, 0x00, 0xFF, 0xFF, 0x03, 0x01};
  Reader short_bitmap(short_bitmap_bytes);
  Slots out;
  EXPECT_THROW(bcwire::get_slot_set(short_bitmap, K, out), CodecError);
  const Bytes bad_tag_bytes{0x02, 0x00};
  Reader bad_tag(bad_tag_bytes);
  EXPECT_THROW(bcwire::get_slot_set(bad_tag, K, out), CodecError);

  // A batch names each slot at most once per INIT/ECHO/READY: the fourth
  // full group and everything after it are dropped.
  std::vector<bcwire::AcastGroup> groups;
  for (std::uint8_t type = 0; type < 5; ++type) groups.push_back({type, Bytes{type}, all});
  const auto batch = bcwire::decode_acast_batch(bcwire::encode_acast_batch(groups), K);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& g : batch) EXPECT_EQ(g.slots, all);
  // An SBA vector names each slot at most once: two full groups drop it.
  EXPECT_TRUE(bcwire::decode_sba(bcwire::encode_sba({1, {{Bytes{1}, all}}, Bytes{}}), K));
  EXPECT_FALSE(
      bcwire::decode_sba(bcwire::encode_sba({1, {{Bytes{1}, all}, {Bytes{2}, {3}}}, Bytes{}}), K));
}

TEST(SlotSet, TruncatedAndRandomBytesNeverThrowOutOfTheDecoders) {
  Rng rng(5);
  const std::uint64_t K = 300;
  std::vector<bcwire::AcastGroup> groups{{0, Bytes{1}, make_set("dense", K, rng)},
                                         {1, Bytes{2, 3}, make_set("alternating", K, rng)},
                                         {2, Bytes{}, make_set("random", K, rng)}};
  const auto last = static_cast<std::uint32_t>(K - 1);
  bcwire::SbaMsg sba{4, {{Bytes{1, 7}, make_set("sparse", K, rng)}, {Bytes{}, {last}}}, Bytes{9}};
  const Bytes batch = bcwire::encode_acast_batch(groups);
  const Bytes vector = bcwire::encode_sba(sba);
  ASSERT_EQ(bcwire::decode_acast_batch(batch, K).size(), 3u);
  ASSERT_TRUE(bcwire::decode_sba(vector, K));

  for (std::size_t cut = 0; cut < batch.size(); ++cut) {
    const Bytes prefix(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<bcwire::AcastGroup> got;
    EXPECT_NO_THROW(got = bcwire::decode_acast_batch(prefix, K)) << cut;
    EXPECT_LT(got.size(), 3u) << cut;
    expect_clipped(got, K, 3 * K);
  }
  for (std::size_t cut = 0; cut < vector.size(); ++cut) {
    const Bytes prefix(vector.begin(), vector.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(bcwire::decode_sba(prefix, K)) << cut;
  }
  for (const auto& g : groups) {
    const Bytes set = encode_set(g.slots);
    for (std::size_t cut = 0; cut < set.size(); ++cut) {
      const Bytes prefix(set.begin(), set.begin() + static_cast<std::ptrdiff_t>(cut));
      Reader r(prefix);
      Slots out;
      EXPECT_THROW(bcwire::get_slot_set(r, K, out), CodecError) << cut;
      EXPECT_LE(out.size(), K);
    }
  }

  // Random bytes: fully random strings, and valid messages with bytes
  // overwritten (which reach the set decoder far more often).
  for (int rep = 0; rep < 4000; ++rep) {
    Bytes b;
    if (rep % 2 == 0) {
      b.resize(rng.next_below(48));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(rep % 4 ? 256 : 3));
    } else {
      b = rep % 4 == 1 ? batch : vector;
      for (std::uint64_t i = 0, flips = 1 + rng.next_below(4); i < flips; ++i)
        b[rng.next_below(b.size())] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::vector<bcwire::AcastGroup> got;
    EXPECT_NO_THROW(got = bcwire::decode_acast_batch(b, K)) << rep;
    expect_clipped(got, K, 3 * K);
    std::optional<bcwire::SbaMsg> m;
    EXPECT_NO_THROW(m = bcwire::decode_sba(b, K)) << rep;
    if (m) expect_clipped(m->groups, K, K);
  }
}

}  // namespace
}  // namespace bobw
