#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/common/party_set.hpp"
#include "src/common/rng.hpp"

namespace bobw {
namespace {

// Universe sizes on both sides of each word boundary and of the inline
// limit (PartySet::kInlineParties = 128).
const int kSizes[] = {1, 63, 64, 65, 128, 129, 256};

/// Every id of [0, n) agrees with the reference set.
void expect_same(const PartySet& s, const std::set<int>& ref, int n) {
  EXPECT_EQ(s.count(), static_cast<int>(ref.size()));
  for (int p = 0; p < n; ++p) EXPECT_EQ(s.contains(p), ref.count(p) == 1) << "n " << n << " id " << p;
}

TEST(PartySet, InsertCountsDistinctIdsAndRejectsRepeats) {
  for (int n : kSizes) {
    Rng rng(static_cast<std::uint64_t>(n));
    PartySet s(n);
    std::set<int> ref;
    expect_same(s, ref, n);
    // 3n random inserts: plenty of repeats, most ids eventually present.
    for (int k = 0; k < 3 * n; ++k) {
      const int p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      EXPECT_EQ(s.insert(p), ref.insert(p).second) << "n " << n << " id " << p;
    }
    expect_same(s, ref, n);
    // The boundary ids of every word.
    for (int p : {0, n - 1, 63, 64, 127, 128})
      if (p < n) {
        EXPECT_EQ(s.insert(p), ref.insert(p).second);
        EXPECT_FALSE(s.insert(p));
      }
    expect_same(s, ref, n);
  }
}

TEST(PartySet, FullUniverse) {
  for (int n : kSizes) {
    PartySet s(n);
    for (int p = n - 1; p >= 0; --p) EXPECT_TRUE(s.insert(p));
    EXPECT_EQ(s.count(), n);
    for (int p = 0; p < n; ++p) EXPECT_FALSE(s.insert(p));
    EXPECT_EQ(s.count(), n);
  }
}

TEST(PartySet, CopyAndMoveAcrossInlineAndHeap) {
  for (int n : kSizes) {
    PartySet s(n);
    std::set<int> ref;
    for (int p = 0; p < n; p += 3) {
      s.insert(p);
      ref.insert(p);
    }
    // Copies are independent.
    PartySet copy(s);
    expect_same(copy, ref, n);
    if (n > 1) {
      EXPECT_TRUE(copy.insert(1));
      EXPECT_FALSE(s.contains(1));
    }
    // Move construction carries the set; the source is left empty.
    PartySet moved(std::move(copy));
    std::set<int> ref_copy = ref;
    if (n > 1) ref_copy.insert(1);
    expect_same(moved, ref_copy, n);
    EXPECT_EQ(copy.count(), 0);  // NOLINT(bugprone-use-after-move): documented state

    // Assignment between every pair of sizes, inline and heap alike.
    for (int m : kSizes) {
      PartySet other(m);
      other.insert(m - 1);
      other = s;
      expect_same(other, ref, n);
      PartySet target(m);
      target.insert(0);
      target = std::move(other);
      expect_same(target, ref, n);
      // The moved-into set owns its words: writing it leaves `s` alone.
      if (n > 2 && !target.contains(2)) {
        EXPECT_TRUE(target.insert(2));
        EXPECT_FALSE(s.contains(2));
      }
    }
    expect_same(s, ref, n);
  }
}

}  // namespace
}  // namespace bobw
