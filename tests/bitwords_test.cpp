// Unit tests for the shared bitmask utilities (core/bitwords.hpp):
// word-level select, the WordBitset skip-scan, the two-level
// SummaryBitset search, and the flat multi-word mask arenas the fairness
// analysis uses.
#include "core/bitwords.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace ssno {
namespace {

TEST(BitWords, SelectBitPicksKthSetBit) {
  const std::uint64_t w = 0b1011'0101;
  EXPECT_EQ(bits::selectBit(w, 0), 0);
  EXPECT_EQ(bits::selectBit(w, 1), 2);
  EXPECT_EQ(bits::selectBit(w, 2), 4);
  EXPECT_EQ(bits::selectBit(w, 3), 5);
  EXPECT_EQ(bits::selectBit(w, 4), 7);
  EXPECT_EQ(bits::selectBit(~std::uint64_t{0}, 63), 63);
}

TEST(BitWords, BitsAboveMasksStrictlyHigherPositions) {
  EXPECT_EQ(bits::bitsAbove(63), 0u);
  EXPECT_EQ(bits::bitsAbove(0), ~std::uint64_t{0} << 1);
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t m = bits::bitsAbove(b);
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ((m >> i) & 1, static_cast<std::uint64_t>(i > b ? 1 : 0));
  }
}

TEST(WordBitset, SetClearTestAndCountAcrossWordBoundaries) {
  bits::WordBitset bs(200);
  const std::vector<std::size_t> positions{0, 1, 63, 64, 65, 127, 128, 199};
  for (std::size_t p : positions) bs.set(p);
  EXPECT_EQ(bs.count(), positions.size());
  for (std::size_t p : positions) EXPECT_TRUE(bs.test(p));
  EXPECT_FALSE(bs.test(2));
  EXPECT_FALSE(bs.test(126));
  bs.clear(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), positions.size() - 1);
}

TEST(WordBitset, FindFirstAndNextSkipZeroRuns) {
  bits::WordBitset bs(1000);
  EXPECT_EQ(bs.findFirst(), -1);
  bs.set(130);
  bs.set(131);
  bs.set(999);
  EXPECT_EQ(bs.findFirst(), 130);
  EXPECT_EQ(bs.findNext(130), 131);
  EXPECT_EQ(bs.findNext(131), 999);
  EXPECT_EQ(bs.findNext(999), -1);
  EXPECT_EQ(bs.findFrom(500), 999);
}

TEST(WordBitset, MatchesReferenceUnderRandomOperations) {
  bits::WordBitset bs(300);
  std::set<std::size_t> ref;
  Rng rng(0xB175);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(300));
    if (rng.chance(0.5)) {
      bs.set(i);
      ref.insert(i);
    } else {
      bs.clear(i);
      ref.erase(i);
    }
    EXPECT_EQ(bs.count(), ref.size());
  }
  // Full iteration via findFirst/findNext equals the reference set.
  std::set<std::size_t> walked;
  for (long i = bs.findFirst(); i >= 0;
       i = bs.findNext(static_cast<std::size_t>(i)))
    walked.insert(static_cast<std::size_t>(i));
  EXPECT_EQ(walked, ref);
}

// ---- SummaryBitset: one summary bit per 64-position word -------------

constexpr std::size_t kSummarySpan = 64 * 64;  // positions per summary word

/// First set position >= from in the reference, or -1.
long referenceFind(const std::vector<bool>& ref, std::size_t from) {
  for (std::size_t i = from; i < ref.size(); ++i)
    if (ref[i]) return static_cast<long>(i);
  return -1;
}

std::vector<std::size_t> walked(const bits::SummaryBitset& bs) {
  std::vector<std::size_t> out;
  bs.forEach([&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::vector<std::size_t> setPositions(const std::vector<bool>& ref) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (ref[i]) out.push_back(i);
  return out;
}

/// Positions on both sides of every word and summary-word boundary
/// below n, plus n-1.
std::vector<std::size_t> boundaryPositions(std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b <= n; b += bits::kWordBits)
    for (const std::size_t p : {b == 0 ? b : b - 1, b, b + 1})
      if (p < n) out.push_back(p);
  out.push_back(n - 1);
  return out;
}

const std::vector<std::size_t> kSummarySizes{
    1, 63, 64, 65, kSummarySpan - 1, kSummarySpan, kSummarySpan + 1,
    3 * kSummarySpan + 17};

TEST(SummaryBitset, MatchesReferenceUnderRandomSetClearReset) {
  Rng rng(0x5EED5);
  for (const std::size_t n : kSummarySizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    bits::SummaryBitset bs;
    bs.resize(n);
    std::vector<bool> ref(n, false);
    // Draw mostly from boundary positions, so words and summary words
    // empty and refill often; the rest land anywhere.
    const std::vector<std::size_t> hot = boundaryPositions(n);
    for (int step = 0; step < 3000; ++step) {
      if (rng.below(500) == 0) {
        bs.reset();
        ref.assign(n, false);
      }
      const auto i =
          rng.chance(0.8)
              ? hot[static_cast<std::size_t>(
                    rng.below(static_cast<int>(hot.size())))]
              : static_cast<std::size_t>(rng.below(static_cast<int>(n)));
      if (rng.chance(0.5)) {
        bs.set(i);
        ref[i] = true;
      } else {
        bs.clear(i);
        ref[i] = false;
      }
      ASSERT_EQ(bs.findFrom(i) == static_cast<long>(i), ref[i]);
      const auto from = static_cast<std::size_t>(rng.below(static_cast<int>(n)));
      ASSERT_EQ(bs.findFrom(from), referenceFind(ref, from))
          << "from=" << from << " step=" << step;
      if (step % 100 == 0) {
        ASSERT_EQ(walked(bs), setPositions(ref));
      }
    }
    EXPECT_EQ(walked(bs), setPositions(ref));
  }
}

TEST(SummaryBitset, FindFromEveryWordAndSummaryBoundary) {
  const std::size_t n = 3 * kSummarySpan + 17;
  const std::vector<std::size_t> boundaries = boundaryPositions(n);
  // One set position at a time, then every boundary position at once.
  std::vector<std::vector<std::size_t>> layouts;
  for (const std::size_t p : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              kSummarySpan - 1, kSummarySpan,
                              kSummarySpan + 1, 2 * kSummarySpan, n - 1})
    layouts.push_back({p});
  layouts.push_back(boundaries);
  layouts.push_back({});
  for (const std::vector<std::size_t>& layout : layouts) {
    bits::SummaryBitset bs;
    bs.resize(n);
    std::vector<bool> ref(n, false);
    for (const std::size_t p : layout) {
      bs.set(p);
      ref[p] = true;
    }
    for (const std::size_t from : boundaries)
      ASSERT_EQ(bs.findFrom(from), referenceFind(ref, from))
          << "from=" << from << " first set=" << referenceFind(ref, 0);
    EXPECT_EQ(bs.findFrom(n), -1);
  }
}

TEST(SummaryBitset, WalkVisitsEverySetPositionInAscendingOrder) {
  const std::size_t n = 3 * kSummarySpan + 17;
  bits::SummaryBitset bs;
  bs.resize(n);
  // Inserted out of order, across all four summary words.
  const std::vector<std::size_t> inserted{n - 1, 5, 2 * kSummarySpan + 64,
                                          kSummarySpan, 63, 64,
                                          kSummarySpan - 1, 4 * 64 + 7};
  for (const std::size_t p : inserted) bs.set(p);
  std::vector<std::size_t> expected = inserted;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(walked(bs), expected);
  // findFrom chained from each hit visits the same sequence.
  std::vector<std::size_t> chained;
  for (long i = bs.findFrom(0); i >= 0 && chained.size() <= expected.size();
       i = bs.findFrom(static_cast<std::size_t>(i) + 1))
    chained.push_back(static_cast<std::size_t>(i));
  EXPECT_EQ(chained, expected);
}

TEST(SummaryBitset, EmptyingAWordClearsItsSummaryBit) {
  const std::size_t n = 3 * kSummarySpan + 17;
  bits::SummaryBitset bs;
  bs.resize(n);
  // Two positions share word 5; a third sits in the next summary word.
  bs.set(5 * 64 + 3);
  bs.set(5 * 64 + 60);
  const std::size_t later = kSummarySpan + 100;
  bs.set(later);
  bs.clear(5 * 64 + 3);
  EXPECT_EQ(bs.findFrom(0), 5 * 64 + 60);  // word 5 is still non-zero
  bs.clear(5 * 64 + 60);
  // Word 5 is empty now: a stale summary bit would stop the search there.
  EXPECT_EQ(bs.findFrom(0), static_cast<long>(later));
  EXPECT_EQ(bs.findFrom(5 * 64), static_cast<long>(later));
  EXPECT_EQ(walked(bs), std::vector<std::size_t>{later});
  bs.clear(later);
  EXPECT_EQ(bs.findFrom(0), -1);
  EXPECT_TRUE(walked(bs).empty());
  // Clearing an already clear position leaves the other words alone.
  bs.set(2 * kSummarySpan);
  bs.clear(2 * kSummarySpan + 1);
  EXPECT_EQ(bs.findFrom(0), static_cast<long>(2 * kSummarySpan));
}

TEST(MaskArena, MultiWordSetTestAndAggregates) {
  // 3 masks of 100 bits each -> 2 words per mask.
  const std::size_t words = bits::wordsFor(100);
  ASSERT_EQ(words, 2u);
  std::vector<std::uint64_t> arena(3 * words, 0);
  bits::maskSet(arena.data() + 0 * words, 5);
  bits::maskSet(arena.data() + 0 * words, 70);
  bits::maskSet(arena.data() + 1 * words, 70);
  bits::maskSet(arena.data() + 2 * words, 99);
  EXPECT_TRUE(bits::maskTest(arena.data() + 0 * words, 70));
  EXPECT_FALSE(bits::maskTest(arena.data() + 1 * words, 5));

  // AND-accumulate: only bit 70 survives masks 0 and 1.
  std::vector<std::uint64_t> all(words, ~0ULL);
  bits::maskAndInto(all.data(), arena.data() + 0 * words, words);
  bits::maskAndInto(all.data(), arena.data() + 1 * words, words);
  EXPECT_TRUE(bits::maskTest(all.data(), 70));
  EXPECT_FALSE(bits::maskTest(all.data(), 5));

  // OR-accumulate: union of all three masks.
  std::vector<std::uint64_t> any(words, 0);
  for (int i = 0; i < 3; ++i)
    bits::maskOrInto(any.data(), arena.data() + i * static_cast<long>(words),
                     words);
  EXPECT_TRUE(bits::maskTest(any.data(), 5));
  EXPECT_TRUE(bits::maskTest(any.data(), 70));
  EXPECT_TRUE(bits::maskTest(any.data(), 99));

  // Subset relation across the word boundary.
  EXPECT_TRUE(bits::maskSubsetOf(all.data(), any.data(), words));
  EXPECT_FALSE(bits::maskSubsetOf(any.data(), all.data(), words));
}

}  // namespace
}  // namespace ssno
