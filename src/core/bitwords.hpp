// Multi-word bitmask utilities shared by the enabled-move pipeline
// (EnabledCache / EnabledView node iteration) and the model checker's
// fairness masks (mc/properties, which outgrew a single uint64_t once
// node·actions > 64 instances became checkable).
//
// Three layers:
//  * free word-level helpers (popcount, lowest set bit, select-k),
//  * WordBitset, a dynamic multi-word bitset with word access for
//    skip-scanning, and flat *mask-arena* helpers for storing many
//    fixed-width masks contiguously (one allocation for all of them),
//  * SummaryBitset, a two-level bitset for sparse sets searched on
//    every step (EnabledCache's enabled nodes).
#ifndef SSNO_CORE_BITWORDS_HPP
#define SSNO_CORE_BITWORDS_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/assert.hpp"

namespace ssno::bits {

inline constexpr int kWordBits = 64;

[[nodiscard]] inline int popcount(std::uint64_t w) {
  return std::popcount(w);
}

/// Index of the lowest set bit.  Precondition: w != 0.
[[nodiscard]] inline int lowestBit(std::uint64_t w) {
  return std::countr_zero(w);
}

/// Index of the k-th (0-based) set bit of w.  Precondition: k < popcount.
[[nodiscard]] inline int selectBit(std::uint64_t w, int k) {
  for (int i = 0; i < k; ++i) w &= w - 1;  // clear k lowest set bits
  return std::countr_zero(w);
}

/// Mask of all bits strictly above position `b` (b in 0..63).
[[nodiscard]] inline std::uint64_t bitsAbove(int b) {
  return b >= 63 ? 0 : ~std::uint64_t{0} << (b + 1);
}

[[nodiscard]] inline std::size_t wordsFor(std::size_t nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}

/// First set position >= from in a `nbits`-wide word array, or -1 —
/// WordBitset's word-skip scan, O(nbits/64) at worst.
[[nodiscard]] inline long findFrom(const std::uint64_t* words,
                                   std::size_t nbits, std::size_t from) {
  if (from >= nbits) return -1;
  std::size_t wi = from / kWordBits;
  const std::size_t wordCount = wordsFor(nbits);
  std::uint64_t w = words[wi] & (~std::uint64_t{0} << (from % kWordBits));
  while (true) {
    if (w != 0)
      return static_cast<long>(wi * kWordBits +
                               static_cast<std::size_t>(lowestBit(w)));
    if (++wi >= wordCount) return -1;
    w = words[wi];
  }
}

/// Dynamic multi-word bitset.  Unlike std::vector<bool> it exposes its
/// words, so consumers can skip runs of zeros 64 positions at a time.
/// A set searched on every step while sparse wants SummaryBitset.
class WordBitset {
 public:
  WordBitset() = default;
  explicit WordBitset(std::size_t nbits) { resize(nbits); }

  void resize(std::size_t nbits) {
    size_ = nbits;
    words_.assign(wordsFor(nbits), 0);
  }
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t wordCount() const { return words_.size(); }
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }

  void set(std::size_t i) {
    words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }
  void clear(std::size_t i) {
    words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(popcount(w));
    return c;
  }
  [[nodiscard]] bool any() const {
    for (std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  /// First set position, or -1.
  [[nodiscard]] long findFirst() const { return findFrom(0); }

  /// First set position >= i, or -1.
  [[nodiscard]] long findFrom(std::size_t i) const {
    return bits::findFrom(words_.data(), size_, i);
  }

  /// First set position strictly after i, or -1.
  [[nodiscard]] long findNext(std::size_t i) const { return findFrom(i + 1); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// A bitset with a summary level: summary bit w is set iff word w is
/// non-zero.  A search reads one summary word per 4096 positions and
/// only the non-zero words, so it costs O(1 + visited words + nbits/4096)
/// where WordBitset's search costs O(nbits/64): 25 summary words instead
/// of 1,563 words for a sparse set of 1e5 positions.  Positions are visited
/// in ascending order, as WordBitset visits them.
class SummaryBitset {
 public:
  void resize(std::size_t nbits) {
    size_ = nbits;
    words_.assign(wordsFor(nbits), 0);
    summary_.assign(wordsFor(words_.size()), 0);
  }
  void reset() {
    std::fill(words_.begin(), words_.end(), 0);
    std::fill(summary_.begin(), summary_.end(), 0);
  }

  void set(std::size_t i) {
    const std::size_t wi = i / kWordBits;
    words_[wi] |= std::uint64_t{1} << (i % kWordBits);
    summary_[wi / kWordBits] |= std::uint64_t{1} << (wi % kWordBits);
  }
  void clear(std::size_t i) {
    const std::size_t wi = i / kWordBits;
    words_[wi] &= ~(std::uint64_t{1} << (i % kWordBits));
    if (words_[wi] == 0)
      summary_[wi / kWordBits] &= ~(std::uint64_t{1} << (wi % kWordBits));
  }
  /// First set position >= from, or -1.
  [[nodiscard]] long findFrom(std::size_t from) const {
    if (from >= size_) return -1;
    std::size_t wi = from / kWordBits;
    const std::uint64_t w =
        words_[wi] & (~std::uint64_t{0} << (from % kWordBits));
    if (w != 0) return position(wi, w);
    // The next non-zero word, found on the summary level.
    if (++wi >= words_.size()) return -1;
    std::size_t si = wi / kWordBits;
    std::uint64_t s = summary_[si] & (~std::uint64_t{0} << (wi % kWordBits));
    while (s == 0) {
      if (++si >= summary_.size()) return -1;
      s = summary_[si];
    }
    wi = si * kWordBits + static_cast<std::size_t>(lowestBit(s));
    return position(wi, words_[wi]);
  }

  /// fn(i) for every set position i, ascending.
  template <class Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t si = 0; si < summary_.size(); ++si)
      for (std::uint64_t s = summary_[si]; s != 0; s &= s - 1) {
        const std::size_t wi =
            si * kWordBits + static_cast<std::size_t>(lowestBit(s));
        for (std::uint64_t w = words_[wi]; w != 0; w &= w - 1)
          fn(wi * kWordBits + static_cast<std::size_t>(lowestBit(w)));
      }
  }

 private:
  [[nodiscard]] static long position(std::size_t wi, std::uint64_t w) {
    SSNO_DBG_ASSERT(w != 0);  // a summary bit never outlives its word
    return static_cast<long>(wi * kWordBits +
                             static_cast<std::size_t>(lowestBit(w)));
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;  // bit w set iff words_[w] != 0
  std::size_t size_ = 0;
};

/// ---- Flat mask arenas ----------------------------------------------
/// Many fixed-width masks stored back to back: mask i occupies words
/// [i*stride, (i+1)*stride).  Used for the per-SCC enabled-pair
/// aggregates in the fairness analysis, one allocation per aggregate.

inline void maskSet(std::uint64_t* mask, std::size_t bit) {
  mask[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
}

[[nodiscard]] inline bool maskTest(const std::uint64_t* mask,
                                   std::size_t bit) {
  return (mask[bit / kWordBits] >> (bit % kWordBits)) & 1;
}

inline void maskAndInto(std::uint64_t* acc, const std::uint64_t* mask,
                        std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) acc[w] &= mask[w];
}

inline void maskOrInto(std::uint64_t* acc, const std::uint64_t* mask,
                       std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) acc[w] |= mask[w];
}

/// acc & ~mask == 0, i.e. every bit of acc is also set in mask.
[[nodiscard]] inline bool maskSubsetOf(const std::uint64_t* acc,
                                       const std::uint64_t* mask,
                                       std::size_t words) {
  for (std::size_t w = 0; w < words; ++w)
    if ((acc[w] & ~mask[w]) != 0) return false;
  return true;
}

}  // namespace ssno::bits

#endif  // SSNO_CORE_BITWORDS_HPP
