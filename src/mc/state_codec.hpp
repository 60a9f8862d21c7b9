// StateCodec — bit-packed canonical configuration keys.
//
// Hashing configurations as per-node code vectors (Protocol::
// encodeConfiguration: n × 8 bytes, heap-allocated per successor)
// dominates at exploration scale: every successor differs from its parent
// in ONE node, yet encoding rebuilds the whole vector.  The codec instead
// packs every node's canonical code (Protocol::encodeNode, radix
// localStateCount) into a fixed-width key of `words()` 64-bit words using
// per-node bit fields, so
//
//   * a state is a flat fixed-width memcmp/hashable key (no per-state
//     allocation: keys live in the StateStore's arenas),
//   * a successor key is the parent key with ONE field patched
//     (setNodeCode, O(1)),
//   * decoding a state into a Protocol can skip every node whose field
//     is unchanged (decodeDelta compares word-by-word, so runs of
//     untouched nodes cost one 64-bit compare) — this is what keeps the
//     Protocol's dirty set small and the EnabledCache incremental during
//     exploration.
//
// Fields never straddle word boundaries (a field that does not fit in
// the current word's remaining bits starts the next word), so every
// extract/patch is a single shift/mask.  Unused bits are always zero:
// keys are canonical and comparable with memcmp.
#ifndef SSNO_MC_STATE_CODEC_HPP
#define SSNO_MC_STATE_CODEC_HPP

#include <cstdint>
#include <vector>

#include "core/assert.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ssno::mc {

class StateCodec {
 public:
  explicit StateCodec(const Protocol& protocol);

  /// Key width in 64-bit words (>= 1).
  [[nodiscard]] int words() const { return words_; }
  [[nodiscard]] int nodeCount() const {
    return static_cast<int>(fields_.size());
  }

  /// Whether the full product space ∏ localStateCount(p) fits in 64 bits
  /// (required by indexToKey-based full-space enumeration).
  [[nodiscard]] bool indexable() const { return indexable_; }
  /// The product; only meaningful when indexable().
  [[nodiscard]] std::uint64_t totalStates() const { return total_; }

  /// Packs the protocol's current configuration into `key`.
  void encode(const Protocol& protocol, std::uint64_t* key) const;

  /// Extracts node p's canonical code from a key.
  [[nodiscard]] std::uint64_t nodeCode(const std::uint64_t* key,
                                       NodeId p) const {
    const Field& f = fields_[static_cast<std::size_t>(p)];
    return (key[f.word] >> f.shift) & f.mask;
  }

  /// Overwrites node p's field in `key` (the O(1) successor patch).
  void setNodeCode(std::uint64_t* key, NodeId p, std::uint64_t code) const {
    const Field& f = fields_[static_cast<std::size_t>(p)];
    SSNO_ASSERT(code <= f.mask);
    key[f.word] = (key[f.word] & ~(f.mask << f.shift)) | (code << f.shift);
  }

  /// Decodes every node of `key` into the protocol (dirties everything).
  void decode(const std::uint64_t* key, Protocol& protocol) const;

  /// Decodes only the nodes whose fields differ between `key` and `prev`
  /// (the configuration currently held by the protocol).  Words that
  /// compare equal are skipped wholesale.  `prev == nullptr` falls back
  /// to a full decode.
  void decodeDelta(const std::uint64_t* key, const std::uint64_t* prev,
                   Protocol& protocol) const;

  /// Mixed-radix index -> key (full-space enumeration; requires
  /// indexable()).  Node 0 is the least significant digit and sits in the
  /// lowest bits of word 0, so for a one-word key index order is key
  /// order.
  void indexToKey(std::uint64_t index, std::uint64_t* key) const;

  /// Steps `key` to the key of the next index (a mixed-radix increment;
  /// the last index wraps to 0).
  void increment(std::uint64_t* key) const;

  /// Node p's digit weight ∏_{q<p} localStateCount(q), so a successor
  /// whose node p moves from code a to code b has index
  /// index + (b − a) · weight(p) (requires indexable()).
  [[nodiscard]] std::uint64_t weight(NodeId p) const {
    return fields_[static_cast<std::size_t>(p)].weight;
  }

  /// FNV-1a over the key words.
  [[nodiscard]] std::uint64_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (int w = 0; w < words_; ++w) {
      h ^= key[w];
      h *= 0x100000001B3ULL;
      h ^= h >> 29;  // fold high bits down for power-of-two tables
    }
    return h;
  }

 private:
  struct Field {
    std::uint32_t word = 0;
    std::uint32_t shift = 0;
    std::uint64_t mask = 0;   // (1 << bits) - 1; 0 for radix-1 nodes
    std::uint64_t radix = 1;
    std::uint64_t weight = 0;  // meaningful only when indexable()
  };

  std::vector<Field> fields_;
  std::vector<std::vector<NodeId>> wordNodes_;  // nodes packed per word
  int words_ = 1;
  bool indexable_ = true;
  std::uint64_t total_ = 1;
};

}  // namespace ssno::mc

#endif  // SSNO_MC_STATE_CODEC_HPP
