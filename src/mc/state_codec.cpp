#include "mc/state_codec.hpp"

#include <bit>

#include "core/assert.hpp"

namespace ssno::mc {

StateCodec::StateCodec(const Protocol& protocol) {
  const int n = protocol.graph().nodeCount();
  fields_.resize(static_cast<std::size_t>(n));
  std::uint32_t word = 0;
  std::uint32_t used = 0;  // bits consumed in the current word
  for (NodeId p = 0; p < n; ++p) {
    const std::uint64_t radix = protocol.localStateCount(p);
    SSNO_EXPECTS(radix >= 1);
    const std::uint32_t bits =
        radix == 1 ? 0 : static_cast<std::uint32_t>(std::bit_width(radix - 1));
    if (used + bits > 64) {
      ++word;
      used = 0;
    }
    Field& f = fields_[static_cast<std::size_t>(p)];
    f.word = word;
    f.shift = used;
    f.mask = bits == 0 ? 0 : (bits == 64 ? ~0ULL : (1ULL << bits) - 1);
    f.radix = radix;
    used += bits;
    f.weight = total_;
    if (total_ > UINT64_MAX / radix) indexable_ = false;
    if (indexable_) total_ *= radix;
  }
  words_ = static_cast<int>(word) + 1;
  wordNodes_.resize(static_cast<std::size_t>(words_));
  for (NodeId p = 0; p < n; ++p)
    wordNodes_[fields_[static_cast<std::size_t>(p)].word].push_back(p);
}

void StateCodec::encode(const Protocol& protocol, std::uint64_t* key) const {
  for (int w = 0; w < words_; ++w) key[w] = 0;
  for (NodeId p = 0; p < nodeCount(); ++p) {
    const Field& f = fields_[static_cast<std::size_t>(p)];
    key[f.word] |= protocol.encodeNode(p) << f.shift;
  }
}

void StateCodec::decode(const std::uint64_t* key, Protocol& protocol) const {
  for (NodeId p = 0; p < nodeCount(); ++p)
    protocol.decodeNode(p, nodeCode(key, p));
}

void StateCodec::decodeDelta(const std::uint64_t* key,
                             const std::uint64_t* prev,
                             Protocol& protocol) const {
  if (prev == nullptr) {
    decode(key, protocol);
    return;
  }
  for (int w = 0; w < words_; ++w) {
    if (key[w] == prev[w]) continue;
    for (NodeId p : wordNodes_[static_cast<std::size_t>(w)]) {
      const Field& f = fields_[static_cast<std::size_t>(p)];
      const std::uint64_t code = (key[w] >> f.shift) & f.mask;
      if (code != ((prev[w] >> f.shift) & f.mask))
        protocol.decodeNode(p, code);
    }
  }
}

void StateCodec::indexToKey(std::uint64_t index, std::uint64_t* key) const {
  SSNO_EXPECTS(indexable_);
  for (int w = 0; w < words_; ++w) key[w] = 0;
  for (NodeId p = 0; p < nodeCount(); ++p) {
    const Field& f = fields_[static_cast<std::size_t>(p)];
    key[f.word] |= (index % f.radix) << f.shift;
    index /= f.radix;
  }
}

void StateCodec::increment(std::uint64_t* key) const {
  for (NodeId p = 0; p < nodeCount(); ++p) {
    const std::uint64_t code = nodeCode(key, p) + 1;
    const bool carry = code == fields_[static_cast<std::size_t>(p)].radix;
    setNodeCode(key, p, carry ? 0 : code);
    if (!carry) return;
  }
}

}  // namespace ssno::mc
