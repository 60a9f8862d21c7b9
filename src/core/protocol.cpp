#include "core/protocol.hpp"

#include "core/assert.hpp"

namespace ssno {

std::vector<Move> Protocol::enabledMoves() const {
  std::vector<Move> moves;
  const int actions = actionCount();
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    for (int a = 0; a < actions; ++a)
      if (enabled(p, a)) moves.push_back(Move{p, a});
  return moves;
}

double Protocol::potentialHint() const {
  // Default adversarial potential: the enabled-move count.
  int count = 0;
  const int actions = actionCount();
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    for (int a = 0; a < actions; ++a)
      if (enabled(p, a)) ++count;
  return static_cast<double>(count);
}

std::vector<std::uint64_t> Protocol::encodeConfiguration() const {
  std::vector<std::uint64_t> codes;
  codes.reserve(static_cast<std::size_t>(graph().nodeCount()));
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    codes.push_back(encodeNode(p));
  return codes;
}

void Protocol::decodeConfiguration(const std::vector<std::uint64_t>& codes) {
  SSNO_EXPECTS(static_cast<int>(codes.size()) == graph().nodeCount());
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    doDecodeNode(p, codes[static_cast<std::size_t>(p)]);
  noteWriteAll();
}

std::vector<int> Protocol::rawConfiguration() const {
  std::vector<int> out;
  for (NodeId p = 0; p < graph().nodeCount(); ++p) {
    const std::vector<int> node = rawNode(p);
    out.insert(out.end(), node.begin(), node.end());
  }
  return out;
}

void Protocol::setRawConfiguration(const std::vector<int>& values) {
  std::size_t offset = 0;
  for (NodeId p = 0; p < graph().nodeCount(); ++p) {
    const std::size_t len = rawNodeLength(p);
    SSNO_EXPECTS(offset + len <= values.size());
    doSetRawNode(p, std::span<const int>(values).subspan(offset, len));
    offset += len;
  }
  SSNO_EXPECTS(offset == values.size());
  noteWriteAll();
}

std::uint64_t Protocol::configurationHash() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (NodeId p = 0; p < graph().nodeCount(); ++p) {
    std::uint64_t code = encodeNode(p);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (code >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

}  // namespace ssno
