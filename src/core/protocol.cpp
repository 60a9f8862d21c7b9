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

void Protocol::expectEnabled(std::span<const Move> moves) {
  expect_nodes_.clear();
  for (const Move& m : moves) expect_nodes_.push_back(m.node);
  expect_masks_.resize(moves.size());
  evaluateGuards(expect_nodes_, expect_masks_.data());
  for (std::size_t i = 0; i < moves.size(); ++i)
    SSNO_EXPECTS(expect_masks_[i] >> moves[i].action & 1);
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

std::uint64_t Protocol::localStateCount(NodeId p) const {
  std::uint64_t count = 1;
  for (const StateArena* a : arenas_) count *= a->localStateCount(p);
  return count;
}

std::uint64_t Protocol::encodeNode(NodeId p) const {
  std::uint64_t code = 0;
  std::uint64_t weight = 1;
  for (const StateArena* a : arenas_) a->encodeNode(p, code, weight);
  return code;
}

void Protocol::doDecodeNode(NodeId p, std::uint64_t code) {
  for (StateArena* a : arenas_) code = a->decodeNode(p, code);
  SSNO_EXPECTS(code == 0);  // the code was below localStateCount(p)
}

void Protocol::doRandomizeNode(NodeId p, Rng& rng) {
  for (StateArena* a : arenas_) a->randomizeNode(p, rng);
}

std::vector<int> Protocol::rawNode(NodeId p) const {
  std::vector<int> out;
  out.reserve(rawNodeLength(p));
  for (const StateArena* a : arenas_) a->appendRawNode(p, out);
  return out;
}

std::size_t Protocol::rawNodeLength(NodeId p) const {
  std::size_t len = 0;
  for (const StateArena* a : arenas_) len += a->rawLength(p);
  return len;
}

void Protocol::setRawNode(NodeId p, std::span<const int> values) {
  std::size_t at = 0;
  for (StateArena* a : arenas_) at += a->readRawNode(p, values.subspan(at));
  SSNO_EXPECTS(at == values.size());
  noteWrite(p, kAnyWrite);
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
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    for (const StateArena* a : arenas_) a->appendRawNode(p, out);
  return out;
}

void Protocol::setRawConfiguration(const std::vector<int>& values) {
  const std::span<const int> all(values);
  std::size_t at = 0;
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    for (StateArena* a : arenas_) at += a->readRawNode(p, all.subspan(at));
  SSNO_EXPECTS(at == values.size());
  noteWriteAll();
}

}  // namespace ssno
