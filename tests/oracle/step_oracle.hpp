// Reference simultaneous step — the brute-force shared-memory definition
// that the columnar SimultaneousEngine must agree with, kept in the tests
// as its oracle: every move executes from the full pre-step
// configuration, and the post states are composed at the end.
#ifndef SSNO_TESTS_ORACLE_STEP_ORACLE_HPP
#define SSNO_TESTS_ORACLE_STEP_ORACLE_HPP

#include <vector>

#include "core/protocol.hpp"

namespace ssno::oracle {

/// Executes `moves` (at most one per processor) as one simultaneous
/// step and returns the resulting raw configuration, which the protocol
/// also holds afterwards.
inline std::vector<int> bruteForceStep(Protocol& proto,
                                       const std::vector<Move>& moves) {
  const std::vector<int> pre = proto.rawConfiguration();
  std::vector<std::vector<int>> post;
  for (const Move& m : moves) {
    proto.setRawConfiguration(pre);
    proto.execute(m.node, m.action);
    post.push_back(proto.rawNode(m.node));
  }
  proto.setRawConfiguration(pre);
  for (std::size_t i = 0; i < moves.size(); ++i)
    proto.setRawNode(moves[i].node, post[i]);
  return proto.rawConfiguration();
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_STEP_ORACLE_HPP
