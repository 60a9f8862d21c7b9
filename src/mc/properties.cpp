#include "mc/properties.hpp"

#include <algorithm>
#include <sstream>

#include "core/assert.hpp"
#include "core/bitwords.hpp"

namespace ssno::mc {

std::string describeConfiguration(const Protocol& p) {
  std::ostringstream out;
  for (NodeId q = 0; q < p.graph().nodeCount(); ++q)
    out << "  node " << q << ": " << p.dumpNode(q) << '\n';
  return out.str();
}

TransitionGraph TransitionGraph::permuted(
    std::span<const std::uint32_t> order) const {
  SSNO_EXPECTS(order.size() == stateCount());
  std::vector<std::uint32_t> rank(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[order[i]] = static_cast<std::uint32_t>(i);
  TransitionGraph out;
  out.pairCount = pairCount;
  out.offsets.reserve(offsets.size());
  out.edges.reserve(edges.size());
  for (const std::uint32_t v : order) {
    for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const Edge& edge = edges[e];
      out.edges.push_back(
          {edge.to == kLeavesRegion ? kLeavesRegion : rank[edge.to],
           edge.actorPair});
    }
    out.endState();
  }
  return out;
}

std::int64_t findFairCycle(const TransitionGraph& g, Fairness fairness) {
  constexpr std::uint32_t kUnset = TransitionGraph::kLeavesRegion;
  const auto n = static_cast<std::uint32_t>(g.stateCount());

  // Iterative Tarjan over the in-region edges.  A visited state is on
  // the Tarjan stack exactly while its SCC is still unset.
  std::vector<std::uint32_t> index(n, kUnset);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> sccOf(n, kUnset);
  std::vector<std::uint32_t> tarjanStack;
  struct Frame {
    std::uint32_t v;
    std::uint32_t next;  // next edge of v to scan
  };
  std::vector<Frame> callStack;
  std::uint32_t nextIndex = 0;
  std::uint32_t sccCount = 0;
  const auto visit = [&](std::uint32_t v) {
    index[v] = low[v] = nextIndex++;
    tarjanStack.push_back(v);
    callStack.push_back({v, g.offsets[v]});
  };
  for (std::uint32_t start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    visit(start);
    while (!callStack.empty()) {
      Frame& f = callStack.back();
      const std::uint32_t v = f.v;
      bool descended = false;
      while (f.next < g.offsets[v + 1]) {
        const std::uint32_t w = g.edges[f.next++].to;
        if (w == TransitionGraph::kLeavesRegion) continue;
        if (index[w] == kUnset) {
          visit(w);  // invalidates f
          descended = true;
          break;
        }
        if (sccOf[w] == kUnset) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      callStack.pop_back();
      if (!callStack.empty()) {
        const std::uint32_t parent = callStack.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] == index[v]) {
        std::uint32_t w = kUnset;
        do {
          w = tarjanStack.back();
          tarjanStack.pop_back();
          sccOf[w] = sccCount;
        } while (w != v);
        ++sccCount;
      }
    }
  }

  // Only an SCC with an internal edge (a self-loop counts) can host an
  // infinite execution; those get an aggregate slot, the rest nothing.
  const auto internal = [&](const TransitionGraph::Edge& e, std::uint32_t s) {
    return e.to != TransitionGraph::kLeavesRegion && sccOf[e.to] == s;
  };
  std::vector<std::uint32_t> slot(sccCount, kUnset);
  std::uint32_t cyclic = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t s = sccOf[v];
    if (slot[s] != kUnset) continue;
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e)
      if (internal(g.edges[e], s)) {
        slot[s] = cyclic++;
        break;
      }
  }
  if (cyclic == 0) return -1;

  // A violation is reported at the first violating SCC in completion
  // order, through its highest-numbered state.
  const auto representative = [&](std::uint32_t s) -> std::int64_t {
    for (std::uint32_t v = n; v-- > 0;)
      if (sccOf[v] == s) return v;
    return -1;
  };
  if (fairness == Fairness::kNone) {
    for (std::uint32_t s = 0; s < sccCount; ++s)
      if (slot[s] != kUnset) return representative(s);
  }

  // Per-slot aggregates as flat multi-word masks; a state's enabled-pair
  // mask is the union of its edges' actor pairs, built in `mask` and
  // cleared again edge by edge.
  const std::size_t words =
      std::max<std::size_t>(1, bits::wordsFor(g.pairCount));
  std::vector<std::uint64_t> enabledAll(cyclic * words, ~0ULL);
  std::vector<std::uint64_t> enabledAny(cyclic * words, 0);
  std::vector<std::uint64_t> actsInside(cyclic * words, 0);
  std::vector<std::uint64_t> mask(words, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t s = sccOf[v];
    if (slot[s] == kUnset) continue;
    const std::size_t at = static_cast<std::size_t>(slot[s]) * words;
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const TransitionGraph::Edge& edge = g.edges[e];
      SSNO_DBG_ASSERT(edge.actorPair < g.pairCount);
      bits::maskSet(mask.data(), edge.actorPair);
      if (internal(edge, s))
        bits::maskSet(actsInside.data() + at, edge.actorPair);
    }
    bits::maskAndInto(enabledAll.data() + at, mask.data(), words);
    bits::maskOrInto(enabledAny.data() + at, mask.data(), words);
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e)
      mask[g.edges[e].actorPair / bits::kWordBits] = 0;
  }
  for (std::uint32_t s = 0; s < sccCount; ++s) {
    if (slot[s] == kUnset) continue;
    const std::size_t at = static_cast<std::size_t>(slot[s]) * words;
    // The SCC hosts a fair infinite execution iff no action that the
    // fairness notion protects is starved inside it.  (enabledAll is an
    // AND over state masks, so stray high bits vanish.)
    const std::uint64_t* protectedPairs =
        fairness == Fairness::kStronglyFair ? enabledAny.data() + at
                                            : enabledAll.data() + at;
    if (bits::maskSubsetOf(protectedPairs, actsInside.data() + at, words))
      return representative(s);
  }
  return -1;
}

}  // namespace ssno::mc
