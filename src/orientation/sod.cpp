#include "orientation/sod.hpp"

#include <map>

namespace ssno {

std::optional<int> walkCode(const Orientation& o, NodeId from,
                            const std::vector<Port>& ports) {
  const Graph& g = *o.graph;
  NodeId cur = from;
  int code = 0;
  for (Port l : ports) {
    if (l < 0 || l >= g.degree(cur)) return std::nullopt;
    code = (code + o.labelAt(cur, l)) % o.modulus;
    cur = g.neighborAt(cur, l);
  }
  return code;
}

std::optional<NodeId> walkEnd(const Graph& g, NodeId from,
                              const std::vector<Port>& ports) {
  NodeId cur = from;
  for (Port l : ports) {
    if (l < 0 || l >= g.degree(cur)) return std::nullopt;
    cur = g.neighborAt(cur, l);
  }
  return cur;
}

int nameFromCode(const Orientation& o, NodeId p, int code) {
  return chordalDistance(o.nameOf(p), code, o.modulus);
}

int translateCode(const Orientation& o, NodeId p, Port l, int code) {
  const Graph& g = *o.graph;
  const NodeId q = g.neighborAt(p, l);
  const Port back = g.backPort(p, l);
  // η_q − η_t = (η_q − η_p) + (η_p − η_t) = π_q[back] + code.
  return (o.labelAt(q, back) + code) % o.modulus;
}

bool hasConsistentCoding(const Orientation& o, int maxLen) {
  const Graph& g = *o.graph;
  // BFS over walks from each origin; for each origin, a code must map to
  // exactly one endpoint and vice versa.
  for (NodeId origin = 0; origin < g.nodeCount(); ++origin) {
    std::map<int, NodeId> codeToEnd;
    std::map<NodeId, int> endToCode;
    // Frontier of (node, code) pairs reached by some walk.
    std::vector<std::pair<NodeId, int>> frontier{{origin, 0}};
    std::map<std::pair<NodeId, int>, bool> seen{{{origin, 0}, true}};
    for (int depth = 0; depth <= maxLen; ++depth) {
      std::vector<std::pair<NodeId, int>> next;
      for (const auto& [node, code] : frontier) {
        // Check the bijection between codes and endpoints.
        if (const auto it = codeToEnd.find(code); it != codeToEnd.end()) {
          if (it->second != node) return false;
        } else {
          codeToEnd.emplace(code, node);
        }
        if (const auto it = endToCode.find(node); it != endToCode.end()) {
          if (it->second != code) return false;
        } else {
          endToCode.emplace(node, code);
        }
        if (depth == maxLen) continue;
        for (Port l = 0; l < g.degree(node); ++l) {
          const NodeId to = g.neighborAt(node, l);
          const int c2 = (code + o.labelAt(node, l)) % o.modulus;
          if (!seen[{to, c2}]) {
            seen[{to, c2}] = true;
            next.emplace_back(to, c2);
          }
        }
      }
      frontier = std::move(next);
    }
  }
  return true;
}

bool hasConsistentTranslation(const Orientation& o) {
  const Graph& g = *o.graph;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      for (NodeId t = 0; t < g.nodeCount(); ++t) {
        const int codeAtP = chordalDistance(o.nameOf(p), o.nameOf(t),
                                            o.modulus);
        const int codeAtQ = chordalDistance(o.nameOf(q), o.nameOf(t),
                                            o.modulus);
        if (translateCode(o, p, l, codeAtP) != codeAtQ) return false;
      }
    }
  }
  return true;
}

}  // namespace ssno
