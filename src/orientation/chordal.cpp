#include "orientation/chordal.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/assert.hpp"

namespace ssno {

bool satisfiesSP1(const Orientation& o) {
  SSNO_EXPECTS(o.graph != nullptr);
  const int n = o.graph->nodeCount();
  if (static_cast<int>(o.name.size()) != n) return false;
  std::set<int> seen;
  for (int v : o.name) {
    if (v < 0 || v >= o.modulus) return false;
    if (!seen.insert(v).second) return false;
  }
  return true;
}

bool satisfiesSP2(const Orientation& o) {
  SSNO_EXPECTS(o.graph != nullptr);
  const Graph& g = *o.graph;
  if (o.label.size() != g.portSlotCount()) return false;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      if (o.labelAt(p, l) !=
          chordalDistance(o.nameOf(p), o.nameOf(q), o.modulus))
        return false;
    }
  }
  return true;
}

bool satisfiesSpec(const Orientation& o) {
  return satisfiesSP1(o) && satisfiesSP2(o);
}

bool isLocallyOriented(const Orientation& o) {
  const Graph& g = *o.graph;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    std::set<int> labels;
    for (Port l = 0; l < g.degree(p); ++l)
      if (!labels.insert(o.labelAt(p, l)).second) return false;
  }
  return true;
}

bool hasEdgeSymmetry(const Orientation& o) {
  const Graph& g = *o.graph;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      const Port back = g.backPort(p, l);
      if ((o.labelAt(p, l) + o.labelAt(q, back)) % o.modulus != 0)
        return false;
    }
  }
  return true;
}

bool isLocallySymmetric(const Orientation& o) {
  return isLocallyOriented(o) && hasEdgeSymmetry(o);
}

Orientation inducedChordalOrientation(const Graph& g, std::vector<int> names,
                                      int modulus) {
  SSNO_EXPECTS(static_cast<int>(names.size()) == g.nodeCount());
  Orientation o;
  o.graph = &g;
  o.modulus = modulus;
  o.name = std::move(names);
  o.label.assign(g.portSlotCount(), 0);
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      o.labelAt(p, l) = chordalDistance(o.nameOf(p), o.nameOf(q), modulus);
    }
  }
  return o;
}

NodeId psiSuccessor(const Orientation& o, NodeId p) {
  SSNO_EXPECTS(satisfiesSP1(o));
  const int want = (o.nameOf(p) + 1) % o.modulus;
  for (NodeId q = 0; q < o.graph->nodeCount(); ++q)
    if (o.nameOf(q) == want) return q;
  return kNoNode;  // name `want` unused (modulus > node count)
}

int deltaDistance(const Orientation& o, NodeId p, NodeId q) {
  return chordalDistance(o.nameOf(q), o.nameOf(p), o.modulus);
}

std::string renderOrientation(const Orientation& o) {
  std::ostringstream out;
  const Graph& g = *o.graph;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    out << "node " << p << (p == g.root() ? " (root)" : "")
        << "  eta=" << o.nameOf(p) << "  labels:";
    for (Port l = 0; l < g.degree(p); ++l)
      out << "  ->" << g.neighborAt(p, l) << ':' << o.labelAt(p, l);
    out << '\n';
  }
  return out.str();
}

}  // namespace ssno
