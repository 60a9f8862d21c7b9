#include "core/graph.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/assert.hpp"

namespace ssno {

Graph::Graph(int n, const std::vector<std::pair<NodeId, NodeId>>& edges,
             NodeId root)
    : root_(root) {
  if (n <= 0) throw std::invalid_argument("Graph: need at least one node");
  if (root < 0 || root >= n) throw std::invalid_argument("Graph: bad root");
  // Degrees first, counted into offsets_[p + 1].  Validating edge by edge
  // reports a duplicate before any later bad endpoint, so the first bad
  // endpoint only cuts the list at m here; it is thrown after the
  // duplicate check of the edges before it.
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  const auto inRange = [n](NodeId x) { return x >= 0 && x < n; };
  std::size_t m = 0;
  for (; m < edges.size(); ++m) {
    const auto [u, v] = edges[m];
    if (!inRange(u) || !inRange(v) || u == v) break;
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t p = 0; p < static_cast<std::size_t>(n); ++p) {
    max_degree_ = std::max(max_degree_, static_cast<int>(offsets_[p + 1]));
    offsets_[p + 1] += offsets_[p];
  }
  // CSR fill: port numbering at each endpoint is edge-list order, and
  // each slot records the port its edge got at the other endpoint.
  nbrs_.resize(offsets_.back());
  back_.resize(offsets_.back());
  std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const auto [u, v] = edges[i];
    const std::size_t su = fill[static_cast<std::size_t>(u)]++;
    const std::size_t sv = fill[static_cast<std::size_t>(v)]++;
    nbrs_[su] = v;
    nbrs_[sv] = u;
    back_[su] = static_cast<Port>(sv - offsets_[static_cast<std::size_t>(v)]);
    back_[sv] = static_cast<Port>(su - offsets_[static_cast<std::size_t>(u)]);
  }
  // Duplicates: one pass over the rows, stamping each neighbour with the
  // row's node, so a second link to the same neighbour finds its stamp.
  std::vector<NodeId> stamp(static_cast<std::size_t>(n), kNoNode);
  for (NodeId p = 0; p < n; ++p) {
    for (NodeId q : neighbors(p)) {
      if (stamp[static_cast<std::size_t>(q)] == p)
        throw std::invalid_argument("Graph: duplicate edge");
      stamp[static_cast<std::size_t>(q)] = p;
    }
  }
  if (m < edges.size()) {
    const auto [u, v] = edges[m];
    throw std::invalid_argument(inRange(u) && inRange(v)
                                    ? "Graph: self-loop"
                                    : "Graph: edge endpoint out of range");
  }
  edge_count_ = static_cast<int>(m);
}

bool Graph::isConnected() const {
  std::vector<bool> seen(static_cast<std::size_t>(nodeCount()), false);
  std::vector<NodeId> stack{root_};
  seen[static_cast<std::size_t>(root_)] = true;
  int visited = 0;
  while (!stack.empty()) {
    const NodeId p = stack.back();
    stack.pop_back();
    ++visited;
    for (NodeId q : neighbors(p)) {
      if (!seen[static_cast<std::size_t>(q)]) {
        seen[static_cast<std::size_t>(q)] = true;
        stack.push_back(q);
      }
    }
  }
  return visited == nodeCount();
}

Graph Graph::ring(int n) {
  SSNO_EXPECTS(n >= 3);
  std::vector<std::pair<NodeId, NodeId>> e;
  e.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return Graph(n, e);
}

Graph Graph::path(int n) {
  SSNO_EXPECTS(n >= 1);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return Graph(n, e);
}

Graph Graph::star(int n) {
  SSNO_EXPECTS(n >= 2);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 1; i < n; ++i) e.emplace_back(0, i);
  return Graph(n, e);
}

Graph Graph::complete(int n) {
  SSNO_EXPECTS(n >= 2);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return Graph(n, e);
}

Graph Graph::grid(int rows, int cols) {
  SSNO_EXPECTS(rows >= 1 && cols >= 1 && rows * cols >= 2);
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) e.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) e.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, e);
}

Graph Graph::torus(int rows, int cols) {
  SSNO_EXPECTS(rows >= 3 && cols >= 3);
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      e.emplace_back(id(r, c), id(r, (c + 1) % cols));
      e.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Graph(rows * cols, e);
}

Graph Graph::hypercube(int dim) {
  SSNO_EXPECTS(dim >= 1 && dim <= 20);
  const int n = 1 << dim;
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int u = 0; u < n; ++u)
    for (int b = 0; b < dim; ++b)
      if (const int v = u ^ (1 << b); u < v) e.emplace_back(u, v);
  return Graph(n, e);
}

Graph Graph::lollipop(int cliqueSize, int tailLen) {
  SSNO_EXPECTS(cliqueSize >= 2 && tailLen >= 1);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 0; i < cliqueSize; ++i)
    for (int j = i + 1; j < cliqueSize; ++j) e.emplace_back(i, j);
  // Tail hangs off the last clique node.
  int prev = cliqueSize - 1;
  for (int t = 0; t < tailLen; ++t) {
    e.emplace_back(prev, cliqueSize + t);
    prev = cliqueSize + t;
  }
  return Graph(cliqueSize + tailLen, e);
}

Graph Graph::kAryTree(int n, int k) {
  SSNO_EXPECTS(n >= 1 && k >= 1);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 1; i < n; ++i) e.emplace_back((i - 1) / k, i);
  return Graph(n, e);
}

Graph Graph::caterpillar(int spine, int legs) {
  SSNO_EXPECTS(spine >= 1 && legs >= 0);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int i = 0; i + 1 < spine; ++i) e.emplace_back(i, i + 1);
  int next = spine;
  for (int i = 0; i < spine; ++i)
    for (int l = 0; l < legs; ++l) e.emplace_back(i, next++);
  return Graph(spine + spine * legs, e);
}

Graph Graph::randomTree(int n, Rng& rng) {
  SSNO_EXPECTS(n >= 1);
  if (n == 1) return Graph(1, {});
  if (n == 2) return Graph(2, {{0, 1}});
  // Prüfer decoding yields a uniform random labelled tree.
  std::vector<int> pruefer(static_cast<std::size_t>(n - 2));
  for (auto& x : pruefer) x = rng.below(n);
  std::vector<int> deg(static_cast<std::size_t>(n), 1);
  for (int x : pruefer) ++deg[static_cast<std::size_t>(x)];
  std::set<int> leaves;
  for (int i = 0; i < n; ++i)
    if (deg[static_cast<std::size_t>(i)] == 1) leaves.insert(i);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int x : pruefer) {
    const int leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    e.emplace_back(leaf, x);
    if (--deg[static_cast<std::size_t>(x)] == 1) leaves.insert(x);
  }
  SSNO_ASSERT(leaves.size() == 2);
  const int a = *leaves.begin();
  const int b = *std::next(leaves.begin());
  e.emplace_back(a, b);
  return Graph(n, e);
}

Graph Graph::randomConnected(int n, double extraEdgeProb, Rng& rng) {
  SSNO_EXPECTS(n >= 1);
  if (n == 1) return Graph(1, {});
  // Random recursive spanning tree for connectivity...
  std::set<std::pair<NodeId, NodeId>> edges;
  for (int i = 1; i < n; ++i) {
    const int j = rng.below(i);
    edges.insert(std::minmax(i, j));
  }
  // ...plus independent extra edges.
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.chance(extraEdgeProb)) edges.insert({i, j});
  std::vector<std::pair<NodeId, NodeId>> e(edges.begin(), edges.end());
  return Graph(n, e);
}

Graph Graph::figure311() {
  // r=0, a=1, b=2, c=3, d=4.  Port order at the root lists b before a so
  // that the deterministic DFS reproduces the visit order of Figure 3.1.1:
  // r(0), b(1), d(2), c(3), backtrack to r, a(4).
  return Graph(5, {{0, 2}, {0, 1}, {2, 4}, {4, 3}});
}

Graph Graph::figure221() {
  // A 5-node cycle with one chord, as in the chordal-sense-of-direction
  // illustration: edge labels are distances along the cyclic order 0..4.
  return Graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}});
}

}  // namespace ssno
