// StateArena — SoA storage for per-node protocol state.
//
// Every protocol keeps each of its variables as a *column*: one
// contiguous int array over all processors (node columns), over all
// CSR port slots (port columns, indexed by Graph::portBase(p) + l), or
// a variable-length row per processor in a shared paged pool (var
// columns).  Compared to per-object fields and vector<vector<int>>
// per-port tables, columns keep guard evaluation cache-friendly at
// n >= 1e5 (neighbor reads of one variable walk one array instead of
// hopping across per-node heap blocks).
//
// A node or port column declares its Domain: the values lo ..
// lo + base + perDegree·deg(p) − 1 at p, and optionally a pin, the
// root's fixed value (DFTC's depth and parent port, say).  The domains
// give the protocol layer, per processor and with no per-protocol code,
//   * a mixed-radix codec: the digits are the node columns, then port
//     by port the port columns, in registration order; the arena's
//     DigitOrder fixes whether the first digit is the least or the most
//     significant (DFTC's S is least significant, DFTNO's η most);
//   * uniform draws, column by column in registration order;
//   * a raw form: per column in registration order, one value (node
//     column), degree(p) values (port column) or a length-prefixed row
//     (var column), with pinned columns reset to their pin at the root.
// A var column makes the raw length state-dependent and carries no
// digits or draws; its protocol (LexDfsTree) codes and draws it itself.
//
// Usage pattern (see Dftc for the canonical example):
//
//   class MyProtocol : public Protocol {
//     StateArena arena_;
//     NodeColumn x_;   // one int per processor, 0..n-1
//     PortColumn y_;   // one int per (processor, port), 0..1
//    public:
//     explicit MyProtocol(Graph g)
//         : Protocol(std::move(g)),
//           arena_(graph(), DigitOrder::kLeastFirst),
//           x_(arena_.nodeColumn({.base = graph().nodeCount()})),
//           y_(arena_.portColumn({.base = 2})) {
//       addArena(arena_);
//     }
//   };
//
// Batched multi-node snapshot/restore (the simultaneous-step engine's
// path): snapshotNodes copies the listed processors' values into a
// flat per-column scratch — one tight loop per column over one backing
// array, no per-node vector<int> — and restoreNodes/restoreNode invert
// it.  The scratch's bounds table records each (column, node) slice, so
// single-node rollbacks during a simultaneous step are O(slice) copies.
//
// Columns are plain storage and the arena notifies no one: ALL writes
// must still go through the Protocol mutation wrappers (execute,
// setRawNode, decodeNode, randomizeNode, ...) or be followed by
// explicit dirty calls.  In particular restoreNodes bypasses the
// wrappers; its callers (core/sync_engine) dirty the restored region
// themselves.
#ifndef SSNO_CORE_STATE_ARENA_HPP
#define SSNO_CORE_STATE_ARENA_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"

namespace ssno {

/// One int per processor, contiguous over all processors.
class NodeColumn {
 public:
  NodeColumn() = default;
  [[nodiscard]] int& operator[](NodeId p) {
    return (*data_)[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const int& operator[](NodeId p) const {
    return (*data_)[static_cast<std::size_t>(p)];
  }
  void fill(int value) { std::fill(data_->begin(), data_->end(), value); }
  [[nodiscard]] const std::vector<int>& data() const { return *data_; }

 private:
  friend class StateArena;
  explicit NodeColumn(std::vector<int>* data) : data_(data) {}
  std::vector<int>* data_ = nullptr;
};

/// One int per (processor, port) slot, flat CSR layout.
class PortColumn {
 public:
  PortColumn() = default;
  [[nodiscard]] int& at(NodeId p, Port l) {
    return (*data_)[graph_->portBase(p) + static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const int& at(NodeId p, Port l) const {
    return (*data_)[graph_->portBase(p) + static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::span<int> row(NodeId p) {
    return {data_->data() + graph_->portBase(p),
            static_cast<std::size_t>(graph_->degree(p))};
  }
  [[nodiscard]] std::span<const int> row(NodeId p) const {
    return {data_->data() + graph_->portBase(p),
            static_cast<std::size_t>(graph_->degree(p))};
  }
  void fill(int value) { std::fill(data_->begin(), data_->end(), value); }
  /// The whole flat column (the Orientation::label snapshot format).
  [[nodiscard]] const std::vector<int>& data() const { return *data_; }

 private:
  friend class StateArena;
  PortColumn(std::vector<int>* data, const Graph* graph)
      : data_(data), graph_(graph) {}
  std::vector<int>* data_ = nullptr;
  const Graph* graph_ = nullptr;
};

/// Variable-length int row per processor, stored in a shared paged pool
/// (offset/length/capacity per processor).  A row that outgrows its
/// slot relocates to a fresh power-of-two slot at the pool tail; the
/// pool compacts once dead space exceeds the live size, so memory stays
/// O(live) without per-node heap blocks.  This is how LexDfsTree's
/// path words finished their SoA conversion: guard evaluation reads
/// neighbor rows as spans of one shared array, allocation-free.
///
/// row() spans are invalidated by ANY setRow on the same column
/// (relocation/compaction may move the pool) — read-compare first,
/// write last, or copy out.
class VarColumn {
 public:
  VarColumn() = default;

  [[nodiscard]] std::span<const int> row(NodeId p) const {
    const Slot& s = (*slots_)[static_cast<std::size_t>(p)];
    return {pool_->data() + s.off, static_cast<std::size_t>(s.len)};
  }
  [[nodiscard]] int length(NodeId p) const {
    return (*slots_)[static_cast<std::size_t>(p)].len;
  }

  /// Replaces p's row.  Safe even when `values` aliases this column's
  /// own pool (e.g. a neighbor's row plus an extension).
  void setRow(NodeId p, std::span<const int> values) {
    Slot& s = (*slots_)[static_cast<std::size_t>(p)];
    if (static_cast<int>(values.size()) <= s.cap) {
      // In-place: relocation impossible, aliasing (even self) is fine
      // because copy regions are either identical or disjoint slots.
      std::copy(values.begin(), values.end(),
                pool_->begin() + static_cast<long>(s.off));
      s.len = static_cast<int>(values.size());
      return;
    }
    relocate(p, values);
  }

 private:
  friend class StateArena;
  struct Slot {
    std::size_t off = 0;
    int len = 0;
    int cap = 0;
  };
  struct Store {
    std::vector<int> pool;
    std::vector<Slot> slots;
    std::vector<int> scratch;   // aliasing guard for relocating writes
    std::size_t deadInts = 0;   // capacity abandoned by relocations
  };
  explicit VarColumn(Store* store)
      : pool_(&store->pool), slots_(&store->slots), store_(store) {}

  void relocate(NodeId p, std::span<const int> values) {
    Slot& s = (*slots_)[static_cast<std::size_t>(p)];
    // The pool may grow or compact below; stash aliasing sources first.
    std::vector<int>& scratch = store_->scratch;
    scratch.assign(values.begin(), values.end());
    store_->deadInts += static_cast<std::size_t>(s.cap);
    int cap = 4;
    while (cap < static_cast<int>(scratch.size())) cap *= 2;
    if (store_->deadInts > pool_->size() / 2 && pool_->size() > 1024)
      compact();
    s.off = pool_->size();
    s.cap = cap;
    s.len = static_cast<int>(scratch.size());
    pool_->resize(pool_->size() + static_cast<std::size_t>(cap), 0);
    std::copy(scratch.begin(), scratch.end(),
              pool_->begin() + static_cast<long>(s.off));
  }

  /// Rewrites the pool with only live slots (capacities preserved, so
  /// the growth amortization argument survives compaction).
  void compact() {
    std::vector<int> fresh;
    std::size_t live = 0;
    for (const Slot& s : *slots_) live += static_cast<std::size_t>(s.cap);
    fresh.reserve(live);
    for (Slot& s : *slots_) {
      const std::size_t off = fresh.size();
      fresh.insert(fresh.end(),
                   pool_->begin() + static_cast<long>(s.off),
                   pool_->begin() + static_cast<long>(s.off) +
                       static_cast<long>(s.cap));
      s.off = off;
    }
    *pool_ = std::move(fresh);
    store_->deadInts = 0;
  }

  std::vector<int>* pool_ = nullptr;
  std::vector<Slot>* slots_ = nullptr;
  Store* store_ = nullptr;
};

/// A column's declared values at processor p: the count(p) = base +
/// perDegree·deg(p) integers from lo up.  A column with a rootPin holds
/// that value at the root, where it is no digit and draws nothing.
struct Domain {
  int lo = 0;
  int base = 0;
  int perDegree = 0;
  std::optional<int> rootPin = std::nullopt;
};

/// Which end of an arena's digit sequence is least significant.
enum class DigitOrder { kLeastFirst, kMostFirst };

class StateArena {
 public:
  StateArena(const Graph& graph, DigitOrder order)
      : graph_(&graph), order_(order) {}

  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  /// Registers a column holding one value per processor, each starting
  /// at domain.lo (the root at its pin).
  [[nodiscard]] NodeColumn nodeColumn(Domain domain) {
    NodeColumn col(addColumn(Kind::kNode, domain,
                             static_cast<std::size_t>(graph_->nodeCount())));
    if (domain.rootPin) col[graph_->root()] = *domain.rootPin;
    return col;
  }

  /// Registers a column holding one value per (processor, port) slot,
  /// each starting at domain.lo (the root's at its pin).
  [[nodiscard]] PortColumn portColumn(Domain domain) {
    PortColumn col(addColumn(Kind::kPort, domain, graph_->portSlotCount()),
                   graph_);
    if (domain.rootPin)
      for (int& v : col.row(graph_->root())) v = *domain.rootPin;
    return col;
  }

  /// Registers a variable-length column; every processor starts with an
  /// empty row.  It carries no digits and draws nothing: a protocol with
  /// one codes and draws its rows itself.
  [[nodiscard]] VarColumn varColumn() {
    Col c;
    c.kind = Kind::kVar;
    c.var = std::make_unique<VarColumn::Store>();
    c.var->slots.assign(static_cast<std::size_t>(graph_->nodeCount()), {});
    cols_.push_back(std::move(c));
    return VarColumn(cols_.back().var.get());
  }

  /// ---- Per-node codec and draws over the declared domains -------------
  /// Processor p's digits are each node column's value, then port by
  /// port each port column's entry, in registration order; the arena's
  /// DigitOrder says whether the first is the least or the most
  /// significant.  A digit has count(p) values; a column pinned at the
  /// root is no digit there.

  /// Number of p's local states in this arena: ∏ count(p) over its digits.
  [[nodiscard]] std::uint64_t localStateCount(NodeId p) const {
    std::uint64_t count = 1;
    forEachDigit(p, [&count](int&, int, std::uint32_t radix) {
      count *= radix;
    });
    return count;
  }

  /// Adds p's code in this arena to `code` at place value `weight`, and
  /// multiplies `weight` by localStateCount(p): a protocol folds its
  /// arenas from the least significant up.
  void encodeNode(NodeId p, std::uint64_t& code, std::uint64_t& weight) const {
    forEachDigit(p, [&code, &weight](int& v, int lo, std::uint32_t radix) {
      code += static_cast<std::uint64_t>(v - lo) * weight;
      weight *= radix;
    });
  }

  /// Writes p's digits from the low end of `code`; returns what is left
  /// (code / localStateCount(p)) for the next, more significant arena.
  std::uint64_t decodeNode(NodeId p, std::uint64_t code) {
    forEachDigit(p, [&code](int& v, int lo, std::uint32_t radix) {
      v = lo + static_cast<int>(code % radix);
      code /= radix;
    });
    return code;
  }

  /// Draws p's values column by column in registration order, each
  /// lo + rng.below(count(p)); pinned columns draw nothing at the root.
  void randomizeNode(NodeId p, Rng& rng) {
    const bool root = p == graph_->root();
    const int deg = graph_->degree(p);
    for (Col& c : cols_) {
      if (c.kind == Kind::kVar || (root && c.domain.rootPin)) continue;
      const int count = c.domain.base + c.domain.perDegree * deg;
      for (const std::size_t slot : slots(c, p))
        (*c.data)[slot] = c.domain.lo + rng.below(count);
    }
  }

  /// ---- Raw form ---------------------------------------------------------
  /// Values in processor p's raw snapshot (columns in registration
  /// order; a port column contributes degree(p) values, a var column a
  /// length-prefixed row — i.e. state-dependent, see header comment).
  [[nodiscard]] std::size_t rawLength(NodeId p) const {
    std::size_t len = 0;
    for (const Col& c : cols_) {
      switch (c.kind) {
        case Kind::kNode: len += 1; break;
        case Kind::kPort:
          len += static_cast<std::size_t>(graph_->degree(p));
          break;
        case Kind::kVar:
          len += 1 + static_cast<std::size_t>(
                         c.var->slots[static_cast<std::size_t>(p)].len);
          break;
      }
    }
    return len;
  }

  void appendRawNode(NodeId p, std::vector<int>& out) const {
    visitRawNode(p, [&out](int v) {
      out.push_back(v);
      return true;
    });
  }

  /// Calls fn(v) for each of p's raw values in raw order without
  /// materializing them, stopping as soon as fn returns false; returns
  /// whether every value was visited (the hashing and exact-compare
  /// primitive of core/orbit_index).
  template <class Fn>
  bool visitRawNode(NodeId p, Fn&& fn) const {
    for (const Col& c : cols_) {
      if (c.kind == Kind::kVar) {
        const auto& s = c.var->slots[static_cast<std::size_t>(p)];
        if (!fn(s.len)) return false;
        const int* row = c.var->pool.data() + s.off;
        for (int i = 0; i < s.len; ++i)
          if (!fn(row[i])) return false;
        continue;
      }
      for (const std::size_t slot : slots(c, p))
        if (!fn((*c.data)[slot])) return false;
    }
    return true;
  }

  /// Reads p's raw form from the front of `values` and returns how many
  /// values it took; pinned columns keep their pin at the root.  Does
  /// NOT dirty anything (see header comment).
  std::size_t readRawNode(NodeId p, std::span<const int> values) {
    const bool root = p == graph_->root();
    std::size_t at = 0;
    for (Col& c : cols_) {
      if (c.kind == Kind::kVar) {
        SSNO_EXPECTS(at < values.size());
        const auto len = static_cast<std::size_t>(values[at++]);
        SSNO_EXPECTS(at + len <= values.size());
        VarColumn(c.var.get()).setRow(p, values.subspan(at, len));
        at += len;
        continue;
      }
      for (const std::size_t slot : slots(c, p)) {
        SSNO_EXPECTS(at < values.size());
        (*c.data)[slot] =
            root && c.domain.rootPin ? *c.domain.rootPin : values[at];
        ++at;
      }
    }
    return at;
  }

  /// Inverse of appendRawNode: `values` is exactly p's raw form.
  void setRawNode(NodeId p, std::span<const int> values) {
    const std::size_t used = readRawNode(p, values);
    SSNO_EXPECTS(used == values.size());
  }

  /// ---- Column-batched multi-node snapshot/restore ---------------------
  /// Reusable scratch: `data` holds the listed processors' values
  /// column-major (all of column 0's slices, then column 1's, ...);
  /// `bounds[c * (nodes + 1) + j]` is the start of processor j's slice
  /// of column c in `data` (entry `nodes` is the column segment's end).
  struct Scratch {
    std::vector<int> data;
    std::vector<std::size_t> bounds;
    std::size_t nodes = 0;
  };

  /// Copies the listed processors' state into `out`, one tight loop per
  /// column (no per-node vectors, no virtual dispatch).
  void snapshotNodes(std::span<const NodeId> nodes, Scratch& out) const {
    const std::size_t k = nodes.size();
    out.nodes = k;
    out.bounds.resize(cols_.size() * (k + 1));
    // Pass 1: prefix bounds only, so a single resize sizes the data
    // buffer and the copy loops write through raw pointers — the
    // per-element push_back/insert capacity checks otherwise dominate
    // the snapshot on dense synchronous steps.
    std::size_t total = 0;
    for (std::size_t ci = 0; ci < cols_.size(); ++ci) {
      const Col& c = cols_[ci];
      std::size_t* bounds = out.bounds.data() + ci * (k + 1);
      switch (c.kind) {
        case Kind::kNode:
          for (std::size_t j = 0; j < k; ++j) bounds[j] = total++;
          break;
        case Kind::kPort:
          for (std::size_t j = 0; j < k; ++j) {
            bounds[j] = total;
            total += static_cast<std::size_t>(graph_->degree(nodes[j]));
          }
          break;
        case Kind::kVar:
          for (std::size_t j = 0; j < k; ++j) {
            bounds[j] = total;
            total += static_cast<std::size_t>(
                c.var->slots[static_cast<std::size_t>(nodes[j])].len);
          }
          break;
      }
      bounds[k] = total;
    }
    out.data.resize(total);
    int* dst = out.data.data();
    for (std::size_t ci = 0; ci < cols_.size(); ++ci) {
      const Col& c = cols_[ci];
      const std::size_t* bounds = out.bounds.data() + ci * (k + 1);
      switch (c.kind) {
        case Kind::kNode: {
          const int* src = c.data->data();
          int* d = dst + bounds[0];
          for (std::size_t j = 0; j < k; ++j)
            d[j] = src[static_cast<std::size_t>(nodes[j])];
          break;
        }
        case Kind::kPort: {
          const int* src = c.data->data();
          for (std::size_t j = 0; j < k; ++j)
            std::copy_n(src + graph_->portBase(nodes[j]),
                        bounds[j + 1] - bounds[j], dst + bounds[j]);
          break;
        }
        case Kind::kVar: {
          const int* pool = c.var->pool.data();
          for (std::size_t j = 0; j < k; ++j) {
            const auto& s = c.var->slots[static_cast<std::size_t>(nodes[j])];
            std::copy_n(pool + s.off, bounds[j + 1] - bounds[j],
                        dst + bounds[j]);
          }
          break;
        }
      }
    }
  }

  /// Restores every listed processor from `snap` (the inverse of
  /// snapshotNodes with the same `nodes` list).
  void restoreNodes(std::span<const NodeId> nodes, const Scratch& snap) {
    SSNO_EXPECTS(nodes.size() == snap.nodes);
    for (std::size_t j = 0; j < nodes.size(); ++j)
      restoreNode(j, nodes[j], snap);
  }

  /// Restores a single listed processor (`p == nodes[j]` of the
  /// snapshotNodes call that filled `snap`) — the simultaneous-step
  /// rollback primitive.
  void restoreNode(std::size_t j, NodeId p, const Scratch& snap) {
    SSNO_EXPECTS(j < snap.nodes);
    const std::size_t k = snap.nodes;
    for (std::size_t ci = 0; ci < cols_.size(); ++ci) {
      Col& c = cols_[ci];
      const std::size_t* bounds = snap.bounds.data() + ci * (k + 1);
      const int* from = snap.data.data() + bounds[j];
      const std::size_t len = bounds[j + 1] - bounds[j];
      switch (c.kind) {
        case Kind::kNode:
          (*c.data)[static_cast<std::size_t>(p)] = *from;
          break;
        case Kind::kPort:
          std::copy(from, from + len,
                    c.data->begin() +
                        static_cast<long>(graph_->portBase(p)));
          break;
        case Kind::kVar:
          VarColumn(c.var.get()).setRow(p, {from, len});
          break;
      }
    }
  }

  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  enum class Kind { kNode, kPort, kVar };
  struct Col {
    Kind kind = Kind::kNode;
    Domain domain;                              // node/port columns
    std::unique_ptr<std::vector<int>> data;     // node/port columns
    std::unique_ptr<VarColumn::Store> var;      // var columns
  };

  /// A node or port column as the codec reads it: flat, so a digit
  /// costs one load of its value and no pointer chasing.
  struct Digit {
    int* values;  // the column's storage, fixed once registered
    int lo;
    int base;
    int perDegree;
    bool pinned;
  };

  std::vector<int>* addColumn(Kind kind, Domain domain, std::size_t size) {
    Col c;
    c.kind = kind;
    c.domain = domain;
    c.data = std::make_unique<std::vector<int>>(size, domain.lo);
    // Kept least significant first: in a most-significant-first arena a
    // later column is a lower digit.
    std::vector<Digit>& digits =
        kind == Kind::kNode ? nodeDigits_ : portDigits_;
    const Digit digit{c.data->data(), domain.lo, domain.base,
                      domain.perDegree, domain.rootPin.has_value()};
    digits.insert(order_ == DigitOrder::kLeastFirst ? digits.end()
                                                    : digits.begin(),
                  digit);
    cols_.push_back(std::move(c));
    return cols_.back().data.get();
  }

  /// The slots of node or port column c that hold p's values.
  [[nodiscard]] std::ranges::iota_view<std::size_t, std::size_t> slots(
      const Col& c, NodeId p) const {
    if (c.kind == Kind::kNode) {
      const auto at = static_cast<std::size_t>(p);
      return {at, at + 1};
    }
    const std::size_t base = graph_->portBase(p);
    return {base, base + static_cast<std::size_t>(graph_->degree(p))};
  }

  /// fn(value, lo, count) on each of p's digits, least significant
  /// first: the node digits, then port by port the port digits, in a
  /// least-significant-first arena; the port digits from the last port
  /// down, then the node digits, in a most-significant-first one.
  template <class Fn>
  void forEachDigit(NodeId p, Fn&& fn) const {
    const bool root = p == graph_->root();
    const int deg = graph_->degree(p);
    const auto digit = [&](const Digit& d, std::size_t slot) {
      if (root && d.pinned) return;
      fn(d.values[slot], d.lo,
         static_cast<std::uint32_t>(d.base + d.perDegree * deg));
    };
    const auto nodes = [&] {
      for (const Digit& d : nodeDigits_) digit(d, static_cast<std::size_t>(p));
    };
    if (order_ == DigitOrder::kLeastFirst) nodes();
    if (!portDigits_.empty()) {
      const std::size_t base = graph_->portBase(p);
      for (int i = 0; i < deg; ++i) {
        const int l = order_ == DigitOrder::kLeastFirst ? i : deg - 1 - i;
        for (const Digit& d : portDigits_)
          digit(d, base + static_cast<std::size_t>(l));
      }
    }
    if (order_ == DigitOrder::kMostFirst) nodes();
  }

  const Graph* graph_;
  DigitOrder order_;
  std::vector<Col> cols_;
  std::vector<Digit> nodeDigits_;  // node and port columns by kind, each
  std::vector<Digit> portDigits_;  // least significant first
};

}  // namespace ssno

#endif  // SSNO_CORE_STATE_ARENA_HPP
