// StateArena — SoA storage for per-node protocol state.
//
// Every protocol keeps each of its variables as a *column*: one
// contiguous int array over all processors (node columns), over all
// CSR port slots (port columns, indexed by Graph::portBase(p) + l), or
// a variable-length row per processor in a shared paged pool (var
// columns).  Compared to per-object fields and vector<vector<int>>
// per-port tables, columns keep guard evaluation cache-friendly at
// n >= 1e5 (neighbor reads of one variable walk one array instead of
// hopping across per-node heap blocks) and give every protocol the
// same raw snapshot machinery for free.
//
// Usage pattern (see Dftc for the canonical example):
//
//   class MyProtocol : public Protocol {
//     StateArena arena_;
//     NodeColumn x_;   // one int per processor
//     PortColumn y_;   // one int per (processor, port)
//    public:
//     explicit MyProtocol(Graph g)
//         : Protocol(std::move(g)),
//           arena_(graph()),
//           x_(arena_.nodeColumn()),
//           y_(arena_.portColumn()) {}
//   };
//
// Registration order is the raw layout: StateArena::rawNode(p)
// concatenates, per column in registration order, one value (node
// column), degree(p) values (port column), or a length-prefixed row
// (var column) — exactly the layouts the protocols' hand-written
// rawNode() used to produce.  Protocols with extra invariants (e.g.
// the root's depth pinned to 0) normalize after StateArena::setRawNode.
// Note a var column makes rawLength(p) state-dependent; protocols using
// one either keep a fixed-width rawNode of their own (LexDfsTree) or
// accept the self-describing [len, entries...] raw form.
//
// Batched multi-node snapshot/restore (the simultaneous-step engine's
// fast path): snapshotNodes copies the listed processors' values into a
// flat per-column scratch — one tight loop per column over one backing
// array, no per-node vector<int> — and restoreNodes/restoreNode invert
// it.  The scratch's bounds table records each (column, node) slice, so
// single-node rollbacks during a simultaneous step are O(slice) copies.
//
// Dirtying rules are unchanged: columns are plain storage, so ALL
// writes must still go through the Protocol mutation hooks (doExecute /
// doSetRawNode / ...) or be followed by explicit dirty calls — the
// arena does not notify anyone.  In particular restoreNodes bypasses
// the hooks; drivers (core/sync_engine) dirty the restored region
// themselves.
#ifndef SSNO_CORE_STATE_ARENA_HPP
#define SSNO_CORE_STATE_ARENA_HPP

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/graph.hpp"
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

  [[nodiscard]] std::size_t poolSize() const { return pool_->size(); }

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

class StateArena {
 public:
  explicit StateArena(const Graph& graph) : graph_(&graph) {}

  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  [[nodiscard]] NodeColumn nodeColumn(int init = 0) {
    Col c;
    c.kind = Kind::kNode;
    c.data = std::make_unique<std::vector<int>>(
        static_cast<std::size_t>(graph_->nodeCount()), init);
    cols_.push_back(std::move(c));
    return NodeColumn(cols_.back().data.get());
  }

  [[nodiscard]] PortColumn portColumn(int init = 0) {
    Col c;
    c.kind = Kind::kPort;
    c.data =
        std::make_unique<std::vector<int>>(graph_->portSlotCount(), init);
    cols_.push_back(std::move(c));
    return PortColumn(cols_.back().data.get(), graph_);
  }

  /// Registers a variable-length column; every processor starts with an
  /// empty row.
  [[nodiscard]] VarColumn varColumn() {
    Col c;
    c.kind = Kind::kVar;
    c.var = std::make_unique<VarColumn::Store>();
    c.var->slots.assign(static_cast<std::size_t>(graph_->nodeCount()), {});
    cols_.push_back(std::move(c));
    return VarColumn(cols_.back().var.get());
  }

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
    for (const Col& c : cols_) {
      switch (c.kind) {
        case Kind::kNode:
          out.push_back((*c.data)[static_cast<std::size_t>(p)]);
          break;
        case Kind::kPort: {
          const std::size_t base = graph_->portBase(p);
          const auto deg = static_cast<std::size_t>(graph_->degree(p));
          out.insert(out.end(), c.data->begin() + static_cast<long>(base),
                     c.data->begin() + static_cast<long>(base + deg));
          break;
        }
        case Kind::kVar: {
          const auto& s = c.var->slots[static_cast<std::size_t>(p)];
          out.push_back(s.len);
          out.insert(out.end(),
                     c.var->pool.begin() + static_cast<long>(s.off),
                     c.var->pool.begin() + static_cast<long>(s.off) +
                         s.len);
          break;
        }
      }
    }
  }

  [[nodiscard]] std::vector<int> rawNode(NodeId p) const {
    std::vector<int> out;
    out.reserve(rawLength(p));
    appendRawNode(p, out);
    return out;
  }

  /// Calls fn(v) for each of p's raw values in rawNode order without
  /// materializing them, stopping as soon as fn returns false; returns
  /// whether every value was visited (the hashing and exact-compare
  /// primitive of core/orbit_index).
  template <class Fn>
  bool visitRawNode(NodeId p, Fn&& fn) const {
    for (const Col& c : cols_) {
      switch (c.kind) {
        case Kind::kNode:
          if (!fn((*c.data)[static_cast<std::size_t>(p)])) return false;
          break;
        case Kind::kPort: {
          const int* row = c.data->data() + graph_->portBase(p);
          for (int l = 0; l < graph_->degree(p); ++l)
            if (!fn(row[l])) return false;
          break;
        }
        case Kind::kVar: {
          const auto& s = c.var->slots[static_cast<std::size_t>(p)];
          if (!fn(s.len)) return false;
          const int* row = c.var->pool.data() + s.off;
          for (int i = 0; i < s.len; ++i)
            if (!fn(row[i])) return false;
          break;
        }
      }
    }
    return true;
  }

  /// Inverse of rawNode.  Does NOT dirty anything (see header comment).
  void setRawNode(NodeId p, std::span<const int> values) {
    std::size_t at = 0;
    for (Col& c : cols_) {
      switch (c.kind) {
        case Kind::kNode:
          SSNO_EXPECTS(at < values.size());
          (*c.data)[static_cast<std::size_t>(p)] = values[at++];
          break;
        case Kind::kPort: {
          const std::size_t base = graph_->portBase(p);
          const auto deg = static_cast<std::size_t>(graph_->degree(p));
          SSNO_EXPECTS(at + deg <= values.size());
          for (std::size_t l = 0; l < deg; ++l)
            (*c.data)[base + l] = values[at++];
          break;
        }
        case Kind::kVar: {
          SSNO_EXPECTS(at < values.size());
          const auto len = static_cast<std::size_t>(values[at++]);
          SSNO_EXPECTS(at + len <= values.size());
          VarColumn(c.var.get()).setRow(p, values.subspan(at, len));
          at += len;
          break;
        }
      }
    }
    SSNO_EXPECTS(at == values.size());
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
    std::unique_ptr<std::vector<int>> data;     // node/port columns
    std::unique_ptr<VarColumn::Store> var;      // var columns
  };
  const Graph* graph_;
  std::vector<Col> cols_;
};

}  // namespace ssno

#endif  // SSNO_CORE_STATE_ARENA_HPP
