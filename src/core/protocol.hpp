// The guarded-command protocol abstraction (paper §2.1.2).
//
// A protocol is a finite set of actions per processor, each of the form
//     <label> :: <guard> --> <statement>
// where the guard reads the processor's own variables and those of its
// neighbors, and the statement writes only the processor's own variables.
// Guard evaluation and statement execution are one atomic step.
//
// Implementations expose:
//  * the enabled-action relation (for daemons),
//  * atomic execution,
//  * their per-node state, declared as StateArena columns with finite
//    domains (the paper's variable domains, Def. 2.1.2),
//  * human-readable dumps for traces.
// From the declared state the base class derives state randomization
// (arbitrary initial configurations), the canonical per-node codec the
// exhaustive model checker enumerates and hashes the configuration
// space C with, and the raw snapshot form.  Layering is concatenation:
// a protocol declares the arenas of the sub-protocol it builds on
// first, and an earlier arena is the less significant part of a code.
//
// Dirty tracking (the simulation hot path).  Guards are local: the guard
// of an action at p reads only p's own variables and its neighbors', so a
// state write at p can change the enabled relation only at p ∪ N(p).  The
// base class exploits this: every mutating entry point (execute,
// setRawNode, decodeNode, randomizeNode — the non-virtual public wrappers
// below) records the write's dirty region, dirtyAfterWrite(p, action), in
// a dirty set, and whole-configuration writes mark everything dirty.  An
// EnabledCache drains the set and re-evaluates only dirty processors'
// guards instead of rescanning all n each step.
//
// The dirty region is the set of guards that can read what the write
// changed.  `action` names the statement that wrote (execute and the
// batch pass their moves' actions), or is kAnyWrite for a write that is
// not one statement (setRawNode, decodeNode, randomizeNode,
// noteExternalWrite).  The default region is N[p] for every write; a
// protocol whose statement writes a variable that fewer guards read may
// narrow it for that action (Dftno and Stno: EdgeLabel writes π_p, read
// by p's guard alone; Stno's Weight writes W_p, read by p's guard and
// its tree parent's).
//
// Contract for protocol authors: ALL state writes must go through the
// wrappers (or call dirtyNeighborhood/noteWriteAll explicitly for
// internal resets).  dirtyAfterWrite(p, action) must cover every guard
// that reads a variable the write can change: it may narrow N[p] only
// for a statement whose write set it knows, must keep N[p] for
// kAnyWrite, and must widen it when a guard at p reads state beyond N[p]
// (see InitBasedOrientation, whose numbering wave follows a global
// preorder).
//
// Writer feed (legitimacy trackers).  Independently of the dirty set,
// the same notifications can feed a second, opt-in record: the written
// processors themselves (not their dirty regions), or "everything" after
// a whole-configuration write.  Incremental legitimacy predicates
// (core/orbit_index, core/guard_counts) consume it to pay O(writes) per
// check instead of rescanning the configuration.
#ifndef SSNO_CORE_PROTOCOL_HPP
#define SSNO_CORE_PROTOCOL_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "core/state_arena.hpp"
#include "core/types.hpp"

namespace ssno {

/// One enabled (processor, action) pair, as offered to a daemon.
struct Move {
  NodeId node = kNoNode;
  int action = -1;

  friend bool operator==(const Move&, const Move&) = default;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// Number of distinct action labels (identifiers 0..actionCount()-1).
  [[nodiscard]] virtual int actionCount() const = 0;
  [[nodiscard]] virtual std::string actionName(int action) const = 0;

  /// Enable(A, p, γ): is action `action` enabled at processor p in the
  /// current configuration?
  [[nodiscard]] virtual bool enabled(NodeId p, int action) const = 0;

  /// Batch guard evaluation: for every nodes[i], set masks[i] bit a iff
  /// enabled(nodes[i], a).  `nodes` is sorted ascending and duplicate-
  /// free; `masks` has nodes.size() writable slots.  The default loops
  /// the virtual enabled() per (node, action); protocols whose guards
  /// are straight column reads override with fused columnar kernels
  /// (one neighborhood walk per node, autovectorizable inner scans) —
  /// see README "Batch guard kernels" for the contract and when NOT to
  /// override (LexDfsTree's VarColumn candidate walks).  Overrides must
  /// be bit-identical to the scalar loop; tests/guard_batch_test.cpp
  /// compares every override with it mask by mask.
  virtual void evaluateGuards(std::span<const NodeId> nodes,
                              std::uint64_t* masks) const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::uint64_t mask = 0;
      for (int a = 0; a < actionCount(); ++a)
        if (enabled(nodes[i], a)) mask |= (std::uint64_t{1} << a);
      masks[i] = mask;
    }
  }

  /// Whether every guard and statement at p reads only N[p] state.  A
  /// protocol that overrides dirtyAfterWrite because a guard reads
  /// non-neighbor state must return false unless a concurrently enabled
  /// actor provably cannot write that state: the simulator's
  /// simultaneous-step path restores only acting closed neighborhoods
  /// when this holds, and falls back to full-configuration snapshots
  /// when it does not.
  [[nodiscard]] virtual bool guardsAreNeighborhoodLocal() const {
    return true;
  }

  /// Atomically executes `action` at p.  Precondition: enabled(p, action).
  /// Dirties the region dirtyAfterWrite(p, action) names (statements
  /// write only p's own variables).
  void execute(NodeId p, int action) {
    doExecute(p, action);
    noteWrite(p, action);
  }

  /// Batched simultaneous execute: attempts to run a whole synchronous
  /// step's moves with pre-step read semantics (every guard/statement
  /// RHS sees the configuration at the beginning of the step) in one
  /// call, without the engine's per-move snapshot/rollback schedule.
  /// `moves` is node-ascending with all nodes distinct, every move
  /// enabled, and the call must happen inside a simultaneous-step
  /// bracket.  Returns false (the default) if the protocol cannot — the
  /// caller falls back to the rollback pipeline; on true the step has
  /// been fully executed and all writers recorded.  Implementations use
  /// a two-phase compute-then-commit: phase 1 reads the (untouched)
  /// pre-step state and performs no writes, so correctness is by
  /// construction.
  bool executeSimultaneousBatch(std::span<const Move> moves) {
    SSNO_EXPECTS(defer_writes_);
    if (!doExecuteSimultaneous(moves)) return false;
    for (const Move& m : moves) noteWrite(m.node, m.action);
    return true;
  }

  /// Replaces every processor's state with an arbitrary one drawn from
  /// the declared domains (transient-fault model: the adversary may set
  /// all variables).
  void randomize(Rng& rng) {
    for (NodeId p = 0; p < graph_.nodeCount(); ++p) doRandomizeNode(p, rng);
    noteWriteAll();
  }

  /// Arbitrary state for a single processor (k-fault injection).
  void randomizeNode(NodeId p, Rng& rng) {
    doRandomizeNode(p, rng);
    noteWrite(p, kAnyWrite);
  }

  /// ---- Canonical state codec (model checking / hashing) ---------------
  /// Size of processor p's local state space; local states are indexed
  /// 0..localStateCount(p)-1.  Only meaningful at model-checking scales:
  /// for high-degree processors the count may exceed 64 bits, in which
  /// case the codec must not be used (mc::StateCodec detects overflow;
  /// the simulator and the legitimacy orbit indexes use raw values).
  /// Derived from the declared arenas: the product of their counts, and
  /// a code whose least significant part is the first arena's.
  /// LexDfsTree, whose path word is no per-node range, overrides the
  /// codec (and its draw, doRandomizeNode).
  [[nodiscard]] virtual std::uint64_t localStateCount(NodeId p) const;
  [[nodiscard]] virtual std::uint64_t encodeNode(NodeId p) const;
  void decodeNode(NodeId p, std::uint64_t code) {
    doDecodeNode(p, code);
    noteWrite(p, kAnyWrite);
  }

  /// ---- Raw state snapshot (overflow-safe, any graph size) -------------
  /// The processor's variables as a flat int vector: each arena's raw
  /// form (StateArena), in declaration order.
  [[nodiscard]] std::vector<int> rawNode(NodeId p) const;
  /// rawNode(p).size() without materializing the vector.
  [[nodiscard]] std::size_t rawNodeLength(NodeId p) const;
  void setRawNode(NodeId p, std::span<const int> values);
  void setRawNode(NodeId p, std::initializer_list<int> values) {
    setRawNode(p, std::span<const int>(values.begin(), values.size()));
  }

  /// Whole-configuration raw snapshot (concatenated per-node vectors).
  /// A var column's row length is part of its raw form, so the
  /// concatenation parses back even when lengths differ from the
  /// current state's.
  [[nodiscard]] std::vector<int> rawConfiguration() const;
  void setRawConfiguration(const std::vector<int>& values);

  /// Debug rendering of p's variables, e.g. "S=->2 col=1 d=3".
  [[nodiscard]] virtual std::string dumpNode(NodeId p) const = 0;

  /// All moves enabled in the current configuration (node-major order).
  [[nodiscard]] std::vector<Move> enabledMoves() const;

  /// Potential the adversarial searching daemon (resil/search_daemon)
  /// maximizes when hunting for slow schedules.  Higher = "further from
  /// quiescence / more ways to stay busy".  The default — the number of
  /// enabled moves — is a protocol-agnostic proxy; protocols with a
  /// natural variant function (token distance, tree disagreement count)
  /// may override with something sharper.  Must be a pure function of
  /// the current configuration (no hidden state, no RNG): the search
  /// replays bit-identically only if re-evaluating the potential on the
  /// same configuration yields the same value.
  [[nodiscard]] virtual double potentialHint() const;

  /// Whole-configuration encode/decode helpers built on the node codec.
  [[nodiscard]] std::vector<std::uint64_t> encodeConfiguration() const;
  void decodeConfiguration(const std::vector<std::uint64_t>& codes);

  /// ---- Simultaneous-step write bracket (deferred dirtying) -----------
  /// Between begin and end, the mutation wrappers above only RECORD the
  /// written processors, each with its writer's action (kAnyWrite once a
  /// processor is written in two different ways), instead of expanding
  /// each write into its dirty region; endSimultaneousStep then performs
  /// one deduplicated dirtyAfterWrite pass over the recorded writers.  A
  /// dense synchronous step executes + rolls back every actor several
  /// times, so immediate dirtying fires ~n·Δ redundant notifications per
  /// step; the bracket collapses that to one pass over the actors'
  /// regions, at most actors ∪ N(actors).
  /// Contract: no dirty-set consumer (EnabledCache refresh) may run
  /// inside the bracket, and brackets do not nest.  The simultaneous-
  /// step engine (core/sync_engine) is the intended driver.
  void beginSimultaneousStep() {
    SSNO_EXPECTS(!defer_writes_);
    if (deferred_flag_.size() !=
        static_cast<std::size_t>(graph_.nodeCount()))
      deferred_flag_.assign(static_cast<std::size_t>(graph_.nodeCount()), 0);
    defer_writes_ = true;
  }
  void endSimultaneousStep() {
    SSNO_EXPECTS(defer_writes_);
    defer_writes_ = false;
    // Dense steps: once a quarter of the processors wrote, the exact
    // dirty region (writers ∪ their dirtyAfterWrite fan-out) covers most
    // of the configuration anyway.  Marking everything dirty is the
    // always-safe over-approximation, skips the per-writer virtual
    // fan-out here, and lets the consumer take its linear full-rescan
    // path instead of patching ~n nodes one by one.
    const auto n = static_cast<std::size_t>(graph_.nodeCount());
    if (deferred_writers_.size() >= n / 4 + 1) {
      for (NodeId p : deferred_writers_)
        deferred_flag_[static_cast<std::size_t>(p)] = 0;
      deferred_writers_.clear();
      dirtyAll();
      return;
    }
    for (NodeId p : deferred_writers_) {
      auto& flag = deferred_flag_[static_cast<std::size_t>(p)];
      dirtyAfterWrite(p, flag - kDeferredBias);
      flag = 0;
    }
    deferred_writers_.clear();
  }

  /// Dirty notification for a state write performed OUTSIDE the mutation
  /// wrappers — e.g. a snapshot restore through StateArena columns,
  /// which bypasses the wrappers entirely.  Equivalent to the dirtying
  /// (and writer-feed entry) a setRawNode at p would have produced: any
  /// variable may have changed, so the region is dirtyAfterWrite(p,
  /// kAnyWrite) (deferred inside a simultaneous-step bracket).
  void noteExternalWrite(NodeId p) { noteWrite(p, kAnyWrite); }

  /// ---- Declared state -------------------------------------------------
  /// Every arena holding this protocol's per-node state, sub-protocol
  /// arenas first.  ALL mutable per-node state lives here (a protocol
  /// without state declares none), so snapshotting these columns — the
  /// simultaneous-step engine, the searching daemon and the orbit
  /// indexes do — captures a configuration exactly.
  [[nodiscard]] std::span<StateArena* const> arenas() { return arenas_; }

  /// ---- Dirty-set drain (single active consumer, e.g. EnabledCache) ----
  /// `true` after a whole-configuration write: the consumer must rescan
  /// every processor (dirtyNodes() is meaningless then).
  [[nodiscard]] bool allDirty() const { return all_dirty_; }
  /// Deduplicated nodes whose guards may have changed since clearDirty().
  [[nodiscard]] const std::vector<NodeId>& dirtyNodes() const {
    return dirty_list_;
  }
  /// Per-node dirty flags backing dirtyNodes() (1 = listed).  Lets a
  /// dense consumer recover the dirty set in node order by scanning
  /// instead of sorting the insertion-ordered list.
  [[nodiscard]] const std::vector<std::uint8_t>& dirtyFlags() const {
    return dirty_flag_;
  }
  [[nodiscard]] bool hasDirtyState() const {
    return all_dirty_ || !dirty_list_.empty();
  }
  void clearDirty() {
    for (NodeId p : dirty_list_) dirty_flag_[static_cast<std::size_t>(p)] = 0;
    dirty_list_.clear();
    all_dirty_ = false;
  }

  /// ---- Writer feed (single active consumer, e.g. a legitimacy tracker)
  /// The processors written since clearWritten(), deduplicated, fed by
  /// every write notification — the mutation wrappers, noteExternalWrite
  /// and the writers a simultaneous step records, dense steps included —
  /// and by whole-configuration writes, which set allWritten() instead of
  /// listing every processor.  Unlike the dirty set it names writers, not
  /// their guard regions, and draining one never disturbs the other.
  /// Disarmed (the default) a write pays one branch and nothing is
  /// allocated; the first consumer arms it, starting from allWritten()
  /// because earlier writes went unrecorded.
  void armWriterFeed() {
    if (feed_armed_) return;
    feed_armed_ = true;
    written_flag_.assign(static_cast<std::size_t>(graph_.nodeCount()), 0);
    all_written_ = true;
  }
  [[nodiscard]] bool allWritten() const { return all_written_; }
  /// Deduplicated writers (meaningless while allWritten()).
  [[nodiscard]] const std::vector<NodeId>& writtenNodes() const {
    return written_list_;
  }
  void clearWritten() {
    for (NodeId p : written_list_)
      written_flag_[static_cast<std::size_t>(p)] = 0;
    written_list_.clear();
    all_written_ = false;
  }

 protected:
  explicit Protocol(Graph graph) : graph_(std::move(graph)) {
    dirty_flag_.assign(static_cast<std::size_t>(graph_.nodeCount()), 0);
  }

  /// Declares `arena` as part of this protocol's state, more significant
  /// than every arena declared before it.
  void addArena(StateArena& arena) { arenas_.push_back(&arena); }
  /// Declares the arenas of the sub-protocol this layer builds on; call
  /// before addArena for the layer's own.
  void addArenas(Protocol& sub) {
    arenas_.insert(arenas_.end(), sub.arenas_.begin(), sub.arenas_.end());
  }

  /// ---- Mutation hooks -------------------------------------------------
  virtual void doExecute(NodeId p, int action) = 0;
  /// Batched simultaneous-execute hook (see executeSimultaneousBatch).
  /// Contract: either return false having performed NO writes, or return
  /// true having executed every move with pre-step read semantics.
  virtual bool doExecuteSimultaneous(std::span<const Move> moves) {
    (void)moves;
    return false;
  }
  /// Release-active precondition for a batch executor: every move is
  /// enabled, tested with one evaluateGuards call over the actors (the
  /// predicate enabled() tests) instead of a scalar evaluation per move.
  void expectEnabled(std::span<const Move> moves);
  /// Derived from the declared domains (StateArena::randomizeNode and
  /// decodeNode, arena by arena); LexDfsTree overrides both.
  virtual void doRandomizeNode(NodeId p, Rng& rng);
  virtual void doDecodeNode(NodeId p, std::uint64_t code);

  /// The action dirtyAfterWrite receives for a write that is not one
  /// statement: a raw or decoded node, a randomized node, an external
  /// write, or a node a simultaneous step wrote in two different ways.
  static constexpr int kAnyWrite = -1;

  /// Dirty region of a state write at p by `action`'s statement, or of
  /// any write (kAnyWrite): every processor whose guards can read a
  /// variable the write changed.  The default — p's closed neighborhood —
  /// is correct whenever guards read only N[p]; protocols with non-local
  /// guard dependencies must widen it, and a statement whose writes fewer
  /// guards read may narrow it.
  virtual void dirtyAfterWrite(NodeId p, int action) {
    (void)action;
    dirtyNeighborhood(p);
  }

  /// Marks a single node's guards as needing re-evaluation.
  void dirtyNode(NodeId p) {
    if (all_dirty_) return;
    auto& flag = dirty_flag_[static_cast<std::size_t>(p)];
    if (flag) return;
    flag = 1;
    dirty_list_.push_back(p);
  }

  /// Marks p ∪ N(p) dirty (the region a write at p can influence).
  void dirtyNeighborhood(NodeId p) {
    if (all_dirty_) return;
    dirtyNode(p);
    for (NodeId q : graph_.neighbors(p)) dirtyNode(q);
  }

  /// Marks every processor dirty without naming a writer (the dense
  /// simultaneous-step over-approximation; the writers went to the feed).
  void dirtyAll() {
    for (NodeId p : dirty_list_) dirty_flag_[static_cast<std::size_t>(p)] = 0;
    dirty_list_.clear();
    all_dirty_ = true;
  }

  /// A whole-configuration write (internal bulk resets such as
  /// Dftc::resetClean): everything dirty, everything written.
  void noteWriteAll() {
    dirtyAll();
    if (!feed_armed_) return;
    clearWritten();
    all_written_ = true;
  }

 private:
  /// deferred_flag_[p]: 0 while p has not written in the open bracket,
  /// else kDeferredBias + the writer's action (kAnyWrite included).
  static constexpr int kDeferredBias = 1 - kAnyWrite;

  /// Routes a write notification at p by `action` to the writer feed
  /// (when armed) and to dirtyAfterWrite, or — inside a simultaneous-step
  /// bracket — into the deduplicated deferred-writer record, which
  /// widens to kAnyWrite when p is written in two different ways.
  void noteWrite(NodeId p, int action) {
    if (feed_armed_ && !all_written_) {
      auto& written = written_flag_[static_cast<std::size_t>(p)];
      if (!written) {
        written = 1;
        written_list_.push_back(p);
      }
    }
    if (!defer_writes_) {
      dirtyAfterWrite(p, action);
      return;
    }
    auto& flag = deferred_flag_[static_cast<std::size_t>(p)];
    const auto code = static_cast<std::uint8_t>(action + kDeferredBias);
    if (flag == 0) {
      flag = code;
      deferred_writers_.push_back(p);
    } else if (flag != code) {
      flag = kAnyWrite + kDeferredBias;
    }
  }

  Graph graph_;
  std::vector<StateArena*> arenas_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<NodeId> dirty_list_;
  bool all_dirty_ = true;  // a fresh protocol has never been scanned
  bool defer_writes_ = false;
  std::vector<std::uint8_t> deferred_flag_;
  std::vector<NodeId> deferred_writers_;
  bool feed_armed_ = false;
  bool all_written_ = false;
  std::vector<std::uint8_t> written_flag_;  // empty until armed
  std::vector<NodeId> written_list_;
  std::vector<NodeId> expect_nodes_;  // expectEnabled scratch
  std::vector<std::uint64_t> expect_masks_;
};

}  // namespace ssno

#endif  // SSNO_CORE_PROTOCOL_HPP
