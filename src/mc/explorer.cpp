#include "mc/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>

#include "core/assert.hpp"
#include "core/bitwords.hpp"
#include "core/enabled_cache.hpp"
#include "core/parallel.hpp"
#include "core/sync_engine.hpp"
#include "mc/properties.hpp"
#include "mc/spill.hpp"
#include "mc/state_codec.hpp"
#include "mc/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ssno::mc {
namespace {

constexpr std::size_t kFrontierBatch = 1024;  // worker -> spill flush size
constexpr std::size_t kWorkChunk = 64;        // frontier ids per claim

// Batched per run / per level — never touched inside expand().
const obs::Counter kMcStates =
    obs::Registry::global().counter("mc_states_total");
const obs::Counter kMcTransitions =
    obs::Registry::global().counter("mc_transitions_total");
const obs::Counter kMcLevels =
    obs::Registry::global().counter("mc_levels_total");
const obs::Histogram kMcLevelNs =
    obs::Registry::global().histogram("mc_level_ns");
const obs::Histogram kMcConvergenceNs =
    obs::Registry::global().histogram("mc_convergence_ns");
const obs::Gauge kMcStoreLoadPct =
    obs::Registry::global().gauge("mc_store_load_pct");
const obs::Gauge kMcStatesPerSec =
    obs::Registry::global().gauge("mc_states_per_sec");

/// Violation kinds, ranked for the canonical-min selection (the rank
/// only breaks ties between different kinds at the same level; any
/// fixed order gives deterministic verdicts).
enum ViolationKind : int { kClosure = 0, kDeadlock = 1, kFairCycle = 2 };

/// Parent-move sentinel for synchronous steps (no single actor pair).
constexpr std::uint32_t kSyncMove = 0xFFFFFFFFu;

struct Violation {
  int kind = kClosure;
  std::vector<std::uint64_t> key;  // reported configuration
  std::uint32_t move = 0;          // closure: the offending actor pair

  [[nodiscard]] bool precedes(const Violation& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (key != o.key) return key < o.key;
    return move < o.move;
  }
};

/// One exploration worker: its own protocol instance, incremental
/// enabled cache, and the key it currently has decoded.  Cache-line
/// aligned: workers write their own fields on every state.
struct alignas(64) Worker {
  std::unique_ptr<Protocol> protocol;
  std::unique_ptr<EnabledCache> cache;
  std::function<bool()> legitNow;  // legit_ bound to this protocol
  std::vector<std::uint64_t> cur;  // decoded key (valid iff curValid)
  bool curValid = false;
  /// Stable (node, action-mask) snapshot of a refresh — one entry per
  /// enabled node; no per-move vector is materialized on the hot path
  /// (iterated with ssno::forEachMove).
  NodeMasks enabled;
  std::vector<std::uint64_t> childKey;  // successor / next-index scratch
  std::vector<std::uint64_t> nextBuf;   // local next-frontier batch
  /// Synchronous mode: per-worker columnar move-set executor + the
  /// reused selection buffer for the cartesian-product enumeration.
  std::unique_ptr<SimultaneousEngine> engine;
  std::vector<Move> selScratch;
  std::uint64_t transitions = 0;  // enabled moves of the states expanded
  /// Out-edges of the illegitimate states this worker expanded, in
  /// expansion order.  A full-space worker writes local ids directly; a
  /// reachable worker writes child store ids (kLeavesRegion for a
  /// legitimate child) until the convergence pass remaps them, and
  /// logIds[i] is the store id of its log state i.
  TransitionGraph log;
  std::vector<std::uint32_t> logIds;
};

/// How an exploration ended.
enum class Explored { kDone, kStoreFull, kLogFull };

/// Shared state of one checkFullSpace/checkReachable run.  A full-space
/// run names states by their mixed-radix index (exploreIndices); a
/// reachable run interns them in the StateStore (openStore, then
/// exploreLevels).
class Run {
 public:
  Run(const ParallelChecker::Factory& factory,
      const ParallelChecker::Legit& legit, const Options& opt)
      : legit_(legit),
        opt_(opt),
        threads_(opt.threads > 0 ? opt.threads : usableCores()) {
    {
      const std::unique_ptr<Protocol> probe = factory();
      codec_ = std::make_unique<StateCodec>(*probe);
      actions_ = probe->actionCount();
    }
    // Each worker builds its state on its own thread, so no two workers'
    // hot heap data (keys, protocol columns, cache masks) share a cache
    // line.  Built in one loop on this thread they interleave, and every
    // write of one worker stalls its neighbours.
    workers_.resize(static_cast<std::size_t>(threads_));
    runWorkers(threads_, [&](int t) {
      Worker& w = worker(t);
      w.protocol = factory();
      w.cache = std::make_unique<EnabledCache>(*w.protocol);
      w.legitNow = [this, protocol = w.protocol.get()] {
        return legit_(*protocol);
      };
      if (opt.synchronousSteps)
        w.engine = std::make_unique<SimultaneousEngine>(*w.protocol);
      w.cur.resize(static_cast<std::size_t>(codec_->words()));
      w.childKey.resize(static_cast<std::size_t>(codec_->words()));
    });
  }

  [[nodiscard]] const StateCodec& codec() const { return *codec_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] Worker& worker(int t) {
    return workers_[static_cast<std::size_t>(t)];
  }

  /// Decodes `key` into worker t's protocol, touching only nodes that
  /// differ from what the worker currently holds.
  void decodeTo(Worker& w, const std::uint64_t* key) {
    codec_->decodeDelta(key, w.curValid ? w.cur.data() : nullptr,
                        *w.protocol);
    std::memcpy(w.cur.data(), key,
                static_cast<std::size_t>(codec_->words()) * 8);
    w.curValid = true;
  }

  void offer(Violation v) {
    std::lock_guard<std::mutex> lock(violationMu_);
    if (!best_ || v.precedes(*best_)) best_ = std::move(v);
  }
  [[nodiscard]] const std::optional<Violation>& best() const { return best_; }

  // ---- Successors, shared by both paths --------------------------------

  /// Enumerates the successors of the configuration decoded in w.  Calls
  /// visit(actors, move) once per successor while the protocol holds it:
  /// `actors` are the moves that produced it and `move` their actor pair
  /// (kSyncMove for a simultaneous selection).  The protocol is back at
  /// w.cur after each call.  Returns whether any move was enabled.
  template <class Visit>
  bool forEachSuccessor(Worker& w, Visit&& visit) {
    const EnabledView& view = w.cache->refreshView();
    w.enabled.clear();
    view.appendNodeMasks(w.enabled);
    w.transitions += static_cast<std::uint64_t>(view.moveCount());
    if (opt_.synchronousSteps) {
      // Synchronous semantics: one successor per simultaneous selection
      // (every enabled node acts), executed in place by the columnar
      // engine and rolled back via its batched snapshot restore.
      forEachSimultaneousSelection(
          w.enabled, w.selScratch, [&](std::span<const Move> set) {
            w.engine->execute(set);
            visit(set, kSyncMove);
            w.engine->undo();
          });
    } else {
      forEachMove(w.enabled, [&](const Move& m) {
        w.protocol->execute(m.node, m.action);
        visit(std::span<const Move>(&m, 1),
              static_cast<std::uint32_t>(m.node * actions_ + m.action));
        // A statement writes only its own processor's variables, so
        // restoring the acted node alone returns the protocol to w.cur.
        w.protocol->decodeNode(m.node, codec_->nodeCode(w.cur.data(), m.node));
      });
    }
    return !w.enabled.empty();
  }

  /// Books one successor of the state w expands: an edge of an
  /// illegitimate parent's log entry (`to` is the child's id in the
  /// log's numbering), or a closure candidate when a legitimate parent
  /// has an illegitimate successor.
  void settle(Worker& w, bool parentLegit, bool childLegit, std::uint32_t to,
              std::uint32_t move) {
    if (!parentLegit)
      w.log.edges.push_back(
          {childLegit ? TransitionGraph::kLeavesRegion : to, move});
    else if (!childLegit)
      offer({kClosure, w.cur, move});
  }

  /// Ends an expansion: an illegitimate state closes its log entry, and
  /// is a deadlock candidate when nothing was enabled.
  void endExpansion(Worker& w, bool parentLegit, bool anyEnabled) {
    if (parentLegit) return;
    if (!anyEnabled) offer({kDeadlock, w.cur, 0});
    w.log.endState();
  }

  // ---- Full space: states named by index --------------------------------

  /// The full product space in two passes over the index range, split
  /// into one contiguous range per worker.  Pass 1 fills the legitimacy
  /// bitset and its rank directory; pass 2 expands every index, names
  /// each successor by patching the index, answers closure from the
  /// bitset, and logs an illegitimate state's out-edges in local ids.
  /// No store, frontier or parent pointer is involved: every
  /// configuration is a depth-0 seed, and the two passes are timed as
  /// the check's one level.
  Explored exploreIndices(Result& res) {
    const std::uint64_t total = codec_->totalStates();
    // fitsLog(total) bounds Σ⌈log₂ radix⌉ by 2·log₂ total < 64, so
    // every field shares word 0: index order is key order, and ranks in
    // index order are the canonical local ids.
    SSNO_ASSERT(codec_->words() == 1);
    obs::TraceSpan levelSpan("mc_level");
    obs::ScopedTimer levelTimer(kMcLevelNs);
    levelSpan.arg("depth", 0);
    levelSpan.arg("frontier", total);
    res.peakFrontier = total;
    res.depthReached = 0;
    region_.assign(bits::wordsFor(total), 0);
    runWorkers(threads_, [&](int t) {
      forEachIndex(t, [&](Worker& w, std::uint64_t i) {
        if (!legit_(*w.protocol))
          region_[i / 64] |= std::uint64_t{1} << (i % 64);
      });
    });
    rank_.assign(region_.size() + 1, 0);
    for (std::size_t k = 0; k < region_.size(); ++k)
      rank_[k + 1] = rank_[k] + static_cast<std::uint32_t>(
                                    bits::popcount(region_[k]));
    runWorkers(threads_, [&](int t) {
      forEachIndex(t, [&](Worker& w, std::uint64_t i) { expandIndex(w, i); });
    });
    // Every state is a seed, so mc_states_total (states added by
    // levels) does not move, and there is no store to load.
    kMcLevels.inc();
    kMcStoreLoadPct.set(0);
    levelSpan.arg("states_added", 0);
    return logFits() ? Explored::kDone : Explored::kLogFull;
  }

  /// Visits worker t's index range in order, each index decoded into the
  /// worker (consecutive indices differ in a low-digit prefix, so delta
  /// decoding touches few nodes).  Ranges are whole bitset words, so no
  /// two workers write the same word.
  template <class Fn>
  void forEachIndex(int t, Fn&& fn) {
    Worker& w = worker(t);
    const std::uint64_t words = region_.size();
    const auto threads = static_cast<std::uint64_t>(threads_);
    const auto at = static_cast<std::uint64_t>(t);
    const std::uint64_t lo = words * at / threads * 64;
    const std::uint64_t hi =
        std::min(words * (at + 1) / threads * 64, codec_->totalStates());
    if (lo >= hi) return;
    codec_->indexToKey(lo, w.childKey.data());
    for (std::uint64_t i = lo; i < hi; ++i) {
      decodeTo(w, w.childKey.data());
      fn(w, i);
      codec_->increment(w.childKey.data());
    }
  }

  /// Whether index i is illegitimate (a set bit of the region bitset).
  [[nodiscard]] bool illegit(std::uint64_t i) const {
    return (region_[i / 64] >> (i % 64)) & 1;
  }

  /// The local id of illegitimate index i: its rank among the region's
  /// indices, in O(1) from the rank directory.
  [[nodiscard]] std::uint32_t localId(std::uint64_t i) const {
    const std::uint64_t below =
        region_[i / 64] & ((std::uint64_t{1} << (i % 64)) - 1);
    return rank_[i / 64] + static_cast<std::uint32_t>(bits::popcount(below));
  }

  /// The index of local id `local` (a select; failure path only).
  [[nodiscard]] std::uint64_t indexOf(std::uint32_t local) const {
    // The last word whose rank is at most `local` holds it.
    const auto after = std::upper_bound(rank_.begin(), rank_.end(), local);
    const auto word = static_cast<std::size_t>(after - rank_.begin() - 1);
    const int bit = bits::selectBit(region_[word],
                                    static_cast<int>(local - rank_[word]));
    return word * 64 + static_cast<std::uint64_t>(bit);
  }

  /// Expands index `index`, decoded in w.  A successor's index is the
  /// parent's plus (new − old digit) × weight for each actor.
  void expandIndex(Worker& w, std::uint64_t index) {
    const bool parentLegit = !illegit(index);
    const bool any = forEachSuccessor(
        w, [&](std::span<const Move> actors, std::uint32_t move) {
          std::uint64_t child = index;
          for (const Move& m : actors)
            child += (w.protocol->encodeNode(m.node) -
                      codec_->nodeCode(w.cur.data(), m.node)) *
                     codec_->weight(m.node);
          const bool childLegit = !illegit(child);
          settle(w, parentLegit, childLegit, childLegit ? 0 : localId(child),
                 move);
        });
    endExpansion(w, parentLegit, any);
  }

  // ---- Reachable space: states interned in the store ---------------------

  /// The seen-set and the two frontier tiers of a reachable check.
  void openStore(std::uint64_t capacity) {
    store_ = std::make_unique<StateStore>(codec_->words(), capacity);
    current_ =
        std::make_unique<FrontierSpill>(opt_.spillCapacity, opt_.spillDir);
    next_ = std::make_unique<FrontierSpill>(opt_.spillCapacity, opt_.spillDir);
  }

  /// Interns the configuration decoded in w as a depth-0 seed.
  void seed(Worker& w) {
    const StateStore::Ref r = store_->intern(
        w.cur.data(), codec_->hash(w.cur.data()), 0, w.legitNow);
    if (r.inserted) pushNext(w, r.id);
  }

  void pushNext(Worker& w, std::uint64_t id) {
    w.nextBuf.push_back(id);
    if (w.nextBuf.size() >= kFrontierBatch) flushNext(w);
  }
  void flushNext(Worker& w) {
    if (w.nextBuf.empty()) return;
    next_->append(w.nextBuf.data(), w.nextBuf.size());
    w.nextBuf.clear();
  }

  /// Expands one frontier state: patch each successor key in O(1),
  /// intern it (legitimacy is evaluated once, by the worker that
  /// inserts it), and book it.
  void expand(Worker& w, std::uint64_t id, std::uint32_t depth) {
    const std::uint64_t* key = store_->keyOf(id);
    decodeTo(w, key);
    const bool parentLegit = store_->legit(id);
    const bool any = forEachSuccessor(
        w, [&](std::span<const Move> actors, std::uint32_t move) {
          std::memcpy(w.childKey.data(), key,
                      static_cast<std::size_t>(codec_->words()) * 8);
          for (const Move& m : actors)
            codec_->setNodeCode(w.childKey.data(), m.node,
                                w.protocol->encodeNode(m.node));
          const StateStore::Ref r = store_->intern(
              w.childKey.data(), codec_->hash(w.childKey.data()), depth + 1,
              w.legitNow, key, id, move);
          if (r.inserted) pushNext(w, r.id);
          settle(w, parentLegit, r.legit, static_cast<std::uint32_t>(r.id),
                 move);
        });
    endExpansion(w, parentLegit, any);
    if (!parentLegit) w.logIds.push_back(static_cast<std::uint32_t>(id));
  }

  /// Whether the edge logs still fit their 32-bit offsets (checked
  /// before any truncated value could be read).
  [[nodiscard]] bool logFits() const {
    std::uint64_t edges = 0;
    for (const Worker& w : workers_) edges += w.log.edges.size();
    return fitsLog(edges);
  }

  /// Whether the store and the edge logs are still within their bounds:
  /// maxStates and the store's capacity, and the logs' 32-bit ids and
  /// offsets.
  [[nodiscard]] Explored bounds() const {
    if (store_->overflowed() || store_->size() > opt_.maxStates)
      return Explored::kStoreFull;
    if (!fitsLog(store_->idBound()) || !logFits()) return Explored::kLogFull;
    return Explored::kDone;
  }

  /// Runs BFS levels until the frontier dries up, a violation level
  /// completes, or a bound is exceeded.  Seeds must already be in next_.
  Explored exploreLevels(Result& res) {
    std::uint32_t depth = 0;
    std::vector<std::uint64_t> wave;
    const std::size_t waveCap =
        opt_.spillCapacity > 0
            ? static_cast<std::size_t>(opt_.spillCapacity)
            : std::numeric_limits<std::size_t>::max();
    for (Worker& w : workers_) flushNext(w);
    if (const Explored b = bounds(); b != Explored::kDone) return b;
    while (next_->size() > 0) {
      std::swap(current_, next_);
      next_->reset();
      obs::TraceSpan levelSpan("mc_level");
      obs::ScopedTimer levelTimer(kMcLevelNs);
      const std::uint64_t statesBefore = store_->size();
      levelSpan.arg("depth", depth);
      levelSpan.arg("frontier", current_->size());
      res.peakFrontier = std::max(res.peakFrontier, current_->size());
      res.depthReached = static_cast<int>(depth);
      while (current_->drainChunk(wave, waveCap)) {
        std::atomic<std::size_t> cursor{0};
        runWorkers(threads_, [&](int t) {
          Worker& w = worker(t);
          for (std::size_t base = cursor.fetch_add(kWorkChunk);
               base < wave.size(); base = cursor.fetch_add(kWorkChunk)) {
            const std::size_t end =
                std::min(base + kWorkChunk, wave.size());
            for (std::size_t i = base; i < end; ++i)
              expand(w, wave[i], depth);
          }
          flushNext(w);
        });
      }
      res.spillRuns = current_->runsWritten() + next_->runsWritten();
      current_->reset();
      kMcLevels.inc();
      kMcStates.inc(store_->size() - statesBefore);
      kMcStoreLoadPct.set(
          static_cast<std::int64_t>(store_->loadFactor() * 100.0));
      levelSpan.arg("states_added", store_->size() - statesBefore);
      if (const Explored b = bounds(); b != Explored::kDone) return b;
      if (best_) break;  // violation level completed: canonical min final
      ++depth;
    }
    return Explored::kDone;
  }

  // ---- Verdict, shared by both paths ------------------------------------

  /// "node p executes A" for actor pair `pair`.
  [[nodiscard]] std::string actorText(std::uint32_t pair) const {
    const auto actions = static_cast<std::uint32_t>(actions_);
    return "node " + std::to_string(pair / actions) + " executes " +
           workers_[0].protocol->actionName(static_cast<int>(pair % actions));
  }

  /// Canonical trace to `key`: from its seed along the store's
  /// canonical-min parent pointers.  In a full-space check every
  /// configuration is a seed, so the trace is the configuration alone.
  std::vector<std::string> traceTo(const std::uint64_t* key) {
    std::vector<std::string> out;
    Worker& w = workers_[0];
    const auto render = [&](const std::uint64_t* at,
                            const std::string& header) {
      decodeTo(w, at);
      out.push_back(header + describeConfiguration(*w.protocol));
    };
    if (!store_) {
      render(key, "initial configuration:\n");
      return out;
    }
    std::vector<std::uint64_t> chain;
    for (std::uint64_t at = store_->find(key, codec_->hash(key));
         at != StateStore::kNoId; at = store_->parentOf(at))
      chain.push_back(at);
    SSNO_ASSERT(!chain.empty());
    std::reverse(chain.begin(), chain.end());
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const std::uint32_t pair = store_->parentMoveOf(chain[i]);
      render(store_->keyOf(chain[i]),
             i == 0              ? "initial configuration:\n"
             : pair == kSyncMove ? "synchronous step:\n"
                                 : actorText(pair) + ":\n");
    }
    return out;
  }

  /// Renders the selected violation into res: the failure text and the
  /// counterexample trace.
  void report(Result& res) {
    const Violation& v = *best_;
    res.trace = traceTo(v.key.data());
    Worker& w = workers_[0];
    decodeTo(w, v.key.data());
    const std::string config = describeConfiguration(*w.protocol);
    switch (v.kind) {
      case kClosure: {
        res.failure =
            "closure violated; legitimate configuration:\n" + config;
        if (v.move == kSyncMove) break;  // no single move to replay
        // Append the offending transition to the trace.
        const auto actions = static_cast<std::uint32_t>(actions_);
        w.protocol->execute(static_cast<NodeId>(v.move / actions),
                            static_cast<int>(v.move % actions));
        res.trace.push_back(actorText(v.move) + " (closure violation):\n" +
                            describeConfiguration(*w.protocol));
        w.curValid = false;  // protocol no longer matches w.cur
        break;
      }
      case kDeadlock:
        res.failure =
            "illegitimate terminal (deadlocked) configuration:\n" + config;
        break;
      case kFairCycle:
        res.failure =
            opt_.fairness == Fairness::kNone
                ? "convergence violated: cycle through illegitimate "
                  "configuration:\n" + config
                : "convergence violated: fair-feasible cycle through "
                  "illegitimate configuration:\n" + config;
        break;
    }
  }

  /// Convergence: the workers' edge logs, joined into one graph over
  /// local ids, analyzed by mc/properties.  Whether a violating SCC
  /// exists does not depend on the numbering, so a passing check never
  /// sorts.  Full-space local ids are ranks in key order, so the state
  /// found is already the canonical one.  A reachable log is numbered in
  /// discovery order; its violation is located again on the same log
  /// relabeled in key order, which makes the reported state independent
  /// of the thread count.
  void checkConvergence() {
    obs::TraceSpan span("mc_convergence");
    obs::ScopedTimer timer(kMcConvergenceNs);
    std::vector<std::uint32_t> ids;
    TransitionGraph g = joinLogs(ids);
    if (store_) toLocalIds(g, ids);
    const std::int64_t found = findFairCycle(g, opt_.fairness);
    if (found < 0) return;
    const auto words = static_cast<std::size_t>(codec_->words());
    std::vector<std::uint64_t> key(words);
    if (!store_) {
      codec_->indexToKey(indexOf(static_cast<std::uint32_t>(found)),
                         key.data());
    } else {
      std::vector<std::uint32_t> order(ids.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const std::uint64_t* ka = store_->keyOf(ids[a]);
                  const std::uint64_t* kb = store_->keyOf(ids[b]);
                  return std::lexicographical_compare(ka, ka + words, kb,
                                                      kb + words);
                });
      const std::int64_t bad =
          findFairCycle(g.permuted(order), opt_.fairness);
      SSNO_ASSERT(bad >= 0);
      const std::uint64_t* at =
          store_->keyOf(ids[order[static_cast<std::size_t>(bad)]]);
      key.assign(at, at + words);
    }
    offer({kFairCycle, std::move(key), 0});
  }

  /// Concatenates the workers' logs (in worker order) into one graph;
  /// `ids` receives their logIds the same way.
  TransitionGraph joinLogs(std::vector<std::uint32_t>& ids) {
    TransitionGraph g;
    if (workers_.size() == 1) {
      g = std::move(workers_[0].log);
      ids = std::move(workers_[0].logIds);
    } else {
      std::size_t states = 0;
      std::size_t edges = 0;
      for (const Worker& w : workers_) {
        states += w.log.stateCount();
        edges += w.log.edges.size();
      }
      g.offsets.reserve(states + 1);
      g.edges.reserve(edges);
      if (store_) ids.reserve(states);
      for (Worker& w : workers_) {
        const auto base = static_cast<std::uint32_t>(g.edges.size());
        g.edges.insert(g.edges.end(), w.log.edges.begin(), w.log.edges.end());
        for (std::size_t i = 1; i < w.log.offsets.size(); ++i)
          g.offsets.push_back(base + w.log.offsets[i]);
        ids.insert(ids.end(), w.logIds.begin(), w.logIds.end());
        w.log = TransitionGraph{};
        w.logIds = {};
      }
    }
    g.pairCount =
        static_cast<std::size_t>(workers_[0].protocol->graph().nodeCount()) *
        static_cast<std::size_t>(actions_);
    return g;
  }

  /// Remaps a reachable log's child store ids to local ids in place;
  /// ids[i] is the store id of local state i.
  void toLocalIds(TransitionGraph& g, const std::vector<std::uint32_t>& ids) {
    std::vector<std::uint32_t> localOf(
        static_cast<std::size_t>(store_->idBound()),
        TransitionGraph::kLeavesRegion);
    for (std::size_t i = 0; i < ids.size(); ++i)
      localOf[ids[i]] = static_cast<std::uint32_t>(i);
    for (TransitionGraph::Edge& e : g.edges) {
      if (e.to == TransitionGraph::kLeavesRegion) continue;
      e.to = localOf[e.to];
      SSNO_ASSERT(e.to != TransitionGraph::kLeavesRegion);  // all expanded
    }
  }

  [[nodiscard]] std::uint64_t statesExplored() const {
    return store_ ? store_->size() : codec_->totalStates();
  }
  [[nodiscard]] std::uint64_t transitions() const {
    std::uint64_t sum = 0;
    for (const Worker& w : workers_) sum += w.transitions;
    return sum;
  }

 private:
  const ParallelChecker::Legit& legit_;
  const Options& opt_;
  int threads_;
  int actions_ = 1;
  std::vector<Worker> workers_;
  std::unique_ptr<StateCodec> codec_;
  std::mutex violationMu_;
  std::optional<Violation> best_;
  // Full space: bit i set iff index i is illegitimate; rank_[k] counts
  // the set bits of words [0, k).
  std::vector<std::uint64_t> region_;
  std::vector<std::uint32_t> rank_;
  // Reachable space.
  std::unique_ptr<StateStore> store_;
  std::unique_ptr<FrontierSpill> current_;
  std::unique_ptr<FrontierSpill> next_;
};

Result finish(Run& run, Result res,
              const std::chrono::steady_clock::time_point& start,
              Explored explored, const char* tooLarge) {
  res.statesExplored = run.statesExplored();
  res.transitions = run.transitions();
  if (explored == Explored::kStoreFull) {
    res.failure = tooLarge;
  } else if (explored == Explored::kLogFull) {
    res.failure = kLogWidthExceeded;
  } else if (run.best()) {
    run.report(res);
  } else {
    run.checkConvergence();
    if (run.best())
      run.report(res);
    else
      res.ok = true;
  }
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  res.statesPerSec =
      static_cast<double>(res.statesExplored) / std::max(res.seconds, 1e-9);
  kMcTransitions.inc(res.transitions);
  kMcStatesPerSec.set(static_cast<std::int64_t>(res.statesPerSec));
  return res;
}

}  // namespace

Result ParallelChecker::checkFullSpace(const Options& opt) {
  const auto start = std::chrono::steady_clock::now();
  Result res;
  if (opt.synchronousSteps && opt.fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  std::uint64_t total = 0;
  {
    const std::unique_ptr<Protocol> probe = factory_();
    const StateCodec probeCodec(*probe);
    if (!probeCodec.indexable() || probeCodec.totalStates() > opt.maxStates) {
      res.failure = "state space too large for exhaustive check";
      return res;
    }
    total = probeCodec.totalStates();
  }
  if (!fitsLog(total)) {  // every configuration gets a local id
    res.failure = kLogWidthExceeded;
    return res;
  }

  Run run(factory_, legit_, opt);
  const Explored explored = run.exploreIndices(res);
  return finish(run, std::move(res), start, explored,
                "state space too large for exhaustive check");
}

Result ParallelChecker::checkReachable(
    const std::vector<std::vector<std::uint64_t>>& seeds,
    const Options& opt) {
  const auto start = std::chrono::steady_clock::now();
  Result res;
  if (opt.synchronousSteps && opt.fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  Run run(factory_, legit_, opt);
  run.openStore(opt.maxStates);
  std::atomic<std::size_t> cursor{0};
  runWorkers(run.threads(), [&](int t) {
    Worker& w = run.worker(t);
    for (std::size_t i = cursor.fetch_add(1); i < seeds.size();
         i = cursor.fetch_add(1)) {
      const std::vector<std::uint64_t>& codes = seeds[i];
      SSNO_EXPECTS(static_cast<int>(codes.size()) == run.codec().nodeCount());
      for (NodeId p = 0; p < run.codec().nodeCount(); ++p)
        run.codec().setNodeCode(w.childKey.data(), p,
                                codes[static_cast<std::size_t>(p)]);
      run.decodeTo(w, w.childKey.data());
      run.seed(w);
    }
  });

  const Explored explored = run.exploreLevels(res);
  return finish(run, std::move(res), start, explored,
                "reachable space exceeded maxConfigs");
}

}  // namespace ssno::mc
