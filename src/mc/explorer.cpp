#include "mc/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "core/assert.hpp"
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
/// enabled cache, and the key it currently has decoded.
struct Worker {
  std::unique_ptr<Protocol> protocol;
  std::unique_ptr<EnabledCache> cache;
  std::function<bool()> legitNow;  // legit_ bound to this protocol
  std::vector<std::uint64_t> cur;  // decoded key (valid iff curValid)
  bool curValid = false;
  /// Stable (node, action-mask) snapshot of a refresh — one entry per
  /// enabled node; no per-move vector is materialized on the hot path
  /// (iterated with ssno::forEachMove).
  NodeMasks enabled;
  std::vector<std::uint64_t> childKey;  // successor scratch
  std::vector<std::uint64_t> nextBuf;   // local next-frontier batch
  /// Synchronous mode: per-worker columnar move-set executor + the
  /// reused selection buffer for the cartesian-product enumeration.
  std::unique_ptr<SimultaneousEngine> engine;
  std::vector<Move> selScratch;
  /// Out-edges of the illegitimate states this worker expanded, in
  /// expansion order: child store ids (kLeavesRegion for a legitimate
  /// child) until the convergence pass remaps them to local ids.
  /// logIds[i] is the store id of log state i.
  TransitionGraph log;
  std::vector<std::uint32_t> logIds;
};

/// How exploreLevels ended.
enum class Explored { kDone, kStoreFull, kLogFull };

/// Shared state of one checkFullSpace/checkReachable run.
class Run {
 public:
  Run(const ParallelChecker::Factory& factory,
      const ParallelChecker::Legit& legit, const Options& opt,
      std::uint64_t capacity)
      : legit_(legit),
        opt_(opt),
        threads_(opt.threads > 0
                     ? opt.threads
                     : static_cast<int>(std::max(
                           1u, std::thread::hardware_concurrency()))) {
    workers_.resize(static_cast<std::size_t>(threads_));
    for (Worker& w : workers_) {
      w.protocol = factory();
      w.cache = std::make_unique<EnabledCache>(*w.protocol);
      w.legitNow = [this, protocol = w.protocol.get()] {
        return legit_(*protocol);
      };
      if (opt.synchronousSteps)
        w.engine = std::make_unique<SimultaneousEngine>(*w.protocol);
    }
    codec_ = std::make_unique<StateCodec>(*workers_[0].protocol);
    actions_ = workers_[0].protocol->actionCount();
    store_ = std::make_unique<StateStore>(codec_->words(), capacity);
    for (Worker& w : workers_) {
      w.cur.resize(static_cast<std::size_t>(codec_->words()));
      w.childKey.resize(static_cast<std::size_t>(codec_->words()));
    }
    current_ = std::make_unique<FrontierSpill>(opt.spillCapacity, opt.spillDir);
    next_ = std::make_unique<FrontierSpill>(opt.spillCapacity, opt.spillDir);
  }

  [[nodiscard]] const StateCodec& codec() const { return *codec_; }
  [[nodiscard]] StateStore& store() { return *store_; }
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

  void pushNext(Worker& w, std::uint64_t id) {
    w.nextBuf.push_back(id);
    if (w.nextBuf.size() >= kFrontierBatch) flushNext(w);
  }
  void flushNext(Worker& w) {
    if (w.nextBuf.empty()) return;
    next_->append(w.nextBuf.data(), w.nextBuf.size());
    w.nextBuf.clear();
  }

  void offer(Violation v) {
    std::lock_guard<std::mutex> lock(violationMu_);
    if (!best_ || v.precedes(*best_)) best_ = std::move(v);
  }
  [[nodiscard]] const std::optional<Violation>& best() const { return best_; }

  /// Interns the configuration currently decoded in w's protocol,
  /// whose key is `key`; parentKey == nullptr marks a seed.
  StateStore::Ref intern(Worker& w, const std::uint64_t* key,
                         std::uint32_t depth,
                         const std::uint64_t* parentKey = nullptr,
                         std::uint64_t parentId = StateStore::kNoId,
                         std::uint32_t parentMove = 0) {
    return store_->intern(key, codec_->hash(key), depth, w.legitNow,
                          parentKey, parentId, parentMove);
  }

  /// Expands one frontier state: enumerate enabled moves from the
  /// incremental cache, patch each successor key in O(1), intern it,
  /// and restore the acted node.  Closure and deadlock candidates are
  /// offered to the canonical-min selector; an illegitimate state's
  /// out-edges are appended to the worker's log for the convergence
  /// pass, so the region is never expanded a second time.
  void expand(Worker& w, std::uint64_t id, std::uint32_t depth) {
    const std::uint64_t* key = store_->keyOf(id);
    decodeTo(w, key);
    const EnabledView& view = w.cache->refreshView();
    w.enabled.clear();
    view.appendNodeMasks(w.enabled);
    transitions_.fetch_add(static_cast<std::uint64_t>(view.moveCount()),
                           std::memory_order_relaxed);
    const bool parentLegit = store_->legit(id);
    if (w.enabled.empty() && !parentLegit) {
      offer({kDeadlock,
             std::vector<std::uint64_t>(key, key + codec_->words()), 0});
      return;
    }
    // A successor feeds the closure check when the parent is legitimate
    // and becomes one edge of the parent's log entry otherwise.
    const auto settle = [&](const StateStore::Ref& r, std::uint32_t move) {
      if (r.inserted) pushNext(w, r.id);
      if (!parentLegit)
        w.log.edges.push_back({r.legit ? TransitionGraph::kLeavesRegion
                                       : static_cast<std::uint32_t>(r.id),
                               move});
      else if (!r.legit)
        offer({kClosure,
               std::vector<std::uint64_t>(key, key + codec_->words()), move});
    };
    if (opt_.synchronousSteps) {
      // Synchronous semantics: one successor per simultaneous selection
      // (every enabled node acts), executed in place by the columnar
      // engine and rolled back via its batched snapshot restore.
      forEachSimultaneousSelection(
          w.enabled, w.selScratch, [&](std::span<const Move> set) {
            w.engine->execute(set);
            std::memcpy(w.childKey.data(), w.cur.data(),
                        static_cast<std::size_t>(codec_->words()) * 8);
            for (const Move& m : set)
              codec_->setNodeCode(w.childKey.data(), m.node,
                                  w.protocol->encodeNode(m.node));
            const StateStore::Ref r =
                intern(w, w.childKey.data(), depth + 1, key, id, kSyncMove);
            w.engine->undo();
            settle(r, kSyncMove);
          });
    } else {
      forEachMove(w.enabled, [&](const Move& m) {
        w.protocol->execute(m.node, m.action);
        std::memcpy(w.childKey.data(), w.cur.data(),
                    static_cast<std::size_t>(codec_->words()) * 8);
        codec_->setNodeCode(w.childKey.data(), m.node,
                            w.protocol->encodeNode(m.node));
        const auto pair =
            static_cast<std::uint32_t>(m.node * actions_ + m.action);
        const StateStore::Ref r =
            intern(w, w.childKey.data(), depth + 1, key, id, pair);
        // A statement writes only its own processor's variables, so
        // restoring the acted node alone returns the protocol to `key`.
        w.protocol->decodeNode(m.node, codec_->nodeCode(key, m.node));
        settle(r, pair);
      });
    }
    if (!parentLegit) {
      w.log.endState();
      w.logIds.push_back(static_cast<std::uint32_t>(id));
    }
  }

  /// Whether the store and the edge logs are still within their bounds:
  /// maxStates and the store's capacity, and the logs' 32-bit ids and
  /// offsets (checked before any truncated value could be read).
  [[nodiscard]] Explored bounds() const {
    if (store_->overflowed() || store_->size() > opt_.maxStates)
      return Explored::kStoreFull;
    std::uint64_t edges = 0;
    for (const Worker& w : workers_) edges += w.log.edges.size();
    if (!fitsLog(store_->idBound()) || !fitsLog(edges))
      return Explored::kLogFull;
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

  /// Canonical trace from a seed to `id` along parent pointers.
  std::vector<std::string> traceTo(std::uint64_t id) {
    std::vector<std::uint64_t> chain;
    for (std::uint64_t at = id; at != StateStore::kNoId;
         at = store_->parentOf(at))
      chain.push_back(at);
    std::reverse(chain.begin(), chain.end());
    std::vector<std::string> out;
    Worker& w = workers_[0];
    for (std::size_t i = 0; i < chain.size(); ++i) {
      decodeTo(w, store_->keyOf(chain[i]));
      std::ostringstream line;
      if (i == 0) {
        line << "initial configuration:\n";
      } else if (const std::uint32_t pair = store_->parentMoveOf(chain[i]);
                 pair == kSyncMove) {
        line << "synchronous step:\n";
      } else {
        line << "node " << (pair / static_cast<std::uint32_t>(actions_))
             << " executes "
             << w.protocol->actionName(
                    static_cast<int>(pair % static_cast<std::uint32_t>(
                                                actions_)))
             << ":\n";
      }
      line << describeConfiguration(*w.protocol);
      out.push_back(line.str());
    }
    return out;
  }

  /// Renders the selected violation into res: the failure text and the
  /// counterexample trace.
  void report(Result& res) {
    const Violation& v = *best_;
    const std::uint64_t id =
        store_->find(v.key.data(), codec_->hash(v.key.data()));
    SSNO_ASSERT(id != StateStore::kNoId);
    res.trace = traceTo(id);
    Worker& w = workers_[0];
    decodeTo(w, v.key.data());
    const std::string config = describeConfiguration(*w.protocol);
    switch (v.kind) {
      case kClosure: {
        res.failure =
            "closure violated; legitimate configuration:\n" + config;
        if (v.move == kSyncMove) break;  // no single move to replay
        // Append the offending transition to the trace.
        const NodeId node =
            static_cast<NodeId>(v.move / static_cast<std::uint32_t>(actions_));
        const int action =
            static_cast<int>(v.move % static_cast<std::uint32_t>(actions_));
        w.protocol->execute(node, action);
        res.trace.push_back("node " + std::to_string(node) + " executes " +
                            w.protocol->actionName(action) +
                            " (closure violation):\n" +
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
  /// sorts.  A violation is located again on the same log relabeled in
  /// canonical (key) order, which makes the reported state independent
  /// of the thread count.
  void checkConvergence() {
    obs::TraceSpan span("mc_convergence");
    obs::ScopedTimer timer(kMcConvergenceNs);
    std::vector<std::uint32_t> ids;
    const TransitionGraph g = joinLogs(ids);
    if (findFairCycle(g, opt_.fairness) < 0) return;
    std::vector<std::uint32_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0u);
    const auto words = static_cast<std::size_t>(codec_->words());
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t* ka = store_->keyOf(ids[a]);
                const std::uint64_t* kb = store_->keyOf(ids[b]);
                return std::lexicographical_compare(ka, ka + words, kb,
                                                    kb + words);
              });
    const std::int64_t bad = findFairCycle(g.permuted(order), opt_.fairness);
    SSNO_ASSERT(bad >= 0);
    const std::uint64_t* key =
        store_->keyOf(ids[order[static_cast<std::size_t>(bad)]]);
    offer({kFairCycle, std::vector<std::uint64_t>(key, key + words), 0});
  }

  /// Concatenates the workers' logs (in worker order) into one graph,
  /// remapping child store ids to local ids in place; ids[i] receives
  /// the store id of local state i.
  TransitionGraph joinLogs(std::vector<std::uint32_t>& ids) {
    TransitionGraph g;
    if (workers_.size() == 1) {
      g = std::move(workers_[0].log);
      ids = std::move(workers_[0].logIds);
    } else {
      std::size_t states = 0;
      std::size_t edges = 0;
      for (const Worker& w : workers_) {
        states += w.logIds.size();
        edges += w.log.edges.size();
      }
      g.offsets.reserve(states + 1);
      g.edges.reserve(edges);
      ids.reserve(states);
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
    return g;
  }

  [[nodiscard]] std::uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

 private:
  const ParallelChecker::Legit& legit_;
  const Options& opt_;
  int threads_;
  int actions_ = 1;
  std::vector<Worker> workers_;
  std::unique_ptr<StateCodec> codec_;
  std::unique_ptr<StateStore> store_;
  std::unique_ptr<FrontierSpill> current_;
  std::unique_ptr<FrontierSpill> next_;
  std::mutex violationMu_;
  std::optional<Violation> best_;
  std::atomic<std::uint64_t> transitions_{0};
};

Result finish(Run& run, Result res,
              const std::chrono::steady_clock::time_point& start,
              Explored explored, const char* tooLarge) {
  res.statesExplored = run.store().size();
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
  if (!fitsLog(total)) {  // every configuration gets a store id
    res.failure = kLogWidthExceeded;
    return res;
  }

  Run run(factory_, legit_, opt, total);

  // Seed every configuration at depth 0 (mixed-radix enumeration with
  // delta decoding: consecutive indices differ in a low-radix prefix).
  std::atomic<std::uint64_t> cursor{0};
  constexpr std::uint64_t kSeedChunk = 512;
  runWorkers(run.threads(), [&](int t) {
    Worker& w = run.worker(t);
    for (std::uint64_t base = cursor.fetch_add(kSeedChunk); base < total;
         base = cursor.fetch_add(kSeedChunk)) {
      const std::uint64_t end = std::min(base + kSeedChunk, total);
      for (std::uint64_t i = base; i < end; ++i) {
        run.codec().indexToKey(i, w.childKey.data());
        run.decodeTo(w, w.childKey.data());
        const StateStore::Ref r = run.intern(w, w.childKey.data(), 0);
        if (r.inserted) run.pushNext(w, r.id);
      }
    }
  });

  const Explored explored = run.exploreLevels(res);
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
  Run run(factory_, legit_, opt, opt.maxStates);
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
      const StateStore::Ref r = run.intern(w, w.childKey.data(), 0);
      if (r.inserted) run.pushNext(w, r.id);
    }
  });

  const Explored explored = run.exploreLevels(res);
  return finish(run, std::move(res), start, explored,
                "reachable space exceeded maxConfigs");
}

}  // namespace ssno::mc
