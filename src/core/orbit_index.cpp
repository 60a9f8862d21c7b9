#include "core/orbit_index.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "core/enabled_cache.hpp"
#include "obs/metrics.hpp"

namespace ssno {

namespace {

// Incremented once per O(n) event — a full fingerprint resync after a
// whole-configuration write, a full exact confirmation — never per check.
const obs::Counter kLegitResyncs =
    obs::Registry::global().counter("legit_resyncs_total");
const obs::Counter kLegitConfirms =
    obs::Registry::global().counter("legit_confirms_total");

std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// Whether p's raw values in `arenas` equal the stored run at `stored`
/// (same layout: arenas in order, var rows length-prefixed, so a length
/// mismatch stops the compare before it could overrun the stored run).
bool equalsStored(std::span<StateArena* const> arenas, NodeId p,
                  const int* stored) {
  std::size_t i = 0;
  for (const StateArena* arena : arenas)
    if (!arena->visitRawNode(p, [&](int v) { return v == stored[i++]; }))
      return false;
  return true;
}

}  // namespace

std::uint64_t stateHash(const StateArena& arena, std::size_t slot, NodeId p) {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(slot) << 40) ^
                          static_cast<std::uint64_t>(p));
  arena.visitRawNode(p, [&h](int v) {
    h = (h ^ static_cast<std::uint32_t>(v)) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return true;
  });
  return mix64(h);
}

OrbitIndex OrbitIndex::walk(Protocol& scratch, const Pick& pick,
                            bool prefixIsMember) {
  OrbitIndex idx;
  const std::span<StateArena* const> arenas = scratch.arenas();
  SSNO_EXPECTS(!arenas.empty());
  idx.arenas_ = arenas.size();
  const NodeId n = scratch.graph().nodeCount();
  const auto un = static_cast<std::size_t>(n);

  // The walk log, in position order: position 0 holds every processor's
  // initial state, every later position the one state its step wrote.
  struct Record {
    std::uint32_t pos;
    NodeId node;
    std::uint32_t off;  // into idx.values_
  };
  std::vector<Record> log;
  log.reserve(2 * un);
  std::vector<std::uint64_t> term(un, 0);  // per-processor Zobrist term
  std::uint64_t fp = 0;
  const auto record = [&](std::uint32_t pos, NodeId p) {
    log.push_back({pos, p, static_cast<std::uint32_t>(idx.values_.size())});
    std::uint64_t h = 0;
    for (std::size_t a = 0; a < arenas.size(); ++a) {
      arenas[a]->appendRawNode(p, idx.values_);
      h += stateHash(*arenas[a], a, p);
    }
    fp += h - term[static_cast<std::size_t>(p)];
    term[static_cast<std::size_t>(p)] = h;
  };
  // Whether the scratch configuration equals the one at `earlier`: the
  // log replayed up to that position names each processor's stored run.
  // Runs once per fingerprint match, i.e. about once per walk.
  std::vector<std::uint32_t> offsets(un);
  const auto equalsPosition = [&](std::uint32_t earlier) {
    for (const Record& r : log) {
      if (r.pos > earlier) break;
      offsets[static_cast<std::size_t>(r.node)] = r.off;
    }
    for (NodeId p = 0; p < n; ++p) {
      const std::uint32_t off = offsets[static_cast<std::size_t>(p)];
      if (!equalsStored(arenas, p, idx.values_.data() + off)) return false;
    }
    return true;
  };

  for (NodeId p = 0; p < n; ++p) record(0, p);
  idx.table_.emplace(fp, 0);
  EnabledCache cache(scratch);
  for (std::uint32_t pos = 1;; ++pos) {
    const Move m = pick(cache.refreshView());
    scratch.execute(m.node, m.action);
    record(pos, m.node);
    const auto [first, last] = idx.table_.equal_range(fp);
    const auto repeat = std::find_if(first, last, [&](const auto& entry) {
      return equalsPosition(entry.second);
    });
    if (repeat != last) {
      // The configuration reached at `pos` is the one at `repeat`: the
      // walk has closed.  Drop the duplicate record.
      idx.values_.resize(log.back().off);
      log.pop_back();
      idx.positions_ = pos;
      idx.cycleStart_ = repeat->second;
      break;
    }
    idx.table_.emplace(fp, pos);
  }
  idx.firstMember_ =
      prefixIsMember ? 0 : static_cast<std::uint32_t>(idx.cycleStart_);

  // Group the log by processor (stable, so each timeline stays ascending).
  std::vector<std::uint32_t>& begin = idx.entryBegin_;
  begin.assign(un + 1, 0);
  for (const Record& r : log) ++begin[static_cast<std::size_t>(r.node) + 1];
  for (std::size_t p = 0; p < un; ++p) begin[p + 1] += begin[p];
  idx.entryPos_.resize(log.size());
  idx.entryOff_.resize(log.size());
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (const Record& r : log) {
    const std::uint32_t at = fill[static_cast<std::size_t>(r.node)]++;
    idx.entryPos_[at] = r.pos;
    idx.entryOff_[at] = r.off;
  }
  return idx;
}

bool OrbitIndex::matches(std::span<StateArena* const> live, NodeId p,
                         std::size_t pos) const {
  const auto i = static_cast<std::size_t>(p);
  const auto first = entryPos_.begin() + entryBegin_[i];
  const auto last = entryPos_.begin() + entryBegin_[i + 1];
  // The last change at or before `pos` (every timeline starts at 0).
  const auto at =
      std::upper_bound(first, last, static_cast<std::uint32_t>(pos)) - 1;
  const std::uint32_t off = entryOff_[static_cast<std::size_t>(
      at - entryPos_.begin())];
  return equalsStored(live.first(arenas_), p, values_.data() + off);
}

OrbitTracker::OrbitTracker(Protocol& live)
    : live_(live),
      arenas_(live.arenas()),
      n_(static_cast<std::size_t>(live.graph().nodeCount())) {
  SSNO_EXPECTS(!arenas_.empty());
  terms_.assign(arenas_.size() * n_, 0);
  sums_.assign(arenas_.size(), 0);
  live.armWriterFeed();
}

void OrbitTracker::sync() {
  if (live_.allWritten()) {
    for (std::size_t a = 0; a < arenas_.size(); ++a) {
      std::uint64_t sum = 0;
      for (std::size_t p = 0; p < n_; ++p) {
        const std::uint64_t t =
            stateHash(*arenas_[a], a, static_cast<NodeId>(p));
        terms_[a * n_ + p] = t;
        sum += t;
      }
      sums_[a] = sum;
    }
    kLegitResyncs.inc();
  } else {
    for (const NodeId p : live_.writtenNodes()) {
      for (std::size_t a = 0; a < arenas_.size(); ++a) {
        std::uint64_t& t = terms_[a * n_ + static_cast<std::size_t>(p)];
        const std::uint64_t fresh = stateHash(*arenas_[a], a, p);
        sums_[a] += fresh - t;
        t = fresh;
      }
    }
  }
  live_.clearWritten();
}

bool OrbitTracker::confirm(const OrbitIndex& index, std::size_t pos) const {
  kLegitConfirms.inc();
  for (std::size_t p = 0; p < n_; ++p)
    if (!index.matches(arenas_, static_cast<NodeId>(p), pos)) return false;
  return true;
}

bool OrbitTracker::contains(const OrbitIndex& index) {
  SSNO_EXPECTS(index.arenaCount() <= arenas_.size());
  sync();
  std::uint64_t fp = 0;
  for (std::size_t a = 0; a < index.arenaCount(); ++a) fp += sums_[a];
  bool hit = false;
  index.forEachCandidate(fp, [&](std::size_t pos) {
    hit = confirm(index, pos);
    return !hit;
  });
  return hit;
}

}  // namespace ssno
