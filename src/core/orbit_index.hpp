// Orbit index — exact membership in the configurations of a
// deterministic walk, at O(writes) per check off the walk.
//
// DFTC's L_TC and DFTNO's L_NO are defined by a walk: from a clean
// configuration a deterministic schedule runs until a configuration
// repeats.  L_TC is every configuration the walk visits (the pre-cycle
// prefix from the clean reset and the cycle); L_NO is the cycle only
// (DESIGN.md "Legitimate sets").  Holding each configuration as a vector
// costs O(n·L) = O(n²) memory for L ≈ 5n configurations, and looking the
// live configuration up costs O(n) per check.  The index keeps instead
//   * each processor's state timeline: the walk positions where its
//     state changed and the new raw values — O(n + L) entries;
//   * the Zobrist fingerprint of every configuration on the walk (the
//     wrapping sum over processors of a 64-bit hash of (processor,
//     state)), mapped to its walk positions.
// It is recorded on a scratch protocol instance driven through an
// EnabledCache (never a Simulator), so building it touches neither the
// live protocol nor the simulator's counters.
//
// An OrbitTracker keeps the live protocol's fingerprint current from its
// writer feed (Protocol::armWriterFeed) — O(writes) per check — probes
// the index, and confirms a hit exactly against the timelines, O(n log)
// and counted in legit_confirms_total.  A fingerprint matches only on
// the walk (or on a 64-bit collision), so a converging run pays one
// confirmation per goal it reaches.  The answer is exactly set
// membership.
#ifndef SSNO_CORE_ORBIT_INDEX_HPP
#define SSNO_CORE_ORBIT_INDEX_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/enabled_view.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "core/types.hpp"

namespace ssno {

/// Zobrist term of processor p's state in `arena`, the arena at position
/// `slot` of its protocol's arenas() list: a 64-bit hash of
/// (slot, p, every raw value).  A configuration's fingerprint over the
/// leading k arenas is the wrapping sum of these terms over processors
/// and arenas 0..k-1.
[[nodiscard]] std::uint64_t stateHash(const StateArena& arena,
                                      std::size_t slot, NodeId p);

class OrbitIndex {
 public:
  /// The walk's next move, chosen from the scratch protocol's enabled
  /// view (its firstNode()/nextNode() walk the enabled processors in
  /// ascending order).
  using Pick = std::function<Move(const EnabledView& view)>;

  /// Records the walk `scratch` takes from its current configuration
  /// under `pick` until a configuration repeats.  Members are every
  /// configuration visited (`prefixIsMember`) or the repeating cycle only.
  [[nodiscard]] static OrbitIndex walk(Protocol& scratch, const Pick& pick,
                                       bool prefixIsMember);

  /// Leading arenas() entries the walk's configurations cover.
  [[nodiscard]] std::size_t arenaCount() const { return arenas_; }
  /// Configurations on the walk, prefix and cycle (L).
  [[nodiscard]] std::size_t positions() const { return positions_; }
  /// First position on the cycle (the walk's last step returns there).
  [[nodiscard]] std::size_t cycleStart() const { return cycleStart_; }
  [[nodiscard]] std::size_t memberCount() const {
    return positions() - firstMember_;
  }

  /// fn(pos) for every member position whose fingerprint is fp, until
  /// fn returns false.
  template <class Fn>
  void forEachCandidate(std::uint64_t fp, Fn&& fn) const {
    const auto [first, last] = table_.equal_range(fp);
    for (auto it = first; it != last; ++it)
      if (it->second >= firstMember_ &&
          !fn(static_cast<std::size_t>(it->second)))
        return;
  }

  /// Whether p's state in the leading arenaCount() arenas of `live`
  /// equals its state at walk position `pos`.
  [[nodiscard]] bool matches(std::span<StateArena* const> live, NodeId p,
                             std::size_t pos) const;

 private:
  OrbitIndex() = default;

  std::size_t arenas_ = 0;
  std::size_t positions_ = 0;
  std::size_t cycleStart_ = 0;
  std::uint32_t firstMember_ = 0;
  // Timelines in CSR form: processor p's changes are entries
  // [entryBegin_[p], entryBegin_[p+1]), ascending by position; entry 0
  // of each is position 0.  entryOff_ points into values_.
  std::vector<std::uint32_t> entryBegin_;
  std::vector<std::uint32_t> entryPos_;
  std::vector<std::uint32_t> entryOff_;
  std::vector<int> values_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> table_;  // fp → pos
};

/// Running fingerprints of a live protocol's configuration, one sum per
/// registered arena, kept current from the protocol's writer feed (the
/// tracker arms it and is its single consumer), probed against
/// OrbitIndexes.  Construct it at the first check, not with the protocol.
class OrbitTracker {
 public:
  explicit OrbitTracker(Protocol& live);

  /// Whether the live configuration, restricted to index.arenaCount()
  /// leading arenas, is a member of `index`.
  [[nodiscard]] bool contains(const OrbitIndex& index);

 private:
  void sync();
  bool confirm(const OrbitIndex& index, std::size_t pos) const;

  Protocol& live_;
  std::span<StateArena* const> arenas_;
  std::size_t n_ = 0;
  std::vector<std::uint64_t> terms_;  // terms_[a * n_ + p]
  std::vector<std::uint64_t> sums_;   // per arena
};

}  // namespace ssno

#endif  // SSNO_CORE_ORBIT_INDEX_HPP
