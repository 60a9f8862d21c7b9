// Transient-fault injection (paper §1.2: self-stabilization as the
// unified fault-tolerance approach — the system must recover from *any*
// state, so faults are modeled as adversarial writes to process memory),
// plus fault-impact bookkeeping driven by the EnabledCache's
// status-change feed.
#ifndef SSNO_CORE_FAULT_HPP
#define SSNO_CORE_FAULT_HPP

#include <span>
#include <vector>

#include "core/bitwords.hpp"
#include "core/enabled_view.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"

namespace ssno {

class FaultInjector {
 public:
  explicit FaultInjector(Protocol& protocol) : protocol_(protocol) {}

  /// Sets every processor to a uniformly random local state — the
  /// "arbitrary initial configuration" of Definition 2.1.2.
  void scrambleAll(Rng& rng) { protocol_.randomize(rng); }

  /// Corrupts exactly k distinct processors chosen uniformly; returns the
  /// victims SORTED ascending (for deterministic reporting — the
  /// corruption itself happens in selection order so RNG streams are
  /// unchanged).  Throws std::invalid_argument when k < 0 or k > n.
  std::vector<NodeId> corruptK(int k, Rng& rng);

  /// Corrupts one given processor.
  void corruptNode(NodeId p, Rng& rng) { protocol_.randomizeNode(p, rng); }

  /// Simulates a crash-and-reset of processor p: local state is set to the
  /// all-zero (freshly booted) local state, which is *not* necessarily
  /// consistent with the neighbors — recovery is the protocol's job.
  void crashReset(NodeId p) { protocol_.decodeNode(p, 0); }

 private:
  Protocol& protocol_;
};

/// Fault-impact bookkeeping off the enabled-status change feed.
///
/// After an injected fault, the *disturbance footprint* — which
/// processors were ever activated while recovery ran — measures fault
/// containment.  The historical way to track it walked the enabled
/// move list every step (O(#enabled) per step); this tracker instead
/// consumes the Simulator's status observer (EnabledCache status-change
/// feed), so steady-state maintenance is O(#status flips) per step.
/// tests/status_feed_test.cpp pins bit-identity against the old walk.
///
/// Wire it up with:
///   sim.setStatusObserver([&](auto ch, bool inv, const EnabledView& v) {
///     tracker.onStatusChanges(ch, inv, v);
///   });
class FaultImpactTracker {
 public:
  explicit FaultImpactTracker(int nodeCount)
      : enabled_(static_cast<std::size_t>(nodeCount)),
        ever_(static_cast<std::size_t>(nodeCount)) {}

  /// Simulator::StatusObserver entry point.  A full invalidation
  /// resynchronizes from the view; otherwise only flipped nodes are
  /// touched (feed entries may contain duplicates — updates are
  /// idempotent).
  void onStatusChanges(std::span<const NodeId> changed, bool fullInvalidate,
                       const EnabledView& now) {
    if (fullInvalidate) {
      enabled_.reset();
      now.forEachNode([this](NodeId p) {
        enabled_.set(static_cast<std::size_t>(p));
        ever_.set(static_cast<std::size_t>(p));
      });
      return;
    }
    for (const NodeId p : changed) {
      if (now.anyEnabled(p)) {
        enabled_.set(static_cast<std::size_t>(p));
        ever_.set(static_cast<std::size_t>(p));
      } else {
        enabled_.clear(static_cast<std::size_t>(p));
      }
    }
  }

  /// Processors enabled after the last observed step.
  [[nodiscard]] const bits::WordBitset& enabledNow() const {
    return enabled_;
  }
  /// Processors ever enabled since the last resetFootprint().
  [[nodiscard]] const bits::WordBitset& footprint() const { return ever_; }
  [[nodiscard]] std::size_t footprintCount() const { return ever_.count(); }

  /// Starts a fresh footprint measurement (typically right after an
  /// injection); currently enabled processors re-enter it immediately.
  void resetFootprint() {
    ever_.reset();
    for (std::size_t w = 0; w < enabled_.wordCount(); ++w)
      if (enabled_.words()[w] != 0) orWordInto(w);
  }

 private:
  void orWordInto(std::size_t w) {
    // WordBitset exposes read-only words; set bit by bit (rare path).
    std::uint64_t bits = enabled_.words()[w];
    while (bits != 0) {
      const int b = bits::lowestBit(bits);
      bits &= bits - 1;
      ever_.set(w * bits::kWordBits + static_cast<std::size_t>(b));
    }
  }

  bits::WordBitset enabled_;
  bits::WordBitset ever_;
};

}  // namespace ssno

#endif  // SSNO_CORE_FAULT_HPP
