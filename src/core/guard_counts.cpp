#include "core/guard_counts.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace ssno {

namespace {
// Once per whole-configuration write drained, never per check.
const obs::Counter kLegitResyncs =
    obs::Registry::global().counter("legit_resyncs_total");
// Full re-evaluations run in identity-list chunks of this size.
constexpr NodeId kChunk = 1024;
}  // namespace

GuardCounts::GuardCounts(Protocol& protocol,
                         const std::vector<std::uint64_t>& groups)
    : protocol_(protocol) {
  SSNO_EXPECTS(!groups.empty());
  SSNO_EXPECTS(protocol.guardsAreNeighborhoodLocal());
  const auto n = static_cast<std::size_t>(protocol.graph().nodeCount());
  for (const std::uint64_t actions : groups) {
    State s;
    s.actions = actions;
    s.enabled.assign(n, 0);
    s.dirty.assign(n, 0);
    groups_.push_back(std::move(s));
  }
  protocol.armWriterFeed();
}

void GuardCounts::markDirty(State& s, NodeId p) {
  const auto i = static_cast<std::size_t>(p);
  if (s.dirty[i]) return;
  s.dirty[i] = 1;
  s.dirtyList.push_back(p);
  s.cleanEnabled -= s.enabled[i];
}

void GuardCounts::drainFeed() {
  if (protocol_.allWritten()) {
    for (State& s : groups_) {
      for (const NodeId p : s.dirtyList)
        s.dirty[static_cast<std::size_t>(p)] = 0;
      s.dirtyList.clear();
      s.all = true;
    }
    kLegitResyncs.inc();
  } else {
    const Graph& g = protocol_.graph();
    for (State& s : groups_) {
      if (s.all) continue;
      for (const NodeId w : protocol_.writtenNodes()) {
        markDirty(s, w);
        for (const NodeId q : g.neighbors(w)) markDirty(s, q);
      }
    }
  }
  protocol_.clearWritten();
}

bool GuardCounts::anyEnabled(std::size_t g) {
  SSNO_EXPECTS(g < groups_.size());
  drainFeed();
  State& s = groups_[g];
  if (s.all) {
    const NodeId n = protocol_.graph().nodeCount();
    s.cleanEnabled = 0;
    for (NodeId lo = 0; lo < n; lo += kChunk) {
      batch_.clear();
      for (NodeId p = lo; p < std::min(n, lo + kChunk); ++p)
        batch_.push_back(p);
      masks_.resize(batch_.size());
      protocol_.evaluateGuards(batch_, masks_.data());
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const std::uint8_t on = (masks_[i] & s.actions) != 0 ? 1 : 0;
        s.enabled[static_cast<std::size_t>(batch_[i])] = on;
        s.cleanEnabled += on;
      }
    }
    s.all = false;
  }
  // A clean enabled processor answers the check; otherwise evaluate
  // dirty processors until one is enabled or none is left dirty.
  while (s.cleanEnabled == 0 && !s.dirtyList.empty()) {
    const NodeId p = s.dirtyList.back();
    s.dirtyList.pop_back();
    std::uint64_t mask = 0;
    protocol_.evaluateGuards({&p, 1}, &mask);
    const auto i = static_cast<std::size_t>(p);
    s.dirty[i] = 0;
    s.enabled[i] = (mask & s.actions) != 0 ? 1 : 0;
    s.cleanEnabled += s.enabled[i];
  }
  return s.cleanEnabled > 0;
}

}  // namespace ssno
