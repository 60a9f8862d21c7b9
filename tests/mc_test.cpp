// Unit tests for the src/mc parallel model-checking engine: the
// bit-packed state codec and its index order, the sharded store, the
// spill tier, and the explorer's verdicts/determinism on the toy
// protocols with known defects.
#include "mc/explorer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "dftc/dftc.hpp"
#include "mc/properties.hpp"
#include "mc/spill.hpp"
#include "mc/state_codec.hpp"
#include "mc/store.hpp"
#include "toy_protocols.hpp"

namespace ssno::mc {
namespace {

TEST(StateCodec, RoundTripsConfigurations) {
  Dftc dftc(Graph::figure311());
  const StateCodec codec(dftc);
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    dftc.randomize(rng);
    const std::vector<std::uint64_t> codes = dftc.encodeConfiguration();
    codec.encode(dftc, key.data());
    for (NodeId p = 0; p < dftc.graph().nodeCount(); ++p)
      EXPECT_EQ(codec.nodeCode(key.data(), p),
                codes[static_cast<std::size_t>(p)]);
    // Decode into a second instance and compare canonical encodings.
    Dftc other(Graph::figure311());
    codec.decode(key.data(), other);
    EXPECT_EQ(other.encodeConfiguration(), codes);
  }
}

TEST(StateCodec, PatchMatchesFullEncode) {
  Dftc dftc(Graph::path(3));
  const StateCodec codec(dftc);
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  std::vector<std::uint64_t> patched = key;
  Rng rng(9);
  dftc.randomize(rng);
  codec.encode(dftc, key.data());
  // Executing a move and patching the acted node must equal re-encoding.
  const std::vector<Move> moves = dftc.enabledMoves();
  ASSERT_FALSE(moves.empty());
  const Move m = moves.front();
  dftc.execute(m.node, m.action);
  patched.assign(key.begin(), key.end());
  codec.setNodeCode(patched.data(), m.node, dftc.encodeNode(m.node));
  std::vector<std::uint64_t> full(static_cast<std::size_t>(codec.words()));
  codec.encode(dftc, full.data());
  EXPECT_EQ(patched, full);
}

TEST(StateCodec, IndexEnumerationIsExhaustive) {
  ZeroProtocol proto(Graph::path(3), 3);
  const StateCodec codec(proto);
  ASSERT_TRUE(codec.indexable());
  EXPECT_EQ(codec.totalStates(), 27u);
  std::set<std::vector<std::uint64_t>> seen;
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  for (std::uint64_t i = 0; i < codec.totalStates(); ++i) {
    codec.indexToKey(i, key.data());
    seen.insert(key);
  }
  EXPECT_EQ(seen.size(), 27u);
}

/// One processor per radix: the codec reads only localStateCount.  It
/// declares no state; only the radices are overridden.
class RadixProtocol final : public Protocol {
 public:
  explicit RadixProtocol(std::vector<std::uint64_t> radices)
      : Protocol(Graph::path(static_cast<int>(radices.size()))),
        radices_(std::move(radices)) {}
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "None"; }
  [[nodiscard]] bool enabled(NodeId, int) const override { return false; }
  void doExecute(NodeId, int) override {}
  [[nodiscard]] std::uint64_t localStateCount(NodeId p) const override {
    return radices_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::string dumpNode(NodeId) const override { return ""; }

 private:
  std::vector<std::uint64_t> radices_;
};

TEST(StateCodec, LogSizedSpacesAreOneWordInIndexOrder) {
  // The full-space check numbers the illegitimate region in index order
  // and reports the minimum key; the two orders agree because a space
  // that passes fitsLog packs into one word (Σ⌈log₂ radix⌉ ≤ 2·log₂
  // total < 64) with node 0, the least significant digit, lowest.
  // Radices 3 and 2^k + 1 waste the most bits per digit.
  const std::uint64_t kRadices[] = {1, 2, 3, 3, 3, 5, 9, 17, 33, 257, 65537};
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint64_t> radices;
    std::uint64_t total = 1;
    while (radices.size() < 2 || rng.below(8) != 0) {
      const std::uint64_t r =
          rng.below(4) == 0 ? 1 + static_cast<std::uint64_t>(rng.below(1000))
                            : kRadices[rng.below(11)];
      if (!fitsLog(total * r)) break;
      radices.push_back(r);
      total *= r;
    }
    if (radices.size() < 2) continue;
    RadixProtocol proto(radices);
    const StateCodec codec(proto);
    ASSERT_TRUE(codec.indexable());
    ASSERT_EQ(codec.totalStates(), total);
    ASSERT_EQ(codec.words(), 1) << "trial " << trial;
    // Consecutive keys increase strictly (and increment() steps between
    // them): every index of a small space; otherwise random indices plus
    // each carry into a higher digit.
    std::vector<std::uint64_t> probes;
    if (total <= 4096) {
      for (std::uint64_t i = 0; i + 1 < total; ++i) probes.push_back(i);
    } else {
      for (int k = 0; k < 500; ++k)
        probes.push_back(static_cast<std::uint64_t>(rng.below(1 << 30)) %
                         (total - 1));
      for (NodeId p = 1; p < codec.nodeCount(); ++p)
        if (codec.weight(p) > 1 && codec.weight(p) < total)
          probes.push_back(codec.weight(p) - 1);
    }
    for (const std::uint64_t i : probes) {
      std::uint64_t key = 0;
      std::uint64_t next = 0;
      codec.indexToKey(i, &key);
      codec.indexToKey(i + 1, &next);
      ASSERT_LT(key, next) << "trial " << trial << ", index " << i;
      codec.increment(&key);
      ASSERT_EQ(key, next) << "trial " << trial << ", index " << i;
    }
  }
}

TEST(StateStore, InternDeduplicatesAndKeepsMeta) {
  StateStore store(/*words=*/2, /*capacity=*/1024);
  const std::uint64_t keyA[2] = {42, 7};
  const std::uint64_t keyB[2] = {42, 8};
  auto never = [] { return false; };
  const auto a1 = store.intern(keyA, 1234, 0, never);
  EXPECT_TRUE(a1.inserted);
  const auto a2 = store.intern(keyA, 1234, 3, never);
  EXPECT_FALSE(a2.inserted);
  EXPECT_EQ(a2.id, a1.id);
  EXPECT_EQ(a2.depth, 0u);  // first-discovery depth sticks
  const auto b = store.intern(keyB, 1234, 0, [] { return true; });
  EXPECT_TRUE(b.inserted);
  EXPECT_NE(b.id, a1.id);
  EXPECT_TRUE(store.legit(b.id));
  EXPECT_FALSE(store.legit(a1.id));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(keyA, 1234), a1.id);
}

TEST(StateStore, CanonicalMinParentWinsRegardlessOfOrder) {
  StateStore store(1, 1024);
  auto no = [] { return false; };
  const std::uint64_t parentSmall[1] = {5};
  const std::uint64_t parentBig[1] = {9};
  const std::uint64_t child[1] = {1};
  const auto ps = store.intern(parentSmall, 50, 0, no);
  const auto pb = store.intern(parentBig, 90, 0, no);
  // Discover the child from the big parent first, then the small one.
  (void)store.intern(child, 10, 1, no, parentBig, pb.id, 3);
  (void)store.intern(child, 10, 1, no, parentSmall, ps.id, 7);
  const std::uint64_t id = store.find(child, 10);
  EXPECT_EQ(store.parentOf(id), ps.id);
  EXPECT_EQ(store.parentMoveOf(id), 7u);
  // Reversed arrival order yields the same parent.
  StateStore other(1, 1024);
  const auto ps2 = other.intern(parentSmall, 50, 0, no);
  const auto pb2 = other.intern(parentBig, 90, 0, no);
  (void)other.intern(child, 10, 1, no, parentSmall, ps2.id, 7);
  (void)other.intern(child, 10, 1, no, parentBig, pb2.id, 3);
  EXPECT_EQ(other.parentOf(other.find(child, 10)), ps2.id);
}

TEST(StateStore, HugeCapacitiesSizeWithoutWrapping) {
  // capacity * 4 wraps for capacity >= 2^62: a one-shard store sized
  // that way held 8192 states (4096 at 2^64 - 1).  The sizing saturates
  // instead, so such a store holds at least what a modest one does.
  auto no = [] { return false; };
  for (const std::uint64_t capacity :
       {std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    StateStore store(/*words=*/1, capacity, /*shardsLog2=*/0);
    for (std::uint64_t k = 0; k < 20'000; ++k) {
      const std::uint64_t key[1] = {k};
      ASSERT_TRUE(
          store.intern(key, k * 0x9E3779B97F4A7C15ULL, 0, no).inserted)
          << "capacity " << capacity << ", state " << k;
    }
    EXPECT_FALSE(store.overflowed());
    EXPECT_EQ(store.size(), 20'000u);
  }
}

TEST(FrontierSpill, SpillsAndDrainsAllIds) {
  FrontierSpill spill(/*memCapacity=*/8);
  std::vector<std::uint64_t> in;
  for (std::uint64_t i = 0; i < 100; ++i) in.push_back(i * 3);
  spill.append(in.data(), in.size());
  EXPECT_EQ(spill.size(), 100u);
  EXPECT_GE(spill.runsWritten(), 1u);
  std::multiset<std::uint64_t> drained;
  std::vector<std::uint64_t> chunk;
  while (spill.drainChunk(chunk, 7))
    drained.insert(chunk.begin(), chunk.end());
  EXPECT_EQ(drained.size(), 100u);
  EXPECT_EQ(drained, std::multiset<std::uint64_t>(in.begin(), in.end()));
}

ParallelChecker::Factory zeroFactory(int n, int domain) {
  return [n, domain] {
    return std::make_unique<ZeroProtocol>(Graph::path(n), domain);
  };
}

bool zeroLegit(Protocol& p) {
  return static_cast<ZeroProtocol&>(p).allZero();
}

TEST(ParallelChecker, AcceptsSelfStabilizingToy) {
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 27u);
  EXPECT_TRUE(res.trace.empty());
}

TEST(ParallelChecker, DetectsIllegitimateCycleWithTrace) {
  ParallelChecker pc(
      [] { return std::make_unique<OscillateProtocol>(Graph::path(2)); },
      [](Protocol& p) {
        return static_cast<OscillateProtocol&>(p).allZero();
      });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("cycle"), std::string::npos) << res.failure;
  EXPECT_FALSE(res.trace.empty());
}

TEST(ParallelChecker, DetectsDeadlock) {
  ParallelChecker pc(
      [] { return std::make_unique<StuckProtocol>(Graph::path(2)); },
      [](Protocol& p) { return static_cast<StuckProtocol&>(p).allZero(); });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("terminal"), std::string::npos) << res.failure;
}

TEST(ParallelChecker, DetectsClosureViolation) {
  ParallelChecker pc(zeroFactory(2, 2), [](Protocol& p) {
    auto& z = static_cast<ZeroProtocol&>(p);
    return z.value(0) == 1 || (z.value(0) == 0 && z.value(1) == 0);
  });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("closure"), std::string::npos) << res.failure;
}

TEST(ParallelChecker, RefusesOversizedSpace) {
  ParallelChecker pc(zeroFactory(3, 100), zeroLegit);
  Options opt;
  opt.maxStates = 1000;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("too large"), std::string::npos);
}

TEST(ParallelChecker, FullSpaceBeyondTheLogFailsBeforeAllocating) {
  // 256^4 = 2^32 configurations: within a 2^62 state budget, but their
  // store ids cannot fit the transition log's 32-bit fields.  The check
  // fails at once instead of seeding the space until memory runs out.
  ParallelChecker pc(zeroFactory(4, 256), zeroLegit);
  Options opt;
  opt.maxStates = std::uint64_t{1} << 62;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure, kLogWidthExceeded);
  EXPECT_EQ(res.statesExplored, 0u);
}

TEST(ParallelChecker, ReachableExploresOnlySeededRegion) {
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options opt;
  const Result res = pc.checkReachable({{2, 1, 0}}, opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_LT(res.statesExplored, 27u);
  EXPECT_GE(res.statesExplored, 4u);
}

TEST(ParallelChecker, HugeStateBudgetsBehaveLikeTheDefault) {
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options opt;
  const Result ref = pc.checkReachable({{2, 2, 2}}, opt);
  ASSERT_TRUE(ref.ok) << ref.failure;
  for (const std::uint64_t budget :
       {std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    opt.maxStates = budget;
    const Result r = pc.checkReachable({{2, 2, 2}}, opt);
    EXPECT_TRUE(r.ok) << r.failure;
    EXPECT_EQ(r.statesExplored, ref.statesExplored);
    EXPECT_EQ(r.transitions, ref.transitions);
  }
}

TEST(ParallelChecker, SpillTierPreservesResults) {
  // A full-space check names states by index and keeps no frontier, so
  // a 4-id RAM frontier changes nothing there and writes no run file.
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options plain;
  Options spilling;
  spilling.spillCapacity = 4;
  const Result a = pc.checkFullSpace(plain);
  const Result b = pc.checkFullSpace(spilling);
  EXPECT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.peakFrontier, b.peakFrontier);
  EXPECT_EQ(b.spillRuns, 0u);

  // A multi-level reachable exploration: a 3-id RAM frontier forces run
  // files, and the results stay the same.
  Options spillReach;
  spillReach.spillCapacity = 3;
  const Result c = pc.checkReachable({{2, 2, 2}}, plain);
  const Result d = pc.checkReachable({{2, 2, 2}}, spillReach);
  EXPECT_EQ(c.ok, d.ok);
  EXPECT_EQ(c.statesExplored, d.statesExplored);
  EXPECT_EQ(c.transitions, d.transitions);
  EXPECT_EQ(c.peakFrontier, d.peakFrontier);
  EXPECT_GE(d.spillRuns, 1u);
}

TEST(ParallelChecker, DftcVerdictAndFairnessModes) {
  auto factory = [] { return std::make_unique<Dftc>(Graph::path(2)); };
  auto legit = [](Protocol& p) {
    return static_cast<Dftc&>(p).isLegitimate();
  };
  Options opt;
  opt.fairness = Fairness::kWeaklyFair;
  opt.threads = 2;
  ParallelChecker pc(factory, legit);
  const Result res = pc.checkFullSpace(opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 32u);  // root(2·2) × leaf(2·2·2·1)
}

}  // namespace
}  // namespace ssno::mc
