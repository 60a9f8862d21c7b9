// Regenerates the paper's three figures as execution traces:
//   Figure 2.2.1 — chordal sense of direction on a 5-node example
//   Figure 3.1.1 — DFTNO node labeling, step by step (i)–(x)
//   Figure 4.1.1 — STNO weights bottom-up, then names top-down (i)–(vi)
//
// Run:  ./figure_traces
#include <cstdio>
#include <map>
#include <string>

#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/scheduler.hpp"
#include "orientation/chordal.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"

namespace {

using namespace ssno;

// The paper's node letters for Figure 3.1.1: r=0, a=1, b=2, c=3, d=4.
const std::map<NodeId, std::string> kLetters{
    {0, "r"}, {1, "a"}, {2, "b"}, {3, "c"}, {4, "d"}};

void figure221() {
  std::printf("==== Figure 2.2.1: chordal sense of direction ====\n");
  std::printf("cycle 0-1-2-3-4 with chord 0-2; every link labeled by the\n");
  std::printf("cyclic distance of its endpoint names (inverse mod 5 on "
              "the far side):\n\n");
  const Graph g = Graph::figure221();
  const Orientation o = inducedChordalOrientation(g, {0, 1, 2, 3, 4}, 5);
  std::printf("%s\n", renderOrientation(o).c_str());
}

void figure311() {
  std::printf("==== Figure 3.1.1: DFTNO node labeling ====\n");
  std::printf("graph: r-b, r-a, b-d, d-c (root explores b before a)\n\n");
  Dftno dftno(Graph::figure311());
  dftno.resetClean();

  int step = 1;
  std::printf("(%-5s) %s\n", "i", "all processors unvisited");
  // Drive the deterministic legitimate execution for one full round,
  // narrating Start / Forward / Backtrack like the figure does.
  int starts = 0;
  while (starts < 2) {
    const auto moves = dftno.enabledMoves();
    const Move m = moves.front();
    const std::string who = kLetters.at(m.node);
    if (m.action == Dftc::kStart) {
      ++starts;
      if (starts == 2) break;
      std::printf("(%-5s) root generates the token; names itself 0, "
                  "max=0\n", "ii");
      step = 3;
    }
    dftno.execute(m.node, m.action);
    if (m.action == Dftc::kForward) {
      std::printf("(%-5s) token -> %s: names itself %d (max_parent+1), "
                  "max=%d\n",
                  std::to_string(step).c_str(), who.c_str(),
                  dftno.name(m.node), dftno.maxSeen(m.node));
      ++step;
    } else if (m.action == Dftc::kAdvance) {
      std::printf("(%-5s) token backtracks to %s carrying max=%d\n",
                  std::to_string(step).c_str(), who.c_str(),
                  dftno.maxSeen(m.node));
      ++step;
    }
  }
  std::printf("\nfinal names (figure step x):");
  for (const auto& [node, letter] : kLetters)
    std::printf("  %s=%d", letter.c_str(), dftno.name(node));
  std::printf("\n\n");
}

void figure411() {
  std::printf("==== Figure 4.1.1: STNO weights and naming ====\n");
  std::printf("tree: root 0 with children {1,2}; node 1 with children "
              "{3,4}\n\n");
  const Graph g(5, {{0, 1}, {0, 2}, {1, 3}, {1, 4}});
  Stno stno(g, {kNoNode, 0, 0, 1, 1});
  // Start from a state with all weights/names wrong so the whole
  // bottom-up + top-down cascade is visible.
  Rng rng(1);
  stno.randomize(rng);

  auto printWeights = [&stno] {
    std::printf("   weights:");
    for (NodeId p = 0; p < 5; ++p) std::printf(" w%d=%d", p, stno.weight(p));
    std::printf("\n");
  };
  auto printNames = [&stno] {
    std::printf("   names:  ");
    for (NodeId p = 0; p < 5; ++p) std::printf(" eta%d=%d", p, stno.name(p));
    std::printf("\n");
  };
  // The protocol converges under ANY schedule; for the figure we drive
  // the one the paper draws: the weight wave bottom-up (steps i-iii),
  // then the naming wave top-down (iv-vi), then edge labeling.
  auto drainAction = [&stno](int action) {
    std::vector<NodeId> fired;
    bool progress = true;
    while (progress) {
      progress = false;
      for (NodeId p = 0; p < stno.graph().nodeCount(); ++p) {
        if (stno.enabled(p, action)) {
          stno.execute(p, action);
          fired.push_back(p);
          progress = true;
        }
      }
    }
    return fired;
  };
  // One synchronous wave of `action`: all enabled processors act against
  // the pre-wave configuration (the figure's lock-step levels).
  auto syncWave = [&stno](int action) {
    const std::vector<int> pre = stno.rawConfiguration();
    std::vector<std::pair<NodeId, std::vector<int>>> post;
    for (NodeId p = 0; p < stno.graph().nodeCount(); ++p) {
      if (!stno.enabled(p, action)) continue;
      stno.setRawConfiguration(pre);
      stno.execute(p, action);
      post.emplace_back(p, stno.rawNode(p));
    }
    stno.setRawConfiguration(pre);
    for (const auto& [p, raw] : post) stno.setRawNode(p, raw);
    return !post.empty();
  };
  int step = 0;
  const char* romans[] = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii"};
  while (syncWave(Stno::kWeight)) {
    std::printf("(%s) weight wave\n", romans[std::min(step++, 7)]);
    printWeights();
  }
  while (syncWave(Stno::kNodeLabel)) {
    std::printf("(%s) naming wave (top-down interval distribution)\n",
                romans[std::min(step++, 7)]);
    printNames();
  }
  (void)drainAction(Stno::kEdgeLabel);
  std::printf("\nfinal (figure step vi): ");
  printNames();
  std::printf("   edge labels:\n%s",
              renderOrientation(stno.orientation()).c_str());
}

}  // namespace

int main() {
  figure221();
  figure311();
  figure411();
  return 0;
}
