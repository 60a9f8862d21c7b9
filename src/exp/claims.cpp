#include "exp/claims.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "core/graph_algo.hpp"
#include "exp/scenario.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno::exp {
namespace {

constexpr const char* kClaimPresets[] = {"dftno-scaling", "stno-height",
                                         "stno-star-control", "space"};

struct Series {
  std::string name;
  const ScenarioResult* first = nullptr;
  int failedPoints = 0;
  std::vector<double> x, y;
};

/// One preset's fit rows; `rows` are its results in preset order.
std::vector<ScenarioResult> claimFits(
    const std::string& preset, const std::vector<const ScenarioResult*>& rows) {
  std::vector<Series> series;  // in order of first appearance
  const auto add = [&series](const std::string& name, const ScenarioResult& r,
                             double x, double y) {
    auto it = std::find_if(series.begin(), series.end(),
                           [&name](const Series& s) { return s.name == name; });
    if (it == series.end()) {
      it = series.emplace(it);
      it->name = name;
      it->first = &r;
    }
    it->failedPoints += r.failedTrials > 0;
    it->x.push_back(x);
    it->y.push_back(y);
  };
  for (const ScenarioResult* r : rows) {
    if (preset == "dftno-scaling") {
      const std::string topology = r->scenario.topology.name();
      add(topology.substr(0, topology.find(':')), *r, r->nodeCount,
          r->metric("overlay_moves").mean);
    } else if (preset == "stno-height") {
      const Graph g = r->scenario.topology.build();
      add("stno", *r, treeHeight(g, portOrderDfsTree(g)),
          r->metric("overlay_rounds").mean);
    } else if (preset == "stno-star-control") {
      add("star", *r, r->nodeCount, r->metric("overlay_rounds").mean);
    } else {  // space
      const double x = r->metric("max_degree").mean *
                       std::log2(static_cast<double>(r->nodeCount));
      add("dftno", *r, x, r->metric("dftno_orientation_bits").mean);
      add("stno", *r, x, r->metric("stno_orientation_bits").mean);
    }
  }
  std::vector<ScenarioResult> out;
  for (const Series& s : series) {
    const LinearFit fit = fitLinear(s.x, s.y);
    const auto one = [](double v) { return summarize({v}); };
    ScenarioResult row;
    row.scenario = s.first->scenario;
    row.scenario.name = "fit/" + preset + "/" + s.name;
    row.trials = static_cast<int>(s.x.size());
    row.failedTrials = s.failedPoints;
    row.cores = s.first->cores;
    row.metrics = {{"slope", one(fit.slope)},
                   {"abs_slope", one(std::abs(fit.slope))},
                   {"intercept", one(fit.intercept)},
                   {"r2", one(fit.r2)},
                   {"points", one(static_cast<double>(s.x.size()))}};
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

std::vector<ScenarioResult> runClaims(const ExperimentRunner& runner) {
  // stno-height and stno-star-control share star:40; run it once.
  std::vector<Scenario> scenarios;
  std::set<std::string> seen;
  for (const char* preset : kClaimPresets)
    for (Scenario& s : makePreset(preset))
      if (seen.insert(s.name).second) scenarios.push_back(std::move(s));
  std::vector<ScenarioResult> out = runner.runAll(scenarios);

  std::map<std::string, std::size_t> rowOf;
  for (std::size_t i = 0; i < out.size(); ++i)
    rowOf[out[i].scenario.name] = i;
  std::vector<ScenarioResult> fits;
  for (const char* preset : kClaimPresets) {
    std::vector<const ScenarioResult*> rows;
    for (const Scenario& s : makePreset(preset))
      rows.push_back(&out[rowOf.at(s.name)]);
    for (ScenarioResult& fit : claimFits(preset, rows))
      fits.push_back(std::move(fit));
  }
  out.insert(out.end(), std::make_move_iterator(fits.begin()),
             std::make_move_iterator(fits.end()));
  return out;
}

}  // namespace ssno::exp
