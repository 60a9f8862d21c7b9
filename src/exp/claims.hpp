// The paper's complexity claims as least-squares fits over preset rows.
//
// Four presets carry the claims, and each fitted series becomes one row
// named "fit/<preset>/<series>":
//  * dftno-scaling — DFTNO overlay moves after L_TC against n, one
//    series per topology family (§3.2.3: O(n) moves);
//  * stno-height — STNO overlay rounds on the fixed port-order DFS tree
//    against its height h (Lemma 4.2.1: O(h) rounds), series "stno";
//  * stno-star-control — the same rounds on stars (h = 1) against n,
//    series "star", which must stay flat;
//  * space — DFTNO and STNO orientation bits per processor against
//    Δ·log₂N (O(Δ·log N) bits), series "dftno" and "stno".
//
// A fit row's metrics are single samples: slope, abs_slope, intercept,
// r2 and points.  It keeps its series' first scenario (protocol, daemon,
// seed) under the fit's name, counts the series' points as trials and
// the points with a failed trial as failed.  The perf gate bands these
// rows in BENCH_claims.json (tools/check_perf_regression.py).
#ifndef SSNO_EXP_CLAIMS_HPP
#define SSNO_EXP_CLAIMS_HPP

#include <vector>

#include "exp/runner.hpp"

namespace ssno::exp {

/// Runs the four claim presets on `runner` (each scenario once, in
/// preset order) and returns their rows followed by every fit row.
[[nodiscard]] std::vector<ScenarioResult> runClaims(
    const ExperimentRunner& runner);

}  // namespace ssno::exp

#endif  // SSNO_EXP_CLAIMS_HPP
