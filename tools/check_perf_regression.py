#!/usr/bin/env python3
"""Perf and certification gate: compare a fresh BENCH_*.json run against
its committed baseline through one declarative rule table, GATES.

Each rule names a baseline file, a row prefix, a field and a check; it
applies to every baseline row of that file whose scenario starts with
the prefix.  Fields are metric means (``row["metrics"][f]["mean"]``);
``failed_trials`` is read from the row itself.  The checks:

  * ``exact``     — equal to the constant given, else to the baseline
    (every summary statistic the baseline records: min, max, mean);
  * ``at_most``   — at most the baseline;
  * ``not_below`` — at least the constant given, else the baseline;
  * ``ratio``     — fresh / baseline at least R (``--min-ratio``,
    default 0.5: a >2x slowdown fails);
  * ``ceiling``   — at most the constant (``--max-obs-overhead`` for
    the telemetry overhead, default 2.0 %).

Two rules are conditional:

  * the model-check thread-scaling ``speedup`` depends on the runner's
    core count, so it is gated only when the baseline and the fresh row
    both record more than one core (``cores``);
  * the resilience ``search_gain`` floor of 2 applies only on rows whose
    baseline reached 2 (a collapse toward 1x means the worst-case search
    degenerated into a random walk).

The families, all hardware-independent except the rates and the
overhead:

  * ``scheduler/...`` (BENCH_scheduler.json): the production pipeline's
    exact counts per seed — moves, steps and rounds equal, guard
    evaluations at most the baseline — and its rates at half the
    baseline or better; synchronous rows do the same for their
    LexDfsTree run (``lex_`` fields).  An O(n)-per-step reintroduction
    multiplies the guard evaluations (a rescan) or collapses the rate
    by orders of magnitude (any per-step pass over the enabled set at
    ring n = 1e5);
  * ``model-check...``: identical 1-thread and mc-threads results
    (``verdicts_agree``), and the conditional speedup;
  * ``serve/...`` (BENCH_serve.json): correctness flags exactly 1 and a
    cache hit in the smoke load;
  * ``chaos/...`` (BENCH_chaos.json): every recovery invariant exactly
    1, no unclean exit, and no fault site lost from the sweep;
  * ``resilience/...`` (BENCH_resilience.json): rerun and replay
    identity, convergence under the adversary, and the gain floor;
  * ``obs/...`` (BENCH_obs.json): always-on telemetry overhead under
    the ceiling;
  * the paper's complexity claims (BENCH_claims.json, ``exp_cli
    claims``): every preset row's counts exact per seed, and on each
    ``fit/<preset>/<series>`` least-squares row the claim's shape
    through one one-sided rule per field — an ``r2`` floor of 0.95 on
    the series that grow linearly, a ``slope`` ceiling as the O(.)
    constant (4 DFTNO moves per node, 1 STNO round per tree level,
    1.1 and 2.1 bits per Δ·log2 N), and an ``abs_slope`` ceiling of
    0.01 rounds per node on the STNO star control, which must stay
    flat in n.  DFTNO's path family is flat too (a handful of moves at
    every n), so it has no ``r2`` floor.

Every fresh row must report no failed trial, and every baseline row
must appear in the fresh run.  A malformed BENCH file — a row without
"scenario"/"metrics" — or a baseline that lacks a gated field the fresh
run records fails with a message naming the file and field; the fix for
a stale baseline is to re-record it.  Timing fields are printed for the
trajectory only when no rule names them.

Usage: check_perf_regression.py BASELINE.json FRESH.json
           [--min-ratio R] [--max-obs-overhead PCT]
       check_perf_regression.py --selftest
"""
import argparse
import copy
import json
import os
import sys
import tempfile

EXACT, AT_MOST, NOT_BELOW, RATIO, CEILING = (
    "exact", "at_most", "not_below", "ratio", "ceiling")
MIN_RATIO = "--min-ratio"          # tolerance taken from the option
MAX_OBS = "--max-obs-overhead"     # tolerance taken from the option
MULTI_CORE = "both runs saw more than one core"
BASELINE_REACHED = "the baseline reached the floor"

# file, row prefix, field, check, tolerance, condition
GATES = [
    ("*", "", "failed_trials", EXACT, 0, None),
]
for prefix, runs in (("scheduler/", ("",)),
                     ("scheduler/synchronous/", ("lex_",))):
    for run in runs:
        GATES += [
            ("BENCH_scheduler.json", prefix, run + "moves", EXACT, None, None),
            ("BENCH_scheduler.json", prefix, run + "steps", EXACT, None, None),
            ("BENCH_scheduler.json", prefix, run + "rounds", EXACT, None,
             None),
            ("BENCH_scheduler.json", prefix, run + "guard_evals", AT_MOST,
             None, None),
            ("BENCH_scheduler.json", prefix, run + "moves_per_sec", RATIO,
             MIN_RATIO, None),
        ]
GATES += [
    ("BENCH_scheduler.json", "model-check", "verdicts_agree", EXACT, 1, None),
    ("BENCH_scheduler.json", "model-check", "speedup", RATIO, MIN_RATIO,
     MULTI_CORE),
    ("BENCH_serve.json", "serve/", "cache_hits", NOT_BELOW, 1, None),
    ("BENCH_serve.json", "serve/", "byte_identity", EXACT, 1, None),
    ("BENCH_serve.json", "serve/", "resume_identity", EXACT, 1, None),
    ("BENCH_serve.json", "serve/", "metrics_ok", EXACT, 1, None),
    ("BENCH_serve.json", "serve/", "concurrent_ok", EXACT, 1, None),
    ("BENCH_chaos.json", "chaos/", "sites_swept", NOT_BELOW, None, None),
    ("BENCH_chaos.json", "chaos/", "unclean_exits", EXACT, 0, None),
    ("BENCH_chaos.json", "chaos/", "cache_identity", EXACT, 1, None),
    ("BENCH_chaos.json", "chaos/", "resume_identity", EXACT, 1, None),
    ("BENCH_chaos.json", "chaos/", "spill_ok", EXACT, 1, None),
    ("BENCH_chaos.json", "chaos/", "enospc_resume_identity", EXACT, 1, None),
    ("BENCH_chaos.json", "chaos/", "degraded_ok", EXACT, 1, None),
    ("BENCH_resilience.json", "resilience/", "rerun_identity", EXACT, 1,
     None),
    ("BENCH_resilience.json", "resilience/", "replay_identity", EXACT, 1,
     None),
    ("BENCH_resilience.json", "resilience/", "search_converged", EXACT, 1,
     None),
    ("BENCH_resilience.json", "resilience/", "search_gain", NOT_BELOW, 2.0,
     BASELINE_REACHED),
    ("BENCH_obs.json", "obs/", "obs_overhead_pct", CEILING, MAX_OBS, None),
]
for prefix, fields in (
        ("dftno/", ("substrate_moves", "overlay_moves", "overlay_rounds")),
        ("stno-fixed-tree/", ("overlay_moves", "overlay_rounds")),
        ("space/", ("max_degree", "dftno_orientation_bits",
                    "dftno_substrate_bits", "stno_orientation_bits",
                    "stno_substrate_bits"))):
    GATES += [("BENCH_claims.json", prefix, f, EXACT, None, None)
              for f in fields]
GATES += [("BENCH_claims.json", "fit/dftno-scaling/" + family, "r2",
           NOT_BELOW, 0.95, None)
          for family in ("ring", "kary", "caterpillar", "complete")]
GATES += [
    ("BENCH_claims.json", "fit/dftno-scaling/", "slope", CEILING, 4.0, None),
    ("BENCH_claims.json", "fit/stno-height/", "r2", NOT_BELOW, 0.95, None),
    ("BENCH_claims.json", "fit/stno-height/", "slope", CEILING, 1.0, None),
    ("BENCH_claims.json", "fit/stno-star-control/", "abs_slope", CEILING,
     0.01, None),
    ("BENCH_claims.json", "fit/space/", "r2", NOT_BELOW, 0.95, None),
    ("BENCH_claims.json", "fit/space/dftno", "slope", CEILING, 1.1, None),
    ("BENCH_claims.json", "fit/space/stno", "slope", CEILING, 2.1, None),
]

STATS = ("min", "max", "mean")


def by_scenario(path):
    """{scenario name: row}, validating the shape every rule relies on —
    a malformed file must die with the path and the problem, not a
    KeyError traceback deep inside a check.  A name that occurs twice
    is an error: keeping either row would gate only that one."""
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise SystemExit(f"{path}: expected a JSON array of scenario rows")
    out = {}
    index = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "scenario" not in row:
            raise SystemExit(f"{path}: row {i} has no \"scenario\" field")
        name = row["scenario"]
        if not isinstance(row.get("metrics"), dict):
            raise SystemExit(
                f"{path}: row \"{name}\" has no \"metrics\" object")
        if name in index:
            raise SystemExit(f"{path}: scenario \"{name}\" occurs twice, "
                             f"in rows {index[name]} and {i}")
        index[name] = i
        out[name] = row
    return out


def stats(row, field):
    """{statistic: value} of a field, or None when the row lacks it."""
    if field in row["metrics"]:
        summary = row["metrics"][field]
        return {k: summary[k] for k in STATS if k in summary}
    if field in row:
        return {"mean": row[field]}
    return None


def fmt(v):
    return "missing" if v is None else format(v, ".6g")


def check(gate, base_row, fresh_row, args):
    """One rule on one row: (applies, failure message or None, note)."""
    _, _, field, rule, tolerance, condition = gate
    if tolerance == MIN_RATIO:
        tolerance = args.min_ratio
    elif tolerance == MAX_OBS:
        tolerance = args.max_obs_overhead
    base, new = stats(base_row, field), stats(fresh_row, field)
    if condition == MULTI_CORE:
        cores = (base_row.get("cores", 0), fresh_row.get("cores", 0))
        if not (cores[0] > 1 and cores[1] > 1):
            return False, None, f"cores={cores[0]}->{cores[1]}, not gated"
    if condition == BASELINE_REACHED:
        if base is None or base["mean"] < tolerance:
            return False, None, (f"baseline {fmt(base and base['mean'])} "
                                 f"< {tolerance}, not gated")
    if new is None:
        return True, f"{field} missing from fresh run", ""
    needs_base = tolerance is None or rule in (AT_MOST, RATIO)
    if needs_base and base is None:
        return True, (f"committed baseline lacks \"{field}\", which the "
                      "fresh run records — re-record the baseline"), ""
    if rule == EXACT:
        want = base if tolerance is None else {"mean": tolerance}
        for k, v in want.items():
            if new.get(k) != v:
                return True, (f"{field} {k} {fmt(new.get(k))} != "
                              f"{fmt(v)}"), ""
        return True, None, f"== {fmt(want['mean'])}"
    value = new["mean"]
    if rule == AT_MOST:
        ok = value <= base["mean"]
        return True, None if ok else (
            f"{field} {fmt(value)} above the baseline "
            f"{fmt(base['mean'])}"), f"<= {fmt(base['mean'])}"
    if rule == NOT_BELOW:
        floor = base["mean"] if tolerance is None else tolerance
        ok = value >= floor
        return True, None if ok else (
            f"{field} {fmt(value)} below {fmt(floor)}"), f">= {fmt(floor)}"
    if rule == RATIO:
        ratio = value / base["mean"] if base["mean"] > 0 else float("inf")
        ok = ratio >= tolerance
        return True, None if ok else (
            f"{field} regressed to x{ratio:.2f} of the baseline "
            f"{fmt(base['mean'])} (floor x{tolerance})"), (
            f"x{ratio:.2f} of {fmt(base['mean'])}, floor x{tolerance}")
    if rule == CEILING:
        ok = value <= tolerance
        return True, None if ok else (
            f"{field} {fmt(value)} exceeds the {tolerance} ceiling"), (
            f"<= {tolerance}")
    raise ValueError(f"unknown rule {rule}")


def gate(baseline_path, fresh_path, args):
    baseline = by_scenario(baseline_path)
    fresh = by_scenario(fresh_path)
    file = os.path.basename(baseline_path)
    if file not in {g[0] for g in GATES}:
        raise SystemExit(f"{baseline_path}: no rules for \"{file}\"; "
                         "pass the baseline under its committed name")
    failures = []
    for name, base_row in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        fresh_row = fresh[name]
        gated = set()
        for g in GATES:
            if g[0] not in ("*", file) or not name.startswith(g[1]):
                continue
            applies, failure, note = check(g, base_row, fresh_row, args)
            gated.add(g[2])
            status = "FAILED" if failure else ("ok" if applies else "skip")
            value = stats(fresh_row, g[2])
            print(f"{name}: {g[2]} {fmt(value and value['mean'])} "
                  f"[{g[3]}] {note} {status}")
            if failure:
                failures.append(f"{name}: {failure}")
        for field in sorted(set(fresh_row["metrics"]) - gated):
            print(f"{name}: {field} "
                  f"{fmt(fresh_row['metrics'][field].get('mean'))} "
                  "(trajectory only)")
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def selftest(args):
    """Feeds each rule a baseline/fresh pair that breaks only that rule
    (exit 1 expected), its condition switched off (exit 0), a stale
    baseline, a malformed file, a duplicate scenario name in either file
    and a baseline under a name no rule names (exit 1), and one clean
    pair per file (exit 0)."""
    def value_for(g):
        _, _, field, rule, tolerance, _ = g
        if rule == EXACT and tolerance is not None:
            return tolerance
        if rule == NOT_BELOW and tolerance is not None:
            return tolerance + 1
        if rule == CEILING:
            return 0.0
        return 100.0

    def broken(g, v):
        _, _, _, rule, tolerance, _ = g
        if rule == EXACT:
            return v + 1
        if rule == AT_MOST:
            return v * 2 + 1
        if rule == NOT_BELOW:
            return (tolerance if tolerance is not None else v) - 1
        if rule == RATIO:
            return v * args.min_ratio * 0.9
        return (args.max_obs_overhead if tolerance == MAX_OBS
                else tolerance) + 1

    files = sorted({g[0] for g in GATES if g[0] != "*"})
    clean = {}
    for file in files:
        rows = {}
        for g in GATES:
            if g[0] not in ("*", file):
                continue
            prefixes = [g[1]] if g[0] == file else [
                h[1] for h in GATES if h[0] == file]
            for prefix in prefixes:
                row = rows.setdefault(prefix + "x", {
                    "scenario": prefix + "x", "cores": 4, "failed_trials": 0,
                    "metrics": {}})
                for h in GATES:
                    if h[0] == file and row["scenario"].startswith(h[1]):
                        row["metrics"][h[2]] = {"mean": value_for(h)}
        clean[file] = list(rows.values())

    def run(file, base_rows, fresh_rows, raw_fresh=None):
        base_path = os.path.join(tmp, file)
        fresh_path = os.path.join(tmp, "fresh.json")
        with open(base_path, "w") as f:
            json.dump(base_rows, f)
        with open(fresh_path, "w") as f:
            if raw_fresh is None:
                json.dump(fresh_rows, f)
            else:
                f.write(raw_fresh)
        saved = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = quiet
        try:
            return gate(base_path, fresh_path, args)
        except SystemExit as e:
            return 1 if isinstance(e.code, str) else e.code
        finally:
            sys.stdout, sys.stderr = saved

    cases = []
    for file in files:
        cases.append((f"{file}: clean pair", 0, file, clean[file],
                      clean[file], None))
    for g in GATES:
        for file in (files if g[0] == "*" else [g[0]]):
            for row_index, row in enumerate(clean[file]):
                if not row["scenario"].startswith(g[1]):
                    continue
                fresh = copy.deepcopy(clean[file])
                target = fresh[row_index]
                if g[2] == "failed_trials":
                    target["failed_trials"] = 1
                else:
                    v = target["metrics"][g[2]]["mean"]
                    target["metrics"][g[2]]["mean"] = broken(g, v)
                label = f"{file} {row['scenario']}: {g[2]} [{g[3]}] broken"
                cases.append((label, 1, file, clean[file], fresh, None))
                if g[5] is not None:
                    base = copy.deepcopy(clean[file])
                    if g[5] == MULTI_CORE:
                        base[row_index]["cores"] = 1
                    else:
                        base[row_index]["metrics"][g[2]]["mean"] = 1.5
                    cases.append((f"{label}, condition off", 0, file, base,
                                  fresh, None))
                break  # one row per rule and file is enough
    stale = copy.deepcopy(clean["BENCH_scheduler.json"])
    del stale[0]["metrics"]["moves"]
    cases.append(("stale baseline", 1, "BENCH_scheduler.json", stale,
                  clean["BENCH_scheduler.json"], None))
    cases.append(("malformed fresh file", 1, "BENCH_scheduler.json",
                  clean["BENCH_scheduler.json"], None,
                  '[{"scenario": "scheduler/x"}]'))
    twice = clean["BENCH_scheduler.json"] + clean["BENCH_scheduler.json"][:1]
    cases.append(("duplicate scenario in the baseline", 1,
                  "BENCH_scheduler.json", twice,
                  clean["BENCH_scheduler.json"], None))
    cases.append(("duplicate scenario in the fresh file", 1,
                  "BENCH_scheduler.json", clean["BENCH_scheduler.json"],
                  twice, None))
    cases.append(("baseline under an unknown name", 1, "baseline.json",
                  clean["BENCH_scheduler.json"],
                  clean["BENCH_scheduler.json"], None))

    bad = 0
    with tempfile.TemporaryDirectory(prefix="perf-gate-selftest-") as tmp, \
            open(os.devnull, "w") as quiet:
        for label, want, file, base_rows, fresh_rows, raw in cases:
            got = run(file, base_rows, fresh_rows, raw)
            ok = got == want
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} exit {got} (want {want}): "
                  f"{label}")
    print(f"\nselftest: {len(cases) - bad}/{len(cases)} cases as expected")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--min-ratio", type=float, default=0.5)
    ap.add_argument("--max-obs-overhead", type=float, default=2.0,
                    help="ceiling for obs_overhead_pct on obs/ rows")
    ap.add_argument("--selftest", action="store_true",
                    help="check every rule against synthetic pairs")
    args = ap.parse_args()
    if args.selftest:
        return selftest(args)
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH are required without --selftest")
    return gate(args.baseline, args.fresh, args)


if __name__ == "__main__":
    sys.exit(main())
