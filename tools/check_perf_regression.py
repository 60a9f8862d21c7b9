#!/usr/bin/env python3
"""Perf smoke check: compare a fresh scheduler-preset JSON against the
committed baseline (BENCH_scheduler.json).

Scheduler rows carry up to two gated ratios, both measured within the
same trial on the same machine and therefore hardware-independent:

  * ``speedup``          — incremental-cache (bitmask) steps/sec over a
    forced naive full-rescan (absent on large-n rows, where a naive
    trial would take minutes);
  * ``bitmask_speedup``  — bitmask EnabledView selection over the
    legacy materialized-move-vector pipeline (same incremental cache);
  * ``sync_speedup``     — (synchronous rows) the columnar
    simultaneous-step engine over the legacy per-node-vector
    snapshot/restore pipeline on dense LexDfsTree stepping, whose
    padded raw vectors are Theta(n) ints per actor — the engine's
    headline ratio;
  * ``dftno_sync_speedup`` — the same engine ratio on DFTNO's thin
    8-int state.  The "before" side runs the full pre-batch-kernel
    stack (scalar virtual guard evaluation + per-node-vector
    simultaneous pipeline), so this now measures the columnar
    evaluateGuards kernels and the batched doExecuteSimultaneous path
    together;
  * ``guard_batch_speedup`` — (guard-kernel rows) batch evaluateGuards
    kernels over the scalar per-node virtual enabled() loop on
    identical state, a paired within-trial median ratio;
  * ``guard_evals_per_sec`` — (guard-kernel rows) absolute batch-kernel
    guard evaluations per second, gated as a ratio to the committed
    baseline like the rest.

The gate set is DECLARATIVE per row: a row is gated on exactly the
RATIO_GATES fields its committed baseline row records (plus a loud
failure when the fresh run records a gate the baseline lacks — the fix
is to re-record the baseline), so kernel rows carry only their own
fields and never need dummy speedup entries.  An accidental
O(n)-per-step reintroduction on the simulator hot path collapses the
ratios toward 1x regardless of runner speed; each gated field fails
(exit 1) if the fresh value drops below --min-ratio (default 0.5, i.e.
a >2x regression) of the committed value.  Ungated absolutes are
printed for the trajectory.

``model-check/...`` rows also carry a ``speedup``: the model checker's
states/sec at mc-threads workers over its own states/sec at 1 thread,
a thread-scaling ratio that depends on the runner's CORE COUNT.  Rows
record the detected core count (``cores``); the model-check speedup is
gated ONLY when both the baseline and the fresh run saw more than one
core — a cores=1 measurement (speedup ~1x by construction) is printed
for the trajectory and skipped, so a single-core baseline cannot mask a
real thread-scaling regression once a multi-core runner re-records it.
What is always gated for model-check rows is ``verdicts_agree`` (the
1-thread and mc-threads results must be identical: verdict, failure
text, counterexample trace and exploration counts) and the failed-trial
count.

``serve/...`` rows (BENCH_serve.json, from tools/serve_smoke.py) are
gated on CORRECTNESS fields only — ``byte_identity``,
``resume_identity``, ``metrics_ok`` and ``concurrent_ok`` (N parallel
clients with interleaved cancels see only well-formed responses and
deduplicated computation) must be exactly 1 and ``cache_hits`` nonzero
in the fresh run; timing fields like ``smoke_seconds`` are
trajectory-only, so a slow runner can never fail the serve smoke.

``chaos/...`` rows (BENCH_chaos.json, from tools/chaos_smoke.py) are
the crash-point certification: every correctness flag
(``cache_identity``, ``resume_identity``, ``spill_ok``,
``enospc_resume_identity``, ``degraded_ok``) must be exactly 1,
``unclean_exits`` exactly 0, and ``sites_swept`` must not shrink below
the committed baseline (a smaller sweep means fault sites silently
lost coverage).  ``chaos_seconds`` is trajectory-only.

``resilience/...`` rows (BENCH_resilience.json, the adversarial
campaign preset) are likewise correctness-gated, hardware-independent:
``rerun_identity`` and ``replay_identity`` must be exactly 1 (same seed
reproduces the same schedule bit-for-bit; a recorded schedule replays
to the identical outcome), ``search_converged`` must be 1 (the
adversary may delay convergence, never defeat it within budget), and
``search_gain`` — searching-daemon moves over the random-daemon
average on the same instance — must stay at or above the ADVERSARY
FLOOR of 2x on rows where the committed baseline reached 2x (a
collapse toward 1x means the worst-case search degenerated into a
random walk).  Raw move counts ride along for the trajectory.

``obs/...`` rows (BENCH_obs.json, the telemetry-overhead preset) gate
the always-on telemetry budget: ``obs_overhead_pct`` — how much faster
the same ring:1e5 hot loop runs with telemetry disabled, in percent —
must stay below the OVERHEAD CEILING (--max-obs-overhead, default 2.0).
The on/off absolute rates ride along for the trajectory.

A malformed BENCH file — a row without "scenario"/"metrics", or a
committed baseline that lacks a gated field the fresh run records —
fails with a clear message naming the file and field instead of a
KeyError traceback; the fix for a stale baseline is to re-record it.

Usage: check_perf_regression.py BASELINE.json FRESH.json [--min-ratio R]
"""
import argparse
import json
import sys

# Per-row info metric: the first of these the fresh row records rides
# along in the gate printout (trajectory only, never gated).
INFO_FIELDS = ("incremental_moves_per_sec", "scalar_guard_evals_per_sec")
RATIO_GATES = ("speedup", "bitmask_speedup", "sync_speedup",
               "dftno_sync_speedup", "guard_batch_speedup",
               "guard_evals_per_sec")


def by_scenario(path):
    """{scenario name: row}, validating the shape every branch below
    relies on — a malformed file must die with the path and the problem,
    not a KeyError traceback deep inside a gate."""
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise SystemExit(f"{path}: expected a JSON array of scenario rows")
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "scenario" not in row:
            raise SystemExit(f"{path}: row {i} has no \"scenario\" field")
        if not isinstance(row.get("metrics"), dict):
            raise SystemExit(
                f"{path}: row \"{row['scenario']}\" has no \"metrics\" object")
        out[row["scenario"]] = row
    return out


def mean(row, metric):
    m = row["metrics"].get(metric)
    return None if m is None else m.get("mean")


def fmt(v, spec=".0f"):
    """Format a possibly-missing number without a TypeError."""
    return "missing" if v is None else format(v, spec)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--min-ratio", type=float, default=0.5)
    ap.add_argument("--max-obs-overhead", type=float, default=2.0,
                    help="ceiling for obs_overhead_pct on obs/ rows")
    args = ap.parse_args()

    baseline = by_scenario(args.baseline)
    fresh = by_scenario(args.fresh)
    failures = []
    for name, base_row in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        fresh_row = fresh[name]
        if fresh_row.get("failed_trials", 0):
            failures.append(f"{name}: {fresh_row['failed_trials']} failed trials")
        if name.startswith("serve/"):
            hits = mean(fresh_row, "cache_hits") or 0
            byte_id = mean(fresh_row, "byte_identity")
            resume_id = mean(fresh_row, "resume_identity")
            metrics_ok = mean(fresh_row, "metrics_ok")
            concurrent_ok = mean(fresh_row, "concurrent_ok")
            print(f"{name}: cache_hits {hits:.0f}  "
                  f"byte_identity {byte_id}  resume_identity {resume_id}  "
                  f"metrics_ok {metrics_ok}  concurrent_ok {concurrent_ok}  "
                  f"(correctness-gated; timing trajectory-only)")
            if hits < 1:
                failures.append(f"{name}: no cache hits in the smoke load")
            if byte_id != 1:
                failures.append(f"{name}: served bytes differ from exp_cli")
            if resume_id != 1:
                failures.append(
                    f"{name}: SIGKILL-resumed report differs from reference")
            if metrics_ok != 1:
                failures.append(
                    f"{name}: metrics verb exposition missing or inconsistent "
                    "with the stats verb")
            if concurrent_ok != 1:
                failures.append(
                    f"{name}: concurrent clients saw malformed responses or "
                    "non-deduplicated computation")
            continue
        if name.startswith("chaos/"):
            swept = mean(fresh_row, "sites_swept") or 0
            base_swept = mean(base_row, "sites_swept") or 0
            unclean = mean(fresh_row, "unclean_exits")
            flags = ("cache_identity", "resume_identity", "spill_ok",
                     "enospc_resume_identity", "degraded_ok")
            shown = "  ".join(f"{f} {mean(fresh_row, f)}" for f in flags)
            print(f"{name}: sites_swept {swept:.0f} (baseline "
                  f"{base_swept:.0f})  unclean_exits {fmt(unclean)}  {shown}  "
                  f"(correctness-gated; timing trajectory-only)")
            if swept < base_swept:
                failures.append(
                    f"{name}: sites_swept shrank {base_swept:.0f} -> "
                    f"{swept:.0f} — fault sites lost certification coverage")
            if unclean != 0:
                failures.append(
                    f"{name}: {fmt(unclean)} unclean exits during recovery "
                    "from injected faults")
            for f in flags:
                if mean(fresh_row, f) != 1:
                    failures.append(
                        f"{name}: {f} invariant violated under fault "
                        "injection")
            continue
        if name.startswith("obs/"):
            pct = mean(fresh_row, "obs_overhead_pct")
            on = mean(fresh_row, "telemetry_on_moves_per_sec")
            off = mean(fresh_row, "telemetry_off_moves_per_sec")
            print(f"{name}: telemetry on {fmt(on)} moves/s, "
                  f"off {fmt(off)} moves/s, overhead {fmt(pct, '.2f')}% "
                  f"(ceiling {args.max_obs_overhead}%)")
            if pct is None:
                failures.append(
                    f"{name}: obs_overhead_pct missing from fresh run")
            elif pct > args.max_obs_overhead:
                failures.append(
                    f"{name}: telemetry overhead {pct:.2f}% exceeds the "
                    f"{args.max_obs_overhead}% ceiling")
            continue
        if name.startswith("resilience/"):
            rerun = mean(fresh_row, "rerun_identity")
            replay = mean(fresh_row, "replay_identity")
            conv = mean(fresh_row, "search_converged")
            gain = mean(fresh_row, "search_gain") or 0.0
            base_gain = mean(base_row, "search_gain") or 0.0
            gate_gain = base_gain >= 2.0
            note = ("gain gated >= 2x" if gate_gain else
                    f"baseline gain x{base_gain:.2f} < 2, gain not gated")
            print(f"{name}: rerun_identity {rerun}  replay_identity {replay}  "
                  f"search_converged {conv}  search_gain x{gain:.2f} ({note})")
            if rerun != 1:
                failures.append(f"{name}: same-seed rerun not bit-identical")
            if replay != 1:
                failures.append(f"{name}: recorded schedule failed to replay")
            if conv != 1:
                failures.append(f"{name}: adversarial run did not converge")
            if gate_gain and gain < 2.0:
                failures.append(
                    f"{name}: search_gain x{gain:.2f} below the 2x floor")
            continue
        if name.startswith("model-check"):
            agree = fresh_row["metrics"].get("verdicts_agree", {}).get("mean", 0)
            rate = mean(fresh_row, "mc_states_per_sec")
            ratio = mean(fresh_row, "speedup")
            base_cores = base_row.get("cores", 0)
            fresh_cores = fresh_row.get("cores", 0)
            multi_core = base_cores > 1 and fresh_cores > 1
            note = ("gated" if multi_core else
                    f"cores={base_cores or '?'}->{fresh_cores or '?'}: "
                    "single-core, speedup not gated")
            print(f"{name}: verdicts_agree {agree:.0f}  "
                  f"mc_states_per_sec {fmt(rate)}  "
                  f"speedup x{fmt(ratio, '.2f')} ({note})")
            if agree < 1:
                failures.append(
                    f"{name}: 1-thread and mc-threads results differ")
            if multi_core:
                base = mean(base_row, "speedup")
                if ratio is None:
                    failures.append(f"{name}: speedup missing from fresh run")
                elif base is None:
                    failures.append(
                        f"{name}: committed baseline lacks \"speedup\", which "
                        "the fresh run records — re-record the baseline")
                else:
                    r = ratio / base if base else float("inf")
                    if r < args.min_ratio:
                        failures.append(
                            f"{name}: model-check thread scaling (speedup) "
                            f"regressed to x{r:.2f}")
            continue
        info = next((f for f in INFO_FIELDS
                     if mean(fresh_row, f) is not None), INFO_FIELDS[0])
        for gate in RATIO_GATES:
            base = mean(base_row, gate)
            new = mean(fresh_row, gate)
            if base is None and new is None:
                continue  # gate not declared by this row
            if base is None:
                # The fresh build records a gate the committed baseline
                # never saw: a silent skip here would leave the new gate
                # permanently ungated.  Fail loudly instead.
                failures.append(
                    f"{name}: committed baseline lacks \"{gate}\", which the "
                    "fresh run records — re-record the baseline")
                continue
            if new is None:
                failures.append(f"{name}: {gate} missing from fresh run")
                continue
            ratio = new / base if base > 0 else float("inf")
            status = "OK" if ratio >= args.min_ratio else "REGRESSION"
            print(f"{name}: {gate} {fmt(base, '.4g')} -> {fmt(new, '.4g')} "
                  f"(x{ratio:.2f} of baseline, floor x{args.min_ratio})  "
                  f"{status};  {info} {fmt(mean(fresh_row, info))}")
            if ratio < args.min_ratio:
                failures.append(f"{name}: {gate} regressed to x{ratio:.2f}")
    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
