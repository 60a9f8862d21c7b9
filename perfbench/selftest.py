#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/selftest.py

Asserts that
  * every workload prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit, and passes its correctness checks;
  * the traced run prints exactly the per-layer metrics, each with its unit,
    and emits a span for every named layer;
  * a corrupted expected count or verdict makes every workload report
    correct:false with at least one failed operation;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["converge", "stepping", "verify", "serve"]
# Layers the traced run must time (span names end with these).
LAYERS = ["orientation.legit", "core.guards", "core.daemon", "core.exec",
          "core.sync", "mc.levels", "mc.convergence", "serve.json",
          "exp.canon", "serve.cache.fetch", "serve.cache.store", "exp.runner",
          "exp.payload"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(root, *args):
    command = [sys.executable, "perfbench/run.py", "--seed", "3",
               "--seconds", "1", *args]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, lines, result


def check_metrics(result, expected, label):
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"] if result else {}
    check(set(got) == set(names),
          f"{label}: metric names match BENCHMARK.json "
          f"(missing {sorted(set(names) - set(got))}, "
          f"extra {sorted(set(got) - set(names))})")
    check(all(got[n]["unit"] == names[n] for n in names if n in got) and
          all(isinstance(got[n]["value"], (int, float)) for n in got),
          f"{label}: every metric has a number and its unit")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    for workload in WORKLOADS:
        proc, _, result = run(root, "--workload", workload, "--trace", "0",
                              "--tiny")
        label = f"{workload} (trace 0)"
        check(proc.returncode == 0 and result is not None and
              set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{label}: exits 0 with a result line")
        check(bool(result) and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1, f"{label}: correct, 0 failed")
        check_metrics(result, bench["end_to_end"], label)

    proc, lines, result = run(root, "--workload", "converge", "--trace", "1",
                              "--tiny")
    check(proc.returncode == 0 and bool(result) and result["correct"],
          "traced run: exits 0, correct")
    check_metrics(result, bench["per_layer"], "traced run")
    spans = next((json.loads(line)["spans"] for line in lines
                  if line.startswith('{"spans"')), [])
    for layer in LAYERS:
        check(any(s["layer"].endswith("." + layer) and s["count"] > 0
                  for s in spans), f"traced run: span for layer {layer}")

    for workload in WORKLOADS:
        for corrupt in ("count", "verdict"):
            proc, _, result = run(root, "--workload", workload, "--trace", "0",
                                  "--tiny", "--corrupt", corrupt)
            check(proc.returncode == 0 and bool(result) and
                  not result["correct"] and result["failed"] >= 1,
                  f"{workload}: corrupted {corrupt} trips the check")

    bare = os.path.join(root, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines, result = run(bare, "--workload", "converge", "--trace", "0")
    check(proc.returncode != 0 and result is None,
          "without the sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
