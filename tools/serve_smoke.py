#!/usr/bin/env python3
"""Serve smoke: drive exp_serve over its unix socket with a mixed,
repeating workload and prove the service's two load-bearing claims:

  1. Byte identity — the CSV reassembled from served `result` rows
     (header + per-unit rows in submit order) is byte-for-byte the file
     a direct `exp_cli run --scenarios ... --cache-dir ... --csv` run
     writes, and a repeat submission is served entirely from the cache
     (hits > 0) with identical bytes.
  2. Crash durability — a checkpointed sweep whose server is SIGKILLed
     mid-flight resumes on a fresh server process and its final report
     is byte-identical to an uninterrupted run computed without any
     cache at all.

Also exercises the telemetry surface: the `metrics` verb must return a
parseable Prometheus exposition with a live serve_requests_total and
cache counters that agree with the `stats` verb, and a malformed
request must answer ok:false without killing the session.

A concurrent-socket slice then runs N parallel clients submitting one
identical fresh sweep with an interleaved partial `result`/`cancel`,
asserting the sweep computes exactly once (cross-connection dedup), no
connection ever observes a malformed response, and every client's
reassembled CSV is byte-identical to a direct CLI run.

Two checks pin the warm path and session isolation; they decide the
pass/fail verdict but add no row field: the repeat submission, made
while a fresh unit keeps the one worker busy, is `complete` with every
unit a cached hit as soon as its ack arrives (hits settle inside
`submit`, never behind a running computation), and a client that
closes mid-`result` leaves the server answering the next request.

Emits a BENCH_serve.json row (scenario "serve/smoke") whose gated
metrics are correctness flags only — cache_hits, byte_identity,
resume_identity, metrics_ok, concurrent_ok — timing fields ride along
for the trajectory but are never gated (see check_perf_regression.py).

Usage: serve_smoke.py --exp-serve BIN --exp-cli BIN --scenarios FILE
                      [--workdir DIR] [--json OUT]
"""
import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

RESUME_SWEEP = [
    "dftc central ring:72 trials=2",
    "dftc central ring:88 trials=2",
    "dftc central ring:104 trials=2",
    "space central ring:96 trials=1",
]

# Fresh scenarios for the concurrent-socket slice: disjoint from the
# scenario file and RESUME_SWEEP so the dedup assertion (computed ==
# len(CONCURRENT_SWEEP) across all clients) is airtight.
CONCURRENT_SWEEP = [
    "dftc central ring:120 trials=2",
    "dftc central ring:136 trials=2",
    "space central ring:80 trials=1",
]
CONCURRENT_CLIENTS = 4

# A fresh unit that keeps the one worker busy while the repeat is made.
BUSY_SWEEP = ["stno distributed grid:12x12 trials=20"]

# Fresh, non-trivial units for the client that leaves mid-`result`: its
# session must meet the closed socket while the job still runs.
LEAVER_SWEEP = [
    "stno distributed grid:8x8 trials=20",
    "stno distributed grid:8x6 trials=20",
]


class Client:
    def __init__(self, path, retries=10, backoff=0.05):
        # Connect with retry-and-backoff: a freshly exec'd server may
        # have created the socket file but not called listen() yet, and
        # a loaded runner can delay the accept thread.  Each failure
        # doubles the wait (capped at 1s); the last error propagates.
        delay = backoff
        for attempt in range(retries):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if attempt == retries - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
        self.f = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def call(self, **req):
        self.f.write(json.dumps(req) + "\n")
        self.f.flush()
        return json.loads(self.f.readline())

    def raw_call(self, line):
        """Send `line` verbatim (deliberately malformed requests)."""
        self.f.write(line + "\n")
        self.f.flush()
        return json.loads(self.f.readline())

    def stream_result(self, job):
        """All `result` lines for `job`: rows then the summary line."""
        self.f.write(json.dumps({"verb": "result", "job": job}) + "\n")
        self.f.flush()
        lines = []
        while True:
            line = json.loads(self.f.readline())
            lines.append(line)
            if "complete" in line or not line.get("ok"):
                return lines

    def close(self):
        self.f.close()
        self.sock.close()


def start_server(exp_serve, sock_path, cache_dir):
    proc = subprocess.Popen(
        [exp_serve, "--socket", sock_path, "--cache-dir", cache_dir,
         "--workers", "1"])
    for _ in range(200):
        if os.path.exists(sock_path):
            try:
                Client(sock_path).close()
                return proc
            except OSError:
                pass
        if proc.poll() is not None:
            raise SystemExit("exp_serve exited during startup")
        time.sleep(0.05)
    raise SystemExit(f"exp_serve never created {sock_path}")


def parse_prometheus(text):
    """Prometheus text exposition -> {metric_name: float}.  Series with
    labels (histogram buckets) keep the label suffix in the key; a line
    that fails to parse is a hard error (the exposition must be valid).
    """
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise SystemExit(f"unparseable exposition line: {line!r}")
        values[name] = float(value)
    return values


def reassemble_csv(lines, header):
    rows = sorted((l["unit"], l["csv"]) for l in lines if "csv" in l)
    for l in lines:
        if l.get("failed"):
            raise SystemExit(f"served unit failed: {l}")
    return header + "\n" + "".join(csv for _, csv in rows)


def run_cli_csv(exp_cli, scenarios_file, cache_dir, workdir):
    out = os.path.join(workdir, "cli.csv")
    cmd = [exp_cli, "run", "--scenarios", scenarios_file, "--threads", "1",
           "--quiet", "--csv", out]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    subprocess.run(cmd, check=True)
    with open(out) as f:
        return f.read()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exp-serve", required=True)
    ap.add_argument("--exp-cli", required=True)
    ap.add_argument("--scenarios", required=True,
                    help="mixed-workload scenario file (the recorded load)")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--json", default=None, help="write BENCH row here")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="ssno-serve-smoke-")
    os.makedirs(workdir, exist_ok=True)
    sock_path = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    with open(args.scenarios) as f:
        sweep_lines = [l.strip() for l in f
                       if l.strip() and not l.startswith("#")]
    header = ("scenario,protocol,daemon,topology,nodes,edges,trials,"
              "failed_trials,fault_rate,metric,count,min,max,mean,stddev,"
              "p50,p95")

    t0 = time.time()
    server = start_server(args.exp_serve, sock_path, cache_dir)
    try:
        # --- Phase 1: cold sweep, then an immediate repeat. ---------------
        c = Client(sock_path)
        ack = c.call(verb="submit", scenarios=sweep_lines,
                     checkpoint="smoke")
        assert ack["ok"] and ack["units"] == len(sweep_lines), ack
        cold = reassemble_csv(c.stream_result(ack["job"]), header)

        busy = c.call(verb="submit", scenarios=BUSY_SWEEP)
        assert busy["ok"], busy
        ack2 = c.call(verb="submit", scenarios=sweep_lines)
        # Hits settle inside submit, not behind the busy unit: the job is
        # complete at its ack.
        st2 = c.call(verb="status", job=ack2["job"])
        hits_at_submit = int(st2.get("state") == "complete"
                             and st2.get("cached_hits") == len(sweep_lines))
        print(f"serve_smoke: repeat job at its ack: {st2.get('state')}, "
              f"cached_hits {st2.get('cached_hits')}/{len(sweep_lines)}, "
              f"hits_at_submit {hits_at_submit}")
        warm_lines = c.stream_result(ack2["job"])
        warm = reassemble_csv(warm_lines, header)
        cached_rows = sum(1 for l in warm_lines if l.get("cached"))
        stats = c.call(verb="stats")
        assert stats["ok"], stats
        hits = stats["hits"]

        # --- Telemetry: the metrics verb must return a parseable
        # Prometheus exposition whose serve counters are live, and whose
        # cache series agree with the stats verb; a malformed metrics
        # request answers ok:false without killing the session. --------
        met = c.call(verb="metrics")
        assert met["ok"], met
        exposition = parse_prometheus(met["metrics"])
        requests_total = exposition.get("serve_requests_total", 0)
        metrics_ok = int(
            requests_total > 0
            and exposition.get("serve_cache_hits_total") == stats["hits"]
            and exposition.get("serve_cache_misses_total") == stats["misses"])
        bad = c.raw_call('{"verb":"metrics", this is not json}')
        again = c.call(verb="metrics")
        metrics_ok = int(metrics_ok
                         and not bad.get("ok", True)   # malformed -> ok:false
                         and again["ok"])              # session survived
        print(f"serve_smoke: metrics verb requests_total {requests_total}, "
              f"metrics_ok {metrics_ok}")

        # Direct CLI over the same cache: warm, byte-identical.
        cli_csv = run_cli_csv(args.exp_cli, args.scenarios, cache_dir,
                              workdir)
        byte_identity = int(cold == warm == cli_csv)
        print(f"serve_smoke: {len(sweep_lines)} units, cache hits {hits}, "
              f"repeat rows cached {cached_rows}/{len(sweep_lines)}, "
              f"byte_identity {byte_identity}")

        # --- Phase 2: SIGKILL mid-sweep, restart, resume. -----------------
        resume_file = os.path.join(workdir, "resume.scenarios")
        with open(resume_file, "w") as f:
            f.write("\n".join(RESUME_SWEEP) + "\n")
        ack3 = c.call(verb="submit", scenarios=RESUME_SWEEP,
                      checkpoint="resume-sweep")
        assert ack3["ok"], ack3
        server.send_signal(signal.SIGKILL)
        server.wait()
        c.close()
        print("serve_smoke: server SIGKILLed mid-sweep, restarting")

        server = start_server(args.exp_serve, sock_path, cache_dir)
        c = Client(sock_path)
        ack4 = c.call(verb="resume", checkpoint="resume-sweep")
        assert ack4["ok"] and ack4["units"] == len(RESUME_SWEEP), ack4
        resumed = reassemble_csv(c.stream_result(ack4["job"]), header)
        # Uninterrupted reference computed WITHOUT any cache: determinism
        # alone must make the resumed report identical.
        reference = run_cli_csv(args.exp_cli, resume_file, None, workdir)
        resume_identity = int(resumed == reference)
        print(f"serve_smoke: resume_identity {resume_identity}")

        # --- Phase 3: concurrent sockets. ---------------------------------
        # N parallel clients submit the SAME fresh sweep; one of them also
        # interleaves a partial `result` read with a `cancel`.  Claims:
        # every connection sees only well-formed responses, the sweep is
        # computed once (cross-connection dedup), and every client's
        # reassembled CSV is byte-identical.
        computed_before = c.call(verb="stats")["computed"]
        results = [None] * CONCURRENT_CLIENTS
        errors = []

        def concurrent_client(slot):
            try:
                cc = Client(sock_path)
                ack = cc.call(verb="submit", scenarios=CONCURRENT_SWEEP)
                assert ack["ok"] and ack["units"] == len(CONCURRENT_SWEEP), ack
                if slot == 0:
                    # Interleaved cancel: submit a duplicate job, queue a
                    # partial result read and a cancel behind it, then
                    # consume both streams — each line must still be a
                    # complete, well-formed response.
                    extra = cc.call(verb="submit",
                                    scenarios=CONCURRENT_SWEEP[:2])
                    assert extra["ok"], extra
                    cancel = cc.call(verb="cancel", job=extra["job"])
                    assert cancel["ok"], cancel
                    tail = cc.stream_result(extra["job"])
                    assert all("ok" in l for l in tail), tail
                lines = cc.stream_result(ack["job"])
                assert all("ok" in l and l["ok"] for l in lines), lines
                results[slot] = reassemble_csv(lines, header)
                cc.close()
            except Exception as e:  # surfaced after join
                errors.append(f"client {slot}: {e!r}")

        threads = [threading.Thread(target=concurrent_client, args=(i,))
                   for i in range(CONCURRENT_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        computed_after = c.call(verb="stats")["computed"]
        computed_delta = computed_after - computed_before
        conc_file = os.path.join(workdir, "concurrent.scenarios")
        with open(conc_file, "w") as f:
            f.write("\n".join(CONCURRENT_SWEEP) + "\n")
        conc_reference = run_cli_csv(args.exp_cli, conc_file, cache_dir,
                                     workdir)
        concurrent_ok = int(
            not errors
            and all(r == conc_reference for r in results)
            and computed_delta == len(CONCURRENT_SWEEP))
        for e in errors:
            print(f"serve_smoke: concurrent client error: {e}")
        print(f"serve_smoke: {CONCURRENT_CLIENTS} concurrent clients, "
              f"computed {computed_delta}/{len(CONCURRENT_SWEEP)} "
              f"(deduped), concurrent_ok {concurrent_ok}")

        # --- A client that closes mid-`result` costs only its session. --
        leaver_ok = 0
        try:
            leaver = Client(sock_path)
            ack5 = leaver.call(verb="submit", scenarios=LEAVER_SWEEP)
            leaver.f.write(json.dumps({"verb": "result",
                                       "job": ack5["job"]}) + "\n")
            leaver.f.flush()
            leaver.close()
            deadline = time.time() + 120
            while (c.call(verb="status", job=ack5["job"])["state"]
                   != "complete" and time.time() < deadline):
                time.sleep(0.05)
            leaver_ok = int(c.call(verb="stats")["ok"]
                            and server.poll() is None)
        except (OSError, ValueError, KeyError) as e:
            print(f"serve_smoke: server lost after a client left: {e!r}")
        print(f"serve_smoke: client left mid-result, leaver_ok {leaver_ok}")

        if leaver_ok:  # else the finally below kills what is left
            c.call(verb="shutdown")
            c.close()
            server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    elapsed = time.time() - t0
    row = {
        "scenario": "serve/smoke",
        "failed_trials": 0,
        "metrics": {
            "cache_hits": {"mean": float(hits)},
            "byte_identity": {"mean": float(byte_identity)},
            "resume_identity": {"mean": float(resume_identity)},
            "metrics_ok": {"mean": float(metrics_ok)},
            "concurrent_ok": {"mean": float(concurrent_ok)},
            "smoke_seconds": {"mean": elapsed},  # trajectory only
        },
    }
    if args.json:
        with open(args.json, "w") as f:
            json.dump([row], f, indent=2)
            f.write("\n")
        print(f"wrote {args.json}")

    ok = (byte_identity and resume_identity and hits > 0 and metrics_ok
          and concurrent_ok and hits_at_submit and leaver_ok)
    print("serve_smoke:", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
