#!/usr/bin/env python3
"""Served end-to-end benchmark for `entangle serve` (see perfbench/README.md).

    python3 perfbench/run.py --workload chains|market --seed N \
        --seconds S --trace 0|1 [--dump-trace FILE]

Run from the repository root.  Builds perfbench/perfbench.exe from source
with dune, then serves the workload in fresh processes ("rounds"), each a
fixed number of requests, until S seconds of rounds have run.  Every
round's responses are checked against an in-process oracle replay of the
same seeded trace.  With --trace 0 the end-to-end metrics are reported;
with --trace 1 untraced and traced rounds alternate and the per-layer
metrics are reported.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TMP_DIR = ".perfbench_tmp"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("chains", "market")
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
ROUND_TIMEOUT = 60
# The calibration kernel's time per call, in ms, when the host the
# benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon) ran at
# its fast end.  Every timing is reported as if its round had run at
# that speed; see "Host-speed scaling" in README.md.
REFERENCE_CALIBRATION_MS = 0.8
# Latency is reported per operation class; a class's percentile only
# where every round has at least TAIL_SAMPLES samples beyond it.
CLASSES = ("pending", "match", "retire", "restock")
QUANTILES = (50, 90, 99)
# Untraced rounds per run at least, whatever --seconds says: each
# reported number is a median over rounds.
MIN_ROUNDS = 3

# Which layer each workload is built to stress, and which it should not
# notice (printed beside the measured shares of the traced run).
PREDICTIONS = {
    "chains": "dominant: coordination.Online (graph, unify, ground); "
    "a protocol change should show almost no effect",
    "market": "dominant: engine writes + durable (mutations dirty the pool, "
    "WAL appends, snapshots); the only workload a WAL change moves",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def metric_units():
    """The (name, unit) lists of BENCHMARK.json's end_to_end and per_layer."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[k]]
                 for k in ("end_to_end", "per_layer"))


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("lib/server/server.ml")):
        fail("run from the root of an entangle checkout (dune-project, lib/ missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        log(r.stdout.decode(errors="replace"))
        fail("build failed")


def worker(args, timeout=ROUND_TIMEOUT):
    """Run one worker process and return the JSON object it prints."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out: %s" % " ".join(args))
    if r.returncode != 0:
        raise RuntimeError("worker failed (%d): %s" % (r.returncode, " ".join(args)))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def round_process(args, out):
    """Run one round in a fresh process; returns its result (written to [out])."""
    worker(args + ["--out", out])
    with open(out) as f:
        return json.load(f)


def percentile(sorted_xs, q):
    """Nearest-rank percentile, or None when fewer than TAIL_SAMPLES
    samples lie beyond it."""
    n = len(sorted_xs)
    if n == 0 or n * (1 - q) < TAIL_SAMPLES:
        return None
    return sorted_xs[min(n - 1, int(q * n))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-trace", metavar="FILE",
                    help="write the workload's request frames, one JSON per line, and exit")
    a = ap.parse_args()

    build()
    end_to_end, per_layer = metric_units()
    if a.dump_trace:
        worker(["dump", "--workload", a.workload, "--seed", str(a.seed),
                "--out", a.dump_trace], timeout=170)
        log("wrote %s" % a.dump_trace)
        return 0

    tmp = os.path.join(TMP_DIR, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        return measure(a, tmp, end_to_end, per_layer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass


def measure(a, tmp, end_to_end, per_layer):
    seed = str(a.seed)
    mach = worker(["machine"])
    print("machine: nproc %d, OCaml %s, calibration kernel %.3f ms (reference %.3f)"
          % (os.cpu_count() or 0, mach["ocaml"], mach["calibration_ms"],
             REFERENCE_CALIBRATION_MS))

    rounds = []  # (traced, result, dir)
    start = time.monotonic()
    k = 0

    def enough():
        plain = sum(1 for t, _, _ in rounds if not t)
        return time.monotonic() - start >= a.seconds and plain >= MIN_ROUNDS

    while not enough():
        traced = bool(a.trace) and k % 2 == 1
        d = os.path.join(tmp, "r%d" % k)
        os.makedirs(d)
        args = ["round", "--workload", a.workload, "--seed", seed, "--dir", d]
        res = round_process(args + (["--traced"] if traced else []),
                            os.path.join(d, "result.json"))
        rounds.append((traced, res, d))
        k += 1

    wal_dirs = []
    for _, _, d in rounds:
        if os.path.isdir(os.path.join(d, "wal")):
            wal_dirs += ["--wal", os.path.join(d, "wal")]
    oracle = worker(["oracle", "--workload", a.workload, "--seed", seed]
                    + (["--layers"] if a.trace else []) + wal_dirs, timeout=120)

    # ------------------------------------------------------ correctness gate
    problems = list(oracle["invalid"])
    problems += ["%s: %s" % (d, v) for d, v in oracle["wal"].items() if v != "ok"]
    attempted = failed = 0
    for _, r, d in rounds:
        attempted += r["attempted"]
        failed += r["failed"]
        if "stalled" in r:
            failed += 1
            problems.append("%s: %s" % (d, r["stalled"]))
            continue
        if r["failed"]:
            problems.append("%s: unexpected response %s" % (d, r["first_failure"]))
        for key in ("digest", "lines", "status", "fired"):
            if r[key] != oracle[key]:
                problems.append("%s: %s %s, oracle %s" % (d, key, r[key], oracle[key]))
        if a.workload == "market" and r["notifications"] != r["fired"]:
            problems.append("%s: %d matched notifications for %d fired sets"
                            % (d, r["notifications"], r["fired"]))
    correct = not problems
    print("gate: %d rounds, %d requests, %d failed; %s"
          % (len(rounds), attempted, failed,
             "responses, fired sets (Definition 1), final status%s match the oracle"
             % (" and WAL recovery" if a.workload == "market" else "")
             if correct else "FAILED"))
    for p in problems[:10]:
        print("  " + p)
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    plain = [r for t, r, _ in rounds if not t]
    traced = [r for t, r, _ in rounds if t]
    thr = lambda r: r["requests"] / r["wall_s"]

    # ------------------------------------------------------------ end to end
    print("%s: %d untraced rounds of %d timed requests (seed %s)"
          % (a.workload, len(plain), plain[0]["requests"], seed))
    print("  per round: calibration %s ms; throughput %s req/s; setup %s s"
          % (" ".join("%.3f" % r["calibration_ms"] for r in plain),
             " ".join("%.0f" % thr(r) for r in plain),
             " ".join("%.3f" % r["setup_s"] for r in plain)))
    raw = end_to_end_values(plain, lambda r: 1.0)
    e2e = end_to_end_values(plain, host_speed)
    print("  %-18s %12s %12s" % ("", "as measured", "host-scaled"))
    for name in ["setup_s", "throughput_ops_s", "peak_rss_mb"] + [
            "%s_p%d_us" % (cls, q) for cls in CLASSES for q in QUANTILES]:
        if name in e2e:
            print("  %-18s %12s %12s" % (name, fmt(raw[name]), fmt(e2e[name])))
    print("  samples per round: %s; failed_ratio %.4f"
          % (", ".join("%s %d" % (cls, len(plain[0]["samples"][cls])) for cls in CLASSES),
             failed / max(1, attempted)))
    missing = [name for name, _ in end_to_end if e2e.get(name) is None]
    if missing and not a.trace:
        fail("too few samples for " + ", ".join(missing), 1)

    if not a.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end}
    else:
        # Per-layer times are host-scaled like the end-to-end ones.
        timed = {name for name, unit in per_layer if unit == "us"}
        scale = lambda r, k: host_speed(r) if k in timed else 1.0
        layers = {k: statistics.median(r["layers"][k] / scale(r, k) for r in traced)
                  for k in traced[0]["layers"]}
        replay = oracle["layers"]
        layers.update({k: v / scale(replay, k) for k, v in replay.items()})
        layers["trace.overhead"] = (end_to_end_values(traced, host_speed)["throughput_ops_s"]
                                    / e2e["throughput_ops_s"])
        attribution(a.workload, layers, traced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def host_speed(r):
    """How much slower than the reference the host ran during round [r]."""
    return r["calibration_ms"] / REFERENCE_CALIBRATION_MS


def end_to_end_values(rounds, scale):
    """Medians over rounds, each round's times divided by [scale(r)]."""
    med = statistics.median
    e = {
        "setup_s": med(r["setup_s"] / scale(r) for r in rounds),
        "throughput_ops_s": med(r["requests"] / r["wall_s"] * scale(r) for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }
    for cls in CLASSES:
        for q in QUANTILES:
            ps = [percentile(sorted(x / scale(r) for x in r["samples"][cls]), q / 100)
                  for r in rounds]
            if None not in ps:
                e["%s_p%d_us" % (cls, q)] = med(ps)
    return e


def fmt(x):
    return "-" if x is None else "%.2f" % x


def attribution(workload, m, traced):
    """Print each layer's share of a served request (traced run)."""
    per_op = m["server.step_us"] + m["server.client_io_us"]
    decode, parse, eng, encode = (m["json.decode_us"], m["parse.us"],
                                  m["engine.op_us"], m["json.encode_us"])
    rows = [
        ("client I/O (send, recv)", m["server.client_io_us"]),
        ("server frame I/O, dispatch, WAL", max(0.0, m["server.step_us"] - decode - parse - eng - encode)),
        ("server.Json decode", decode),
        ("entangled.Parser", parse),
        ("coordination.Online op", eng),
        ("  of which graph", m["engine.graph_us_per_op"]),
        ("  of which unify", m["engine.unify_us_per_op"]),
        ("  of which ground", m["engine.ground_us_per_op"]),
        ("server.Json encode", encode),
    ]
    print("layer attribution (%s, traced, %.2f us per request):" % (workload, per_op))
    for name, us in rows:
        print("  %-34s %9.2f us %6.1f%%" % (name, us, 100.0 * us / per_op if per_op else 0))
    snaps = statistics.median(r["layers"]["wal.snapshot_ms"] for r in traced)
    print("  durable: %.1f snapshots per round, %.2f ms each, %.1f%% of served time"
          % (m["wal.snapshots"], snaps, 100 * m["wal.snapshot_share"]))
    print("  slowest traced items of one round (first request id: total = "
          "server step + client I/O + loop):")
    for sp in traced[0]["slowest"]:
        print("    id %-7d %9.1f us = step %9.1f + io %6.1f%s"
              % (sp["id"], sp["us"], sp["step_us"], sp["io_us"],
                 "  (snapshot)" if sp["snapshot"] else ""))
    print("  prediction: " + PREDICTIONS[workload])
    print("  trace overhead: traced/untraced throughput %.3f" % m["trace.overhead"])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        fail(str(e), 1)
