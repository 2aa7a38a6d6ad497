"""Benchmark of bimodulus: four seeded workloads, timed end to end and
traced layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload runs in fresh single-threaded interpreters (bench/worker.py)
with a fixed PYTHONHASHSEED, so a run's work depends on the seed alone.
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, set against an untraced run of the same operations.  The full
record of each run goes to bench/out/.  Exit code 0 with a result (whose
`correct` says whether every check passed), 2 when no run could be made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 11  # set-ups timed per run, the timed worker's included
BUDGET_S = 170.0  # one workload's run, set-up samples included


class RunFailed(Exception):
    pass


def spawn(workload, seed, deadline, extra, tag):
    """Run a worker to its end.  Returns (its set-up seconds at the nominal
    speed, its record or None)."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    # -S: no site hooks, which in some installations import packages the
    # library never uses (a .pth file importing certifi costs 50 ms)
    cmd = [sys.executable, "-S", WORKER, workload, "--seed", str(seed),
           "--workdir", workdir] + extra
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().split()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not ready or ready[0] != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return float(ready[1]), (json.loads(lines[-1]) if lines else None)


def quantile_ms(op_s, q):
    return statistics.quantiles(op_s, n=100, method="inclusive")[q - 1] * 1000


def op_times(rec):
    """The seconds, at the nominal speed, of every operation of every round
    of a run that ended with a result."""
    return [t for ts in rec["op_s"] for t in ts]


def p50_ms(rec):
    """Median over a round's operations of each one's median over the rounds.
    The pooled median would fall between two operations when a round holds
    an even number of them of very different lengths (`rational`: 55 ms and
    140 ms), and read the noisiest samples of both."""
    return statistics.median(statistics.median(ts) for ts in rec["op_s"] if ts) * 1000


def untraced(workload, seed, seconds, deadline):
    """End-to-end metrics.  Set-up is sampled half before and half after the
    timed run, and the median sample is reported."""

    def setup_sample(k):
        return spawn(workload, seed, deadline, ["--setup-only"], f"setup{k}")[0]

    samples = [setup_sample(k) for k in range(SETUP_SAMPLES // 2)]
    setup_s, rec = spawn(workload, seed, deadline, ["--seconds", str(seconds)], "run")
    samples.append(setup_s)
    samples += [setup_sample(k) for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    rec["setup_samples_s"] = samples
    times = op_times(rec)
    if not times:
        raise RunFailed(f"no {workload} operation ended with a result")
    rec["metrics"] = {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": p50_ms(rec), "unit": "ms"},
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }
    return rec


def traced(workload, seed, seconds, deadline):
    """Per-layer metrics of a traced run that repeats exactly the rounds an
    untraced run of half the length completed; the ratio of their summed
    operation times is the tracing overhead."""
    _, base = spawn(workload, seed, deadline, ["--seconds", str(seconds / 2)], "base")
    trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.tsv")
    _, rec = spawn(workload, seed, deadline,
                   ["--rounds", str(base["rounds"]), "--trace", trace_file], "traced")
    overhead = (sum(op_times(rec)) / sum(op_times(base)) - 1) * 100
    units = dict(tracing.metric_names())
    rec["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in rec["layers"].items()}
    rec["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    rec["untraced"] = {k: base[k] for k in ("attempted", "failed", "rounds", "problem_count")}
    rec["attempted"] += base["attempted"]
    rec["failed"] += base["failed"]
    rec["problem_count"] += base["problem_count"]
    rec["problems"] += base["problems"]
    return rec


def summary(workload, seed, rec, trace):
    """Human-readable lines for standard error."""
    op_s = op_times(rec)
    lines = [f"{workload} seed={seed}: {rec['rounds']} rounds, {rec['attempted']} attempted, "
             f"{rec['failed']} failed, {rec['redraws']} redraws, {rec['problem_count']} wrong"]
    if trace:
        shares = sorted(rec["shares"].items(), key=lambda kv: -kv[1])
        lines.append("  self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
        lines.append(f"  tracing overhead {rec['metrics']['trace.overhead_pct']['value']:.1f}%")
    elif len(op_s) > 1:
        tail = f", p90 {quantile_ms(op_s, 90):.3f} ms" if len(op_s) >= 100 else ""
        lines.append(f"  p50 {p50_ms(rec):.3f} ms{tail} over {len(op_s)} operations "
                     f"in {rec['rounds']} rounds; reference {rec['ref_median_s'] * 1e3:.4f} ms; "
                     "set-up " + " ".join(f"{s:.4f}" for s in rec["setup_samples_s"]) + " s")
    lines += ["  " + m for m in rec["errors"] + rec["problems"]]
    return "\n".join(lines)


def run_workload(workload, seed, seconds, trace):
    if not os.path.isdir(os.path.join(ROOT, "src", "bimodulus")):
        raise RunFailed(f"no library sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    for d in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(d, quiet=1)
    deadline = time.monotonic() + BUDGET_S
    rec = (traced if trace else untraced)(workload, seed, seconds, deadline)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    print(summary(workload, seed, rec, trace), file=sys.stderr)
    return {
        "correct": rec["problem_count"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except RunFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
