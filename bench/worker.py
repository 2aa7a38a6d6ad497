"""One workload in one fresh interpreter: set up, then time operations.

    python3 bench/worker.py WORKLOAD --seed N --workdir DIR
                            [--seconds S] [--rounds R] [--trace FILE]
                            [--setup-only]

Prints `ready` and the set-up seconds as soon as set-up is done, then,
unless --setup-only, one JSON line with the record of the run.
Rounds of the workload's operations, each round the same work, repeat
until the round boundary nearest to S wall seconds (after at least
MIN_ROUNDS rounds), or until R rounds are done.

Set-up and each operation are timed on the wall clock and rescaled to the
nominal speed by the speed samples taken all through the run (speed.py);
checks are never timed.  With --trace, spans are recorded around the
library's public functions and written to FILE.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()
BOOT_S = time.process_time()  # the interpreter's own start, before T_START

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402

SAMPLER = speed.Sampler()
SAMPLER.burst()
SAMPLER.start(speed.SETUP_INTERVAL_S)

import tracing  # noqa: E402
import workloads  # noqa: E402

KEEP = 20  # failure and problem messages kept in the record
MIN_ROUNDS = 1  # rounds a timed run makes at least


def run_rounds(ops, seconds, rounds, tracer):
    """Repeat the round of operations until the round boundary nearest to
    `seconds` wall seconds, after at least MIN_ROUNDS rounds, or exactly
    `rounds` rounds when that is given.  op_raw[i] holds operation i's
    (work, speed) pair (speed.Sampler.measure) for each round in which it
    ended with a result; its wall spans and all speed samples are kept too,
    so that a run can be rescaled again another way."""
    spans = [[] for _ in ops]
    problems = []
    errors = []
    attempted = failed = redraws = done = 0
    begin = round_begin = time.perf_counter()
    while True:
        for i, (label, op, check) in enumerate(ops):
            attempted += 1
            if tracer is not None:
                tracer.on = True
                span = tracer.open(tracing.OP)
            t0 = time.perf_counter()
            try:
                value, n = op()
                ok = True
            except Exception as e:  # an operation without a result counts as failed
                ok = False
                err = f"{label}: {type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.on = False
            if not ok:
                failed += 1
                errors.append(err)
                continue
            spans[i].append((t0, t1))
            redraws += n
            try:
                problems.extend(f"{label}: {p}" for p in check(value))
            except Exception as e:  # a report the checker cannot read is wrong
                problems.append(f"{label}: unreadable output ({type(e).__name__}: {e})")
        done += 1
        if rounds:
            if done >= rounds:
                break
        else:
            now = time.perf_counter()
            if done >= MIN_ROUNDS and now - begin + (now - round_begin) / 2 >= seconds:
                break
            round_begin = now
    SAMPLER.burst()
    SAMPLER.stop()
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": done,
        "redraws": redraws,
        "op_raw": [[SAMPLER.measure(t0, t1) for t0, t1 in ts] for ts in spans],
        "spans": spans,
        "samples": SAMPLER.samples,
        "ref_median_s": SAMPLER.median_s(),
        "problems": problems[:KEEP],
        "problem_count": len(problems),
        "errors": errors[:KEEP],
        "wall_s": time.perf_counter() - begin,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", default=None, metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.setup(args.workload, args.seed, args.workdir)
    ready = time.perf_counter()
    SAMPLER.burst()
    print("ready", speed.rescaled(*SAMPLER.measure(T_START, ready, extra=BOOT_S)), flush=True)
    if args.setup_only:
        return 0
    SAMPLER.start(speed.INTERVAL_S)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record = run_rounds(ops, args.seconds, args.rounds, tracer)
    record["op_s"] = [[speed.rescaled(*m) for m in ms] for ms in record["op_raw"]]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        done = sum(len(t) for t in record["op_s"]) or 1
        record["layers"] = tracer.layer_metrics(done, record["redraws"])
        record["shares"] = tracer.layer_shares()
        tracer.write(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SAMPLER.stop()  # an armed timer would kill the exiting interpreter
