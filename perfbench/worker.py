"""One workload in one fresh process: a closed loop with a single client.

Usage (from run.py, which pins BLAS/OpenMP threads to 1):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 perfbench/worker.py --workload NAME --setup-only

Each operation is one in-process ``liftctl.cli.main(argv)`` call with stdout
captured, followed by its output check. Operations start while fewer than S
seconds have passed. The last stdout line is a JSON summary for run.py.

With --setup-only the process imports liftctl, loads the workload's
definitions, prints ``time.perf_counter()`` (CLOCK_MONOTONIC, comparable
across processes) and exits, so run.py can time a fresh start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"


def reference_kernel() -> float:
    """Seconds taken by a fixed RK4 loop on a 2-vector (about 1 ms), written
    apart from liftctl so no change to the program can move it. Sampled over
    every operation, it tracks the speed of a shared machine, whose CPU can
    slow by up to 1.7x for seconds to minutes at a time."""
    import numpy as np

    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    x = np.array([1.0, 0.0])
    h = 0.01
    start = time.perf_counter()
    for _ in range(60):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


def _import_liftctl():
    sys.path.insert(0, str(ROOT / "src"))
    import liftctl
    from liftctl import cli

    if not Path(liftctl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"liftctl imported from {liftctl.__file__}, not from {ROOT / 'src'}")
    return cli


class SpeedSampler:
    """Times the reference kernel before and after an operation and, from a
    SIGALRM handler, every SAMPLE_EVERY seconds during it (about 1% of the
    time), so a slow spell in
    the middle of a long operation shows in its mean reference time."""

    SAMPLE_EVERY = 0.1

    def __init__(self):
        self.samples: list = []
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.inside += time.perf_counter() - start

    def __enter__(self):
        self.samples = [reference_kernel()]
        self.inside = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY, self.SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples.append(reference_kernel())

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def _run_op(cli, op, scratch: str, sampler: SpeedSampler, tracer=None):
    """Run and check one operation. Returns its seconds (less the kernel
    samples taken during it), the mean reference-kernel seconds over it, the
    check and the output size in bytes."""
    exc = None
    with sampler:
        span = tracer.span("op") if tracer else None
        t0 = time.perf_counter()
        try:
            rc, out = checks.run_cli(cli.main, op.argv)
        except Exception:  # an uncaught error in the program is a failed operation
            rc, out, exc = None, "", traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0 - sampler.inside
        if tracer:
            tracer.end(span)
    if exc is not None:
        result = checks.Check(False, f"exception: {_last_line(exc)}")
    else:
        if tracer:
            tracer.paused = True
        try:
            result = checks.check(op.expect, rc, out, cli.main, scratch)
        except Exception:
            result = checks.Check(False, "exception in check: "
                                  + _last_line(traceback.format_exc(limit=3)))
        finally:
            if tracer:
                tracer.paused = False
    return elapsed, sampler.mean, result, len(out.encode())


def run_loop(cli, workload: str, seed: int, seconds: float, tracer=None):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = str(OUT_DIR)
    records = []
    sampler = SpeedSampler()
    ops = workloads.operations(workload, seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        # Start each operation from a collected heap, as a fresh CLI process
        # does; otherwise a full collection of earlier operations' garbage
        # lands in a random later one (on algebra it doubled the p97 time).
        gc.collect()
        elapsed, ref, result, nbytes = _run_op(cli, op, scratch, sampler, tracer)
        records.append({"s": elapsed, "ref_s": ref, "ok": result.ok, "reason": result.reason,
                        "bytes": nbytes, "argv": op.argv, **result.info})
    wall = time.perf_counter() - start
    return records, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    if args.setup_only:
        cli = _import_liftctl()
        for path in workloads.definitions(args.workload):
            cli.SystemDefinition.load(path)
        print(repr(time.perf_counter()))
        return 0

    cli = _import_liftctl()
    summary = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        records, wall = run_loop(cli, args.workload, args.seed, args.seconds, tracer)
        tracer.uninstall()
        summary["layers"] = tracing.layer_metrics(tracer.spans)
        summary["missing_targets"] = tracer.missing
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        summary["spans"] = len(tracer.spans)
        # Replay the same inputs untraced, for half the time, to measure the
        # tracing overhead on identical operations.
        replay, _ = run_loop(cli, args.workload, args.seed, args.seconds / 2.0)
        # Both sides in reference-kernel units, so a change in machine speed
        # between the two passes does not read as tracing overhead.
        paired = list(zip(records, replay))
        summary["overhead"] = {
            "traced_ref": sum(a["s"] / a["ref_s"] for a, _ in paired),
            "untraced_ref": sum(b["s"] / b["ref_s"] for _, b in paired),
            "pairs": len(paired),
        }
        records = records + [dict(r, replay=True) for r in replay]
    else:
        records, wall = run_loop(cli, args.workload, args.seed, args.seconds)
    summary.update({
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
