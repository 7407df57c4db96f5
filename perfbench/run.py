"""liftctl benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload chain_search --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json. Each workload runs in
its own fresh single-threaded worker process (perfbench/worker.py), a closed
loop with one client that calls ``liftctl.cli.main`` in-process and checks
every output. With ``--trace 0`` the run first times a few fresh processes
that import liftctl and load the workload's definitions (``setup_s``), then
reports the end-to-end metrics. With ``--trace 1`` it wraps each layer's
public functions, reports the per-layer metrics, and replays the same inputs
untraced to measure the tracing overhead. Human-readable lines go first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_PROBES = 5
# Units of the figures printed beside the gated metrics.
EXTRA_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "op_tail_percentile": "%", "ops_per_s": "1/s",
               "ops": "count", "fail_frac": "ratio", "n_columns": "count", "verify_p50_s": "s",
               "legs_per_chain": "legs", "setup_runs_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("LIFTCTL_SEED", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args: list, timeout: float) -> str:
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    return lines[-1]


def measure_setup(workload: str) -> list:
    """Seconds from spawning a fresh process to liftctl imported and the
    workload's definitions loaded, for SETUP_PROBES processes in turn."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        ready = float(_spawn(["--workload", workload, "--setup-only"], timeout=60))
        times.append(ready - start)
    return times


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and that
    percentile. With ten or fewer values there is none; the maximum is used
    and reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list, wall: float, setup: list, rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the other figures printed beside them.

    Operation costs are gated in reference-kernel units (``ref``): this
    machine's speed drifts by up to 1.7x over minutes, which moves raw
    seconds between seeds by more than any useful bound. Raw seconds are
    printed, not gated; so are fail_frac (0 at a healthy commit) and the
    figures that exist for one kind of workload only.
    """
    ok = [r for r in records if r["ok"]]
    if not ok:
        raise BenchError("no operation succeeded")
    times = [r["s"] for r in ok]
    costs = [r["s"] / r["ref_s"] for r in ok]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ref": statistics.median(costs),
        "op_tail_ref": tail(costs)[0],
        "peak_rss_mb": rss,
    }
    extra = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "ops_per_s": len(ok) / wall,
        "ops": len(records),
        "fail_frac": (len(records) - len(ok)) / len(records),
    }
    if "n_columns" in ok[0]:
        extra["n_columns"] = ok[0]["n_columns"]
    if "legs" in ok[0]:
        extra["verify_p50_s"] = statistics.median(r["verify_s"] for r in ok)
        extra["legs_per_chain"] = statistics.fmean(r["legs"] for r in ok)
    return metrics, extra


def per_layer(summary: dict) -> dict:
    layers = dict(summary["layers"])
    traced = [r for r in summary["records"] if not r.get("replay")]
    over = summary["overhead"]
    layers["cli.output_bytes"] = statistics.fmean(r["bytes"] for r in traced)
    layers["trace.op_p50_s"] = statistics.median(r["s"] for r in traced)
    layers["trace.overhead_frac"] = over["traced_ref"] / over["untraced_ref"] - 1.0
    layers["trace.spans_per_op"] = summary["spans"] / len(traced)
    return layers


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    for needed in ("src/liftctl/cli.py", "defs/flat_rotation.json"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing: run from a liftctl checkout")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        summary = json.loads(_spawn(common + ["--trace"], timeout=args.seconds * 2 + 100))
        metrics = per_layer(summary)
        wanted = spec["per_layer"]
        extra = {"missing_trace_targets": summary["missing_targets"]}
    else:
        setup = measure_setup(args.workload)
        summary = json.loads(_spawn(common, timeout=args.seconds + 120))
        metrics, extra = end_to_end(summary["records"], summary["wall_s"],
                                    setup, summary["peak_rss_mb"])
        wanted = spec["end_to_end"]
        extra["setup_runs_s"] = setup

    records = summary["records"]
    failed = [r for r in records if not r["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(records)}  failed {len(failed)}")
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"  {key:<40} {value} {EXTRA_UNITS.get(key, '')}".rstrip())
    for r in failed:
        print(f"  FAILED {r['reason']}: liftctl {' '.join(r['argv'])}")
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
