"""Output checks for benchmark operations.

Every check returns a ``Check``: whether the output is correct, why not, and
figures the runner reports (legs, verify time, columns). A failed check
counts as a failed operation. The checks use only the requested inputs and
the output text; chains are re-verified through ``chain --verify-only``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    ok: bool
    reason: str = ""
    info: dict = field(default_factory=dict)


def _fail(reason: str, **info) -> Check:
    return Check(False, reason, info)


def run_cli(cli_main, argv) -> tuple[int, str]:
    """Call the CLI in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def _same_point(got: dict, want) -> bool:
    return got.get("x") == list(want[0]) and got.get("v") == list(want[1])


def check_chain(expect: dict, rc: int, out: str, cli_main, scratch_dir: str) -> Check:
    if rc != 0:
        return _fail(f"exit code {rc}")
    try:
        payload = json.loads(out)
        chain = payload["chain"]
        legs = chain["legs"]
        passed = payload["verification"]["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"malformed chain output: {exc!r}")
    if passed is not True:
        return _fail("verification.passed is not true")
    if chain.get("epsilon") != expect["eps"] or chain.get("T") != expect["T"]:
        return _fail("chain eps/T differ from the request")
    if not _same_point(chain["source"], expect["source"]) \
            or not _same_point(chain["target"], expect["target"]):
        return _fail("chain endpoints differ from the request")
    if not legs:
        return _fail("chain has no legs")
    if not _same_point(legs[0]["start"], expect["source"]) \
            or not _same_point(legs[-1]["jump_target"], expect["target"]):
        return _fail("first leg start or last jump target differs from the request")
    for i, leg in enumerate(legs):
        duration = leg["duration"]
        seg_total = sum(seg[0] for seg in leg["control"])
        if not duration > expect["T"]:
            return _fail(f"leg {i} duration {duration} not above T={expect['T']}")
        if abs(seg_total - duration) > 1e-9 * (1.0 + duration):
            return _fail(f"leg {i} control lasts {seg_total}, not its duration {duration}")
    fd, path = tempfile.mkstemp(suffix=".json", dir=scratch_dir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(chain, fh)
        t0 = time.perf_counter()
        vrc, vout = run_cli(cli_main, ["chain", expect["definition"], "--verify-only", path])
        verify_s = time.perf_counter() - t0
    finally:
        os.unlink(path)
    info = {"legs": len(legs), "verify_s": verify_s}
    if vrc != 0:
        return _fail(f"--verify-only exit code {vrc}", **info)
    try:
        vpassed = json.loads(vout)["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"malformed --verify-only output: {exc!r}", **info)
    if vpassed is not True:
        return _fail("--verify-only did not pass", **info)
    return Check(True, info=info)


def grid_steps(duration: float, step: float) -> int:
    """RK4 steps liftctl takes for a segment: whole multiples of the step
    (up to rounding) take exactly that many steps, others one more."""
    ratio = duration / step
    nearest = round(ratio)
    return max(1, nearest if abs(ratio - nearest) < 1e-9 else math.ceil(ratio))


def check_simulate(expect: dict, rc: int, out: str) -> Check:
    if rc != 0:
        return _fail(f"exit code {rc}")
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["t", "x1", "x2", "v1", "v2"]:
        return _fail(f"unexpected CSV header {rows[0] if rows else None}")
    body = rows[1:]
    want_rows = sum(grid_steps(d, expect["step"]) for d in expect["durations"]) + 1
    if len(body) != want_rows:
        return _fail(f"{len(body)} rows, expected {want_rows}")
    try:
        values = [[float(c) for c in row] for row in body]
    except ValueError as exc:
        return _fail(f"non-numeric CSV value: {exc}")
    if any(len(row) != 5 for row in values):
        return _fail("row with the wrong number of columns")
    if not all(math.isfinite(c) for row in values for c in row):
        return _fail("non-finite value in the trajectory")
    if values[0] != [0.0, *expect["x0"], *expect["v0"]]:
        return _fail("first row is not (0, x0, v0)")
    if abs(values[-1][0] - expect["horizon"]) > 1e-9:
        return _fail(f"final t {values[-1][0]} is not the horizon {expect['horizon']}")
    return Check(True)


def check_larc(expect: dict, rc: int, out: str) -> Check:
    if rc != 0:
        return _fail(f"exit code {rc}")
    try:
        report = json.loads(out)
        rank, n_columns = report["rank"], report["n_columns"]
        sigma = report["singular_values"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"malformed larc output: {exc!r}")
    info = {"n_columns": n_columns}
    if report.get("lifted") is not True or report.get("depth") != expect["depth"]:
        return _fail("report is not the lifted rank at the requested depth", **info)
    if rank != expect["rank"]:
        return _fail(f"rank {rank}, recorded value {expect['rank']}", **info)
    if not all(math.isfinite(s) for s in sigma):
        return _fail("non-finite singular value", **info)
    return Check(True, info=info)


def check(expect: dict, rc: int, out: str, cli_main, scratch_dir: str) -> Check:
    kind = expect["kind"]
    if kind == "chain":
        return check_chain(expect, rc, out, cli_main, scratch_dir)
    if kind == "simulate":
        return check_simulate(expect, rc, out)
    return check_larc(expect, rc, out)
