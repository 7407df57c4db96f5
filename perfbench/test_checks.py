"""Tests of the benchmark's output checks: a broken output must count as a
failed operation. Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from liftctl import cli  # noqa: E402


@pytest.fixture(scope="module")
def chain_run():
    op = workloads._chain_op("defs/line_shift.json", (0.0,), (0.0,), (0.6,), (-0.4,))
    rc, out = checks.run_cli(cli.main, [op.argv[0], str(HERE.parent / op.argv[1]), *op.argv[2:]])
    expect = dict(op.expect, definition=str(HERE.parent / "defs" / "line_shift.json"))
    return expect, rc, out


def _check_chain(expect, payload, tmp_path):
    return checks.check_chain(expect, 0, json.dumps(payload), cli.main, str(tmp_path))


def test_intact_chain_passes(chain_run, tmp_path):
    expect, rc, out = chain_run
    result = checks.check_chain(expect, rc, out, cli.main, str(tmp_path))
    assert result.ok, result.reason
    assert result.info["legs"] >= 2
    assert list(tmp_path.iterdir()) == []


def test_leg_shortened_below_t_fails(chain_run, tmp_path):
    expect, _, out = chain_run
    payload = json.loads(out)
    leg = payload["chain"]["legs"][0]
    scale = 0.9 * expect["T"] / leg["duration"]
    leg["duration"] *= scale
    leg["control"] = [[d * scale, u] for d, u in leg["control"]]
    assert payload["verification"]["passed"] is True
    result = _check_chain(expect, payload, tmp_path)
    assert not result.ok
    assert "not above T" in result.reason


def test_jump_beyond_eps_fails_through_verify_only(chain_run, tmp_path):
    expect, _, out = chain_run
    payload = json.loads(out)
    legs = payload["chain"]["legs"]
    moved = [v + 1.0 for v in legs[0]["jump_target"]["v"]]
    legs[0]["jump_target"]["v"] = moved
    legs[1]["start"]["v"] = moved
    result = _check_chain(expect, payload, tmp_path)
    assert not result.ok
    assert "--verify-only" in result.reason


def test_chain_with_other_endpoint_fails(chain_run, tmp_path):
    expect, _, out = chain_run
    payload = json.loads(out)
    payload["chain"]["target"]["v"] = [0.0]
    result = _check_chain(expect, payload, tmp_path)
    assert not result.ok


def _simulate(durations):
    x0, v0 = [0.25, -0.5], [1.0, 0.5]
    control = [[d, [0.5]] for d in durations]
    argv = ["simulate", str(HERE / "defs" / "duffing.json"), f"--x0={workloads._vec(x0)}",
            f"--lifted={workloads._vec(v0)}", f"--control={json.dumps(control)}"]
    rc, out = checks.run_cli(cli.main, argv)
    expect = {"kind": "simulate", "x0": x0, "v0": v0, "durations": durations,
              "step": 0.001, "horizon": sum(durations)}
    return expect, rc, out


def test_simulate_checks_rows_end_and_values():
    expect, rc, out = _simulate([0.05, 0.025])
    assert checks.check_simulate(expect, rc, out).ok
    lines = out.splitlines()
    assert not checks.check_simulate(expect, rc, "\n".join(lines[:-1]) + "\n").ok
    bad = lines[:5] + [lines[5].rsplit(",", 1)[0] + ",nan"] + lines[6:]
    assert "non-finite" in checks.check_simulate(expect, rc, "\n".join(bad) + "\n").reason


def test_larc_rank_must_match_recorded_value():
    argv = ["larc", str(HERE / "defs" / "three_field.json"), "--point=0.5,-0.25",
            "--v=1.0,0.5", "--depth", "3"]
    rc, out = checks.run_cli(cli.main, argv)
    assert checks.check_larc({"rank": 4, "depth": 3}, rc, out).ok
    result = checks.check_larc({"rank": 3, "depth": 3}, rc, out)
    assert not result.ok and "recorded value 3" in result.reason


def test_operations_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        first = workloads.operations(name, 7)
        again = workloads.operations(name, 7)
        other = workloads.operations(name, 8)
        a, b, c = next(first), next(again), next(other)
        assert a.argv == b.argv and a.argv != c.argv
