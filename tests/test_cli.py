import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from liftctl import cli, flow
from liftctl.cli import SystemDefinition, _parse_args, build_parser, main
from liftctl.errors import PlanningBudgetError
from liftctl.fields import PolynomialField, _poly_diff, polynomial_kernel
from liftctl.manifold import TangentPoint
from liftctl.planner import SearchOracle, plan_chain

DEFS = Path(__file__).resolve().parent.parent / "defs"
LINE = str(DEFS / "line_shift.json")
FLAT = str(DEFS / "flat_rotation.json")
SPHERE = str(DEFS / "sphere_rotation.json")
DUFFING = str(DEFS.parent / "perfbench" / "defs" / "duffing.json")
SPHERE_TWO_AXIS = str(DEFS.parent / "perfbench" / "defs" / "sphere_two_axis.json")
SRC = DEFS.parent / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shipped_definitions_load():
    for path in (LINE, FLAT, SPHERE):
        defn = SystemDefinition.load(path)
        assert defn.system.n_controls >= 1


def test_simulate_sphere_rotation_half_turn(capsys):
    code, out, _ = run_cli([
        "simulate", SPHERE, "--x0", "1,0,0",
        "--control", json.dumps([[np.pi, [1.0]]]),
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    final = np.array([float(p) for p in lines[-1].split(",")])
    assert final[0] == pytest.approx(np.pi)
    assert np.linalg.norm(final[1:] - np.array([-1.0, 0.0, 0.0])) <= 1e-7


def test_simulate_time_zero_single_row(capsys):
    code, out, _ = run_cli(["simulate", FLAT, "--x0", "1,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + initial state


def test_simulate_lifted_outputs_fiber_columns(capsys):
    code, out, _ = run_cli([
        "simulate", FLAT, "--x0", "1,0", "--lifted", "0,1",
        "--control", json.dumps([[0.5, [0.3]]]), "--format", "json",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["fibers"] is not None


def test_simulate_malformed_definition(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "manifold": {"kind": "flat", "dim": 2},
        "controlled": [],
        "bounds": [],
    }))
    code, _, err = run_cli(["simulate", str(bad), "--x0", "0,0"], capsys)
    assert code == 2
    assert "controlled" in err


def test_simulate_wrong_schema_version(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code, _, err = run_cli(["simulate", str(bad), "--x0", "0,0"], capsys)
    assert code == 2
    assert "schema_version" in err


@pytest.mark.parametrize("definition", [LINE, FLAT, SPHERE])
@pytest.mark.parametrize("suite", ["lift", "flow", "invariance", "rank"])
def test_check_suites_pass_on_shipped_defs(definition, suite, capsys):
    code, out, _ = run_cli(["check", definition, "--suite", suite], capsys)
    report = json.loads(out)
    assert report["passed"], report
    assert code == 0


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(["check", FLAT, "--suite", "nonsense"], capsys)
    assert code == 2
    assert "suite" in err


def test_check_help_lists_the_suites(capsys):
    code, out, _ = run_cli(["check", "-h"], capsys)
    assert code == 0
    assert "--suite {lift,flow,invariance,rank}" in out


def test_chain_line_shift(tmp_path, capsys):
    out_file = tmp_path / "chain.json"
    code, _, _ = run_cli([
        "chain", LINE, "--source", "0;0", "--target", "0;1",
        "--eps", "0.25", "--T", "0.5", "--out", str(out_file),
    ], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["verification"]["passed"]
    assert len(payload["chain"]["legs"]) >= 4


def test_chain_source_equals_target(capsys):
    code, out, _ = run_cli([
        "chain", LINE, "--source", "0;0.5", "--target", "0;0.5",
        "--eps", "0.25", "--T", "0.5",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["passed"]
    assert len(payload["chain"]["legs"]) == 1


def test_chain_steering_failure_names_a_failed_base_rank(capsys):
    """sphere_rotation turns about one axis only: the bracket rank is 1 on
    the sphere, so no search reaches (0, 0, 1) from (1, 0, 0)."""
    code, _, err = run_cli(["chain", SPHERE, "--source=1,0,0;0,1,0",
                            "--target=0,0,1;1,0,0"], capsys)
    assert code == 1
    assert err == ("error: search budget exhausted: best endpoint error 1.571e+00; "
                   "base rank 1 < 2 at the source\n")


def test_chain_steering_failure_at_full_base_rank_keeps_its_message(tmp_path, capsys):
    """A pair the search misses on CI's 25-degree axes plus a drift of 0.2
    times the z-rotation, where no closed form steers; the base rank there
    is 2, so the oracle's message stands alone."""
    definition = tmp_path / "sphere_25deg_drift.json"
    definition.write_text(json.dumps({**SPHERE_25, "drift": {"type": "linear", "matrix": [
        [0.0, -0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]]}}))
    code, _, err = run_cli([
        "chain", str(definition), "--source=0,0,1;0.3,0,0", "--target=0.6,0,-0.8;0,0.3,0",
        "--eps", "0.25", "--T", "0.5",
    ], capsys)
    assert code == 1
    assert err == "error: search budget exhausted: best endpoint error 2.779e-02\n"


def test_chain_verify_only_detects_corruption(tmp_path, capsys):
    out_file = tmp_path / "chain.json"
    code, _, _ = run_cli([
        "chain", LINE, "--source", "0;0", "--target", "0;1",
        "--eps", "0.25", "--T", "0.5", "--out", str(out_file),
    ], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    chain = payload["chain"]
    chain["legs"][0]["jump_target"]["v"][0] += 2 * chain["epsilon"]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(chain))
    code, out, _ = run_cli(["chain", LINE, "--verify-only", str(corrupted)], capsys)
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert any("leg 0" in msg for msg in report["messages"])


def verify_edited_plan(tmp_path, capsys, path, edit):
    """Plan a line_shift chain, apply edit(entry, key) to the entry at path
    of its file, and run --verify-only on the result."""
    out_file = tmp_path / "plan.json"
    code, _, _ = run_cli(["chain", LINE, "--source", "0;0", "--target", "0;1",
                          "--out", str(out_file)], capsys)
    assert code == 0
    chain = json.loads(out_file.read_text())["chain"]
    entry = chain
    for key in path[:-1]:
        entry = entry[key]
    edit(entry, path[-1])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(chain))
    return run_cli(["chain", LINE, "--verify-only", str(broken)], capsys)



@pytest.mark.parametrize("path,message", [
    (("legs", 1, "start", "x", 0), "leg 1: start does not match previous jump target"),
    (("legs", -1, "jump_target", "x", 1), "final jump target does not match the target"),
])
def test_chain_verify_only_joints_agree_within_1e_12(tmp_path, capsys, path, message):
    """A joint moved by 5e-6 in a coordinate of size about 1 fails, named:
    numpy's default relative tolerance of 1e-5 used to pass it."""
    out_file = tmp_path / "plan.json"
    code, _, _ = run_cli(["chain", FLAT, "--source=1,0;0,0", "--target=0,1;1,1",
                          "--eps", "0.1", "--T", "0.5", "--out", str(out_file)], capsys)
    assert code == 0
    chain = json.loads(out_file.read_text())["chain"]
    entry = chain
    for key in path[:-1]:
        entry = entry[key]
    assert abs(entry[path[-1]]) >= 0.5
    entry[path[-1]] += 5e-6
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(chain))
    code, out, _ = run_cli(["chain", FLAT, "--verify-only", str(moved),
                            "--eps", "0.1", "--T", "0.5"], capsys)
    report = json.loads(out)
    assert code == 1 and not report["passed"]
    assert report["messages"] == [message]


def _planned_line_chain(tmp_path, capsys) -> dict:
    out_file = tmp_path / "plan.json"
    code, _, _ = run_cli(["chain", LINE, "--source", "0;0", "--target", "0;1",
                          "--out", str(out_file)], capsys)
    assert code == 0
    return json.loads(out_file.read_text())["chain"]


def test_chain_verify_only_uses_the_callers_epsilon(tmp_path, capsys):
    """A file cannot set its own bar: one leg that jumps 1.0 onto the target,
    with "epsilon": 1e6, fails --eps 0.25 (it used to pass with exit 0)."""
    chain = _planned_line_chain(tmp_path, capsys)
    chain["legs"] = chain["legs"][:1]
    chain["legs"][0]["jump_target"] = chain["target"]
    chain["epsilon"] = 1e6
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(chain))
    code, out, _ = run_cli(["chain", LINE, "--verify-only", str(loose),
                            "--eps", "0.25", "--T", "0.5"], capsys)
    assert code == 1
    report = json.loads(out)
    assert not report["passed"] and not report["legs"][0]["distance_ok"]
    assert report["messages"] == ["leg 0: jump distance 1.000000e+00 exceeds epsilon=0.25"]


@pytest.mark.parametrize("args,message", [
    ([], None),
    (["--T", "5"], "leg 0: duration"),
    (["--eps", "1e-9"], "leg 0: jump distance"),
    (["--source", "1;0"], "leg 0: start does not match the source"),
    (["--target", "0;2"], "final jump target does not match the target"),
])
def test_chain_verify_only_requirement_comes_from_the_flags(tmp_path, capsys, args, message):
    """--eps and --T (0.25 and 0.5 by default), and --source and --target
    where given, are the requirement a chain file is verified against."""
    chain = _planned_line_chain(tmp_path, capsys)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, out, _ = run_cli(["chain", LINE, "--verify-only", str(path), *args], capsys)
    report = json.loads(out)
    assert code == (0 if message is None else 1)
    assert report["passed"] is (message is None)
    assert message is None or any(msg.startswith(message) for msg in report["messages"])

def _scale_start_x(leg):
    leg["start"]["x"] = [2.0 * c for c in leg["start"]["x"]]


@pytest.mark.parametrize("edit,reason", [
    # a control value outside the bounds [-1, 1]
    (lambda leg: leg["control"][0][1].__setitem__(0, 5.0), "control value NaN or outside bounds"),
    # a start fiber along the base point, so not tangent to the sphere
    (lambda leg: leg["start"].__setitem__("v", list(leg["start"]["x"])), "tangency tolerance"),
    # a start base point with |x| = 2
    (_scale_start_x, "|x| deviates from 1"),
], ids=["control_out_of_bounds", "start_not_tangent", "start_off_sphere"])
def test_chain_verify_only_reports_a_leg_it_cannot_integrate(tmp_path, capsys, edit, reason):
    """A leg the verifier cannot re-integrate fails its report entry, named,
    with exit 1 and the JSON report; the first probe used to exit 2 with an
    unnamed error, the other two exit 1 with a bare error and no report."""
    out_file = tmp_path / "plan.json"
    code, _, _ = run_cli(["chain", SPHERE, "--source", "1,0,0;0,1,0",
                          "--target", "0,1,0;0,0,1", "--out", str(out_file)], capsys)
    assert code == 0
    chain = json.loads(out_file.read_text())["chain"]
    assert len(chain["legs"]) >= 3
    edit(chain["legs"][1])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(chain))
    code, out, err = run_cli(["chain", SPHERE, "--verify-only", str(path)], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert not report["passed"]
    assert report["legs"][1]["distance"] is None and not report["legs"][1]["distance_ok"]
    assert all(leg["distance_ok"] for i, leg in enumerate(report["legs"]) if i != 1)
    failures = [msg for msg in report["messages"] if "cannot re-integrate" in msg]
    assert len(failures) == 1 and failures[0].startswith("leg 1: ") and reason in failures[0]


def _flat_definition(tmp_path, drift, vectors, bound) -> str:
    """A flat R^n definition with a linear drift and constant control fields."""
    definition = tmp_path / "flat.json"
    definition.write_text(json.dumps({
        "schema_version": 1, "manifold": {"kind": "flat", "dim": len(drift)},
        "drift": {"type": "linear", "matrix": drift},
        "controlled": [{"type": "constant", "vector": vec} for vec in vectors],
        "bounds": [[-bound, bound]] * len(vectors), "metric": "flat_product",
        "step": 0.001, "seed": 0,
    }))
    return str(definition)


def test_uncovered_fiber_gap_stops_at_the_leg_budget(tmp_path, capsys, monkeypatch):
    """With drift I every round trip's fiber transition expands by e^t, so
    no itinerary's jumps cover this fiber gap, and each round trip, flowed
    from where the last one ended, carries the base farther off the
    target. Round trips stop at the first that leaves that base error past
    eps_eff, which no fiber jump can close, and larger than it was, after
    43 of the 80 legs (the chain used to walk all 80). The itinerary grows with one least-norm solve per itinerary
    tried, so the solves (linear solves and least squares) stay below two
    per leg."""
    definition = _flat_definition(tmp_path, [[1.0, 0.0], [0.0, 1.0]],
                                  [[1.0, 0.0], [0.0, 1.0]], 10.0)
    solves = []
    for name in ("solve", "lstsq"):
        counted = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, f=counted: solves.append(1) or f(*args))
    code, out, _ = run_cli(["chain", definition, "--source=0,0;0.3,0",
                            "--target=1,1;0,-0.3", "--eps", "0.25", "--T", "0.5"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == ("no chain within 43 legs: base error 2.993e-01 at the "
                                "itinerary's end exceeds eps_eff 2.500e-01")
    assert len(payload["partial_chain"]["legs"]) == 43
    assert len(solves) <= 2 * 43


@pytest.mark.parametrize("source,target,legs", [
    ("0,0,0;0.3,0,0", "0.1,0,0;0,0.3,0", 40),
    ("0,0,0;1,1,1", "0,0,0;-1,1,-1", 140),
])
def test_jumps_allocated_by_least_squares_end_in_a_partial_chain(tmp_path, capsys, source,
                                                                 target, legs):
    """Under this flat R^3 drift (eigenvalues -1.43, 0.68 and 0.48) the
    round trips' tails grow until rounding drops the identity from the
    normal equations' W = sum Q_j Q_j^T; solving them exited 2 with
    "Singular matrix" and no chain. The least-squares allocation reaches
    the leg budget instead: exit 1, with the partial chain."""
    drift = [[0.429, -0.508, 0.806], [0.205, 0.33, -0.39], [0.752, -0.497, -1.027]]
    definition = _flat_definition(tmp_path, drift, [[1.425, -0.427, 0.043]], 1000.0)
    code, out, _ = run_cli(["chain", definition, f"--source={source}", f"--target={target}",
                            "--eps", "0.25", "--T", "0.5"], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["error"].startswith(f"no chain within {legs} legs")
    assert len(payload["partial_chain"]["legs"]) == legs


@pytest.mark.parametrize("eps,legs", [(0.001, 65), (1e-4, 40)])
def test_round_trips_stop_once_the_base_error_passes_eps(eps, legs):
    """The search oracle steers flat_rotation's base to about 6e-4, and each
    round trip, flowed from where the last one ended, adds to that error.
    No fiber jump can close it, so planning stops at the first round trip
    that leaves it past eps_eff without shrinking it, and names it; at eps
    0.001 the chain used to walk 20,020 legs in 9.4 s, and at 1e-4 it ran
    past 60 s. The CLI steers flat_rotation in closed form, so the search
    is built here; PlanningBudgetError is the CLI's exit 1."""
    defn = SystemDefinition.load(FLAT)
    source = TangentPoint(np.array([1.0, 0.0]), np.zeros(2))
    target = TangentPoint(np.array([0.0, 1.0]), np.ones(2))
    start = time.perf_counter()
    with pytest.raises(PlanningBudgetError) as info:
        plan_chain(defn.system, SearchOracle(defn.system), source, target, eps, 0.5,
                   step=defn.step, seed=defn.seed)
    assert time.perf_counter() - start < 1.0
    head, _, tail = str(info.value).partition(" at the itinerary's end exceeds eps_eff ")
    assert head.startswith(f"no chain within {legs} legs: base error ")
    assert float(head.rsplit(" ", 1)[1]) > float(tail) == pytest.approx(eps)
    assert len(info.value.best_chain.legs) == legs


def test_flat_rotation_verifies_at_a_small_eps(capsys):
    """The closed-form plan lands on the target base, so round trips add no
    base error, and the pair whose search plan stopped at 65 legs (above)
    verifies at eps 0.001."""
    code, out, _ = run_cli(["chain", FLAT, "--source=1,0;0,0", "--target=0,1;1,1",
                            "--eps", "0.001", "--T", "0.5"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["verification"]["passed"] is True
    assert len(payload["chain"]["legs"]) == 1419


def test_double_integrator_chain_verifies(tmp_path, capsys):
    """On the double integrator (nilpotent drift, one constant control) the
    fiber flow is a shear, not norm-preserving. The least-norm jump
    allocation still closes the fiber gap, within 25 legs; the pullback
    phases this replaced ran out of all 110 legs."""
    definition = _flat_definition(tmp_path, [[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0]], 50.0)
    code, out, _ = run_cli(["chain", definition, "--source=0,0;1,0",
                            "--target=1.5,0;0,1", "--eps", "0.25", "--T", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["passed"]
    assert len(payload["chain"]["legs"]) <= 25


# the double integrator, and rotations about two axes 25 degrees apart on S2
DOUBLE_INTEGRATOR = {"schema_version": 1, "manifold": {"kind": "flat", "dim": 2},
                     "drift": {"type": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]]},
                     "controlled": [{"type": "constant", "vector": [0.0, 1.0]}],
                     "bounds": [[-50.0, 50.0]], "metric": "flat_product", "step": 0.001, "seed": 0}
SPHERE_25 = {"schema_version": 1, "manifold": {"kind": "sphere2"},
             "controlled": [{"type": "linear", "matrix": [[0.0, -0.2687, -0.1204], [0.2687, 0.0, -0.8955],
                                                         [0.1204, 0.8955, 0.0]]},
                            {"type": "linear", "matrix": [[0.0, -0.2678, 0.8042], [0.2678, 0.0, -2.9609],
                                                         [-0.8042, 2.9609, 0.0]]}],
             "bounds": [[-1.0, 1.0], [-1.0, 1.0]], "step": 0.001, "seed": 0}


@pytest.mark.parametrize("definition,eps,T,flags", [
    (LINE, "0.05", "0.5", ["--source=0;0", "--target=3;-5"]),
    (LINE, "0.25", "0.01", ["--source=0;0", "--target=1;0"]),
    (LINE, "0.25", "1e-4", ["--source=0;0", "--target=1;0", "--max-legs=2000"]),
    (FLAT, "0.1", "0.5", ["--source=1,0;0,0", "--target=0,1;1,1"]),
    (SPHERE, "0.1", "0.5", ["--source=1,0,0;0,1,0", "--target=0,1,0;0,0,1"]),
    (SPHERE_TWO_AXIS, "0.25", "0.5", ["--source=1,0,0;0,0.1,0", "--target=-1,0,0;0,0.1,0"]),
    (SPHERE_TWO_AXIS, "0.25", "0.5", ["--source=0,0,1;0.9,0,0", "--target=0,1,0;0,0,-0.9"]),
    (SPHERE_TWO_AXIS, "0.25", "0.5", ["--source=0,1,0;0.3,0,0", "--target=0,1,0;0,0,0.3"]),
    (DOUBLE_INTEGRATOR, "0.25", "0.5", ["--source=0,0;1,0", "--target=1.5,0;0,1"]),
    (SPHERE_25, "0.25", "0.5", ["--source=0,0,1;0.3,0,0", "--target=0.6,0,-0.8;0,0.3,0"]),
    (DUFFING, "0.25", "0.5", ["--source=0.36470373,-0.89235796;-1.2963764,1.24837803",
                              "--target=-0.55928025,-0.63125638;1.69337999,-0.89370241"]),
], ids=["line", "line-T0.01", "line-T1e-4", "flat_rotation", "sphere_rotation", "antipodal",
        "round-trip", "coincident-S2", "double_integrator", "sphere_25deg", "duffing"])
def test_a_planned_chains_verification_is_the_verify_only_report_of_it(tmp_path, capsys, definition,
                                                                       eps, T, flags):
    """On every chain the CI plans, the planned payload's verification is
    what --verify-only reports on its chain block: both are one verify_chain
    call against the flags."""
    if isinstance(definition, dict):
        (tmp_path / "definition.json").write_text(json.dumps(definition))
        definition = str(tmp_path / "definition.json")
    code, out, _ = run_cli(["chain", definition, *flags, "--eps", eps, "--T", T], capsys)
    payload = json.loads(out)
    (tmp_path / "chain.json").write_text(json.dumps(payload["chain"]))
    verified = run_cli(["chain", definition, "--verify-only", str(tmp_path / "chain.json"),
                        "--eps", eps, "--T", T], capsys)
    assert code == 0 and payload["verification"]["passed"] is True
    assert verified == (0, json.dumps(payload["verification"], indent=2) + "\n", "")


@pytest.mark.parametrize("path,named", [
    (("legs",), "legs"), (("epsilon",), "epsilon"), (("T",), "T"),
    (("source",), "source"), (("target",), "target"),
    (("legs", 0, "control"), "legs[0].control"), (("legs", 0, "start", "v"), "legs[0].start"),
])
def test_chain_verify_only_malformed_file(tmp_path, capsys, path, named):
    """A chain file lacking a required key exits 2 with an error naming it."""
    def delete(entry, key):
        del entry[key]

    code, out, err = verify_edited_plan(tmp_path, capsys, path, delete)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}:")


@pytest.mark.parametrize("path,value,named", [
    (("T",), float("-inf"), "T"), (("epsilon",), float("inf"), "epsilon"),
    (("step",), float("inf"), "step"), (("epsilon",), -0.1, "epsilon"),
    (("legs", 0, "start", "x"), [float("nan")], "legs[0].start"),
    (("epsilon",), True, "epsilon"), (("T",), True, "T"), (("step",), True, "step"),
    (("seed",), True, "seed"), (("legs", 0, "duration"), True, "legs[0].duration"),
    (("legs", 0, "start", "x"), [False], "legs[0].start"),
    (("legs", 0, "start", "x"), ["0"], "legs[0].start"),
    (("legs", 0, "duration"), "1.0", "legs[0].duration"),
    (("seed",), 7.9, "seed"), (("epsilon",), "0.25", "epsilon"), (("seed",), -1, "seed"),
    (("legs", 0, "control"), {"a": 1}, "legs[0].control"),
    (("legs", 0, "control"), [[0.5, [[0.5]]]], "legs[0].control"),
    # a list where one number belongs
    (("epsilon",), [0.25], "epsilon"), (("step",), [0.001], "step"), (("seed",), [1], "seed"),
    (("legs", 0, "duration"), [1.0], "legs[0].duration"),
])
def test_chain_verify_only_rejects_bad_numbers(tmp_path, capsys, path, value, named):
    """A chain file cannot lower the bar: an epsilon, T or step that is not
    positive and finite, a non-finite point, or a boolean where a number
    belongs, exits 2 naming the entry (an infinite epsilon or a T of
    -Infinity used to verify with exit 0, true read as 1.0, "1.0" as 1.0,
    a seed of 7.9 as 7 and a seed of -1 passed)."""
    def assign(entry, key):
        entry[key] = value

    code, out, err = verify_edited_plan(tmp_path, capsys, path, assign)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}:")


@pytest.mark.parametrize("key,value,message", [
    ("epsilon", [0.25], "expected a finite number, got [0.25]"),
    ("seed", [1], "expected an integer, got [1]"),
])
def test_a_list_where_one_number_belongs_is_named_in_its_own_words(tmp_path, capsys, key, value,
                                                                  message):
    """A one-number entry given as a list is refused by the rule for one
    number, not by numpy's scalar conversion (it used to read "malformed:
    TypeError('only 0-dimensional arrays can be converted ...')")."""
    def assign(entry, name):
        entry[name] = value

    code, out, err = verify_edited_plan(tmp_path, capsys, (key,), assign)
    assert (code, out, err) == (2, "", f"error: {key}: {message}\n")


def test_a_chain_step_whose_half_underflows_is_named(tmp_path, capsys):
    """A chain file's step of 5e-324 is positive and finite, but its half,
    the step at which the legs are re-integrated, is 0.0: every leg used to
    fail, exit 1 ("cannot re-integrate: step must be positive and finite,
    got 0.0"). The file's step is named now, exit 2."""
    def assign(entry, name):
        entry[name] = 5e-324

    code, out, err = verify_edited_plan(tmp_path, capsys, ("step",), assign)
    assert (code, out) == (2, "")
    assert err == ("error: step: must be positive at half its value, where legs are "
                   "re-integrated, got 5e-324\n")


def test_chain_verify_only_ill_typed_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"legs": 5, "epsilon": 0.1, "T": 0.5}))
    code, _, err = run_cli(["chain", FLAT, "--verify-only", str(bad)], capsys)
    assert code == 2
    assert "legs" in err


def test_chain_verify_only_file_that_is_not_json(tmp_path, capsys):
    """A chain file that is not JSON exits 2 naming the flag and the file,
    as a definition file that is not JSON is named by its path (the error
    used to read "Expecting value: line 1 column 1 (char 0)" alone)."""
    bad = tmp_path / "chain.txt"
    bad.write_text("not json")
    code, out, err = run_cli(["chain", FLAT, "--verify-only", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --verify-only {bad}: invalid JSON: Expecting value")


@pytest.mark.parametrize("args,where", [
    (["chain", LINE, "--verify-only", "{f}"], "--verify-only {f}"),
    (["check", "{f}", "--suite", "lift"], "{f}"),
    (["simulate", LINE, "--x0", "0", "--control=@{f}"], "control"),
])
def test_file_that_is_not_utf8_is_named(tmp_path, capsys, args, where):
    """A chain, definition or control file that is not UTF-8 exits 2 naming
    the flag or the file, as invalid JSON does (the error used to be the
    codec's words alone)."""
    bad = tmp_path / "bom16.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli([a.format(f=bad) for a in args], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where.format(f=bad)}: invalid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("target", ["0.14;0", "1;0"])
def test_chain_file_with_no_leg_fails(tmp_path, capsys, target):
    """A chain file with no leg fails --verify-only, exit 1, with one
    message, whether or not source and target lie within epsilon (it used
    to pass when they did)."""
    x, v = target.split(";")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"epsilon": 0.25, "T": 0.5, "source": {"x": [0.0], "v": [0.0]},
                                 "target": {"x": [float(x)], "v": [float(v)]}, "legs": []}))
    code, out, _ = run_cli(["chain", LINE, "--verify-only", str(empty)], capsys)
    assert code == 1
    assert json.loads(out) == {"passed": False, "legs": [], "messages": ["a chain needs at least one leg"]}


@pytest.mark.parametrize("edit,args,named", [
    (lambda data: [data], ["simulate", "--x0=1,0"], "<root>"),
    (lambda data: {**data, "manifold": "flat"}, ["simulate", "--x0=1,0"], "manifold"),
    (lambda data: {**data, "manifold": {"kind": "torus"}}, ["simulate", "--x0=1,0"], "manifold.kind"),
    (lambda data: {**data, "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}, ["simulate", "--x0=1,0"], "bounds"),
    (lambda data: data, ["simulate", "--x0=1,a"], "--x0"),
    (lambda data: data, ["simulate", "--x0=1,0,0"], "--x0"),
    (lambda data: data, ["chain", "--source=0", "--target=0,1;0,0"], "--source"),
])
def test_definition_and_flag_entries_are_named(tmp_path, capsys, edit, args, named):
    """A definition that is not an object, a manifold that is not one or of
    an unknown kind, bounds of another count than the controlled fields, an
    --x0 that is not floats or of the wrong dimension, and a --source with
    no fiber part each exit 2 naming the entry."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(Path(FLAT).read_text()))))
    code, out, err = run_cli([args[0], str(bad), *args[1:]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}:")


@pytest.mark.parametrize("changes,field", [
    ({"step": True}, "step"),
    ({"step": float("nan")}, "step"),
    ({"seed": True}, "seed"),
    ({"bounds": [[float("nan"), float("nan")]]}, "bounds"),
    ({"controlled": [{"type": "constant", "vector": [float("nan")]}]}, "controlled[0]"),
    ({"drift": {"type": "linear", "matrix": [[float("inf")]]}}, "drift"),
    ({"drift": {"type": "polynomial", "components": [[[float("nan"), [1]]]]}}, "drift"),
    ({"drift": 5}, "drift"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [-1]]]]}}, "drift"),
    ({"controlled": [{"type": "polynomial", "components": [[[1.0, [1, 0]]]]}]},
     "controlled[0]"),
    ({"drift": {"type": "zero", "dim": 2}}, "drift"),
    ({"manifold": {"kind": "flat", "dim": 1.7}}, "manifold.dim"),
    ({"manifold": {"kind": "flat", "dim": "1"}}, "manifold.dim"),
    ({"drift": {"type": "linear", "matrix": [[False]]}}, "drift"),
    ({"drift": {"type": "linear", "matrix": [["0"]]}}, "drift"),
    ({"bounds": [["-2", "2"]]}, "bounds"),
    ({"bounds": [[False, True]]}, "bounds"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [1.5]]]]}}, "drift"),
    ({"drift": {"type": "polynomial", "components": [[["1.0", [1]]]]}}, "drift"),
    ({"drift": {"type": "zero", "dim": 1.5}}, "drift"),
    ({"bounds": [[-10 ** 400, 10]]}, "bounds"),
    # a seed numpy refuses, from the definition or from the environment, which overrides it
    ({"seed": -1}, "seed"),
    ({"LIFTCTL_SEED": "abc"}, "LIFTCTL_SEED"),
    ({"LIFTCTL_SEED": "-3"}, "LIFTCTL_SEED"),
    # a seed past the float range, which a chain file's seed rule refuses (it used to load)
    ({"seed": 10 ** 400}, "seed"),
    # a list where one number belongs
    ({"step": [0.001]}, "step"),
    ({"seed": [2]}, "seed"),
    ({"manifold": {"kind": "flat", "dim": [1]}}, "manifold.dim"),
    ({"drift": {"type": "zero", "dim": [1]}}, "drift"),
    ({"drift": {"type": "polynomial", "components": [[[[1.0], [1]]]]}}, "drift"),
])
def test_definition_rejects_non_finite_and_boolean_entries(tmp_path, capsys, monkeypatch, changes,
                                                           field):
    data = json.loads(Path(LINE).read_text())
    for key, value in changes.items():
        if key == "LIFTCTL_SEED":
            monkeypatch.setenv(key, value)
        else:
            data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["simulate", str(bad), "--x0", "0",
                              "--control", "[[0.003,[0.5]]]"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}:")


@pytest.mark.parametrize("dim", [-1, 0])
def test_a_zero_field_dim_below_one_is_named(tmp_path, capsys, dim):
    """A zero field of dim -1 used to exit 2 in numpy's words ("negative
    dimensions are not allowed"), and one of dim 0 as a field of the wrong
    dimension; both name the field's dim now."""
    data = json.loads(Path(LINE).read_text())
    data["drift"] = {"type": "zero", "dim": dim}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["simulate", str(bad), "--x0", "0", "--control", "[[0.003,[0.5]]]"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: drift: zero field dim must be at least 1, got {dim}\n"


CUBE_DRIFT = {"drift": {"type": "polynomial", "components": [
    [[1.0, [1, 0, 0]]], [[1.0, [0, 1, 0]]], [[1.0, [0, 0, 1]]]]}}


@pytest.mark.parametrize("path,changes,named,args", [
    (FLAT, CUBE_DRIFT, "drift", ["simulate", "--x0", "1,0", "--control", "[[0.01,[0.5]]]"]),
    (FLAT, CUBE_DRIFT, "drift", ["larc", "--point", "1,0"]),
    (FLAT, CUBE_DRIFT, "drift", ["check", "--suite", "lift"]),
    (SPHERE, {"controlled": [{"type": "constant", "vector": [1.0, 0.0]}]}, "controlled[0]",
     ["simulate", "--x0", "1,0,0"]),
    (FLAT, {}, "--depth", ["larc", "--point", "1,0", "--depth", "0"]),
    (SPHERE, {"controlled": [{"type": "constant", "vector": [1.0, 0.0, 0.0]}]}, "controlled[0]",
     ["simulate", "--x0", "1,0,0"]),
    (SPHERE, {"drift": {"type": "constant", "vector": [1.0, 0.0, 0.0]}}, "drift",
     ["check", "--suite", "lift"]),
])
def test_wrong_field_dimension_and_depth_are_named(tmp_path, capsys, path, changes, named,
                                                    args):
    """A field whose dimension is not the manifold's ambient dimension exits
    2 naming the field, whichever command loads it (simulate used to fail on
    a broadcast error, larc with an IndexError traceback, check on a matmul
    error, and the sphere case was blamed on bounds); so does a field that
    is not tangent to the sphere (blamed on bounds, too), and larc --depth 0."""
    data = json.loads(Path(path).read_text())
    data.update(changes)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli([args[0], str(bad), *args[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}:")


@pytest.mark.parametrize("path,metric", [
    (SPHERE, "flat_product"), (FLAT, "sasaki"), (LINE, 1),
])
def test_definition_rejects_unknown_or_misplaced_metric(tmp_path, capsys, path, metric):
    """The distance follows the manifold, but the metric name is still
    checked: flat_product on the sphere, or an unknown name, exits 2."""
    data = json.loads(Path(path).read_text())
    data["metric"] = metric
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["check", str(bad), "--suite", "lift"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: metric:")


def test_transport_surrogate_on_flat_still_loads(tmp_path, capsys):
    data = json.loads(Path(LINE).read_text())
    data["metric"] = "transport_surrogate"
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(data))
    code, _, _ = run_cli(["chain", str(ok), "--source", "0;0", "--target", "0;1"], capsys)
    assert code == 0


@pytest.mark.parametrize("args", [
    ["--x0", "0", "--control", "[[0.003,[NaN]]]"],
    ["--x0", "0", "--control", "[[NaN,[0.5]]]"],
    ["--x0", "0", "--control", "[[Infinity,[0.5]]]"],
    ["--x0", "nan"],
])
def test_simulate_rejects_non_finite_inputs(capsys, args):
    code, out, err = run_cli(["simulate", LINE, *args], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("args,named", [
    (["simulate", "--x0=1,0,0.1"], "--x0"),
    (["simulate", "--x0=1,0,0", "--lifted=1,0,0"], "--lifted"),
    (["larc", "--point=1,0,0.1"], "--point"),
    (["larc", "--point=1,0,0", "--v=1,0,0"], "--v"),
    (["chain", "--source=1,0,0.1;0,1,0", "--target=0,1,0;0,0,1"], "--source"),
    (["chain", "--source=1,0,0;0,1,0", "--target=0,1,0;0,1,0"], "--target"),
])
def test_points_off_the_sphere_or_not_tangent_are_named(capsys, args, named):
    """A command-line point off the sphere, or a fiber not tangent at its
    point, used to exit 1 with an error that named no flag; it now exits 2
    naming the flag, as a non-finite one does."""
    code, out, err = run_cli([args[0], SPHERE, *args[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}:")


def refuse_stepping(monkeypatch):
    """Make any segment, step, kernel loop or matrix power fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("stepped before the step was refused")
    monkeypatch.setattr(flow, "_stages", refuse)
    monkeypatch.setattr(flow.AffineSystem, "_polynomial_kernel", property(refuse))
    monkeypatch.setattr(flow, "_advance", refuse)
    monkeypatch.setattr(flow, "_power", refuse)


@pytest.mark.parametrize("step,message", [
    ("inf", "must be positive and finite"),
    ("nan", "must be positive and finite"),
    ("1e-300", f"more than MAX_GRID_STEPS = {flow.MAX_GRID_STEPS}"),
])
def test_simulate_step_is_named_and_its_grid_capped(capsys, monkeypatch, step, message):
    """--step inf used to run one step per segment, --step nan failed with
    an unnamed error and --step 1e-300 ran until killed; each now exits 2
    naming --step before any step."""
    refuse_stepping(monkeypatch)
    code, out, err = run_cli(["simulate", FLAT, "--x0", "1,0", "--step", step,
                              "--control", "[[1,[0.5]]]"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --step:") and message in err


@pytest.mark.parametrize("path,args", [
    (FLAT, ["simulate", "--x0", "1,0", "--control", "[[1,[0.5]]]"]),
    (FLAT, ["simulate", "--x0", "1,0", "--lifted", "0,1", "--control", "[[1,[0.5]]]"]),
    (FLAT, ["check", "--suite", "flow"]),
    (LINE, ["chain", "--source=0;0", "--target=3;-5", "--eps", "0.05"]),
    (DUFFING, ["simulate", "--x0", "0.4,-0.3", "--lifted", "1,0.5", "--control", "[[1,[0.5]]]"]),
])
def test_definition_step_past_the_grid_cap_is_named(tmp_path, capsys, monkeypatch, path,
                                                     args):
    """A definition with "step": 1e-300 loads (the step is positive and
    finite), but every run it asks for is refused before its first step,
    exit 2 naming step. (The chain takes the Gramian oracle, which does not
    integrate; a search oracle steps on its own grid.)"""
    data = json.loads(Path(path).read_text())
    data["step"] = 1e-300
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(data))
    refuse_stepping(monkeypatch)
    code, out, err = run_cli([args[0], str(tiny), *args[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: step: the grid has more than MAX_GRID_STEPS")


@pytest.mark.parametrize("legs", ["0", "-3"])
@pytest.mark.parametrize("args", [["--source=0;0", "--target=0;0.1"],
                                  ["--source=0;0", "--target=3;-5"],
                                  ["--verify-only", "chain.json"]])
def test_chain_max_legs_below_one_is_named(capsys, monkeypatch, args, legs):
    """--max-legs 0 or -3 used to print a verified 1-leg chain for a pair
    within reach (the single-leg shortcut ignored the budget), "no chain
    within -3 legs" with exit 1 for a farther pair, and to pass unread with
    --verify-only; each now exits 2 naming --max-legs before any
    integration or file read."""
    refuse_stepping(monkeypatch)
    code, out, err = run_cli(["chain", LINE, *args, f"--max-legs={legs}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --max-legs: must be at least 1, got {legs}")


def test_chain_missing_source(capsys):
    code, _, err = run_cli(["chain", LINE, "--eps", "0.25", "--T", "0.5"], capsys)
    assert code == 2
    assert "--source" in err


def test_larc_reports(capsys):
    code, out, _ = run_cli(["larc", FLAT, "--point", "1,1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["lifted"] is False

    code, out, _ = run_cli(["larc", FLAT, "--point", "1,1", "--v", "0,1"], capsys)
    report = json.loads(out)
    assert report["lifted"] is True
    assert report["rank"] <= 2


def test_outputs_deterministic(capsys):
    args = ["larc", SPHERE, "--point", "1,0,0", "--v", "0,1,0"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    args = ["check", LINE, "--suite", "rank"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("args", [["check", "--suite", "lift"],
                                  ["chain", "--source=0;0", "--target=0;0.1"]])
def test_negative_seed_is_named_by_every_command(tmp_path, capsys, args):
    """A definition with "seed": -1 used to exit 2 under check with only
    "error: expected non-negative integer", and chain wrote seed -1 into
    the chain it planned; both now exit 2 naming seed before any run."""
    data = json.loads(Path(LINE).read_text())
    data["seed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli([args[0], str(bad), *args[1:]], capsys)
    assert code == 2 and out == ""
    assert err == "error: seed: must be a non-negative integer, got -1\n"


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIFTCTL_SEED", "123")
    defn = SystemDefinition.load(LINE)
    assert defn.seed == 123
    monkeypatch.delenv("LIFTCTL_SEED")
    assert SystemDefinition.load(LINE).seed == 7


def test_usage_error_exit_code(capsys):
    assert main(["simulate"]) == 2  # missing required arguments
    assert main(["unknown-command"]) == 2


@pytest.mark.parametrize("control", [
    "5", "[[0.5,[0.1]],3]", "[[1]]", '{"a": 1}', "nope", '[[1,"a"]]',
    "[[true,[0.1]]]", "[[0.5,[false]]]", "@/nonexistent/control.json",
    "[[0.5,[[0.5]]]]", "[[0.5,0.3]]", "[[[0.5],[0.1]]]",
])
def test_simulate_malformed_control_is_named(capsys, control):
    """Every malformed --control exits 2 naming control: a bare number or a
    stray entry used to end in a TypeError traceback, true read as 1.0, and
    a nested value list as "segment has 1 channels, expected 1"."""
    code, out, err = run_cli(["simulate", LINE, "--x0", "0", "--control", control], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: control:")


def test_larc_depth_beyond_the_column_limit_is_named(capsys):
    """--depth 40 on two fields would bracket about 2^40/40 Lyndon words; it
    exits 2 naming --depth at once instead (it used to run until killed)."""
    start = time.perf_counter()
    code, out, err = run_cli(["larc", LINE, "--point", "0", "--depth", "40"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: --depth:")


@pytest.mark.parametrize("control,message", [
    ([[0.5, [[0.5]]]], "segment 0: expected [duration, [u, ...]], got [number, [[number]]]"),
    ({"a": 1}, "expected a list of [duration, [u, ...]] segments, got object"),
    ([[0.5, [0.1]], [0.2, 0.1]], "segment 1: expected [duration, [u, ...]], got [number, number]"),
    ([[0.5, [0.1]], [True, [0.1]]], "segment 1: expected finite numbers, got True"),
])
def test_malformed_control_segment_names_its_index_and_shape(tmp_path, capsys, control, message):
    """--control and a chain file's leg control name the segment that is not
    a [duration, [u, ...]] pair with a flat value list, and the shape it
    got, in the same words. An object used to fail with "not enough values
    to unpack", and a chain file's words used to be wrapped in
    "malformed: ValueError(...)"."""
    code, out, err = run_cli(["simulate", LINE, "--x0", "0", "--control", json.dumps(control)], capsys)
    assert (code, out, err) == (2, "", f"error: control: {message}\n")
    code, out, err = verify_edited_plan(tmp_path, capsys, ("legs", 0, "control"),
                                        lambda entry, key: entry.__setitem__(key, control))
    assert (code, out, err) == (2, "", f"error: legs[0].control: {message}\n")


@pytest.mark.parametrize("text,message", [
    (None, "cannot read file: [Errno 2] No such file or directory: "),
    ("[[0.5, [0.1]]", "invalid JSON: Expecting ',' delimiter: line 1 column 14 (char 13)"),
])
def test_control_file_errors_read_as_verify_only_ones(tmp_path, capsys, text, message):
    """A --control=@file that cannot be read or is not JSON exits 2 naming
    control, in the words a bad --verify-only file gets (the file's own
    error used to follow "control: " with no such words)."""
    path = tmp_path / ("missing.json" if text is None else "bad.json")
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(["simulate", LINE, "--x0", "0", f"--control=@{path}"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: control: {message}")


def test_control_channel_count_names_the_segment(capsys):
    code, out, err = run_cli(["simulate", LINE, "--x0", "0", "--control",
                              "[[0.5,[0.1]],[0.2,[0.1,0.2]]]"], capsys)
    assert (code, out, err) == (
        2, "", "error: control: has 2 channels, system expects 1, in segment 1\n")


@pytest.mark.parametrize("control,message", [
    ("[[0.5,[0.1]],[0,[0.5]]]", "segment durations must be positive and finite: segment 1 lasts 0.0"),
    ("[[0.5,[0.1]],[0.5,[50]]]",
     "value NaN or outside bounds: segment 1, channel 0 is 50.0, bounds [-10.0, 10.0]"),
])
def test_control_errors_name_the_segment_and_the_bounds(capsys, control, message):
    """A zero duration used to be reported with no index, and a value
    outside the bounds as "control value NaN or outside bounds" alone,
    naming neither control, its segment nor the bound."""
    code, out, err = run_cli(["simulate", LINE, "--x0", "0", "--control", control], capsys)
    assert (code, out, err) == (2, "", f"error: control: {message}\n")


def test_chain_oracle_plan_outside_the_bounds_is_a_steering_failure(capsys):
    """The Gramian plan from 0 to 30 on line_shift asks u = 30 for 1 s
    against bounds [-10, 10]. It used to exit 2 with a bare "control value
    NaN or outside bounds", as if the caller had passed a bad control."""
    code, out, err = run_cli(["chain", LINE, "--source=0;0", "--target=30;0"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: LinearGramianOracle plan: control value NaN or outside "
                          "bounds: segment 0, channel 0 is 30")
    assert err.endswith(", bounds [-10.0, 10.0]\n")


def test_chain_between_antipodal_sphere_points_plans_and_verifies(tmp_path, capsys):
    """Antipodal base points have no unique geodesic, so their transport
    surrogate distance is refused. The planner used to start with it and
    exit 1 naming the antipodes; it needs it only for a base gap within eps."""
    args = ["--source=1,0,0;0,0.1,0", "--target=-1,0,0;0,0.1,0"]
    code, out, _ = run_cli(["chain", SPHERE_TWO_AXIS, *args], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["verification"]["passed"]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(payload["chain"]))
    code, out, _ = run_cli(["chain", SPHERE_TWO_AXIS, *args, f"--verify-only={chain}"], capsys)
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("path,args", [
    (LINE, ["--source=1e300;0", "--target=0;1"]),
    (FLAT, ["--source=1e300,0;0,0", "--target=0,1;1,1"]),
    (FLAT, ["--source=1e300,0;0,0", "--target=0,1;1,1", "--max-legs", "10"]),
])
def test_chain_between_points_too_far_apart_is_named(capsys, path, args):
    """A gap past the float range used to end in numpy's overflow warning
    and an OverflowError traceback from the default leg budget."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["chain", path, *args], capsys)
    assert (code, out, err) == (2, "", "error: source and target are too far apart to plan: "
                                       "gap inf\n")


@pytest.mark.parametrize("T,budget", [(0.01, 60), (1e-4, 60), (1e-4, 2000)])
def test_a_small_T_cuts_the_plan_within_the_leg_budget(capsys, T, budget):
    """The 1 s plan is cut into at most the leg budget's legs (60 is the
    default here), none shorter than the definition's step of 0.001. It
    used to be cut into about 1 / T legs, of which the walk read the
    budget's: at T 0.01 the chain ran out of them, and at 1e-4 it
    integrated 9,999 and failed."""
    start = time.perf_counter()
    code, out, _ = run_cli(["chain", LINE, "--source=0;0", "--target=1;0", "--T", str(T),
                            f"--max-legs={budget}"], capsys)
    assert time.perf_counter() - start < 2.0
    payload = json.loads(out)
    assert code == 0 and payload["verification"]["passed"]
    legs = payload["chain"]["legs"]
    # the last leg is the plan's rest after the others, short of the step by rounding
    assert len(legs) <= budget and min(leg["duration"] for leg in legs) > 0.001 - 1e-12


# One argv per subcommand: CSV and lifted JSON runs, a suite, a chain and a rank
REUSE_CASES = [
    ["simulate", FLAT, "--x0", "1,0", "--control", "[[0.5,[0.3]]]"],
    ["simulate", FLAT, "--x0", "1,0", "--lifted", "0,1", "--control", "[[0.5,[0.3]]]", "--format", "json"],
    ["check", LINE, "--suite", "flow"],
    ["chain", LINE, "--source", "0;0", "--target", "0;1"],
    ["larc", SPHERE, "--point", "1,0,0", "--v", "0,1,0"],
]


def test_repeated_calls_print_the_same(capsys):
    """Each argv gives the same exit code and stdout, byte for byte, when run
    first, run again, and run after every other subcommand."""
    runs = [[run_cli(argv, capsys), run_cli(argv, capsys)] for argv in REUSE_CASES]
    for argv, results in zip(REUSE_CASES, runs):
        results.append(run_cli(argv, capsys))
        assert results[0][0] == 0 and results[0][1]
        assert results == [results[0]] * 3


def test_a_flag_does_not_carry_into_the_next_call(tmp_path, capsys):
    argv = ["chain", LINE, "--source", "0;0", "--target", "0;1"]
    want = run_cli(argv, capsys)
    code, out, _ = run_cli([*argv, "--max-legs", "3"], capsys)
    assert code == 1 and len(json.loads(out)["partial_chain"]["legs"]) == 3
    assert run_cli(argv, capsys) == want
    out_file = tmp_path / "chain.json"
    assert run_cli([*argv, "--out", str(out_file)], capsys) == (0, "", "")
    assert out_file.read_text() == want[1]
    assert run_cli(argv, capsys) == want


def test_usage_errors_and_help_between_calls_change_nothing(capsys):
    argv = ["larc", FLAT, "--point", "1,1", "--v", "0,1"]
    want = run_cli(argv, capsys)
    usage = run_cli(["larc", FLAT, "--v", "0,1"], capsys)  # --point missing
    assert usage[0] == 2 and "--point" in usage[2]
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and out.startswith("usage: liftctl")
    assert run_cli(["larc", "--help"], capsys)[0] == 0
    assert run_cli(argv, capsys) == want
    assert run_cli(["larc", FLAT, "--v", "0,1"], capsys) == usage


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus", "larc"], ["larc", "--help"], ["chain", "-h"], ["larc", FLAT],
    ["larc", FLAT, "--point", "1,1", "extra"], ["check", FLAT, "--suite"],
    ["simulate", FLAT, "--x0", "1,0", "--format", "xml"], ["chain", FLAT, "--max-legs", "x"],
    ["larc", FLAT, "--point", "1,1", "--bogus"], ["larc", FLAT, "--point", "1,1", "--bogus=3"],
    ["larc", FLAT, "--point", "1,1", "-x"], ["larc", FLAT, "--point", "1,1", "-"],
    ["larc", FLAT, "--point", "1,1", "--", "x"], ["larc", "--", "x"], ["larc", FLAT, "--point"],
    ["larc", FLAT, "--point", "1,1", "--v", "-0.5,1"], ["chain", FLAT, "--max", "x"],
    ["larc", "-h", "--point"], ["larc", FLAT, "--point", "1,1", "--h"],
])
def test_main_prints_what_the_whole_parser_prints(capsys, argv):
    """main builds only the parser of the subcommand its argv starts with,
    and the whole parser for leftover arguments. Its help, usage errors and
    exit codes are those of the parser of every subcommand, top-level usage
    included."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    want = (2 if exc.value.code not in (0, None) else 0, captured.out, captured.err)
    assert run_cli(argv, capsys) == want


@pytest.mark.parametrize("argv", [
    ["larc", FLAT, "--point", "1,1", "--dep", "3"], ["larc", FLAT, "--point=1,1", "--v=-0.5,1"],
    ["simulate", FLAT, "--x0=-1,0", "--x0=2,0"], ["chain", FLAT, "--verify", "f"],
    ["simulate", FLAT, "--x0", "1,0", "--format", "json", "--format", "csv"],
])
def test_main_parses_what_the_whole_parser_parses(argv):
    """An argv that starts with a subcommand and leaves nothing over is
    parsed by that subcommand's parser alone into the whole parser's
    namespace, less `command`: abbreviations, --flag=value, negative
    numbers after `=` and repeated flags (the last wins) included."""
    want = vars(build_parser().parse_args(argv))
    assert want.pop("command") == argv[0]
    assert vars(_parse_args(argv)) == want


@pytest.mark.parametrize("verify_only", [False, True])
def test_a_tiny_step_is_refused_without_a_numpy_warning(tmp_path, capsys, verify_only):
    """A step so small that the durations divided by it overflow used to
    print numpy's "overflow encountered in divide" before the refusal. A
    --step is refused in one stderr line, exit 2; a chain file's step fails
    every leg, exit 1, with nothing on stderr."""
    def assign(entry, name):
        entry[name] = 1e-323  # positive at half, where the legs are re-integrated

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if verify_only:
            code, out, err = verify_edited_plan(tmp_path, capsys, ("step",), assign)
        else:
            code, out, err = run_cli(["simulate", LINE, "--x0=0", "--control=[[1,[0]]]",
                                      "--step", "1e-320"], capsys)
    too_many = "the grid has more than MAX_GRID_STEPS = 10000000 steps"
    if verify_only:
        report = json.loads(out)
        assert (code, err, report["passed"]) == (1, "", False)
        assert report["messages"] == [f"leg {i}: cannot re-integrate: step: {too_many}"
                                      for i in range(len(report["legs"]))]
    else:
        assert (code, out, err) == (2, "", f"error: --step: {too_many}\n")


def _loaded_fields(defn):
    return (defn.system.drift, *defn.system.controlled)


ALL_DEFINITIONS = sorted(str(p) for p in [*DEFS.glob("*.json"),
                                           *(DEFS.parent / "perfbench" / "defs").glob("*.json")])


@pytest.mark.parametrize("path", ALL_DEFINITIONS)
def test_loading_and_larc_derive_no_partials(monkeypatch, capsys, path):
    """A polynomial field derives its partials on first use: loading a
    definition reads none, and neither does larc, whose bracket table builds
    its own fields."""
    loaded, real_load = [], SystemDefinition.load

    def load(p):
        loaded.append(real_load(p))
        return loaded[-1]

    monkeypatch.setattr(SystemDefinition, "load", staticmethod(load))
    defn, n = SystemDefinition.load(path), loaded[0].manifold.ambient_dim
    point, v = ((",".join(["0.4"] * n), ",".join(["1"] * n)) if defn.manifold.is_flat
                else ("0.6,0,0.8", "0.8,0.3,-0.6"))
    for fiber in ([], [f"--v={v}"]):
        assert run_cli(["larc", path, f"--point={point}", *fiber, "--depth", "3"], capsys)[0] == 0
    assert len(loaded) == 3
    assert not [f.name for d in loaded for f in _loaded_fields(d) if "_partials" in vars(f)]


def test_partials_derived_on_first_use_equal_eager_ones():
    """On duffing, jacobian() and polynomial_kernel derive a loaded field's
    partials when they first read them, and give what fields whose partials
    were derived when built give."""
    def eager(fld):
        built = PolynomialField(fld.components, fld.dim)
        vars(built)["_partials"] = tuple(tuple(_poly_diff(comp, j) for j in range(fld.dim))
                                         for comp in fld.components)
        return built

    x = np.array([0.4, -0.3])
    for fld in _loaded_fields(SystemDefinition.load(DUFFING)):
        want = eager(fld)
        assert "_partials" not in vars(fld)
        assert np.array_equal(fld.jacobian(x), want.jacobian(x)) and fld._partials == want._partials
    fields = _loaded_fields(SystemDefinition.load(DUFFING))
    table, bind = polynomial_kernel(fields, 2)
    want_table, want_bind = polynomial_kernel([eager(fld) for fld in fields], 2)
    assert all("_partials" in vars(fld) for fld in fields)
    assert np.array_equal(table, want_table) and bind is want_bind


def _eager_components(desc, n):
    """The monomials a descriptor's field was built with when every field
    built them at once: a linear field's a_ij x_j, a constant field's c_i."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    if desc is None or desc["type"] == "zero":
        return [[(0.0, (0,) * n)] for _ in range(n)]
    if desc["type"] == "linear":
        return [list(zip(row, units)) for row in desc["matrix"]]
    if desc["type"] == "constant":
        return [[(c, (0,) * n)] for c in desc["vector"]]
    return [[(c, tuple(e)) for c, e in comp] for comp in desc["components"]]


@pytest.mark.parametrize("path", ALL_DEFINITIONS)
def test_loaded_fields_equal_fields_built_eagerly(path):
    """Linear and constant fields hold their (A, b) and derive their
    monomials on first read. The fields of every definition still give,
    bitwise, the components, partials, affine parts and kernel table of
    polynomial fields built at once from the same descriptors."""
    data, defn = json.loads(Path(path).read_text()), SystemDefinition.load(path)
    n, fields = defn.manifold.ambient_dim, _loaded_fields(defn)
    eager = [PolynomialField(_eager_components(desc, n), n)
             for desc in (data.get("drift"), *data["controlled"])]
    for fld, want in zip(fields, eager):
        assert repr((fld.components, fld._partials)) == repr((want.components, want._partials))
        got, ref = fld.affine(), want.affine()
        assert (got is None) == (ref is None)
        assert got is None or [part.tobytes() for part in got] == [part.tobytes() for part in ref]
    (table, bind), (want_table, want_bind) = polynomial_kernel(fields, n), polynomial_kernel(eager, n)
    assert table.tobytes() == want_table.tobytes() and bind is want_bind


def test_chains_build_no_monomials_of_linear_and_constant_fields(monkeypatch, capsys, tmp_path):
    """A chain, planned or verified from its file, reads linear and constant
    fields through affine() alone, so on sphere_two_axis.json and
    flat_rotation.json (two controls on S2, a drift and a control on R^2) it
    builds none of their monomials; larc, which brackets them, does."""
    loaded, real_load = [], SystemDefinition.load
    monkeypatch.setattr(SystemDefinition, "load", staticmethod(lambda p: loaded.append(real_load(p))
                                                              or loaded[-1]))
    for path, source, target in ((SPHERE_TWO_AXIS, "0,0,1;0.9,0,0", "0,1,0;0,0,-0.9"),
                                 (FLAT, "1,0;0,0", "0,1;1,1")):
        code, out, _ = run_cli(["chain", path, f"--source={source}", f"--target={target}"], capsys)
        assert code == 0
        (tmp_path / "chain.json").write_text(json.dumps(json.loads(out)["chain"]))
        assert run_cli(["chain", path, f"--verify-only={tmp_path / 'chain.json'}"], capsys)[0] == 0
        point = source.split(";")[0]
        assert run_cli(["larc", path, f"--point={point}", "--depth=2"], capsys)[0] == 0
        *chains, larc = [_loaded_fields(d) for d in loaded[-3:]]
        assert not [f.name for fields in chains for f in fields if "components" in vars(f)]
        assert all("components" in vars(f) for f in larc)


@pytest.mark.parametrize("changes,err", [
    # the number rules, which read Python values, in the words they used on numpy arrays
    ({"step": True}, "step: expected finite numbers, got True"),
    ({"step": float("nan")}, "step: expected finite numbers, got nan"),
    ({"step": [0.001]}, "step: expected a finite number, got [0.001]"),
    ({"seed": True}, "seed: expected finite integers, got True"),
    ({"seed": 7.9}, "seed: expected finite integers, got 7.9"),
    ({"seed": [2]}, "seed: expected an integer, got [2]"),
    ({"seed": 10 ** 400}, f"seed: expected finite integers, got {10 ** 400}"),
    ({"manifold": {"kind": "flat", "dim": "1"}}, "manifold.dim: expected finite integers, got '1'"),
    ({"drift": {"type": "zero", "dim": 1.5}}, "drift: expected finite integers, got 1.5"),
    ({"drift": {"type": "zero", "dim": [1]}}, "drift: expected an integer, got [1]"),
    ({"drift": {"type": "zero", "dim": 2}}, "drift: field of dimension 2 on a manifold of ambient dimension 1"),
    ({"drift": {"type": "polynomial", "components": [[[float("nan"), [1]]]]}},
     "drift: expected finite numbers, got nan"),
    ({"drift": {"type": "polynomial", "components": [[["1.0", [1]]]]}},
     "drift: expected finite numbers, got '1.0'"),
    ({"drift": {"type": "polynomial", "components": [[[[1.0], [1]]]]}},
     "drift: expected a finite number, got [1.0]"),
    ({"drift": {"type": "polynomial", "components": [[[10 ** 400, [1]]]]}},
     f"drift: expected finite numbers, got {10 ** 400}"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [1.5]]]]}},
     "drift: expected finite integers, got [1.5]"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [True]]]]}},
     "drift: expected finite integers, got [True]"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, "1"]]]}},
     "drift: expected finite integers, got '1'"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [-1]]]]}},
     "drift: exponents must be 1 non-negative integers"),
    ({"drift": {"type": "linear", "matrix": [[False]]}}, "drift: expected finite numbers, got [[False]]"),
    ({"bounds": [[-10 ** 400, 10]]}, f"bounds: expected finite numbers, got [[{-10 ** 400}, 10]]"),
    # new: an exponent past int64, and a constant field's vector that is not one
    ({"controlled": [{"type": "polynomial", "components": [[[1.0, [2 ** 63]]]]}]},
     "controlled[0]: exponents must be below 2**63, got 9223372036854775808"),
    ({"drift": {"type": "polynomial", "components": [[[1.0, [10 ** 400]]]]}},
     f"drift: exponents must be below 2**63, got {10 ** 400}"),
    ({"drift": {"type": "constant", "vector": 1.0}}, "drift: constant field needs a vector"),
    ({"controlled": [{"type": "constant", "vector": [[1.0]]}]}, "controlled[0]: constant field needs a vector"),
], ids=lambda value: value.split(":")[0] if isinstance(value, str) else None)
def test_definition_rules_keep_their_words(tmp_path, capsys, changes, err):
    """Definitions check their numbers on Python values and build no numpy
    array per number; every rejection reads as it read before, word for
    word. New: an exponent of 2**63 or more (liealg's bracket table holds
    exponents as int64 and raised OverflowError) and a constant field's
    vector that is not one-dimensional (a number raised IndexError)."""
    data = {**json.loads(Path(LINE).read_text()), **changes}
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, out, got = run_cli(["simulate", str(tmp_path / "bad.json"), "--x0", "0",
                              "--control", "[[0.003,[0.5]]]"], capsys)
    assert (code, out, got) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("where,args", [
    ("drift", ["larc", "--point=0.5,0"]), ("drift", ["check", "--suite", "lift"]),
    ("drift", ["check", "--suite", "rank"]), ("controlled[0]", ["larc", "--point=0.5,0"]),
])
def test_an_exponent_past_int64_is_named(tmp_path, capsys, where, args):
    """An exponent of 2**63 used to load and then end larc and the lift and
    rank suites in OverflowError from liealg's int64 bracket table; the
    field that holds it is named now, exit 2. 2**63 - 1 loads."""
    data = json.loads(Path(DUFFING).read_text())
    for exponent, want in ((2 ** 63, 2), (2 ** 63 - 1, None)):
        field = {"type": "polynomial", "components": [[[1.0, [0, 1]]], [[-1.0, [exponent, 0]]]]}
        data.update({"drift": field} if where == "drift" else {"controlled": [field]})
        (tmp_path / "big.json").write_text(json.dumps(data))
        if want is None:
            assert SystemDefinition.load(str(tmp_path / "big.json"))
            continue
        code, out, err = run_cli([args[0], str(tmp_path / "big.json"), *args[1:]], capsys)
        assert (code, out, err) == (2, "", f"error: {where}: exponents must be below 2**63, "
                                           f"got {2 ** 63}\n")


@pytest.mark.parametrize("args,code,err", [
    (["larc", "--point=0.5,0"], 1, "error: bracket exponents to depth 4 reach 2**63\n"),
    (["check", "--suite", "rank"], 1, "error: bracket exponents to depth 4 reach 2**63\n"),
    (["check", "--suite", "lift"], 1, "error: bracket columns to depth 2 are not finite at x="),
    # the search's failure keeps its own words: the base rank is not known
    (["chain", "--source=0.5,0;0,0", "--target=0.6,0;0,0"], 1,
     "error: search budget exhausted: best endpoint error 9.771e-02\n"),
    (["larc", "--point=0.5,0", "--depth", "1"], 0, ""),
], ids=["larc", "rank", "lift", "chain", "depth1"])
def test_a_bracket_exponent_past_int64_is_an_error_naming_the_depth(tmp_path, capsys, args, code, err):
    """Every field's exponents are below 2**63, but x1 x0^(2**63 - 1)'s
    brackets reach it by depth 3. That used to escape as the ValueError of
    the bracket's PolynomialField, exit 2 naming no entry, and the lift
    suite printed numpy's RuntimeWarnings; it is one error line, exit 1."""
    data = json.loads(Path(DUFFING).read_text())
    data["drift"] = {"type": "polynomial", "components": [[[1.0, [0, 1]]], [[-1.0, [2 ** 63 - 1, 0]]]]}
    (tmp_path / "big.json").write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, got_err = run_cli([args[0], str(tmp_path / "big.json"), *args[1:]], capsys)
    assert got == code and got_err.startswith(err) and got_err.count("\n") == (code != 0)


def test_the_lift_suite_names_x_and_v_where_the_brackets_are_not_finite(tmp_path, capsys):
    """The lift suite's bracket check names the sample it overflows at by x
    and v, as larc --v does; it used to print the flattened (x, v) as x."""
    data = json.loads(Path(DUFFING).read_text())
    data["drift"] = {"type": "polynomial", "components": [[[1.0, [0, 1]]], [[-1.0, [2 ** 63 - 1, 0]]]]}
    (tmp_path / "big.json").write_text(json.dumps(data))
    assert run_cli(["check", str(tmp_path / "big.json"), "--suite", "lift"], capsys) == (
        1, "", "error: bracket columns to depth 2 are not finite at x=[1.8267565599574231, "
               "-3.0783319101980338], v=[0.9580639753088469, 0.06963722766094482]\n")


def test_the_flow_suite_keeps_the_largest_projection_deviation(monkeypatch, capsys):
    """projection_identity reports the largest base/lifted deviation of its
    three samples (it used to keep the last one that differs)."""
    lifted_runs = []

    def perturbed(*args):
        traj = flow.integrate_lifted(*args)
        lifted_runs.append(traj)
        delta = (1e-3, 1e-6, 0.0)[len(lifted_runs) - 1]
        return dataclasses.replace(traj, states=traj.states + delta)

    monkeypatch.setattr(cli, "integrate_lifted", perturbed)
    code, out, _ = run_cli(["check", FLAT, "--suite", "flow"], capsys)
    check = json.loads(out)["checks"]["projection_identity"]
    assert len(lifted_runs) == 3 and code == 1 and check["pass"] is False
    assert check["deviation"] == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("changes,err", [
    # no drift: the default zero drift of dimension n used to be allocated first
    ({"manifold": {"kind": "flat", "dim": 10 ** 18}, "drift": None},
     f"controlled[0]: field of dimension 1 on a manifold of ambient dimension {10 ** 18}"),
    ({"manifold": {"kind": "flat", "dim": 10 ** 30}, "drift": None},
     f"controlled[0]: field of dimension 1 on a manifold of ambient dimension {10 ** 30}"),
    ({"drift": {"type": "zero", "dim": 10 ** 18}},
     f"drift: field of dimension {10 ** 18} on a manifold of ambient dimension 1"),
    ({"drift": {"type": "zero", "dim": 10 ** 30}},
     f"drift: field of dimension {10 ** 30} on a manifold of ambient dimension 1"),
    # every field of the manifold's dimension: the first one that cannot be allocated
    ({"manifold": {"kind": "flat", "dim": 10 ** 18}, "drift": None,
      "controlled": [{"type": "zero", "dim": 10 ** 18}]}, "controlled[0]: "),
], ids=lambda value: value.split(":")[0] if isinstance(value, str) else None)
def test_an_oversized_dimension_is_named_before_it_is_allocated(tmp_path, capsys, changes, err):
    """A dimension of 10**18 used to end every command in numpy's
    _ArrayMemoryError traceback, and one of 10**30 in "error: Maximum
    allowed dimension exceeded", naming no entry. Each field's dimension is
    tested against the manifold's before it is allocated."""
    data = {**json.loads(Path(LINE).read_text()), **changes}
    (tmp_path / "huge.json").write_text(json.dumps(data))
    code, out, got = run_cli(["larc", str(tmp_path / "huge.json"), "--point=0"], capsys)
    assert (code, out) == (2, "") and got.startswith(f"error: {err}") and got.count("\n") == 1


def test_help_and_usage_errors_are_those_of_the_default_formatter(monkeypatch, capsys):
    """Parsers read the terminal width once per call, not once per argument;
    each subcommand's help, the whole parser's and usage errors are what
    argparse's default HelpFormatter prints, at 60 columns and at 200."""
    argvs = [[name, "--help"] for name in ("simulate", "check", "chain", "larc")]
    argvs += [["--help"], ["larc", FLAT], ["larc", FLAT, "--point", "1,1", "extra"]]
    printed = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        printed[columns] = [run_cli(argv, capsys) for argv in argvs]
        with monkeypatch.context() as default:
            default.setattr(cli, "_formatter", lambda: argparse.HelpFormatter)
            assert printed[columns] == [run_cli(argv, capsys) for argv in argvs]
    assert printed["60"] != printed["200"]


def test_an_edited_definition_takes_effect_on_the_next_call(tmp_path, capsys):
    argv = ["simulate", _flat_definition(tmp_path, [[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0]], 1.0),
            "--x0", "1,0", "--control", "[[0.5,[0.3]]]"]
    code, before, _ = run_cli(argv, capsys)
    _flat_definition(tmp_path, [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0]], 1.0)
    after = run_cli(argv, capsys)
    assert code == 0 and after[0] == 0 and after[1] != before


def test_a_new_seed_takes_effect_on_the_next_call(capsys, monkeypatch):
    seeds = []
    for value in ("5", "6", "-1", None):
        if value is None:
            monkeypatch.delenv("LIFTCTL_SEED")
        else:
            monkeypatch.setenv("LIFTCTL_SEED", value)
        code, out, err = run_cli(["check", LINE, "--suite", "flow"], capsys)
        seeds.append(json.loads(out)["seed"] if code == 0 else err)
    assert seeds == [5, 6, "error: LIFTCTL_SEED: must be a non-negative integer, got '-1'\n", 7]


@pytest.mark.parametrize("text,named,message", [
    ("{", "{path}", "invalid JSON: Expecting property name"),
    (None, "{path}", "cannot read file: "),
    ('{"schema_version": 2}', "schema_version", "expected 1, got 2"),
])
def test_a_definition_broken_after_a_good_load_is_named(tmp_path, capsys, text, named, message):
    """A file broken after a good load exits 2 naming it (or the entry at
    fault), and mended it loads again."""
    path = tmp_path / "line.json"
    good = Path(LINE).read_text()
    path.write_text(good)
    argv = ["larc", str(path), "--point", "0"]
    want = run_cli(argv, capsys)
    assert want[0] == 0
    for _ in range(2):
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named.format(path=path)}: {message}")
        path.write_text(good)
        assert run_cli(argv, capsys) == want


def run_fresh_process(args):
    """(exit code, stdout, stderr) of a new interpreter run with args that
    imports liftctl from this tree; the pytest process itself has scipy
    loaded by other test modules."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


CALLS_THEN_LOADED_MODULES = """
import contextlib, io, json, sys
import liftctl.cli
codes = [sorted(sys.modules)]
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes.append(liftctl.cli.main(argv))
print(json.dumps([codes, buf.getvalue(), sorted(sys.modules)]))
"""


def test_commands_that_build_no_gramian_oracle_never_import_scipy():
    """Only LinearGramianOracle calls scipy (expm, when it is built), so
    importing liftctl.cli and running simulate, the four check suites, larc
    and chains planned by search (flat and S2) or by the closed-form rotation
    oracle leave scipy unloaded. Its import used to cost every call."""
    argvs = [
        ["simulate", FLAT, "--x0=1,0", "--lifted=0,1", "--control=[[0.5, [0.3]]]"],
        ["simulate", SPHERE, "--x0=1,0,0", "--control=[[3.141592653589793, [1.0]]]"],
        *(["check", FLAT, f"--suite={suite}"] for suite in ("lift", "flow", "invariance", "rank")),
        ["larc", FLAT, "--point=1,1", "--v=0,1"],
        ["chain", FLAT, "--source=1,0;0,0", "--target=0,1;1,1", "--eps=0.1", "--T=0.5"],
        ["chain", SPHERE, "--source=1,0,0;0,1,0", "--target=0,1,0;0,0,1"],
        ["chain", SPHERE_TWO_AXIS, "--source=1,0,0;0,0.1,0", "--target=0,1,0;0,0,0.1"],
    ]
    code, out, err = run_fresh_process(["-c", CALLS_THEN_LOADED_MODULES, json.dumps(argvs)])
    assert (code, err) == (0, "")
    (after_import, *codes), last, after_calls = json.loads(out)
    assert codes == [0] * len(argvs)
    assert json.loads(last)["verification"]["passed"]
    assert "numpy" in after_import and "scipy" not in after_import
    assert "scipy" not in after_calls


def test_sphere_commands_never_import_numpy_random(tmp_path, capsys):
    """The tangency check of every S2 load reads its 8 points from a stored
    table; it drew them from np.random.default_rng, which imported
    numpy.random (and secrets, hashlib, hmac) into every S2 command. Only
    what samples (the check suites, reachable_sample) imports it now."""
    code, out, _ = run_cli(["chain", SPHERE_TWO_AXIS, "--source=0,0,1;0.9,0,0",
                            "--target=0,1,0;0,0,-0.9"], capsys)
    assert code == 0
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(json.loads(out)["chain"]))
    argvs = [
        ["simulate", SPHERE, "--x0=1,0,0", "--control=[[3.141592653589793, [1.0]]]"],
        ["simulate", SPHERE, "--x0=1,0,0", "--lifted=0,1,0", "--control=[[1.5, [1.0]]]"],
        ["larc", SPHERE, "--point=0.6,0,0.8", "--v=0.8,0.3,-0.6"],
        ["chain", SPHERE, "--source=1,0,0;0,1,0", "--target=0,1,0;0,0,1"],
        ["chain", SPHERE_TWO_AXIS, "--source=1,0,0;0,0.1,0", "--target=0,1,0;0,0,0.1"],
        ["chain", SPHERE_TWO_AXIS, f"--verify-only={chain}"],
    ]
    code, out, err = run_fresh_process(["-c", CALLS_THEN_LOADED_MODULES, json.dumps(argvs)])
    assert (code, err) == (0, "")
    (after_import, *codes), last, after_calls = json.loads(out)
    assert codes == [0] * len(argvs) and json.loads(last)["passed"]
    assert "numpy.random" not in after_import and "numpy.random" not in after_calls


def test_a_gramian_chain_imports_scipy_and_verifies():
    code, out, err = run_fresh_process(["-c", CALLS_THEN_LOADED_MODULES, json.dumps(
        [["chain", LINE, "--source=0;0", "--target=3;-5"]])])
    assert (code, err) == (0, "")
    (after_import, chain_code), last, after_calls = json.loads(out)
    assert "scipy" not in after_import and "scipy" in after_calls
    assert chain_code == 0 and json.loads(last)["verification"]["passed"]


def test_search_and_sphere_chains_never_import_numpy_ma():
    """Search batches grouped their step counts with np.unique, which
    imports numpy.ma (about 0.8 MiB) into every process that ran a search;
    the counts are grouped by a sorted set now, in flow._power too."""
    argvs = [
        ["chain", FLAT, "--source=1,0;0,0", "--target=0,1;1,1", "--eps=0.1", "--T=0.5"],
        ["chain", SPHERE, "--source=1,0,0;0,1,0", "--target=0,1,0;0,0,1"],
        ["chain", SPHERE_TWO_AXIS, "--source=1,0,0;0,0.1,0", "--target=0,1,0;0,0,0.1"],
    ]
    code, out, err = run_fresh_process(["-c", CALLS_THEN_LOADED_MODULES, json.dumps(argvs)])
    assert (code, err) == (0, "")
    (after_import, *codes), last, after_calls = json.loads(out)
    assert codes == [0] * len(argvs) and json.loads(last)["verification"]["passed"]
    assert "numpy.ma" not in after_import and "numpy.ma" not in after_calls


@pytest.mark.parametrize("fiber,where", [([], "x=[1e+100, 0.0]"),
                                         (["--v=1,0"], "x=[1e+100, 0.0], v=[1.0, 0.0]")])
def test_larc_at_an_overflowing_point_is_an_error(fiber, where):
    """At x = (1e100, 0) the Duffing monomials overflow. larc used to exit 0
    with rank 0, NaN singular values and a numpy overflow warning; it now
    exits 1 naming the point, with one stderr line and no warning."""
    code, out, err = run_fresh_process(["-m", "liftctl", "larc", DUFFING, "--point=1e100,0",
                                        *fiber, "--depth", "3"])
    assert (code, out) == (1, "")
    assert err == f"error: bracket columns to depth 3 are not finite at {where}\n"


def test_a_zero_control_field_falls_back_to_the_search(tmp_path):
    """A linear drift with only a zero controlled field has an all-zero
    Gramian, which the Gramian oracle accepted; every chain then exited 2
    with numpy's "Singular matrix", which names nothing. The oracle refuses
    it now, and the search fails in one stderr line that names the base
    rank, with warnings as errors."""
    definition = tmp_path / "zero_field.json"
    definition.write_text(json.dumps({
        "schema_version": 1, "manifold": {"kind": "flat", "dim": 2},
        "drift": {"type": "linear", "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
        "controlled": [{"type": "zero", "dim": 2}], "bounds": [[-1.0, 1.0]]}))
    code, out, err = run_fresh_process(["-W", "error", "-m", "liftctl", "chain", str(definition),
                                        "--source=0,0;0,0", "--target=1,0;0,0"])
    assert (code, out) == (1, "")
    assert err == "error: search budget exhausted: best endpoint error 1.000e+00; base rank 0 < 2 at the source\n"


def test_a_gramian_that_is_not_finite_falls_back_to_the_search(tmp_path):
    """Under a drift of 1000 I the Gramian overflows. The Gramian oracle
    printed numpy's overflow warnings and exited 2 with "SVD did not
    converge", which names nothing; it refuses a Gramian that is not finite
    now, and the search fails in one stderr line, with warnings as errors."""
    definition = tmp_path / "fast_drift.json"
    definition.write_text(json.dumps({
        "schema_version": 1, "manifold": {"kind": "flat", "dim": 2},
        "drift": {"type": "linear", "matrix": [[1000.0, 0.0], [0.0, 1000.0]]},
        "controlled": [{"type": "constant", "vector": [1.0, 0.0]},
                       {"type": "constant", "vector": [0.0, 1.0]}],
        "bounds": [[-10.0, 10.0], [-10.0, 10.0]]}))
    code, out, err = run_fresh_process(["-W", "error", "-m", "liftctl", "chain", str(definition),
                                        "--source=0,0;0,0", "--target=1,0;0,0"])
    assert (code, out) == (1, "")
    assert err == "error: search budget exhausted: best endpoint error 6.379e+02\n"


@pytest.mark.parametrize("source", ["1e100,0;0,0", "1e120,0;0,0"])
def test_a_diverging_search_prints_only_its_error(source):
    """Every polynomial candidate from a huge source diverges. The search
    used to print nine numpy RuntimeWarnings, and its suffix read a base
    rank off overflowed bracket columns ("base rank 0 < 2" at 1e100, an
    SVD that did not converge, exit 2, at 1e120). Its bracket columns are
    not finite there, so no rank is named."""
    code, out, err = run_fresh_process(["-m", "liftctl", "chain", DUFFING,
                                        f"--source={source}", "--target=0,1;1,1"])
    assert (code, out, err) == (1, "", "error: search budget exhausted: best endpoint error inf\n")
