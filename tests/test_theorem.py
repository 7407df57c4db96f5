"""The main theorem over generated systems: where the base is controllable by
construction, every seeded pair plans and verifies; where it is not, the
planner fails by a named planning error, never by a usage error.

- S2, driftless, two rotation generators x -> a x x and x -> b x x with
  independent axes a and b, bounds +-1: the generators span so(3) by
  brackets, so the base is controllable (Rodrigues' rotation formula; Murray,
  Li & Sastry, A Mathematical Introduction to Robotic Manipulation, 1994,
  ch. 2). Axes 20 to 90 degrees apart, scaled by factors in [0.5, 3].
- Flat R^3 with a drift that has eigenvalues on both sides of the imaginary
  axis and one control: not controllable under bounds, and the fiber gaps
  grow faster than round trips close them.
- Flat R^n, n = 2 to 6, with a skew drift and one control that excites a
  single invariant block of it: Kalman rank below n (Sontag, Mathematical
  Control Theory, 1998, ch. 3), so no Gramian oracle is built.
- On every generated system, a lifted run from the zero section stays on it
  with v = 0 exactly: the fiber flow is linear (the paper's lift).
"""

import math

import numpy as np
import pytest

from liftctl import (
    LinearGramianOracle,
    PlanningBudgetError,
    TangentPoint,
    UncontrollablePairError,
    integrate_lifted,
    plan_chain,
    verify_chain,
)
from liftctl.cli import SystemDefinition, resolve_oracle
from liftctl.flow import fiber_flows
from liftctl.planner import sample_control_signals

EPS, T = 0.25, 0.5
ANGLES = (20, 25, 30, 45, 60, 79, 90)


def _skew(axis) -> list:
    a1, a2, a3 = axis
    return [[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]]


def _definition(drift, controlled, bounds) -> SystemDefinition:
    return SystemDefinition.from_dict({
        "schema_version": 1, **drift, "controlled": controlled, "bounds": bounds,
        "step": 0.001, "seed": 0})


def two_axis_sphere(rng: np.random.Generator, degrees: float) -> SystemDefinition:
    """Rotations about a unit axis a and an axis b at `degrees` from it, each
    scaled by a factor drawn from [0.5, 3]."""
    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    p = np.cross(a, rng.standard_normal(3))
    p /= np.linalg.norm(p)
    b = math.cos(math.radians(degrees)) * a + math.sin(math.radians(degrees)) * p
    axes = [axis * rng.uniform(0.5, 3.0) for axis in (a, b)]
    return _definition({"manifold": {"kind": "sphere2"}},
                       [{"type": "linear", "matrix": _skew(axis)} for axis in axes],
                       [[-1.0, 1.0], [-1.0, 1.0]])


def random_pair(rng: np.random.Generator, manifold, fiber_norm: float):
    """Two tangent points at random base points, with fibers of fiber_norm
    in a random projected normal direction."""
    points = []
    for _ in range(2):
        x = manifold.random_point(rng)
        v = manifold.random_tangent(x, rng)
        points.append(TangentPoint(x, fiber_norm * v / np.linalg.norm(v)))
    return points


@pytest.mark.parametrize("degrees", ANGLES)
def test_every_pair_verifies_on_a_driftless_two_axis_sphere(degrees):
    """12 seeded pairs per system, each planned by the oracle the CLI picks,
    verify (the grid search used to verify 54 of the 72 pairs below 90
    degrees: 1 of 12 at 20 degrees)."""
    rng = np.random.default_rng(2026 + degrees)
    defn = two_axis_sphere(rng, degrees)
    oracle = resolve_oracle(defn)
    for _ in range(12):
        source, target = random_pair(rng, defn.manifold, 0.3)
        chain = plan_chain(defn.system, oracle, source, target, EPS, T, step=defn.step)
        report = verify_chain(defn.system, chain)
        assert report.passed, (source, target, report.messages)


# A drift with eigenvalues -1.43, 0.68 and 0.48 and one control: the normal
# equations of the jump allocation used to lose their identity term to
# rounding and exit 2 with "Singular matrix".
EXPANDING = _definition(
    {"manifold": {"kind": "flat", "dim": 3},
     "drift": {"type": "linear", "matrix": [[0.429, -0.508, 0.806], [0.205, 0.33, -0.39],
                                            [0.752, -0.497, -1.027]]}},
    [{"type": "constant", "vector": [1.425, -0.427, 0.043]}], [[-1000.0, 1000.0]])


@pytest.mark.parametrize("source,target", [
    (([0.0, 0.0, 0.0], [0.3, 0.0, 0.0]), ([0.1, 0.0, 0.0], [0.0, 0.3, 0.0])),
    (([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), ([0.0, 0.0, 0.0], [-1.0, 1.0, -1.0])),
])
def test_an_uncontrollable_drift_fails_by_the_leg_budget(source, target):
    """PlanningBudgetError with its partial chain, never a ValueError (numpy's
    LinAlgError is one)."""
    with pytest.raises(PlanningBudgetError) as info:
        plan_chain(EXPANDING.system, resolve_oracle(EXPANDING), TangentPoint(*source),
                   TangentPoint(*target), EPS, T, step=EXPANDING.step)
    assert str(info.value).startswith("no chain within") and info.value.best_chain.legs


def _random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return (m - m.T) / 2.0


def kalman_deficient(rng: np.random.Generator, n: int) -> SystemDefinition:
    """A = Q diag(S1, S2) Q^T with skew blocks S1 (k x k, k = n // 2) and S2
    and a random orthogonal Q, and one control b = Q (c, 0): the span of Q's
    first k columns is invariant under A and holds b, so the Kalman rank is
    at most k < n. At n = 2 both blocks are 1 x 1, so A = 0."""
    k = n // 2
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    blocks = np.zeros((n, n))
    blocks[:k, :k], blocks[k:, k:] = _random_skew(rng, k), _random_skew(rng, n - k)
    b = q[:, :k] @ rng.standard_normal(k)
    return _definition({"manifold": {"kind": "flat", "dim": n},
                        "drift": {"type": "linear", "matrix": (q @ blocks @ q.T).tolist()}},
                       [{"type": "constant", "vector": b.tolist()}], [[-10.0, 10.0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_kalman_deficient_pair_builds_no_gramian_oracle(n):
    """Three generated pairs per n raise UncontrollablePairError."""
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        defn = kalman_deficient(rng, n)
        system = defn.system
        kalman = np.column_stack([np.linalg.matrix_power(system.drift.affine()[0], j)
                                  @ system.controlled[0].affine()[1] for j in range(n)])
        assert np.linalg.matrix_rank(kalman) <= n // 2
        with pytest.raises(UncontrollablePairError):
            LinearGramianOracle.for_system(system)


def zero_section_cases():
    """Generated systems: a skew linear drift with a random control (n = 2
    to 6), a Kalman-deficient pair, the expanding drift and two-axis spheres."""
    rng = np.random.default_rng(77)
    cases = {f"skew-{n}": _definition(
        {"manifold": {"kind": "flat", "dim": n},
         "drift": {"type": "linear", "matrix": _random_skew(rng, n).tolist()}},
        [{"type": "constant", "vector": rng.standard_normal(n).tolist()}], [[-10.0, 10.0]])
        for n in range(2, 7)}
    cases["kalman-deficient-4"], cases["expanding"] = kalman_deficient(rng, 4), EXPANDING
    cases.update((f"sphere-{degrees}", two_axis_sphere(rng, degrees)) for degrees in (20, 90))
    return [pytest.param(defn, id=name) for name, defn in cases.items()]


@pytest.mark.parametrize("defn", zero_section_cases())
def test_a_lifted_run_from_the_zero_section_keeps_v_zero_exactly(defn):
    """From (x, 0), under seeded admissible signals, every fiber_flows run
    ends with v == 0 exactly, and so does every row of a recorded
    integrate_lifted run."""
    rng = np.random.default_rng(7)
    system, n = defn.system, defn.manifold.ambient_dim
    signals = sample_control_signals(system.bounds, 1.5, 4, seed=7)
    run = fiber_flows(system, signals, defn.step)
    for i, u in enumerate(signals):
        x = defn.manifold.random_point(rng)
        _, v = run(i, x, np.zeros(n))
        assert np.all(v == 0.0), (i, v)
        assert np.all(integrate_lifted(system, TangentPoint(x, np.zeros(n)), u, defn.step).fibers == 0.0)
