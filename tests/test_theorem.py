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
"""

import math

import numpy as np
import pytest

from liftctl import PlanningBudgetError, TangentPoint, plan_chain, verify_chain
from liftctl.cli import SystemDefinition, resolve_oracle

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
