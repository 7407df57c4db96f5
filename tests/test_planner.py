import dataclasses
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liftctl import (
    AffineSystem,
    Chain,
    ConstantField,
    ControlSignal,
    LinearField,
    LinearGramianOracle,
    Manifold,
    PlanarSpiralOracle,
    PlanningBudgetError,
    PolynomialField,
    SearchOracle,
    SphereRotationOracle,
    SteeringFailure,
    TangentPoint,
    UncontrollablePairError,
    check_fiber_reachability,
    check_invariance,
    compose_chains,
    distance,
    integrate_base,
    integrate_lifted,
    plan_chain,
    rank_at,
    reachable_sample,
    verify_chain,
)
from liftctl.cli import SystemDefinition
from liftctl.flow import constant_control_endpoints, fiber_flows, split_signal
from liftctl.liealg import generate_brackets
from liftctl import planner
from liftctl.errors import IntegrationError
from liftctl.planner import LegCheck, _chunk_transitions, sample_control_signals

DEFS = Path(__file__).resolve().parent.parent / "defs"
SPHERE_TWO_AXIS = DEFS.parent / "perfbench" / "defs" / "sphere_two_axis.json"

ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def line_system():
    return AffineSystem(Manifold.flat(1), ConstantField(np.zeros(1)),
                        (ConstantField([1.0]),), [[-10.0, 10.0]])


def integrator_system():
    return AffineSystem(Manifold.flat(2), ConstantField(np.zeros(2)),
                        (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])),
                        [[-10.0, 10.0], [-10.0, 10.0]])


def double_integrator_system():
    return AffineSystem(Manifold.flat(2), LinearField([[0.0, 1.0], [0.0, 0.0]]),
                        (ConstantField([0.0, 1.0]),), [[-50.0, 50.0]])


def forced_rotation_system():
    return AffineSystem(Manifold.flat(2), LinearField(ROT2),
                        (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])),
                        [[-10.0, 10.0], [-10.0, 10.0]])


def sphere_system():
    return AffineSystem(Manifold.sphere2(), ConstantField(np.zeros(3)),
                        (LinearField(L3), LinearField(L1)),
                        [[-1.0, 1.0], [-1.0, 1.0]])


def skew(axis):
    """The so(3) matrix of x -> axis x x."""
    a1, a2, a3 = axis
    return np.array([[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]])


# two rotation axes 25 degrees apart, of norms 0.95 and 3.08
AXES_25 = ((0.8955, -0.1204, 0.2687), (2.9609, 0.8042, 0.2678))


def two_axis_system(axes, drift=np.zeros((3, 3)), bounds=((-1.0, 1.0), (-1.0, 1.0))):
    return AffineSystem(Manifold.sphere2(), LinearField(drift),
                        tuple(LinearField(skew(axis)) for axis in axes), bounds)


# --- steering ---------------------------------------------------------------

def test_gramian_steer_integrator_constant_control():
    sys = integrator_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    duration, sig = oracle.solve(np.zeros(2), np.array([1.0, 0.0]))
    assert duration == pytest.approx(1.0)
    assert len(sig.segments) == 64
    values = np.array([v for _, v in sig.segments])
    assert np.allclose(values, [1.0, 0.0], atol=1e-9)
    end = integrate_base(sys, np.zeros(2), sig, 1e-3).final_state
    assert np.linalg.norm(end - [1.0, 0.0]) <= 1e-6


def test_gramian_steer_same_point_zero_control():
    sys = integrator_system()
    oracle = LinearGramianOracle.for_system(sys)
    x = np.array([0.4, -0.2])
    _, sig = oracle.solve(x, x)
    assert np.allclose([v for _, v in sig.segments], 0.0, atol=1e-12)


def test_gramian_steer_with_drift():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    rng = np.random.default_rng(60)
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        _, sig = oracle.solve(x, y)
        end = integrate_base(sys, x, sig, 1e-3).final_state
        assert np.linalg.norm(end - y) <= 1e-6


def test_gramian_singular_pair_raises():
    # second state unreachable: B only feeds the first component, A diagonal
    with pytest.raises(UncontrollablePairError):
        LinearGramianOracle(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))


def test_an_all_zero_gramian_is_singular():
    """With B = 0 every singular value of the Gramian is 0, and the test
    sigma_min < 1e-10 sigma_max read 0 < 0 and accepted it; its solve then
    raised numpy's "Singular matrix". The error now names both singular
    values without dividing 0 by 0, so no RuntimeWarning either."""
    sys = AffineSystem(Manifold.flat(2), LinearField(ROT2), (ConstantField([0.0, 0.0]),), [[-1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UncontrollablePairError, match=re.escape("sigma_min 0.00e+00 against sigma_max 0.00e+00")):
            LinearGramianOracle.for_system(sys)


def test_sphere_rotation_steer_quarter_turn():
    sys = sphere_system()
    oracle = SphereRotationOracle.for_system(sys)
    duration, sig = oracle.solve(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert duration == pytest.approx(np.pi / 2.0)
    assert len(sig.segments) == 1
    assert np.allclose(sig.segments[0][1], [1.0, 0.0])
    end = integrate_base(sys, [1.0, 0.0, 0.0], sig, 1e-3).final_state
    assert np.linalg.norm(end - [0.0, 1.0, 0.0]) <= 1e-3


def test_sphere_rotation_steer_random_pairs():
    """Any two independent axes steer x onto y by one segment inside the
    bounds, at full speed on at least one channel: orthogonal axes, axes
    25 degrees apart, and axes 60 degrees apart with lopsided bounds, which
    cap the speeds at 0.5 and 0.7."""
    for sys in (sphere_system(), two_axis_system(AXES_25),
                two_axis_system(((1.0, 0.0, 0.0), (0.5, math.sqrt(0.75), 0.0)),
                                bounds=((-0.5, 2.0), (-3.0, 0.7)))):
        oracle = SphereRotationOracle.for_system(sys)
        m = sys.manifold
        caps = np.minimum(np.minimum(sys.bounds[:, 1], -sys.bounds[:, 0]), 1.0)
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = m.random_point(rng)
            y = m.random_point(rng)
            duration, sig = oracle.solve(x, y)
            assert len(sig.segments) == 1 and duration == sig.total_duration
            sys.check_signal(sig)
            assert np.max(np.abs(sig.segments[0][1]) / caps) == pytest.approx(1.0)
            end = integrate_base(sys, x, sig, 1e-3).final_state
            assert m.base_distance(end, y) <= 1e-6


def test_sphere_rotation_takes_the_pair_furthest_from_parallel():
    """Of three generators, the oracle turns about the two axes furthest from
    parallel, z and x, and leaves the third, 5.7 degrees from z, at zero."""
    sys = two_axis_system(((0.1, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                          bounds=((-1.0, 1.0),) * 3)
    x, y = np.array([0.0, 0.6, 0.8]), np.array([0.8, 0.0, -0.6])
    _, sig = SphereRotationOracle.for_system(sys).solve(x, y)
    assert len(sig.segments) == 1 and sig.segments[0][1][0] == 0.0
    assert sys.manifold.base_distance(integrate_base(sys, x, sig, 1e-3).final_state, y) <= 1e-6


@pytest.mark.parametrize("axes", [
    ((0.0, 0.0, 1.0), (0.0, 0.0, -2.0)),  # parallel
    ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),  # one rotation and a zero field
    ((0.0, 0.0, 1.0),),  # one generator
], ids=["parallel", "zero", "single"])
def test_sphere_rotation_needs_two_independent_axes(axes):
    sys = two_axis_system(axes, bounds=((-1.0, 1.0),) * len(axes))
    with pytest.raises(SteeringFailure, match="two independent rotation axes"):
        SphereRotationOracle.for_system(sys)


def test_sphere_rotation_same_point_is_an_empty_plan():
    x = np.array([0.6, 0.0, 0.8])
    duration, sig = SphereRotationOracle.for_system(two_axis_system(AXES_25)).solve(x, x)
    assert duration == 0.0 and sig.segments == ()


@pytest.mark.parametrize("make,message", [
    # a drift with an offset, and a linear controlled field
    (lambda: LinearGramianOracle.for_system(AffineSystem(
        Manifold.flat(1), ConstantField([1.0]), (ConstantField([1.0]),), [[-1.0, 1.0]])),
     "requires a linear (or zero) drift"),
    (lambda: LinearGramianOracle.for_system(AffineSystem(
        Manifold.flat(2), LinearField(ROT2), (LinearField(ROT2),), [[-1.0, 1.0]])),
     "requires constant controlled fields"),
    (lambda: SphereRotationOracle([(0, np.eye(3)), (1, L1)], [[-1.0, 1.0], [-1.0, 1.0]]),
     "requires skew-symmetric generators"),
    (lambda: SphereRotationOracle.for_system(two_axis_system(AXES_25, bounds=((0.0, 1.0), (-1.0, 1.0)))),
     "needs symmetric control authority"),
    (lambda: SphereRotationOracle.for_system(two_axis_system(AXES_25, 0.2 * L3)),
     "requires a driftless system"),
    (lambda: PlanarSpiralOracle.for_system(sphere_system()), "requires flat R^2"),
    (lambda: PlanarSpiralOracle.for_system(AffineSystem(
        Manifold.flat(3), LinearField(np.zeros((3, 3))), (LinearField(np.eye(3)),), [[-1.0, 1.0]])),
     "requires flat R^2"),
    (lambda: PlanarSpiralOracle.for_system(AffineSystem(
        Manifold.flat(2), ConstantField([1.0, 0.0]), (LinearField(np.eye(2)),), [[-1.0, 1.0]])),
     "requires linear fields"),
    (lambda: PlanarSpiralOracle.for_system(AffineSystem(
        Manifold.flat(2), LinearField(ROT2), (LinearField([[0.0, 1.0], [0.0, 0.0]]),), [[-1.0, 1.0]])),
     "requires fields a I + b J"),
    (lambda: PlanarSpiralOracle.for_system(AffineSystem(
        Manifold.flat(2), LinearField(ROT2), (LinearField(np.zeros((2, 2))),), [[-1.0, 1.0]])),
     "needs a control with a nonzero gain"),
])
def test_oracles_refuse_systems_they_cannot_steer(make, message):
    with pytest.raises(SteeringFailure, match=re.escape(message)):
        make()


def test_search_within_its_tolerance_is_an_empty_plan():
    oracle = CountingSearch(line_system())
    duration, sig = oracle.solve(np.array([0.0]), np.array([0.5 * SearchOracle.steer_tol]))
    assert (duration, sig.segments, oracle.evaluated) == (0.0, (), 0)


@pytest.mark.parametrize("drift_exponent,message", [
    (2 ** 63 - 1, "no plan$"),  # the brackets' exponents reach 2**63: the rank is not known
    (3, "no plan; base rank 1 < 2 at the source$"),
])
def test_a_steering_failure_names_the_base_rank_only_where_it_is_known(drift_exponent, message):
    """The failure names a base rank below n; where the bracket columns cannot
    be evaluated, it keeps the oracle's words."""
    class Refusing:
        def solve(self, x, y):
            raise SteeringFailure("no plan")

    drift = PolynomialField([[(1.0, (0, 1))], [(-1.0, (drift_exponent, 0))]], 2)
    forcing = PolynomialField([[], []] if drift_exponent == 3 else [[], [(1.0, (2, 0))]], 2)
    sys = AffineSystem(Manifold.flat(2), drift, (forcing,), [[-1.0, 1.0]])
    with pytest.raises(SteeringFailure, match=message):
        plan_chain(sys, Refusing(), TangentPoint([0.5, 0.0], [0.0, 0.0]),
                   TangentPoint([0.6, 0.0], [0.0, 0.0]), 0.25, 0.5)


@pytest.mark.parametrize("drift", [np.zeros((3, 3)), 0.2 * L3], ids=["driftless", "drift"])
def test_search_on_a_25_degree_sphere_system_misses_without_an_integration_error(drift):
    """Search candidates that drift off the sphere past DRIFT_TOL at their
    coarse step score NaN, misses, as diverged rows do: the search ends in
    its own SteeringFailure (it used to end in "off-manifold drift")."""
    sys = two_axis_system(AXES_25, drift)
    with pytest.raises(SteeringFailure, match="search budget exhausted"):
        SearchOracle(sys).solve(np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, -0.8]))


def test_drifting_rows_score_nan_and_the_others_keep_their_ends():
    """A candidate whose coarse steps drift off the sphere past DRIFT_TOL,
    where integrate_base raises, ends NaN, alone or in a batch; every other
    row of the batch ends where integrate_base does, up to rounding."""
    sys = two_axis_system(AXES_25, 0.2 * L3)
    x = np.array([0.0, 0.0, 1.0])
    durations = np.array([0.5, 8.0, 8.0, 8.0])
    controls = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 0.5], [0.2, 0.1]])
    steps = np.maximum(1e-2, durations / 120.0)
    ends = constant_control_endpoints(sys, x, controls, durations, steps)
    assert np.isnan(ends[1]).all()
    assert np.isnan(constant_control_endpoints(sys, x, controls[1:2], durations[1:2],
                                               steps[1:2])).all()
    with pytest.raises(IntegrationError, match="off-manifold drift"):
        integrate_base(sys, x, ControlSignal.constant(controls[1], durations[1]), steps[1])
    for r in (0, 2, 3):
        sig = ControlSignal.constant(controls[r], durations[r])
        assert np.allclose(ends[r], integrate_base(sys, x, sig, steps[r]).final_state,
                           rtol=0.0, atol=1e-12)


def test_search_oracle_line():
    sys = line_system()
    oracle = SearchOracle(sys)
    oracle.t_max = 3.0
    duration, sig = oracle.solve(np.array([0.0]), np.array([1.0]))
    end = integrate_base(sys, [0.0], sig, 1e-2).final_state
    assert abs(end[0] - 1.0) <= 1e-3
    assert duration > 0.0


def test_search_oracle_scores_diverged_candidates_as_misses():
    """Candidates of dx/dt = 200 x + u overflow to inf. They score NaN
    without reaching base_distance, which rejects a non-finite point, so
    the search still ends in a SteeringFailure."""
    sys = AffineSystem(Manifold.flat(1), LinearField([[200.0]]), (ConstantField([1.0]),),
                       [[-1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SteeringFailure):
            SearchOracle(sys).solve(np.array([1.0]), np.array([2.0]))


def test_diverging_rows_score_nan_and_the_others_are_scored():
    """Rows of dx/dt = 200 x + u that overflow score NaN without reaching
    base_distance; the finite rows of the same level get their distances."""
    sys = AffineSystem(Manifold.flat(1), LinearField([[200.0]]), (ConstantField([1.0]),),
                       [[-1.0, 1.0]])
    durations = np.array([0.01, 0.01, 8.0, 8.0])
    controls = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        errs = SearchOracle(sys)._endpoint_errors(np.array([1.0]), np.array([2.0]),
                                                  durations, controls)
    assert np.all(np.isnan(errs[2:]))
    want = [sys.manifold.base_distance(
                fiber_flows(sys, [ControlSignal.constant(u, t)], 1e-2)(0, [1.0], None)[0], [2.0])
            for u, t in zip(controls[:2], durations[:2])]
    assert np.array_equal(errs[:2], want)


def bilinear_rotation_system():
    return AffineSystem(Manifold.flat(2), LinearField(ROT2),
                        (LinearField(np.eye(2)),), [[-2.0, 2.0]])


def test_search_oracle_bilinear_rotation():
    sys = bilinear_rotation_system()
    oracle = SearchOracle(sys)
    x = np.array([1.0, 0.0])
    y = np.array([0.2, 0.9])
    _, sig = oracle.solve(x, y)
    end = integrate_base(sys, x, sig, 1e-2).final_state
    assert np.linalg.norm(end - y) <= 1e-3


def spiral_system():
    """A spiral drift 0.1 I + J with two controls, I and 0.2 I - 0.5 J."""
    return AffineSystem(Manifold.flat(2), LinearField(0.1 * np.eye(2) + ROT2),
                        (LinearField(np.eye(2)), LinearField(0.2 * np.eye(2) - 0.5 * ROT2)),
                        [[-1.0, 1.0], [-0.5, 2.0]])


@pytest.mark.parametrize("make_sys", [bilinear_rotation_system, spiral_system],
                         ids=["flat_rotation", "two_controls"])
def test_planar_spiral_plans_end_on_the_target(make_sys):
    """One constant control inside the bounds per pair, whose run ends within
    1e-9 of the target: the steering is exact, not a search's 1e-3."""
    sys = make_sys()
    oracle = PlanarSpiralOracle.for_system(sys)
    lo, hi = sys.bounds.T
    rng = np.random.default_rng(5)
    for _ in range(12):
        x, y = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
        duration, sig = oracle.solve(x, y)
        ((seg_t, u),) = sig.segments
        assert seg_t == duration > 0.0 and np.all((lo <= u) & (u <= hi))
        end, _ = fiber_flows(sys, [sig], 1e-3)(0, x, np.zeros(2))
        assert np.linalg.norm(end - y) <= 1e-9


def test_planar_spiral_same_point_is_an_empty_plan():
    x = np.array([0.3, -0.4])
    duration, sig = PlanarSpiralOracle.for_system(bilinear_rotation_system()).solve(x, x)
    assert duration == 0.0 and sig.segments == ()


def test_planar_spiral_steers_into_the_origin_by_the_search():
    """The origin is fixed by every linear field, so no closed form reaches
    it; the pair is the search's, which ends within its tolerance of it, and
    the chain verifies in 2 legs."""
    sys = bilinear_rotation_system()
    x, origin = np.array([1.0, 0.0]), np.zeros(2)
    duration, sig = PlanarSpiralOracle.for_system(sys).solve(x, origin)
    searched = SearchOracle(sys).solve(x, origin)
    assert (duration, sig.to_json()) == (searched[0], searched[1].to_json())
    chain = plan_chain(sys, PlanarSpiralOracle.for_system(sys), TangentPoint(x, np.zeros(2)),
                       TangentPoint(origin, np.zeros(2)), 0.25, 0.5)
    assert verify_chain(sys, chain).passed and len(chain.legs) == 2


def test_planar_spiral_failures_keep_the_search_words():
    """Bounds that admit no constant control for the pair: the search's
    failure, as the search alone would raise it."""
    sys = AffineSystem(Manifold.flat(2), LinearField(ROT2), (LinearField(np.eye(2)),), [[0.0, 0.01]])
    x, y = np.array([1.0, 0.0]), np.array([0.0, 0.5])
    with pytest.raises(SteeringFailure) as searched:
        SearchOracle(sys).solve(x, y)
    with pytest.raises(SteeringFailure, match=f"^{re.escape(str(searched.value))}$"):
        PlanarSpiralOracle.for_system(sys).solve(x, y)


def test_plan_chain_with_search_oracle():
    """The generic steering fallback supports the whole chain pipeline."""
    sys = bilinear_rotation_system()
    oracle = SearchOracle(sys)
    source = TangentPoint([1.0, 0.0], [0.3, 0.1])
    target = TangentPoint([0.2, 0.9], [0.0, 0.5])
    chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    report = verify_chain(sys, chain)
    assert report.passed, report.messages


def duffing_system():
    """Polynomial drift and controlled field: batches step all rows at once
    through the system's polynomial tables."""
    drift = PolynomialField([[(1.0, (0, 1))], [(-1.0, (1, 0)), (-1.0, (3, 0))]], 2)
    forcing = PolynomialField([[], [(1.0, (1, 0))]], 2)
    return AffineSystem(Manifold.flat(2), drift, (forcing,), [[-2.0, 2.0]])


def first_level_candidates(sys, t_max=8.0, eval_step=1e-2):
    """SearchOracle's first grid level in its t-major, u-minor order."""
    grids = [np.linspace(lo, hi, 5) for lo, hi in sys.bounds]
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, sys.n_controls)
    return [(float(t), u) for t in np.linspace(eval_step, t_max, 9) for u in mesh]


def one_at_a_time_errors(sys, x, y, candidates, eval_step=1e-2, end_point=None):
    """Each candidate's end-point error, its end taken by end_point(sys, x,
    signal, step), by default integrate_base's final state."""
    end_point = end_point or (lambda *run: integrate_base(*run).final_state)
    errs = []
    for t, u in candidates:
        step = max(eval_step, t / 120.0)
        end = end_point(sys, x, ControlSignal.constant(u, t), step)
        errs.append(sys.manifold.base_distance(end, y))
    return np.array(errs)


class CountingSearch(SearchOracle):
    evaluated = 0

    def _endpoint_errors(self, x, y, durations, controls):
        self.evaluated += len(durations)
        return super()._endpoint_errors(x, y, durations, controls)


@pytest.mark.parametrize("make_sys,x,y", [
    (bilinear_rotation_system, [1.0, 0.0], [0.2, 0.9]),
    (sphere_system, [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
    (duffing_system, [0.5, 0.0], [-0.3, 0.4]),
])
def test_search_level_matches_one_at_a_time(make_sys, x, y):
    """A batched grid level scores every candidate as fiber_flows, the
    end-point entry, does one at a time (1e-12 absolute), and as the
    stepping integrate_base does up to rounding (1e-12 relative: matrix
    powers take the affine rows), and picks the first strict minimum in
    t-major, u-minor order."""
    sys = make_sys()
    x, y = np.array(x), np.array(y)
    candidates = first_level_candidates(sys)
    errs = one_at_a_time_errors(
        sys, x, y, candidates, end_point=lambda sys, x, u, step: fiber_flows(sys, [u], step)(0, x, None)[0])
    oracle = CountingSearch(sys)
    oracle.levels = 1
    durations = np.array([t for t, _ in candidates])
    controls = np.array([u for _, u in candidates])
    batch = oracle._endpoint_errors(x, y, durations, controls)
    assert np.max(np.abs(batch - errs)) <= 1e-12
    stepped = one_at_a_time_errors(sys, x, y, candidates)
    assert np.max(np.abs(batch - stepped) / np.maximum(1.0, np.abs(stepped))) <= 1e-12

    best = int(np.argmin(errs))
    oracle = CountingSearch(sys)
    oracle.levels = 1
    oracle.steer_tol = 2.0 * errs[best]  # accept the level's winner
    assert sys.manifold.base_distance(x, y) > oracle.steer_tol
    duration, sig = oracle.solve(x, y)
    assert oracle.evaluated == len(candidates)
    assert duration == candidates[best][0]
    assert np.array_equal(sig.segments[0][1], candidates[best][1])


def reference_search(sys, x, y, levels=10, t_max=8.0, eval_step=1e-2):
    """SearchOracle.solve's rule with every candidate scored alone, through
    fiber_flows: per level the 9 durations times the 5-point grid of each
    channel, in t-major, u-minor order, the first strict minimum kept as the
    incumbent (a candidate that raises is a miss), and each range shrunk to
    0.4 of its width around it, within its limits. Returns (error, duration,
    control, candidates scored)."""
    t_lo, t_hi = eval_step, t_max
    u_lo, u_hi = sys.bounds[:, 0].copy(), sys.bounds[:, 1].copy()
    best, scored = (math.inf, None, None), 0
    for _ in range(levels):
        u_grids = [np.linspace(lo, hi, 5) for lo, hi in zip(u_lo, u_hi)]
        for t in np.linspace(t_lo, t_hi, 9):
            for u in itertools.product(*u_grids):
                step = max(eval_step, t / 120.0)
                try:
                    end, _ = fiber_flows(sys, [ControlSignal.constant(u, t)], step)(0, x, None)
                    err = sys.manifold.base_distance(end, y)
                except IntegrationError:
                    err = math.nan
                scored += 1
                if err < best[0]:
                    best = (err, float(t), np.array(u))
        if best[0] <= SearchOracle.steer_tol:
            break
        t_span = 0.2 * (t_hi - t_lo)
        t_lo, t_hi = max(eval_step, best[1] - t_span), min(t_max, best[1] + t_span)
        for i in range(sys.n_controls):
            span = 0.2 * (u_hi[i] - u_lo[i])
            u_lo[i] = max(sys.bounds[i, 0], best[2][i] - span)
            u_hi[i] = min(sys.bounds[i, 1], best[2][i] + span)
    return (*best, scored)


FLAT_ROTATION_PAIRS = [  # source (r1, 0), target r2 (cos theta, sin theta)
    ([r1, 0.0], [r2 * math.cos(theta), r2 * math.sin(theta)])
    for r1, r2, theta in ((1.0, 1.3, 2.6), (0.9, 1.1, 3.0), (0.9, 1.1, 2.2))]


@pytest.mark.parametrize("make_sys,x,y", [
    *((lambda: SystemDefinition.load(str(DEFS / "flat_rotation.json")).system, x, y)
      for x, y in FLAT_ROTATION_PAIRS),
    (sphere_system, [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
])
def test_search_levels_match_one_candidate_at_a_time(make_sys, x, y):
    """A whole multi-level search, each level one stacked pass, scores as
    many candidates and returns exactly the duration and control that the
    same level and shrink rule picks when every candidate is integrated
    alone through fiber_flows (on flat_rotation's pairs at distances 2.2 to
    3.0 rad, and on the two-axis sphere)."""
    sys = make_sys()
    x, y = np.array(x), np.array(y)
    err, duration, control, scored = reference_search(sys, x, y)
    assert scored > 9 * 5 ** sys.n_controls and err <= SearchOracle.steer_tol  # several levels
    oracle = CountingSearch(sys)
    got, sig = oracle.solve(x, y)
    assert oracle.evaluated == scored
    assert got == duration
    assert len(sig.segments) == 1 and np.array_equal(sig.segments[0][1], control)


def test_search_budget_caps_candidates():
    sys = bilinear_rotation_system()
    x, y = np.array([1.0, 0.0]), np.array([0.2, 0.9])
    errs = one_at_a_time_errors(sys, x, y, first_level_candidates(sys)[:10])
    oracle = CountingSearch(sys)
    oracle.budget = 10
    oracle.steer_tol = 2.0 * errs.min()
    duration, _ = oracle.solve(x, y)
    assert oracle.evaluated == 10
    assert duration == first_level_candidates(sys)[int(np.argmin(errs))][0]
    oracle = CountingSearch(sys)
    oracle.budget = 10
    with pytest.raises(SteeringFailure):
        oracle.solve(x, y)


class FlatSearch(SearchOracle):
    """Every candidate lands equally far from the target."""

    def _endpoint_errors(self, x, y, durations, controls):
        return np.full(len(durations), 0.5)


def test_search_ties_go_to_the_first_candidate():
    sys = forced_rotation_system()
    oracle = FlatSearch(sys)
    oracle.steer_tol = 0.6
    duration, sig = oracle.solve(np.zeros(2), np.array([1.0, 0.0]))
    assert duration == oracle.eval_step
    assert np.array_equal(sig.segments[0][1], sys.bounds[:, 0])


class TieSearch(SearchOracle):
    """The first level scores its candidate 112 (the middle duration and
    control) 0.5 and the others 0.6; every later candidate scores 0.5."""

    levels = 3

    def __init__(self, sys):
        super().__init__(sys)
        self.levels_seen = []

    def _endpoint_errors(self, x, y, durations, controls):
        self.levels_seen.append(durations.copy())
        errs = np.full(len(durations), 0.6 if len(self.levels_seen) == 1 else 0.5)
        errs[112] = 0.5
        return errs


def test_search_ties_across_levels_keep_the_earlier_incumbent():
    """A later level's candidate that ties the incumbent does not replace it,
    as one at a time only a strictly smaller error would: the third level's
    durations are centred on the first level's winner again."""
    sys = forced_rotation_system()
    oracle = TieSearch(sys)
    oracle.steer_tol = 0.4
    with pytest.raises(SteeringFailure):
        oracle.solve(np.zeros(2), np.array([1.0, 0.0]))
    first, second, third = oracle.levels_seen
    assert third.min() > second.min()
    assert np.median(third) == pytest.approx(first[112], abs=1e-12)


@pytest.mark.parametrize("make_sys,x,chunk", [
    (lambda: SystemDefinition.load(str(DEFS / "flat_rotation.json")).system, [1.0, 0.3],
     ControlSignal(((0.6, [0.8]), (0.5, [-1.2])))),
    (sphere_system, [0.6, 0.0, 0.8],
     ControlSignal(((0.6, [0.7, -0.4]), (0.5, [-0.3, 0.9])))),
])
def test_fiber_transition_matches_column_runs(make_sys, x, chunk):
    """One (n, d)-fiber integration equals d end-point runs, one per basis
    column."""
    sys = make_sys()
    x = np.array(x)
    [(end_base, b_end, mat)] = _chunk_transitions(sys, x, [chunk], 1e-3)
    b_start = sys.manifold.tangent_basis(x)
    ends = [TangentPoint(*fiber_flows(sys, [chunk], 1e-3)(0, x, b_start[:, i]))
            for i in range(sys.manifold.intrinsic_dim)]
    assert np.array_equal(end_base, ends[0].x)
    assert np.array_equal(b_end, sys.manifold.tangent_basis(end_base))
    expected = b_end.T @ np.column_stack([end.v for end in ends])
    assert np.max(np.abs(mat - expected)) <= 1e-12


@pytest.mark.parametrize("make_sys,make_oracle,source,target", [
    (integrator_system, lambda sys: LinearGramianOracle.for_system(sys, horizon=2.0),
     ([0.5, 0.5], [1.0, 0.0]), ([-0.5, 0.2], [0.6, 0.3])),
    (sphere_system, SphereRotationOracle.for_system,
     ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, 1.0, 0.0], [-1.0, 0.0, 0.0])),
])
def test_plan_chain_integrates_each_leg_once(monkeypatch, make_sys, make_oracle, source, target):
    """On a chain that takes no round trip, plan_chain integrates each leg
    once, for its fiber transition, and reads the leg's end off it: one run
    of fiber_flows per leg and each leg's control run once (a single-leg
    shortcut run would add one)."""
    sys = make_sys()
    oracle = CountingOracle(make_oracle(sys))
    source, target = TangentPoint(*source), TangentPoint(*target)
    runs = []

    def counting_fiber_flows(sys, signals, step):
        run = fiber_flows(sys, signals, step)
        return lambda i, *start: runs.append(signals[i]) or run(i, *start)

    monkeypatch.setattr(planner, "fiber_flows", counting_fiber_flows)
    chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    assert (target.x.tobytes(), source.x.tobytes()) not in oracle.pairs  # no round trip
    assert len(chain.legs) > 1 and len(runs) == len(chain.legs)
    assert [id(u) for u in runs] == [id(leg.control) for leg in chain.legs]
    assert verify_chain(sys, chain).passed


def test_no_leg_is_shorter_than_the_step():
    """On line_shift.json from 0 to 1 with T = 1e-4 the legs are cut from
    the step, 1e-3, and the plan lasts about 751 steps: taking 751 legs left
    six of them below the step after the splits' rounding, the shortest
    0.0009999999999999445 s. None is shorter now, and the chain verifies."""
    defn = SystemDefinition.load(str(DEFS / "line_shift.json"))
    sys = defn.system
    chain = plan_chain(sys, LinearGramianOracle.for_system(sys), TangentPoint([0.0], [0.0]),
                       TangentPoint([1.0], [0.0]), 0.25, 1e-4, 2000, defn.step)
    assert len(chain.legs) > 700
    assert min(leg.duration for leg in chain.legs) >= defn.step
    assert verify_chain(sys, chain).passed


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.pairs = []

    def solve(self, x, y):
        self.pairs.append((x.tobytes(), y.tobytes()))
        return self.inner.solve(x, y)


@pytest.mark.parametrize("make_oracle,source,target,t_min,n_pairs", [
    # x -> y and y -> x
    (lambda s: LinearGramianOracle.for_system(s, horizon=1.0),
     TangentPoint([0.0], [0.0]), TangentPoint([1.0], [0.5]), 0.5, 2),
    # plans shorter than T: padded with the same round trip several times
    (lambda s: LinearGramianOracle.for_system(s, horizon=1.0),
     TangentPoint([0.0], [0.0]), TangentPoint([1.0], [0.5]), 2.5, 2),
    # coincident bases: x -> x, then padding through a detour point d
    (SphereRotationOracle.for_system,
     TangentPoint([0.0, 1.0, 0.0], [0.3, 0.0, 0.0]),
     TangentPoint([0.0, 1.0, 0.0], [0.0, 0.0, 0.3]), 0.5, 3),
    # the first plan's jumps cover the fiber gap: no round trip is solved
    (lambda s: LinearGramianOracle.for_system(s, horizon=1.0),
     TangentPoint([0.0], [0.0]), TangentPoint([1.0], [0.2]), 0.5, 1),
])
def test_plan_chain_solves_each_pair_once(make_oracle, source, target, t_min, n_pairs):
    sys = sphere_system() if source.x.shape == (3,) else line_system()
    oracle = CountingOracle(make_oracle(sys))
    chain = plan_chain(sys, oracle, source, target, 0.25, t_min)
    assert len(oracle.pairs) == len(set(oracle.pairs)) == n_pairs
    assert all(leg.duration > t_min for leg in chain.legs)


class StubSolve:
    """Records each (a, b) it is asked for, and plans `duration` s of control
    1.0 between distinct points (unless `duration` is None) and nothing
    between equal ones."""

    def __init__(self, duration=0.5):
        self.duration = duration
        self.calls = []

    def __call__(self, a, b):
        self.calls.append((a.tolist(), b.tolist()))
        if self.duration is None or np.array_equal(a, b):
            return 0.0, ControlSignal.empty()
        return self.duration, ControlSignal.constant([1.0], self.duration)


def test_padded_plan_detours_on_flat_space_when_the_bases_coincide():
    """With x = y every round trip y -> x -> y is empty, so each pads through
    the detour point y + e1 instead."""
    x = np.array([1.0, 2.0])
    solve = StubSolve()
    sig = planner._padded_plan(solve, Manifold.flat(2), x, x.copy(), 1.5, ControlSignal.empty())
    round_trip = [([1.0, 2.0], [1.0, 2.0])] * 2 + [([1.0, 2.0], [2.0, 2.0]), ([2.0, 2.0], [1.0, 2.0])]
    assert solve.calls == round_trip * 2
    assert len(sig.segments) == 4 and sig.total_duration == 2.0


def test_padded_plan_detours_half_a_radian_on_the_sphere_when_the_bases_coincide():
    """On S2 the detour point is y retracted along its first tangent basis
    vector, 0.5 rad away: within 1e-15 of cos(0.5) y + sin(0.5) t."""
    y = np.array([0.6, 0.0, 0.8])
    m = Manifold.sphere2()
    solve = StubSolve()
    sig = planner._padded_plan(solve, m, y, y.copy(), 0.5, ControlSignal.empty())
    t = m.tangent_basis(y)[:, 0]
    detour = np.cos(0.5) * y + np.sin(0.5) * t
    assert solve.calls[:2] == [(y.tolist(), y.tolist())] * 2
    (a, d), (d_back, b) = solve.calls[2:]
    assert a == b == y.tolist() and d == d_back
    assert np.max(np.abs(np.array(d) - detour)) <= 1e-15
    assert sig.total_duration == 1.0


@pytest.mark.parametrize("duration,y,min_leg,calls", [
    (0.5, 1.0, 63.5, 128),
    (0.5, 1.0, 64.0, 130),
    (None, 0.0, 0.5, 260),  # every round trip is empty, through the detour point too
])
def test_padded_plan_gives_up_after_65_round_trips(duration, y, min_leg, calls):
    """Each round trip adds 1 s: 64 of them pass a min_leg of 63.5, and a
    min_leg of 64 raises after the 65th, however long the plan is by then."""
    solve = StubSolve(duration)
    pad = lambda: planner._padded_plan(solve, Manifold.flat(1), np.zeros(1), np.array([y]), min_leg,
                                       ControlSignal.empty())
    if min_leg == 63.5:
        assert pad().total_duration == 64.0
    else:
        with pytest.raises(SteeringFailure, match="could not pad plan"):
            pad()
    assert len(solve.calls) == calls


# --- reachable sets ----------------------------------------------------------

def test_reachable_sample_zero_horizon():
    sys = forced_rotation_system()
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    points = reachable_sample(sys, p0, 0.0, 10, seed=5)
    for p in points:
        assert np.array_equal(p.x, p0.x)
        assert np.array_equal(p.v, p0.v)


def test_reachable_sample_zero_fields():
    sys = AffineSystem(Manifold.flat(2), ConstantField(np.zeros(2)), (ConstantField(np.zeros(2)),),
                       [[-1.0, 1.0]])
    p0 = TangentPoint([0.5, 0.5], [1.0, -1.0])
    for p in reachable_sample(sys, p0, 2.0, 5, seed=6):
        assert np.allclose(p.x, p0.x, atol=1e-12)
        assert np.allclose(p.v, p0.v, atol=1e-12)


def test_reachable_sample_projection_consistency():
    """Base projections of the sampled lifted endpoints coincide bitwise with
    the base-only end points under the same controls."""
    sys = forced_rotation_system()
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    seed = 7
    n = 500
    step = 1e-2  # the identity is grid-independent; coarse keeps this fast
    points = reachable_sample(sys, p0, 1.5, n, seed=seed, step=step)
    signals = sample_control_signals(sys.bounds, 1.5, n, seed)
    assert len(points) == len(signals)
    for p, sig in zip(points, signals):
        if not sig.segments:
            assert np.array_equal(p.x, p0.x)
            continue
        base, _ = fiber_flows(sys, [sig], step)(0, p0.x, None)
        assert np.array_equal(p.x, base)


def test_reachable_sample_deterministic():
    sys = forced_rotation_system()
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    a = reachable_sample(sys, p0, 1.0, 8, seed=9)
    b = reachable_sample(sys, p0, 1.0, 8, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.v, pb.v)


@pytest.mark.parametrize("make_sys,p0", [
    (forced_rotation_system, TangentPoint([1.0, 0.0], [0.0, 1.0])),
    (duffing_system, TangentPoint([0.5, 0.0], [1.0, -0.5])),
])
def test_reachable_sample_is_one_fiber_flows_pass(monkeypatch, make_sys, p0):
    """reachable_sample takes every sample in one fiber_flows pass, on an
    affine and on a polynomial system, and each point is bitwise the run of
    its signal alone."""
    sys = make_sys()
    passes = []
    monkeypatch.setattr(planner, "fiber_flows", lambda *args: passes.append(args) or fiber_flows(*args))
    points = reachable_sample(sys, p0, 1.5, 12, seed=3)
    assert len(passes) == 1
    for p, sig in zip(points, sample_control_signals(sys.bounds, 1.5, 12, 3), strict=True):
        x, v = fiber_flows(sys, [sig])(0, p0.x, p0.v)
        assert np.array_equal(p.x, x) and np.array_equal(p.v, v)


# --- fiber reachability -------------------------------------------------------

def test_fiber_reachability_constant_fields_freeze_fiber():
    sys = integrator_system()
    oracle = LinearGramianOracle.for_system(sys)
    p0 = TangentPoint([0.0, 0.0], [1.0, 1.0])
    witness = check_fiber_reachability(sys, oracle, p0, np.array([2.0, 0.0]))
    assert np.linalg.norm(witness.endpoint.x - [2.0, 0.0]) <= 1e-6
    assert np.allclose(witness.endpoint.v, [1.0, 1.0], atol=1e-9)


def test_fiber_reachability_trivial_pair():
    sys = integrator_system()
    oracle = LinearGramianOracle.for_system(sys)
    p0 = TangentPoint([0.3, -0.3], [1.0, 0.0])
    witness = check_fiber_reachability(sys, oracle, p0, p0.x)
    # zero-value plan holds the base still and the fiber frozen
    assert np.linalg.norm(witness.endpoint.x - p0.x) <= 1e-9
    assert np.allclose(witness.endpoint.v, p0.v, atol=1e-9)


def test_fiber_reachability_matches_variational_oracle():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    rng = np.random.default_rng(62)
    for _ in range(5):
        p0 = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        y = rng.uniform(-1, 1, 2)
        witness = check_fiber_reachability(sys, oracle, p0, y)
        # constant controlled fields: the fiber flow is exactly e^{A t}
        expected = expm(ROT2 * witness.duration) @ p0.v
        assert np.linalg.norm(witness.endpoint.v - expected) <= 1e-6


# --- chains -------------------------------------------------------------------

def test_plan_chain_line_jump_count_bound():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    source = TangentPoint([0.0], [0.0])
    target = TangentPoint([0.0], [1.0])
    chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    assert len(chain.legs) >= 4  # ceil(|dv| / eps)
    assert len(chain.legs) <= 12
    report = verify_chain(sys, chain)
    assert report.passed, report.messages
    for leg in chain.legs:
        assert leg.duration > 0.5


def test_plan_chain_single_leg_when_flow_hits_target():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    source = TangentPoint([0.4, -0.1], [0.3, 0.8])
    _, sig = oracle.solve(source.x, np.array([-0.5, 0.7]))
    target = integrate_lifted(sys, source, sig, 1e-3).final_point
    chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    assert len(chain.legs) == 1
    assert verify_chain(sys, chain).passed
    # zero jump: the flow endpoint itself is within rounding of the target
    assert chain.legs[0].verified_distance <= 1e-9


def test_plan_chain_pair_within_reach_is_one_unsplit_leg():
    """A target within eps of the source is reached by the whole padded
    plan as one leg when its flowed end lands within eps too: here one
    quarter turn about z, pi/2 s, on sphere_two_axis, where cutting the plan
    into legs takes 3."""
    defn = SystemDefinition.load(str(SPHERE_TWO_AXIS))
    oracle = SphereRotationOracle.for_system(defn.system)
    m, z = defn.system.manifold, math.sqrt(1.0 - 0.06 ** 2)
    source, target = (TangentPoint(x, m.project_tangent(x, [0.05, 0.0, 0.0]))
                      for x in (np.array([0.0, 0.06, z]), np.array([0.06, 0.0, z])))
    chain = plan_chain(defn.system, oracle, source, target, 0.25, 0.5, step=defn.step)
    assert len(chain.legs) == 1
    leg = chain.legs[0]
    assert leg.start is source and leg.jump_target is target
    assert leg.duration == pytest.approx(math.pi / 2.0, abs=5e-3)
    assert verify_chain(defn.system, chain).passed


def test_plan_chain_forced_rotation_random_pairs():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    rng = np.random.default_rng(63)
    for eps in (0.25, 0.1):
        source = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        target = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        chain = plan_chain(sys, oracle, source, target, eps, 0.5)
        assert len(chain.legs) <= 200
        report = verify_chain(sys, chain)
        assert report.passed, report.messages


def test_plan_chain_source_equals_target():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    p = TangentPoint([0.0], [0.5])
    chain = plan_chain(sys, oracle, p, p, 0.25, 0.5)
    assert len(chain.legs) == 1
    assert verify_chain(sys, chain).passed


def test_plan_chain_sphere():
    sys = sphere_system()
    oracle = SphereRotationOracle.for_system(sys)
    m = sys.manifold
    rng = np.random.default_rng(64)
    x = m.random_point(rng)
    y = m.random_point(rng)
    source = TangentPoint(x, m.random_tangent(x, rng))
    target = TangentPoint(y, m.random_tangent(y, rng))
    chain = plan_chain(sys, oracle, source, target, 0.3, 0.3)
    report = verify_chain(sys, chain)
    assert report.passed, report.messages


def test_plan_chain_budget_error_carries_partial():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    source = TangentPoint([0.0], [0.0])
    target = TangentPoint([0.0], [5.0])
    with pytest.raises(PlanningBudgetError) as err:
        plan_chain(sys, oracle, source, target, 0.25, 0.5, max_legs=3)
    assert err.value.best_chain is not None
    assert len(err.value.best_chain.legs) <= 3


def test_plan_chain_keeps_round_trips_that_shrink_the_base_error():
    """Under drift -I a round trip started off the target base carries the
    offset back scaled by e^-2 (two 1 s solves). Here the plan misses y by
    0.03 > eps and the return solve misses x so that the round trip adds no
    miss of its own: the first round trip ends within 0.005 of y, so the
    chain closes there instead of stopping at the plan's base error."""
    sys = AffineSystem(Manifold.flat(2), LinearField(-np.eye(2)),
                       (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])),
                       [[-10.0, 10.0], [-10.0, 10.0]])
    exact = LinearGramianOracle.for_system(sys, horizon=1.0)
    x, y, miss = np.zeros(2), np.array([1.0, 0.0]), np.array([0.03, 0.0])

    class MissingOracle:
        def solve(self, a, b):
            aim = b + miss if np.array_equal(b, y) else b - math.e * miss
            return exact.solve(a, aim)

    source, target = TangentPoint(x, [0.0, 0.0]), TangentPoint(y, [0.0, 0.0])
    chain = plan_chain(sys, MissingOracle(), source, target, 0.025, 0.5)
    assert len(chain.legs) == 4  # the plan's 1 leg and one round trip's 3
    assert chain.legs[-1].verified_distance <= 0.005
    report = verify_chain(sys, chain)
    assert report.passed, report.messages


@pytest.mark.parametrize("max_legs", [0, -3])
def test_plan_chain_refuses_a_budget_below_one_leg(max_legs):
    """A pair within reach used to get a 1-leg chain whatever max_legs was,
    and a farther one a budget error naming the bad budget."""
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    source = TangentPoint([0.0], [0.0])
    for target in (TangentPoint([0.0], [0.1]), TangentPoint([3.0], [-5.0])):
        with pytest.raises(ValueError, match=f"max_legs must be at least 1, got {max_legs}"):
            plan_chain(sys, oracle, source, target, 0.25, 0.5, max_legs=max_legs)


@pytest.mark.parametrize("epsilon,T,named", [
    (math.nan, 0.5, "epsilon"), (math.inf, 0.5, "epsilon"), (0.25, math.nan, "T"), (0.25, math.inf, "T"),
])
def test_plan_chain_refuses_a_non_finite_epsilon_or_T(epsilon, T, named):
    """A NaN or infinite epsilon or T used to end in a float-to-integer
    conversion error deep in the planner, or, for T = inf, in a
    SteeringFailure about padding; each is now refused by name."""
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    value = epsilon if named == "epsilon" else T
    with pytest.raises(ValueError, match=f"{named} must be positive and finite, got {value}"):
        plan_chain(sys, oracle, TangentPoint([0.0], [0.0]), TangentPoint([3.0], [-5.0]), epsilon, T)


def test_chain_invariants_and_structure():
    """Legs link end to start, from the source to the target, on a flat, an
    S2 and a round-trip chain (the double integrator's). Each intermediate
    leg, re-integrated, ends on its jump target's base point bitwise and at
    the distance the planner recorded."""
    cases = [
        (forced_rotation_system(), LinearGramianOracle.for_system,
         ([0.5, 0.5], [1.0, 0.0]), ([-0.5, 0.2], [0.0, 1.0])),
        (sphere_system(), SphereRotationOracle.for_system,
         ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])),
        (double_integrator_system(), LinearGramianOracle.for_system,
         ([0.0, 0.0], [1.0, 0.0]), ([1.5, 0.0], [0.0, 1.0])),
    ]
    for sys, make_oracle, source, target in cases:
        source, target = TangentPoint(*source), TangentPoint(*target)
        oracle = CountingOracle(make_oracle(sys))
        chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
        assert np.array_equal(chain.legs[0].start.x, source.x)
        assert np.array_equal(chain.legs[0].start.v, source.v)
        last = chain.legs[-1].jump_target
        assert np.array_equal(last.x, target.x) and np.array_equal(last.v, target.v)
        for prev, nxt in zip(chain.legs, chain.legs[1:]):
            assert np.array_equal(prev.jump_target.x, nxt.start.x)
            assert np.array_equal(prev.jump_target.v, nxt.start.v)
        for leg in chain.legs[:-1]:
            # intermediate jumps never move the base point
            end = TangentPoint(*fiber_flows(sys, [leg.control], chain.step)(0, leg.start.x, leg.start.v))
            assert np.array_equal(end.x, leg.jump_target.x)
            d = distance(sys.manifold, end, leg.jump_target)
            assert d <= chain.epsilon and abs(d - leg.verified_distance) <= 1e-12
    assert (target.x.tobytes(), source.x.tobytes()) in oracle.pairs  # the last took a round trip


def test_verify_chain_rejects_short_leg():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    chain = plan_chain(sys, oracle, TangentPoint([0.0], [0.0]),
                       TangentPoint([0.0], [1.0]), 0.25, 0.5)
    bad_leg = dataclasses.replace(chain.legs[0], duration=0.3)
    bad = dataclasses.replace(chain, legs=(bad_leg,) + chain.legs[1:])
    report = verify_chain(sys, bad)
    assert not report.passed
    assert not report.legs[0].duration_ok
    assert any("leg 0" in msg for msg in report.messages)


def test_verify_chain_rejects_oversized_jump():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    chain = plan_chain(sys, oracle, TangentPoint([0.0], [0.0]),
                       TangentPoint([0.0], [1.0]), 0.25, 0.5)
    idx = 0
    leg = chain.legs[idx]
    moved = TangentPoint(leg.jump_target.x, leg.jump_target.v + 0.5)
    legs = list(chain.legs)
    legs[idx] = dataclasses.replace(leg, jump_target=moved)
    if idx + 1 < len(legs):
        legs[idx + 1] = dataclasses.replace(legs[idx + 1], start=moved)
    bad = dataclasses.replace(chain, legs=tuple(legs))
    report = verify_chain(sys, bad)
    assert not report.passed
    assert not report.legs[idx].distance_ok


@pytest.mark.parametrize("bad", ["control", "start"])
def test_one_bad_leg_among_good_legs_fails_alone(bad):
    """verify_chain takes every leg's powers in one stacked pass. A leg with
    an out-of-bounds control, or a start off the sphere, still fails alone,
    with a null distance and the message its own fiber_flows run raises, and the
    legs around it keep the checks of the unmodified chain."""
    sys = sphere_system()
    chain = plan_chain(sys, SphereRotationOracle.for_system(sys),
                       TangentPoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                       TangentPoint([0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]), 0.25, 0.5)
    good = verify_chain(sys, chain)
    assert good.passed and len(chain.legs) == 3
    legs = list(chain.legs)
    if bad == "control":
        legs[1] = dataclasses.replace(legs[1], control=ControlSignal(((legs[1].duration, [0.5, 3.0]),)))
        messages = ["leg 1: cannot re-integrate: control value NaN or outside bounds: segment 0, "
                    "channel 1 is 3.0, bounds [-1.0, 1.0]"]
    else:
        legs[1] = dataclasses.replace(legs[1], start=TangentPoint(1.25 * legs[1].start.x, legs[1].start.v))
        messages = ["leg 1: cannot re-integrate: |x| deviates from 1 by 2.500e-01",
                    "leg 1: start does not match previous jump target"]
    report = verify_chain(sys, dataclasses.replace(chain, legs=tuple(legs)))
    assert not report.passed and list(report.messages) == messages
    assert list(report.legs) == [good.legs[0], LegCheck(1, legs[1].duration, None, True, False, bad == "control"),
                                 good.legs[2]]


@pytest.mark.parametrize("target_x", [0.14, 1.0])
def test_chain_with_no_leg_fails(target_x):
    """A chain has at least one leg, and its last jump lands on the target:
    a chain with no leg fails, whether or not source and target lie within
    epsilon (it used to pass when they did). plan_chain gives either pair
    one leg: the nearer one by its single-leg shortcut."""
    sys = line_system()
    source, target = TangentPoint([0.0], [0.0]), TangentPoint([target_x], [0.0])
    report = verify_chain(sys, Chain((), 0.25, 0.5, source, target))
    assert (report.passed, report.legs, report.messages) == (False, (), ("a chain needs at least one leg",))
    chain = plan_chain(sys, LinearGramianOracle.for_system(sys), source, target, 0.25, 0.5)
    assert len(chain.legs) == 1 and verify_chain(sys, chain).passed


def _two_chains(second_epsilon, second_source):
    p, q = TangentPoint([0.0], [0.0]), TangentPoint([0.0], [0.6])
    return Chain((), 0.25, 0.5, p, q), Chain((), second_epsilon, 0.5, second_source, p)


@pytest.mark.parametrize("make,message", [
    (lambda: compose_chains(*_two_chains(0.1, TangentPoint([0.0], [0.6]))), "chains must share epsilon and T"),
    (lambda: compose_chains(*_two_chains(0.25, TangentPoint([0.0], [0.7]))),
     "first.target must equal second.source"),
    (lambda: Manifold.flat(0), "flat dimension must be >= 1"),
    (lambda: AffineSystem(Manifold.flat(1), ConstantField([0.0]), (), np.zeros((0, 2))),
     "need at least one controlled field"),
    (lambda: AffineSystem(Manifold.flat(1), ConstantField([0.0]), (ConstantField([1.0]),), [[1.0, -1.0]]),
     "control bounds must satisfy lo <= hi"),
    (lambda: split_signal(ControlSignal.constant([0.5], 1.0), 1.5), "split time 1.5 outside"),
    (lambda: split_signal(ControlSignal.constant([0.5], 1.0), -0.5), "split time -0.5 outside"),
    (lambda: ControlSignal.empty().value_at(0.0), "empty signal has no values"),
    (lambda: generate_brackets(line_system().controlled, 0), "max_depth must be >= 1"),
    (lambda: ControlSignal.constant([0.5], 1.0).value_at(1.5), "t=1.5 outside [0, 1.0]"),
    (lambda: integrate_base(line_system(), [0.0], ControlSignal.constant([1.0], 0.1), 0.01).final_point,
     "base trajectory has no fiber component"),
    (lambda: check_invariance(line_system(), [0.0], 0.0, ControlSignal.constant([1.0], 1.0), 0.5,
                              ControlSignal.constant([1.0], 1.0)), "t must equal the duration of u_sig"),
    # a NaN time fails every window test (each used to pass it)
    pytest.param(lambda: split_signal(ControlSignal.constant([0.5], 1.0), math.nan),
                 "split time nan outside [0, 1.0]", id="split_signal-nan"),
    pytest.param(lambda: ControlSignal.constant([0.5], 1.0).value_at(math.nan), "t=nan outside [0, 1.0]",
                 id="value_at-nan"),
    pytest.param(lambda: check_invariance(line_system(), [0.0], 0.0, ControlSignal.constant([1.0], 1.0),
                                          math.nan, ControlSignal.constant([1.0], 1.0)),
                 "t must equal the duration of u_sig", id="check_invariance-nan"),
    (lambda: reachable_sample(line_system(), TangentPoint([0.0], [0.0]), 1.0, 0, seed=0),
     "n_samples must be >= 1"),
    (lambda: PolynomialField([[(1.0, (0, 0))]], 2), "polynomial field needs one component per dimension"),
    (lambda: LinearField([1.0, 2.0]), "linear field needs a square matrix"),
    # the bracket table's errors other than the exponent limit keep their own words
    pytest.param(lambda: rank_at((LinearField(ROT2),), [0.5, 0.5], 0, Manifold.flat(2)),
                 "max_depth must be >= 1", id="rank_at-depth-0"),
    (lambda: rank_at((LinearField(ROT2), LinearField(L3)), [0.5, 0.5], 2, Manifold.flat(2)),
     "cannot bracket fields of dimensions 2 and 3"),
])
def test_library_input_errors_are_value_errors(make, message):
    """Library inputs that no command can build fail with one ValueError
    that says what is wrong."""
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_same_point_is_allclose_within_1e_12():
    """_same_point keeps np.allclose's verdict at rtol=0, atol=1e-12: a
    difference of exactly 1e-12 agrees, 2e-12 does not, a NaN never agrees,
    equal infinities do, and points of other shapes differ."""
    p = TangentPoint([0.0, 0.5], [1.0, 0.0])
    near = TangentPoint([1e-12, 0.5], [1.0, 0.0])
    far = TangentPoint([0.0, 0.5], [1.0, 2e-12])
    nan = TangentPoint([0.0, np.nan], [1.0, 0.0])
    inf = TangentPoint([0.0, np.inf], [1.0, 0.0])
    short = TangentPoint([0.0], [1.0])
    assert planner._same_point(p, near) and planner._same_point(near, p)
    assert not planner._same_point(p, far) and not planner._same_point(far, p)
    assert not planner._same_point(p, nan) and not planner._same_point(nan, nan)
    assert not planner._same_point(p, short) and not planner._same_point(short, p)
    for a, b in itertools.product([p, near, far, nan, inf], repeat=2):
        assert planner._same_point(a, b) == np.allclose(np.r_[a.x, a.v], np.r_[b.x, b.v],
                                                        rtol=0.0, atol=1e-12)


def test_chain_composition():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    p = TangentPoint([0.0], [0.0])
    q = TangentPoint([0.0], [0.6])
    r = TangentPoint([0.0], [1.2])
    first = plan_chain(sys, oracle, p, q, 0.25, 0.5)
    second = plan_chain(sys, oracle, q, r, 0.25, 0.5)
    combined = compose_chains(first, second)
    assert verify_chain(sys, combined).passed
    assert len(combined.legs) == len(first.legs) + len(second.legs)


def test_monotone_refinement():
    """A chain verified at epsilon also verifies at any larger epsilon."""
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    chain = plan_chain(sys, oracle, TangentPoint([0.3, 0.0], [0.0, 0.4]),
                       TangentPoint([0.0, 0.3], [0.9, 0.0]), 0.1, 0.5)
    relaxed = dataclasses.replace(chain, epsilon=0.25)
    assert verify_chain(sys, relaxed).passed


def test_chain_json_round_trip():
    sys = line_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    chain = plan_chain(sys, oracle, TangentPoint([0.0], [0.0]),
                       TangentPoint([0.0], [1.0]), 0.25, 0.5)
    payload = chain.to_json()
    back = Chain.from_json(payload)
    assert back.epsilon == chain.epsilon
    assert back.min_duration == chain.min_duration
    assert len(back.legs) == len(chain.legs)
    assert verify_chain(sys, back).passed


def test_plan_chain_deterministic():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    source = TangentPoint([0.5, 0.5], [1.0, 0.0])
    target = TangentPoint([-0.5, 0.2], [0.0, 1.0])
    a = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    b = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    assert a.to_json() == b.to_json()


def _tangent_point(m, x, v):
    """(x, v) cut to the manifold's dimension, v projected onto T_x M."""
    x = np.asarray(x[:m.ambient_dim])
    return TangentPoint(x, m.project_tangent(x, v[:m.ambient_dim]))


VEC3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
ON_SPHERE = st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.4, 1.4)).map(
    lambda a: [np.cos(a[1]) * np.cos(a[0]), np.cos(a[1]) * np.sin(a[0]), np.sin(a[1])])


@pytest.mark.parametrize("make_sys,make_oracle,base,fiber_scale", [
    (line_system, LinearGramianOracle.for_system, VEC3, 2.0),
    (forced_rotation_system, LinearGramianOracle.for_system, VEC3, 2.0),
    (lambda: SystemDefinition.load(str(SPHERE_TWO_AXIS)).system,
     SphereRotationOracle.for_system, ON_SPHERE, 1.0),
    (double_integrator_system, LinearGramianOracle.for_system, VEC3, 2.0),
])
def test_plan_chain_verifies_on_random_pairs(make_sys, make_oracle, base, fiber_scale):
    """verify_chain(plan_chain(p, q)) passes on random pairs whose fiber gaps
    reach several epsilon, and the chain survives a JSON round trip. Some
    pairs must take a round trip y -> x -> y, which no benchmark chain
    reaches: a counting oracle shows that (y, x) was solved."""
    sys = make_sys()
    m = sys.manifold
    oracle = CountingOracle(make_oracle(sys))
    solved_back = []

    @settings(max_examples=15 if m.is_flat else 8, deadline=None, derandomize=True)
    @given(x=base, v=VEC3, y=base, w=VEC3)
    def check(x, v, y, w):
        source = _tangent_point(m, x, fiber_scale * np.array(v))
        target = _tangent_point(m, y, fiber_scale * np.array(w))
        oracle.pairs.clear()
        chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
        report = verify_chain(sys, chain)
        assert report.passed, report.messages
        solved_back.append((target.x.tobytes(), source.x.tobytes()) in oracle.pairs)
        payload = json.loads(json.dumps(chain.to_json()))
        assert Chain.from_json(payload).to_json() == chain.to_json()

    check()
    assert any(solved_back)
