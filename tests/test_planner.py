import dataclasses
import json
import math
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
    PlanningBudgetError,
    PolynomialField,
    SearchOracle,
    SphereRotationOracle,
    SteeringFailure,
    TangentPoint,
    UncontrollablePairError,
    check_fiber_reachability,
    compose_chains,
    distance,
    integrate_base,
    integrate_lifted,
    plan_chain,
    reachable_sample,
    verify_chain,
    zero_field,
)
from liftctl.cli import SystemDefinition
from liftctl.flow import fiber_flow
from liftctl import planner
from liftctl.planner import _chunk_transitions, sample_control_signals

DEFS = Path(__file__).resolve().parent.parent / "defs"
SPHERE_TWO_AXIS = DEFS.parent / "perfbench" / "defs" / "sphere_two_axis.json"

ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def line_system():
    return AffineSystem(Manifold.flat(1), zero_field(1),
                        (ConstantField([1.0]),), [[-10.0, 10.0]])


def integrator_system():
    return AffineSystem(Manifold.flat(2), zero_field(2),
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
    return AffineSystem(Manifold.sphere2(), zero_field(3),
                        (LinearField(L3), LinearField(L1)),
                        [[-1.0, 1.0], [-1.0, 1.0]])


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
    sys = sphere_system()
    oracle = SphereRotationOracle.for_system(sys)
    m = sys.manifold
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = m.random_point(rng)
        y = m.random_point(rng)
        _, sig = oracle.solve(x, y)
        end = integrate_base(sys, x, sig, 1e-3).final_state
        assert m.base_distance(end, y) <= 1e-6


def test_search_oracle_line():
    sys = line_system()
    oracle = SearchOracle(sys, t_max=3.0)
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
                fiber_flow(sys, [1.0], None, ControlSignal.constant(u, t), 1e-2)[0], [2.0])
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
    """A batched grid level scores every candidate as fiber_flow, the
    end-point entry, does one at a time (1e-12 absolute), and as the
    stepping integrate_base does up to rounding (1e-12 relative: matrix
    powers take the affine rows), and picks the first strict minimum in
    t-major, u-minor order."""
    sys = make_sys()
    x, y = np.array(x), np.array(y)
    candidates = first_level_candidates(sys)
    errs = one_at_a_time_errors(sys, x, y, candidates,
                                end_point=lambda *run: fiber_flow(*run[:2], None, *run[2:])[0])
    oracle = CountingSearch(sys, levels=1)
    durations = np.array([t for t, _ in candidates])
    controls = np.array([u for _, u in candidates])
    batch = oracle._endpoint_errors(x, y, durations, controls)
    assert np.max(np.abs(batch - errs)) <= 1e-12
    stepped = one_at_a_time_errors(sys, x, y, candidates)
    assert np.max(np.abs(batch - stepped) / np.maximum(1.0, np.abs(stepped))) <= 1e-12

    best = int(np.argmin(errs))
    oracle = CountingSearch(sys, levels=1)
    oracle.steer_tol = 2.0 * errs[best]  # accept the level's winner
    assert sys.manifold.base_distance(x, y) > oracle.steer_tol
    duration, sig = oracle.solve(x, y)
    assert oracle.evaluated == len(candidates)
    assert duration == candidates[best][0]
    assert np.array_equal(sig.segments[0][1], candidates[best][1])


def test_search_budget_caps_candidates():
    sys = bilinear_rotation_system()
    x, y = np.array([1.0, 0.0]), np.array([0.2, 0.9])
    errs = one_at_a_time_errors(sys, x, y, first_level_candidates(sys)[:10])
    oracle = CountingSearch(sys, budget=10)
    oracle.steer_tol = 2.0 * errs.min()
    duration, _ = oracle.solve(x, y)
    assert oracle.evaluated == 10
    assert duration == first_level_candidates(sys)[int(np.argmin(errs))][0]
    with pytest.raises(SteeringFailure):
        CountingSearch(sys, budget=10).solve(x, y)


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
    ends = [TangentPoint(*fiber_flow(sys, x, b_start[:, i], chunk, 1e-3))
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
    once, for its fiber transition, and reads the leg's end off it."""
    sys = make_sys()
    oracle = CountingOracle(make_oracle(sys))
    source, target = TangentPoint(*source), TangentPoint(*target)
    calls = []

    def counting_fiber_flow(*args):
        calls.append(args)
        return fiber_flow(*args)

    monkeypatch.setattr(planner, "fiber_flow", counting_fiber_flow)
    chain = plan_chain(sys, oracle, source, target, 0.25, 0.5)
    assert (target.x.tobytes(), source.x.tobytes()) not in oracle.pairs  # no round trip
    assert len(chain.legs) > 1 and len(calls) == len(chain.legs)
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


# --- reachable sets ----------------------------------------------------------

def test_reachable_sample_zero_horizon():
    sys = forced_rotation_system()
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    points = reachable_sample(sys, p0, 0.0, 10, seed=5)
    for p in points:
        assert np.array_equal(p.x, p0.x)
        assert np.array_equal(p.v, p0.v)


def test_reachable_sample_zero_fields():
    sys = AffineSystem(Manifold.flat(2), zero_field(2), (zero_field(2),),
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
        base, _ = fiber_flow(sys, p0.x, None, sig, step)
        assert np.array_equal(p.x, base)


def test_reachable_sample_deterministic():
    sys = forced_rotation_system()
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    a = reachable_sample(sys, p0, 1.0, 8, seed=9)
    b = reachable_sample(sys, p0, 1.0, 8, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.v, pb.v)


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
            end = TangentPoint(*fiber_flow(sys, leg.start.x, leg.start.v, leg.control, chain.step))
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
