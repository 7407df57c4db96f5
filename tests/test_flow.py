from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liftctl import (
    AffineSystem,
    ConstantField,
    ControlSignal,
    DefinitionError,
    IntegrationError,
    LinearField,
    Manifold,
    OffManifoldError,
    PolynomialField,
    TangentPoint,
    Trajectory,
    VectorField,
    check_flow_formula,
    check_invariance,
    concat,
    field_from_descriptor,
    integrate_base,
    integrate_lifted,
    lifted_rank_at,
    shift,
    zero_field,
)
from liftctl import flow
from liftctl.cli import SystemDefinition
from liftctl.flow import (
    _rk4,
    _segment_step,
    constant_control_endpoints,
    fiber_flow,
    split_signal,
)

FLAT_ROTATION = str(Path(__file__).resolve().parent.parent / "defs" / "flat_rotation.json")
SPHERE_ROTATION = str(Path(__file__).resolve().parent.parent / "defs" / "sphere_rotation.json")
DUFFING = str(Path(__file__).resolve().parent.parent / "perfbench" / "defs" / "duffing.json")
ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def rotation_system():
    """Rotation drift with one radial control channel; all fields linear."""
    return AffineSystem(Manifold.flat(2), LinearField(ROT2),
                        (LinearField(np.eye(2)),), [[-2.0, 2.0]])


def bilinear_system(a, b):
    return AffineSystem(Manifold.flat(2), LinearField(a), (LinearField(b),),
                        [[-2.0, 2.0]])


def sphere_bilinear_system():
    return AffineSystem(Manifold.sphere2(), LinearField(L3), (LinearField(L1),),
                        [[-1.0, 1.0]])


# --- control signals -------------------------------------------------------

def test_concat_examples():
    v = ControlSignal.constant([1.0], 2.0)
    u = ControlSignal.constant([5.0], 3.0)
    w = concat(v, 1.0, u)
    assert w.value_at(0.5) == pytest.approx([1.0])
    assert w.value_at(2.0) == pytest.approx([5.0])
    assert w.total_duration == pytest.approx(4.0)

    assert concat(v, 0.0, u).to_json() == u.to_json()
    assert concat(v, v.total_duration, ControlSignal.empty()).to_json() == v.to_json()


def test_concat_out_of_range():
    v = ControlSignal.constant([1.0], 2.0)
    with pytest.raises(ValueError):
        concat(v, 3.0, v)
    with pytest.raises(ValueError):
        concat(v, -0.5, v)


def test_shift_examples():
    u = ControlSignal((
        (1.0, np.array([2.0])),
        (1.0, np.array([-1.0])),
    ))
    shifted = shift(u, 1.0)
    assert len(shifted.segments) == 1
    assert shifted.segments[0][0] == 1.0
    assert shifted.segments[0][1][0] == -1.0
    assert shift(u, 0.0).to_json() == u.to_json()
    with pytest.raises(ValueError):
        shift(u, 5.0)


def test_shift_undoes_concat_exactly():
    rng = np.random.default_rng(30)
    for _ in range(50):
        v = ControlSignal(tuple(
            (float(rng.uniform(0.1, 1.0)), rng.standard_normal(2))
            for _ in range(int(rng.integers(1, 5)))
        ))
        u = ControlSignal(tuple(
            (float(rng.uniform(0.1, 1.0)), rng.standard_normal(2))
            for _ in range(int(rng.integers(1, 5)))
        ))
        s = float(rng.uniform(0.0, v.total_duration))
        w = concat(v, s, u)
        back = shift(w, s)
        assert len(back.segments) == len(u.segments)
        for (d1, a1), (d2, a2) in zip(back.segments, u.segments):
            assert d1 == d2
            assert np.array_equal(a1, a2)



SIGNAL = st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(-3.0, 3.0)),
                  min_size=1, max_size=6).map(
    lambda segs: ControlSignal(tuple((d, [u]) for d, u in segs)))


def _midpoints(sig: ControlSignal) -> list:
    """The middle instant of each segment, where a value is unambiguous."""
    ends = np.cumsum([d for d, _ in sig.segments])
    return [float(end - 0.5 * d) for end, (d, _) in zip(ends, sig.segments)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(u=SIGNAL, v=SIGNAL, f=st.floats(0.0, 1.0), g=st.floats(0.0, 1.0))
def test_signal_laws_on_random_signals(u, v, f, g):
    """split_signal, concat and shift on random scalar signals: the parts of a
    split add up to the signal, a spliced signal follows v then u, a shift
    reads the signal later, and shift undoes concat exactly."""
    cut = g * u.total_duration
    head, tail = split_signal(u, cut)
    # a cut within the snap tolerance of a boundary moves onto it
    assert head.total_duration == pytest.approx(cut, abs=1e-10)
    assert head.total_duration + tail.total_duration == pytest.approx(u.total_duration)
    joined = ControlSignal(head.segments + tail.segments)
    for t in _midpoints(u):
        assert np.array_equal(joined.value_at(t), u.value_at(t))
        if t > cut + 1e-9:
            assert np.array_equal(shift(u, cut).value_at(t - cut), u.value_at(t))

    s = f * v.total_duration
    w = concat(v, s, u)
    assert w.total_duration == pytest.approx(s + u.total_duration)
    for t in _midpoints(v):
        if t < s - 1e-9:
            assert np.array_equal(w.value_at(t), v.value_at(t))
    for t in _midpoints(u):
        assert np.array_equal(w.value_at(s + t), u.value_at(t))
    assert shift(w, s).to_json() == u.to_json()

def test_signal_validation():
    with pytest.raises(ValueError):
        ControlSignal(((0.0, [1.0]),))
    with pytest.raises(ValueError):
        ControlSignal(((-1.0, [1.0]),))
    with pytest.raises(ValueError):
        ControlSignal(((np.nan, [1.0]),))
    sys = rotation_system()
    with pytest.raises(ValueError):
        integrate_base(sys, [1.0, 0.0], ControlSignal.constant([5.0], 1.0))
    with pytest.raises(ValueError):
        integrate_base(sphere_bilinear_system(), [1.0, 0.0, 0.0],
                       ControlSignal.constant([np.nan], 0.1))
    with pytest.raises(ValueError):
        AffineSystem(Manifold.flat(2), LinearField(ROT2), (LinearField(np.eye(2)),),
                     [[np.nan, np.nan]])


# --- integration -----------------------------------------------------------

def test_integrate_base_linear_against_expm():
    sys = AffineSystem(Manifold.flat(2), LinearField(ROT2),
                       (ConstantField([1.0, 0.0]),), [[-1.0, 1.0]])
    u = ControlSignal.zero(1, np.pi / 2.0)
    traj = integrate_base(sys, [1.0, 0.0], u, 1e-3)
    oracle = expm(ROT2 * np.pi / 2.0) @ np.array([1.0, 0.0])
    assert np.linalg.norm(traj.final_state - oracle) <= 1e-8
    assert np.linalg.norm(traj.final_state - np.array([0.0, 1.0])) <= 1e-8


def test_integrate_zero_dynamics_is_constant():
    sys = AffineSystem(Manifold.flat(2), zero_field(2), (zero_field(2),),
                       [[-1.0, 1.0]])
    traj = integrate_base(sys, [0.5, -0.5], ControlSignal.zero(1, 1.0), 1e-2)
    assert np.array_equal(traj.states[0], traj.states[-1])


def test_integrate_sphere_rotation_half_turn():
    sys = AffineSystem(Manifold.sphere2(), LinearField(L3),
                       (LinearField(L1),), [[-1.0, 1.0]])
    traj = integrate_base(sys, [1.0, 0.0, 0.0], ControlSignal.zero(1, np.pi), 1e-3)
    assert np.linalg.norm(traj.final_state - np.array([-1.0, 0.0, 0.0])) <= 1e-7
    assert traj.max_drift <= 1e-12


def test_integrate_empty_control_single_row():
    sys = rotation_system()
    traj = integrate_base(sys, [1.0, 0.0], ControlSignal.empty(), 1e-3)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.states[0], [1.0, 0.0])


def test_integrate_lifted_matches_expm_oracle():
    a = ROT2
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    sys = bilinear_system(a, b)
    u_val = 0.7
    u = ControlSignal.constant([u_val], 2.0)
    p0 = TangentPoint([1.0, 0.5], [-0.3, 1.1])
    traj = integrate_lifted(sys, p0, u, 1e-3)
    phi = expm((a + u_val * b) * 2.0)
    assert np.linalg.norm(traj.final_state - phi @ p0.x) <= 1e-8
    assert np.linalg.norm(traj.final_point.v - phi @ p0.v) <= 1e-8


def test_integrate_lifted_zero_fiber_stays_zero():
    sys = rotation_system()
    u = ControlSignal.constant([0.3], 1.5)
    traj = integrate_lifted(sys, TangentPoint([1.0, 0.0], [0.0, 0.0]), u, 1e-3)
    assert not np.any(traj.fibers)


def test_integrate_lifted_time_zero():
    sys = rotation_system()
    p0 = TangentPoint([1.0, 2.0], [3.0, 4.0])
    traj = integrate_lifted(sys, p0, ControlSignal.empty(), 1e-3)
    assert np.array_equal(traj.states[0], p0.x)
    assert np.array_equal(traj.fibers[0], p0.v)


@pytest.mark.parametrize("make_sys,x0,v0", [
    (rotation_system, [1.0, 0.25], [0.5, -1.0]),
    (sphere_bilinear_system, [1.0, 0.0, 0.0], [0.0, 0.7, -0.2]),
])
def test_projection_identity_bitwise(make_sys, x0, v0):
    """Base component of the lifted trajectory is bitwise the base run."""
    sys = make_sys()
    u = ControlSignal(((0.4, np.array([0.5])), (0.7, np.array([-0.25]))))
    base = integrate_base(sys, x0, u, 1e-3)
    lifted = integrate_lifted(sys, TangentPoint(x0, v0), u, 1e-3)
    assert np.array_equal(base.times, lifted.times)
    assert np.array_equal(base.states, lifted.states)


def test_drift_monitor_raises_on_huge_step():
    sys = sphere_bilinear_system()
    with pytest.raises(IntegrationError):
        integrate_base(sys, [1.0, 0.0, 0.0], ControlSignal.zero(1, 10.0), 1.0)


def callable_copy(fld):
    """The same field as a bare callable with an analytic Jacobian, which
    integrates by the four RK4 stages instead of the step map."""
    a, b = fld.affine()
    return VectorField(lambda x: a @ x + b, lambda x: a)


def random_affine_system(n, constant_drift, rng):
    drift = (ConstantField(rng.normal(size=n)) if constant_drift
             else LinearField(0.5 * rng.normal(size=(n, n))))
    controlled = (LinearField(0.5 * rng.normal(size=(n, n))), ConstantField(rng.normal(size=n)))
    return AffineSystem(Manifold.flat(n), drift, controlled, [[-1.0, 1.0], [-1.0, 1.0]])


def stage_copy(sys):
    return AffineSystem(sys.manifold, callable_copy(sys.drift),
                        tuple(callable_copy(f) for f in sys.controlled), sys.bounds)


def sphere_two_axis_system():
    return AffineSystem(Manifold.sphere2(), zero_field(3),
                        (LinearField(L1), LinearField(L3)), [[-1.0, 1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("n,drift", [(1, "constant"), (1, "linear"), (2, "constant"),
                                     (2, "linear"), (3, "constant"), (3, "linear"),
                                     (3, "sphere")])
def test_step_map_matches_stages(n, drift):
    """Linear and constant fields step by the precomputed affine map; the
    same matrices as bare callables step by the four stages. Both are RK4,
    so states and fibers agree up to rounding; base and lifted runs on the
    map path stay bitwise equal, with c != 0 when the drift is constant."""
    rng = np.random.default_rng(100 * n + (drift == "constant"))
    if drift == "sphere":
        sys = sphere_two_axis_system()
        x0 = np.array([0.6, 0.0, 0.8])
        v0 = np.array([0.8, 0.3, -0.6])
    else:
        sys = random_affine_system(n, drift == "constant", rng)
        x0, v0 = rng.normal(size=n), rng.normal(size=n)
    stages = stage_copy(sys)
    u = ControlSignal(tuple((float(rng.uniform(0.2, 0.5)), rng.uniform(-1.0, 1.0, 2))
                            for _ in range(3)))
    assert sys.affine_parts(u.segments[0][1]) is not None
    assert stages.affine_parts(u.segments[0][1]) is None
    mapped = integrate_lifted(sys, TangentPoint(x0, v0), u, 1e-3)
    staged = integrate_lifted(stages, TangentPoint(x0, v0), u, 1e-3)
    for got, want in ((mapped.states, staged.states), (mapped.fibers, staged.fibers)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    base = integrate_base(sys, x0, u, 1e-3)
    assert np.array_equal(base.times, mapped.times)
    assert np.array_equal(base.states, mapped.states)


def duffing_type_system():
    drift = PolynomialField([[(1.0, (0, 1))],
                             [(-1.0, (1, 0)), (-1.0, (3, 0)), (-0.2, (0, 1))]], 2)
    forcing = PolynomialField([[], [(1.0, (0, 0)), (0.5, (2, 0))]], 2)
    return AffineSystem(Manifold.flat(2), drift, (forcing,), [[-1.0, 1.0]])


def cubic_system_r3():
    drift = PolynomialField([[(-0.5, (1, 0, 0)), (1.0, (0, 1, 1))],
                             [(0.3, (2, 0, 1)), (-1.0, (0, 3, 0))],
                             [(0.7, (1, 1, 1)), (-0.2, (0, 0, 1))]], 3)
    controlled = (PolynomialField([[(1.0, (0, 0, 0))], [(0.5, (1, 0, 2))], []], 3),
                  LinearField(L1))
    return AffineSystem(Manifold.flat(3), drift, controlled, [[-1.0, 1.0], [-1.0, 1.0]])


def sphere_polynomial_system():
    """x3 (-x2, x1, 0), tangent to S2 and not affine, beside a rotation."""
    twisted = PolynomialField([[(-1.0, (0, 1, 1))], [(1.0, (1, 0, 1))], []], 3)
    return AffineSystem(Manifold.sphere2(), zero_field(3), (twisted, LinearField(L1)),
                        [[-1.0, 1.0], [-1.0, 1.0]])


def bare_copy(sys):
    """The same polynomial fields as bare callables, which step by the four
    stages through rhs and rhs_jacobian instead of the polynomial tables."""
    def wrap(fld):
        return VectorField(fld, fld.jacobian)
    return AffineSystem(sys.manifold, wrap(sys.drift), tuple(map(wrap, sys.controlled)),
                        sys.bounds)


POLYNOMIAL_CASES = [
    (duffing_type_system, [0.4, -0.3], [1.0, 0.5]),
    (cubic_system_r3, [0.5, -0.4, 0.3], [0.2, 1.0, -0.7]),
    (sphere_polynomial_system, [0.6, 0.0, 0.8], [0.8, 0.3, -0.6]),
]


def three_segments(n_controls, rng):
    return ControlSignal(tuple((float(rng.uniform(0.2, 0.5)), rng.uniform(-1.0, 1.0, n_controls))
                               for _ in range(3)))


@pytest.mark.parametrize("make_sys,x0,v0", POLYNOMIAL_CASES)
def test_polynomial_tables_match_stages(make_sys, x0, v0):
    """Polynomial fields step from one monomial vector per stage; the same
    fields as bare callables take rhs and rhs_jacobian. Both are the same
    RK4 stages, so states and fibers agree up to rounding, and base and
    lifted runs on the table path stay bitwise equal."""
    sys = make_sys()
    stages = bare_copy(sys)
    u = three_segments(sys.n_controls, np.random.default_rng(len(x0)))
    assert sys._polynomial_table is not None and sys.affine_parts(u.segments[0][1]) is None
    assert stages._polynomial_table is None
    p0 = TangentPoint(x0, v0)
    fused = integrate_lifted(sys, p0, u, 1e-3)
    staged = integrate_lifted(stages, p0, u, 1e-3)
    for got, want in ((fused.states, staged.states), (fused.fibers, staged.fibers)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    base = integrate_base(sys, x0, u, 1e-3)
    assert np.array_equal(base.times, fused.times)
    assert np.array_equal(base.states, fused.states)


@pytest.mark.parametrize("make_sys,x0,v0", POLYNOMIAL_CASES)
def test_polynomial_fiber_flow_matches_columns(make_sys, x0, v0):
    """An (n, d) fiber on the table path carries each column as a lifted
    run does."""
    sys = make_sys()
    n = len(x0)
    u = three_segments(sys.n_controls, np.random.default_rng(7 + n))
    fibers = sys.manifold.tangent_basis(np.array(x0))
    x_end, v_end = fiber_flow(sys, x0, fibers, u, 1e-3)
    for i in range(fibers.shape[1]):
        run = integrate_lifted(sys, TangentPoint(x0, fibers[:, i]), u, 1e-3)
        assert np.array_equal(run.final_state, x_end)
        assert np.max(np.abs(v_end[:, i] - run.fibers[-1])) <= 1e-12 * max(
            1.0, np.max(np.abs(run.fibers[-1])))


def test_polynomial_runs_never_call_the_field_evaluators(monkeypatch):
    """Lifted runs and search batches on polynomial fields step from the
    system's tables, so they never evaluate a field component by component;
    loading a definition and the rank computation build no table."""
    defn = SystemDefinition.load(DUFFING)
    fields = (defn.system.drift, *defn.system.controlled)
    lifted_rank_at(fields, TangentPoint([0.3, -0.2], [1.0, 0.5]), 3, defn.manifold)
    assert "_polynomial_table" not in defn.system.__dict__

    def refuse(self, x):
        raise AssertionError("polynomial field evaluated outside the tables")
    monkeypatch.setattr(PolynomialField, "_eval", refuse)
    monkeypatch.setattr(PolynomialField, "_jac", refuse)
    sys = SystemDefinition.load(DUFFING).system
    with pytest.raises(AssertionError):
        sys.drift([0.0, 0.0])
    u = ControlSignal(((0.5, [0.3]), (0.5, [-0.7])))
    run = integrate_lifted(sys, TangentPoint([0.3, -0.2], [1.0, 0.5]), u)
    assert np.all(np.isfinite(run.fibers))
    ends = constant_control_endpoints(sys, [0.3, -0.2], [[0.5], [-0.5], [1.0]],
                                      [0.2, 0.3, 0.2], [1e-2, 1e-2, 1e-2])
    assert ends.shape == (3, 2) and np.all(np.isfinite(ends))


@pytest.mark.parametrize("make_sys", [
    sphere_bilinear_system,
    lambda: stage_copy(sphere_bilinear_system()),
])
def test_nan_state_on_sphere_raises(make_sys):
    """A NaN state fails the drift test (NaN compares false) on both paths,
    in single runs (by the map or the stages) and in row batches (by the
    stages: constant_control_endpoints takes affine rows as powers). The
    entry points reject a NaN start before stepping
    (test_non_finite_start_raises), so the state goes to the stepper
    directly."""
    sys = make_sys()
    h = 1e-3
    with pytest.raises(IntegrationError):
        _rk4(_segment_step(sys, np.array([0.0]), h), np.array([np.nan, 0.0, 0.0]), None,
             h, 10, True)
    rows_h = np.full((2, 1), h)
    with pytest.raises(IntegrationError):
        _rk4(_segment_step(sys, np.array([[0.5], [-0.5]]), rows_h),
             np.tile([np.nan, 0.0, 0.0], (2, 1)), None, rows_h, 10, True)


@pytest.mark.parametrize("manifold", [Manifold.flat(3), Manifold.sphere2()])
def test_non_finite_start_raises(manifold):
    """A NaN or infinite start point or fiber is off the manifold, on flat
    space too, instead of giving NaN rows."""
    sys = AffineSystem(manifold, zero_field(3), (LinearField(L3),), [[-1.0, 1.0]])
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(OffManifoldError):
            integrate_base(sys, bad, ControlSignal.empty())
        with pytest.raises(OffManifoldError):
            constant_control_endpoints(sys, bad, [[0.5]], [0.01], [1e-3])
        with pytest.raises(OffManifoldError):
            integrate_lifted(sys, TangentPoint([0.0, 0.0, 1.0], bad), ControlSignal.empty())


def test_step_that_is_not_positive_and_finite_is_refused():
    """On defs/flat_rotation.json from (1, 0) under u = 0.5 for 5 s, an
    infinite step used to take one step per segment and end at (-45.9, -26.8),
    far from the (3.46, -11.68) of step 1e-3. Every entry point refuses it,
    and a NaN, zero or negative step, before any step."""
    sys = SystemDefinition.load(FLAT_ROTATION).system
    u = ControlSignal.constant([0.5], 5.0)
    for step in (np.inf, np.nan, 0.0, -1e-3):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrate_base(sys, [1.0, 0.0], u, step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrate_lifted(sys, TangentPoint([1.0, 0.0], [0.0, 1.0]), u, step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            fiber_flow(sys, [1.0, 0.0], [0.0, 1.0], u, step)


def test_batch_step_that_is_not_positive_and_finite_is_refused():
    """A NaN step used to drop its row from every step-count group and return
    uninitialized memory, an infinite or negative one took one step, and a
    zero one raised the grid-cap error; each is now refused by name, as the
    integration entry points refuse it."""
    sys = rotation_system()
    for bad in (np.nan, np.inf, -1e-2, 0.0):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            constant_control_endpoints(sys, [1.0, 0.0], [[0.5], [0.5]], [0.2, 0.3], [1e-2, bad])


def test_degree_one_polynomial_takes_the_step_map():
    """A "polynomial" descriptor of degree one is affine: it steps by the
    map and integrates bitwise like the same "linear" descriptor."""
    lin = field_from_descriptor({"type": "linear", "matrix": [[0.3, -1.1], [0.9, 0.2]]})
    poly = field_from_descriptor({"type": "polynomial", "components": [
        [[0.3, [1, 0]], [-1.1, [0, 1]]], [[0.9, [1, 0]], [0.2, [0, 1]]]]})
    systems = [AffineSystem(Manifold.flat(2), drift, (ConstantField([0.5, -0.25]),),
                            [[-1.0, 1.0]]) for drift in (lin, poly)]
    assert systems[1].affine_parts(np.array([0.7])) is not None
    u = ControlSignal(((0.4, [0.7]), (0.3, [-0.2])))
    p0 = TangentPoint([0.8, -0.6], [0.1, 0.9])
    want, got = (integrate_lifted(sys, p0, u) for sys in systems)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.fibers, want.fibers)


def test_overflow_on_flat_raises():
    sys = AffineSystem(Manifold.flat(2), LinearField(1e200 * np.eye(2)),
                       (LinearField(np.eye(2)),), [[-1.0, 1.0]])
    u = ControlSignal.zero(1, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError):
            integrate_base(sys, [1.0, 1.0], u, 1e-3)
        with pytest.raises(IntegrationError):
            integrate_lifted(sys, TangentPoint([1.0, 1.0], [0.0, 1.0]), u, 1e-3)


def power_case(name):
    """(system, x0, v0) on R^1 to R^3 (a constant drift on R^2, so c != 0)
    and on S2, with every field affine."""
    rng = np.random.default_rng(len(name))
    if name == "S2":
        return sphere_two_axis_system(), np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.3, -0.6])
    n = int(name[-1])
    return random_affine_system(n, n == 2, rng), rng.normal(size=n), rng.normal(size=n)


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "S2"])
def test_segment_power_matches_recorded_run(name, monkeypatch):
    """fiber_flow takes one matrix power per affine segment and never steps;
    its end point agrees with integrate_lifted's recorded final row within
    1e-12 relative, over several segments including 1-step ones, for a fiber
    vector and for the columns of a fiber matrix. The base end point is
    bitwise the same with or without fibers."""
    sys, x0, v0 = power_case(name)
    n = x0.shape[0]
    fibers = np.column_stack([v0, sys.manifold.project_tangent(x0, np.arange(1.0, n + 1))])
    u = ControlSignal(((0.37, [0.4, -0.8]), (1e-3, [-0.6, 0.2]), (0.6e-3, [0.9, 0.5]),
                       (0.81, [-0.3, 1.0])))
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_rk4", None)  # any stepping fails with a TypeError
        x_base, none = fiber_flow(sys, x0, None, u, 1e-3)
        x_vec, v_vec = fiber_flow(sys, x0, v0, u, 1e-3)
        x_mat, v_mat = fiber_flow(sys, x0, fibers, u, 1e-3)
    assert none is None
    assert np.array_equal(x_base, x_vec) and np.array_equal(x_base, x_mat)
    want = integrate_lifted(sys, TangentPoint(x0, v0), u, 1e-3).final_point
    other = integrate_lifted(sys, TangentPoint(x0, fibers[:, 1]), u, 1e-3).final_point
    for got, ref in ((x_vec, want.x), (v_vec, want.v), (v_mat[:, 0], want.v),
                     (v_mat[:, 1], other.v)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_segment_power_checks_as_the_stepper_does():
    """The power path raises IntegrationError on an overflowing segment and
    on drift off the sphere past DRIFT_TOL, and rejects a start that
    integrate_lifted rejects."""
    flat = AffineSystem(Manifold.flat(2), LinearField(50.0 * np.eye(2)),
                        (ConstantField([1.0, 0.0]),), [[-1.0, 1.0]])
    u = ControlSignal.zero(1, 20.0)  # e^1000 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for fibers in (None, np.array([0.0, 1.0]), np.eye(2)):
            with pytest.raises(IntegrationError):
                fiber_flow(flat, [1.0, 1.0], fibers, u, 1e-3)
    sphere = sphere_bilinear_system()
    with pytest.raises(IntegrationError, match="drift"):
        fiber_flow(sphere, [1.0, 0.0, 0.0], None, ControlSignal.zero(1, 10.0), 1.0)
    x = [0.0, 0.0, 1.0]
    for bad in ([0.0, 0.0, 1.0], [np.nan, 0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(OffManifoldError):
            integrate_lifted(sphere, TangentPoint(x, bad), ControlSignal.empty())
        with pytest.raises(OffManifoldError):
            fiber_flow(sphere, x, bad, ControlSignal.empty())
    for bad in (np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                np.column_stack([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), np.zeros((2, 2))):
        with pytest.raises(OffManifoldError):
            fiber_flow(sphere, x, bad, ControlSignal.empty())


@pytest.mark.parametrize("n,constant_drift", [(1, False), (2, True), (3, False)])
def test_batched_powers_match_fiber_flow_bitwise(n, constant_drift, monkeypatch):
    """On flat space a batch of constant controls ends, row for row, bitwise
    where fiber_flow ends under each row's constant control: mixed step
    counts, two channels, c != 0, one stacked power per step count and no
    step."""
    rng = np.random.default_rng(40 + n)
    sys = random_affine_system(n, constant_drift, rng)
    x0 = rng.normal(size=n)
    controls = rng.uniform(-1.0, 1.0, size=(12, 2))
    durations = np.repeat([0.05, 0.3, 1.7, 0.3], 3)
    steps = np.maximum(1e-2, durations / 120.0)
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_rk4", None)  # any stepping fails with a TypeError
        ends = constant_control_endpoints(sys, x0, controls, durations, steps)
    for end, u, t, step in zip(ends, controls, durations, steps):
        want, _ = fiber_flow(sys, x0, None, ControlSignal.constant(u, t), step)
        assert np.array_equal(end, want)


def test_batch_is_checked_as_a_signal_is():
    """A batch fails with the errors of ControlSignal and check_signal, and
    its grid is counted before any step."""
    sys = sphere_bilinear_system()
    x0 = [1.0, 0.0, 0.0]
    cases = [([[0.5], [0.5]], [0.1, 0.0], "segment durations must be positive and finite"),
             ([[0.5], [0.5]], [0.1, np.inf], "segment durations must be positive and finite"),
             ([[0.5, 0.0]], [0.1], "control has 2 channels, system expects 1"),
             ([[0.5], [1.0 + 1e-9]], [0.1, 0.1], "control value NaN or outside bounds"),
             ([[np.nan]], [0.1], "control value NaN or outside bounds")]
    for controls, durations, message in cases:
        with pytest.raises(ValueError, match=message):
            constant_control_endpoints(sys, x0, controls, durations, np.full(len(durations), 1e-2))
        with pytest.raises(ValueError, match=message):
            integrate_base(sys, x0, ControlSignal(tuple(zip(durations, controls))))
    ends = constant_control_endpoints(sys, x0, [[1.0 + 1e-13]], [0.1], [1e-2])  # the slack
    assert ends.shape == (1, 3)
    with pytest.raises(DefinitionError, match="MAX_GRID_STEPS"):
        constant_control_endpoints(sys, x0, [[0.5]] * 3, [1.0] * 3,
                                   [3.0 / flow.MAX_GRID_STEPS] * 3)


def test_coarse_sphere_segment_steps_where_no_power_is_certified():
    """On defs/sphere_rotation.json at step 0.2 the step map's drift bound
    g = ||M^T M - I||_F is about 1.25e-6 > DRIFT_TOL, so fiber_flow steps
    (each step drifts 4.4e-7 at most) and ends where integrate_lifted does;
    one power over the 6 s segment used to raise off-manifold drift
    1.327e-05."""
    sys = SystemDefinition.load(SPHERE_ROTATION).system
    u = ControlSignal.constant([1.0], 6.0)
    x, v = fiber_flow(sys, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], u, 0.2)
    want = integrate_lifted(sys, TangentPoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), u, 0.2)
    assert want.max_drift <= flow.DRIFT_TOL
    for got, ref in ((x, want.final_point.x), (v, want.final_point.v)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_uncertified_search_rows_step():
    """S2 with drift 0.1 L3, controls L3 and L1 and bounds +-2: the row
    u = (2, 2), t = 8 at step 8/120 has a step map the drift bound does not
    certify, so it steps (a power raises off-manifold drift 2.271e-05) and
    ends where integrate_base does; a certified row in the same batch takes
    the power."""
    sys = AffineSystem(Manifold.sphere2(), LinearField(0.1 * L3),
                       (LinearField(L3), LinearField(L1)), [[-2.0, 2.0], [-2.0, 2.0]])
    x0 = np.array([1.0, 0.0, 0.0])
    controls = np.array([[2.0, 2.0], [0.1, -0.1]])
    bounds = [flow._drift_bound(*flow._step_map(*sys.affine_parts(u), 8.0 / 120.0))
              for u in controls]
    assert bounds[0] > flow.DRIFT_TOL >= bounds[1]
    ends = constant_control_endpoints(sys, x0, controls, [8.0, 8.0], [8.0 / 120.0] * 2)
    for end, u in zip(ends, controls):
        ref = integrate_base(sys, x0, ControlSignal.constant(u, 8.0), 8.0 / 120.0).final_state
        assert np.max(np.abs(end - ref)) <= 1e-12


def test_fiber_flow_superposition():
    sys = rotation_system()
    u = ControlSignal(((0.5, np.array([0.8])), (0.5, np.array([-0.2]))))
    x0 = np.array([0.8, -0.6])
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    a, b = 0.7, -1.3
    end1 = integrate_lifted(sys, TangentPoint(x0, v1), u, 1e-3).final_point.v
    end2 = integrate_lifted(sys, TangentPoint(x0, v2), u, 1e-3).final_point.v
    combo = integrate_lifted(sys, TangentPoint(x0, a * v1 + b * v2), u, 1e-3).final_point.v
    assert np.linalg.norm(combo - (a * end1 + b * end2)) <= 1e-9


def test_semigroup_property_with_concatenation():
    sys = rotation_system()
    rng = np.random.default_rng(31)
    for _ in range(5):
        x0 = rng.standard_normal(2)
        v_sig = ControlSignal.constant(rng.uniform(-1, 1, 1), float(rng.uniform(0.3, 1.0)))
        u_sig = ControlSignal.constant(rng.uniform(-1, 1, 1), float(rng.uniform(0.3, 1.0)))
        s = v_sig.total_duration
        w = concat(v_sig, s, u_sig)
        direct = integrate_base(sys, x0, w, 1e-3).final_state
        mid = integrate_base(sys, x0, v_sig, 1e-3).final_state
        then = integrate_base(sys, mid, u_sig, 1e-3).final_state
        assert np.linalg.norm(direct - then) <= 1e-8


# --- flow formula ----------------------------------------------------------

def test_check_flow_formula_linear():
    sys = bilinear_system(ROT2, np.array([[1.0, 0.0], [0.0, -1.0]]))
    u = ControlSignal(((1.0, np.array([0.6])), (1.0, np.array([-0.4]))))
    dev = check_flow_formula(sys, [1.0, 0.2], [0.3, -0.7], u, 1e-3)
    assert dev <= 1e-6


def test_check_flow_formula_zero_fiber():
    sys = rotation_system()
    u = ControlSignal.constant([0.5], 1.0)
    assert check_flow_formula(sys, [1.0, 0.0], [0.0, 0.0], u, 1e-3) <= 1e-12


def test_check_flow_formula_sphere():
    sys = sphere_bilinear_system()
    u = ControlSignal(((1.0, np.array([0.5])), (1.0, np.array([-0.8]))))
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 0.4, -0.9])
    assert check_flow_formula(sys, x0, v0, u, 1e-3) <= 1e-4


# --- invariance -------------------------------------------------------------

def test_check_invariance_linear_random_tuples():
    """Deviations stay at integrator precision when the spliced control keeps
    the value carried by the initial vector."""
    sys = rotation_system()
    rng = np.random.default_rng(32)
    for _ in range(5):
        x0 = rng.standard_normal(2)
        v_sig = ControlSignal(tuple(
            (float(rng.uniform(0.2, 0.6)), rng.uniform(-1, 1, 1))
            for _ in range(int(rng.integers(1, 4)))
        ))
        s = float(rng.uniform(0.0, v_sig.total_duration))
        c = v_sig.value_at(s)
        t = float(rng.uniform(0.3, 1.0))
        u_sig = ControlSignal.constant(c, t)
        base_dev, fiber_dev = check_invariance(sys, x0, s, v_sig, t, u_sig, 1e-3)
        assert base_dev <= 1e-6
        assert fiber_dev <= 1e-6


def test_check_invariance_s_zero_generator_transport():
    # s = 0: the flow carries its own generator along the trajectory
    sys = rotation_system()
    rng = np.random.default_rng(33)
    for _ in range(3):
        x0 = rng.standard_normal(2)
        c = rng.uniform(-1, 1, 1)
        t = float(rng.uniform(0.3, 1.0))
        u_sig = ControlSignal.constant(c, t)
        v_sig = ControlSignal.constant(c, 0.5)
        base_dev, fiber_dev = check_invariance(sys, x0, 0.0, v_sig, t, u_sig, 1e-3)
        assert base_dev <= 1e-6
        assert fiber_dev <= 1e-6


def test_check_invariance_t_zero():
    # empty continuation: both sides equal by construction
    sys = rotation_system()
    v_sig = ControlSignal.constant([0.4], 1.0)
    base_dev, fiber_dev = check_invariance(sys, np.array([1.0, -0.5]), 0.7,
                                           v_sig, 0.0, ControlSignal.empty(), 1e-3)
    assert base_dev <= 1e-12
    assert fiber_dev <= 1e-12


def test_check_invariance_sphere():
    sys = sphere_bilinear_system()
    rng = np.random.default_rng(34)
    m = Manifold.sphere2()
    for _ in range(3):
        x0 = m.random_point(rng)
        v_sig = ControlSignal(tuple(
            (float(rng.uniform(0.2, 0.6)), rng.uniform(-1, 1, 1))
            for _ in range(int(rng.integers(1, 3)))
        ))
        s = float(rng.uniform(0.0, v_sig.total_duration))
        c = v_sig.value_at(s)
        t = float(rng.uniform(0.3, 1.0))
        u_sig = ControlSignal.constant(c, t)
        base_dev, fiber_dev = check_invariance(sys, x0, s, v_sig, t, u_sig, 1e-3)
        assert base_dev <= 1e-4
        assert fiber_dev <= 1e-4


# --- serialization ----------------------------------------------------------

def test_trajectory_csv_and_json(tmp_path):
    sys = rotation_system()
    u = ControlSignal.constant([0.5], 0.01)
    traj = integrate_lifted(sys, TangentPoint([1.0, 0.0], [0.0, 1.0]), u, 1e-3)
    import io

    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert len(lines) == traj.times.shape[0] + 1
    payload = traj.to_json()
    assert payload["fibers"] is not None
    assert len(payload["times"]) == traj.times.shape[0]


def per_value_csv(traj):
    """The CSV writer as it was, formatting one numpy scalar at a time."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if traj.fibers is not None:
        header += [f"v{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for k in range(traj.times.shape[0]):
        row = [traj.times[k], *traj.states[k]]
        if traj.fibers is not None:
            row += list(traj.fibers[k])
        lines.append(",".join(f"{val:.17g}" for val in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lifted", [False, True])
def test_csv_bytes_match_per_value_writer(lifted):
    """write_csv formats whole rows at once, with the same bytes as the
    per-value writer: -0.0, subnormal, huge and integral values included,
    and rows across the writer's blocks."""
    import io

    odd = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                    [1.0 / 3.0, -123456789.0], [1e-17, 7.0]])
    u = ControlSignal.constant([0.5], 2.5)
    p0 = TangentPoint([1.0, 0.0], [0.0, 1.0])
    runs = [integrate_lifted(rotation_system(), p0, u, 1e-3) if lifted
            else integrate_base(rotation_system(), p0.x, u, 1e-3),
            Trajectory(np.array([0.0, 1e-3, 0.1, 2.5]), odd, odd[::-1] if lifted else None, u)]
    for traj in runs:
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == per_value_csv(traj)
