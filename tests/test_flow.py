import json
import re
from pathlib import Path

import mpmath
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
    ManifoldKind,
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
)
from liftctl import fields, flow
from liftctl.cli import SystemDefinition, main
from liftctl.flow import (
    _advance,
    _power,
    constant_control_endpoints,
    fiber_flows,
    split_signal,
)

FLAT_ROTATION = str(Path(__file__).resolve().parent.parent / "defs" / "flat_rotation.json")
SPHERE_ROTATION = str(Path(__file__).resolve().parent.parent / "defs" / "sphere_rotation.json")
DUFFING = str(Path(__file__).resolve().parent.parent / "perfbench" / "defs" / "duffing.json")
SPHERE_TWO_AXIS = str(Path(__file__).resolve().parent.parent / "perfbench" / "defs" / "sphere_two_axis.json")
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


@pytest.mark.parametrize("offset", [0.0, -0.5, 0.5, -2.0, 2.0])
def test_split_signal_cuts_exactly_at_each_boundary_within_its_snap(offset):
    """A cut within the snap (1e-12 (1 + total)) of a boundary, the ends
    included, falls on it: the segments before it are the head and the ones
    after it the tail, unchanged. A cut two snaps off cuts the segment it
    falls in into s - start and end - s; two snaps past either end raises."""
    durations = (0.25, 0.5, 0.125)  # boundaries 0, 0.25, 0.75 and 0.875, exact sums
    u = ControlSignal(tuple((d, [float(i)]) for i, d in enumerate(durations)))
    segs = [(d, float(i)) for i, d in enumerate(durations)]
    snap = flow._CUT_SNAP * (1.0 + u.total_duration)
    starts = np.cumsum((0.0, *durations)).tolist()
    for k, boundary in enumerate(starts):
        s = boundary + offset * snap
        if not -snap <= s <= starts[-1] + snap:
            with pytest.raises(ValueError, match="outside"):
                split_signal(u, s)
            continue
        head, tail = (([(d, float(v[0])) for d, v in part.segments]) for part in split_signal(u, s))
        if abs(offset) <= 1.0:
            assert (head, tail) == (segs[:k], segs[k:])
        else:
            j = k if offset > 0 else k - 1  # the segment the cut falls in
            assert head == segs[:j] + [(s - starts[j], float(j))]
            assert tail == [(starts[j + 1] - s, float(j))] + segs[j + 1:]


def test_concat_and_shift_cut_by_split_signals_rule():
    """concat and shift cut where split_signal cuts: a time half a snap below
    0 is cut at 0 (each used to check its own window, and raised), and one
    past the snap or NaN raises split_signal's ValueError."""
    v = ControlSignal(((0.25, [1.0]), (0.5, [2.0])))
    u = ControlSignal.constant([5.0], 3.0)
    half_snap = 0.5 * flow._CUT_SNAP * (1.0 + v.total_duration)
    assert concat(v, -half_snap, u).to_json() == u.to_json()
    assert shift(v, -half_snap).to_json() == v.to_json()
    assert shift(v, 0.75 + half_snap).to_json() == []
    with pytest.raises(ValueError, match="^split time 1.0 outside"):
        concat(v, 1.0, u)
    with pytest.raises(ValueError, match="^split time -0.5 outside"):
        shift(v, -0.5)
    # a NaN time fails the window (concat returned u, and shift the empty signal)
    with pytest.raises(ValueError, match=re.escape("split time nan outside [0, 0.75]")):
        concat(v, np.nan, u)
    with pytest.raises(ValueError, match=re.escape("split time nan outside [0, 0.75]")):
        shift(v, np.nan)


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


def per_point_tangency(fields):
    """The DefinitionError text of the sphere's tangency rule taken point by
    point: the first of 8 seeded random_point draws and, at each, the first
    field with |x . X(x)| > 1e-8 + 16 eps sum_i |x_i| |X_i(x)|, NaN, or an
    infinite allowance; None when every field passes."""
    rng, sphere = np.random.default_rng(20248), Manifold.sphere2()
    for _ in range(8):
        x = sphere.random_point(rng)
        for f, fld in enumerate(fields):
            value = fld(x)
            err = abs(x @ value)
            if not err <= 1e-8 + 16 * np.finfo(float).eps * (np.abs(x) @ np.abs(value)) < np.inf:
                entry = "drift" if f == 0 else f"controlled[{f - 1}]"
                return f"{entry}: field {fld.name!r} not tangent to the sphere: |x.X(x)|={err:.2e}"
    return None


def _radial_off_first_point():
    """x -> x except at the first tangency point, where it is 0: tangent
    there, so a field-major check would name it before a later field that
    fails at that point."""
    first = Manifold.sphere2().random_point(np.random.default_rng(20248))
    return VectorField(lambda x: 0.0 * x if x.tolist() == first.tolist() else x, name="radial")


@pytest.mark.parametrize("fields", [
    (ConstantField(np.zeros(3)), LinearField(L3), LinearField(L1)),
    (ConstantField(np.zeros(3)), LinearField(L3), ConstantField([0.3, 0.0, 1.0])),
    (LinearField(np.eye(3)), LinearField(L3)),
    (ConstantField([0.0, 0.0, -0.0]), PolynomialField([[(-1.0, (0, 1, 1))], [(1.0, (1, 0, 1))], []], 3)),
    (ConstantField(np.zeros(3)), LinearField(L1),
     PolynomialField([[(1.0, (1, 0, 0))], [(1.0, (0, 1, 1))], [(-1.0, (0, 0, 2))]], 3)),
    (VectorField(lambda x: L1 @ x), VectorField(lambda x: np.cross([0.0, 0.0, 1.0], x))),
    (VectorField(lambda x: L1 @ x), _radial_off_first_point(), ConstantField([1.0, 0.0, 0.0])),
    (ConstantField(np.zeros(3)), VectorField(lambda x: np.full(3, np.nan))),
], ids=["tangent-linear", "non-tangent-constant", "non-tangent-drift", "polynomial",
        "non-tangent-polynomial", "bare-callable", "point-major-order", "nan"])
def test_sphere_tangency_check_names_what_the_per_point_rule_names(fields):
    """AffineSystem's one-pass tangency check on the sphere gives the verdict
    of the rule taken point by point and names the same entry in the same
    words, on affine fields (evaluated by their (A, b)), polynomial and bare
    callable fields."""
    want = per_point_tangency(fields)
    bounds = [[-1.0, 1.0]] * (len(fields) - 1)
    if want is None:
        AffineSystem(Manifold.sphere2(), fields[0], fields[1:], bounds)
    else:
        with pytest.raises(DefinitionError) as info:
            AffineSystem(Manifold.sphere2(), fields[0], fields[1:], bounds)
        assert str(info.value) == want


def test_sphere_tangency_check_draws_random_points_bitwise():
    """The 8 points the tangency check draws in one call are bitwise the 8
    Manifold.random_point draws of the per-point rule."""
    seen, rng = [], np.random.default_rng(20248)
    AffineSystem(Manifold.sphere2(), VectorField(lambda x: seen.append(x) or np.zeros(3)),
                 (LinearField(L3),), [[-1.0, 1.0]])
    points = [Manifold.sphere2().random_point(rng) for _ in range(8)]
    assert len(seen) == 8 and all(np.array_equal(a, b) for a, b in zip(seen, points))


@pytest.mark.parametrize("rate", [1e9, 1e12, 1e300])
@pytest.mark.parametrize("make", [LinearField, lambda a: VectorField(lambda x: a @ x)], ids=["linear", "callable"])
def test_sphere_tangency_check_allows_the_rounding_of_fast_rotations(rate, make):
    """An exact rotation at rate 1e9 and faster has |x . X(x)| past 1e-8 by
    rounding alone; the check passes it, as the per-point rule does, and
    still refuses a radial field, the rotation with a normal part of 1e-13
    of its rate (about 450 eps), and a field whose allowance is infinite."""
    turn = np.array([[0.0, -rate, 0.0], [rate, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rotation, radial = make(turn), make(np.diag([rate, rate, rate]))
    nearly = make(turn + np.diag([1e-13 * rate] * 3))
    infinite = VectorField(lambda x: np.array([np.inf, 0.0, 0.0]))
    assert per_point_tangency((rotation, LinearField(L1))) is None
    AffineSystem(Manifold.sphere2(), rotation, (LinearField(L1),), [[-1.0, 1.0]])
    for fields in [(rotation, radial), (rotation, nearly), (rotation, LinearField(L1), infinite)]:
        with pytest.raises(DefinitionError) as info:
            AffineSystem(Manifold.sphere2(), fields[0], fields[1:], [[-1.0, 1.0]] * (len(fields) - 1))
        assert str(info.value) == per_point_tangency(fields)


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
    sys = AffineSystem(Manifold.flat(2), ConstantField(np.zeros(2)), (ConstantField(np.zeros(2)),),
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
    integrates by the four RK4 stages instead of the generated kernel."""
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
    return AffineSystem(Manifold.sphere2(), ConstantField(np.zeros(3)),
                        (LinearField(L1), LinearField(L3)), [[-1.0, 1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("n,drift", [(1, "constant"), (1, "linear"), (2, "constant"),
                                     (2, "linear"), (3, "constant"), (3, "linear"),
                                     (3, "sphere")])
def test_affine_kernel_matches_stages(n, drift, monkeypatch):
    """Recorded runs of linear and constant fields step by the generated
    kernel, building no step map; the same matrices as bare callables step
    by the four stages. Both are RK4, so states and fibers agree up to
    rounding; base and lifted runs on the kernel stay bitwise equal, with
    b != 0 when the drift is constant."""
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
    for name in ("_step_map", "_drift_bound", "_power"):
        monkeypatch.setattr(flow, name, lambda *args: pytest.fail("a recorded run built a step map"))
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
    return AffineSystem(Manifold.sphere2(), ConstantField(np.zeros(3)), (twisted, LinearField(L1)),
                        [[-1.0, 1.0], [-1.0, 1.0]])


def bare_copy(sys):
    """The same polynomial fields as bare callables, which step by the four
    stages through rhs and rhs_jacobian instead of the generated kernel."""
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


def assert_kernel_matches_stages(sys, x0, v0, u):
    """The kernel's lifted run agrees with the bare-callable stages within
    1e-12 relative, and its base states equal a base run's bitwise."""
    p0 = TangentPoint(x0, v0)
    fused = integrate_lifted(sys, p0, u, 1e-3)
    staged = integrate_lifted(bare_copy(sys), p0, u, 1e-3)
    for got, want in ((fused.states, staged.states), (fused.fibers, staged.fibers)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    base = integrate_base(sys, x0, u, 1e-3)
    assert np.array_equal(base.times, fused.times)
    assert np.array_equal(base.states, fused.states)
    assert base.max_drift == fused.max_drift


@pytest.mark.parametrize("make_sys,x0,v0", POLYNOMIAL_CASES)
def test_polynomial_tables_match_stages(make_sys, x0, v0):
    """Polynomial fields step by the kernel generated from their coefficient
    table; the same fields as bare callables take rhs and rhs_jacobian. Both
    are the same RK4 stages, so states and fibers agree up to rounding, and
    base and lifted runs on the kernel stay bitwise equal (on S2 too, where
    every step is renormalized)."""
    sys = make_sys()
    u = three_segments(sys.n_controls, np.random.default_rng(len(x0)))
    assert sys.affine_parts(u.segments[0][1]) is None
    assert sys._polynomial_kernel is not None
    assert bare_copy(sys)._polynomial_kernel is None
    assert_kernel_matches_stages(sys, x0, v0, u)


@pytest.mark.parametrize("make_sys", [sphere_polynomial_system,
                                      lambda: SystemDefinition.load(SPHERE_ROTATION).system])
def test_sphere_kernel_drift_matches_stages(make_sys):
    """On S2 the kernel loop renormalizes in its own arithmetic and the
    stages by _to_sphere. At step 0.5 a step of the second segment drifts
    past DRIFT_TOL, and both raise the same IntegrationError, with the same
    drift and t, in base and lifted runs; at step 0.05 they agree on
    max_drift within 1e-12, and the kernel's base and lifted max_drift are
    bitwise equal."""
    sys = make_sys()
    x0, v0 = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.3, -0.6])
    u = ControlSignal(((1.0, np.full(sys.n_controls, 0.2)), (1.0, np.full(sys.n_controls, 0.9))))
    runs = (lambda run, step: integrate_base(run, x0, u, step),
            lambda run, step: integrate_lifted(run, TangentPoint(x0, v0), u, step))
    for integrate in runs:
        messages = []
        for run in (sys, bare_copy(sys)):
            with pytest.raises(IntegrationError, match="off-manifold drift .* at t=1.5$") as err:
                integrate(run, 0.5)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    base, lifted = (integrate(sys, 0.05) for integrate in runs)
    staged = integrate_lifted(bare_copy(sys), TangentPoint(x0, v0), u, 0.05)
    assert base.max_drift == lifted.max_drift > 0.0
    assert abs(lifted.max_drift - staged.max_drift) <= 1e-12


@st.composite
def random_polynomial_system(draw):
    """A flat system of random polynomial fields of degree at most 3, with
    a start point, fiber and three-segment control."""
    n = draw(st.integers(1, 3))
    coeff = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0)
    monomial = st.tuples(coeff, st.tuples(*[st.integers(0, 3)] * n))
    field = st.builds(lambda comps: PolynomialField(comps, n),
                      st.lists(st.lists(monomial, max_size=4), min_size=n, max_size=n))
    m = draw(st.integers(1, 2))
    sys = AffineSystem(Manifold.flat(n), draw(field), tuple(draw(field) for _ in range(m)),
                       [[-1.0, 1.0]] * m)
    point = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    values = st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)
    u = ControlSignal(tuple((d, draw(values)) for d in (0.004, 0.003, 0.005)))
    return sys, draw(point), draw(point), u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=random_polynomial_system())
def test_kernel_matches_stages_on_random_polynomial_fields(case):
    """On random polynomial fields the generated kernel takes the same RK4
    stages as the bare callables, within 1e-12 relative."""
    assert_kernel_matches_stages(*case)


def single_step_kernel(fields, n):
    """The one-step kernel polynomial systems stepped by before the segment
    loop, kept here as the per-step reference: (table, bind) with
    bind(h, c @ table) -> (base, lifted), base(x0, ..) -> (x0, ..) and
    lifted(x0, .., v0, ..) -> ((x0, ..), (v0, ..)), one RK4 step each on
    Python floats or numpy columns."""
    polys = [[*fld.components, *(p for row in fld._partials for p in row)] for fld in fields]
    slots = list(dict.fromkeys((i, e) for fp in polys for i, poly in enumerate(fp) for _, e in poly))
    index = {slot: k for k, slot in enumerate(slots)}
    table = np.zeros((len(fields), len(slots)))
    for f, fld_polys in enumerate(polys):
        for i, poly in enumerate(fld_polys):
            table[f, [index[i, e] for _, e in poly]] = [coeff for coeff, _ in poly]
    terms = [[k for k, (p, _) in enumerate(slots) if p == i] for i in range(n + n * n)]
    x, v, base, lifted = [f"x{i}" for i in range(n)], [f"v{i}" for i in range(n)], [], []
    for s, scale in enumerate(("", "h2", "h2", "h"), 1):
        y, w = (x, v) if s == 1 else ([f"y{s}_{i}" for i in range(n)], [f"w{s}_{i}" for i in range(n)])
        lines = [f"{y[i]} = {x[i]} + {scale}*k{s - 1}_{i}" for i in range(n) if s > 1]
        powers = {}

        def power(i, e):
            if e > 1 and (i, e) not in powers:
                half = power(i, e // 2)
                lines.append(f"p{s}_{i}_{e} = {half}*{half}" + (f"*{y[i]}" if e % 2 else ""))
                powers[i, e] = f"p{s}_{i}_{e}"
            return powers[i, e] if e > 1 else y[i]

        def value(p):
            return " + ".join("*".join([f"c{k}", *(power(i, e) for i, e in enumerate(slots[k][1]) if e)])
                              for k in terms[p])
        lines += [f"k{s}_{i} = {value(i) or '0.0'}" for i in range(n)]
        base += lines
        lines += [f"{w[i]} = {v[i]} + {scale}*kv{s - 1}_{i}" for i in range(n) if s > 1]
        lines += [f"kv{s}_{i} = " + (" + ".join(f"({value(n + i * n + j)})*{w[j]}" for j in range(n)
                                                 if terms[n + i * n + j]) or "0.0") for i in range(n)]
        lifted += lines

    def combine(y, k):
        return "(" + "".join(f"{y[i]} + h6*({k}1_{i} + 2.0*{k}2_{i} + 2.0*{k}3_{i} + {k}4_{i}), "
                             for i in range(n)) + ")"
    body = "\n        ".join
    source = (f"def bind(h, c):\n    ({''.join(f'c{k}, ' for k in range(len(slots)))}) = c\n"
              f"    h2, h6 = 0.5 * h, h / 6.0\n"
              f"    def base({', '.join(x)}):\n        {body(base)}\n        return {combine(x, 'k')}\n"
              f"    def lifted({', '.join(x + v)}):\n        {body(lifted)}\n"
              f"        return {combine(x, 'k')}, {combine(v, 'kv')}\n    return base, lifted\n")
    scope: dict = {}
    exec(compile(source, "<single-step kernel>", "exec"), scope)
    return table, scope["bind"]


def stepped_rows(kernel, x0, fibers, u, step):
    """The rows (t, x.., v.. of each fiber column) of the run from x0 under
    u on the grid of _integrate, one call of single_step_kernel's steps per
    step and column; fibers is None or an (n, k) matrix, k = 0 included."""
    table, bind = kernel
    x, cols = list(x0), [] if fibers is None else np.asarray(fibers).T.tolist()
    rows, t = [[0.0, *x, *(w for col in cols for w in col)]], 0.0
    counts, sizes = flow._grid(np.array([duration for duration, _ in u.segments]), step)
    for (_, uval), n_steps, h in zip(u.segments, counts.astype(int).tolist(), sizes.tolist()):
        base, lifted = bind(h, (np.insert(uval, 0, 1.0) @ table).tolist())
        for _ in range(n_steps):
            cols = [list(w) for _, w in (lifted(*x, *col) for col in cols)]
            x = list(base(*x))
            t = t + h
            rows.append([t, *x, *(w for col in cols for w in col)])
    return np.array(rows)


@st.composite
def polynomial_runs(draw):
    """A random flat polynomial system on R^1 to R^3 with a start point, a
    fiber matrix of 0 to 2 columns, a signal of 1 to 4 segments of 1 to 4
    steps of 1e-3 (1-step and shortened last steps included), and a batch
    of constant controls with mixed step counts."""
    sys, x0, v0, _ = draw(random_polynomial_system())
    n, m = len(x0), sys.n_controls
    unit = st.floats(-1.0, 1.0)
    duration = st.sampled_from([1e-3, 0.4e-3, 2e-3, 2.7e-3, 4e-3])
    values = st.lists(unit, min_size=m, max_size=m)
    u = ControlSignal(tuple(draw(st.lists(st.tuples(duration, values), min_size=1, max_size=4))))
    k = draw(st.integers(0, 2))
    fibers = np.array(draw(st.lists(unit, min_size=n * k, max_size=n * k))).reshape(n, k)
    batch = draw(st.lists(st.tuples(values, duration, st.sampled_from([1e-3, 2e-3])),
                          min_size=1, max_size=5))
    return sys, np.array(x0), np.array(v0), fibers, u, batch


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=polynomial_runs())
def test_segment_loop_matches_single_steps_bitwise(case):
    """Every recorded polynomial run off the sphere, affine ones included,
    takes one generated loop call per segment; integrate_base and
    integrate_lifted give bitwise the rows, t column included, of one
    single-step kernel call per step. So do the end points of non-affine
    runs, whose loop runs per fiber column and per batch on numpy columns:
    fiber_flows with a vector, an (n, k) and an (n, 0) matrix, and
    constant_control_endpoints rows. Affine end points are matrix powers."""
    sys, x0, v0, fibers, u, batch = case
    n = len(x0)
    kernel = single_step_kernel((sys.drift, *sys.controlled), n)
    want = stepped_rows(kernel, x0, v0[:, None], u, 1e-3)
    base, lifted = integrate_base(sys, x0, u, 1e-3), integrate_lifted(sys, TangentPoint(x0, v0), u, 1e-3)
    assert np.array_equal(base.times, want[:, 0]) and np.array_equal(lifted.times, want[:, 0])
    assert np.array_equal(base.states, want[:, 1:n + 1]) and np.array_equal(lifted.states, want[:, 1:n + 1])
    assert np.array_equal(lifted.fibers, want[:, n + 1:])
    if sys._affine_terms is not None:
        return
    for carried in (v0, fibers, np.zeros((n, 0))):
        end = stepped_rows(kernel, x0, carried.reshape(n, -1), u, 1e-3)[-1]
        x_end, v_end = fiber_flows(sys, [u], 1e-3)(0, x0, carried)
        assert np.array_equal(x_end, end[1:n + 1])
        assert v_end.shape == carried.shape
        assert np.array_equal(v_end.T.ravel(), end[n + 1:])
    # a batch groups rows by step count and combines their coefficients in
    # one matrix product; the single steps then run on the numpy columns
    controls, durations, steps = (np.array(column) for column in zip(*batch))
    ends = constant_control_endpoints(sys, x0, controls, durations, steps)
    counts = flow._grid(durations, steps)[0]
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        base, _ = kernel[1](durations[rows] / k, (np.insert(controls[rows], 0, 1.0, axis=-1) @ kernel[0]).T)
        columns = np.tile(x0, (len(rows), 1)).T
        for _ in range(int(k)):
            columns = base(*columns)
        assert np.array_equal(ends[rows], np.array(columns).T)


def test_overflow_inside_a_segment_loop_raises_at_the_segment_end():
    """On duffing.json from x0 = (1e100, 1) under u = 0.3 for 1 s the state
    overflows in the first of 1000 steps that one loop call takes. The run
    raises IntegrationError at the segment end, with the time per-step
    stepping gave, and returns no partial trajectory; so do a fiber vector
    and a fiber matrix carried by fiber_flows."""
    sys = SystemDefinition.load(DUFFING).system
    u = ControlSignal.constant([0.3], 1.0)
    x0 = [1e100, 1.0]
    runs = [lambda: integrate_base(sys, x0, u), lambda: integrate_lifted(sys, TangentPoint(x0, [1.0, 0.0]), u),
            lambda: fiber_flows(sys, [u])(0, x0, [1.0, 0.0]),
            lambda: fiber_flows(sys, [u])(0, x0, np.eye(2))]
    for run in runs:
        with pytest.raises(IntegrationError, match=r"^state or fiber not finite at t=1\.0000000000000007$"):
            run()


def test_code_like_field_names_never_reach_the_kernel():
    """Only generated names, integer exponents and arguments go into the
    kernel's source: a definition whose fields carry code-like names, in the
    file and on the fields themselves, builds and steps exactly like one
    without them."""
    data = json.loads(Path(DUFFING).read_text())
    plain = SystemDefinition.from_dict(data).system
    hostile = "__import__('os')._exit(3)\n)); raise SystemExit(\"'"
    for desc in (data["drift"], *data["controlled"]):
        desc["name"] = hostile
    loaded = SystemDefinition.from_dict(data).system
    named = AffineSystem(loaded.manifold, PolynomialField(loaded.drift.components, 2, hostile),
                         tuple(PolynomialField(f.components, 2, hostile) for f in loaded.controlled),
                         loaded.bounds)
    u = ControlSignal(((0.3, [0.4]), (0.2, [-0.9])))
    p0 = TangentPoint([0.3, -0.2], [1.0, 0.5])
    want = integrate_lifted(plain, p0, u)
    for sys in (loaded, named):
        got = integrate_lifted(sys, p0, u)
        assert np.array_equal(got.states, want.states) and np.array_equal(got.fibers, want.fibers)


@pytest.mark.parametrize("make_sys,x0,v0", POLYNOMIAL_CASES)
def test_polynomial_fiber_flow_matches_columns(make_sys, x0, v0):
    """An (n, d) fiber on the table path carries each column as a lifted
    run does."""
    sys = make_sys()
    n = len(x0)
    u = three_segments(sys.n_controls, np.random.default_rng(7 + n))
    fibers = sys.manifold.tangent_basis(np.array(x0))
    x_end, v_end = fiber_flows(sys, [u], 1e-3)(0, x0, fibers)
    for i in range(fibers.shape[1]):
        run = integrate_lifted(sys, TangentPoint(x0, fibers[:, i]), u, 1e-3)
        assert np.array_equal(run.final_state, x_end)
        assert np.max(np.abs(v_end[:, i] - run.fibers[-1])) <= 1e-12 * max(
            1.0, np.max(np.abs(run.fibers[-1])))


def test_polynomial_runs_never_call_the_field_evaluators(monkeypatch):
    """Lifted runs, fiber transitions and search batches on polynomial
    fields step by the system's generated kernel, so they never evaluate a
    field component by component; loading a definition and the rank
    computation build no kernel."""
    defn = SystemDefinition.load(DUFFING)
    fields = (defn.system.drift, *defn.system.controlled)
    lifted_rank_at(fields, TangentPoint([0.3, -0.2], [1.0, 0.5]), 3, defn.manifold)
    assert "_polynomial_kernel" not in defn.system.__dict__

    def refuse(self, x):
        raise AssertionError("polynomial field evaluated outside the kernel")
    monkeypatch.setattr(PolynomialField, "_eval", refuse)
    monkeypatch.setattr(PolynomialField, "_jac", refuse)
    sys = SystemDefinition.load(DUFFING).system
    with pytest.raises(AssertionError):
        sys.drift([0.0, 0.0])
    u = ControlSignal(((0.5, [0.3]), (0.5, [-0.7])))
    run = integrate_lifted(sys, TangentPoint([0.3, -0.2], [1.0, 0.5]), u)
    assert np.all(np.isfinite(run.fibers))
    _, transition = fiber_flows(sys, [u])(0, [0.3, -0.2], np.eye(2))
    assert np.all(np.isfinite(transition))
    ends = constant_control_endpoints(sys, [0.3, -0.2], [[0.5], [-0.5], [1.0]],
                                      [0.2, 0.3, 0.2], [1e-2, 1e-2, 1e-2])
    assert ends.shape == (3, 2) and np.all(np.isfinite(ends))


def test_kernel_source_compiles_once_per_process(monkeypatch):
    """Each load of a definition builds its own kernel, but the generated
    source holds no coefficient: two loads of duffing.json compile it once
    and share its bind function."""
    fields._compiled_bind.cache_clear()
    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(fields, "compile", counting_compile, raising=False)
    kernels = [SystemDefinition.load(DUFFING).system._polynomial_kernel for _ in range(2)]
    assert len(sources) == 1
    assert kernels[0][1] is kernels[1][1]


def test_kernel_source_is_built_once_per_process(monkeypatch, capsys):
    """The source depends only on the monomial slots, n and drift_tol, so a
    second load of duffing.json builds only its slot and coefficient tables:
    no source, the same bind, and a byte-identical lifted CSV."""
    fields._compiled_bind.cache_clear()
    builds = []

    def counting_source(*args):
        builds.append(args)
        return source(*args)
    source = fields._kernel_source
    monkeypatch.setattr(fields, "_kernel_source", counting_source)
    argv = ["simulate", DUFFING, "--x0=0.4,-0.3", "--lifted=1,0.5", "--control=[[1.5, [0.7]]]"]
    outputs, binds = [], []
    for _ in range(2):
        binds.append(SystemDefinition.load(DUFFING).system._polynomial_kernel[1])
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(builds) == 1
    assert binds[0] is binds[1]
    assert outputs[0] == outputs[1] and outputs[0].startswith("t,x1,x2,v1,v2\n")


@pytest.mark.parametrize("make_sys", [
    sphere_bilinear_system,
    lambda: stage_copy(sphere_bilinear_system()),
    sphere_polynomial_system,
])
def test_nan_state_on_sphere_raises(make_sys):
    """A NaN state fails the drift test (NaN compares false) on every path,
    in a single run that records rows (by the kernel loop or the stages) and
    in a row batch (by a certified power, which raises only on NaN, by the
    stages, or by the kernel loop of a non-affine system). The entry points
    reject a NaN start before stepping (test_non_finite_start_raises), so
    the state goes to the driver directly."""
    sys = make_sys()
    h, m = 1e-3, sys.n_controls
    with pytest.raises(IntegrationError):
        _advance(sys, np.zeros(m), h, 10, np.array([np.nan, 0.0, 0.0]), None, 0.0, [])
    with pytest.raises(IntegrationError):
        _advance(sys, np.outer([0.5, -0.5], np.ones(m)), np.full(2, h), 10,
                 np.tile([np.nan, 0.0, 0.0], (2, 1)), None, 0.0, None)


@pytest.mark.parametrize("manifold", [Manifold.flat(3), Manifold.sphere2()])
def test_non_finite_start_raises(manifold):
    """A NaN or infinite start point or fiber is off the manifold, on flat
    space too, instead of giving NaN rows."""
    sys = AffineSystem(manifold, ConstantField(np.zeros(3)), (LinearField(L3),), [[-1.0, 1.0]])
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
            fiber_flows(sys, [u], step)(0, [1.0, 0.0], [0.0, 1.0])


def test_batch_step_that_is_not_positive_and_finite_is_refused():
    """A NaN step used to drop its row from every step-count group and return
    uninitialized memory, an infinite or negative one took one step, and a
    zero one raised the grid-cap error; each is now refused by name, as the
    integration entry points refuse it."""
    sys = rotation_system()
    for bad in (np.nan, np.inf, -1e-2, 0.0):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            constant_control_endpoints(sys, [1.0, 0.0], [[0.5], [0.5]], [0.2, 0.3], [1e-2, bad])


def test_degree_one_polynomial_integrates_as_the_linear_descriptor():
    """A "polynomial" descriptor of degree one is affine: it integrates
    bitwise like the same "linear" descriptor."""
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


def refuse_steps(patch):
    """Make the stage loop and every system's kernel loop fail the test, so
    that a run passes only if each of its segments is one matrix power."""
    def refuse(*args):
        pytest.fail("a segment stepped")
    patch.setattr(flow, "_stages", refuse)
    patch.setattr(AffineSystem, "_polynomial_kernel", property(refuse))


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
    """fiber_flows takes one matrix power per affine segment and never steps;
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
        refuse_steps(patch)
        x_base, none = fiber_flows(sys, [u], 1e-3)(0, x0, None)
        x_vec, v_vec = fiber_flows(sys, [u], 1e-3)(0, x0, v0)
        x_mat, v_mat = fiber_flows(sys, [u], 1e-3)(0, x0, fibers)
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
                fiber_flows(flat, [u], 1e-3)(0, [1.0, 1.0], fibers)
    sphere = sphere_bilinear_system()
    with pytest.raises(IntegrationError, match="drift"):
        fiber_flows(sphere, [ControlSignal.zero(1, 10.0)], 1.0)(0, [1.0, 0.0, 0.0], None)
    x = [0.0, 0.0, 1.0]
    for bad in ([0.0, 0.0, 1.0], [np.nan, 0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(OffManifoldError):
            integrate_lifted(sphere, TangentPoint(x, bad), ControlSignal.empty())
        with pytest.raises(OffManifoldError):
            fiber_flows(sphere, [ControlSignal.empty()])(0, x, bad)
    for bad in (np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                np.column_stack([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), np.zeros((2, 2))):
        with pytest.raises(OffManifoldError):
            fiber_flows(sphere, [ControlSignal.empty()])(0, x, bad)


def single_map_run(sys, x, v, u, step):
    """The end point of fiber_flows by one segment at a time: each segment's
    own step map, drift bound and np.linalg.matrix_power of its 2-D
    augmented matrix, applied to (x, 1) and v; every segment certified."""
    n, on_sphere = x.shape[0], sys.manifold.kind is ManifoldKind.SPHERE2
    counts, sizes = flow._grid(np.array([duration for duration, _ in u.segments]), step)
    t = 0.0
    for (_, uval), k, h in zip(u.segments, counts.astype(int).tolist(), sizes.tolist()):
        m, c = flow._step_map(*sys.affine_parts(uval), h)
        assert not on_sphere or flow._drift_bound(m, c) <= flow.DRIFT_TOL
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n], aug[:n, n], aug[n, n] = m, c, 1.0
        power = np.linalg.matrix_power(aug, k)
        x, t = power[:n, :n] @ x + power[:n, n], t + k * h
        v = None if v is None else power[:n, :n] @ v
        if on_sphere:
            x, v, _ = flow._to_sphere(x, v, t, np.inf)
    return x, v


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "S2"])
def test_fiber_flows_match_single_map_runs_bitwise(name, monkeypatch):
    """One fiber_flows over several multi-segment signals, with step counts
    1, 2 and 3 (matrix_power's own products) and in the hundreds, takes all
    its powers in one stacked pass and never steps; each run, called in any
    order, ends bitwise where its own fiber_flows ends and where one segment at a
    time by its own 2-D matrix power ends, with no fibers, a fiber vector or
    the columns of a fiber matrix. The base end is the same for all three."""
    sys, x0, v0 = power_case(name)
    n = x0.shape[0]
    fibers = np.column_stack([v0, sys.manifold.project_tangent(x0, np.arange(1.0, n + 1))])
    signals = [ControlSignal(((0.37, [0.4, -0.8]), (1e-3, [-0.6, 0.2]), (2e-3, [0.9, 0.5]))),
               ControlSignal(((3e-3, [-0.3, 1.0]), (0.81, [0.7, 0.1]), (0.6e-3, [0.2, -0.9]))),
               ControlSignal(((1.3, [-1.0, -0.4]),))]
    powers = []
    with monkeypatch.context() as patch:
        refuse_steps(patch)
        patch.setattr(flow, "_power", lambda *args: powers.append(args[2]) or _power(*args))
        run = fiber_flows(sys, signals, 1e-3)
        assert powers == [[370, 1, 2, 3, 810, 1, 1300]]
        for i in (2, 0, 1):
            ends = [run(i, x0, start) for start in (None, v0, fibers)]
            assert ends[0][1] is None
            for (x, v), start in zip(ends, (None, v0, fibers)):
                want = fiber_flows(sys, [signals[i]], 1e-3)(0, x0, start)
                ref = single_map_run(sys, x0, start, signals[i], 1e-3)
                assert np.array_equal(x, ends[0][0])
                assert np.array_equal(x, want[0]) and np.array_equal(x, ref[0])
                assert start is None or np.array_equal(v, want[1]) and np.array_equal(v, ref[1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_power_helper_is_bitwise_numpys_matrix_power(n):
    """flow._matrix_power takes matrix_power's own products in its order, so
    a stack's powers are bitwise np.linalg.matrix_power's, for its k = 1, 2
    and 3 shortcuts and for repeated squaring over short and long bit
    strings."""
    rng = np.random.default_rng(70 + n)
    # near-identity maps with an affine column, as the augmented step maps are
    stack = np.eye(n) + 1e-3 * rng.normal(size=(6, n, n))
    stack[:, -1, :-1] = 0.0
    stack[:, -1, -1] = 1.0
    for k in (1, 2, 3, 4, 5, 7, 8, 101, 120, 1000, 2047):
        got = flow._matrix_power(stack, k)
        assert got.shape == stack.shape
        assert np.array_equal(got, np.linalg.matrix_power(stack, k)), k
        for r in (0, 5):  # each row is its own 2-D matrix's power
            assert np.array_equal(got[r], np.linalg.matrix_power(stack[r], k)), (k, r)


def test_expm_matches_a_40_digit_reference():
    """flow._expm against mpmath's expm at 40 digits on 48 seeded matrices (n
    in {2, 3, 4, 6}, standard normal times 0.01 to 30) and one small enough
    for degree 3: the set reaches each Pade degree and the squaring branch.
    Its worst relative 1-norm error measured 7.9e-15 (scipy's expm: 3.4e-12);
    the zero matrix gives the identity exactly."""
    rng = np.random.default_rng(3)
    cases = [rng.standard_normal((n, n)) * scale for n in (2, 3, 4, 6) for scale in np.geomspace(0.01, 30, 12)]
    cases.append(np.array([[0.0, 0.005], [-0.005, 0.003]]))
    thetas = [theta for theta, _ in flow._PADE]
    branches = {int(np.searchsorted(thetas, np.linalg.norm(a, 1))) for a in cases}
    assert branches == set(range(len(thetas) + 1))  # the last past theta_13: a / 2^s, s > 0
    with mpmath.workdps(40):
        for a in cases:
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            error = np.linalg.norm(flow._expm(a) - want, 1) / np.linalg.norm(want, 1)
            assert error < 2e-14, a
    assert np.array_equal(flow._expm(np.zeros((3, 3))), np.eye(3))


def test_fiber_flows_raise_a_refused_signals_error_when_it_runs(monkeypatch):
    """A signal that fiber_flows refuses adds no segment to the stacked pass
    and raises its own error, in the words _segments gives for it alone,
    when its run is called, after the start's own checks; the other runs end
    bitwise where they end alone. That holds for a wrong channel count, a
    value out of bounds or NaN, a grid past MAX_GRID_STEPS, and two signals
    whose grids pass alone but not together. A fiber column that is not
    tangent or not finite is named as TangentPoint.validate names it."""
    sys = sphere_bilinear_system()
    good, x0, v0 = ControlSignal.constant([0.5], 0.4), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    signals = [good, ControlSignal.constant([3.0], 0.4), ControlSignal.constant([0.5], 1e9),
               ControlSignal(((0.2, [0.1]), (0.3, [0.2, 0.3]))),
               ControlSignal(((0.2, [-0.4]), (0.3, [np.nan]))),
               ControlSignal(((0.3, [0.4]), (0.2, [-0.6]))),
               ControlSignal(((0.2, [0.1, 0.2]),))]
    long = [ControlSignal.constant([0.5], 6e3), ControlSignal.constant([-0.5], 5e3)]
    fibers = np.column_stack([v0, [0.0, 0.0, 1.0]])
    for group in (signals, long):
        run = fiber_flows(sys, group, 1e-3)
        for i, u in enumerate(group):
            try:
                flow._segments(sys, u, 1e-3)
            except (ValueError, DefinitionError) as exc:
                with pytest.raises(type(exc)) as info:
                    run(i, x0, v0)
                assert str(info.value) == str(exc)
                continue
            for start in (None, v0, fibers):
                for got, want in zip(run(i, x0, start), fiber_flows(sys, [u], 1e-3)(0, x0, start)):
                    assert got is None and want is None or np.array_equal(got, want)
    run = fiber_flows(sys, signals, 1e-3)
    with pytest.raises(ValueError, match="channel 0 is 3.0"):
        run(1, x0, v0)
    with pytest.raises(DefinitionError, match="MAX_GRID_STEPS"):
        run(2, x0, v0)
    for i in (1, 2):
        with pytest.raises(OffManifoldError):
            run(i, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    flat = rotation_system()
    for system, x, start in [
            *((sys, x0, start) for start in (
                [1e-3, 1.0, 0.0], [0.0, np.inf, 0.0], [0.0, 1.0], 0.0, np.zeros((2, 2)),
                np.column_stack([v0, [1e-3, 1.0, 0.0]]), np.column_stack([[0.0, np.nan, 0.0], v0]))),
            *((flat, [0.3, -0.2], start) for start in (
                [np.nan, 0.0], np.column_stack([[1.0, 0.0], [0.0, -np.inf]]), [1.0, 0.0, 0.0]))]:
        start = np.array(start)
        with pytest.raises(OffManifoldError) as want:
            for column in (start.T if start.ndim == 2 else [start]):
                TangentPoint(x, column).validate(system.manifold)
        with pytest.raises(OffManifoldError) as got:
            fiber_flows(system, [ControlSignal.constant([0.5], 0.4)], 1e-3)(0, x, start)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        fiber_flows(sys, [good], np.nan)(0, x0, v0)
    with monkeypatch.context() as patch:
        refuse_steps(patch)
        patch.setattr(flow, "_power", None)  # a power taken fails with a TypeError
        with pytest.raises(DefinitionError):
            fiber_flows(sys, [signals[2]], 1e-3)(0, x0, None)


def sphere_drift_system():
    """Rotations about z and x with bounds +-2 under a drift 0.1 L3: at the
    search's longest step, 8 / 120, the corner u = (2, 2) is not certified."""
    return AffineSystem(Manifold.sphere2(), LinearField(0.1 * L3), (LinearField(L3), LinearField(L1)),
                        [[-2.0, 2.0], [-2.0, 2.0]])


@pytest.mark.parametrize("case", [
    *(pytest.param(case, id=f"{case[0]}-{case[1]}") for case in ((1, False), (2, True), (3, False))),
    *(f"{prefix}{make.__name__}" for prefix in ("", "bare-") for make, _, _ in POLYNOMIAL_CASES[:2]),
    "sphere_polynomial_system", "bare-sphere_polynomial_system", "sphere_drift_system",
])
def test_batched_powers_match_fiber_flow_bitwise(case, monkeypatch):
    """A batch of constant controls ends, row for row, bitwise where
    fiber_flows ends under each row's constant control, with mixed step
    counts, on flat space and on S2: on affine systems (two channels,
    c != 0) by one stacked power of the rows whose own drift bound certifies
    them (every row off the sphere), on polynomial systems and for the other
    rows by one segment loop call per step count, neither of which takes the
    stages, and on the bare copies by the stages, whose S2 rows renormalize
    bitwise as one state does. On S2 with a drift, the rows of 120 steps mix
    a row that steps with rows that take a power."""
    if isinstance(case, tuple):
        rng = np.random.default_rng(40 + case[0])
        sys = random_affine_system(*case, rng)
        x0 = rng.normal(size=case[0])
    elif case == "sphere_drift_system":
        rng, sys, x0 = np.random.default_rng(7), sphere_drift_system(), np.array([0.6, 0.0, 0.8])
    else:
        rng = np.random.default_rng(len(case))
        make, x0, _ = next(c for c in POLYNOMIAL_CASES if c[0].__name__ == case.removeprefix("bare-"))
        sys = bare_copy(make()) if case.startswith("bare-") else make()
    controls = rng.uniform(sys.bounds[:, 0], sys.bounds[:, 1], size=(12, sys.n_controls))
    durations = np.repeat([0.05, 0.3, 1.7, 0.3], 3)
    if case == "sphere_drift_system":
        controls[[6, 9]], durations[6:] = [[2.0, 2.0], [-2.0, 2.0]], np.repeat([8.0, 6.0], 3)
    steps = np.maximum(1e-2, durations / 120.0)
    counts, sizes = flow._grid(durations, steps)
    stepped = np.full(12, sys.affine_parts(controls[0]) is None)
    if sys.manifold.kind is ManifoldKind.SPHERE2 and not stepped.all():
        stepped = np.array([flow._drift_bound(*flow._step_map(*sys.affine_parts(u), h)) > flow.DRIFT_TOL
                            for u, h in zip(controls, sizes)])
        assert stepped.tolist() == [False] * 6 + [True] + [False] * 5
    calls = []
    with monkeypatch.context() as patch:
        if sys._polynomial_kernel is not None:
            table, bind = sys._polynomial_kernel
            patch.setattr(flow, "_stages", None)  # stepping by the stages fails with a TypeError
            patch.setitem(sys.__dict__, "_polynomial_kernel",
                          (table, lambda *args: calls.append(args) or bind(*args)))
        ends = constant_control_endpoints(sys, x0, controls, durations, steps)
    kernel_runs = isinstance(case, str) and not case.startswith("bare-")
    assert len(calls) == (len(set(counts[stepped].tolist())) if kernel_runs else 0)
    for end, u, t, step in zip(ends, controls, durations, steps):
        want, _ = fiber_flows(sys, [ControlSignal.constant(u, t)], step)(0, x0, None)
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
    g = ||M^T M - I||_F is about 1.25e-6 > DRIFT_TOL, so fiber_flows steps
    (each step drifts 4.4e-7 at most) and ends where integrate_lifted does;
    one power over the 6 s segment used to raise off-manifold drift
    1.327e-05."""
    sys = SystemDefinition.load(SPHERE_ROTATION).system
    u = ControlSignal.constant([1.0], 6.0)
    x, v = fiber_flows(sys, [u], 0.2)(0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    want = integrate_lifted(sys, TangentPoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), u, 0.2)
    assert want.max_drift <= flow.DRIFT_TOL
    for got, ref in ((x, want.final_point.x), (v, want.final_point.v)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_uncertified_search_rows_step():
    """S2 with drift 0.1 L3, controls L3 and L1 and bounds +-2: the row
    u = (2, 2), t = 8 at step 8/120 has a step map the drift bound does not
    certify, so it steps (a power raises off-manifold drift 2.271e-05) and
    ends where integrate_base does; so does a certified row in the same
    batch and of the same step count, which takes its own power."""
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


def test_check_flow_formula_of_an_empty_signal_is_zero():
    assert check_flow_formula(rotation_system(), [1.0, 0.0], [0.3, -0.7], ControlSignal.empty(), 1e-3) == 0.0


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


def row_join_csv(traj):
    """The CSV writer as it was before it took one row format string: a
    join over the Python floats of each row."""
    columns = [traj.times[:, None], traj.states] + ([] if traj.fibers is None else [traj.fibers])
    return "".join(",".join(f"{val:.17g}" for val in row) + "\n"
                   for row in np.hstack(columns).tolist())


@pytest.mark.parametrize("lifted", [False, True])
def test_csv_bytes_match_row_join_writer(lifted):
    """The precomputed "%.17g,...\n" format gives the bytes of the per-row
    join on -0.0, the smallest subnormal, 1e308, integers, infinities and
    NaN, in blocks of rows shorter and longer than the writer's."""
    import io

    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -7.0, 123456789.0, 2.0 ** 60,
            float("inf"), float("nan"), 0.1]
    rng = np.random.default_rng(11)
    for rows in (3, 257, 600):
        values = rng.choice(edge, size=(rows, 5))
        traj = Trajectory(values[:, :5 if lifted else 3].ravel().tolist(), 2, lifted, ControlSignal.empty())
        buf = io.StringIO()
        traj.write_csv(buf)
        header, body = buf.getvalue().split("\n", 1)
        assert header == ("t,x1,x2,v1,v2" if lifted else "t,x1,x2")
        assert body == row_join_csv(traj)


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
            Trajectory(np.column_stack([[0.0, 1e-3, 0.1, 2.5], odd, *([odd[::-1]] if lifted else [])]).ravel().tolist(),
                       2, lifted, u)]
    for traj in runs:
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == per_value_csv(traj)


@pytest.mark.parametrize("definition,x0,v0,control", [
    (DUFFING, "0.4,-0.3", "1,0.5", [[0.3, [0.7]], [0.25, [-0.4]]]),
    (DUFFING, "0.4,-0.3", "1,0.5", []),
    (SPHERE_TWO_AXIS, "0.6,0,0.8", "0.8,0.3,-0.6", [[0.3, [0.7, -0.2]], [0.25, [-0.4, 0.9]]]),
    (SPHERE_TWO_AXIS, "0.6,0,0.8", "0.8,0.3,-0.6", []),
])
@pytest.mark.parametrize("lifted", [False, True])
def test_simulate_prints_its_rows_value_by_value(definition, x0, v0, control, lifted, capsys):
    """A run keeps its flat rows; times, states and fibers are bitwise the
    columns of np.array(rows). simulate prints per_value_csv of the run, and
    as JSON the run's values one at a time, on flat space and S2, base and
    lifted, over two segments and the empty control (one row). write_csv
    reads the rows alone: it gives the same bytes before the arrays are
    read as after."""
    import io

    defn = SystemDefinition.load(definition)
    u = ControlSignal.from_json(control)
    x = np.array(x0.split(","), dtype=float)
    fresh, traj = [integrate_lifted(defn.system, TangentPoint(x, np.array(v0.split(","), dtype=float)), u, defn.step)
                   if lifted else integrate_base(defn.system, x, u, defn.step) for _ in range(2)]
    n = x.shape[0]
    table = np.array(traj.rows).reshape(-1, (2 if lifted else 1) * n + 1)
    assert traj.times.tobytes() == table[:, 0].tobytes() and traj.states.tobytes() == table[:, 1:n + 1].tobytes()
    assert (traj.fibers.tobytes() == table[:, n + 1:].tobytes()) if lifted else traj.fibers is None
    assert table.shape[0] == (551 if control else 1)
    bufs = [io.StringIO(), io.StringIO()]
    fresh.write_csv(bufs[0])
    assert "_table" not in fresh.__dict__
    traj.write_csv(bufs[1])
    assert bufs[0].getvalue() == bufs[1].getvalue() == per_value_csv(traj)
    argv = ["simulate", definition, f"--x0={x0}", f"--control={json.dumps(control)}",
            *([f"--lifted={v0}"] if lifted else [])]
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == per_value_csv(traj)
    assert main([*argv, "--format", "json"]) == 0
    want = {"times": [float(t) for t in traj.times], "states": [[float(c) for c in row] for row in traj.states],
            "fibers": None if traj.fibers is None else [[float(c) for c in row] for row in traj.fibers],
            "control": u.to_json(), "max_drift": traj.max_drift}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
