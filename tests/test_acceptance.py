"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from liftctl import (
    AffineSystem,
    ConstantField,
    ControlSignal,
    LinearField,
    LinearGramianOracle,
    Manifold,
    TangentPoint,
    VectorField,
    check_bracket_identity,
    check_fiber_reachability,
    check_flow_formula,
    check_invariance,
    check_lift_algebra_identity,
    check_pi_related,
    distance,
    integrate_base,
    integrate_lifted,
    lifted_rank_at,
    plan_chain,
    rank_at,
    verify_chain,
    zero_field,
)
from liftctl.cli import SystemDefinition

DEFS = Path(__file__).resolve().parent.parent / "defs"

ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_poly_callable(rng):
    c = rng.uniform(-1.0, 1.0, size=(3, 10))

    def value(x, c=c):
        monos = np.array([
            1.0, x[0], x[1], x[2], x[0] * x[1], x[1] * x[2], x[0] * x[2],
            x[0] ** 2, x[1] ** 2, x[2] ** 2,
        ])
        return c @ monos

    return VectorField(value)


def forced_rotation_system():
    return AffineSystem(Manifold.flat(2), LinearField(ROT2),
                        (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])),
                        [[-10.0, 10.0], [-10.0, 10.0]])


def sphere_bilinear_system():
    return AffineSystem(Manifold.sphere2(), LinearField(L3), (LinearField(L1),),
                        [[-1.0, 1.0]])


def shipped_systems():
    out = []
    for name in ("line_shift", "flat_rotation", "sphere_rotation"):
        defn = SystemDefinition.load(str(DEFS / f"{name}.json"))
        out.append((name, defn))
    return out


def test_criterion_1_bracket_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    samples = [TangentPoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
               for _ in range(20)]
    worst_analytic = 0.0
    for _ in range(5):
        a = LinearField(rng.standard_normal((3, 3)))
        b = LinearField(rng.standard_normal((3, 3)))
        worst_analytic = max(worst_analytic, check_bracket_identity(a, b, samples))
    worst_fd = 0.0
    for _ in range(3):
        worst_fd = max(worst_fd, check_bracket_identity(
            _random_poly_callable(rng), _random_poly_callable(rng), samples))
    elapsed = time.perf_counter() - start
    ok = worst_analytic <= 1e-10 and worst_fd <= 1e-4 and elapsed < 1.0
    _report(1, ok, f"analytic dev {worst_analytic:.2e} (tol 1e-10), "
                   f"fd dev {worst_fd:.2e} (tol 1e-4), {elapsed:.2f}s (< 1s)")
    assert worst_analytic <= 1e-10
    assert worst_fd <= 1e-4
    assert elapsed < 1.0


def test_criterion_2_pi_relatedness_and_projection_identity():
    rng = np.random.default_rng(102)
    samples = [TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
               for _ in range(100)]
    fields = [LinearField(ROT2), LinearField(np.eye(2)),
              _random_poly_callable_2d(rng)]
    worst = max(check_pi_related(f, samples) for f in fields)

    bitwise = True
    for sys, x0, v0 in (
        (forced_rotation_system(), np.array([0.7, -0.2]), np.array([0.1, 0.9])),
        (sphere_bilinear_system(), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, -0.5])),
    ):
        u = ControlSignal(((0.4, np.full(sys.n_controls, 0.5)),
                           (0.6, np.full(sys.n_controls, -0.3))))
        base = integrate_base(sys, x0, u, 1e-3)
        lifted = integrate_lifted(sys, TangentPoint(x0, v0), u, 1e-3)
        bitwise = bitwise and np.array_equal(base.states, lifted.states) \
            and np.array_equal(base.times, lifted.times)
    ok = worst == 0.0 and bitwise
    _report(2, ok, f"pi-relatedness dev {worst:.1e} (exact), "
                   f"base components bitwise: {bitwise}")
    assert worst == 0.0
    assert bitwise


def _random_poly_callable_2d(rng):
    c = rng.uniform(-1.0, 1.0, size=(2, 6))

    def value(x, c=c):
        monos = np.array([1.0, x[0], x[1], x[0] * x[1], x[0] ** 2, x[1] ** 2])
        return c @ monos

    return VectorField(value)


def test_criterion_3_flow_formula():
    start = time.perf_counter()
    a = ROT2
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    linear_sys = AffineSystem(Manifold.flat(2), LinearField(a), (LinearField(b),),
                              [[-1.0, 1.0]])
    u_val = 0.6
    u = ControlSignal.constant([u_val], 2.0)
    x0 = np.array([1.0, 0.3])
    v0 = np.array([-0.4, 0.8])
    dev_linear = check_flow_formula(linear_sys, x0, v0, u, 1e-3)
    # anchor the lifted fiber against the matrix exponential as well
    lifted = integrate_lifted(linear_sys, TangentPoint(x0, v0), u, 1e-3)
    oracle_fiber = expm((a + u_val * b) * 2.0) @ v0
    oracle_dev = float(np.linalg.norm(lifted.final_point.v - oracle_fiber))

    sphere_sys = sphere_bilinear_system()
    us = ControlSignal(((1.0, np.array([0.5])), (1.0, np.array([-0.7]))))
    dev_sphere = check_flow_formula(sphere_sys, [1.0, 0.0, 0.0], [0.0, 0.6, -0.3],
                                    us, 1e-3)
    elapsed = time.perf_counter() - start
    ok = dev_linear <= 1e-6 and oracle_dev <= 1e-8 and dev_sphere <= 1e-4 and elapsed < 5.0
    _report(3, ok, f"linear dev {dev_linear:.2e} (tol 1e-6), expm dev {oracle_dev:.2e}, "
                   f"sphere dev {dev_sphere:.2e} (tol 1e-4), {elapsed:.2f}s (< 5s)")
    assert dev_linear <= 1e-6
    assert oracle_dev <= 1e-8
    assert dev_sphere <= 1e-4
    assert elapsed < 5.0


def test_criterion_4_invariance():
    rng = np.random.default_rng(104)
    worst = {"linear": 0.0, "sphere": 0.0}
    for label, sys in (("linear", forced_rotation_system()),
                       ("sphere", sphere_bilinear_system())):
        m = sys.manifold
        for k in range(10):
            x0 = m.random_point(rng)
            segs = tuple(
                (float(rng.uniform(0.2, 0.6)),
                 rng.uniform(sys.bounds[:, 0], sys.bounds[:, 1]))
                for _ in range(int(rng.integers(1, 4)))
            )
            v_sig = ControlSignal(segs)
            s = 0.0 if k == 0 else float(rng.uniform(0.0, v_sig.total_duration))
            c = v_sig.value_at(s)
            t = float(rng.uniform(0.3, 1.0))
            u_sig = ControlSignal.constant(c, t)
            if k == 0:
                # s = 0 case: the initial vector carries the constant control
                # that the flow then applies
                v_sig = ControlSignal.constant(c, v_sig.total_duration)
            base_dev, fiber_dev = check_invariance(sys, x0, s, v_sig, t, u_sig, 1e-3)
            worst[label] = max(worst[label], base_dev, fiber_dev)
    ok = worst["linear"] <= 1e-6 and worst["sphere"] <= 1e-4
    _report(4, ok, f"linear dev {worst['linear']:.2e} (tol 1e-6), "
                   f"sphere dev {worst['sphere']:.2e} (tol 1e-4)")
    assert worst["linear"] <= 1e-6
    assert worst["sphere"] <= 1e-4


def test_criterion_5_rank_obstruction():
    start = time.perf_counter()
    controllable = {"line_shift", "flat_rotation"}
    all_ok = True
    details = []
    for name, defn in shipped_systems():
        m = defn.manifold
        n = m.intrinsic_dim
        fields = (defn.system.drift,) + defn.system.controlled
        rng = np.random.default_rng(105)
        lifted_ranks = set()
        base_ok = True
        for _ in range(100):
            x = m.random_point(rng)
            v = m.random_tangent(x, rng)
            lifted = lifted_rank_at(fields, TangentPoint(x, v), 4, m)
            all_ok = all_ok and lifted.rank <= n and lifted.rank < 2 * n
            lifted_ranks.add(lifted.rank)
            if name in controllable:
                base_ok = base_ok and rank_at(fields, x, 4, m).rank == n
        all_ok = all_ok and base_ok
        details.append(f"{name}: lifted ranks {sorted(lifted_ranks)} <= n={n}")
    elapsed = time.perf_counter() - start
    all_ok = all_ok and elapsed < 5.0
    _report(5, all_ok, "; ".join(details) + f"; {elapsed:.2f}s (< 5s)")
    assert all_ok


def test_criterion_6_lift_algebra_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _, defn in shipped_systems():
        m = defn.manifold
        fields = (defn.system.drift,) + defn.system.controlled
        samples = []
        for _ in range(10):
            x = m.random_point(rng)
            samples.append(TangentPoint(x, m.random_tangent(x, rng)))
        worst = max(worst, check_lift_algebra_identity(fields, samples, 3))
    # a non-commuting analytic pair exercises nontrivial depth-3 words
    sl2 = [LinearField(np.array([[0.0, 1.0], [0.0, 0.0]])),
           LinearField(np.array([[0.0, 0.0], [1.0, 0.0]]))]
    samples = [TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
               for _ in range(10)]
    worst = max(worst, check_lift_algebra_identity(sl2, samples, 3))
    ok = worst <= 1e-8
    _report(6, ok, f"max deviation {worst:.2e} (tol 1e-8, depth 3)")
    assert worst <= 1e-8


def test_criterion_7_fiber_reachability():
    sys = forced_rotation_system()
    oracle = LinearGramianOracle.for_system(sys, horizon=1.0)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        x0 = rng.uniform(-1, 1, 2)
        v0 = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        witness = check_fiber_reachability(sys, oracle, TangentPoint(x0, v0), y)
        worst = max(worst, sys.manifold.base_distance(witness.endpoint.x, y))
    ok = worst <= 1e-6
    _report(7, ok, f"worst fiber-landing error {worst:.2e} (tol 1e-6), 10 witnesses")
    assert worst <= 1e-6


def test_criterion_8_chain_controllability():
    line_sys = AffineSystem(Manifold.flat(1), zero_field(1),
                            (ConstantField([1.0]),), [[-10.0, 10.0]])
    line_oracle = LinearGramianOracle.for_system(line_sys, horizon=1.0)

    rot_sys = forced_rotation_system()
    rot_oracle = LinearGramianOracle.for_system(rot_sys, horizon=1.0)
    rng = np.random.default_rng(108)

    all_ok = True
    details = []
    for eps in (0.25, 0.1):
        start = time.perf_counter()
        source = TangentPoint([0.0], [0.0])
        target = TangentPoint([0.0], [1.0])
        chain = plan_chain(line_sys, line_oracle, source, target, eps, 0.5)
        report = verify_chain(line_sys, chain)
        elapsed = time.perf_counter() - start
        bound = math.ceil(1.0 / eps)
        ok = (report.passed and len(chain.legs) >= bound
              and len(chain.legs) <= 3 * bound + 4 and elapsed < 10.0)
        all_ok = all_ok and ok
        details.append(f"line eps={eps}: {len(chain.legs)} legs "
                       f"(bound {bound}), verified={report.passed}, {elapsed:.1f}s")

        start = time.perf_counter()
        source = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        target = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        chain = plan_chain(rot_sys, rot_oracle, source, target, eps, 0.5)
        report = verify_chain(rot_sys, chain)
        elapsed = time.perf_counter() - start
        ok = report.passed and len(chain.legs) <= 200 and elapsed < 10.0
        all_ok = all_ok and ok
        details.append(f"rotation eps={eps}: {len(chain.legs)} legs (<= 200), "
                       f"verified={report.passed}, {elapsed:.1f}s (< 10s)")
    for leg_duration in [leg.duration for leg in chain.legs]:
        all_ok = all_ok and leg_duration > 0.5
    _report(8, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_9_tangent_bundle_distances():
    m = Manifold.flat(3)
    rng = np.random.default_rng(109)
    worst = 0.0
    submersion_ok = True
    for _ in range(1000):
        p = TangentPoint(rng.standard_normal(3), rng.standard_normal(3))
        q = TangentPoint(rng.standard_normal(3), rng.standard_normal(3))
        d = distance(m, p, q)
        closed = math.sqrt(float(np.sum((q.x - p.x) ** 2) + np.sum((q.v - p.v) ** 2)))
        worst = max(worst, abs(d - closed))
        submersion_ok = submersion_ok and m.base_distance(p.x, q.x) <= d + 1e-15

    fiber_exact = True
    sm = Manifold.sphere2()
    for _ in range(200):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        d_flat = distance(m, TangentPoint(x, v), TangentPoint(x, w))
        fiber_exact = fiber_exact and d_flat == float(np.linalg.norm(w - v))
        sx = sm.random_point(rng)
        sv = sm.random_tangent(sx, rng)
        sw = sm.random_tangent(sx, rng)
        d_s = distance(sm, TangentPoint(sx, sv), TangentPoint(sx, sw))
        fiber_exact = fiber_exact and d_s == float(np.linalg.norm(sw - sv))
        submersion_ok = submersion_ok and sm.base_distance(sx, sx) <= d_s

    ok = worst <= 1e-12 and fiber_exact and submersion_ok
    _report(9, ok, f"closed-form dev {worst:.2e} (tol 1e-12), same-fiber exact: "
                   f"{fiber_exact}, submersion bound: {submersion_ok}")
    assert worst <= 1e-12
    assert fiber_exact
    assert submersion_ok
