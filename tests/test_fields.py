import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftctl import (
    AffineSystem,
    ConstantField,
    LinearField,
    Manifold,
    PolynomialField,
    ScalarField,
    TangentPoint,
    VectorField,
    check_lift_algebra_identity,
    check_pi_related,
    complete_lift,
    complete_lift_function,
    field_from_descriptor,
    lie_bracket,
    vertical_lift_function,
)
from liftctl.cli import SystemDefinition
from liftctl.errors import NonFiniteError
from liftctl.fields import fd_jacobian, flatten_lift, polynomial_kernel
from liftctl.flow import _stages


def _random_samples(n_dim, count, seed):
    rng = np.random.default_rng(seed)
    return [TangentPoint(rng.standard_normal(n_dim), rng.standard_normal(n_dim))
            for _ in range(count)]


def test_complete_lift_function_examples():
    f = ScalarField(lambda x: x[0], lambda x: np.array([1.0, 0.0]))
    fc = complete_lift_function(f)
    assert fc(TangentPoint([2.0, 3.0], [5.0, 7.0])) == pytest.approx(5.0)

    g = ScalarField(lambda x: x[0] * x[1], lambda x: np.array([x[1], x[0]]))
    gc = complete_lift_function(g)
    assert gc(TangentPoint([2.0, 3.0], [5.0, 7.0])) == pytest.approx(29.0)
    assert gc(TangentPoint([2.0, 3.0], [0.0, 0.0])) == 0.0


def test_vertical_lift_function_examples():
    f = ScalarField(lambda x: float(x @ x))
    fv = vertical_lift_function(f)
    assert fv(TangentPoint([3.0, 4.0], [100.0, -2.0])) == pytest.approx(25.0)
    const = vertical_lift_function(ScalarField(lambda x: 42.0))
    assert const(TangentPoint([0.0, 1.0], [9.0, 9.0])) == 42.0
    proj = vertical_lift_function(ScalarField(lambda x: x[1]))
    assert proj(TangentPoint([1.0, 2.0], [9.0, 9.0])) == 2.0


def test_complete_lift_linear():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    lift = complete_lift(LinearField(a))
    x = np.array([1.0, -1.0])
    v = np.array([0.5, 2.0])
    h, vert = lift(TangentPoint(x, v))
    assert np.allclose(h, a @ x)
    assert np.allclose(vert, a @ v)


def test_complete_lift_sphere_rotation_example():
    # rotation generator about the third axis
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lift = complete_lift(LinearField(a))
    h, vert = lift(TangentPoint([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
    assert np.allclose(h, [0.0, 1.0, 0.0])
    assert np.allclose(vert, [0.0, 0.0, 0.0])


def test_complete_lift_zero_field():
    lift = complete_lift(ConstantField(np.zeros(3)))
    h, vert = lift(TangentPoint([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))
    assert not np.any(h) and not np.any(vert)


def test_lift_linearity():
    rng = np.random.default_rng(10)
    ma = rng.standard_normal((3, 3))
    mb = rng.standard_normal((3, 3))
    a = LinearField(ma)
    b = LinearField(mb)
    alpha, beta = 2.5, -1.25
    combo = LinearField(alpha * ma + beta * mb)
    p = TangentPoint(rng.standard_normal(3), rng.standard_normal(3))
    hc, vc = complete_lift(combo)(p)
    ha, va = complete_lift(a)(p)
    hb, vb = complete_lift(b)(p)
    assert np.allclose(hc, alpha * ha + beta * hb, atol=1e-12)
    assert np.allclose(vc, alpha * va + beta * vb, atol=1e-12)


def test_vertical_part_linear_in_v():
    rng = np.random.default_rng(11)
    fld = LinearField(rng.standard_normal((3, 3)))
    lift = complete_lift(fld)
    x = rng.standard_normal(3)
    v1 = rng.standard_normal(3)
    v2 = rng.standard_normal(3)
    a, b = 1.5, -0.25
    _, combo = lift(TangentPoint(x, a * v1 + b * v2))
    expected = a * lift(TangentPoint(x, v1))[1] + b * lift(TangentPoint(x, v2))[1]
    assert np.allclose(combo, expected, rtol=0.0, atol=1e-14)


def test_lie_bracket_linear_example():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    bracket = lie_bracket(LinearField(a), LinearField(b))
    assert np.allclose(bracket.affine()[0], b @ a - a @ b)
    assert np.allclose(bracket(np.array([1.0, 1.0])), [-1.0, 1.0])


def test_affine_parts():
    """Linear and constant fields are polynomial fields of degree one and
    zero whose affine() gives back the matrix and vector; a cubic field and
    a bare callable are not affine, and a negative exponent cannot be built.
    The (A, b) a linear or constant field takes from its matrix or vector is
    bitwise the (Df(0), f(0)) its partials and components give, -0.0
    entries, zero rows and a skew matrix included. A system's affine_parts
    of a stack of control rows is, row by row, bitwise its affine_parts of
    each row."""
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    lin_a, lin_b = LinearField(a).affine()
    assert np.array_equal(lin_a, a) and not np.any(lin_b)
    const_a, const_b = ConstantField(c).affine()
    assert not np.any(const_a) and np.array_equal(const_b, c)
    skew = np.array([[0.0, -0.3, 1.2], [0.3, -0.0, -2.5], [-1.2, 2.5, 0.0]])
    for values in (a, c, skew, np.array([[-0.0, 2.0], [0.0, -0.0]]), np.zeros((2, 2)),
                   np.array([[1.5, -0.0, 0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]),
                   np.array([-0.0, 0.0, 1.0]), np.array([-0.0]), np.zeros(2)):
        fld = (LinearField if values.ndim == 2 else ConstantField)(values)
        zero = [0.0] * fld.dim
        for got, want in zip(fld.affine(), (fld._jac(zero), fld._eval(zero))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert PolynomialField([[(1.0, (0, 1))], [(-1.0, (1, 0)), (-1.0, (3, 0))]], 2).affine() is None
    with pytest.raises(ValueError):
        PolynomialField([[(1.0, (2, -1))], []], 2)
    assert VectorField(lambda x: x).affine() is None
    sys = AffineSystem(Manifold.flat(3), LinearField(a),
                       (LinearField(a.T), ConstantField(c), ConstantField(np.zeros(3))),
                       [[-1.0, 1.0]] * 3)
    controls = rng.uniform(-1.0, 1.0, (4, 3))
    stacked = sys.affine_parts(controls)
    assert stacked[0].shape == (4, 3, 3) and stacked[1].shape == (4, 3)
    for r, u in enumerate(controls):
        for got, want in zip(stacked, sys.affine_parts(u)):
            assert got[r].tobytes() == want.tobytes()


def test_lie_bracket_fd_oracle():
    """Cross-check the bracket against a finite-difference oracle written
    directly from the definition."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    bracket = lie_bracket(LinearField(a), LinearField(b))

    def oracle(x, h=1e-6):
        out = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            jy = (b @ (x + e) - b @ (x - e)) / (2 * h)
            jx = (a @ (x + e) - a @ (x - e)) / (2 * h)
            out += jy * (a @ x)[j] - jx * (b @ x)[j]
        return out

    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.allclose(bracket(x), oracle(x), atol=1e-6)


def test_lie_bracket_antisymmetry_and_constants():
    fld = LinearField(np.array([[1.0, 2.0], [0.0, -1.0]]))
    self_bracket = lie_bracket(fld, fld)
    assert np.allclose(self_bracket.affine()[0], 0.0)
    c1 = ConstantField([1.0, 2.0])
    c2 = ConstantField([-3.0, 0.5])
    assert not np.any(lie_bracket(c1, c2)(np.array([7.0, -2.0])))


def test_lie_bracket_of_fields_of_different_dimensions_raises():
    """In either order, polynomial fields on R^2 and R^3 used to give a
    2-dimensional zero field or a bare IndexError; both raise ValueError."""
    for pair in ((LinearField(np.eye(2)), LinearField(np.eye(3))),
                 (LinearField(np.eye(3)), LinearField(np.eye(2)))):
        with pytest.raises(ValueError, match="dimensions"):
            lie_bracket(*pair)


def test_lie_bracket_polynomial_closed_form():
    # X = (x2^2, x1), Y = (x1 x2, -x2)
    xf = PolynomialField([[(1.0, (0, 2))], [(1.0, (1, 0))]], 2)
    yf = PolynomialField([[(1.0, (1, 1))], [(-1.0, (0, 1))]], 2)
    bracket = lie_bracket(xf, yf)
    assert isinstance(bracket, PolynomialField)

    def manual(x):
        jx = np.array([[0.0, 2 * x[1]], [1.0, 0.0]])
        jy = np.array([[x[1], x[0]], [0.0, -1.0]])
        return jy @ xf(x) - jx @ yf(x)

    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert np.allclose(bracket(x), manual(x), atol=1e-12)


def test_check_pi_related_is_zero():
    samples = _random_samples(2, 100, 14)
    fld = LinearField(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert check_pi_related(fld, samples) == 0.0
    custom = VectorField(lambda x: np.array([np.sin(x[0]), x[1] ** 2]))
    assert check_pi_related(custom, samples) == 0.0
    assert check_pi_related(fld, []) == 0.0


def test_check_pi_related_raises_where_the_deviation_is_not_finite():
    """The drift x1 d/dx0 - x0^(2**63 - 1) d/dx1 overflows at 34 of the lift
    suite's 100 samples on duffing.json. max(worst, nan) kept worst, so the
    check returned 0.0; it names the first such sample's x and v now."""
    data = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "defs"
                       / "duffing.json").read_text())
    data["drift"] = {"type": "polynomial", "components": [[[1.0, [0, 1]]], [[-1.0, [2 ** 63 - 1, 0]]]]}
    defn = SystemDefinition.from_dict(data)
    rng = np.random.default_rng(defn.seed)  # the samples of cli._suite_lift
    samples = []
    for _ in range(100):
        x = defn.manifold.random_point(rng)
        samples.append(TangentPoint(x, defn.manifold.random_tangent(x, rng)))
    first = samples[0]
    with pytest.raises(NonFiniteError) as err:
        check_pi_related(defn.system.drift, samples)
    assert str(err.value) == ("pi-relatedness deviation is not finite at "
                              f"x={first.x.tolist()}, v={first.v.tolist()}")
    assert check_pi_related(defn.system.controlled[0], samples) == 0.0


def test_check_bracket_identity_linear():
    rng = np.random.default_rng(15)
    samples = _random_samples(3, 20, 16)
    a = LinearField(rng.standard_normal((3, 3)))
    b = LinearField(rng.standard_normal((3, 3)))
    assert check_lift_algebra_identity((a, b), samples, 2) <= 1e-10
    assert check_lift_algebra_identity((a, a), samples, 2) <= 1e-10


def test_check_bracket_identity_fd_custom():
    """Polynomial maps given as bare callables exercise the FD Jacobian path."""
    rng = np.random.default_rng(17)
    samples = [TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
               for _ in range(15)]
    xf = VectorField(lambda x: np.array([x[1] ** 2, x[0] * x[1]]))
    yf = VectorField(lambda x: np.array([x[0] ** 2 - x[1], x[0]]))
    assert check_lift_algebra_identity((xf, yf), samples, 2) <= 1e-4


def test_flatten_lift_matches_lift():
    rng = np.random.default_rng(18)
    for fld in (LinearField(rng.standard_normal((2, 2))),
                ConstantField(rng.standard_normal(2)),
                PolynomialField([[(1.0, (2, 0))], [(1.0, (1, 1))]], 2),
                VectorField(lambda x: np.array([np.sin(x[0]), x[0] * x[1]]))):
        flat = flatten_lift(fld)
        lift = complete_lift(fld)
        for _ in range(5):
            p = TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
            h, vert = lift(p)
            got = flat(np.concatenate([p.x, p.v]))
            tol = 1e-12 if fld.has_analytic_jacobian else 1e-7
            assert np.allclose(got, np.concatenate([h, vert]), atol=tol)


def test_lifted_scalar_identities():
    """X^c f^c = (Xf)^c and X^c f^v = (Xf)^v, via FD directional derivatives."""
    rng = np.random.default_rng(19)
    fld = PolynomialField([[(1.0, (0, 2))], [(0.5, (1, 1))]], 2)
    f = ScalarField(lambda x: x[0] ** 2 * x[1],
                    lambda x: np.array([2 * x[0] * x[1], x[0] ** 2]))
    fc = complete_lift_function(f)
    fv = vertical_lift_function(f)
    xf_scalar = ScalarField(lambda x: float(f.gradient(x) @ fld(x)))
    xf_c = complete_lift_function(xf_scalar)
    xf_v = vertical_lift_function(xf_scalar)
    lift = complete_lift(fld)

    def directional(func, p, direction, h=1e-6):
        z = np.concatenate([p.x, p.v])
        d = np.concatenate(direction)
        zp, zm = z + h * d, z - h * d
        n = p.x.shape[0]
        return (func(TangentPoint(zp[:n], zp[n:])) - func(TangentPoint(zm[:n], zm[n:]))) / (2 * h)

    for _ in range(20):
        p = TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        direction = lift(p)
        assert abs(directional(fc, p, direction) - xf_c(p)) <= 1e-5
        assert abs(directional(fv, p, direction) - xf_v(p)) <= 1e-5


def test_scalar_field_fd_gradient_consistency():
    rng = np.random.default_rng(20)
    f = ScalarField(lambda x: np.sin(x[0]) * x[1] + x[2] ** 3,
                    lambda x: np.array([np.cos(x[0]) * x[1], np.sin(x[0]), 3 * x[2] ** 2]))
    for _ in range(20):
        x = rng.standard_normal(3)
        assert np.allclose(f.gradient(x), ScalarField(f).gradient(x), atol=1e-5)


def test_linear_jacobian_exact_and_sphere_tangency():
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    fld = LinearField(a)
    rng = np.random.default_rng(21)
    m = Manifold.sphere2()
    for _ in range(20):
        x = m.random_point(rng)
        assert np.array_equal(fld.jacobian(x), a)
        assert abs(x @ fld(x)) <= 1e-8


def test_field_descriptor_round_trip():
    lin = field_from_descriptor({"type": "linear", "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
    assert isinstance(lin, LinearField)
    const = field_from_descriptor({"type": "constant", "vector": [1.0, 0.0]})
    assert isinstance(const, ConstantField)
    poly = field_from_descriptor({
        "type": "polynomial",
        "components": [[[1.0, [0, 2]]], [[2.0, [1, 0]], [-1.0, [0, 1]]]],
    })
    assert isinstance(poly, PolynomialField)
    assert np.allclose(poly(np.array([1.0, 3.0])), [9.0, -1.0])
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "mystery"})


def test_exponents_must_fit_int64():
    """liealg's bracket table holds exponents as int64, so a polynomial field
    refuses 2**63 (brackets raised OverflowError) and takes 2**63 - 1."""
    with pytest.raises(ValueError, match=r"^exponents must be below 2\*\*63, got 9223372036854775808$"):
        PolynomialField([[(1.0, (0, 2 ** 63))], []], 2)
    assert PolynomialField([[(1.0, (0, 2 ** 63 - 1))], []], 2).components[0] == ((1.0, (0, 2 ** 63 - 1)),)


def test_a_descriptor_takes_a_library_callers_numpy_coefficient():
    fld = field_from_descriptor({"type": "polynomial", "components": [[[np.float64(0.5), [1]]]]}, 1)
    assert fld.components == (((0.5, (1,)),),) and type(fld.components[0][0][0]) is float


COEFF = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def polynomial_case(draw):
    """Two random PolynomialFields on R^n, n in 1..3, of degree at most 3;
    a degree-one field built from a random (A, b); a tangent point."""
    n = draw(st.integers(1, 3))
    monomial = st.tuples(COEFF, st.sampled_from(
        [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3]))
    x_field, y_field = (PolynomialField([draw(st.lists(monomial, max_size=4)) for _ in range(n)], n)
                        for _ in range(2))
    vector = st.lists(COEFF, min_size=n, max_size=n).map(np.array)
    a, b = np.array([draw(vector) for _ in range(n)]), draw(vector)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    affine = PolynomialField([[(b[i], (0,) * n)] + [(a[i, j], units[j]) for j in range(n)]
                              for i in range(n)], n)
    point = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(np.array)
    return x_field, y_field, affine, (a, b), draw(point), draw(point)


def _majorant(fld):
    """The field with every coefficient replaced by its absolute value: at |x|
    it bounds the terms that rounding acts on."""
    return PolynomialField([[(abs(c), e) for c, e in comp] for comp in fld.components], fld.dim)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=polynomial_case())
def test_polynomial_partials_serve_brackets_lifts_and_tables(case):
    """Brackets, flattened lifts and the generated RK4 kernel all read the
    partials a PolynomialField derives once: at random points each agrees,
    within 1e-12 of the size of its terms, with the fields' own values and
    Jacobians (the kernel through one RK4 step of a single field); a
    degree-one field's affine() is exactly its (A, b)."""
    x_field, y_field, affine, (a, b), x, v = case
    mx, my, ax = _majorant(x_field), _majorant(y_field), np.abs(x)

    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale))

    bracket = lie_bracket(x_field, y_field)
    close(bracket(x), y_field.jacobian(x) @ x_field(x) - x_field.jacobian(x) @ y_field(x),
          my.jacobian(ax) @ mx(ax) + mx.jacobian(ax) @ my(ax))
    close(flatten_lift(x_field)(np.concatenate([x, v])),
          np.concatenate([x_field(x), x_field.jacobian(x) @ v]),
          np.concatenate([mx(ax), mx.jacobian(ax) @ np.abs(v)]))
    # the kernel's one-step segment under one field's coefficients is the
    # RK4 step of that field, and records its flat row
    table, bind = polynomial_kernel((x_field, y_field, affine), len(x))
    h = 1e-3
    for f, (fld, major) in enumerate(((x_field, mx), (y_field, my))):
        base, lifted = bind(h, table[f].tolist(), math.sqrt, abs)
        rows = []
        got_x, got_v, t, drift = lifted(1, 0.0, rows, *x.tolist(), *v.tolist())
        assert base(1, 0.0, None, *x.tolist()) == (got_x, None, t, 0.0) and t == h and drift == 0.0
        assert rows == [t, *got_x, *got_v]
        want_x, want_v, _, _ = _stages(lambda y, lifted: (fld(y), fld.jacobian(y)), h, 1, x, v,
                                       0.0, None, False)
        close(np.array(got_x), want_x, ax + h * major(ax))
        close(np.array(got_v), want_v, np.abs(v) + h * major.jacobian(ax) @ np.abs(v))
    got_a, got_b = affine.affine()
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)


def _squaring_power(y, e):
    """y ** e, e >= 1, by the squaring recursion half * half (* y): the
    products the generated kernels take, odd powers included."""
    if e == 1:
        return y
    half = _squaring_power(y, e // 2)
    return half * half * y if e % 2 else half * half


def test_kernel_loops_take_powers_by_the_squaring_recursion_bitwise():
    """The generated base and lifted loops of c x^e on R^1, e = 0 to 9, give
    bitwise the rows of two RK4 steps written here with the squaring
    recursion's powers, from seeded random starts. A unit step keeps each
    stage's last bits in the end point."""
    rng = np.random.default_rng(17)
    h = 1.0
    h2, h6 = 0.5 * h, h / 6.0
    for e in range(10):
        fld = PolynomialField([[(float(rng.uniform(-2.0, 2.0)), (e,))]], 1)
        table, bind = polynomial_kernel([fld], 1)
        c, d = (table[0].tolist() + [0.0])[:2]  # the slots of c x^e and of its derivative d x^(e-1)

        def k(y):
            return c * _squaring_power(y, e) if e else c

        def kv(y, w):
            return 0.0 if e == 0 else (d * _squaring_power(y, e - 1) if e > 1 else d) * w

        base, lifted = bind(h, table[0].tolist(), math.sqrt, abs)
        for x0, v0 in rng.uniform(-1.0, 1.0, (8, 2)).tolist():
            x, v, t, want = x0, v0, 0.0, []
            for _ in range(2):
                k1, kv1 = k(x), kv(x, v)
                y2, w2 = x + h2 * k1, v + h2 * kv1
                k2, kv2 = k(y2), kv(y2, w2)
                y3, w3 = x + h2 * k2, v + h2 * kv2
                k3, kv3 = k(y3), kv(y3, w3)
                y4, w4 = x + h * k3, v + h * kv3
                k4, kv4 = k(y4), kv(y4, w4)
                x, v = x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), v + h6 * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
                t = t + h
                want += [t, x, v]
            rows = []
            assert lifted(2, 0.0, rows, x0, v0) == ((x,), (v,), t, 0.0)
            assert np.array(rows).tobytes() == np.array(want).tobytes()
            assert base(2, 0.0, None, x0) == ((x,), None, t, 0.0)


def _fd_map(y):
    return np.array([np.sin(y[0]) * y[1], np.exp(y[1] - y[2]), y[0] ** 3 + y[2]])


@pytest.mark.parametrize("noise", [0.0, 1e-8])
def test_fd_jacobian_is_the_3_and_5_point_rule_bitwise(noise):
    """A clean map takes the 3-point rule with step eps^(1/3) (1 + |x|), and
    a noisy one the 5-point rule with step max(eps^(1/3), (10 noise)^(1/5))
    (1 + |x|); func is evaluated at x, then column by column from the
    lowest shift up (the 3-point rule's +h before its -h)."""
    seen = []
    x = np.array([0.3, -1.2, 0.7])
    got = fd_jacobian(lambda y: seen.append(y.tolist()) or _fd_map(y), x, noise)
    eps3 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    want, points = np.empty((3, 3)), [x.tolist()]
    for j in range(3):
        def at(mult):
            y = x.copy()
            y[j] += mult * h
            points.append(y.tolist())
            return _fd_map(y)
        if noise == 0.0:
            h = eps3 * 2.2
            fp, fm = at(1.0), at(-1.0)
            want[:, j] = (fp - fm) / (2.0 * h)
        else:
            h = max(eps3, (10.0 * noise) ** 0.2) * 2.2
            fm2, fm1, fp1, fp2 = at(-2.0), at(-1.0), at(1.0), at(2.0)
            want[:, j] = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    assert got.tobytes() == want.tobytes() and seen == points
