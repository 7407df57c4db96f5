import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftctl import (
    ConstantField,
    LinearField,
    Manifold,
    PolynomialField,
    ScalarField,
    TangentPoint,
    VectorField,
    check_bracket_identity,
    check_pi_related,
    complete_lift,
    complete_lift_function,
    field_from_descriptor,
    lie_bracket,
    vertical_lift_function,
    zero_field,
)
from liftctl.fields import fd_gradient, flatten_lift, polynomial_table


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
    lift = complete_lift(zero_field(3))
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
    a bare callable are not affine, and a negative exponent cannot be built."""
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    lin_a, lin_b = LinearField(a).affine()
    assert np.array_equal(lin_a, a) and not np.any(lin_b)
    const_a, const_b = ConstantField(c).affine()
    assert not np.any(const_a) and np.array_equal(const_b, c)
    assert PolynomialField([[(1.0, (0, 1))], [(-1.0, (1, 0)), (-1.0, (3, 0))]], 2).affine() is None
    with pytest.raises(ValueError):
        PolynomialField([[(1.0, (2, -1))], []], 2)
    assert VectorField(lambda x: x).affine() is None


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


def test_check_bracket_identity_linear():
    rng = np.random.default_rng(15)
    samples = _random_samples(3, 20, 16)
    a = LinearField(rng.standard_normal((3, 3)))
    b = LinearField(rng.standard_normal((3, 3)))
    assert check_bracket_identity(a, b, samples) <= 1e-10
    assert check_bracket_identity(a, a, samples) <= 1e-10


def test_check_bracket_identity_fd_custom():
    """Polynomial maps given as bare callables exercise the FD Jacobian path."""
    rng = np.random.default_rng(17)
    samples = [TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
               for _ in range(15)]
    xf = VectorField(lambda x: np.array([x[1] ** 2, x[0] * x[1]]))
    yf = VectorField(lambda x: np.array([x[0] ** 2 - x[1], x[0]]))
    assert check_bracket_identity(xf, yf, samples) <= 1e-4


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
        assert np.allclose(f.gradient(x), fd_gradient(f, x), atol=1e-5)


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
    """Brackets, flattened lifts and the monomial table all read the partials
    a PolynomialField derives once: at random points each agrees, within
    1e-12 of the size of its terms, with the fields' own values and
    Jacobians; a degree-one field's affine() is exactly its (A, b)."""
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
    exps, values, jacobians = polynomial_table((x_field, y_field, affine), len(x))
    monomials = np.prod(x ** exps, axis=1)
    for f, (fld, major) in enumerate(((x_field, mx), (y_field, my))):
        close(values[f] @ monomials, fld(x), major(ax))
        close(jacobians[f] @ monomials, fld.jacobian(x), major.jacobian(ax))
    got_a, got_b = affine.affine()
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
