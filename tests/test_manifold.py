import numpy as np
import pytest

from liftctl import (
    AntipodalPointsError,
    DegenerateStepError,
    Manifold,
    OffManifoldError,
    TangentPoint,
)


def test_project_tangent_flat_identity():
    m = Manifold.flat(2)
    out = m.project_tangent(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert np.array_equal(out, [3.0, 4.0])


def test_project_tangent_sphere_removes_radial():
    m = Manifold.sphere2()
    out = m.project_tangent(np.array([1.0, 0.0, 0.0]), np.array([5.0, 1.0, 2.0]))
    assert np.allclose(out, [0.0, 1.0, 2.0], atol=1e-15)
    out = m.project_tangent(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 7.0]))
    assert np.allclose(out, [0.0, 0.0, 0.0], atol=1e-15)


def test_project_tangent_off_manifold_raises():
    m = Manifold.sphere2()
    with pytest.raises(OffManifoldError):
        m.project_tangent(np.array([1.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_retract_examples():
    assert np.array_equal(Manifold.flat(3).retract([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]),
                          [2.0, 2.0, 3.0])
    m = Manifold.sphere2()
    assert np.allclose(m.retract([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    out = m.retract([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0])


def test_retract_degenerate_step():
    m = Manifold.sphere2()
    with pytest.raises(DegenerateStepError):
        m.retract([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])


@pytest.mark.parametrize("manifold", [Manifold.flat(2), Manifold.sphere2()])
def test_base_distance_rows_match_single_calls_bitwise(manifold):
    """Rows (B, n) give each row's single-point distance bit for bit, a row
    equal to y included; an off-manifold or non-finite row is rejected as
    check_point rejects the point."""
    rng = np.random.default_rng(7)
    y = manifold.random_point(rng)
    rows = np.array([manifold.random_point(rng) for _ in range(40)] + [y])
    got = manifold.base_distance(rows, y)
    assert got.shape == (41,) and got[-1] == 0.0
    assert np.array_equal(got, [manifold.base_distance(row, y) for row in rows])
    assert manifold.base_distance(rows[:0], y).shape == (0,)
    bad = rows.copy()
    bad[3] = 2.0 * bad[3] if not manifold.is_flat else [np.nan, 0.0]
    with pytest.raises(OffManifoldError):
        manifold.check_point(bad[3])
    with pytest.raises(OffManifoldError):
        manifold.base_distance(bad, y)
    with pytest.raises(OffManifoldError):
        manifold.base_distance(rows[:, :1], y)


def test_base_distance_examples():
    assert Manifold.flat(2).base_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    m = Manifold.sphere2()
    assert m.base_distance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(np.pi / 2.0)
    x = np.array([0.6, 0.8, 0.0])
    assert m.base_distance(x, x) == 0.0


def test_parallel_transport_examples():
    flat = Manifold.flat(2)
    assert np.array_equal(flat.parallel_transport([0.0, 0.0], [5.0, 5.0], [1.0, 2.0]),
                          [1.0, 2.0])
    m = Manifold.sphere2()
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    # vector normal to the transport plane is fixed
    assert np.allclose(m.parallel_transport(x, y, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    # in-plane vector rotates by pi/2
    assert np.allclose(m.parallel_transport(x, y, [0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0])


def test_parallel_transport_antipodal_raises():
    m = Manifold.sphere2()
    with pytest.raises(AntipodalPointsError):
        m.parallel_transport([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


@pytest.mark.parametrize("manifold", [Manifold.flat(3), Manifold.sphere2()])
def test_projection_idempotent_linear_contractive(manifold):
    """Tangent projection is linear, idempotent and of operator norm <= 1."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = manifold.random_point(rng)
        w1 = rng.standard_normal(manifold.ambient_dim)
        w2 = rng.standard_normal(manifold.ambient_dim)
        a, b = rng.standard_normal(2)
        p1 = manifold.project_tangent(x, w1)
        assert np.allclose(manifold.project_tangent(x, p1), p1, atol=1e-12)
        combo = manifold.project_tangent(x, a * w1 + b * w2)
        assert np.allclose(combo, a * p1 + b * manifold.project_tangent(x, w2), atol=1e-12)
        assert np.linalg.norm(p1) <= np.linalg.norm(w1) + 1e-12


def test_transport_round_trip_is_identity():
    m = Manifold.sphere2()
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = m.random_point(rng)
        y = m.random_point(rng)
        if m.base_distance(x, y) > np.pi - 1e-3:
            continue
        v = m.random_tangent(x, rng)
        back = m.parallel_transport(y, x, m.parallel_transport(x, y, v))
        assert np.allclose(back, v, atol=1e-9)


def test_transport_preserves_norm():
    m = Manifold.sphere2()
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = m.random_point(rng)
        y = m.random_point(rng)
        if m.base_distance(x, y) > np.pi - 1e-3:
            continue
        v = m.random_tangent(x, rng)
        out = m.parallel_transport(x, y, v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-9
        # result is tangent at y
        assert abs(y @ out) <= 1e-9


@pytest.mark.parametrize("manifold", [Manifold.flat(2), Manifold.sphere2()])
def test_metric_axioms_random_triples(manifold):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = manifold.random_point(rng)
        y = manifold.random_point(rng)
        z = manifold.random_point(rng)
        dxy = manifold.base_distance(x, y)
        dyx = manifold.base_distance(y, x)
        assert abs(dxy - dyx) <= 1e-9
        assert dxy >= 0.0
        assert manifold.base_distance(x, z) <= dxy + manifold.base_distance(y, z) + 1e-9


def test_tangent_point_validation():
    m = Manifold.sphere2()
    TangentPoint([1.0, 0.0, 0.0], [0.0, 2.0, 0.5]).validate(m)
    with pytest.raises(OffManifoldError):
        TangentPoint([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]).validate(m)
    with pytest.raises(OffManifoldError):
        TangentPoint([1.5, 0.0, 0.0], [0.0, 1.0, 0.0]).validate(m)


def test_tangent_basis_orthonormal():
    m = Manifold.sphere2()
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = m.random_point(rng)
        basis = m.tangent_basis(x)
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.allclose(basis.T @ x, 0.0, atol=1e-12)
