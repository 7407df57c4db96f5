import numpy as np
import pytest

from liftctl import (
    AntipodalPointsError,
    Manifold,
    OffManifoldError,
    TangentPoint,
    distance,
    fiber_segment_point,
)


def test_flat_distance_example():
    m = Manifold.flat(2)
    p = TangentPoint([0.0, 0.0], [1.0, 0.0])
    q = TangentPoint([3.0, 4.0], [1.0, 0.0])
    assert distance(m, p, q) == pytest.approx(5.0)
    assert distance(m, p, p) == 0.0


def test_same_fiber_distance_is_fiber_norm():
    m = Manifold.flat(2)
    x = np.array([0.7, -0.2])
    p = TangentPoint(x, [1.0, 1.0])
    q = TangentPoint(x, [4.0, 5.0])
    assert distance(m, p, q) == np.linalg.norm(np.array([3.0, 4.0]))

    sm = Manifold.sphere2()
    sx = np.array([0.0, 0.0, 1.0])
    sp = TangentPoint(sx, [1.0, 0.0, 0.0])
    sq = TangentPoint(sx, [0.0, 2.0, 0.0])
    assert distance(sm, sp, sq) == np.linalg.norm(np.array([1.0, -2.0, 0.0]))


def test_flat_distance_matches_closed_form_random():
    m = Manifold.flat(3)
    rng = np.random.default_rng(50)
    for _ in range(1000):
        p = TangentPoint(rng.standard_normal(3), rng.standard_normal(3))
        q = TangentPoint(rng.standard_normal(3), rng.standard_normal(3))
        closed = np.sqrt(np.sum((q.x - p.x) ** 2) + np.sum((q.v - p.v) ** 2))
        assert abs(distance(m, p, q) - closed) <= 1e-12


def test_flat_metric_axioms():
    m = Manifold.flat(2)
    rng = np.random.default_rng(51)
    pts = [TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
           for _ in range(60)]
    for _ in range(1000):
        i, j, k = rng.integers(0, len(pts), 3)
        dij = distance(m, pts[i], pts[j])
        assert abs(dij - distance(m, pts[j], pts[i])) <= 1e-9
        assert distance(m, pts[i], pts[k]) <= dij + distance(m, pts[j], pts[k]) + 1e-9


def test_surrogate_symmetry_and_identity():
    m = Manifold.sphere2()
    rng = np.random.default_rng(52)
    for _ in range(200):
        x = m.random_point(rng)
        y = m.random_point(rng)
        if m.base_distance(x, y) > np.pi - 1e-3:
            continue
        p = TangentPoint(x, m.random_tangent(x, rng))
        q = TangentPoint(y, m.random_tangent(y, rng))
        d = distance(m, p, q)
        assert abs(d - distance(m, q, p)) <= 1e-12
        assert distance(m, p, p) == 0.0
        assert d >= 0.0


def test_surrogate_antipodal_raises():
    m = Manifold.sphere2()
    p = TangentPoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    q = TangentPoint([-1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(AntipodalPointsError):
        distance(m, p, q)


@pytest.mark.parametrize("bad", [[1.0, 0.0, 0.1], [0.0, np.nan, 1.0], [1.0, 0.0]])
@pytest.mark.parametrize("side", ["p", "q"])
def test_surrogate_names_a_base_point_off_the_sphere(bad, side):
    """distance checks each base point once, by check_point, before either
    formula runs: an off-sphere, non-finite or misshapen x on either side is
    named in check_point's words."""
    m, good = Manifold.sphere2(), TangentPoint([0.6, 0.0, 0.8], [0.0, 1.0, 0.0])
    with pytest.raises(OffManifoldError) as want:
        m.check_point(bad)
    off = TangentPoint(bad, [0.0, 0.0, 0.0][:len(bad)])
    with pytest.raises(OffManifoldError) as got:
        distance(m, off, good) if side == "p" else distance(m, good, off)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m", [Manifold.flat(2), Manifold.sphere2()],
                         ids=["flat_metric", "sphere_metric"])
def test_submersion_bound(m):
    """Base distance of the projections never exceeds the bundle distance."""
    rng = np.random.default_rng(53)
    for _ in range(300):
        x = m.random_point(rng)
        y = m.random_point(rng)
        if not m.is_flat and m.base_distance(x, y) > np.pi - 1e-3:
            continue
        p = TangentPoint(x, m.random_tangent(x, rng))
        q = TangentPoint(y, m.random_tangent(y, rng))
        assert m.base_distance(x, y) <= distance(m, p, q) + 1e-15


def test_fiber_segment_point_examples():
    p = TangentPoint([0.0, 0.0], [0.0, 0.0])
    out = fiber_segment_point(p, np.array([1.0, 0.0]), 0.25)
    assert np.allclose(out.v, [0.25, 0.0])
    assert np.array_equal(out.x, p.x)

    clamped = fiber_segment_point(p, np.array([0.1, 0.0]), 5.0)
    assert np.array_equal(clamped.v, [0.1, 0.0])

    mid = fiber_segment_point(TangentPoint([0.0], [0.0]), np.array([1.0]), 0.5)
    assert mid.v[0] == pytest.approx(0.5)


def test_fiber_segment_point_step_validation():
    p = TangentPoint([0.0], [0.0])
    with pytest.raises(ValueError):
        fiber_segment_point(p, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        fiber_segment_point(p, np.array([1.0]), -1.0)


def test_fiber_segment_point_refuses_non_finite_step():
    """A NaN step used to give a NaN fiber; NaN and infinite steps raise."""
    p = TangentPoint([0.0], [0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            fiber_segment_point(p, np.array([1.0]), bad)


def test_fiber_segment_point_refuses_non_finite_target():
    """A NaN target_v used to give a [nan, nan] fiber; a NaN or infinite
    entry raises, as a bad step does."""
    p = TangentPoint([0.0, 0.0], [0.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="target_v must be finite"):
            fiber_segment_point(p, np.array(bad), 0.1)


def test_fiber_segment_point_decreases_gap_by_step():
    rng = np.random.default_rng(54)
    for _ in range(50):
        p = TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
        target = rng.standard_normal(2)
        gap = np.linalg.norm(target - p.v)
        step = float(rng.uniform(0.01, 2.0))
        out = fiber_segment_point(p, target, step)
        new_gap = np.linalg.norm(target - out.v)
        assert new_gap == pytest.approx(max(0.0, gap - step), abs=1e-12)
