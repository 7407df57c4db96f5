import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftctl import (
    ConstantField,
    LinearField,
    Manifold,
    OffManifoldError,
    PolynomialField,
    TangentPoint,
    VectorField,
    check_lift_algebra_identity,
    generate_brackets,
    lie_bracket,
    lifted_rank_at,
    rank_at,
    zero_field,
)
from liftctl import liealg
from liftctl.cli import SystemDefinition

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = [
    "defs/line_shift.json", "defs/flat_rotation.json", "defs/sphere_rotation.json",
    "perfbench/defs/three_field.json", "perfbench/defs/duffing.json",
    "perfbench/defs/sphere_two_axis.json",
]

SL2_A = np.array([[0.0, 1.0], [0.0, 0.0]])
SL2_B = np.array([[0.0, 0.0], [1.0, 0.0]])
ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def test_generate_brackets_counts():
    fields = [LinearField(SL2_A), LinearField(SL2_B)]
    assert len(generate_brackets(fields, 1)) == 2
    assert len(generate_brackets(fields, 2)) == 3
    assert len(generate_brackets(fields, 3)) == 5
    single = [LinearField(SL2_A)]
    assert len(generate_brackets(single, 4)) == 1


def _is_lyndon(word) -> bool:
    """Strictly smaller than each of its proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def _witt(k: int, n: int) -> int:
    """Number of Lyndon words of length n over k letters."""
    def mobius(d):
        sign = 1
        for p in range(2, d + 1):
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lyndon_counts_follow_witt(k):
    rng = np.random.default_rng(45)
    fields = [LinearField(rng.standard_normal((2, 2))) for _ in range(k)]
    lengths = [len(word) for word, _ in generate_brackets(fields, 6)]
    assert lengths == sorted(lengths)
    assert [lengths.count(n) for n in range(1, 7)] == [_witt(k, n) for n in range(1, 7)]
    if k == 3:
        assert [_witt(3, n) for n in range(1, 7)] == [3, 3, 8, 18, 48, 116]


def test_words_are_lyndon_and_bracketed_by_standard_factorization():
    """The words are every Lyndon word up to the depth, shortest first and
    lexicographic within a length; each field of length >= 2 is the bracket
    of the fields of u and v, v the longest proper Lyndon suffix."""
    rng = np.random.default_rng(46)
    fields = [PolynomialField([[(float(rng.integers(1, 3)), tuple(rng.integers(0, 3, 2)))
                                for _ in range(2)] for _ in range(2)], 2)
              for _ in range(3)]
    entries = generate_brackets(fields, 5)
    words = [word for word, _ in entries]
    expected = [w for n in range(1, 6) for w in itertools.product(range(3), repeat=n)
                if _is_lyndon(w)]
    assert words == expected
    made = dict(entries)
    for word in words:
        if len(word) == 1:
            assert made[word] is fields[word[0]]
            continue
        i = min(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
        u, v = word[:i], word[i:]
        assert _is_lyndon(u) and u < v
        assert made[word].components == lie_bracket(made[u], made[v]).components


def left_normed_brackets(fields, max_depth):
    """Reference enumerator: every left-normed word [..[[i, j], k], ..] of
    length <= max_depth, with self-brackets dropped at length two only."""
    fields = list(fields)
    layer = [((i,), fld) for i, fld in enumerate(fields)]
    entries = list(layer)
    for n in range(2, max_depth + 1):
        layer = [(word + (t,), lie_bracket(fld, fields[t]))
                 for word, fld in layer for t in range(len(fields)) if n > 2 or word[0] < t]
        entries.extend(layer)
    return entries


def _ranks(fields, point, max_depth, manifold):
    base = rank_at(fields, point.x, max_depth, manifold).rank
    lifted = lifted_rank_at(fields, point, max_depth, manifold).rank
    return base, lifted


def _ranks_both_ways(monkeypatch, fields, point, max_depth, manifold):
    lyndon = _ranks(fields, point, max_depth, manifold)
    with monkeypatch.context() as m:
        m.setattr(liealg, "generate_brackets", left_normed_brackets)
        reference = _ranks(fields, point, max_depth, manifold)
    return lyndon, reference


def test_left_normed_reference_counts():
    fields = [LinearField(SL2_A), LinearField(SL2_B), LinearField(ROT2)]
    assert len(left_normed_brackets(fields, 6)) == 366
    assert len(left_normed_brackets(fields[:1], 4)) == 1


@pytest.mark.parametrize("path", DEFINITIONS)
def test_lyndon_ranks_match_left_normed_words(monkeypatch, path):
    defn = SystemDefinition.load(str(ROOT / path))
    fields = (defn.system.drift,) + defn.system.controlled
    m = defn.manifold
    rng = np.random.default_rng(47)
    points = []
    for _ in range(3):
        x = m.random_point(rng)
        points += [TangentPoint(x, m.random_tangent(x, rng)), TangentPoint(x, np.zeros_like(x))]
    for depth in range(1, 7):
        for p in points:
            lyndon, reference = _ranks_both_ways(monkeypatch, fields, p, depth, m)
            assert lyndon == reference, (depth, p)


GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
MONOMIAL = st.tuples(st.integers(-2, 2).map(float),
                     st.tuples(st.integers(0, 2), st.integers(0, 2)))
FIELD_R2 = st.lists(st.lists(MONOMIAL, max_size=3), min_size=2, max_size=2).map(
    lambda comps: PolynomialField(comps, 2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fields=st.lists(FIELD_R2, min_size=1, max_size=3),
       x=st.tuples(GRID, GRID), v=st.tuples(GRID, GRID), depth=st.integers(1, 4))
def test_lyndon_ranks_match_left_normed_words_on_random_fields(fields, x, v, depth):
    """Small-integer polynomial fields on R^2 at grid points, where every
    evaluation is exact, so the two spanning sets must give equal ranks."""
    p = TangentPoint(np.array(x), np.array(v))
    with pytest.MonkeyPatch.context() as monkeypatch:
        lyndon, reference = _ranks_both_ways(monkeypatch, fields, p, depth, Manifold.flat(2))
    assert lyndon == reference


def test_rank_at_sl2_pair():
    fields = [LinearField(SL2_A), LinearField(SL2_B)]
    report = rank_at(fields, np.array([1.0, 1.0]), 2, Manifold.flat(2))
    assert report.rank == 2
    assert report.generated_vectors.shape == (2, 3)
    assert np.sum(report.singular_values > report.threshold_used) == report.rank


def test_rank_at_zero_field():
    report = rank_at([zero_field(2)], np.array([0.3, 0.4]), 3, Manifold.flat(2))
    assert report.rank == 0


def test_rank_at_sphere_rotations():
    fields = [LinearField(L3), LinearField(L1)]
    report = rank_at(fields, np.array([1.0, 0.0, 0.0]), 2, Manifold.sphere2())
    assert report.rank == 2  # equals dim of the sphere


def test_rank_at_off_manifold_raises():
    with pytest.raises(OffManifoldError):
        rank_at([LinearField(L3)], np.array([1.0, 1.0, 1.0]), 2, Manifold.sphere2())


def test_lifted_rank_frozen_fiber_line():
    # single constant field on the line: the lift has a frozen fiber
    fields = [zero_field(1), ConstantField([1.0])]
    report = lifted_rank_at(fields, TangentPoint([0.0], [0.5]), 4, Manifold.flat(1))
    assert report.rank == 1


def test_lifted_rank_zero_fields():
    report = lifted_rank_at([zero_field(2)], TangentPoint([1.0, 0.0], [0.0, 1.0]),
                            3, Manifold.flat(2))
    assert report.rank == 0


def test_lifted_rank_sl2_strictly_below_double_dimension():
    """The lifted columns of the sl2 pair at ((1,1),(0,1)) span three of the
    four tangent directions."""
    fields = [LinearField(SL2_A), LinearField(SL2_B)]
    p = TangentPoint([1.0, 1.0], [0.0, 1.0])
    report = lifted_rank_at(fields, p, 2, Manifold.flat(2))
    assert report.rank == 3
    assert report.rank < 4


@pytest.mark.parametrize("fields,manifold,n", [
    ([LinearField(ROT2), LinearField(np.eye(2))], Manifold.flat(2), 2),
    ([zero_field(3), LinearField(L3)], Manifold.sphere2(), 2),
    ([zero_field(1), ConstantField([1.0])], Manifold.flat(1), 1),
])
def test_lifted_rank_obstruction_on_shipped_systems(fields, manifold, n):
    rng = np.random.default_rng(40)
    for _ in range(25):
        x = manifold.random_point(rng)
        v = manifold.random_tangent(x, rng)
        base = rank_at(fields, x, 4, manifold)
        lifted = lifted_rank_at(fields, TangentPoint(x, v), 4, manifold)
        assert lifted.rank <= n
        assert lifted.rank < 2 * n
        assert lifted.rank >= base.rank


def test_lifted_rank_never_below_base_rank():
    """The base columns are the projections of the lifted columns."""
    rng = np.random.default_rng(41)
    fields = [LinearField(rng.standard_normal((3, 3))) for _ in range(2)]
    m = Manifold.flat(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        base = rank_at(fields, x, 3, m)
        lifted = lifted_rank_at(fields, TangentPoint(x, v), 3, m)
        assert lifted.rank >= base.rank


def test_rank_constant_on_connected_samples():
    """Where the base rank is constant, the lifted rank is constant too."""
    fields = [LinearField(ROT2), LinearField(np.eye(2))]
    m = Manifold.flat(2)
    rng = np.random.default_rng(42)
    base_ranks = set()
    lifted_ranks = set()
    for _ in range(20):
        x = rng.uniform(0.5, 1.5, 2)  # away from the fixed point at the origin
        v = rng.standard_normal(2)
        base_ranks.add(rank_at(fields, x, 4, m).rank)
        lifted_ranks.add(lifted_rank_at(fields, TangentPoint(x, v), 4, m).rank)
    assert base_ranks == {2}
    assert len(lifted_ranks) == 1


def test_check_lift_algebra_identity_linear():
    rng = np.random.default_rng(43)
    fields = [LinearField(rng.standard_normal((2, 2))) for _ in range(2)]
    samples = [TangentPoint(rng.standard_normal(2), rng.standard_normal(2))
               for _ in range(10)]
    assert check_lift_algebra_identity(fields, samples, 3) <= 1e-10
    assert check_lift_algebra_identity(fields, samples, 1) == 0.0


def test_check_lift_algebra_identity_fd_polynomials():
    rng = np.random.default_rng(44)
    fields = [
        VectorField(lambda x: np.array([x[1] ** 2, x[0]])),
        VectorField(lambda x: np.array([x[0] * x[1], -x[1]])),
    ]
    samples = [TangentPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
               for _ in range(8)]
    assert check_lift_algebra_identity(fields, samples, 3) <= 1e-4


def test_rank_report_json():
    report = rank_at([LinearField(ROT2)], np.array([1.0, 0.0]), 2, Manifold.flat(2))
    payload = report.to_json()
    assert payload["rank"] == report.rank
    assert payload["lifted"] is False
    assert len(payload["singular_values"]) == len(report.singular_values)
    lifted = lifted_rank_at([LinearField(ROT2)], TangentPoint([1.0, 0.0], [0.0, 1.0]),
                            2, Manifold.flat(2))
    assert lifted.to_json()["lifted"] is True
