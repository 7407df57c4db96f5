"""Numerical generation of iterated Lie brackets, rank computations for the
algebra rank condition, and the lift-algebra identity check.

Brackets are generated as the Lyndon basis of the free Lie algebra on the
fields, one bracket per basis element. The basis spans what all iterated
brackets span, so the ranks are those of the full bracket family; numerical
dependencies among the evaluated columns are left to the SVD threshold.

For polynomial fields the basis is built once per field set and depth in a
process, as a sparse table of monomial coefficients, and a rank evaluates
every column from one product of the monomials at the point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .fields import PolynomialField, complete_lift, flatten_lift, lie_bracket
from .manifold import Manifold, ManifoldKind, TangentPoint

DEFAULT_DEPTH = 4
REL_RANK_TOL = 1e-8
ABS_RANK_TOL = 1e-12


def _lyndon_words(k: int, max_depth: int):
    """Lyndon words of length <= max_depth over range(k), in lexicographic
    order (Duval's next-word step)."""
    word = [-1] if k else []
    while word:
        word[-1] += 1
        yield tuple(word)
        period = len(word)
        while len(word) < max_depth:
            word.append(word[len(word) - period])
        while word and word[-1] == k - 1:
            word.pop()


def generate_brackets(fields, max_depth: int):
    """The Lyndon basis of the bracket algebra up to depth max_depth.

    Returns (word, VectorField) pairs, where word is a tuple of field indices
    and depth counts letters; shorter words come first, lexicographic within
    a length. A word w of length >= 2 is bracketed through its standard
    factorization w = uv, v the longest proper suffix that is a Lyndon word,
    so each basis element costs one lie_bracket of two earlier ones.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    fields = list(fields)
    made = {}
    for word in sorted(_lyndon_words(len(fields), max_depth), key=len):
        if len(word) == 1:
            made[word] = fields[word[0]]
            continue
        # shorter words are already made, so the first made suffix is the
        # longest proper Lyndon suffix
        i = next(i for i in range(1, len(word)) if word[i:] in made)
        made[word] = lie_bracket(made[word[:i]], made[word[i:]])
    return list(made.items())


@dataclass(frozen=True)
class RankReport:
    """SVD-based rank of evaluated bracket columns at one point."""

    point: object
    generated_vectors: np.ndarray
    rank: int
    singular_values: np.ndarray
    threshold_used: float
    depth: int
    lifted: bool

    def to_json(self) -> dict:
        if isinstance(self.point, TangentPoint):
            point = self.point.to_json()
        else:
            point = np.asarray(self.point, float).tolist()
        return {
            "point": point,
            "lifted": self.lifted,
            "depth": self.depth,
            "rank": self.rank,
            "singular_values": self.singular_values.tolist(),
            "threshold": self.threshold_used,
            "n_columns": int(self.generated_vectors.shape[1]),
        }


def _rank_from_columns(cols: np.ndarray) -> tuple[int, np.ndarray, float]:
    if cols.size == 0:
        return 0, np.zeros(0), ABS_RANK_TOL
    sigma = np.linalg.svd(cols, compute_uv=False)
    smax = float(sigma[0])
    threshold = REL_RANK_TOL * smax if smax >= ABS_RANK_TOL else ABS_RANK_TOL
    rank = int(np.sum(sigma > threshold))
    return rank, sigma, threshold


@functools.lru_cache(maxsize=8)  # tables kept per process, one per field set and depth
def _bracket_table(key: tuple, max_depth: int):
    """(E, coeff, mono, slot, size) for the polynomial fields key holds as
    (dim, components): the distinct monomial exponents E (M, n), and one
    entry coeff * x ** E[mono] of slot b (n + n^2) + s < size per monomial of
    a generated bracket b's component i (s = i) or partial of component i
    along x_j (s = n + i n + j). The arrays are shared, so read-only.
    Exponents past int64, 2**63 or more, raise NonFiniteError."""
    try:
        entries = generate_brackets([PolynomialField(comps, dim) for dim, comps in key], max_depth)
    except ValueError as exc:  # unless the depth or mixed dimensions were refused: the exponent limit
        if max_depth < 1 or len({dim for dim, _ in key}) > 1:
            raise
        raise NonFiniteError(f"bracket exponents to depth {max_depth} reach 2**63") from exc
    index, terms, n = {}, [], key[0][0]
    for b, (_, fld) in enumerate(entries):
        polys = (*fld.components, *(p for row in fld._partials for p in row))
        terms += [(c, index.setdefault(e, len(index)), b * len(polys) + s)
                  for s, poly in enumerate(polys) for c, e in poly]
    coeff, mono, slot = np.array(terms, dtype=float).reshape(-1, 3).T
    table = (np.array(list(index), dtype=int).reshape(-1, n), coeff, mono.astype(np.intp),
             slot.astype(np.intp))
    for arr in table:
        arr.flags.writeable = False
    return (*table, len(entries) * (n + n * n))


@np.errstate(over="ignore", invalid="ignore")  # columns that overflow raise, unwarned
def _columns(fields, max_depth: int, manifold: Manifold, x: np.ndarray, v=None) -> np.ndarray:
    """Every generated bracket at x or, given v, its complete lift at (x, v)
    as one column, projected into the tangent plane on the sphere. Polynomial
    fields read all values and Jacobians from their bracket table at once.
    Columns that are not finite raise NonFiniteError naming x and v."""
    fields, n = tuple(fields), manifold.ambient_dim
    if fields and all(isinstance(f, PolynomialField) for f in fields):
        exps, coeff, mono, slot, size = _bracket_table(
            tuple((f.dim, f.components) for f in fields), max_depth)
        out = np.bincount(slot, coeff * np.prod(x ** exps, axis=1)[mono],
                          minlength=size).reshape(-1, n + n * n)
        cols = out[:, :n].T
        if v is not None:
            cols = np.vstack([cols, (out[:, n:].reshape(-1, n, n) @ v).T])
    else:
        cols = [fld(x) if v is None else np.concatenate(complete_lift(fld)(TangentPoint(x, v)))
                for _, fld in generate_brackets(fields, max_depth)]
        cols = np.column_stack(cols) if cols else np.zeros((n if v is None else 2 * n, 0))
    if manifold.kind is ManifoldKind.SPHERE2:  # the base block, and the fiber block if lifted
        basis = manifold.tangent_basis(x)
        cols = np.vstack([basis.T @ block for block in np.split(cols, len(cols) // n)])
    if not np.isfinite(cols).all():
        where = f"x={x.tolist()}" + ("" if v is None else f", v={v.tolist()}")
        raise NonFiniteError(f"bracket columns to depth {max_depth} are not finite at {where}")
    return cols


def rank_at(fields, point: np.ndarray, max_depth: int, manifold: Manifold) -> RankReport:
    """Evaluate all generated brackets at a base point and measure their rank.

    On the sphere the columns are first projected into the tangent plane and
    the rank is taken there.
    """
    point = manifold.check_point(point)
    cols = _columns(fields, max_depth, manifold, point)
    return RankReport(point, cols, *_rank_from_columns(cols), max_depth, lifted=False)


def lifted_rank_at(fields, tangent_point: TangentPoint, max_depth: int,
                   manifold: Manifold) -> RankReport:
    """Rank of the complete lifts of all generated brackets, evaluated as
    2n-dimensional vectors at the given tangent point."""
    tangent_point.validate(manifold)
    cols = _columns(fields, max_depth, manifold, tangent_point.x, tangent_point.v)
    return RankReport(tangent_point, cols, *_rank_from_columns(cols), max_depth, lifted=True)


def check_lift_algebra_identity(fields, samples, max_depth: int) -> float:
    """Compare lift-then-bracket against bracket-then-lift for every bracket
    word, evaluated at every sample; returns the max norm difference.

    Both sides are _columns tables in the same Lyndon order: the brackets of
    the flattened lifts on R^2n at z = (x, v), and the lifted brackets of
    the fields on R^n at (x, v).
    """
    fields = list(fields)
    flat = [flatten_lift(f) for f in fields]
    worst = 0.0
    for p in samples:
        right = _columns(fields, max_depth, Manifold.flat(len(p.x)), p.x, p.v)  # first: it names x and v
        left = _columns(flat, max_depth, Manifold.flat(2 * len(p.x)), np.concatenate([p.x, p.v]))
        # the letters are both sides the same lift by definition
        for col in (left - right).T[len(fields):]:
            worst = max(worst, float(np.linalg.norm(col)))
    return worst
