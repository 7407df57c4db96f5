"""Numerical generation of iterated Lie brackets, rank computations for the
algebra rank condition, and the lift-algebra identity check.

Brackets are generated as the Lyndon basis of the free Lie algebra on the
fields, one bracket per basis element. The basis spans what all iterated
brackets span, so the ranks are those of the full bracket family; numerical
dependencies among the evaluated columns are left to the SVD threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import complete_lift, flatten_lift, lie_bracket
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
    smax = float(sigma[0]) if sigma.size else 0.0
    threshold = REL_RANK_TOL * smax if smax >= ABS_RANK_TOL else ABS_RANK_TOL
    rank = int(np.sum(sigma > threshold))
    return rank, sigma, threshold


def rank_at(fields, point: np.ndarray, max_depth: int, manifold: Manifold) -> RankReport:
    """Evaluate all generated brackets at a base point and measure their rank.

    On the sphere the columns are first projected into the tangent plane and
    the rank is taken there.
    """
    point = manifold.check_point(point)
    entries = generate_brackets(fields, max_depth)
    cols = np.column_stack([fld(point) for _, fld in entries]) if entries else np.zeros((manifold.ambient_dim, 0))
    if manifold.kind is ManifoldKind.SPHERE2:
        basis = manifold.tangent_basis(point)
        cols = basis.T @ cols
    rank, sigma, threshold = _rank_from_columns(cols)
    return RankReport(point, cols, rank, sigma, threshold, max_depth, lifted=False)


def lifted_rank_at(fields, tangent_point: TangentPoint, max_depth: int,
                   manifold: Manifold) -> RankReport:
    """Rank of the complete lifts of all generated brackets, evaluated as
    2n-dimensional vectors at the given tangent point."""
    tangent_point.validate(manifold)
    entries = generate_brackets(fields, max_depth)
    columns = []
    for _, fld in entries:
        h, vert = complete_lift(fld)(tangent_point)
        columns.append(np.concatenate([h, vert]))
    if columns:
        cols = np.column_stack(columns)
    else:
        cols = np.zeros((2 * manifold.ambient_dim, 0))
    if manifold.kind is ManifoldKind.SPHERE2:
        basis = manifold.tangent_basis(tangent_point.x)
        top = basis.T @ cols[: manifold.ambient_dim]
        bottom = basis.T @ cols[manifold.ambient_dim:]
        cols = np.vstack([top, bottom])
    rank, sigma, threshold = _rank_from_columns(cols)
    return RankReport(tangent_point, cols, rank, sigma, threshold, max_depth, lifted=True)


def check_lift_algebra_identity(fields, samples, max_depth: int) -> float:
    """Compare lift-then-bracket against bracket-then-lift for every bracket
    word, evaluated at every sample; returns the max norm difference.

    The words of the flattened lifts come out of generate_brackets in the
    same order as those of the fields, so the two lists pair word by word.
    """
    fields = list(fields)
    entries = generate_brackets(fields, max_depth)
    flat_entries = generate_brackets([flatten_lift(f) for f in fields], max_depth)
    worst = 0.0
    for (word, fld), (_, left_field) in zip(entries, flat_entries):
        if len(word) == 1:
            continue  # both sides are the same lift by definition
        right_lift = complete_lift(fld)
        for p in samples:
            z = np.concatenate([p.x, p.v])
            h, vert = right_lift(p)
            dev = float(np.linalg.norm(left_field(z) - np.concatenate([h, vert])))
            worst = max(worst, dev)
    return worst
