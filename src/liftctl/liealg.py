"""Numerical generation of iterated Lie brackets, rank computations for the
algebra rank condition, and the lift-algebra identity check.

Brackets are enumerated as left-normed words with syntactic deduplication
only; numerically dependent columns are handled by the SVD threshold, not by
pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import complete_lift, flatten_lift, lie_bracket
from .manifold import Manifold, ManifoldKind, TangentPoint

DEFAULT_DEPTH = 4
REL_RANK_TOL = 1e-8
ABS_RANK_TOL = 1e-12


@dataclass(frozen=True)
class BracketTree:
    """A bracket word: either a leaf (field index) or a node of two subtrees."""

    index: int | None = None
    left: "BracketTree | None" = None
    right: "BracketTree | None" = None

    @staticmethod
    def leaf(index: int) -> "BracketTree":
        return BracketTree(index=index)

    @staticmethod
    def node(left: "BracketTree", right: "BracketTree") -> "BracketTree":
        return BracketTree(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @property
    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.depth + self.right.depth

    def label(self) -> str:
        if self.is_leaf:
            return str(self.index)
        return f"[{self.left.label()},{self.right.label()}]"


def generate_brackets(fields, max_depth: int):
    """All left-normed bracket words of depth <= max_depth.

    Returns a list of (BracketTree, VectorField) pairs. Depth counts leaves
    (word length). Self-brackets at depth two are pruned syntactically.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    fields = list(fields)
    k = len(fields)
    entries = [(BracketTree.leaf(i), fields[i]) for i in range(k)]
    if max_depth == 1:
        return entries
    layer = []
    for i in range(k):
        for j in range(i + 1, k):
            tree = BracketTree.node(BracketTree.leaf(i), BracketTree.leaf(j))
            layer.append((tree, lie_bracket(fields[i], fields[j])))
    entries.extend(layer)
    for _ in range(3, max_depth + 1):
        nxt = []
        for tree, fld in layer:
            for t in range(k):
                new_tree = BracketTree.node(tree, BracketTree.leaf(t))
                nxt.append((new_tree, lie_bracket(fld, fields[t])))
        entries.extend(nxt)
        layer = nxt
    return entries


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
    for (tree, fld), (_, left_field) in zip(entries, flat_entries):
        if tree.is_leaf:
            continue  # both sides are the same lift by definition
        right_lift = complete_lift(fld)
        for p in samples:
            z = np.concatenate([p.x, p.v])
            h, vert = right_lift(p)
            dev = float(np.linalg.norm(left_field(z) - np.concatenate([h, vert])))
            worst = max(worst, dev)
    return worst
