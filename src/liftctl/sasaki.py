"""Distances on the tangent bundle, chosen by the base manifold.

These are not the Sasaki metric. On flat space the distance is the product
metric: base and fiber gaps combined by hypot, which is the exact
tangent-bundle distance there. On the sphere the geodesic distance of the
bundle metric has no closed form, so a transport surrogate is used: base
distance combined with the fiber gap after parallel transport along the
minimizing geodesic. The surrogate agrees with the exact distance on fibers
and, on flat space, with the product metric bitwise, which is all the chain
construction relies on.
"""

from __future__ import annotations

import numpy as np

from .manifold import Manifold, TangentPoint


def distance(manifold: Manifold, p: TangentPoint, q: TangentPoint) -> float:
    """Tangent-bundle distance between two tangent points on the manifold:
    the product metric on flat space, the transport surrogate on the sphere.

    Same-fiber inputs reduce exactly to the fiber norm on both.
    """
    if manifold.is_flat:
        base = float(np.linalg.norm(q.x - p.x))
        fiber = float(np.linalg.norm(q.v - p.v))
        return float(np.hypot(base, fiber))
    if p.x.tolist() == q.x.tolist():  # np.array_equal's verdict, at less cost
        return float(np.linalg.norm(q.v - p.v))  # exact on a shared fiber
    base = manifold.base_distance(p.x, q.x)
    moved = manifold.parallel_transport(p.x, q.x, p.v)
    fiber = float(np.linalg.norm(q.v - moved))
    return float(np.hypot(base, fiber))


def fiber_segment_point(p: TangentPoint, target_v: np.ndarray, step: float) -> TangentPoint:
    """Walk from p.v straight toward target_v by at most step, staying in the
    same fiber. Overshooting steps clamp exactly to the target vector. A step
    that is not positive and finite, or a non-finite target_v, raises
    ValueError."""
    if not 0.0 < step < np.inf:  # NaN fails it too
        raise ValueError(f"step must be positive and finite, got {step}")
    target_v = np.asarray(target_v, dtype=float)
    if not np.all(np.isfinite(target_v)):
        raise ValueError(f"target_v must be finite, got {target_v}")
    delta = target_v - p.v
    gap = float(np.linalg.norm(delta))
    if gap <= step:
        return TangentPoint(p.x, target_v.copy())
    return TangentPoint(p.x, p.v + (step / gap) * delta)
