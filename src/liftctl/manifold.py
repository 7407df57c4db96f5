"""Base manifolds: flat space R^n and the unit sphere S2 embedded in R^3.

Both are represented by their ambient embedding together with tangent
projection, retraction, geodesic distance and parallel transport. These four
primitives are everything the rest of the package needs. json_numbers and
_entry read the numbers and entries of definition and chain files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AntipodalPointsError, DefinitionError, DegenerateStepError, OffManifoldError

POINT_TOL = 1e-9
ANGLE_TOL = 1e-6


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r] @ b (or b[r]) per row of a (B, n): matmul's vector dot, bitwise the 1-D one."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> list:
    """a x b of two 3-vectors as a list, bitwise np.cross(a, b) (the same
    products and differences) without its costly axis handling."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


class ManifoldKind(Enum):
    FLAT = "flat"
    SPHERE2 = "sphere2"


@dataclass(frozen=True)
class Manifold:
    """An embedded manifold, either Flat(n) or the unit sphere in R^3."""

    kind: ManifoldKind
    ambient_dim: int
    intrinsic_dim: int

    @staticmethod
    def flat(n: int) -> "Manifold":
        if n < 1:
            raise ValueError("flat dimension must be >= 1")
        return Manifold(ManifoldKind.FLAT, n, n)

    @staticmethod
    def sphere2() -> "Manifold":
        return Manifold(ManifoldKind.SPHERE2, 3, 2)

    @property
    def is_flat(self) -> bool:
        return self.kind is ManifoldKind.FLAT

    def check_point(self, x: np.ndarray) -> np.ndarray:
        """Validate that x is finite and lies on the manifold within
        POINT_TOL."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise OffManifoldError(
                f"point has shape {x.shape}, expected ({self.ambient_dim},)"
            )
        if self.kind is ManifoldKind.SPHERE2:
            err = abs(math.sqrt(x @ x) - 1.0)  # the value np.linalg.norm gives, at less cost
            if not err <= POINT_TOL:  # a NaN or infinite coordinate fails it too
                raise OffManifoldError(f"|x| deviates from 1 by {err:.3e}")
        elif not all(map(math.isfinite, x.tolist())):  # cheaper than numpy on a short x
            raise OffManifoldError(f"point {x.tolist()} has a non-finite coordinate")
        return x

    def project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an ambient vector onto T_x M."""
        x = self.check_point(x)
        w = np.asarray(w, dtype=float)
        if self.kind is ManifoldKind.FLAT:
            return w.copy()
        return w - x * (x @ w)

    def retract(self, x: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Map x + step back onto the manifold."""
        x = self.check_point(x)
        step = np.asarray(step, dtype=float)
        y = x + step
        if self.kind is ManifoldKind.FLAT:
            return y
        nrm = np.linalg.norm(y)
        if nrm < POINT_TOL:
            raise DegenerateStepError("step lands at the origin; cannot normalize")
        return y / nrm

    def base_distance(self, x: np.ndarray, y: np.ndarray):
        """Geodesic distance: Euclidean on flat space, great circle on S2. x
        may be rows (B, n), each checked as check_point checks a point; row
        r's distance is then bitwise base_distance(x[r], y), by _dots."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:  # check_point's tests by array operations; it names a failing row
            ok = (np.abs(np.sqrt(_dots(x, x)) - 1.0) <= POINT_TOL if not self.is_flat
                  else np.isfinite(x).all(axis=1))
            for row in x[~ok | (x.shape[1] != self.ambient_dim)]:
                self.check_point(row)
        else:
            x = self.check_point(x)
        y = self.check_point(y)
        if self.kind is ManifoldKind.FLAT:
            d = y - x
            return np.sqrt(_dots(d, d)) if d.ndim == 2 else math.sqrt(d @ d)
        # arccos(x.x) has a ~1e-8 rounding floor, so equal points are at 0
        if x.ndim == 2:
            return np.where((x == y).all(axis=1), 0.0, np.arccos(np.clip(_dots(x, y), -1.0, 1.0)))
        return self._arc(x, y)

    def _arc(self, x: np.ndarray, y: np.ndarray) -> float:
        """base_distance of two points of S2 that check_point has passed."""
        # as lists and by min/max, the same verdict and clamp as np.array_equal and np.clip
        return 0.0 if x.tolist() == y.tolist() else float(np.arccos(min(max(x @ y, -1.0), 1.0)))

    def parallel_transport(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Transport v from T_x M to T_y M along the minimizing geodesic.

        On flat space this is the identity. On the sphere it is the rotation
        in the plane span{x, y} that takes x to y and fixes the orthogonal
        complement; on a tangent v that is v - (y . v) / (1 + x . y) (x + y).
        Points more than pi - ANGLE_TOL apart count as antipodal.
        """
        x, y, v = self.check_point(x), self.check_point(y), np.asarray(v, dtype=float)
        return v.copy() if self.kind is ManifoldKind.FLAT else self._transport(x, y, v)

    def _transport(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """parallel_transport of v between two points of S2 that check_point has passed."""
        d = 1.0 + x @ y
        if d < 0.5 * ANGLE_TOL ** 2:  # x . y < -cos(ANGLE_TOL) = ANGLE_TOL^2 / 2 - 1 in doubles
            raise AntipodalPointsError("antipodal points: geodesic is not unique")
        return v - (y @ v) / d * (x + y)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point on the manifold (standard normal, normalized on S2)."""
        z = rng.standard_normal(self.ambient_dim)
        if self.kind is ManifoldKind.FLAT:
            return z
        return z / np.linalg.norm(z)

    def random_tangent(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw a tangent vector at x."""
        z = rng.standard_normal(self.ambient_dim)
        return self.project_tangent(x, z)

    def tangent_basis(self, x: np.ndarray) -> np.ndarray:
        """Columns form an orthonormal basis of T_x M (ambient coordinates)."""
        if self.kind is ManifoldKind.FLAT:
            return np.eye(self.ambient_dim)
        x = self.check_point(x)
        # Pick the coordinate axis least aligned with x to seed Gram-Schmidt.
        k = int(np.argmin(np.abs(x)))
        e = np.zeros(3)
        e[k] = 1.0
        b1 = e - x * (x @ e)
        b1 /= math.sqrt(b1 @ b1)
        return np.column_stack([b1, _cross(x, b1)])


def json_numbers(value, integer: bool = False) -> np.ndarray:
    """value, a JSON number or nested lists of them, as a float array (an
    integer array with integer=True). A boolean or a string (float() reads
    both), a number that is not finite or beyond the float range, a ragged
    list or, with integer=True, a non-integer raises ValueError."""
    def numbers(v) -> bool:
        return all(map(numbers, v)) if isinstance(v, list) else _finite(v, integer)

    if numbers(value):
        return np.asarray(value) if integer else np.asarray(value, dtype=float)
    raise ValueError(f"expected finite {'integers' if integer else 'numbers'}, got {value!r}")


def _finite(v, integer: bool = False) -> bool:
    """Whether v is one finite JSON number (an integer with integer=True), not a boolean."""
    try:  # an int beyond the float range overflows
        return isinstance(v, int if integer else (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _entry(data, key: str, parse, where: str = ""):
    """parse(data[key]) for an entry of an outside JSON file (a definition or
    a chain file). A missing entry, or one that parse refuses, raises
    DefinitionError naming where + key: a ValueError in its own words, a
    KeyError, TypeError or IndexError as "malformed: <its repr>"."""
    try:
        value = data[key]
    except (KeyError, TypeError) as exc:
        raise DefinitionError(where + key, "missing") from exc
    try:
        return parse(value)
    except ValueError as exc:
        raise DefinitionError(where + key, str(exc)) from exc
    except (KeyError, TypeError, IndexError) as exc:
        raise DefinitionError(where + key, f"malformed: {exc!r}") from exc


def _number(value, integer: bool = False):
    """value, one finite JSON number (an integer with integer=True), as a float (an int)."""
    if not _finite(value, integer):
        if isinstance(value, list):
            raise ValueError(f"expected {'an integer' if integer else 'a finite number'}, got {value!r}")
        json_numbers(value, integer)  # refuses what _finite refuses, in its own words
    return int(value) if integer else float(value)


def _positive(value) -> float:
    """value, which must be a positive finite JSON number, as a float."""
    value = _number(value)
    if value <= 0.0:
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _seed(value) -> int:
    """value, which must be a non-negative JSON integer within the float
    range (numpy takes no seed < 0), as an int."""
    value = _number(value, integer=True)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


@dataclass(frozen=True)
class TangentPoint:
    """A point (x, v) of the tangent bundle, in ambient coordinates."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    def validate(self, manifold: Manifold) -> "TangentPoint":
        manifold.check_point(self.x)
        if self.v.shape != self.x.shape:
            raise OffManifoldError(
                f"fiber vector shape {self.v.shape} != base shape {self.x.shape}"
            )
        if not np.isfinite(self.v).all():
            raise OffManifoldError(f"fiber vector {self.v.tolist()} has a non-finite coordinate")
        if manifold.kind is ManifoldKind.SPHERE2:
            err = abs(self.x @ self.v)
            if err > POINT_TOL:
                raise OffManifoldError(f"|x . v| = {err:.3e} exceeds tangency tolerance")
        return self

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "v": self.v.tolist()}

    @staticmethod
    def from_json(data: dict) -> "TangentPoint":
        """The point of {"x": [...], "v": [...]}; a coordinate that is not a
        finite JSON number raises ValueError."""
        return TangentPoint(json_numbers(data["x"]), json_numbers(data["v"]))
