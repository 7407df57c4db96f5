"""Affine control systems, piecewise-constant control signals, fixed-step
integration of the base and lifted dynamics, and the flow-level checks.

Every run is classical RK4 on a grid whose nodes include the control-segment
boundaries: base runs, lifted runs (a fiber vector), fiber transitions (a
matrix of fiber columns) and batches of constant-control candidates (rows
of one stacked state). The base component of a lifted trajectory is
therefore bitwise the plain base trajectory on the shared grid. One driver,
_integrate, advances every segment of a run, and constant_control_endpoints
those of a batch, one of three ways.

- Power. When every field is affine (a polynomial field of degree at most
  one, such as a linear or constant field), f(x) = A x + b on a segment and
  one RK4 step of size h is exactly x -> M x + c with
  S = h (I + hA/2 + (hA)^2/6 + (hA)^3/24), M = I + S A and c = S b; the
  variational step is v -> M v. A run that records no rows takes a
  segment's k steps as the k-th power of [[M, c], [0, 1]] applied to (x, 1)
  by repeated squaring (Higham, Functions of Matrices, 2008, §4.1): the RK4
  end point up to rounding. _power takes them for all segments of a list of
  signals (fiber_flows) or of a batch (constant_control_endpoints). On the
  sphere the end point is renormalized and its fiber re-projected once per
  segment (scaling commutes with the linear map, and the per-step
  projections remove only O(h^5) normal parts). It is taken there only when
  g = ||M^T M - I||_F + ||c|| <= DRIFT_TOL (for a batch, for every row),
  which bounds the drift |(||M y + c|| - 1)| <= |y^T (M^T M - I) y| + ||c||
  of each step from a unit y; so only NaN raises, and every verdict is the
  stepper's.
- Kernel loop. Every other polynomial segment, affine ones that record rows
  or whose power g does not certify included, runs the system's generated
  kernel (fields.polynomial_kernel): a loop over a segment's RK4 steps on
  Python floats, or on the numpy columns of a batch, one call per segment
  and per column of a fiber matrix. On the sphere its loop renormalizes
  the state and re-projects the fiber after every step, and stops at the
  first drift past DRIFT_TOL, where a batch's row turns NaN, a miss.
- Stages. Bare-callable fields step through rhs and rhs_jacobian in
  _stages, the reference that the kernel tests compare against.

Every run records its rows as one flat list of floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitionError, IntegrationError
from .fields import VectorField, polynomial_kernel
from .manifold import POINT_TOL, Manifold, ManifoldKind, TangentPoint, _dots, json_numbers

DEFAULT_STEP = 1e-3
DRIFT_TOL = 1e-6
MAX_GRID_STEPS = 10_000_000  # a run with a longer grid is refused unstepped
_EYE3 = np.eye(3)
_TANGENCY_POINTS = np.array([  # see AffineSystem._check_tangency
    [-0.8256018578540139, 0.555141104847341, -0.10099468311190603],
    [-0.8054816413292575, -0.5925645823397047, -0.008157281293229068],
    [0.39062018561155304, 0.869034185880181, 0.30363704379467116],
    [0.13731623644048563, 0.3910179459807595, 0.9100819837414695],
    [-0.10768136397469305, -0.5572663093105096, -0.8233219202474772],
    [0.731624292001719, 0.2710504753180456, 0.6255058234603775],
    [-0.10270781988280928, -0.5519030398183312, 0.8275591449402306],
    [0.6493986411967777, 0.44477291007163877, -0.6168131510256447],
])

# Snap tolerance for cutting a signal at a segment boundary; keeps
# shift(concat(v, s, u), s) == u exact.
_CUT_SNAP = 1e-12


@dataclass(frozen=True)
class ControlSignal:
    """Right-continuous piecewise-constant control on [0, total_duration]."""

    segments: tuple

    def __post_init__(self):
        clean = []
        for i, (duration, value) in enumerate(self.segments):
            duration = float(duration)
            if not 0.0 < duration < math.inf:
                raise ValueError(f"segment durations must be positive and finite: segment {i} "
                                 f"lasts {duration}")
            clean.append((duration, np.atleast_1d(np.array(value, dtype=float))))
        object.__setattr__(self, "segments", tuple(clean))

    @staticmethod
    def constant(value, duration: float) -> "ControlSignal":
        return ControlSignal(((duration, value),))

    @staticmethod
    def zero(channels: int, duration: float) -> "ControlSignal":
        return ControlSignal(((duration, np.zeros(channels)),))

    @staticmethod
    def empty() -> "ControlSignal":
        return ControlSignal(())

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def value_at(self, t: float) -> np.ndarray:
        """u(t); interior boundaries belong to the following segment, the
        final instant returns the last segment's value."""
        if not self.segments:
            raise ValueError("empty signal has no values")
        total = self.total_duration
        if t < 0.0 or t > total + _CUT_SNAP * (1.0 + total):
            raise ValueError(f"t={t} outside [0, {total}]")
        acc = 0.0
        for duration, value in self.segments:
            acc += duration
            if t < acc:
                return value
        return self.segments[-1][1]

    def to_json(self) -> list:
        return [[d, v.tolist()] for d, v in self.segments]

    @staticmethod
    def from_json(data) -> "ControlSignal":
        """The signal of JSON segments [[duration, [u, ...]], ...]; anything
        else raises ValueError. A segment that is not a pair of a number and
        a flat list of numbers, or holds a number that is not a finite JSON
        number, is named by its index; a wrong shape is shown as well."""
        if not isinstance(data, list):
            raise ValueError(f"expected a list of [duration, [u, ...]] segments, got {_json_shape(data)}")
        segments = []
        for i, seg in enumerate(data):
            if not (isinstance(seg, list) and len(seg) == 2 and not isinstance(seg[0], list)
                    and isinstance(seg[1], list) and not any(isinstance(u, list) for u in seg[1])):
                raise ValueError(f"segment {i}: expected [duration, [u, ...]], got {_json_shape(seg)}")
            try:
                segments.append((json_numbers(seg[0]), json_numbers(seg[1])))
            except ValueError as exc:
                raise ValueError(f"segment {i}: {exc}") from exc
        return ControlSignal(tuple(segments))


def _json_shape(value) -> str:
    """The shape of a parsed JSON value, e.g. [number, [[number]]], with at
    most three entries of a list shown."""
    if isinstance(value, list):
        shown = [_json_shape(v) for v in value[:3]] + (["..."] if len(value) > 3 else [])
        return f"[{', '.join(shown)}]"
    return {dict: "object", str: "string", bool: "boolean", type(None): "null"}.get(type(value), "number")


def split_signal(u: ControlSignal, s: float) -> tuple[ControlSignal, ControlSignal]:
    """Split u at time s into (head on [0, s], tail on [s, end]).

    Cuts within _CUT_SNAP of a segment boundary are snapped to it, so a split
    at a concatenation point recovers the original parts exactly.
    """
    total = u.total_duration
    snap = _CUT_SNAP * (1.0 + total)
    if s < -snap or s > total + snap:
        raise ValueError(f"split time {s} outside [0, {total}]")
    s = min(max(s, 0.0), total)
    head, tail = [], []
    acc = 0.0
    cut_done = s <= snap
    for duration, value in u.segments:
        if cut_done:
            tail.append((duration, value))
            continue
        nxt = acc + duration
        if nxt <= s + snap:
            head.append((duration, value))
            if nxt >= s - snap:
                cut_done = True
            acc = nxt
        else:
            left = s - acc
            if left > snap:
                head.append((left, value))
            right = nxt - s
            if right > snap:
                tail.append((right, value))
            cut_done = True
            acc = nxt
    return ControlSignal(tuple(head)), ControlSignal(tuple(tail))


def concat(v: ControlSignal, s: float, u: ControlSignal) -> ControlSignal:
    """The spliced control: v on [0, s], then u shifted to start at s."""
    if s < 0.0 or s > v.total_duration + _CUT_SNAP * (1.0 + v.total_duration):
        raise ValueError(f"splice time {s} outside [0, {v.total_duration}]")
    head, _ = split_signal(v, s)
    return ControlSignal(head.segments + u.segments)


def shift(u: ControlSignal, s: float) -> ControlSignal:
    """Time shift: (shift(u, s))(a) = u(a + s)."""
    if s < 0.0 or s > u.total_duration + _CUT_SNAP * (1.0 + u.total_duration):
        raise ValueError(f"shift {s} outside [0, {u.total_duration}]")
    _, tail = split_signal(u, s)
    return tail


@dataclass(frozen=True)
class AffineSystem:
    """drift + sum_i u_i * controlled_i on a manifold, with box control bounds."""

    manifold: Manifold
    drift: VectorField
    controlled: tuple
    bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "controlled", tuple(self.controlled))
        bounds = np.asarray(self.bounds, dtype=float).reshape(len(self.controlled), 2)
        object.__setattr__(self, "bounds", bounds)
        if len(self.controlled) < 1:
            raise ValueError("need at least one controlled field")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("control bounds must be finite")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError("control bounds must satisfy lo <= hi")
        if self.manifold.kind is ManifoldKind.SPHERE2:
            self._check_tangency()

    def _check_tangency(self):
        """A DefinitionError naming drift or controlled[i] unless every field is
        tangent to the sphere, |x . X(x)| <= 1e-8, at the 8 _TANGENCY_POINTS
        (bitwise the normalized rows of default_rng(20248).standard_normal((8, 3)),
        stored so that a load imports no numpy.random), all in one pass, an affine
        field as x A^T + b; the first failure, point-major, field-minor, is named."""
        points, fields = _TANGENCY_POINTS, (self.drift, *self.controlled)
        errs = np.array([np.abs(_dots(points, points @ parts[0].T + parts[1] if (parts := fld.affine())
                                      else np.array([fld(x) for x in points]))) for fld in fields])
        bad = np.argwhere(~(errs.T <= 1e-8))  # written so that a NaN fails it
        if bad.size:
            x, f = bad[0]
            raise DefinitionError("drift" if f == 0 else f"controlled[{f - 1}]", f"field {fields[f].name!r} "
                                  f"not tangent to the sphere: |x.X(x)|={errs[f, x]:.2e}")

    @property
    def n_controls(self) -> int:
        return len(self.controlled)

    def check_signal(self, u: ControlSignal) -> None:
        """A ValueError naming the first segment of u with a wrong channel
        count, or a value that is NaN or outside the bounds (1e-12 slack)."""
        for i, (_, value) in enumerate(u.segments):
            if value.shape[0] != self.n_controls:
                raise ValueError(f"control has {value.shape[0]} channels, system expects "
                                 f"{self.n_controls}, in segment {i}")
        self.check_controls(np.array([value for _, value in u.segments]).reshape(-1, self.n_controls))

    def check_controls(self, values: np.ndarray) -> None:
        """check_signal for the rows (segments) of values (B, m), with the same errors."""
        if values.shape[1] != self.n_controls:
            raise ValueError(f"control has {values.shape[1]} channels, system expects {self.n_controls}")
        # written so that a NaN value fails it; the culprit is sought only then
        inside = (values >= self.bounds[:, 0] - 1e-12) & (values <= self.bounds[:, 1] + 1e-12)
        if not inside.all():
            row, chan = np.argwhere(~inside)[0]
            raise ValueError(f"control value NaN or outside bounds: segment {row}, channel {chan} "
                             f"is {values[row, chan]}, bounds {self.bounds[chan].tolist()}")

    def rhs(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        out = self.drift(x)
        for ui, fld in zip(u_value, self.controlled):
            if ui != 0.0:
                out = out + ui * fld(x)
        return out

    @functools.cached_property
    def _affine_terms(self):
        """Each field's (A, b) from affine(), with an all-zero part as None;
        None when some field is not affine."""
        terms = []
        for fld in (self.drift, *self.controlled):
            parts = fld.affine()
            if parts is None:
                return None
            terms.append(tuple(part if part.any() else None for part in parts))
        return terms

    def affine_parts(self, u_value: np.ndarray):
        """(A, b) with rhs(x, u_value) = A x + b when every field is affine
        (a polynomial field of degree at most one); None otherwise. For a
        stack u_value (B, m), A is (B, n, n) and b (B, n), and row r is
        bitwise the parts of u_value[r]: every row takes the same
        elementwise sums."""
        if self._affine_terms is None:
            return None
        n, lead = self.manifold.ambient_dim, u_value.shape[:-1]
        a, b = np.zeros((*lead, n, n)), np.zeros((*lead, n))
        # each control's value, (1, 1) or a column (B, 1, 1), broadcast over A, and over b
        values = zip((1.0, *u_value.T[..., None, None]), (1.0, *u_value.T[..., None]))
        # skipping an all-zero part changes no bit, as a and b never hold -0.0
        for (coeff_a, coeff_b), (part_a, part_b) in zip(values, self._affine_terms):
            if part_a is not None:
                a = a + coeff_a * part_a
            if part_b is not None:
                b = b + coeff_b * part_b
        return a, b

    def rhs_jacobian(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        out = self.drift.jacobian(x)
        for ui, fld in zip(u_value, self.controlled):
            if ui != 0.0:
                out = out + ui * fld.jacobian(x)
        return out

    @functools.cached_property
    def _polynomial_kernel(self):
        """fields.polynomial_kernel of the fields; on S2 its loops renormalize."""
        on_sphere = self.manifold.kind is ManifoldKind.SPHERE2
        return polynomial_kernel((self.drift, *self.controlled), self.manifold.ambient_dim,
                                 DRIFT_TOL if on_sphere else None)


@dataclass(frozen=True)
class Trajectory:
    """Integration output on a fixed grid; fibers is None for base runs."""

    times: np.ndarray
    states: np.ndarray
    fibers: np.ndarray | None
    control: ControlSignal
    max_drift: float = 0.0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_point(self) -> TangentPoint:
        if self.fibers is None:
            raise ValueError("base trajectory has no fiber component")
        return TangentPoint(self.states[-1], self.fibers[-1])

    def write_csv(self, stream) -> None:
        table = np.hstack([self.times[:, None], self.states, *([] if self.fibers is None else [self.fibers])])
        n, kinds = self.states.shape[1], "x" if self.fibers is None else "xv"
        stream.write(",".join(["t", *(f"{c}{i + 1}" for c in kinds for i in range(n))]) + "\n")
        # Python floats format about twice as fast as numpy scalars, to the
        # same bytes, and one %-format of a whole block of rows is cheaper
        # than a join per row; a block at a time keeps memory small
        row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
        for block in np.split(table, range(256, table.shape[0], 256)):
            stream.write(row_format * block.shape[0] % tuple(block.ravel().tolist()))

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "fibers": None if self.fibers is None else self.fibers.tolist(),
            "control": self.control.to_json(),
            "max_drift": self.max_drift,
        }


def _grid(durations: np.ndarray, steps):
    """(counts, h): the number of RK4 steps of each segment's grid, whose
    nodes include the segment's ends, and their size durations / counts,
    for positive finite durations and steps (an array, or one float step
    for all). A step that is not positive and finite raises ValueError; a
    grid of more than MAX_GRID_STEPS steps in all is refused unstepped with
    a DefinitionError. Every run's grid is built here."""
    if not (0.0 < steps < math.inf if isinstance(steps, float)  # NaN fails both tests
            else np.all((steps > 0.0) & (steps < math.inf))):
        raise ValueError(f"step must be positive and finite, got {steps}")
    # a step floored at durations / (MAX_GRID_STEPS + 1) cannot overflow the quotient, and the sum refuses it
    counts = np.maximum(1.0, np.ceil(durations / np.maximum(steps, durations / (MAX_GRID_STEPS + 1)) - 1e-12))
    if counts.sum() > MAX_GRID_STEPS:
        raise DefinitionError("step", f"the grid has more than MAX_GRID_STEPS = {MAX_GRID_STEPS} steps")
    return counts, durations / counts


def _check_drift(drift, t, tol=DRIFT_TOL) -> None:
    """Raise IntegrationError naming t (a batch's latest) unless drift <= tol."""
    if not drift <= tol:
        raise IntegrationError(f"off-manifold drift {drift:.3e} at t={np.max(t)}")


def _row_norms(nrm: np.ndarray, tol=DRIFT_TOL) -> np.ndarray:
    """A batch's row norms, NaN where a row drifts past tol: a miss from there
    on, which the batch's drift (an np.fmax peak) skips until no row is left."""
    return np.where(np.abs(nrm - 1.0) <= tol, nrm, np.nan)


def _to_sphere(x: np.ndarray, v, t, tol=DRIFT_TOL) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Renormalize a state, or each row of a batch (_row_norms), onto the unit
    sphere and re-project the fiber v, unless None; return (x, v, the largest
    |‖x‖ - 1|). A drift past tol or NaN raises IntegrationError naming time t."""
    if x.ndim == 1:
        nrm = math.sqrt(x @ x)  # the value np.linalg.norm gives, at less cost
        x, drift = x / nrm, abs(nrm - 1.0)
    else:
        nrm = _row_norms(np.linalg.norm(x, axis=1, keepdims=True), tol)
        x, drift = x / nrm, float(np.fmax.reduce(np.abs(nrm - 1.0), axis=None))
    _check_drift(drift, t, tol)
    if v is not None:
        v = v - (x * (x @ v) if v.ndim == 1 else np.outer(x, x @ v))
    return x, v, drift


def _step_map(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) such that x -> M x + c is exactly the RK4 step of size h of
    dx/dt = a x + b, and v -> M v that of its variational equation: the four
    stages sum to S (a x + b) with S = h (I + ha/2 + (ha)^2/6 + (ha)^3/24)."""
    eye = np.eye(a.shape[-1])
    ha = h * a  # for a stack, h (B, 1, 1): each map as the single call makes it
    s = h * (eye + ha @ (0.5 * eye + ha @ (eye / 6.0 + ha / 24.0)))
    return eye + s @ a, (s @ b[..., None])[..., 0]


def _drift_bound(m: np.ndarray, c: np.ndarray):
    """The drift bound g = ||M^T M - I||_F + ||c|| of a step map on the sphere
    (module docstring), or a list, each bitwise the single map's, of a stack's."""
    e = np.swapaxes(m, -1, -2) @ m - _EYE3
    bounds = [math.hypot(*row) + math.hypot(*shift) for row, shift in
              zip(e.reshape(-1, 9).tolist(), c.reshape(-1, 3).tolist())]
    return bounds if m.ndim == 3 else bounds[0]


def _matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """np.linalg.matrix_power(a, k), k >= 1, of a float stack: its products in
    its order (k = 1, 2, 3 directly, else squaring over k's bits from the
    lowest), so bitwise its result, without its checks and conversions."""
    if k <= 3:
        return a if k == 1 else a @ a if k == 2 else (a @ a) @ a
    z = result = None
    while k > 0:
        z = a if z is None else z @ z
        k, bit = divmod(k, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _power(m: np.ndarray, c: np.ndarray, counts) -> np.ndarray:
    """The counts[r]-th powers of [[M_r, c_r], [0, 1]] of a stack of maps, as
    (B, n + 1, n + 1): one _matrix_power per distinct count (of the whole stack
    for one), so each is bitwise its single map's power. The one place powers are taken."""
    n = m.shape[-1]
    power = np.zeros((len(m), n + 1, n + 1))
    power[:, :n, :n], power[:, :n, n], power[:, n, n] = m, c, 1.0
    distinct = sorted(set(counts))  # np.unique would import numpy.ma
    for k in distinct:
        rows = slice(None) if len(distinct) == 1 else [r for r, count in enumerate(counts) if count == k]
        power[rows] = _matrix_power(power[rows], k)
    return power


def _stages(rhs, h, n_steps: int, x, v, t, rows, on_sphere: bool):
    """n_steps classical RK4 steps (Hairer, Nørsett & Wanner, Solving ODEs I,
    §II.1) of size h of dx/dt = f(x) and, unless v is None, of the
    variational equation dv/dt = Df(x) v along the same base stages, as
    _advance takes them. rhs(x, lifted) returns (f(x), Df(x) if lifted else
    None), so a base run evaluates no Jacobian and the base stages do not
    depend on the fiber. On the sphere every step ends in _to_sphere.
    """
    lifted, max_drift = v is not None, 0.0
    for _ in range(n_steps):
        k1, j1 = rhs(x, lifted)
        k2, j2 = rhs(x + 0.5 * h * k1, lifted)
        k3, j3 = rhs(x + 0.5 * h * k2, lifted)
        k4, j4 = rhs(x + h * k3, lifted)
        if lifted:
            k1v = j1 @ v
            k2v = j2 @ (v + 0.5 * h * k1v)
            k3v = j3 @ (v + 0.5 * h * k2v)
            k4v = j4 @ (v + h * k3v)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if on_sphere:
            x, v, drift = _to_sphere(x, v, t)
            max_drift = max(max_drift, drift)
        if rows is not None:
            rows += [t, *x.tolist(), *([] if v is None else v.tolist())]
    return x, v, t, max_drift


def _advance(sys: AffineSystem, uval: np.ndarray, h, n_steps: int, x: np.ndarray, v, t, rows,
             on_sphere: bool):
    """n_steps RK4 steps of size h under the constant control uval, from one
    state x (n,) with fiber v None, (n,) or (n, k), extending rows unless
    None by the flat row (t, x.., v..) of every step, or from a stack of
    rows x (B, n) with uval (B, m), h (B,) and v None; powers are taken by
    its callers, fiber_flows and constant_control_endpoints:
    - a polynomial segment, on either manifold, is one call of the
      generated kernel loop (fields.polynomial_kernel), one per column of a
      fiber matrix (each gives the same state bitwise);
    - bare callables take _stages through rhs and rhs_jacobian.
    Returns (x, v, t, the largest drift of a step off the sphere).
    """
    batch = x.ndim == 2
    if sys._polynomial_kernel is None:
        if batch:
            rhs, h = (lambda y, _: (np.array([sys.rhs(z, u) for z, u in zip(y, uval)]), None)), h[:, None]
        else:
            rhs = lambda y, lifted: (sys.rhs(y, uval), sys.rhs_jacobian(y, uval) if lifted else None)
        return _stages(rhs, h, n_steps, x, v, t, rows, on_sphere)
    table, bind = sys._polynomial_kernel
    coeffs = np.insert(uval, 0, 1.0, axis=-1) @ table
    # on Python floats, or on the numpy columns of a batch's rows
    base, lifted = (bind(h, coeffs.T, lambda s: _row_norms(np.sqrt(s)),
                         lambda d: np.fmax.reduce(np.abs(d))) if batch
                    else bind(h, coeffs.tolist(), math.sqrt, abs))
    start = list(x.T) if batch else x.tolist()
    columns = [] if v is None else v.reshape(len(start), -1).T.tolist()  # a vector is one column
    runs = [lifted(n_steps, t, rows, *start, *w) for w in columns] or [base(n_steps, t, rows, *start)]
    x, _, t, drift = runs[0]
    v = None if v is None else np.array([w for _, w, _, _ in runs if w is not None]).T.reshape(v.shape)
    _check_drift(drift, t)  # the loop stops at the first step past DRIFT_TOL
    return np.array(x).T, v, t, drift


def _segments(sys: AffineSystem, u: ControlSignal, step: float) -> list:
    """(value, h, k) per segment of u: its control value and the size and count
    of its grid's RK4 steps, once u (check_signal), step and the grid pass."""
    sys.check_signal(u)
    counts, sizes = _grid(np.array([duration for duration, _ in u.segments]), step)
    return list(zip([value for _, value in u.segments], sizes.tolist(), counts.astype(int).tolist()))


def _integrate(sys: AffineSystem, plan, x: np.ndarray, v, rows, on_sphere: bool):
    """Run from the validated start (x, v) over plan's segments (value, h, k,
    power): x <- P x + c and v <- P v by a certified power, else _advance,
    which extends rows unless None. Returns the end (x, v) and the largest
    drift of a step off the sphere; a non-finite segment end, which the steps
    keep, raises IntegrationError (math.isfinite: a third of numpy's cost)."""
    n, t, max_drift = x.shape[0], 0.0, 0.0
    for uval, h, n_steps, power in plan:
        if power is None:
            x, v, t, drift = _advance(sys, uval, h, n_steps, x, v, t, rows, on_sphere)
            max_drift = max(max_drift, drift)
        else:
            x = power[:n, :n] @ x + power[:n, n]
            v, t = None if v is None else power[:n, :n] @ v, t + n_steps * h
            if on_sphere:  # certified: only NaN raises
                x, v, _ = _to_sphere(x, v, t, math.inf)
        if not (all(map(math.isfinite, x.tolist()))
                and (v is None or all(map(math.isfinite, v.ravel().tolist())))):
            raise IntegrationError(f"state or fiber not finite at t={t}")
    return x, v, max_drift


def _recorded_run(sys: AffineSystem, x: np.ndarray, v, u: ControlSignal, step: float) -> Trajectory:
    """The run from the validated start (x, v), each segment stepped (it
    builds no map), its flat rows read as one table of which times, states
    and fibers are column views."""
    rows = [0.0, *x.tolist(), *([] if v is None else v.tolist())]
    plan = [(*segment, None) for segment in _segments(sys, u, step)]
    _, _, max_drift = _integrate(sys, plan, x, v, rows, sys.manifold.kind is ManifoldKind.SPHERE2)
    n = x.shape[0]
    table = np.array(rows).reshape(-1, n + 1 if v is None else 2 * n + 1)
    return Trajectory(table[:, 0], table[:, 1:n + 1], None if v is None else table[:, n + 1:], u, max_drift)


def integrate_base(sys: AffineSystem, x0: np.ndarray, u: ControlSignal,
                   step: float = DEFAULT_STEP) -> Trajectory:
    """Classical RK4 with fixed step, segment boundaries on grid nodes.

    On the sphere the state is renormalized after every step; the drift off
    the manifold before renormalization is monitored and reported.
    """
    return _recorded_run(sys, np.asarray(sys.manifold.check_point(x0), dtype=float), None, u, step)


def integrate_lifted(sys: AffineSystem, p0: TangentPoint, u: ControlSignal,
                     step: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the coupled system (base equation plus the linear variational
    equation on the fiber) with the same stepper, grid and base arithmetic as
    integrate_base. On the sphere the fiber is re-projected to the tangent
    plane of the new base point after every step."""
    p0.validate(sys.manifold)
    return _recorded_run(sys, np.asarray(p0.x, dtype=float), np.asarray(p0.v, dtype=float), u, step)


def fiber_flows(sys: AffineSystem, signals, step: float = DEFAULT_STEP):
    """run(i, x0, fibers): the end point from x0 under signals[i] and `fibers`
    (None, a vector (n,) or an (n, k) matrix's columns, each checked as
    integrate_lifted checks its start) carried along: integrate_lifted's up to
    rounding, one base end for any fibers, for starts that come one at a time.
    One stacked pass of affine_parts, _step_map, _drift_bound on S2 and _power
    takes every certified affine segment's power, bitwise its own signal's; a
    run applies them and steps the rest by _advance. One check_controls and
    _grid pass checks every signal's segments; only if it refuses one does
    _segments check each signal alone, to word its failure. A refused signal
    adds no segment, and its run raises that error after the start's, whose
    fiber columns are tested as one array (TangentPoint.validate words a failure)."""
    every = [segment for u in signals for segment in u.segments]
    try:  # np.array refuses values of different lengths with a ValueError too
        sys.check_controls(np.array([value for _, value in every], ndmin=2))
        counts, sizes = _grid(np.array([duration for duration, _ in every]), step)
        gridded = iter(zip([value for _, value in every], sizes.tolist(), counts.astype(int).tolist()))
    except (ValueError, DefinitionError):
        gridded = None
    plans, segments = [], []
    for u in signals:
        try:
            segs = (_segments(sys, u, step) if gridded is None
                    else list(itertools.islice(gridded, len(u.segments))))
            plans.append(range(len(segments), len(segments) + len(segs)))
            segments += segs
        except (ValueError, DefinitionError) as exc:
            plans.append(exc.with_traceback(None))
    on_sphere = sys.manifold.kind is ManifoldKind.SPHERE2
    parts = sys.affine_parts(np.array([uval for uval, _, _ in segments])) if segments else None
    powers = {}
    if parts is not None:
        m, c = _step_map(*parts, np.array([h for _, h, _ in segments])[:, None, None])
        ok = [r for r, g in enumerate(_drift_bound(m, c)) if g <= DRIFT_TOL] if on_sphere else range(len(m))
        powers = dict(zip(ok, _power(m[ok], c[ok], [segments[r][2] for r in ok])))

    def run(i: int, x0: np.ndarray, fibers) -> tuple[np.ndarray, np.ndarray | None]:
        x = np.array(sys.manifold.check_point(x0), dtype=float)
        if fibers is not None:
            fibers = np.array(fibers, dtype=float)
            columns = fibers.T if fibers.ndim == 2 else fibers[None]
            if not (fibers.ndim in (1, 2) and fibers.shape[0] == len(x) and np.isfinite(columns).all()
                    and (sys.manifold.is_flat or (np.abs(_dots(columns, x)) <= POINT_TOL).all())):
                for column in columns:
                    TangentPoint(x, column).validate(sys.manifold)
        if isinstance(plans[i], Exception):
            raise plans[i]
        return _integrate(sys, [(*segments[r], powers.get(r)) for r in plans[i]], x, fibers, None,
                          on_sphere)[:2]

    return run


def constant_control_endpoints(sys: AffineSystem, x0: np.ndarray, controls: np.ndarray,
                               durations, steps) -> np.ndarray:
    """Final base states from x0, row r under the constant control
    controls[r] (controls (B, m)) held for durations[r] on the grid
    integrate_base would use with step steps[r]; the batch is checked as a
    ControlSignal and check_signal check one, and its steps and grid as
    fiber_flows checks them, first. Affine rows take their step maps
    in one stacked pass; rows sharing a step count are one _power where
    _drift_bound certifies them all, else one _advance of a stacked state; a
    batch of one count (every search level after the first) is not regrouped.
    Off the sphere a row ends bitwise where a fiber_flows run ends, on it where
    integrate_base does up to rounding, or NaN where that raises for drift.
    """
    x = np.asarray(sys.manifold.check_point(x0), dtype=float)
    controls, durations, steps = (np.asarray(a, dtype=float) for a in (controls, durations, steps))
    bad = np.flatnonzero(~((durations > 0.0) & (durations < math.inf)))
    if bad.size:
        raise ValueError(f"segment durations must be positive and finite: segment {bad[0]} "
                         f"lasts {durations[bad[0]]}")
    sys.check_controls(controls)
    counts, sizes = _grid(durations, steps)
    on_sphere, parts = sys.manifold.kind is ManifoldKind.SPHERE2, sys.affine_parts(controls)
    if parts is not None:
        m, c = _step_map(*parts, sizes[:, None, None])
        bounds = np.array(_drift_bound(m, c)) if on_sphere else None
    ends = np.empty((len(durations), x.shape[0]))
    distinct = sorted(set(counts.tolist()))  # np.unique would import numpy.ma
    for k in distinct:
        rows = slice(None) if len(distinct) == 1 else np.flatnonzero(counts == k)
        if parts is not None and (bounds is None or bounds[rows].max() <= DRIFT_TOL):  # NaN fails it
            power = _power(m[rows], c[rows], [int(k)] * len(ends[rows]))
            ends[rows] = power[:, :-1, :-1] @ x + power[:, :-1, -1]  # each row as a fiber_flows run
            if on_sphere:  # certified: only NaN raises
                ends[rows] = _to_sphere(ends[rows], None, k * sizes[rows], math.inf)[0]
        else:
            try:
                ends[rows] = _advance(sys, controls[rows], sizes[rows], int(k),
                                      np.tile(x, (len(ends[rows]), 1)), None, 0.0, None, on_sphere)[0]
            except IntegrationError:  # every row drifted off the sphere: all are misses
                ends[rows] = np.nan
    return ends


def check_flow_formula(sys: AffineSystem, x0: np.ndarray, v0: np.ndarray,
                       u: ControlSignal, step: float = DEFAULT_STEP) -> float:
    """Compare the fiber of the lifted flow against a central finite
    difference of the base flow over perturbed initial conditions.

    Returns the max norm deviation over the shared grid.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    lifted = integrate_lifted(sys, TangentPoint(x0, v0), u, step)
    if not u.segments:
        return 0.0
    v_norm = float(np.linalg.norm(v0))
    if v_norm == 0.0:
        return float(np.max(np.linalg.norm(lifted.fibers, axis=1)))
    delta = 1e-5 * (1.0 + float(np.linalg.norm(x0))) / (1.0 + v_norm)
    x_plus = sys.manifold.retract(x0, delta * v0)
    x_minus = sys.manifold.retract(x0, -delta * v0)
    plus = integrate_base(sys, x_plus, u, step)
    minus = integrate_base(sys, x_minus, u, step)
    fd = (plus.states - minus.states) / (2.0 * delta)
    return float(np.max(np.linalg.norm(lifted.fibers - fd, axis=1)))


def check_invariance(sys: AffineSystem, x: np.ndarray, s: float,
                     v_sig: ControlSignal, t: float, u_sig: ControlSignal,
                     step: float = DEFAULT_STEP) -> tuple[float, float]:
    """Flow-invariance check for a member field of the system family.

    Left side: flow the lifted system for the duration of u_sig from the
    tangent point (y_s, F_{v(s)}(y_s)) with y_s the base flow of x under
    v_sig up to time s. Right side: flow the base under the spliced control
    concat(v_sig, s, u_sig) to the end and evaluate the family member with
    the spliced control's final value there. Returns (base, fiber) deviation.

    The identity holds when the control value carried by the initial vector
    continues unchanged past the splice, i.e. u_sig is constant and equal to
    v_sig at the splice time; it fails across genuine switches.
    """
    t_req = float(t)
    if abs(t_req - u_sig.total_duration) > 1e-9:
        raise ValueError("t must equal the duration of u_sig")
    y_s = integrate_base(sys, x, split_signal(v_sig, s)[0], step).final_state
    v_at_s = v_sig.value_at(min(s, v_sig.total_duration)) if v_sig.segments else u_sig.value_at(0.0)
    w0 = sys.manifold.project_tangent(y_s, sys.rhs(y_s, v_at_s))  # a copy on flat space
    left = integrate_lifted(sys, TangentPoint(y_s, w0), u_sig, step).final_point

    w_sig = concat(v_sig, s, u_sig)
    right_traj = integrate_base(sys, x, w_sig, step)
    y_end = right_traj.final_state
    w_end_value = w_sig.value_at(w_sig.total_duration)
    fiber_right = sys.manifold.project_tangent(y_end, sys.rhs(y_end, w_end_value))

    base_dev = sys.manifold.base_distance(left.x, y_end)
    fiber_dev = float(np.linalg.norm(left.v - fiber_right))
    return base_dev, fiber_dev
