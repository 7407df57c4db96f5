"""Affine control systems, piecewise-constant control signals, fixed-step
integration of the base and lifted dynamics, and the flow-level checks.

Base runs, lifted runs (a fiber vector), fiber transitions (a matrix of
fiber columns) and batches of constant-control candidates all go through one
RK4 stepper, so the base component of a lifted trajectory is bitwise
identical to the plain base trajectory on the shared grid by construction.
Control-segment boundaries always land on grid nodes. Runs that record rows
(integrate_base, integrate_lifted) step every node; end-point runs
(fiber_flow, and constant_control_endpoints stacked over its candidates)
take each affine segment as one matrix power.

When every field of the system is affine (a polynomial field of degree at
most one, such as a linear or constant field), the right-hand side on a
segment with control value u is f(x) = A x + b, and one classical RK4 step
of size h is exactly the affine map x -> M x + c with
S = h (I + hA/2 + (hA)^2/6 + (hA)^3/24), M = I + S A and c = S b; the
variational step is v -> M v. The stepper then builds (M, c) once per segment
and advances by matmul instead of four stage evaluations. The iterates are
the same RK4 iterates up to rounding, and so is the k-step end point, the
k-th power of [[M, c], [0, 1]] applied to (x, 1) by repeated squaring
(Higham, Functions of Matrices, 2008, §4.1). Other fields take the four
stages. On the sphere a power is renormalized and its fiber re-projected
once, at its end: scaling commutes with the linear map, and the per-step
projections remove only O(h^5) normal parts. It is taken only when
g = ||M^T M - I||_F + ||c|| <= DRIFT_TOL, which bounds the drift
|(||M y + c|| - 1)| <= |y^T (M^T M - I) y| + ||c|| of each step from a unit y,
so only NaN raises; other segments step, and every verdict is the stepper's.

When every field is polynomial, the system keeps one table
(fields.polynomial_table), built on the first stage run: the exponents
E (M, n) of every monomial of every field's components and partials, and per
field its value (n, M) and Jacobian (n, n, M) coefficients. A segment combines them with (1, *u) once (per row
for a batch); a stage then evaluates one monomial vector m = prod(x ** E),
which gives both f(x) and Df(x) by matmul. A system with a bare-callable
field is evaluated through its rhs and rhs_jacobian instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitionError, IntegrationError
from .fields import VectorField, polynomial_table
from .manifold import Manifold, ManifoldKind, TangentPoint

DEFAULT_STEP = 1e-3
DRIFT_TOL = 1e-6
MAX_GRID_STEPS = 10_000_000  # a run with a longer grid is refused unstepped
_EYE3 = np.eye(3)

# Snap tolerance for cutting a signal at a segment boundary; keeps
# shift(concat(v, s, u), s) == u exact.
_CUT_SNAP = 1e-12


@dataclass(frozen=True)
class ControlSignal:
    """Right-continuous piecewise-constant control on [0, total_duration]."""

    segments: tuple

    def __post_init__(self):
        clean = []
        for duration, value in self.segments:
            duration = float(duration)
            if not 0.0 < duration < math.inf:
                raise ValueError("segment durations must be positive and finite")
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

    @property
    def channels(self) -> int:
        return self.segments[0][1].shape[0] if self.segments else 0

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
        else, a boolean included (float(True) is 1.0), raises TypeError or
        ValueError."""
        segments = []
        for duration, value in data:
            numbers = [duration, *(value if isinstance(value, list) else [value])]
            if not all(isinstance(u, (int, float)) and not isinstance(u, bool) for u in numbers):
                raise ValueError(f"segment {[duration, value]!r} is not [number, [numbers]]")
            segments.append((duration, value))
        return ControlSignal(tuple(segments))


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

    def _check_tangency(self, n_samples: int = 8, tol: float = 1e-8):
        rng = np.random.default_rng(20240 + n_samples)
        fields = (self.drift,) + self.controlled
        for _ in range(n_samples):
            x = self.manifold.random_point(rng)
            for fld in fields:
                err = abs(x @ fld(x))
                if not err <= tol:
                    raise ValueError(
                        f"field {fld.name!r} not tangent to the sphere: |x.X(x)|={err:.2e}"
                    )

    @property
    def n_controls(self) -> int:
        return len(self.controlled)

    def check_signal(self, u: ControlSignal) -> None:
        for _, value in u.segments:
            if value.shape[0] != self.n_controls:
                self.check_controls(value[None])  # raises the channel error
        self.check_controls(np.array([value for _, value in u.segments]).reshape(-1, self.n_controls))

    def check_controls(self, values: np.ndarray) -> None:
        """check_signal for the rows of values (B, m), with the same errors."""
        if values.shape[1] != self.n_controls:
            raise ValueError(f"control has {values.shape[1]} channels, system expects {self.n_controls}")
        # written so that a NaN value fails it
        if not np.all((values >= self.bounds[:, 0] - 1e-12)
                      & (values <= self.bounds[:, 1] + 1e-12)):
            raise ValueError("control value NaN or outside bounds")

    def rhs(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        out = self.drift(x)
        for ui, fld in zip(u_value, self.controlled):
            if ui != 0.0:
                out = out + ui * fld(x)
        return out

    def rhs_rows(self, xs: np.ndarray, u_values: np.ndarray) -> np.ndarray:
        """rhs over a batch: row r is rhs(xs[r], u_values[r])."""
        return np.array([self.rhs(x, u) for x, u in zip(xs, u_values)])

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
        (a polynomial field of degree at most one); None otherwise."""
        if self._affine_terms is None:
            return None
        n = self.manifold.ambient_dim
        a = np.zeros((n, n))
        b = np.zeros(n)
        # skipping an all-zero part changes no bit, as a and b never hold -0.0
        for coeff, (part_a, part_b) in zip((1.0, *u_value), self._affine_terms):
            if part_a is not None:
                a = a + coeff * part_a
            if part_b is not None:
                b = b + coeff * part_b
        return a, b

    def affine_rows(self, u_values: np.ndarray):
        """affine_parts of each row of u_values (B, m), stacked by the same
        elementwise sums (row r is bitwise affine_parts(u_values[r]))."""
        if self._affine_terms is None:
            return None
        n, rows = self.manifold.ambient_dim, len(u_values)
        a, b = np.zeros((rows, n, n)), np.zeros((rows, n))
        for coeff, (part_a, part_b) in zip((np.ones(rows), *u_values.T), self._affine_terms):
            a = a if part_a is None else a + coeff[:, None, None] * part_a
            b = b if part_b is None else b + coeff[:, None] * part_b
        return a, b

    def rhs_jacobian(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        out = self.drift.jacobian(x)
        for ui, fld in zip(u_value, self.controlled):
            if ui != 0.0:
                out = out + ui * fld.jacobian(x)
        return out

    @functools.cached_property
    def _polynomial_table(self):
        """fields.polynomial_table of the drift and controlled fields."""
        return polynomial_table((self.drift, *self.controlled), self.manifold.ambient_dim)

    def stage_rhs(self, u_values: np.ndarray):
        """rhs(x, lifted) -> (f(x), Df(x) if lifted else None) under the
        control u_values (m,), or rows (B, m) for states (B, n) with no fiber:
        from the polynomial tables, combined here, when there are any; else
        through rhs, rhs_jacobian or rhs_rows."""
        if self._polynomial_table is None:
            if u_values.ndim == 2:
                return lambda x, lifted: (self.rhs_rows(x, u_values), None)
            return lambda x, lifted: (self.rhs(x, u_values),
                                      self.rhs_jacobian(x, u_values) if lifted else None)
        exps, values, jacobians = self._polynomial_table
        coeffs = np.insert(u_values, 0, 1.0, axis=-1)
        values = np.tensordot(coeffs, values, 1)
        if u_values.ndim == 2:
            def rows(x, lifted):
                m = np.multiply.reduce(x[:, None, :] ** exps, axis=2)
                return (values @ m[:, :, None])[:, :, 0], None
            return rows
        jacobians = np.tensordot(coeffs, jacobians, 1)

        def single(x, lifted):
            m = np.multiply.reduce(x ** exps, axis=1)  # np.prod, at less cost
            return values @ m, (jacobians @ m if lifted else None)
        return single


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
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)]
        if self.fibers is not None:
            header += [f"v{i + 1}" for i in range(n)]
        stream.write(",".join(header) + "\n")
        columns = [self.times[:, None], self.states]
        if self.fibers is not None:
            columns.append(self.fibers)
        # Python floats format about twice as fast as numpy scalars, to the
        # same bytes; converting a block of rows at a time keeps memory small
        for start in range(0, self.times.shape[0], 256):
            for row in np.hstack([col[start:start + 256] for col in columns]).tolist():
                stream.write(",".join(f"{val:.17g}" for val in row) + "\n")

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "fibers": None if self.fibers is None else self.fibers.tolist(),
            "control": self.control.to_json(),
            "max_drift": self.max_drift,
        }


def _segment_grid(duration: float, step: float) -> tuple[int, float]:
    # clipped past MAX_GRID_STEPS, where _check_grid refuses the run anyway
    n = max(1, math.ceil(min(duration / step - 1e-12, MAX_GRID_STEPS + 1)))
    return n, duration / n


def _check_grid(steps) -> None:
    if steps > MAX_GRID_STEPS:
        raise DefinitionError("step", f"the grid has more than MAX_GRID_STEPS = {MAX_GRID_STEPS} steps")


def _to_sphere(x: np.ndarray, v, t, tol=DRIFT_TOL) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Renormalize a state, or each row of a batch, onto the unit sphere and
    re-project the fiber v, unless None; return (x, v, largest |‖x‖ - 1|).
    A drift past tol or NaN raises IntegrationError naming time t."""
    if x.ndim == 1:
        nrm = math.sqrt(x @ x)  # the value np.linalg.norm gives, at less cost
        x, drift = x / nrm, abs(nrm - 1.0)
    else:
        nrm = np.linalg.norm(x, axis=1, keepdims=True)
        x, drift = x / nrm, float(np.max(np.abs(nrm - 1.0)))
    if not drift <= tol:
        raise IntegrationError(f"off-manifold drift {drift:.3e} at t={np.max(t)}")
    if v is not None:
        v = v - (x * (x @ v) if v.ndim == 1 else np.outer(x, x @ v))
    return x, v, drift


def _rk4_combine(y, h, k1, k2, k3, k4):
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_step(rhs, h):
    """One classical RK4 step (Hairer, Nørsett & Wanner, Solving ODEs I,
    §II.1) of size h of dx/dt = f(x) and, unless v is None, of the
    variational equation dv/dt = Df(x) v along the same base stages, as a
    map (x, v) -> (x, v). rhs(x, lifted) returns (f(x), Df(x) if lifted
    else None), so a base run evaluates no Jacobian and the base stages do
    not depend on the fiber."""
    def step(x, v):
        lifted = v is not None
        k1, j1 = rhs(x, lifted)
        x2 = x + 0.5 * h * k1
        k2, j2 = rhs(x2, lifted)
        x3 = x + 0.5 * h * k2
        k3, j3 = rhs(x3, lifted)
        x4 = x + h * k3
        k4, j4 = rhs(x4, lifted)
        if lifted:
            k1v = j1 @ v
            k2v = j2 @ (v + 0.5 * h * k1v)
            k3v = j3 @ (v + 0.5 * h * k2v)
            k4v = j4 @ (v + h * k3v)
            v = _rk4_combine(v, h, k1v, k2v, k3v, k4v)
        return _rk4_combine(x, h, k1, k2, k3, k4), v
    return step


def _step_map(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) such that x -> M x + c is exactly the RK4 step of size h of
    dx/dt = a x + b, and v -> M v that of its variational equation: the four
    stages sum to S (a x + b) with S = h (I + ha/2 + (ha)^2/6 + (ha)^3/24)."""
    eye = np.eye(a.shape[-1])
    ha = h * a
    s = h * (eye + ha @ (0.5 * eye + ha @ (eye / 6.0 + ha / 24.0)))
    if a.ndim == 3:  # a stack, with h (B, 1, 1): each map as the single call makes it
        return eye + s @ a, (s @ b[:, :, None])[:, :, 0]
    return eye + s @ a, s @ b


def _drift_bound(m: np.ndarray, c: np.ndarray):
    """The drift bound g = ||M^T M - I||_F + ||c|| of a step map on the sphere
    (see the module docstring), or per map of a stack."""
    if m.ndim == 2:  # hypot over Python floats: the cheapest for one map
        return math.hypot(*(m.T @ m - _EYE3).ravel().tolist()) + math.hypot(*c.tolist())
    e = np.swapaxes(m, 1, 2) @ m - _EYE3
    return np.sqrt((e * e).sum(axis=(1, 2))) + np.sqrt((c * c).sum(axis=1))


def _power(m: np.ndarray, c: np.ndarray, k: int, x: np.ndarray, v):
    """(M^k x + c_k, M^k v or None) from the k-th power of [[M, c], [0, 1]]
    by repeated squaring, for one map (M, c) or per map of a stack."""
    n = m.shape[-1]
    power = np.zeros((*m.shape[:-2], n + 1, n + 1))
    power[..., :n, :n], power[..., :n, n], power[..., n, n] = m, c, 1.0
    power = np.linalg.matrix_power(power, k)
    return power[..., :n, :n] @ x + power[..., :n, n], None if v is None else power[..., :n, :n] @ v


def _segment_step(sys: AffineSystem, uval: np.ndarray, h):
    """The RK4 step of size h under the constant control uval, as a map
    (x, v) -> (x, v) of one state (n,) and its fiber (n,) or (n, k), or with
    uval (B, m) and h (B, 1) of rows (B, n) and no fiber. A single state of
    an affine system steps by the map of _step_map, anything else by the four
    stages of AffineSystem.stage_rhs; either is set up once here."""
    parts = sys.affine_parts(uval) if uval.ndim == 1 else None
    if parts is None:
        return _stage_step(sys.stage_rhs(uval), h)
    m, c = _step_map(*parts, h)
    return lambda x, v: (m @ x + c, None if v is None else m @ v)


def _rk4(step, x, v, h, n_steps: int, on_sphere: bool, t=0.0, rows=None):
    """The one RK4 stepper: n_steps applications of step (from _segment_step)
    of size h to the state x and, unless v is None, its fiber v.

    On the sphere every step ends in _to_sphere. rows, when given, receives
    (t, x, v) after every step; each step makes new arrays, so the rows need
    no copies.
    Returns (x, v, t, max_drift).
    """
    max_drift = 0.0
    for _ in range(n_steps):
        x, v = step(x, v)
        t = t + h
        if on_sphere:
            x, v, drift = _to_sphere(x, v, t)
            max_drift = max(max_drift, drift)
        if rows is not None:
            rows.append((t, x, v))
    return x, v, t, max_drift


def _integrate(sys: AffineSystem, x: np.ndarray, v, u: ControlSignal, step: float,
               rows=None):
    """Run from the validated start (x, v) over every segment of u, each on
    its own grid with boundaries on grid nodes. rows, when given, receives
    (t, x, v) at every grid node after the start; without rows an affine
    segment is one power of [[M, c], [0, 1]] instead of k steps, where the
    drift bound allows it. Returns the end (x, v) and the largest drift of a
    step off the sphere; raises IntegrationError when the state or fiber is
    not finite at a segment end."""
    if not 0.0 < step < math.inf:  # NaN fails it too
        raise ValueError(f"step must be positive and finite, got {step}")
    sys.check_signal(u)
    grid = [_segment_grid(duration, step) for duration, _ in u.segments]
    _check_grid(sum(n_steps for n_steps, _ in grid))
    on_sphere = sys.manifold.kind is ManifoldKind.SPHERE2
    t = 0.0
    max_drift = 0.0
    for (duration, uval), (n_steps, h) in zip(u.segments, grid):
        parts = sys.affine_parts(uval) if rows is None else None
        if parts is not None:
            m, c = _step_map(*parts, h)
        if parts is None or on_sphere and not _drift_bound(m, c) <= DRIFT_TOL:
            x, v, t, drift = _rk4(_segment_step(sys, uval, h), x, v, h, n_steps,
                                  on_sphere, t, rows)
        else:
            x, v = _power(m, c, n_steps, x, v)
            t, drift = t + duration, 0.0
            if on_sphere:  # certified: only NaN raises
                x, v, _ = _to_sphere(x, v, t, math.inf)
        max_drift = max(max_drift, drift)
        # a non-finite value stays non-finite under the steps, so one test
        # per segment catches every overflow and NaN
        if not (np.isfinite(x).all() and (v is None or np.isfinite(v).all())):
            raise IntegrationError(f"state or fiber not finite at t={t}")
    return x, v, max_drift


def integrate_base(sys: AffineSystem, x0: np.ndarray, u: ControlSignal,
                   step: float = DEFAULT_STEP) -> Trajectory:
    """Classical RK4 with fixed step, segment boundaries on grid nodes.

    On the sphere the state is renormalized after every step; the drift off
    the manifold before renormalization is monitored and reported.
    """
    x = np.asarray(sys.manifold.check_point(x0), dtype=float)
    rows = [(0.0, x, None)]
    _, _, max_drift = _integrate(sys, x, None, u, step, rows)
    times, states, _ = zip(*rows)
    return Trajectory(np.asarray(times), np.asarray(states), None, u, max_drift)


def integrate_lifted(sys: AffineSystem, p0: TangentPoint, u: ControlSignal,
                     step: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the coupled system (base equation plus the linear variational
    equation on the fiber) with the same stepper, grid and base arithmetic as
    integrate_base. On the sphere the fiber is re-projected to the tangent
    plane of the new base point after every step."""
    p0.validate(sys.manifold)
    x = np.asarray(p0.x, dtype=float)
    v = np.asarray(p0.v, dtype=float)
    rows = [(0.0, x, v)]
    _, _, max_drift = _integrate(sys, x, v, u, step, rows)
    times, states, fibers = zip(*rows)
    return Trajectory(np.asarray(times), np.asarray(states), np.asarray(fibers), u,
                      max_drift)


def fiber_flow(sys: AffineSystem, x0: np.ndarray, fibers, u: ControlSignal,
               step: float = DEFAULT_STEP) -> tuple[np.ndarray, np.ndarray | None]:
    """End point of the run from x0 under u, and `fibers` carried along it:
    None, a fiber vector (n,) or the columns of an (n, k) matrix, each
    validated as integrate_lifted validates its start. The entry for every
    end-point reader: no rows, so an affine segment is one matrix power,
    shared by base and fibers (the end base point is bitwise the same for any
    fibers). It equals integrate_lifted's end up to rounding."""
    x = np.array(sys.manifold.check_point(x0), dtype=float)
    if fibers is not None:
        fibers = np.array(fibers, dtype=float)
        for column in (fibers.T if fibers.ndim == 2 else [fibers]):
            TangentPoint(x, column).validate(sys.manifold)
    x_end, v_end, _ = _integrate(sys, x, fibers, u, step)
    return x_end, v_end


def constant_control_endpoints(sys: AffineSystem, x0: np.ndarray, controls: np.ndarray,
                               durations, steps) -> np.ndarray:
    """Final base states from x0, row r under the constant control
    controls[r] (controls (B, m)) held for durations[r] on the grid
    integrate_base would use with step steps[r]; the steps are checked as
    _integrate checks one, the batch as a ControlSignal and check_signal
    check one, and its grid counted, first.
    Rows sharing a step count go together: on affine systems as one stacked
    power each (bitwise fiber_flow's end off the sphere; rows the drift
    bound does not certify step), on others through the stages. A row ends
    where integrate_base does up to rounding.
    """
    steps = np.asarray(steps, dtype=float)
    if not np.all((steps > 0.0) & (steps < math.inf)):
        raise ValueError(f"step must be positive and finite, got {steps}")
    x = np.asarray(sys.manifold.check_point(x0), dtype=float)
    controls, durations = np.asarray(controls, dtype=float), np.asarray(durations, dtype=float)
    if not np.all((durations > 0.0) & (durations < math.inf)):
        raise ValueError("segment durations must be positive and finite")
    sys.check_controls(controls)
    # _segment_grid over the rows
    counts = np.maximum(1.0, np.ceil(np.minimum(durations / steps - 1e-12, MAX_GRID_STEPS + 1)))
    _check_grid(counts.sum())
    on_sphere = sys.manifold.kind is ManifoldKind.SPHERE2
    ends = np.empty((len(durations), x.shape[0]))
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        h = durations[rows] / k
        parts = sys.affine_rows(controls[rows])
        if parts is None:
            step = _segment_step(sys, controls[rows], h[:, None])
        else:
            m, c = _step_map(*parts, h[:, None, None])
            ok = _drift_bound(m, c) <= DRIFT_TOL if on_sphere else np.full(len(rows), True)
            if ok.any():  # certified on the sphere, so only NaN raises
                done, _ = _power(m[ok], c[ok], int(k), x, None)
                ends[rows[ok]] = _to_sphere(done, None, durations[rows], math.inf)[0] if on_sphere else done
            rows, h, m, c = rows[~ok], h[~ok], m[~ok], c[~ok]
            step = lambda y, v: ((m @ y[:, :, None])[:, :, 0] + c, v)
        if len(rows):
            ends[rows] = _rk4(step, np.tile(x, (len(rows), 1)), None, h[:, None], int(k),
                              on_sphere)[0]
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
    head, _ = split_signal(v_sig, s)
    if head.segments:
        y_s = integrate_base(sys, x, head, step).final_state
    else:
        y_s = np.asarray(x, dtype=float).copy()
    if v_sig.segments:
        v_at_s = v_sig.value_at(min(s, v_sig.total_duration))
    else:
        v_at_s = u_sig.value_at(0.0)
    w0 = sys.rhs(y_s, v_at_s)
    if sys.manifold.kind is ManifoldKind.SPHERE2:
        w0 = sys.manifold.project_tangent(y_s, w0)
    left = integrate_lifted(sys, TangentPoint(y_s, w0), u_sig, step).final_point

    w_sig = concat(v_sig, s, u_sig)
    right_traj = integrate_base(sys, x, w_sig, step)
    y_end = right_traj.final_state
    w_end_value = w_sig.value_at(w_sig.total_duration)
    fiber_right = sys.rhs(y_end, w_end_value)
    if sys.manifold.kind is ManifoldKind.SPHERE2:
        fiber_right = sys.manifold.project_tangent(y_end, fiber_right)

    base_dev = sys.manifold.base_distance(left.x, y_end)
    fiber_dev = float(np.linalg.norm(left.v - fiber_right))
    return base_dev, fiber_dev
