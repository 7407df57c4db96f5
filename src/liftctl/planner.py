"""Steering oracles, sampled reachable sets, and the constructive
chain-controllability algorithm with an independent verifier.

Oracles steer the base from x to y: the minimum-energy Gramian control of a
linear system with constant inputs, and two closed forms, one rotation on a
driftless two-axis sphere and one constant control on R^2 when every field
is a I + b J; the grid search steers the rest, and the pairs the planar
closed form cannot.

A chain from p to q is a sequence of legs: flow the lifted system for longer
than the minimum duration, then jump by at most epsilon (in the tangent metric)
to the start of the next leg. The planner cuts the oracle's plan (one rotation,
for two rotation generators on the sphere) from the source base x to the target
base y into legs. The fiber flow is linear, so each leg is integrated once, as
its fiber transition, and the last leg's fiber is linear in the jumps: one
least-squares solve allocates them all; round trips y -> x -> y are appended,
fewest first, each from where the itinerary ends, until every jump fits within
epsilon. The legs are then walked off their transitions, with no further
integration. A gap that no itinerary within the leg budget covers raises an
error carrying the partial chain. The verifier re-checks a chain against the
caller's epsilon, T and endpoints, re-integrating every leg.

Fiber transitions, verification, fiber witnesses and reachable-set samples
read only end points, through flow.fiber_flows (one pass of matrix powers
per plan, round trip, verification or sample set), and search candidates
through flow.constant_control_endpoints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LiftctlError,
    NonFiniteError,
    PlanningBudgetError,
    SteeringFailure,
    UncontrollablePairError,
)
from .flow import (
    DEFAULT_STEP,
    AffineSystem,
    ControlSignal,
    constant_control_endpoints,
    fiber_flows,
    split_signal,
)
from .liealg import DEFAULT_DEPTH, rank_at
from .manifold import Manifold, ManifoldKind, TangentPoint, _cross, _entry, _number, _positive, _seed
from .sasaki import distance, fiber_segment_point

SEARCH_STEER_TOL = 1e-3

# Leg durations exceed the chain's T by this relative margin, and jumps stay
# inside epsilon by the same idea, so the verifier's strict inequalities hold
# after re-integration at half step.
DURATION_MARGIN = 1e-3
JUMP_MARGIN = 1e-6


class LinearGramianOracle:
    """Minimum-energy steering for dx/dt = A x + B u over a fixed horizon.

    The control is piecewise constant on n_segments; the segment values are
    the minimum-energy solution of the sampled system (Gramian of the
    zero-order-hold discretization), which reaches the target exactly up to
    linear-algebra precision. A naive sampling of the continuous-time control
    law would leave an O((T/n)^2) endpoint error, violating the steering
    tolerance.
    """

    n_segments = 64

    def __init__(self, a_matrix, b_matrix, horizon: float = 1.0):
        # imported here, its only use: no other command pays scipy's start-up cost
        from scipy.linalg import expm
        self.a = np.asarray(a_matrix, dtype=float)
        self.b = np.asarray(b_matrix, dtype=float)
        self.horizon = float(horizon)
        n = self.a.shape[0]
        h = self.horizon / self.n_segments
        # a fast drift overflows here; the Gramian's finiteness is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            # one-step transition and the integral of the matrix exponential
            aug = np.zeros((2 * n, 2 * n))
            aug[:n, :n] = self.a * h
            aug[:n, n:] = np.eye(n) * h
            phi = expm(aug)
            self._step_exp = phi[:n, :n]
            step_int = phi[:n, n:]
            gamma = step_int @ self.b
            gammas = [gamma]
            for _ in range(self.n_segments - 1):
                gammas.append(self._step_exp @ gammas[-1])
            gammas.reverse()  # gammas[k] = e^{A (T - t_{k+1})} S B
            self._gammas = gammas
            self._full_exp = expm(self.a * self.horizon)
            self._gram = sum(g @ g.T for g in gammas)
        if not np.isfinite(self._gram).all():
            raise NonFiniteError(f"Gramian over {self.horizon:g} s is not finite")
        sigma = np.linalg.svd(self._gram, compute_uv=False)
        if not sigma[-1] > 1e-10 * sigma[0]:  # an all-zero Gramian fails it, as 0 > 0 is false
            raise UncontrollablePairError(f"Gramian numerically singular: sigma_min {sigma[-1]:.2e} "
                                          f"against sigma_max {sigma[0]:.2e}")

    @staticmethod
    def for_system(sys: AffineSystem, horizon: float = 1.0) -> "LinearGramianOracle":
        if not sys.manifold.is_flat:
            raise SteeringFailure("Gramian oracle requires a flat manifold")
        drift = sys.drift.affine()
        if drift is None or np.any(drift[1]):
            raise SteeringFailure("Gramian oracle requires a linear (or zero) drift")
        cols = []
        for fld in sys.controlled:
            parts = fld.affine()
            if parts is None or np.any(parts[0]):
                raise SteeringFailure("Gramian oracle requires constant controlled fields")
            cols.append(parts[1])
        return LinearGramianOracle(drift[0], np.column_stack(cols), horizon)

    def solve(self, x: np.ndarray, y: np.ndarray) -> tuple[float, ControlSignal]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        residual = y - self._full_exp @ x
        lam = np.linalg.solve(self._gram, residual)
        h = self.horizon / self.n_segments
        segments = tuple((h, g.T @ lam) for g in self._gammas)
        return self.horizon, ControlSignal(segments)


def _skew_axis(matrix: np.ndarray) -> np.ndarray:
    if np.max(np.abs(matrix + matrix.T)) > 1e-10:
        raise SteeringFailure("rotation oracle requires skew-symmetric generators")
    return np.array([matrix[2, 1], matrix[0, 2], matrix[1, 0]])


class SphereRotationOracle:
    """Closed-form steering on the sphere by one rotation (Rodrigues' formula;
    Murray, Li & Sastry, 1994, ch. 2) about w = (b.d) a - (a.d) b, d = x - y,
    for the generators' two axes a and b furthest from parallel: w lies in
    their span and is equidistant from x and y, so the control (b.d, -a.d),
    held for the signed angle from x to y about w, lands on y."""

    def __init__(self, generators, bounds):
        # generators: list of (channel, so(3) matrix)
        def sine(pair):  # of the angle between the pair's axes; 0 for a zero axis
            (_, a), (_, b) = pair
            return np.linalg.norm(_cross(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b) or 1.0)

        best = max(itertools.combinations([(chan, _skew_axis(m)) for chan, m in generators], 2),
                   key=sine, default=None)
        if best is None or sine(best) < 1e-9:
            raise SteeringFailure("rotation oracle needs two independent rotation axes")
        (chan_a, self.a), (chan_b, self.b) = best
        self.channels, self.bounds = [chan_a, chan_b], np.asarray(bounds, dtype=float)
        lo, hi = self.bounds[self.channels].T
        if min(*hi, *-lo) <= 0.0:
            raise SteeringFailure("rotation oracle needs symmetric control authority")
        self.caps = np.minimum(np.minimum(hi, -lo), 1.0)  # no speed above 1

    @staticmethod
    def for_system(sys: AffineSystem) -> "SphereRotationOracle":
        if sys.manifold.kind is not ManifoldKind.SPHERE2:
            raise SteeringFailure("rotation oracle requires the sphere")
        drift = sys.drift.affine()
        if drift is None or np.any(drift[0]) or np.any(drift[1]):
            raise SteeringFailure("rotation oracle requires a driftless system")
        gens = []
        for chan, fld in enumerate(sys.controlled):
            parts = fld.affine()
            if parts is not None and not np.any(parts[1]):
                gens.append((chan, parts[0]))
        return SphereRotationOracle(gens, sys.bounds)

    def solve(self, x: np.ndarray, y: np.ndarray) -> tuple[float, ControlSignal]:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        u = np.array([self.b @ (x - y), -(self.a @ (x - y))])
        u = u if u.any() else np.array([1.0, 0.0])  # x - y normal to the span: any axis will do
        u /= np.max(np.abs(u) / self.caps)
        w = u[0] * self.a + u[1] * self.b
        axis = w / np.linalg.norm(w)
        # the angle between the projections of x and y onto the axis's normal plane
        angle = math.atan2(axis @ _cross(x, y), x @ y - (axis @ x) * (axis @ y))
        if abs(angle) < 1e-12:
            return 0.0, ControlSignal.empty()
        value = np.zeros(len(self.bounds))
        value[self.channels] = math.copysign(1.0, angle) * u + 0.0  # + 0.0: no -0.0 in a plan
        duration = abs(angle) / float(np.linalg.norm(w))
        return duration, ControlSignal.constant(value, duration)


class PlanarSpiralOracle:
    """Closed-form steering on R^2 when every field is linear and of the form
    a I + b J, J the quarter turn (Elliott, *Bilinear Control Systems*, 2009,
    ch. 2). These commute, so with z = x1 + i x2 a constant u multiplies z by
    e^{(alpha + i beta) t}, alpha = a0 + a.u and beta = b0 + b.u for the
    drift's pair (a0, b0). x reaches y iff alpha t = L = ln(|y| / |x|) and
    beta t = theta + 2 pi k, theta the signed angle from x to y: in (u, s = 1/t)
    the two linear equations a.u - L s = -a0 and b.u - theta_k s = -b0. Per
    whole turn |k| <= turns, the least-norm solution is kept if it solves them
    with s > 0, a finite t and u within the bounds; the shortest t wins. A pair
    with no such turn, or with a point at the origin (fixed by every linear
    field), is the search's, with its words on failure."""

    turns = 8

    def __init__(self, sys: AffineSystem, pairs):
        # pairs: (a, b) of the drift, then of each controlled field
        self.sys = sys
        self.rhs = -np.asarray(pairs[0], dtype=float)
        self.gains = np.asarray(pairs[1:], dtype=float).T  # rows a and b
        if not self.gains.any():
            raise SteeringFailure("spiral oracle needs a control with a nonzero gain")

    @staticmethod
    def for_system(sys: AffineSystem) -> "PlanarSpiralOracle":
        if not sys.manifold.is_flat or sys.manifold.ambient_dim != 2:
            raise SteeringFailure("spiral oracle requires flat R^2")
        pairs = []
        for fld in (sys.drift, *sys.controlled):
            parts = fld.affine()
            if parts is None or np.any(parts[1]):
                raise SteeringFailure("spiral oracle requires linear fields")
            (p, q), (r, s) = parts[0].tolist()
            if max(abs(p - s), abs(q + r)) > 1e-10:
                raise SteeringFailure("spiral oracle requires fields a I + b J")
            pairs.append(((p + s) / 2.0, (r - q) / 2.0))
        return PlanarSpiralOracle(sys, pairs)

    def solve(self, x: np.ndarray, y: np.ndarray) -> tuple[float, ControlSignal]:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            return 0.0, ControlSignal.empty()
        rx, ry = math.hypot(*x.tolist()), math.hypot(*y.tolist())
        if 0.0 < rx < math.inf and 0.0 < ry < math.inf:
            (x1, x2), (y1, y2) = (x / rx).tolist(), (y / ry).tolist()
            m = self.gains.shape[1]
            mats = np.zeros((2 * self.turns + 1, 2, m + 1))
            mats[:, :, :m] = self.gains
            mats[:, 0, m] = math.log(rx) - math.log(ry)
            mats[:, 1, m] = -math.atan2(x1 * y2 - x2 * y1, x1 * y1 + x2 * y2) \
                - 2.0 * math.pi * np.arange(-self.turns, self.turns + 1)
            sols = np.linalg.pinv(mats) @ self.rhs  # per turn, (u, s)
            u, s = sols[:, :m], sols[:, m]
            resid = np.abs((mats @ sols[:, :, None])[:, :, 0] - self.rhs).max(axis=1)
            lo, hi = self.sys.bounds.T
            with np.errstate(divide="ignore", over="ignore"):
                t = 1.0 / s
            fits = ((resid <= 1e-9 * (1.0 + np.abs(self.rhs).max())) & (s > 0.0) & np.isfinite(t)
                    & ((lo - 1e-12 <= u) & (u <= hi + 1e-12)).all(axis=1))
            if fits.any():
                i = int(np.flatnonzero(fits)[np.argmin(t[fits])])
                duration = float(t[i])
                return duration, ControlSignal.constant(np.clip(u[i], lo, hi) + 0.0, duration)
        return SearchOracle(self.sys).solve(x, y)


class SearchOracle:
    """Coarse-to-fine grid search over constant controls and durations.

    Candidate plans are integrated with a step proportional to their duration,
    coarse enough to keep the search cheap and far below the steering
    tolerance in accuracy. Each grid level is one stacked pass: one
    constant_control_endpoints call, whose rows end bitwise where their own
    plans run (durations of at least 120 eval_step all take 120 steps), and
    one base_distance call over the end points (the finite ones where a row
    diverged and scores NaN); the winner is the first strict minimum of the
    endpoint error in t-major, u-minor order, as if the candidates had been
    tried one at a time. Every range then shrinks around it.
    At most `budget` candidates over at most `levels` levels, durations up to
    `t_max`: class attributes, like `steer_tol` and `eval_step`.
    """

    steer_tol = SEARCH_STEER_TOL
    eval_step = 1e-2
    budget = 12000
    t_max = 8.0
    levels = 10

    def __init__(self, sys: AffineSystem):
        self.sys = sys

    def _endpoint_errors(self, x, y, durations, controls) -> np.ndarray:
        steps = np.maximum(self.eval_step, durations / 120.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged row is a miss
            ends = constant_control_endpoints(self.sys, x, controls, durations, steps)
            finite = np.isfinite(ends).all(axis=1)
            if finite.all():  # nothing diverged: every row is scored as it is
                return self.sys.manifold.base_distance(ends, y)
            errs = np.full(len(ends), np.nan)
            # a diverged row scores NaN without reaching base_distance, which rejects it
            errs[finite] = self.sys.manifold.base_distance(ends[finite], y)
        return errs

    def solve(self, x: np.ndarray, y: np.ndarray) -> tuple[float, ControlSignal]:
        if self.sys.manifold.base_distance(x, y) <= self.steer_tol:
            return 0.0, ControlSignal.empty()
        # the duration's range, then each channel's, as Python floats
        limits = ranges = [(self.eval_step, self.t_max), *self.sys.bounds.tolist()]
        best, evals = (np.inf, None, None), 0
        for _ in range(self.levels):
            # the level's candidates in t-major, u-minor order, cut at the budget
            (t_lo, t_hi), *u_ranges = ranges
            grids = (np.linspace(lo, hi, 5).tolist() for lo, hi in u_ranges)
            mesh = np.array(list(itertools.product(*grids)))
            n = max(0, min(9 * len(mesh), self.budget - evals))
            durations = np.repeat(np.linspace(t_lo, t_hi, 9), len(mesh))[:n]
            controls = np.concatenate([mesh] * 9)[:n]
            evals += n
            if n:
                errs = self._endpoint_errors(x, y, durations, controls)
                # a NaN error never wins, as no comparison with NaN holds
                i = int(np.argmin(np.where(np.isnan(errs), np.inf, errs)))
                if errs[i] < best[0]:
                    best = (float(errs[i]), float(durations[i]), controls[i].tolist())
            if best[1] is None or evals >= self.budget or best[0] <= self.steer_tol:
                break
            # shrink every range to 0.4 of its width around the incumbent, within its limits
            ranges = [(max(floor, mid - 0.2 * (hi - lo)), min(top, mid + 0.2 * (hi - lo)))
                      for (floor, top), (lo, hi), mid in zip(limits, ranges, [best[1], *best[2]])]
        if best[0] > self.steer_tol:
            raise SteeringFailure(f"search budget exhausted: best endpoint error {best[0]:.3e}")
        return best[1], ControlSignal.constant(best[2], best[1])


def sample_control_signals(bounds, horizon: float, n_samples: int, seed: int):
    """Deterministic random piecewise-constant signals: duration uniform in
    (0, horizon], at most 8 segments, values uniform within the bounds."""
    bounds = np.asarray(bounds, dtype=float)
    rng = np.random.default_rng(seed)
    signals = []
    for _ in range(n_samples):
        if horizon <= 0.0:
            signals.append(ControlSignal.empty())
            continue
        duration = horizon * (1.0 - rng.random())
        n_seg = int(rng.integers(1, 9))
        weights = rng.random(n_seg) + 0.05
        durations = duration * weights / weights.sum()
        signals.append(ControlSignal(tuple((d, rng.uniform(bounds[:, 0], bounds[:, 1]))
                                           for d in durations)))
    return signals


def reachable_sample(sys: AffineSystem, p0: TangentPoint, horizon: float,
                     n_samples: int, seed: int,
                     step: float = DEFAULT_STEP) -> list[TangentPoint]:
    """Endpoints of the lifted flow under random admissible controls, all
    taken by one fiber_flows pass."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    run = fiber_flows(sys, sample_control_signals(sys.bounds, horizon, n_samples, seed), step)
    return [TangentPoint(*run(i, p0.x, p0.v)) for i in range(n_samples)]


@dataclass(frozen=True)
class FiberWitness:
    """A constructive witness that some fiber over y is reachable."""

    duration: float
    control: ControlSignal
    endpoint: TangentPoint


def check_fiber_reachability(sys: AffineSystem, oracle, p0: TangentPoint,
                             y: np.ndarray, step: float = DEFAULT_STEP) -> FiberWitness:
    """Steer the base under the oracle and lift the plan; the endpoint lands
    in the fiber over y (within the oracle's steering tolerance)."""
    p0.validate(sys.manifold)
    duration, control = oracle.solve(p0.x, np.asarray(y, dtype=float))
    return FiberWitness(duration, control,
                        TangentPoint(*fiber_flows(sys, [control], step)(0, p0.x, p0.v)))


@dataclass(frozen=True)
class ChainLeg:
    start: TangentPoint
    control: ControlSignal
    duration: float
    jump_target: TangentPoint
    verified_distance: float

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "control": self.control.to_json(),
            "duration": self.duration,
            "jump_target": self.jump_target.to_json(),
            "verified_distance": self.verified_distance,
        }

    @staticmethod
    def from_json(data: dict, where: str = "") -> "ChainLeg":
        return ChainLeg(
            _entry(data, "start", TangentPoint.from_json, where),
            _entry(data, "control", ControlSignal.from_json, where),
            _entry(data, "duration", _number, where),
            _entry(data, "jump_target", TangentPoint.from_json, where),
            _entry(data, "verified_distance", _number, where),
        )


@dataclass(frozen=True)
class Chain:
    legs: tuple
    epsilon: float
    min_duration: float
    source: TangentPoint
    target: TangentPoint
    step: float = DEFAULT_STEP
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "T": self.min_duration,
            "seed": self.seed,
            "step": self.step,
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "legs": [leg.to_json() for leg in self.legs],
        }

    @staticmethod
    def from_json(data: dict) -> "Chain":
        """The chain of a parsed chain file; a missing or ill-typed entry, an
        epsilon, T or step (or step / 2) that is not positive and finite, or a
        seed that is not a non-negative integer, raises DefinitionError naming it."""
        def legs(items):
            return tuple(ChainLeg.from_json(leg, f"legs[{i}].") for i, leg in enumerate(items))

        return Chain(
            _entry(data, "legs", legs),
            _entry(data, "epsilon", _positive),
            _entry(data, "T", _positive),
            _entry(data, "source", TangentPoint.from_json),
            _entry(data, "target", TangentPoint.from_json),
            _entry(data, "step", _chain_step) if "step" in data else DEFAULT_STEP,
            _entry(data, "seed", _seed) if "seed" in data else 0,
        )


def _chain_step(value) -> float:
    """A chain file's step: positive and finite, with a positive half (verify_chain's step)."""
    step = _positive(value)
    if not step / 2.0 > 0.0:
        raise ValueError(f"must be positive at half its value, where legs are re-integrated, got {step!r}")
    return step


def compose_chains(first: Chain, second: Chain) -> Chain:
    """Concatenate chains through a shared waypoint, joined by the rule of
    verify_chain's joints: first.target and second.source agree within 1e-12."""
    if first.epsilon != second.epsilon or first.min_duration != second.min_duration:
        raise ValueError("chains must share epsilon and T")
    if not _same_point(first.target, second.source):
        raise ValueError("first.target must equal second.source")
    return Chain(first.legs + second.legs, first.epsilon, first.min_duration,
                 first.source, second.target, first.step, first.seed)


def _padded_plan(solve, manifold: Manifold, x: np.ndarray, y: np.ndarray,
                 min_leg: float, sig: ControlSignal) -> ControlSignal:
    """sig, a plan ending at y, padded with round trips y -> x -> y until
    strictly longer than min_leg; SteeringFailure after the 65th round trip,
    however long. An empty round trip, as when x and y coincide, is replaced
    by one through the detour point: y retracted along its first tangent
    basis vector, 1 away on flat space and 0.5 rad away on S2 (a step of
    tan(0.5)). solve(a, b) is the oracle's plan from a to b."""
    def round_trip(via):
        return solve(y, via)[1].segments + solve(via, y)[1].segments

    detour = 1.0 if manifold.is_flat else math.tan(0.5)
    for _ in range(65):
        if sig.total_duration > min_leg:
            return sig
        sig = ControlSignal(sig.segments + (round_trip(x) or round_trip(
            manifold.retract(y, detour * manifold.tangent_basis(y)[:, 0]))))
    raise SteeringFailure("could not pad plan past the minimum leg duration")


def _chunk_signal(sig: ControlSignal, min_leg: float, max_legs: int) -> list[ControlSignal]:
    """Split a plan into at most max_legs equal legs, each strictly above min_leg:
    their count leaves a relative 1e-9 that the splits' rounding cannot cross."""
    total = sig.total_duration
    n = max(1, min(math.floor(total / (min_leg * (1.0 + 1e-9))), max_legs))
    chunks, rest = [], sig
    chunk_len = total / n
    for _ in range(n - 1):
        head, rest = split_signal(rest, chunk_len)
        chunks.append(head)
    chunks.append(rest)
    return chunks


def _chunk_transitions(sys: AffineSystem, start_base: np.ndarray, chunks, step: float):
    """Per chunk of consecutive chunks from start_base: its end base point,
    its end frame (tangent_basis there) and its fiber transition, the matrix
    from its start frame (the previous end frame, the first at start_base)
    to its end frame. The chunks share one fiber_flows pass, and each is one
    run of it carrying the frame's columns."""
    m = sys.manifold
    run = fiber_flows(sys, chunks, step)
    transitions = []
    base, frame = start_base, m.tangent_basis(start_base)
    for i in range(len(chunks)):
        base, fibers = run(i, base, frame)
        frame = m.tangent_basis(base)
        transitions.append((base, frame, frame.T @ fibers))
    return transitions


def _tails(mats):
    """For consecutive chunk transitions: the transitions from each chunk's
    end to the last one's (the identity for the last), stacked, and the
    whole transition."""
    tail = np.eye(len(mats[-1]))
    tails = []
    for mat in reversed(mats):
        tails.append(tail)
        tail = tail @ mat
    return np.array(tails[::-1]), tail


def plan_chain(sys: AffineSystem, oracle, source: TangentPoint, target: TangentPoint,
               epsilon: float, min_duration: float,
               max_legs: int | None = None, step: float = DEFAULT_STEP,
               seed: int = 0) -> Chain:
    """Construct a verified (epsilon, T)-chain from source to target.

    Walks the base from the source to the target along the oracle's plan,
    then the fewest round trips target -> source -> target for which the
    minimum-norm jumps that close the fiber gap all fit within epsilon, each
    cut into at most max_legs legs longer than T, none shorter than step.
    The default max_legs grows with the base and fiber gaps, which must be
    finite. Each leg is integrated once, for its fiber transition, and its
    end is read off that transition. A gap that no itinerary within
    max_legs covers, a round trip that leaves the itinerary's end farther
    than the effective epsilon from the target base without bringing it
    closer (no round trip is added past it; the message names that base
    error), or a walk that misses the target all the same, raises
    PlanningBudgetError with the partial chain. An oracle's SteeringFailure,
    or one naming the oracle for a plan outside the control bounds, names
    the base rank where it falls below the manifold's dimension at the
    start point. Deterministic given its inputs.
    """
    for name, value in (("epsilon", epsilon), ("T", min_duration)):
        if not 0.0 < value < math.inf:  # NaN fails it too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if max_legs is not None and max_legs < 1:
        raise ValueError(f"max_legs must be at least 1, got {max_legs}")
    source.validate(sys.manifold)
    target.validate(sys.manifold)
    m = sys.manifold
    eps_eff = epsilon * (1.0 - JUMP_MARGIN)
    min_leg = max(min_duration * (1.0 + DURATION_MARGIN), step)  # no leg shorter than a step
    x, y = source.x, target.x
    with np.errstate(over="ignore"):  # a gap past the float range is refused below
        base_gap = m.base_distance(x, y)
        gap0 = float(np.hypot(base_gap, np.linalg.norm(target.v - source.v)))
    if not math.isfinite(gap0):
        raise ValueError(f"source and target are too far apart to plan: gap {gap0}")
    if max_legs is None:
        max_legs = 10 * math.ceil(max(gap0, epsilon) / epsilon) + 20

    legs: list[ChainLeg] = []

    def finished_chain() -> Chain:
        return Chain(tuple(legs), epsilon, min_duration, source, target, step, seed)

    solved: dict = {}

    def solve(a: np.ndarray, b: np.ndarray) -> tuple[float, ControlSignal]:
        key = (a.tobytes(), b.tobytes())
        if key not in solved:
            try:
                plan = oracle.solve(a, b)
                try:  # an inadmissible plan is the oracle's failure, not a usage error
                    sys.check_signal(plan[1])
                except ValueError as exc:
                    raise SteeringFailure(f"{type(oracle).__name__} plan: {exc}") from exc
                solved[key] = plan
            except SteeringFailure as exc:  # name a base rank condition that fails at a,
                n = m.intrinsic_dim  # read off a's bracket columns only where they are finite
                try:
                    rank = rank_at((sys.drift, *sys.controlled), a, DEFAULT_DEPTH, m).rank
                except NonFiniteError:
                    rank = n
                if rank >= n:
                    raise
                where = "the source" if a is x else "the target" if a is y else a.tolist()
                raise SteeringFailure(f"{exc}; base rank {rank} < {n} at {where}") from exc
        return solved[key]

    plan = _padded_plan(solve, m, x, y, min_leg, solve(x, y)[1])

    # Already within reach: try a single unsplit leg back to the target fiber.
    # The transport surrogate is at least the base gap, and refuses antipodes.
    if base_gap <= eps_eff and distance(m, source, target) <= eps_eff:
        end = TangentPoint(*fiber_flows(sys, [plan], step)(0, source.x, source.v))
        d_end = distance(m, end, target)
        if d_end <= eps_eff:
            legs.append(ChainLeg(source, plan, plan.total_duration, target, d_end))
            return finished_chain()

    # The last leg ends at the flowed source fiber plus each jump carried to
    # the end by the tails Q_j, so the least-norm jumps that close the gap g
    # to the target fiber solve [Q_1 ... Q_J] d = g (the last Q is I) by least
    # squares; the normal equations' W = sum Q_j Q_j^T >= I lose their identity
    # to rounding as the tails grow (Golub & Van Loan, 2013, §5.3). The itinerary is the plan plus the fewest round trips y -> x -> y
    # (solved on first use, each integrated from where the itinerary ends) whose
    # jumps all fit, the last beside the base error. Fibers are coordinates in
    # the frames of _chunk_transitions, which chain exactly.
    chunks = _chunk_signal(plan, min_leg, max_legs)
    trans = _chunk_transitions(sys, x, chunks, step)
    tails, whole = _tails([mat for _, _, mat in trans])
    coords = m.tangent_basis(x).T @ source.v
    fiber = whole @ coords
    loop_chunks = None
    last_error = math.inf
    while True:
        end_base, end_frame, _ = trans[-1]
        gap = end_frame.T @ m.project_tangent(end_base, target.v) - fiber
        stacked = tails.transpose(1, 0, 2).reshape(len(gap), -1)  # [Q_1 ... Q_J]
        jumps = np.linalg.lstsq(stacked, gap)[0].reshape(len(tails), -1)
        sizes = np.linalg.norm(jumps, axis=1)
        # The jumps are fiber-only, so only round trips move the base error. A
        # round trip that left it past eps_eff without shrinking it ends the
        # search; under a contracting drift it may shrink back within reach.
        base_error = m.base_distance(end_base, y)
        if len(chunks) >= max_legs or eps_eff < base_error >= last_error or (
                np.all(sizes[:-1] <= eps_eff) and sizes[-1] ** 2 + base_error ** 2 <= eps_eff ** 2):
            break
        last_error = base_error
        if loop_chunks is None:
            loop_chunks = _chunk_signal(
                _padded_plan(solve, m, x, y, min_leg, ControlSignal.empty()), min_leg, max_legs)
        loop_trans = _chunk_transitions(sys, end_base, loop_chunks, step)
        loop_tails, loop_whole = _tails([mat for _, _, mat in loop_trans])
        tails = np.concatenate([loop_whole @ tails, loop_tails])
        fiber = loop_whole @ fiber
        chunks, trans = chunks + loop_chunks, trans + loop_trans

    # Each leg's end is read off its transition: the current fiber, in
    # coordinates of the current frame, carried to the leg's end frame.
    current = source
    for chunk, (end_base, frame, mat), jump in zip(chunks[:max_legs], trans, jumps):
        end = TangentPoint(end_base, frame @ (mat @ coords))
        d_target = distance(m, end, target)
        if d_target <= eps_eff:
            legs.append(ChainLeg(current, chunk, chunk.total_duration, target, d_target))
            return finished_chain()
        jumped = fiber_segment_point(end, m.project_tangent(end.x, end.v + frame @ jump),
                                     eps_eff)
        legs.append(ChainLeg(current, chunk, chunk.total_duration, jumped,
                             distance(m, end, jumped)))
        current, coords = jumped, frame.T @ jumped.v
    off_base = (f": base error {base_error:.3e} at the itinerary's end exceeds eps_eff "
                f"{eps_eff:.3e}" if base_error > eps_eff else "")
    raise PlanningBudgetError(f"no chain within {len(legs)} legs{off_base}", finished_chain())


@dataclass(frozen=True)
class LegCheck:
    index: int
    duration: float
    distance: float | None  # None when the leg could not be re-integrated
    duration_ok: bool
    distance_ok: bool
    continuity_ok: bool


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    legs: tuple
    messages: tuple

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "legs": [dict(vars(c)) for c in self.legs],
            "messages": list(self.messages),
        }


def _same_point(p: TangentPoint, q: TangentPoint) -> bool:
    """p and q have the same shapes and agree within 1e-12 in every coordinate
    (np.allclose's verdict at rtol=0, on Python floats at a tenth of its cost)."""
    a, b = ([*r.x.ravel().tolist(), *r.v.ravel().tolist()] for r in (p, q))
    return (p.x.shape == q.x.shape and p.v.shape == q.v.shape
            and all(s == t or abs(s - t) <= 1e-12 for s, t in zip(a, b)))


def verify_chain(sys: AffineSystem, chain: Chain, epsilon: float | None = None,
                 min_duration: float | None = None, source: TangentPoint | None = None,
                 target: TangentPoint | None = None) -> VerificationReport:
    """Independently re-check a chain against a requirement: epsilon, T,
    source and target, each the chain's own where not given. Every leg's end
    point is re-integrated at half the planner's step by one fiber_flows;
    durations must exceed T strictly, each flow endpoint must land within
    epsilon of the next leg's start, the first leg must start at the source
    and the last jump end at the target, so a chain with no leg fails.
    Failures are report entries, never exceptions: a leg that cannot be
    re-integrated (bad control or start, an integration error) fails with a
    null distance and a message naming it."""
    epsilon = chain.epsilon if epsilon is None else epsilon
    min_duration = chain.min_duration if min_duration is None else min_duration
    source = chain.source if source is None else source
    target = chain.target if target is None else target
    run = fiber_flows(sys, [leg.control for leg in chain.legs], chain.step / 2.0)
    checks = []
    messages = []
    expected_start = source
    for idx, leg in enumerate(chain.legs):
        continuity_ok = _same_point(leg.start, expected_start)
        duration_ok = leg.duration > min_duration and (
            abs(leg.duration - leg.control.total_duration) <= 1e-9 * (1.0 + leg.duration)
        )
        if not duration_ok:
            messages.append(f"leg {idx}: duration {leg.duration} not above T={min_duration}")
        try:
            end = TangentPoint(*run(idx, leg.start.x, leg.start.v))
            d = distance(sys.manifold, end, leg.jump_target)
        except (LiftctlError, ValueError) as exc:
            d = None
            messages.append(f"leg {idx}: cannot re-integrate: {exc}")
        distance_ok = d is not None and d <= epsilon
        if d is not None and not distance_ok:
            messages.append(f"leg {idx}: jump distance {d:.6e} exceeds epsilon={epsilon}")
        checks.append(LegCheck(idx, leg.duration, d, duration_ok, distance_ok, continuity_ok))
        if not continuity_ok:
            messages.append(f"leg {idx}: start does not match "
                            + ("the source" if idx == 0 else "previous jump target"))
        expected_start = leg.jump_target
    target_ok = bool(chain.legs) and _same_point(expected_start, target)
    if not target_ok:
        messages.append("final jump target does not match the target" if chain.legs
                        else "a chain needs at least one leg")
    passed = target_ok and all(c.duration_ok and c.distance_ok and c.continuity_ok
                               for c in checks)
    return VerificationReport(passed, tuple(checks), tuple(messages))
