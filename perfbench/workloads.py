"""Seeded inputs for the benchmark workloads.

Each workload repeats one kind of liftctl CLI operation. Its inputs are an
endless sequence drawn from ``random.Random`` seeded with the workload name
and the benchmark seed, so the same seed always gives the same inputs. The
program only ever sees the generated argv.

Floats are passed as ``repr`` strings, which round-trip exactly, and every
value that may start with ``-`` is passed as ``--flag=value``: argparse reads
a separate ``-0.3,...`` as an unknown flag and exits 2.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

EPS = 0.25
T_MIN = 0.5
SIM_HORIZON_MS = 6000
SIM_SEGMENTS = 6
LARC_DEPTH = 6
# Lifted rank of three_field.json at every tangent point with v != 0, as
# measured at the commit that introduced the benchmark. It is full (2n = 4),
# which is why `check --suite rank` reports passed: false on this definition.
LARC_EXPECTED_RANK = 4

SHIPPED_FLAT_ROTATION = "defs/flat_rotation.json"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, and what the checker expects of its output."""

    argv: list
    expect: dict = field(default_factory=dict)


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _tangent(x, v) -> str:
    return f"{_vec(x)};{_vec(v)}"


def _chain_op(definition: str, x, v, y, w) -> Op:
    argv = ["chain", definition, f"--source={_tangent(x, v)}",
            f"--target={_tangent(y, w)}", "--eps", repr(EPS), "--T", repr(T_MIN)]
    return Op(argv, {"kind": "chain", "definition": definition,
                     "source": [list(x), list(v)], "target": [list(y), list(w)],
                     "eps": EPS, "T": T_MIN})


# chain_search problems: (r1, r2, theta, v, w) with source base (r1, 0),
# target base r2 (cos theta, sin theta) and fiber vectors v, w, before the
# seeded rotation. Each costs 1215 SearchOracle candidates, and its fiber gap
# fits within the first plan's jump capacity, so no loop phase is needed.
SEARCH_PROBLEMS = (
    (1.0, 1.3, 2.6, (0.4, -0.2), (-0.3, 0.5)),
    (0.9, 1.1, 3.0, (-0.3, -0.3), (0.2, -0.4)),
    (0.9, 1.1, 2.2, (0.3, 0.3), (-0.2, 0.4)),
)


def _rotate(p, phi: float):
    c, s = math.cos(phi), math.sin(phi)
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


def chain_search_op(rng: random.Random, index: int) -> Op:
    """The search problems in turn, each rotated by a seeded uniform angle.

    flat_rotation.json (rotation drift, radial control, product metric) is
    equivariant under rotations, so a rotated problem costs the same search
    candidates, transitions and legs: op times differ across seeds only by
    machine noise. The problems keep both steering directions 2.2 to 4.1 rad
    apart in angle, clear of the pairs where SearchOracle's 9-point time grid
    misses the basin (see NOTES.md).
    """
    r1, r2, theta, v, w = SEARCH_PROBLEMS[index % len(SEARCH_PROBLEMS)]
    phi = rng.uniform(0.0, 2.0 * math.pi)
    x = _rotate((r1, 0.0), phi)
    y = _rotate((r2 * math.cos(theta), r2 * math.sin(theta)), phi)
    return _chain_op(SHIPPED_FLAT_ROTATION, x, _rotate(v, phi), y, _rotate(w, phi))


def _sphere_point(azimuth: float, latitude: float):
    return [math.cos(latitude) * math.cos(azimuth), math.cos(latitude) * math.sin(azimuth),
            math.sin(latitude)]


def _sphere_tangent(rng: random.Random, x, norm: float):
    while True:
        z = [rng.gauss(0.0, 1.0) for _ in range(3)]
        dot = sum(a * b for a, b in zip(x, z))
        t = [a - dot * b for a, b in zip(z, x)]
        length = math.sqrt(sum(c * c for c in t))
        if length > 1e-3:
            return [norm * c / length for c in t]


def chain_sphere_op(rng: random.Random, index: int) -> Op:
    """Base points whose azimuths lie 1.1 to 1.3 rad from pi/2 on either side
    and whose latitudes differ by 0.3 to 0.5 rad; tangent vectors of norm 0.3
    in uniform directions.

    SphereRotationOracle steers by rotating to azimuth pi/2, tilting, and
    rotating to the target azimuth, so every plan lasts 2.5 to 3.1 s and the
    fiber gap fits within its jump capacity: five legs per chain.
    """
    def side():
        return rng.choice((-1.0, 1.0))

    az_x = 0.5 * math.pi + side() * rng.uniform(1.1, 1.3)
    az_y = 0.5 * math.pi + side() * rng.uniform(1.1, 1.3)
    lat_x = rng.uniform(-0.5, 0.5)
    lat_y = lat_x + side() * rng.uniform(0.3, 0.5)
    x, y = _sphere_point(az_x, lat_x), _sphere_point(az_y, lat_y)
    return _chain_op("perfbench/defs/sphere_two_axis.json", x, _sphere_tangent(rng, x, 0.3),
                     y, _sphere_tangent(rng, y, 0.3))


def simulate_poly_op(rng: random.Random, index: int) -> Op:
    """A lifted run over a fixed 6 s horizon: six piecewise-constant control
    segments of whole milliseconds, values uniform in the bounds."""
    cuts = sorted(rng.sample(range(1, SIM_HORIZON_MS), SIM_SEGMENTS - 1))
    edges = [0, *cuts, SIM_HORIZON_MS]
    durations = [(b - a) / 1000.0 for a, b in zip(edges, edges[1:])]
    control = [[d, [rng.uniform(-1.0, 1.0)]] for d in durations]
    x0 = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
    v0 = [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
    definition = "perfbench/defs/duffing.json"
    argv = ["simulate", definition, f"--x0={_vec(x0)}", f"--lifted={_vec(v0)}",
            f"--control={json.dumps(control)}", "--format", "csv"]
    return Op(argv, {"kind": "simulate", "x0": x0, "v0": v0, "durations": durations,
                     "step": 0.001, "horizon": SIM_HORIZON_MS / 1000.0})


def algebra_op(rng: random.Random, index: int) -> Op:
    """Lifted rank at depth 6 at a tangent point with base and fiber
    components uniform in [-1.5, 1.5]."""
    x = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    v = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    definition = "perfbench/defs/three_field.json"
    argv = ["larc", definition, f"--point={_vec(x)}", f"--v={_vec(v)}",
            "--depth", str(LARC_DEPTH)]
    return Op(argv, {"kind": "larc", "rank": LARC_EXPECTED_RANK, "depth": LARC_DEPTH})


# Workload -> (operation maker, definitions it loads). The benchmark-owned
# definitions, and why each exists:
#   sphere_two_axis.json: rotations about z and x, bounds +-1. The closed-form
#     SphereRotationOracle applies, so an S2 chain costs transitions, legs
#     and verification, never search.
#   duffing.json: Duffing-type drift and a state-dependent force field.
#     Non-affine polynomial fields for one long lifted integration.
#   three_field.json: three polynomial fields on R^2, 366 left-normed words at
#     depth 6, all through the general polynomial bracket.
WORKLOADS = {
    "chain_search": (chain_search_op, [SHIPPED_FLAT_ROTATION]),
    "chain_sphere": (chain_sphere_op, ["perfbench/defs/sphere_two_axis.json"]),
    "simulate_poly": (simulate_poly_op, ["perfbench/defs/duffing.json"]),
    "algebra": (algebra_op, ["perfbench/defs/three_field.json"]),
}


def definitions(workload: str) -> list:
    """Definition files (relative to the repository root) a workload loads."""
    return WORKLOADS[workload][1]


def operations(workload: str, seed: int):
    """The endless, seed-determined sequence of operations of a workload."""
    make = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1
