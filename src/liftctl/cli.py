"""Command-line front end: liftctl <simulate|check|chain|larc>.

System definitions are JSON files with a schema version, manifold, field
descriptors (matrices row-major), per-channel control bounds, an optional
metric name (validated only: the distance follows the manifold), integrator
step and seed. All reports go to stdout unless --out is given.
Exit codes: 0 success, 1 domain/planning failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import shutil
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .errors import DefinitionError, LiftctlError, OffManifoldError, PlanningBudgetError
from .fields import ConstantField, check_pi_related, field_from_descriptor
from .flow import (
    DEFAULT_STEP,
    AffineSystem,
    ControlSignal,
    check_flow_formula,
    check_invariance,
    integrate_base,
    integrate_lifted,
)
from .liealg import DEFAULT_DEPTH, check_lift_algebra_identity, lifted_rank_at, rank_at
from .manifold import Manifold, TangentPoint, _entry, _number, _positive, _seed, json_numbers
from .planner import (
    Chain,
    LinearGramianOracle,
    PlanarSpiralOracle,
    SearchOracle,
    SphereRotationOracle,
    plan_chain,
    verify_chain,
)

SCHEMA_VERSION = 1

# The metric names a definition may give for each manifold kind. The
# distance itself follows the manifold (liftctl.sasaki.distance).
_METRICS = {"flat": ("flat_product", "transport_surrogate"),
            "sphere2": ("transport_surrogate",)}

# larc refuses a --depth whose Lyndon basis has more columns than this. Each
# column is one bracket; 9,382 of them (three polynomial fields on R^2 at depth
# 10) take about 0.7 s in-process on 2 vCPUs to build, once per process, and
# 5-7 ms per later rank. The count grows about k-fold per depth.
LARC_MAX_COLUMNS = 10_000


def _load_field(desc, where: str, n: int):
    """The field of a descriptor, which must act on the manifold's ambient
    dimension n; a DefinitionError naming `where` otherwise, or if too large."""
    try:
        return field_from_descriptor(desc, n)
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        raise DefinitionError(where, str(exc)) from exc


@dataclass(frozen=True)
class SystemDefinition:
    manifold: Manifold
    system: AffineSystem
    step: float
    seed: int

    @staticmethod
    def from_dict(data: dict) -> "SystemDefinition":
        if not isinstance(data, dict):
            raise DefinitionError("<root>", "definition must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DefinitionError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

        mdesc = data.get("manifold")
        if not isinstance(mdesc, dict) or "kind" not in mdesc:
            raise DefinitionError("manifold", "expected an object with a 'kind'")
        kind = mdesc["kind"]
        if kind == "flat":
            manifold = _entry(mdesc, "dim", lambda dim: Manifold.flat(_number(dim, integer=True)),
                              "manifold.")
        elif kind == "sphere2":
            manifold = Manifold.sphere2()
        else:
            raise DefinitionError("manifold.kind", f"unknown kind {kind!r}")

        n = manifold.ambient_dim
        drift = None if data.get("drift") is None else _load_field(data["drift"], "drift", n)
        controlled_desc = data.get("controlled")
        if not isinstance(controlled_desc, list) or not controlled_desc:
            raise DefinitionError("controlled", "expected a non-empty list of field descriptors")
        controlled = [_load_field(desc, f"controlled[{i}]", n)
                      for i, desc in enumerate(controlled_desc)]
        drift = drift or ConstantField(np.zeros(n), name="zero")  # allocated once the fields pass n

        bounds = data.get("bounds")
        if not isinstance(bounds, list) or len(bounds) != len(controlled):
            raise DefinitionError("bounds", "expected one [lo, hi] pair per controlled field")
        try:
            system = AffineSystem(manifold, drift, tuple(controlled), json_numbers(bounds))
        except ValueError as exc:
            raise DefinitionError("bounds", str(exc)) from exc

        metric = data.get("metric")
        if metric is not None and metric not in _METRICS[kind]:
            raise DefinitionError("metric", f"expected one of {_METRICS[kind]} on {kind}, "
                                            f"got {metric!r}")

        step = _entry(data, "step", _positive) if "step" in data else DEFAULT_STEP
        seed = _entry(data, "seed", _seed) if "seed" in data else 0
        env_seed = os.environ.get("LIFTCTL_SEED")
        if env_seed is not None:
            if not env_seed.strip().isdecimal():  # the digits int() reads, with no sign
                raise DefinitionError("LIFTCTL_SEED", f"must be a non-negative integer, got {env_seed!r}")
            seed = int(env_seed)
        return SystemDefinition(manifold, system, step, seed)

    @staticmethod
    def load(path: str) -> "SystemDefinition":
        return SystemDefinition.from_dict(_read_json(path, path))


def _read_json(path: str, where: str):
    """The parsed JSON file at path; an unreadable file, or one that is not
    UTF-8 or not JSON, raises DefinitionError naming where."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DefinitionError(where, f"cannot read file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DefinitionError(where, f"invalid JSON: {exc}") from exc


def _positive_flag(flag: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # NaN fails it too
        raise DefinitionError(flag, f"must be positive and finite, got {value}")
    return value


def _parse_vector(text: str, manifold: Manifold, flag: str, base=None) -> np.ndarray:
    """The comma-separated vector of a flag: a point of the manifold or,
    given its base point, a tangent vector there; a DefinitionError naming
    the flag otherwise."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise DefinitionError(flag, f"expected comma-separated floats: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise DefinitionError(flag, "components must be finite")
    if len(values) != manifold.ambient_dim:
        raise DefinitionError(flag, f"expected {manifold.ambient_dim} components, got {len(values)}")
    try:
        return manifold.check_point(values) if base is None else TangentPoint(base, values).validate(manifold).v
    except OffManifoldError as exc:
        raise DefinitionError(flag, str(exc)) from exc


def _parse_tangent(text: str, manifold: Manifold, flag: str) -> TangentPoint:
    parts = text.split(";")
    if len(parts) != 2:
        raise DefinitionError(flag, "expected 'x1,..,xn;v1,..,vn'")
    x = _parse_vector(parts[0], manifold, flag)
    return TangentPoint(x, _parse_vector(parts[1], manifold, flag, x))


def _parse_control(text: str, system: AffineSystem) -> ControlSignal:
    """The signal of --control (JSON segments [[duration, [u, ...]], ...] or @file
    holding them, read by _read_json) if system.check_signal admits it; else
    DefinitionError naming control."""
    try:
        control = ControlSignal.from_json(_read_json(text[1:], "control") if text.startswith("@")
                                          else json.loads(text))
        system.check_signal(control)
    except ValueError as exc:  # check_signal's messages open with "control"
        raise DefinitionError("control", str(exc).removeprefix("control ")) from exc
    return control


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def resolve_oracle(defn: SystemDefinition):
    """Pick a steering oracle for the system kind: the Gramian oracle, then
    the sphere rotation and planar spiral closed forms, each where it accepts
    the system; fall back to grid search."""
    for for_system in (LinearGramianOracle.for_system, SphereRotationOracle.for_system,
                       PlanarSpiralOracle.for_system):
        try:
            return for_system(defn.system)
        except LiftctlError:
            pass
    return SearchOracle(defn.system)


def cmd_simulate(args) -> int:
    defn = SystemDefinition.load(args.definition)
    x0 = _parse_vector(args.x0, defn.manifold, "--x0")
    step = defn.step if args.step is None else _positive_flag("--step", args.step)
    control = _parse_control(args.control, defn.system) if args.control \
        else ControlSignal.empty()
    try:
        if args.lifted is not None:
            v0 = _parse_vector(args.lifted, defn.manifold, "--lifted", x0)
            traj = integrate_lifted(defn.system, TangentPoint(x0, v0), control, step)
        else:
            traj = integrate_base(defn.system, x0, control, step)
    except DefinitionError as exc:  # a grid past MAX_GRID_STEPS names the step's source
        if exc.field != "step" or args.step is None:
            raise
        raise DefinitionError("--step", exc.reason) from exc
    if args.format == "json":
        _emit(json.dumps(traj.to_json(), indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        traj.write_csv(buf)
        _emit(buf.getvalue(), args.out)
    return 0


def _check(deviation, tolerance) -> dict:
    """A suite entry: the deviation passes when at most the tolerance."""
    return {"deviation": deviation, "tolerance": tolerance, "pass": deviation <= tolerance}


def _suite_lift(defn: SystemDefinition) -> dict:
    sys_ = defn.system
    rng = np.random.default_rng(defn.seed)
    samples = []
    for _ in range(100):
        x = defn.manifold.random_point(rng)
        samples.append(TangentPoint(x, defn.manifold.random_tangent(x, rng)))
    fields = (sys_.drift,) + sys_.controlled
    # the depth-2 words are the pairs [fields[i], fields[j]], i < j
    bracket_dev = check_lift_algebra_identity(fields, samples, max_depth=2)
    algebra_dev = check_lift_algebra_identity(fields, samples[:10], max_depth=3)
    pi_dev = max(check_pi_related(f, samples) for f in fields)  # the bracket checks' error comes first
    return {"pi_related": _check(pi_dev, 1e-12), "bracket_identity": _check(bracket_dev, 1e-10),
            "lift_algebra": _check(algebra_dev, 1e-8)}


def _random_signal(rng, bounds) -> ControlSignal:
    """One to three segments of 0.2 to 0.8 s, values uniform within bounds."""
    return ControlSignal(tuple(
        (float(rng.uniform(0.2, 0.8)), rng.uniform(bounds[:, 0], bounds[:, 1]))
        for _ in range(int(rng.integers(1, 4)))))


def _suite_flow(defn: SystemDefinition) -> dict:
    sys_ = defn.system
    rng = np.random.default_rng(defn.seed)
    tol = 1e-6 if defn.manifold.is_flat else 1e-4
    worst_formula = 0.0
    worst_bitwise = 0.0
    for _ in range(3):
        x0 = defn.manifold.random_point(rng)
        v0 = defn.manifold.random_tangent(x0, rng)
        u = _random_signal(rng, sys_.bounds)
        worst_formula = max(worst_formula, check_flow_formula(sys_, x0, v0, u, defn.step))
        base = integrate_base(sys_, x0, u, defn.step)
        lifted = integrate_lifted(sys_, TangentPoint(x0, v0), u, defn.step)
        worst_bitwise = max(worst_bitwise, float(np.max(np.abs(base.states - lifted.states))))
    return {"flow_formula": _check(worst_formula, tol), "projection_identity": _check(worst_bitwise, 0.0)}


def _suite_invariance(defn: SystemDefinition) -> dict:
    sys_ = defn.system
    rng = np.random.default_rng(defn.seed)
    tol = 1e-6 if defn.manifold.is_flat else 1e-4
    worst_base = 0.0
    worst_fiber = 0.0
    for k in range(5):
        x0 = defn.manifold.random_point(rng)
        v_sig = _random_signal(rng, sys_.bounds)
        s = 0.0 if k == 0 else float(rng.uniform(0.0, v_sig.total_duration))
        c = v_sig.value_at(min(s, v_sig.total_duration))
        t = float(rng.uniform(0.3, 1.0))
        u_sig = ControlSignal.constant(c, t)
        if k == 0:
            v_sig = ControlSignal.constant(c, v_sig.total_duration)
        base_dev, fiber_dev = check_invariance(sys_, x0, s, v_sig, t, u_sig, defn.step)
        worst_base = max(worst_base, base_dev)
        worst_fiber = max(worst_fiber, fiber_dev)
    return {"invariance_base": _check(worst_base, tol), "invariance_fiber": _check(worst_fiber, tol)}


def _suite_rank(defn: SystemDefinition) -> dict:
    sys_ = defn.system
    rng = np.random.default_rng(defn.seed)
    fields = (sys_.drift,) + sys_.controlled
    n = defn.manifold.intrinsic_dim
    reports = []
    ok = True
    for _ in range(10):
        x = defn.manifold.random_point(rng)
        v = defn.manifold.random_tangent(x, rng)
        base_report = rank_at(fields, x, DEFAULT_DEPTH, defn.manifold)
        lifted_report = lifted_rank_at(fields, TangentPoint(x, v), DEFAULT_DEPTH, defn.manifold)
        ok = ok and lifted_report.rank <= n
        reports.append({"base": base_report.to_json(), "lifted": lifted_report.to_json()})
    return {
        "rank_obstruction": {"pass": ok, "intrinsic_dim": n, "reports": reports},
    }


_SUITES = {"lift": _suite_lift, "flow": _suite_flow, "invariance": _suite_invariance,
           "rank": _suite_rank}


def cmd_check(args) -> int:
    defn = SystemDefinition.load(args.definition)
    results = _SUITES[args.suite](defn)
    passed = all(entry["pass"] for entry in results.values())
    report = {"suite": args.suite, "seed": defn.seed, "passed": passed, "checks": results}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if passed else 1


def cmd_chain(args) -> int:
    """Plan a chain or read a chain file, then verify it by one verify_chain
    call against the caller's --eps and --T, and --source and --target where
    given: a planned chain's verification is the --verify-only report of it."""
    defn = SystemDefinition.load(args.definition)
    _positive_flag("--eps", args.eps)
    _positive_flag("--T", args.T)
    if args.max_legs is not None and args.max_legs < 1:
        raise DefinitionError("--max-legs", f"must be at least 1, got {args.max_legs}")
    source = _parse_tangent(args.source, defn.manifold, "--source") if args.source is not None else None
    target = _parse_tangent(args.target, defn.manifold, "--target") if args.target is not None else None
    if args.verify_only:
        chain = Chain.from_json(_read_json(args.verify_only, f"--verify-only {args.verify_only}"))
    elif source is None or target is None:
        raise DefinitionError("--source/--target", "required unless --verify-only is given")
    else:
        oracle = resolve_oracle(defn)
        try:
            chain = plan_chain(defn.system, oracle, source, target,
                               args.eps, args.T, args.max_legs, defn.step, defn.seed)
        except PlanningBudgetError as exc:
            payload = {"error": str(exc), "partial_chain": exc.best_chain.to_json()}
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
            return 1
    report = verify_chain(defn.system, chain, args.eps, args.T, source, target).to_json()
    payload = report if args.verify_only else {"chain": chain.to_json(), "verification": report}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def cmd_larc(args) -> int:
    if args.depth < 1:
        raise DefinitionError("--depth", f"must be at least 1, got {args.depth}")
    defn = SystemDefinition.load(args.definition)
    fields = (defn.system.drift,) + defn.system.controlled
    # Lyndon words of each length n over k letters, counted by Witt's formula
    # k^n = sum over d | n of d L(d), not generated
    k, words = len(fields), []
    for length in range(1, args.depth + 1):
        words.append((k ** length - sum(d * words[d - 1] for d in range(1, length)
                                        if length % d == 0)) // length)
        if sum(words) > LARC_MAX_COLUMNS:
            raise DefinitionError("--depth", f"{k} fields have more than {LARC_MAX_COLUMNS} "
                                             f"brackets beyond depth {length - 1}")
    point = _parse_vector(args.point, defn.manifold, "--point")
    if args.v is not None:
        point = TangentPoint(point, _parse_vector(args.v, defn.manifold, "--v", point))
        report = lifted_rank_at(fields, point, args.depth, defn.manifold)
    else:
        report = rank_at(fields, point, args.depth, defn.manifold)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return 0


# Each subcommand: its help, its handler and its arguments, as the
# (flags, options) of each add_argument call, in help order.
_COMMANDS = {
    "simulate": ("integrate the base or lifted system", cmd_simulate, (
        (("definition",), {}),
        (("--x0",), {"required": True, "help": "initial base point, comma separated"}),
        (("--control",), {"help": "JSON segments [[dur,[u...]],...] or @file"}),
        (("--lifted",), {"metavar": "V0", "help": "initial fiber vector; integrates the lift"}),
        (("--step",), {"type": float}),
        (("--format",), {"choices": ("csv", "json"), "default": "csv"}),
        (("--out",), {}),
    )),
    "check": ("run a verification suite", cmd_check, (
        (("definition",), {}),
        (("--suite",), {"required": True, "choices": tuple(_SUITES)}),
        (("--out",), {}),
    )),
    "chain": ("plan or verify an (eps,T)-chain", cmd_chain, (
        (("definition",), {}),
        (("--source",), {"help": "tangent point 'x1,..;v1,..'"}),
        (("--target",), {"help": "tangent point 'x1,..;v1,..'"}),
        (("--eps",), {"type": float, "default": 0.25}),
        (("--T",), {"type": float, "default": 0.5}),
        (("--max-legs",), {"type": int, "default": None}),
        (("--verify-only",), {"metavar": "CHAIN_JSON"}),
        (("--out",), {}),
    )),
    "larc": ("algebra rank condition report at a point", cmd_larc, (
        (("definition",), {}),
        (("--point",), {"required": True}),
        (("--v",), {"help": "fiber vector; reports the lifted rank"}),
        (("--depth",), {"type": int, "default": DEFAULT_DEPTH}),
        (("--out",), {}),
    )),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flags, options in _COMMANDS[name][2]:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=_COMMANDS[name][1])
    return parser


def _formatter():
    """argparse's HelpFormatter at its own width, read once, not per add_argument."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. main parses an argv that starts with a
    subcommand by that one's own parser, with the same prog and arguments as
    here, and falls back to this one for other argvs and leftover arguments."""
    parser = argparse.ArgumentParser(
        prog="liftctl",
        description="Simulate affine control systems on manifolds, their tangent-bundle "
                    "lifts, and certified chain plans between tangent points.",
        formatter_class=_formatter(),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, formatter_class=parser.formatter_class), name)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv), less `command` for an argv that starts
    with a subcommand and leaves nothing over, which that one's parser parses."""
    if argv[:1] and argv[0] in _COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"liftctl {argv[0]}",
                                                      formatter_class=_formatter()), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (LiftctlError, ValueError, OSError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1 if isinstance(exc, LiftctlError) and not isinstance(exc, DefinitionError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
