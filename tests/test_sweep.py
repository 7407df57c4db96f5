"""The main theorem's sweep as a floor: on generated systems where the
theorem holds by construction, at least as many seeded pairs plan and verify
as the floors below, every failure is a named LiftctlError, and every chain
the planner returns verifies.

- Probe B. Flat R^n, n = 2 to 6, A = (M - M^T)/2 for a standard normal M and
  one control column b, standard normal, redrawn until the Kalman rank is n;
  bounds +-10. Every eigenvalue of A lies on the imaginary axis and 0 lies
  inside the bounds, so the base is globally controllable (Brammer,
  "Controllability in linear autonomous systems with positive controllers",
  SIAM J. Control 10, 1972). Per n, 3 systems from default_rng(2026), each
  drawn with its 4 pairs in the order x, y (uniform in [-1, 1]^n), v, w
  (uniform in [-0.5, 0.5]^n); eps 0.25, T 0.5, resolve_oracle's oracle.

A change that verifies more pairs raises its floor in the same change.
"""

import numpy as np
import pytest

from liftctl import LiftctlError, TangentPoint, plan_chain, verify_chain
from liftctl.cli import SystemDefinition, resolve_oracle

EPS, T = 0.25, 0.5
# verified pairs of 12 per n; every other pair is a plan outside the bounds
PROBE_B_FLOORS = {2: 9, 3: 0, 4: 0, 5: 0, 6: 0}


def _skew_system(rng: np.random.Generator, n: int) -> SystemDefinition:
    while True:
        m, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        a = (m - m.T) / 2.0
        kalman = np.column_stack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        if np.linalg.matrix_rank(kalman) == n:
            break
    return SystemDefinition.from_dict({
        "schema_version": 1, "manifold": {"kind": "flat", "dim": n},
        "drift": {"type": "linear", "matrix": a.tolist()},
        "controlled": [{"type": "constant", "vector": b.tolist()}],
        "bounds": [[-10.0, 10.0]], "step": 0.001, "seed": 0})


@pytest.fixture(scope="module")
def probe_b():
    """Per n: (verified pairs, failed pairs, chains that did not verify). A
    failure that is not a LiftctlError is not caught, and fails every test."""
    rng, results = np.random.default_rng(2026), {}
    for n in PROBE_B_FLOORS:
        verified, failures, unverified = 0, 0, []
        for _ in range(3):
            defn = _skew_system(rng, n)
            pairs = [[rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                      rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)] for _ in range(4)]
            oracle = resolve_oracle(defn)
            for x, y, v, w in pairs:
                source, target = TangentPoint(x, v), TangentPoint(y, w)
                try:
                    chain = plan_chain(defn.system, oracle, source, target, EPS, T, step=defn.step,
                                       seed=defn.seed)
                except LiftctlError:
                    failures += 1
                    continue
                report = verify_chain(defn.system, chain, EPS, T, source, target)
                verified += report.passed
                if not report.passed:
                    unverified.append(report.messages)
        results[n] = verified, failures, unverified
    print("\nprobe B, verified of 12 per n:",
          ", ".join(f"n={n}: {verified}" for n, (verified, _, _) in results.items()),
          f"({sum(failures for _, failures, _ in results.values())} named failures)")
    return results


@pytest.mark.parametrize("n", list(PROBE_B_FLOORS))
def test_probe_b_verifies_at_least_its_floor(probe_b, n):
    verified, _, unverified = probe_b[n]
    assert verified >= PROBE_B_FLOORS[n]
    assert unverified == []
