"""Vector fields with Jacobian access, scalar fields, lifts to the tangent
bundle, and Lie brackets.

Polynomial fields are the one analytic representation: linear and constant
fields are polynomial fields of degree one and zero, built from a matrix or
a vector, and any field of degree at most one reports its (A, b) through
affine(). Each polynomial field derives its n^2 partials once, when it is
built, and they are the only source of its derivatives: its Jacobian, the
closed-form brackets, the flattened lifts and the dense monomial table of a
system (polynomial_table) all read them, so no other module reads the
monomial format. Arbitrary callables fall back to central finite
differences.
A lifted field is kept as a pair of ambient maps (horizontal, vertical), so
its projection onto the base field holds by construction; the
bracket-identity check flattens lifted fields to 2n ambient dimensions only
internally.
"""

from __future__ import annotations

import functools

import numpy as np

from .manifold import TangentPoint

_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _fd_step(x: np.ndarray) -> float:
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return _FD_EPS * (1.0 + scale)


def fd_jacobian(func, x: np.ndarray, noise: float = 0.0) -> np.ndarray:
    """Central-difference Jacobian of an R^n -> R^m map.

    `noise` is the absolute evaluation error of func. Clean maps use the
    3-point rule with step eps^(1/3)(1+|x|); noisy maps (nested differences)
    switch to the 5-point rule with the step rebalanced against the noise,
    which keeps iterated brackets usable.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + (float(np.max(np.abs(x))) if x.size else 0.0)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    if noise <= 1e-14:
        h = _FD_EPS * scale
        for j in range(x.shape[0]):
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (np.asarray(func(xp), float) - np.asarray(func(xm), float)) / (2.0 * h)
        return jac
    h = max(_FD_EPS, (10.0 * noise) ** 0.2) * scale
    for j in range(x.shape[0]):
        shifts = []
        for mult in (-2.0, -1.0, 1.0, 2.0):
            xs = x.copy()
            xs[j] += mult * h
            shifts.append(np.asarray(func(xs), float))
        fm2, fm1, fp1, fp2 = shifts
        jac[:, j] = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    return jac


def _jacobian_noise(value_noise: float) -> float:
    """Estimated absolute error of an FD Jacobian of a map whose evaluation
    carries the given noise."""
    base = max(value_noise, float(np.finfo(float).eps))
    if value_noise <= 1e-14:
        return 4.0 * base ** (2.0 / 3.0)
    return 4.0 * base ** 0.8


def fd_gradient(func, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of an R^n -> R map."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(x)
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (func(xp) - func(xm)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Polynomial machinery: a component is a list of (coeff, exponents) monomials.
# ---------------------------------------------------------------------------

def _mono_collect(monos):
    acc: dict[tuple, float] = {}
    for coeff, exps in monos:
        key = tuple(int(e) for e in exps)
        acc[key] = acc.get(key, 0.0) + float(coeff)
    return tuple((c, e) for e, c in sorted(acc.items()) if c != 0.0)


def _poly_eval(component, x: np.ndarray) -> float:
    total = 0.0
    for coeff, exps in component:
        term = coeff
        for xi, e in zip(x, exps):
            if e:
                term *= xi ** e
        total += term
    return total


def _poly_diff(component, j: int):
    out = []
    for coeff, exps in component:
        if exps[j] > 0:
            new = list(exps)
            new[j] -= 1
            out.append((coeff * exps[j], tuple(new)))
    return _mono_collect(out)


def _poly_mul(a, b):
    """Every product of a monomial of a with one of b, uncollected."""
    return [(ca * cb, tuple(i + j for i, j in zip(ea, eb))) for ca, ea in a for cb, eb in b]


class VectorField:
    """A point -> ambient-vector map with Jacobian access.

    Custom fields built from a bare callable use central finite differences
    for the Jacobian unless one is given; polynomial fields carry analytic
    ones.
    """

    def __init__(self, value, jacobian=None, name: str = "custom",
                 value_noise: float = 0.0):
        self._value = value
        self._jacobian = jacobian
        self.name = name
        self.value_noise = value_noise

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._jacobian is not None:
            return np.asarray(self._jacobian(x), dtype=float)
        return fd_jacobian(self._value, x, self.value_noise)

    @property
    def has_analytic_jacobian(self) -> bool:
        return self._jacobian is not None

    def affine(self):
        """(A, b) with value A x + b, or None when the field is not known to
        be affine (always None for a bare callable)."""
        return None


class PolynomialField(VectorField):
    """Components are polynomials with one non-negative integer exponent per
    dimension (ValueError otherwise); analytic Jacobian."""

    def __init__(self, components, dim: int, name: str = "polynomial"):
        self.components = tuple(_mono_collect(c) for c in components)
        self.dim = int(dim)
        if len(self.components) != self.dim:
            raise ValueError("polynomial field needs one component per dimension")
        if any(len(e) != self.dim or min(e, default=0) < 0
               for comp in self.components for _, e in comp):
            raise ValueError(f"exponents must be {self.dim} non-negative integers")
        self._partials = tuple(
            tuple(_poly_diff(comp, j) for j in range(self.dim))
            for comp in self.components
        )
        super().__init__(self._eval, self._jac, name)

    def _eval(self, x):
        return np.array([_poly_eval(c, x) for c in self.components])

    def _jac(self, x):
        return np.array(
            [[_poly_eval(self._partials[i][j], x) for j in range(self.dim)]
             for i in range(self.dim)]
        )

    @functools.cached_property
    def _affine(self):
        # built on first use: most bracket fields are never asked
        if any(sum(e) > 1 for comp in self.components for _, e in comp):
            return None
        zero = [0.0] * self.dim  # Python floats evaluate faster than numpy's
        return self._jac(zero), self._eval(zero)  # (Df(0), f(0))

    def affine(self):
        """(A, b) with value A x + b when the degree is at most one, else
        None. The arrays are shared; callers must not modify them."""
        return self._affine


class LinearField(PolynomialField):
    """x -> A x: the degree-one polynomial field of a square matrix."""

    def __init__(self, matrix: np.ndarray, name: str = "linear"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("linear field needs a square matrix")
        n = matrix.shape[0]
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        super().__init__([[(matrix[i, j], units[j]) for j in range(n)] for i in range(n)],
                         n, name)


class ConstantField(PolynomialField):
    """x -> c: the degree-zero polynomial field of a vector."""

    def __init__(self, vector: np.ndarray, name: str = "constant"):
        vector = np.asarray(vector, dtype=float)
        n = vector.shape[0]
        super().__init__([[(c, (0,) * n)] for c in vector], n, name)


def zero_field(dim: int) -> ConstantField:
    return ConstantField(np.zeros(dim), name="zero")


def polynomial_table(fields, n: int):
    """(E, values, jacobians) when every field is a PolynomialField on R^n,
    else None. E (M, n) holds the exponents of every monomial of the fields'
    components and partials; field f is values[f] @ m(x) with Jacobian
    jacobians[f] @ m(x), where m(x) = prod(x ** E, axis=1)."""
    if not all(isinstance(fld, PolynomialField) and fld.dim == n for fld in fields):
        return None
    # per field: its n components, then its n * n partials row by row
    polys = [[*fld.components, *(p for row in fld._partials for p in row)] for fld in fields]
    monomials = list(dict.fromkeys(e for fp in polys for poly in fp for _, e in poly))
    index = {exps: k for k, exps in enumerate(monomials)}
    dense = np.zeros((len(fields), n + n * n, len(index)))
    for f, fld_polys in enumerate(polys):
        for i, poly in enumerate(fld_polys):
            for coeff, exps in poly:
                dense[f, i, index[exps]] = coeff
    exps = np.array(monomials, dtype=float).reshape(len(index), n)
    return exps, dense[:, :n], dense[:, n:].reshape(len(fields), n, n, len(index))


class ScalarField:
    """A point -> real map with gradient access (analytic or central FD)."""

    def __init__(self, value, gradient=None, name: str = "scalar"):
        self._value = value
        self._gradient = gradient
        self.name = name

    def __call__(self, x: np.ndarray) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return fd_gradient(self._value, x)


class LiftedVectorField:
    """The tangent-bundle lift of a field, as (horizontal, vertical) maps.

    At (x, v) the horizontal part is the base field's value at x and the
    vertical part is its Jacobian applied to v. The horizontal part therefore
    projects back onto the base field by construction.
    """

    def __init__(self, base: VectorField):
        self.base = base

    def __call__(self, p: TangentPoint) -> tuple[np.ndarray, np.ndarray]:
        h = self.base(p.x)
        vert = self.base.jacobian(p.x) @ p.v
        return h, vert


def complete_lift(field: VectorField) -> LiftedVectorField:
    return LiftedVectorField(field)


def complete_lift_function(f: ScalarField):
    """Lift a scalar field to the tangent bundle: (x, v) -> grad f(x) . v."""

    def lifted(p: TangentPoint) -> float:
        return float(f.gradient(p.x) @ p.v)

    return lifted


def vertical_lift_function(f: ScalarField):
    """(x, v) -> f(x), constant on fibers."""

    def lifted(p: TangentPoint) -> float:
        return f(p.x)

    return lifted


def lie_bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """[X, Y](x) = J_Y(x) X(x) - J_X(x) Y(x).

    Brackets of polynomial fields (linear and constant ones included) are
    computed in closed form from the partials each field derived when built,
    component i as the one collected sum over k of dY_i/dx_k X_k and
    -dX_i/dx_k Y_k, so iterated brackets keep analytic Jacobians; anything
    else falls back to a pointwise formula with a finite-difference Jacobian.
    """
    if isinstance(x_field, PolynomialField) and isinstance(y_field, PolynomialField):
        xc, xd, yc, yd = x_field.components, x_field._partials, y_field.components, y_field._partials
        n = x_field.dim
        comps = [[term for k in range(n)
                  for term in _poly_mul(yd[i][k], xc[k])
                  + [(-c, e) for c, e in _poly_mul(xd[i][k], yc[k])]]
                 for i in range(n)]
        return PolynomialField(comps, n, name=f"[{x_field.name},{y_field.name}]")

    def value(x):
        return y_field.jacobian(x) @ x_field(x) - x_field.jacobian(x) @ y_field(x)

    noise = 0.0
    if not x_field.has_analytic_jacobian:
        noise += _jacobian_noise(x_field.value_noise)
    if not y_field.has_analytic_jacobian:
        noise += _jacobian_noise(y_field.value_noise)
    noise += x_field.value_noise + y_field.value_noise
    return VectorField(value, name=f"[{x_field.name},{y_field.name}]", value_noise=noise)


def flatten_lift(field: VectorField) -> VectorField:
    """The lift of a field as a single field on the 2n-dimensional ambient
    representation of the tangent bundle: z = (x, v) -> (X(x), J_X(x) v)."""
    if isinstance(field, PolynomialField):
        n = field.dim
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        comps = [[(c, e + (0,) * n) for c, e in comp] for comp in field.components]
        comps += [[(c, e + units[j]) for j in range(n) for c, e in row[j]]
                  for row in field._partials]
        return PolynomialField(comps, 2 * n, name=f"{field.name}^c")

    def value(z):
        n = z.shape[0] // 2
        x, v = z[:n], z[n:]
        return np.concatenate([field(x), field.jacobian(x) @ v])

    noise = field.value_noise
    if not field.has_analytic_jacobian:
        noise += _jacobian_noise(field.value_noise)
    return VectorField(value, name=f"{field.name}^c", value_noise=noise)


def check_pi_related(field: VectorField, samples) -> float:
    """Max over samples of |horizontal part of the lift - field at the base|.

    Zero by construction; kept as an executable statement of the contract.
    """
    lifted = complete_lift(field)
    worst = 0.0
    for p in samples:
        h, _ = lifted(p)
        dev = float(np.linalg.norm(h - field(p.x)))
        worst = max(worst, dev)
    return worst


def check_bracket_identity(x_field: VectorField, y_field: VectorField, samples) -> float:
    """Compare [X^c, Y^c] against [X, Y]^c at the given tangent points.

    The left side brackets the flattened 2n-dimensional lifts; the right side
    lifts the base bracket. Returns the max norm difference.
    """
    left = lie_bracket(flatten_lift(x_field), flatten_lift(y_field))
    right = complete_lift(lie_bracket(x_field, y_field))
    worst = 0.0
    for p in samples:
        z = np.concatenate([p.x, p.v])
        h, vert = right(p)
        dev = float(np.linalg.norm(left(z) - np.concatenate([h, vert])))
        worst = max(worst, dev)
    return worst


def _finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} has a non-finite entry")
    return values


def field_from_descriptor(desc: dict) -> PolynomialField:
    """Deserialize a field descriptor from a system-definition file; every
    kind gives a polynomial field. Non-finite matrix, vector or coefficient
    entries raise ValueError."""
    if not isinstance(desc, dict):
        raise ValueError("field descriptor must be an object")
    kind = desc.get("type")
    if kind == "linear":
        return LinearField(_finite(desc["matrix"], "matrix"))
    if kind == "constant":
        return ConstantField(_finite(desc["vector"], "vector"))
    if kind == "zero":
        return zero_field(int(desc["dim"]))
    if kind == "polynomial":
        comps = [
            [(float(coeff), tuple(int(e) for e in exps)) for coeff, exps in component]
            for component in desc["components"]
        ]
        _finite([coeff for component in comps for coeff, _ in component], "coefficient")
        return PolynomialField(comps, len(comps))
    raise ValueError(f"unknown field type {kind!r}")

