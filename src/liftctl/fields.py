"""Vector fields with Jacobian access, scalar fields, lifts to the tangent
bundle, and Lie brackets.

Polynomial fields are the one analytic representation: linear and constant
fields are polynomial fields of degree one and zero, held as their matrix or
vector, whose monomials they derive on first read. Any field of degree at
most one reports its (A, b) through affine(), a linear or constant field from
that matrix or vector (bitwise what its partials give), any other from its
partials. Each polynomial field derives its n^2 partials once, on first use:
its Jacobian, the closed-form brackets, the flattened lifts and a system's
RK4 kernel, which polynomial_kernel generates as straight-line source, all
read them, and outside this module only liealg's bracket table reads the
monomial format. Arbitrary callables fall back to central finite differences.
A lifted field is kept as a pair of ambient maps (horizontal, vertical), so
its projection onto the base field holds by construction; only liealg's
lift-algebra identity check flattens lifted fields to 2n ambient dimensions.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFiniteError
from .manifold import TangentPoint, _number, json_numbers

_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def fd_jacobian(func, x: np.ndarray, noise: float = 0.0) -> np.ndarray:
    """Central-difference Jacobian of an R^n -> R^m map.

    `noise` is the absolute evaluation error of func. Clean maps use the
    3-point rule with step eps^(1/3)(1+|x|); noisy maps (nested differences)
    switch to the 5-point rule with the step rebalanced against the noise,
    which keeps iterated brackets usable. Both run one stencil loop: after
    func(x), column j is sum weight func(x + mult h e_j) / (denom h), in order.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + (float(np.max(np.abs(x))) if x.size else 0.0)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    if noise <= 1e-14:
        h, stencil, denom = _FD_EPS * scale, ((1.0, 1.0), (-1.0, -1.0)), 2.0
    else:
        h = max(_FD_EPS, (10.0 * noise) ** 0.2) * scale
        stencil, denom = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0)), 12.0
    for j in range(x.shape[0]):
        terms = []
        for mult, weight in stencil:
            xs = x.copy()
            xs[j] += mult * h
            terms.append(weight * np.asarray(func(xs), float))
        jac[:, j] = sum(terms[1:], terms[0]) / (denom * h)
    return jac


def _noise(*fields) -> float:
    """The value_noise of a formula in the fields' values and Jacobians: each
    FD Jacobian's error, 4 max(noise, eps)^p with p = 2/3 for fd_jacobian's
    3-point rule and 0.8 for its 5-point rule, summed, then each value's."""
    eps = float(np.finfo(float).eps)
    return (sum(4.0 * max(f.value_noise, eps) ** (2.0 / 3.0 if f.value_noise <= 1e-14 else 0.8)
                for f in fields if not f.has_analytic_jacobian) + sum(f.value_noise for f in fields))


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
    """Components are polynomials with one non-negative integer exponent
    below 2**63 per dimension (ValueError otherwise); analytic Jacobian."""

    def __init__(self, components, dim: int, name: str = "polynomial"):
        self.components = tuple(_mono_collect(c) for c in components)
        self.dim = int(dim)
        if len(self.components) != self.dim:
            raise ValueError("polynomial field needs one component per dimension")
        for comp in self.components:
            for _, e in comp:
                if len(e) != self.dim or min(e) < 0:
                    raise ValueError(f"exponents must be {self.dim} non-negative integers")
                if max(e) >= 2 ** 63:  # liealg's bracket table holds exponents as int64
                    raise ValueError(f"exponents must be below 2**63, got {max(e)}")
        super().__init__(self._eval, self._jac, name)

    @functools.cached_property
    def components(self):
        """Derived on first read from a LinearField's or ConstantField's (A, b); others set it."""
        n, (a, b) = self.dim, self._affine
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        return tuple(_mono_collect([(c, (0,) * n), *zip(row, units)])
                     for c, row in zip(b.tolist(), a.tolist()))

    @functools.cached_property
    def _partials(self):
        return tuple(tuple(_poly_diff(comp, j) for j in range(self.dim)) for comp in self.components)

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
    """x -> A x: the degree-one polynomial field of a square matrix, held as
    (A, 0); its monomial components are derived from A on first read."""

    def __init__(self, matrix: np.ndarray, name: str = "linear"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("linear field needs a square matrix")
        self.dim = matrix.shape[0]
        self._affine = matrix + 0.0, np.zeros(self.dim)  # bitwise (Df(0), f(0)): + 0.0 turns -0.0 to 0.0
        VectorField.__init__(self, self._eval, self._jac, name)


class ConstantField(PolynomialField):
    """x -> c: the degree-zero polynomial field of a vector, held as (0, c);
    its monomial components are derived from c on first read."""

    def __init__(self, vector: np.ndarray, name: str = "constant"):
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1:
            raise ValueError("constant field needs a vector")
        self.dim = vector.shape[0]
        self._affine = np.zeros((self.dim, self.dim)), vector + 0.0  # bitwise (Df(0), f(0)), as LinearField's
        VectorField.__init__(self, self._eval, self._jac, name)


def polynomial_kernel(fields, n: int, drift_tol=None):
    """(table, bind) for RK4 runs of the system sum_f c_f fields[f] (c_0 = 1)
    when every field is a PolynomialField on R^n, else None.

    Slot k is one monomial of a component or partial, and table (F, K) holds
    each field's coefficient of it. bind(h, c @ table, sqrt, peak) returns
    the segment loops base(steps, t, rows, x0, ..) -> ((x0, ..), None, t,
    drift) and lifted(steps, t, rows, x0, .., v0, ..) -> ((x0, ..),
    (v0, ..), t, drift) of `steps` RK4 steps of size h with t = t + h each,
    which extend rows unless None by the flat row (t, x0, .., v0, ..) of
    every step. Their source is straight-line arithmetic on Python floats,
    or on numpy columns with one entry per row of a batch. It holds only
    generated names, integer exponents and fixed constants, and the lifted
    loop repeats the base loop's lines verbatim, so both give the same state
    bitwise. With drift_tol, on the unit sphere, every step ends by dividing
    the state by its norm sqrt(x . x), re-projecting the fiber by
    v -= x (x . v) and keeping the largest drift peak(norm - 1); the first
    past drift_tol, or NaN, ends the loop there and is returned instead.
    Without it the drift is 0.0.
    """
    if not all(isinstance(fld, PolynomialField) and fld.dim == n for fld in fields):
        return None
    # per field: its n components, then its n * n partials row by row
    polys = [[*fld.components, *(p for row in fld._partials for p in row)] for fld in fields]
    slots = tuple(dict.fromkeys((i, e) for fp in polys for i, poly in enumerate(fp) for _, e in poly))
    index = {slot: k for k, slot in enumerate(slots)}
    table = np.zeros((len(fields), len(slots)))
    for f, fld_polys in enumerate(polys):
        for i, poly in enumerate(fld_polys):
            table[f, [index[i, e] for _, e in poly]] = [coeff for coeff, _ in poly]
    return table, _compiled_bind(slots, n, drift_tol)


@functools.cache
def _compiled_bind(slots: tuple, n: int, drift_tol):
    """The bind function of polynomial_kernel's loops over the monomial slots.
    Their source holds no coefficient, only the slots, n and drift_tol, so
    systems that share them, such as every load of one definition, build
    and compile it once per process."""
    scope: dict = {}
    exec(compile(_kernel_source(slots, n, drift_tol), "<polynomial kernel>", "exec"), scope)
    return scope["bind"]


def _kernel_source(slots: tuple, n: int, drift_tol) -> str:
    """The source of polynomial_kernel's bind for slot k = (i, e): the
    monomial of exponents e in component or partial i."""
    terms = [[k for k, (p, _) in enumerate(slots) if p == i] for i in range(n + n * n)]
    x, v, base, lifted = [f"x{i}" for i in range(n)], [f"v{i}" for i in range(n)], [], []
    for s, scale in enumerate(("", "h2", "h2", "h"), 1):  # RK4 stage s from k{s-1}
        y, w = (x, v) if s == 1 else ([f"y{s}_{i}" for i in range(n)], [f"w{s}_{i}" for i in range(n)])
        lines = [f"{y[i]} = {x[i]} + {scale}*k{s - 1}_{i}" for i in range(n) if s > 1]
        powers = {}

        def power(i, e):  # y[i] ** e by squaring, in O(log e) lines
            if e > 1 and (i, e) not in powers:
                # an odd power is the even one below it, half*half, times y: the same
                # products as half*half*y, so x^2 and x^3 share their square
                lines.append(f"p{s}_{i}_{e} = " + (f"{power(i, e - 1)}*{y[i]}" if e % 2
                                                   else f"{power(i, e // 2)}*{power(i, e // 2)}"))
                powers[i, e] = f"p{s}_{i}_{e}"
            return powers[i, e] if e > 1 else y[i]

        def value(p):  # polynomial p at the stage point, appending the power lines it needs
            return " + ".join("*".join([f"c{k}", *(power(i, e) for i, e in enumerate(slots[k][1]) if e)])
                              for k in terms[p])
        lines += [f"k{s}_{i} = {value(i) or '0.0'}" for i in range(n)]
        base += lines
        # the fiber stage at the same point, after the shared base lines
        lines += [f"{w[i]} = {v[i]} + {scale}*kv{s - 1}_{i}" for i in range(n) if s > 1]
        lines += [f"kv{s}_{i} = " + (" + ".join(f"({value(n + i * n + j)})*{w[j]}" for j in range(n)
                                                 if terms[n + i * n + j]) or "0.0") for i in range(n)]
        lifted += lines

    def loop(name, stages, *ends):  # a segment of `steps` RK4 steps; ends: (names, stage prefix)
        state = ", ".join(y for names, _ in ends for y in names)
        step = ", ".join(f"{y} + h6*({k}1_{i} + 2.0*{k}2_{i} + 2.0*{k}3_{i} + {k}4_{i})"
                         for names, k in ends for i, y in enumerate(names))
        # no fiber for the base loop
        out = "".join(f"({', '.join(names)},), " for names, _ in ends) + "None, " * (2 - len(ends)) + "t, "
        sphere = [] if drift_tol is None else [
            f"nrm = sqrt({' + '.join(f'{y}*{y}' for y in x)})", "drift = peak(nrm - 1.0)",
            f"if not drift <= {drift_tol!r}:", f"    return {out}drift",
            "if drift > worst:", "    worst = drift",
            f"{', '.join(x)}, = {', '.join(f'{y}/nrm' for y in x)},"]
        if sphere and len(ends) == 2:  # the fiber, onto the tangent plane at the new state
            sphere += [f"dot = {' + '.join(f'{y}*{w}' for y, w in zip(x, v))}",
                       f"{', '.join(v)}, = {', '.join(f'{w} - {y}*dot' for y, w in zip(x, v))},"]
        return (f"    def {name}(steps, t, rows, {state}):\n"
                f"        ({''.join(f'c{k}, ' for k in range(len(slots)))}) = c\n"
                "        h2, h6, worst = 0.5 * h, h / 6.0, 0.0\n        for _ in range(steps):\n"
                + "".join(f"            {line}\n" for line in stages)
                + f"            {state}, = {step},\n            t = t + h\n"
                + "".join(f"            {line}\n" for line in sphere)
                + f"            if rows is not None:\n                rows += (t, {state})\n"
                f"        return {out}worst\n")
    return ("def bind(h, c, sqrt, peak):\n" + loop("base", base, (x, "k"))
            + loop("lifted", lifted, (x, "k"), (v, "kv")) + "    return base, lifted\n")


class ScalarField:
    """A point -> real map with gradient access (analytic or central FD)."""

    def __init__(self, value, gradient=None):
        self._value = value
        self._gradient = gradient

    def __call__(self, x: np.ndarray) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return fd_jacobian(lambda y: [self._value(y)], x)[0]


def complete_lift(field: VectorField):
    """The tangent-bundle lift of a field, (x, v) -> (field(x), Df(x) v): the
    horizontal part is the base field's value at x and the vertical part is
    its Jacobian applied to v. The horizontal part therefore projects back
    onto the base field by construction."""
    return lambda p: (field(p.x), field.jacobian(p.x) @ p.v)


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
    computed in closed form from the partials each field derives on first use,
    component i as the one collected sum over k of dY_i/dx_k X_k and
    -dX_i/dx_k Y_k, so iterated brackets keep analytic Jacobians; anything
    else falls back to a pointwise formula with a finite-difference Jacobian.
    Polynomial fields of different dimensions raise ValueError.
    """
    if isinstance(x_field, PolynomialField) and isinstance(y_field, PolynomialField):
        if x_field.dim != y_field.dim:
            raise ValueError(f"cannot bracket fields of dimensions {x_field.dim} and {y_field.dim}")
        xc, xd, yc, yd = x_field.components, x_field._partials, y_field.components, y_field._partials
        n = x_field.dim
        comps = [[term for k in range(n)
                  for term in _poly_mul(yd[i][k], xc[k])
                  + [(-c, e) for c, e in _poly_mul(xd[i][k], yc[k])]]
                 for i in range(n)]
        return PolynomialField(comps, n, name=f"[{x_field.name},{y_field.name}]")

    def value(x):
        return y_field.jacobian(x) @ x_field(x) - x_field.jacobian(x) @ y_field(x)

    return VectorField(value, name=f"[{x_field.name},{y_field.name}]", value_noise=_noise(x_field, y_field))


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

    return VectorField(value, name=f"{field.name}^c", value_noise=_noise(field))


@np.errstate(over="ignore", invalid="ignore")  # a value that overflows is not warned about
def check_pi_related(field: VectorField, samples) -> float:
    """Max over samples of |horizontal part of the lift - field at the base|.

    Zero by construction; kept as an executable statement of the contract. A
    deviation that is not finite raises NonFiniteError naming its x and v.
    """
    lifted = complete_lift(field)
    worst = 0.0
    for p in samples:
        h, _ = lifted(p)
        dev = float(np.linalg.norm(h - field(p.x)))
        if not np.isfinite(dev):  # max(worst, nan) would keep worst
            raise NonFiniteError(f"pi-relatedness deviation is not finite at x={p.x.tolist()}, v={p.v.tolist()}")
        worst = max(worst, dev)
    return worst


def field_from_descriptor(desc: dict, n: int | None = None) -> PolynomialField:
    """Deserialize a field descriptor from a system-definition file; every
    kind gives a polynomial field. An entry that is not a finite JSON number
    (an integer for a dim or an exponent) raises ValueError, and so, given the
    manifold's ambient dimension n, does a field of any other dimension."""
    if not isinstance(desc, dict):
        raise ValueError("field descriptor must be an object")
    kind = desc.get("type")
    if kind == "linear":
        field = LinearField(json_numbers(desc["matrix"]))
    elif kind == "constant":
        field = ConstantField(json_numbers(desc["vector"]))
    elif kind == "zero":
        if (dim := _number(desc["dim"], integer=True)) < 1:  # np.zeros would refuse -1 in its own words
            raise ValueError(f"zero field dim must be at least 1, got {dim}")
        field = ConstantField(np.zeros(dim), name="zero") if n in (None, dim) else None  # refused unallocated
    elif kind == "polynomial":
        comps = [
            [(_number(coeff), exps if type(exps) is list and all(type(e) is int for e in exps)
              else json_numbers(exps, integer=True).tolist())
             for coeff, exps in component]
            for component in desc["components"]
        ]
        field = PolynomialField(comps, len(comps))
    else:
        raise ValueError(f"unknown field type {kind!r}")
    if n not in (None, dim := (dim if field is None else field.dim)):
        raise ValueError(f"field of dimension {dim} on a manifold of ambient dimension {n}")
    return field
