"""Floating-point oracles: numeric monodromy, reducibility witness, and the
hypergeometric-sum decomposition check.

The monodromy of a fundamental system around z = t is the identity exactly
when the singularity is apparent; continuing a fundamental system around a
small loop therefore gives an independent numeric test of the exact
apparency machinery.  The continuation steps the Taylor expansion at an
ordinary point along a 16-gon, each step at most half the distance to the
nearest singularity, both columns through one table per step of the lag
multipliers of Heun's four-term recurrence (`_lags`; analytic continuation
of D-finite functions, van der Hoeven 1999).  Hardware doubles throughout;
the certification-grade high-precision arithmetic lives in the
factorization pipeline, which uses this oracle only as a sanity cross-check.

The 2x2 monodromy matrices are tuples of rows in plain Python, and the
reducibility witness reads their eigenvectors in closed form; the
decomposition takes its 2F1 values from ``mpmath.fp`` and its least squares
and condition number from mpmath at double precision.  Only the
decomposition loads mpmath, so a cold ``monodromy`` command does not.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .heun import HeunParams
from .exactalg import UsageError, poly_eval, poly_shift


class IntegrationError(Exception):
    pass


class InconclusiveError(Exception):
    """Monodromy defect fell in the gap between the pass and fail thresholds."""


def _cnum(v) -> complex:
    """HeunParams fields to complex (must be concrete rationals)."""
    f = v.fraction()
    if f is None:
        raise UsageError("numeric oracle requires concrete rational parameters")
    return complex(f)


def heun_ode_coeffs(p: HeunParams):
    """(P, R) with y'' + P(z) y' + R(z) y = 0 as complex callables."""
    a, b, g, d, e, q, t = (_cnum(getattr(p, n)) for n in
                           ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t"))

    def P(z):
        return g / z + d / (z - 1) + e / (z - t)

    def R(z):
        return (a * b * z - q) / (z * (z - 1) * (z - t))

    return P, R


def _heun_polys(p: HeunParams):
    """(D, P1, R1) of D y'' + P1 y' + R1 y = 0, ascending in z:
    D = z(z-1)(z-t), P1 = g (z-1)(z-t) + d z (z-t) + e z (z-1), R1 = a b z - q."""
    a, b, g, d, e, q, t = (_cnum(getattr(p, n)) for n in
                           ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t"))
    return ([0, t, -(1 + t), 1.0],
            [g * t, -(g * (1 + t) + d * t + e), g + d + e],
            [-q, a * b])


def _lags(polys, z0: complex, h: complex):
    """The lag table of the Taylor recurrence in s = (z - z0)/h of
    D y'' + P1 y' + R1 y = 0 (``polys`` = (D, P1, R1), ascending in z, of
    degree at most 3, 2, 1): ``rows(start, stop)`` lists (a_1(n), a_2(n),
    a_3(n)) for n in range(start, stop), c_(n+2) = sum_l a_l(n) c_(n+2-l),
        a_l(n) = -(D_l k (k-1) + P1_(l-1) k + R1_(l-2)) / (D_0 (n+2) (n+1)),
    k = n + 2 - l, over the shifted, h-scaled (D, P1, R1): at an ordinary
    point, `heun.frobenius_series`'s T(j, d)."""
    D, P, R = (poly_shift((list(f) + [0] * 4)[:4 - k], z0) for k, f in enumerate(polys))
    # the equation in s: D(z0 + h s) y'' + h P1(..) y' + h^2 R1(..) y = 0
    D, P, R = ([c * h ** (m + k) for m, c in enumerate(a)] for k, a in enumerate((D, P, R)))
    if D[0] == 0:
        raise IntegrationError("expansion point is singular")
    # each numerator over -D_0 as (x n + y) n + z
    inv = -1 / D[0]
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (
        (inv * D[1], inv * (D[1] + P[0]), inv * P[0]),
        (inv * D[2], inv * (P[1] - D[2]), inv * R[0]),
        (inv * D[3], inv * (P[2] - 3 * D[3]), inv * (2 * D[3] - P[2] + R[1])))

    def rows(start: int, stop: int) -> list:
        ws = ((n, 1 / ((n + 2) * (n + 1))) for n in range(start, stop))
        return [(((x1 * n + y1) * n + z1) * w, ((x2 * n + y2) * n + z2) * w,
                 ((x3 * n + y3) * n + z3) * w) for n, w in ws]

    return rows


def heun_taylor(p: HeunParams, z0: complex, y0: complex, dy0: complex,
                order: int = 80):
    """Taylor coefficients of the Heun solution at an ordinary point z0."""
    cs = [0j, y0, dy0]      # c_-1 = 0
    for a1, a2, a3 in _lags(_heun_polys(p), z0, 1.0)(0, order - 1):
        cs.append(a1 * cs[-1] + a2 * cs[-2] + a3 * cs[-3])
    return cs[1:]


def _step(polys, z0: complex, h: complex, cols: list, tol: float) -> list:
    """[(y, y') at z0 + h] of the columns (y, y') at z0, both through one lag
    table (`_lags`) to one order, doubled until each tail is below the
    tolerance; |h| is at most half the distance to any singularity, so the
    coefficients in s decay like 2^-n."""
    # a tail below double precision is never reliably reached: terms stall
    # among the subnormals and the order would double without end
    floor = max(tol, sys.float_info.epsilon)
    rows = _lags(polys, z0, h)
    # per column: c_(n-1), c_n, c_(n+1) and the sums of c_k and k c_k in s
    (u0, du), (v0, dv) = cols
    um, u1, vm, v1 = 0j, h * du, 0j, h * dv
    su, tu, sv, tv = u0 + u1, u1, v0 + v1, v1
    n, order = 0, 32
    while True:
        for k, (a1, a2, a3) in enumerate(rows(n, order - 1), n + 2):
            um, u0, u1 = u0, u1, a1 * u1 + a2 * u0 + a3 * um
            vm, v0, v1 = v0, v1, a1 * v1 + a2 * v0 + a3 * vm
            su, tu, sv, tv = su + u1, tu + k * u1, sv + v1, tv + k * v1
        if not all(map(cmath.isfinite, (su, tu, sv, tv))):
            raise IntegrationError("Taylor step overflowed")
        if (order * (abs(u1) + abs(u0)) <= floor * max(1.0, abs(su), abs(tu))
                and order * (abs(v1) + abs(v0)) <= floor * max(1.0, abs(sv), abs(tv))):
            return [(su, tu / h), (sv, tv / h)]
        n, order = order - 1, 2 * order


def _transfer_matrix(polys, sings: Sequence[complex], path: Sequence[complex],
                     tol: float) -> tuple:
    """2x2 fundamental-matrix transfer along the polygon through ``path``,
    as a tuple of rows: Taylor steps of at most half the distance to the
    nearest of ``sings``, the roots of D."""
    cols = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]     # (y, y') of each solution
    z = path[0]
    for target in path[1:]:
        while z != target:
            dist = min(abs(z - v) for v in sings)
            # a path through a singularity: the steps shrink until z + h
            # rounds back to z
            if dist < 1e-13 * max(1.0, abs(z)):
                raise IntegrationError("path runs into a singularity")
            h = target - z
            if abs(h) > dist / 2:
                h *= dist / 2 / abs(h)
            cols = _step(polys, z, h, cols, tol)
            z = target if h == target - z else z + h
    (y1, dy1), (y2, dy2) = cols
    return (y1, y2), (dy1, dy2)


def _matmul(A: tuple, B: tuple) -> tuple:
    """Product of two 2x2 matrices given as tuples of rows."""
    return tuple(tuple(r[0] * B[0][j] + r[1] * B[1][j] for j in range(2))
                 for r in A)


def _max_abs(A: tuple) -> float:
    return max(abs(v) for row in A for v in row)


def _norm(v: Sequence[complex]) -> float:
    return math.hypot(*(abs(x) for x in v))


def _eigenvectors(A: tuple) -> list:
    """Unit eigenvectors of a 2x2 matrix given as a tuple of rows: for each
    eigenvalue l the longer of the null vectors (b, l - a) and (l - d, c) of
    A - l I; a multiple of the identity gives the unit vectors."""
    (a, b), (c, d) = A
    mid, root = (a + d) / 2, cmath.sqrt(((a - d) / 2) ** 2 + b * c)
    out = []
    for lam, unit in ((mid + root, (1, 0)), (mid - root, (0, 1))):
        v = max(((b, lam - a), (lam - d, c)), key=_norm)
        n = _norm(v)
        out.append(tuple(x / n for x in v) if n else unit)
    return out


def _off_identity(A: tuple) -> float:
    """max |A - I| over the entries of a 2x2 matrix."""
    (a, b), (c, d) = A
    return max(abs(a - 1), abs(b), abs(c), abs(d - 1))


@dataclass(frozen=True)
class MonodromyMatrix:
    entries: tuple      # ((a, b), (c, d)), complex
    loop: str
    basepoint: complex

    def distance_from_identity(self) -> float:
        return _off_identity(self.entries)

    def det(self) -> complex:
        (a, b), (c, d) = self.entries
        return a * d - b * c


def _singularities(p: HeunParams) -> dict:
    return {"zero": 0.0 + 0j, "one": 1.0 + 0j, "t": _cnum(p.t)}


def _circle(center: complex, r: float, base: complex, turn: int = 1) -> list:
    """Closed polygon from ``base`` around ``center``: 16 vertices on the
    circle |z - center| = r, counterclockwise (``turn`` = -1: clockwise)."""
    th0 = cmath.phase(base - center)
    ring = [center + r * cmath.exp(1j * (th0 + turn * math.pi * k / 8))
            for k in range(16)]
    return [base, *ring, ring[0], base]


def monodromy(p: HeunParams, loop_target: str, tol: float = 1e-12,
              basepoint: Optional[complex] = None) -> MonodromyMatrix:
    """Monodromy matrix of a fundamental system around one finite singularity
    (or "infinity": a circle enclosing all of them), counterclockwise.

    Loop radius is half the distance to the nearest other singularity with
    the basepoint on the circle; passing a common basepoint makes matrices
    for different loops composable.  ``tol`` is the truncation tolerance of
    each Taylor step and must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise UsageError(f"tol must be a positive finite number, got {tol}")
    sings = _singularities(p)
    if loop_target == "infinity":
        # counterclockwise around the point at infinity = clockwise in the
        # finite plane, so the product relation M0 M1 = Minf^-1 comes out in
        # the displayed orientation
        center, turn = 0j, -1
        r = 3.0 * max(1.0, *(abs(v) for v in sings.values()))
    else:
        if loop_target not in sings:
            raise UsageError("loop_target must be zero|one|t|infinity")
        center, turn = sings[loop_target], 1
        r = 0.5 * min(abs(center - v) for k, v in sings.items() if k != loop_target)
    base = center + r if basepoint is None else basepoint
    M = _transfer_matrix(_heun_polys(p), list(sings.values()),
                         _circle(center, r, base, turn), tol)
    return MonodromyMatrix(M, loop_target, base)


#: monodromy distances from the identity: below APPARENT_BELOW z = t is
#: apparent, above NOT_APPARENT_ABOVE it is not, in between inconclusive
APPARENT_BELOW = 1e-6
NOT_APPARENT_ABOVE = 1e-3


def apparency_verdict(d: float) -> str:
    """"apparent", "not_apparent" or "inconclusive" for a monodromy distance
    d from the identity."""
    if d < APPARENT_BELOW:
        return "apparent"
    return "not_apparent" if d > NOT_APPARENT_ABOVE else "inconclusive"


def classify_apparent(p: HeunParams, tol: float = 1e-12) -> bool:
    """True/False apparency of z = t by monodromy distance from identity;
    raises InconclusiveError inside the threshold gap."""
    d = monodromy(p, "t", tol=tol).distance_from_identity()
    verdict = apparency_verdict(d)
    if verdict == "inconclusive":
        raise InconclusiveError(f"monodromy defect {d:.3e} in the threshold gap")
    return verdict == "apparent"


@dataclass(frozen=True)
class Witness:
    vector: tuple       # unit eigenvector, complex
    angle_defect: float


def reducibility_witness(p: HeunParams):
    """Common invariant direction of the monodromies around 0 and 1.

    Returns a Witness when some eigendirection of one matrix is carried to
    itself by the other within 1e-5 (sine of the angle), else the minimized
    defect wrapped in a Witness with angle_defect > 1e-5.
    """
    sings = _singularities(p)
    span = max(abs(sings["t"]), 1.0)
    basepoint = -0.61j * span
    M0, M1 = (monodromy(p, loop, basepoint=basepoint).entries
              for loop in ("zero", "one"))
    best = None
    for M, other in ((M0, M1), (M1, M0)):
        for v in _eigenvectors(M):
            w = tuple(r[0] * v[0] + r[1] * v[1] for r in other)
            nw = _norm(w)
            if nw == 0:
                continue
            s = v[0].conjugate() * w[0] + v[1].conjugate() * w[1]
            defect = _norm((w[0] - s * v[0], w[1] - s * v[1])) / nw
            if best is None or defect < best.angle_defect:
                best = Witness(v, defect)
    if best is None or best.angle_defect > 1e-5:
        return None, best
    return best, best


def product_relation_defect(p: HeunParams, tol: float = 1e-12) -> float:
    """max |M0 M1 M_inf - I| / (max|M0 M1| max|M_inf|) over composable loops
    from one basepoint.

    Finite loops counterclockwise from a basepoint below the real axis; the
    infinity loop counterclockwise around the point at infinity, so that
    M0 M1 M_inf = I for an apparent z = t.  The product is compared with the
    identity directly: M_inf is badly conditioned (1.4e10 on a test
    instance), so inverting it would bury the continuation error.  Relative
    to the scale of the factors the defect is at continuation accuracy.
    """
    sings = _singularities(p)
    span = max(abs(sings["t"]), 1.0)
    basepoint = -0.61j * span
    M0, M1, Minf = (monodromy(p, loop, tol=tol, basepoint=basepoint).entries
                    for loop in ("zero", "one", "infinity"))
    prod = _matmul(M0, M1)
    return _off_identity(_matmul(prod, Minf)) / (_max_abs(prod) * _max_abs(Minf))


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: tuple     # complex, one per basis function
    residual: float
    condition_number: float


def decompose_2f1(p: HeunParams, sample_points: Optional[Sequence[float]] = None,
                  holdout_points: Optional[Sequence[float]] = None
                  ) -> DecompositionResult:
    """Fit a numeric Heun solution (eps = -2, z = t apparent) against the six
    hypergeometric basis functions

        z^(1-gamma+k)   2F1(alpha-gamma+3, beta-gamma+k+1; 2-gamma+k; z)
        (1-z)^(gamma-alpha-beta-2+k)
                        2F1(gamma-alpha-2+k, gamma-beta; gamma-alpha-beta-1+k; 1-z)

    for k = 0, 1, 2 (first upper parameter and the z = 1 family exponents
    carry the -eps = 2 shift; cross-checked against exact local series, the
    unshifted variants fit nothing).  Requires alpha, beta, beta-gamma,
    beta-delta not integers.  The held-out residual is the oracle; callers
    accept the decomposition claim when it is below 1e-8.
    """
    import mpmath

    hyp2f1 = mpmath.fp.hyp2f1     # real parameters, complex argument
    a, b, g, d = (_cnum(getattr(p, n)).real
                  for n in ("alpha", "beta", "gamma", "delta"))
    for name, v in (("alpha", a), ("beta", b), ("beta-gamma", b - g),
                    ("beta-delta", b - d)):
        if abs(v - round(v)) < 1e-9:
            raise UsageError(f"hypothesis violated: {name} is an integer")
    z0 = 0.5
    if sample_points is None:
        # a ring in the disc about 1/2 where both series converge and the
        # principal branches are unambiguous; complex spread keeps six smooth
        # functions from over-fitting a non-member
        sample_points = [z0 + 0.3 * cmath.exp(2j * math.pi * i / 16)
                         for i in range(16)]
    if holdout_points is None:
        holdout_points = [z0 + 0.22 * cmath.exp(2j * math.pi * (i + 0.5) / 8)
                          for i in range(8)]
    coeffs = heun_taylor(p, z0, 1.0 + 0j, 0.3 + 0j, order=130)

    def basis(z):
        out = [z ** (1 - g + k) * hyp2f1(a - g + 3, b - g + k + 1, 2 - g + k, z)
               for k in range(3)]
        out += [(1 - z) ** (g - a - b - 2 + k)
                * hyp2f1(g - a - 2 + k, g - b, g - a - b - 1 + k, 1 - z)
                for k in range(3)]
        if not all(cmath.isfinite(v) for v in out):
            raise IntegrationError("2F1 basis value is not finite; move the "
                                   "sample point")
        return out

    with mpmath.mp.workprec(53):
        A = mpmath.matrix([basis(z) for z in sample_points])
        y = mpmath.matrix([poly_eval(coeffs, z - z0) for z in sample_points])
        sv = mpmath.svd_c(A, compute_uv=False)
        cond = float(max(sv) / min(sv)) if min(sv) else math.inf
        if cond > 1e11:
            raise IntegrationError(f"basis is ill-conditioned: cond = {cond:.3e}")
        sol = tuple(complex(c) for c in mpmath.qr_solve(A, y)[0])
    yh = [poly_eval(coeffs, z - z0) for z in holdout_points]
    scale = max(1.0, *(abs(v) for v in yh))
    residual = max(abs(sum(c * f for c, f in zip(sol, basis(z))) - v)
                   for z, v in zip(holdout_points, yh)) / scale
    return DecompositionResult(sol, residual, cond)
