"""Floating-point oracles: numeric monodromy, reducibility witness, and the
hypergeometric-sum decomposition check.

The monodromy of a fundamental system around z = t is the identity exactly
when the singularity is apparent; integrating the first-order system around
a small circle therefore gives an independent numeric test of the exact
apparency machinery.  Hardware doubles throughout; the certification-grade
high-precision arithmetic lives in the factorization pipeline, which uses
this integrator only as a sanity cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .heun import HeunParams
from .exactalg import UsageError, poly_eval, poly_shift


class IntegrationError(Exception):
    pass


class InconclusiveError(Exception):
    """Monodromy defect fell in the gap between the pass and fail thresholds."""


def _cnum(v) -> complex:
    """HeunParams fields to complex (must be concrete rationals)."""
    f = v.as_poly().const_value() if v.is_poly() and v.as_poly().is_const() else None
    if f is None:
        raise UsageError("numeric oracle requires concrete rational parameters")
    return complex(Fraction(f))


def heun_ode_coeffs(p: HeunParams):
    """(P, R) with y'' + P(z) y' + R(z) y = 0 as complex callables."""
    a, b, g, d, e, q, t = (_cnum(getattr(p, n)) for n in
                           ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t"))

    def P(z):
        return g / z + d / (z - 1) + e / (z - t)

    def R(z):
        return (a * b * z - q) / (z * (z - 1) * (z - t))

    return P, R


# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def _rk45(f: Callable, y0: tuple, tol: float, min_step: float = 1e-13):
    """Integrate y' = f(s, y) over s in [0, 1], adaptive Dormand-Prince."""
    s = 0.0
    y = tuple(y0)
    h = 0.05
    n = len(y0)
    while s < 1.0:
        h = min(h, 1.0 - s)
        if h < min_step:
            raise IntegrationError(
                "step size collapsed near a singularity; enlarge or shrink "
                "the loop radius")
        k = []
        for stage in range(7):
            ys = list(y)
            for j, a in enumerate(_DP_A[stage]):
                if a:
                    for i in range(n):
                        ys[i] += h * a * k[j][i]
            k.append(f(s + h * _DP_C[stage], tuple(ys)))
        y5 = tuple(y[i] + h * sum(b * k[j][i] for j, b in enumerate(_DP_B5))
                   for i in range(n))
        y4 = tuple(y[i] + h * sum(b * k[j][i] for j, b in enumerate(_DP_B4))
                   for i in range(n))
        err = max(abs(y5[i] - y4[i]) for i in range(n))
        scale = tol * max(1.0, max(abs(v) for v in y5))
        if err <= scale:
            s += h
            y = y5
        factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 2.0
        h *= min(4.0, max(0.1, factor))
    return y


def _transfer_matrix(P, R, path: Sequence, tol: float) -> np.ndarray:
    """2x2 fundamental-matrix transfer along a piecewise path.

    path: list of ("line", z0, z1) | ("arc", center, radius, th0, th1).
    """
    Y = np.eye(2, dtype=complex)
    for piece in path:
        if piece[0] == "line":
            _, z0, z1 = piece
            zfun = lambda s, z0=z0, z1=z1: z0 + (z1 - z0) * s
            dzfun = lambda s, z0=z0, z1=z1: z1 - z0
        else:
            _, c, r, th0, th1 = piece
            zfun = lambda s, c=c, r=r, th0=th0, th1=th1: (
                c + r * cmath.exp(1j * (th0 + (th1 - th0) * s)))
            dzfun = lambda s, c=c, r=r, th0=th0, th1=th1: (
                r * 1j * (th1 - th0) * cmath.exp(1j * (th0 + (th1 - th0) * s)))

        def f(s, y, zfun=zfun, dzfun=dzfun):
            z = zfun(s)
            dz = dzfun(s)
            y11, u11, y12, u12 = y
            Pz, Rz = P(z), R(z)
            return (dz * u11, dz * (-Rz * y11 - Pz * u11),
                    dz * u12, dz * (-Rz * y12 - Pz * u12))

        y0 = (Y[0, 0], Y[1, 0], Y[0, 1], Y[1, 1])
        yT = _rk45(f, y0, tol)
        Y = np.array([[yT[0], yT[2]], [yT[1], yT[3]]], dtype=complex)
    return Y


@dataclass(frozen=True)
class MonodromyMatrix:
    entries: np.ndarray
    loop: str
    basepoint: complex

    def distance_from_identity(self) -> float:
        return float(np.max(np.abs(self.entries - np.eye(2))))

    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))


def _singularities(p: HeunParams) -> dict:
    return {"zero": 0.0 + 0j, "one": 1.0 + 0j, "t": _cnum(p.t)}


def _loop_path(center: complex, others: Sequence[complex],
               basepoint: Optional[complex]) -> list:
    r = 0.5 * min(abs(center - o) for o in others)
    if basepoint is None:
        start = center + r
        return [("arc", center, r, 0.0, 2 * math.pi)]
    d = basepoint - center
    entry = center + r * d / abs(d)
    th0 = cmath.phase(d)
    return [("line", basepoint, entry),
            ("arc", center, r, th0, th0 + 2 * math.pi),
            ("line", entry, basepoint)]


def monodromy(p: HeunParams, loop_target: str, tol: float = 1e-12,
              basepoint: Optional[complex] = None) -> MonodromyMatrix:
    """Monodromy matrix of a fundamental system around one finite singularity
    (or "infinity": a circle enclosing all of them), counterclockwise.

    Loop radius is half the distance to the nearest other singularity with
    the basepoint on the circle; passing a common basepoint makes matrices
    for different loops composable.  ``tol`` must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise UsageError(f"tol must be a positive finite number, got {tol}")
    P, R = heun_ode_coeffs(p)
    sings = _singularities(p)
    if loop_target == "infinity":
        # counterclockwise around the point at infinity = clockwise in the
        # finite plane, so the product relation M0 M1 = Minf^-1 comes out in
        # the displayed orientation
        radius = 3.0 * max(1.0, *(abs(v) for v in sings.values()))
        if basepoint is None:
            path = [("arc", 0j, radius, 0.0, -2 * math.pi)]
            base = radius + 0j
        else:
            entry = radius * (basepoint / abs(basepoint))
            th0 = cmath.phase(basepoint)
            path = [("line", basepoint, entry),
                    ("arc", 0j, radius, th0, th0 - 2 * math.pi),
                    ("line", entry, basepoint)]
            base = basepoint
    else:
        if loop_target not in sings:
            raise UsageError("loop_target must be zero|one|t|infinity")
        center = sings[loop_target]
        others = [v for k, v in sings.items() if k != loop_target]
        path = _loop_path(center, others, basepoint)
        base = basepoint if basepoint is not None else (
            center + 0.5 * min(abs(center - o) for o in others))
    M = _transfer_matrix(P, R, path, tol)
    return MonodromyMatrix(M, loop_target, base)


#: monodromy distances from the identity: below APPARENT_BELOW z = t is
#: apparent, above NOT_APPARENT_ABOVE it is not, in between inconclusive
APPARENT_BELOW = 1e-6
NOT_APPARENT_ABOVE = 1e-3


def classify_apparent(p: HeunParams, tol: float = 1e-12,
                      pass_threshold: float = APPARENT_BELOW,
                      fail_threshold: float = NOT_APPARENT_ABOVE) -> bool:
    """True/False apparency of z = t by monodromy distance from identity;
    raises InconclusiveError inside the threshold gap."""
    M = monodromy(p, "t", tol=tol)
    d = M.distance_from_identity()
    if d < pass_threshold:
        return True
    if d > fail_threshold:
        return False
    raise InconclusiveError(f"monodromy defect {d:.3e} in the threshold gap")


@dataclass(frozen=True)
class Witness:
    vector: np.ndarray
    angle_defect: float


def reducibility_witness(p: HeunParams, tol: float = 1e-5,
                         integrator_tol: float = 1e-12):
    """Common invariant direction of the monodromies around 0 and 1.

    Returns a Witness when some eigendirection of one matrix is carried to
    itself by the other within `tol` (sine of the angle), else the minimized
    defect wrapped in a Witness with angle_defect > tol.
    """
    sings = _singularities(p)
    span = max(abs(sings["t"]), 1.0)
    basepoint = -0.61j * span
    M0 = monodromy(p, "zero", tol=integrator_tol, basepoint=basepoint).entries
    M1 = monodromy(p, "one", tol=integrator_tol, basepoint=basepoint).entries
    best = None
    for M, other in ((M0, M1), (M1, M0)):
        _, vecs = np.linalg.eig(M)
        for i in range(2):
            v = vecs[:, i]
            w = other @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                continue
            proj = (np.vdot(v, w)) * v / np.vdot(v, v)
            defect = float(np.linalg.norm(w - proj) / nw)
            if best is None or defect < best.angle_defect:
                best = Witness(v, defect)
    if best is None or best.angle_defect > tol:
        return None, best
    return best, best


def product_relation_defect(p: HeunParams, tol: float = 1e-12) -> float:
    """|| M0 M1 - (M_inf)^{-1} || over composable loops from one basepoint.

    Finite loops counterclockwise from a basepoint below the real axis; the
    infinity loop counterclockwise around the point at infinity.  Relative to
    the matrix norms (these monodromies are far from unitary) the defect is
    at integrator accuracy for an apparent z = t.
    """
    sings = _singularities(p)
    span = max(abs(sings["t"]), 1.0)
    basepoint = -0.61j * span
    M0 = monodromy(p, "zero", tol=tol, basepoint=basepoint).entries
    M1 = monodromy(p, "one", tol=tol, basepoint=basepoint).entries
    Minf = monodromy(p, "infinity", tol=tol, basepoint=basepoint).entries
    prod = M0 @ M1
    scale = max(1.0, float(np.max(np.abs(prod))))
    return float(np.max(np.abs(prod - np.linalg.inv(Minf)))) / scale


# -- series evaluation helpers --------------------------------------------------


def hyp2f1(a: complex, b: complex, c: complex, z: complex,
           tol: float = 1e-15, max_terms: int = 600) -> complex:
    """2F1 by direct summation; requires |z| comfortably below 1."""
    total = term = 1.0 + 0j
    for n in range(max_terms):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) < tol * max(1.0, abs(total)):
            return total
    raise IntegrationError("2F1 series did not converge; move the sample point")


def heun_taylor(p: HeunParams, z0: complex, y0: complex, dy0: complex,
                order: int = 80):
    """Taylor coefficients of the Heun solution at an ordinary point z0."""
    a, b, g, d, e, q, t = (_cnum(getattr(p, n)) for n in
                           ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t"))
    # polynomial coefficients of D y'' + P1 y' + R1 y = 0 shifted to u = z - z0
    # D = z(z-1)(z-t), P1 = g (z-1)(z-t) + d z (z-t) + e z (z-1), R1 = a b z - q
    D = poly_shift([0, t, -(1 + t), 1.0], z0)   # z^3 - (1+t) z^2 + t z
    P1 = poly_shift([g * t, -(g * (1 + t) + d * t + e), g + d + e], z0)
    R1 = poly_shift([-q, a * b], z0)
    ys = [y0, dy0]
    for s in range(order - 1):
        acc = 0j
        for m, Dm in enumerate(D):
            n2 = s + 2 - m
            if m and 0 <= n2 < len(ys):
                acc += Dm * ys[n2] * n2 * (n2 - 1)
        for m, Pm in enumerate(P1):
            n1 = s + 1 - m
            if 0 <= n1 < len(ys):
                acc += Pm * ys[n1] * n1
        for m, Rm in enumerate(R1):
            n0 = s - m
            if 0 <= n0 < len(ys):
                acc += Rm * ys[n0]
        mult = D[0] * (s + 2) * (s + 1)
        if mult == 0:
            raise IntegrationError("expansion point is singular")
        ys.append(-acc / mult)
    return ys


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: np.ndarray
    residual: float
    condition_number: float


def decompose_2f1(p: HeunParams, sample_points: Optional[Sequence[float]] = None,
                  holdout_points: Optional[Sequence[float]] = None,
                  residual_bound: float = 1e-8,
                  max_condition: float = 1e11) -> DecompositionResult:
    """Fit a numeric Heun solution (eps = -2, z = t apparent) against the six
    hypergeometric basis functions

        z^(1-gamma+k)   2F1(alpha-gamma+3, beta-gamma+k+1; 2-gamma+k; z)
        (1-z)^(gamma-alpha-beta-2+k)
                        2F1(gamma-alpha-2+k, gamma-beta; gamma-alpha-beta-1+k; 1-z)

    for k = 0, 1, 2 (first upper parameter and the z = 1 family exponents
    carry the -eps = 2 shift; cross-checked against exact local series, the
    unshifted variants fit nothing).  Requires alpha, beta, beta-gamma,
    beta-delta not integers.  The held-out residual is the oracle: below
    residual_bound the decomposition claim stands.
    """
    a, b, g, d = (_cnum(getattr(p, n)) for n in ("alpha", "beta", "gamma", "delta"))
    for name, v in (("alpha", a), ("beta", b), ("beta-gamma", b - g),
                    ("beta-delta", b - d)):
        if abs(v.imag) < 1e-12 and abs(v.real - round(v.real)) < 1e-9:
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
        out = []
        for k in range(3):
            out.append(z ** (1 - g + k)
                       * hyp2f1(a - g + 3, b - g + k + 1, 2 - g + k, z))
        for k in range(3):
            out.append((1 - z) ** (g - a - b - 2 + k)
                       * hyp2f1(g - a - 2 + k, g - b, g - a - b - 1 + k, 1 - z))
        return out

    A = np.array([basis(z) for z in sample_points], dtype=complex)
    y = np.array([poly_eval(coeffs, z - z0) for z in sample_points], dtype=complex)
    cond = float(np.linalg.cond(A))
    if cond > max_condition:
        raise IntegrationError(f"basis is ill-conditioned: cond = {cond:.3e}")
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    H = np.array([basis(z) for z in holdout_points], dtype=complex)
    yh = np.array([poly_eval(coeffs, z - z0) for z in holdout_points], dtype=complex)
    scale = max(1.0, float(np.max(np.abs(yh))))
    residual = float(np.max(np.abs(H @ sol - yh))) / scale
    return DecompositionResult(sol, residual, cond)
