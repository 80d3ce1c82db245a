"""Generalized hypergeometric series pFq and the monic operator annihilating it.

The operator is expanded symbolically from the Euler-operator product form

    d/dz (th + b_1 - 1) ... (th + b_q - 1) - (th + a_1) ... (th + a_p),

with th = z d/dz, then divided by its leading coefficient z^q (1 - z); this
avoids transcribing any fixed-order display and works for all q.

``ghg_operator_esym`` builds L_{alpha, beta, e_1+1..e_N+1; gamma, e_1..e_N}
from the elementary symmetric functions of e_1..e_N alone, which is what the
factorization checks need (the individual e_i may be irrational).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .exactalg import MultiPoly, RatFunc, Ring, UsageError, Value, _val, poly_mul
from .oredop import DiffOp


class GHGError(Exception):
    pass


@dataclass(frozen=True)
class GHGParams:
    """Upper/lower parameter lists of pFq (exact values or expressions)."""

    ring: Ring
    upper: tuple
    lower: tuple

    @classmethod
    def make(cls, upper: Sequence[Value], lower: Sequence[Value],
             ring: Ring) -> "GHGParams":
        return cls(ring, tuple(_val(a, ring) for a in upper),
                   tuple(_val(b, ring) for b in lower))


def _euler_poly_op(coeffs: Sequence[RatFunc], ring: Ring, var: str) -> DiffOp:
    """sum coeffs[k] * th^k as a normal-ordered operator, th = z d/dz."""
    theta = DiffOp(ring, var, [ring.zero, ring.var(var)])
    out = DiffOp.zero_op(ring, var)
    power = DiffOp.identity(ring, var)
    for k, c in enumerate(coeffs):
        if k:
            power = theta * power
        if c != 0:
            out = out + power.scale(c)
    return out


def _theta_shift_product(shifts: Sequence[RatFunc], ring: Ring) -> list:
    """Coefficients (in th) of prod_i (th + shifts[i]), low power first."""
    coeffs = [RatFunc.of(1, ring)]
    for s in shifts:
        new = [RatFunc.of(0, ring)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] + c * s
        coeffs = new
    return coeffs


def ghg_operator(g: GHGParams, var: str = "z") -> DiffOp:
    """Monic operator of order q+1 annihilating pFq; requires p = q + 1."""
    p, q = len(g.upper), len(g.lower)
    if p != q + 1:
        raise GHGError(f"operator requires p = q + 1 (got p={p}, q={q}): "
                       "the non-Fuchsian case is unsupported")
    ring = g.ring
    lower_shifted = [b - 1 for b in g.lower]
    b_poly = _theta_shift_product(lower_shifted, ring)
    a_poly = _theta_shift_product(list(g.upper), ring)
    D = DiffOp.d(ring, var)
    L = D * _euler_poly_op(b_poly, ring, var) - _euler_poly_op(a_poly, ring, var)
    return L.scale(RatFunc.of(1, ring) / L.leading)


def esym_shifted(esym: Sequence[RatFunc], c: Value, ring: Ring) -> list:
    """Elementary symmetric functions of (e_1 + c, ..., e_N + c) expressed
    through those of (e_1, ..., e_N); index 0 holds 1."""
    N = len(esym)
    cc = _val(c, ring)
    base = [RatFunc.of(1, ring)] + [_val(e, ring) for e in esym]
    out = []
    for k in range(N + 1):
        acc = RatFunc.of(0, ring)
        for j in range(k + 1):
            acc = acc + base[j] * comb(N - j, k - j) * cc ** (k - j)
        out.append(acc)
    return out


def ghg_operator_esym(sum_ab: Value, prod_ab: Value, gamma: Value,
                      esym: Sequence[Value], ring: Ring, var: str = "z") -> DiffOp:
    """L_{alpha, beta, e_1+1, .., e_N+1; gamma, e_1, .., e_N} built from the
    elementary symmetric functions of the e_i (no individual e_i needed).

    Only alpha + beta and alpha * beta enter, so irrational pairs are fine.
    """
    es = [_val(e, ring) for e in esym]
    N = len(es)
    sab, pab, g = _val(sum_ab, ring), _val(prod_ab, ring), _val(gamma, ring)

    def poly_from_esym(shift_consts: list, extra: list) -> list:
        # prod(th + e_i + c) expanded, then multiplied by prod(th + r) for r in extra
        coeffs = None
        for c in shift_consts:
            sy = esym_shifted(es, c, ring)
            # sum_k sy[k] th^(N-k), low power first
            cs = [sy[N - i] for i in range(N + 1)]
            coeffs = cs if coeffs is None else poly_mul(coeffs, cs)
        if coeffs is None:
            coeffs = [RatFunc.of(1, ring)]
        for r in extra:
            coeffs = poly_mul(coeffs, [r, RatFunc.of(1, ring)])
        return coeffs

    # lowers: (gamma, e_1..e_N) -> factors (th + gamma - 1), (th + e_i - 1)
    b_poly = poly_from_esym([-1], [g - 1])
    # uppers: (alpha, beta, e_i + 1) -> (th^2 + (a+b) th + ab), (th + e_i + 1)
    a_poly = poly_mul(poly_from_esym([1], []), [pab, sab, RatFunc.of(1, ring)])
    D = DiffOp.d(ring, var)
    L = D * _euler_poly_op(b_poly, ring, var) - _euler_poly_op(a_poly, ring, var)
    assert L.order == N + 2
    return L.scale(RatFunc.of(1, ring) / L.leading)


# -- series evaluation ---------------------------------------------------------


def pochhammer(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


@dataclass(frozen=True)
class PartialSum:
    value: Fraction
    terminated: bool
    terms_used: int
    tail_bound: Optional[Fraction] = None   # crude geometric bound, None if n/a
    converged: bool = True                  # False when the tail is not decaying


def pfq_eval(g: GHGParams, z: Fraction, terms: int = 24) -> PartialSum:
    """Exact partial sum of pFq at a rational argument.

    Terminating series (some upper parameter a nonpositive integer) are
    summed completely and exactly.  Otherwise `terms` terms are summed and a
    crude geometric tail bound is attached.
    """
    uppers = []
    lowers = []
    for a in g.upper:
        f = a.as_poly().const_value() if a.is_poly() and a.as_poly().is_const() else None
        if f is None:
            raise UsageError("pfq_eval requires concrete rational parameters")
        uppers.append(f)
    for b in g.lower:
        f = b.as_poly().const_value() if b.is_poly() and b.as_poly().is_const() else None
        if f is None:
            raise UsageError("pfq_eval requires concrete rational parameters")
        lowers.append(f)
    z = Fraction(z)
    stop = None
    for a in uppers:
        if a.denominator == 1 and a <= 0:
            n_max = -int(a)
            stop = n_max if stop is None else min(stop, n_max)
    n_terms = stop + 1 if stop is not None else terms
    for b in lowers:
        if b.denominator == 1 and b <= 0 and 1 - int(b) < n_terms:
            raise GHGError(f"lower parameter {b} hits a Pochhammer zero "
                           "before termination")
    total = Fraction(0)
    term = Fraction(1)
    last = Fraction(0)
    for n in range(n_terms):
        total += term
        last = term
        num = Fraction(1)
        for a in uppers:
            num *= a + n
        den = Fraction(n + 1)
        for b in lowers:
            den *= b + n
        term = term * z * num / den
    if stop is not None:
        return PartialSum(total, True, n_terms)
    if term == 0:
        return PartialSum(total, False, n_terms, Fraction(0), True)
    # crude but safe geometric majorant of the omitted tail: for n >= K the
    # term ratio is at most |z| * prod(1 + |a|/K) / prod(1 - |b|/K)
    K = n_terms
    r_hat = abs(z)
    for a in uppers:
        r_hat *= 1 + abs(a) / K
    for b in lowers:
        if abs(b) >= K:
            return PartialSum(total, False, n_terms, None, False)
        r_hat /= 1 - abs(b) / K
    if len(uppers) <= len(lowers):  # ratio has an extra 1/n decay
        r_hat /= K
    if r_hat < 1:
        return PartialSum(total, False, n_terms, abs(term) / (1 - r_hat), True)
    return PartialSum(total, False, n_terms, None, False)


def pfq_sym_eval(k: int, g: Value, h: Value, E1: Value, E2: Value, z: Value,
                 ring: Ring | None = None):
    """The Theorem-6.1 4F3 with upper (-k-1, k+g+h+1, e1+1, e2+1) and lower
    (g+3/2, e1, e2), evaluated through the symmetric combinations
    E1 = e1 + e2, E2 = e1 e2.

    Uses (e1+1)_n (e2+1)_n / ((e1)_n (e2)_n) = (E2 + n E1 + n^2)/E2, so the
    value is rational in (g, h, E1, E2, z) even for irrational e_i.  The sum
    terminates after k+2 terms; the result is a polynomial of degree k+1 in z.
    """
    if ring is None:
        for v in (g, h, E1, E2, z):
            if isinstance(v, (MultiPoly, RatFunc)):
                ring = v.ring
                break
    if ring is None:
        ring = Ring(("z",))
    gv, hv, e1v, e2v, zv = (_val(v, ring) for v in (g, h, E1, E2, z))
    if e2v.is_zero:
        raise GHGError("E2 = 0: the symmetric telescoping ratio is undefined")
    a1 = RatFunc.of(-k - 1, ring)
    a2 = gv + hv + (k + 1)
    c1 = gv + Fraction(3, 2)
    total = RatFunc.of(0, ring)
    term = RatFunc.of(1, ring)
    for n in range(k + 2):
        ratio = (e2v + n * e1v + n * n) / e2v
        total = total + term * ratio
        den = c1 + n
        if den.is_zero:
            raise GHGError("lower parameter g + 3/2 hits a Pochhammer zero")
        term = term * zv * (a1 + n) * (a2 + n) / ((n + 1) * den)
    return total
