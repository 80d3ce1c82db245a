"""Generalized hypergeometric series pFq and the monic operator annihilating it.

The operator is expanded symbolically from the Euler-operator product form

    d/dz (th + b_1 - 1) ... (th + b_q - 1) - (th + a_1) ... (th + a_p),

with th = z d/dz, then divided by its leading coefficient z^q (1 - z); this
avoids transcribing any fixed-order display and works for all q.

L_{alpha, beta, e_1+1..e_N+1; gamma, e_1..e_N} depends on the e_i only
through their elementary symmetric functions sigma_k, and each of its
coefficients is affine in them.  `_theta_table` writes it down once as int
affine forms over the scalars alpha + beta, alpha beta and gamma, which is
what the factorization checks need (the individual e_i may be irrational).
Both lanes read that table: ``ghg_operator_esym`` assembles the exact
operator from it, and the numeric verdict (``_mpnum.theta_at``) evaluates
its numerators at fixed-point esym values, one (A_j, B_j) pair per D^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import sub
from typing import Optional, Sequence

from .exactalg import MultiPoly, RatFunc, Ring, UsageError, Value, _over_lcm, _val
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


def _stirling(n: int) -> list:
    """Rows k < n of the Stirling numbers of the second kind S(k, j),
    S(k, j) = j S(k-1, j) + S(k-1, j-1)."""
    rows = [[1]]
    for k in range(1, n):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, k + 1)])
    return rows


def _euler_poly_op(coeffs: Sequence[RatFunc], ring: Ring) -> DiffOp:
    """sum coeffs[k] * th^k as a normal-ordered operator, th = z d/dz, by
    th^k = sum_j S(k, j) z^j D^j (`_stirling`)."""
    stirling = _stirling(len(coeffs))
    z = RatFunc.of(ring.var("z"), ring)
    zj = RatFunc.of(1, ring)  # z**j
    out = []
    for j in range(len(coeffs)):
        c = RatFunc.of(0, ring)
        for k in range(j, len(coeffs)):
            if stirling[k][j] and coeffs[k] != 0:
                c = c + coeffs[k] * stirling[k][j]
        out.append(c * zj)
        zj = zj * z
    return DiffOp(ring, "z", out)


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


def ghg_operator(g: GHGParams) -> DiffOp:
    """Monic operator of order q+1 annihilating pFq; requires p = q + 1."""
    p, q = len(g.upper), len(g.lower)
    if p != q + 1:
        raise GHGError(f"operator requires p = q + 1 (got p={p}, q={q}): "
                       "the non-Fuchsian case is unsupported")
    ring = g.ring
    lower_shifted = [b - 1 for b in g.lower]
    b_poly = _theta_shift_product(lower_shifted, ring)
    a_poly = _theta_shift_product(list(g.upper), ring)
    D = DiffOp.d(ring, "z")
    L = D * _euler_poly_op(b_poly, ring) - _euler_poly_op(a_poly, ring)
    return L.scale(RatFunc.of(1, ring) / L.leading)


@lru_cache(maxsize=None)
def _theta_forms(N: int) -> tuple:
    """`_theta_table` with int entries over the scalar basis (1, alpha +
    beta, alpha beta, gamma): for each j, one (A, B) pair of vectors
    [const, sigma_1..sigma_N] per basis scalar.  Depends on N alone."""
    zero = (0,) * (N + 1)

    def shifted(c: int) -> list:
        # prod(th + e_i + c) = sum_m P[m] th^m with P[m] = sigma_(N-m)(e + c)
        # = sum_(i <= N-m) comb(N - i, N - m - i) c^(N-m-i) sigma_i
        return [tuple(comb(N - i, N - m - i) * c ** (N - m - i) if i <= N - m else 0
                      for i in range(N + 1)) for m in range(N + 1)]

    def at(P: list, m: int) -> tuple:
        return P[m] if 0 <= m <= N else zero

    up, low = shifted(1), shifted(-1)
    # a(th) = (th^2 + (alpha + beta) th + alpha beta) prod(th + e_i + 1)
    a = [(at(up, m - 2), at(up, m - 1), at(up, m), zero) for m in range(N + 3)]
    # b(th) = (th + gamma - 1) prod(th + e_i - 1)
    b = [(tuple(map(sub, at(low, m - 1), at(low, m))), zero, zero, at(low, m))
         for m in range(N + 2)]
    stirling = _stirling(N + 3)

    def euler(poly: list, j: int) -> list:
        # sum_k S(k, j) poly[k]: the z^j D^j part of poly(th)
        return [tuple(sum(stirling[k][j] * poly[k][s][i] for k in range(j, len(poly)))
                      for i in range(N + 1)) for s in range(4)]

    out, prev = [], [zero] * 4
    for j in range(N + 2):
        beta = euler(b, j)
        B = [tuple(j * x + y for x, y in zip(u, v)) for u, v in zip(beta, prev)]
        out.append(tuple(zip(euler(a, j), B)))
        prev = beta
    return tuple(out)


def _theta_table(sum_ab, prod_ab, gamma, N: int) -> list:
    """L_{alpha, beta, e_1+1..e_N+1; gamma, e_1..e_N} through the
    elementary symmetric functions sigma_k of the e_i, as one table.

    In th = z d/dz the operator is D b(th) - a(th) with

        a(th) = (th^2 + (alpha + beta) th + alpha beta) prod(th + e_i + 1),
        b(th) = (th + gamma - 1) prod(th + e_i - 1);

    th^k = sum_j S(k, j) z^j D^j (S: Stirling numbers of the second kind)
    makes its monic form sum_j (A_j z^j - B_j z^(j-1)) / (z^(N+2) -
    z^(N+1)) D^j, with A_j = sum_k S(k, j) a_k, B_j = j beta_j + beta_(j-1),
    beta_j = sum_k S(k, j) b_k, and coefficient 1 at D^(N+2).  Each A_j and
    B_j is affine in the sigma_k, with coefficients affine in the scalars.
    Returns, for j = 0..N+1, the triples (scalar, A, B) with int vectors A,
    B = [const, sigma_1..sigma_N]: A_j and B_j are the sums of scalar
    times vector over the triples.  The scalar is 1, sum_ab, prod_ab or
    gamma, as given (Fractions or RatFuncs)."""
    scalars = (1, sum_ab, prod_ab, gamma)
    return [[(s, A, B) for s, (A, B) in zip(scalars, rows) if any(A) or any(B)]
            for rows in _theta_forms(N)]


def ghg_operator_esym(sum_ab: Value, prod_ab: Value, gamma: Value,
                      esym: Sequence[Value], ring: Ring) -> DiffOp:
    """L_{alpha, beta, e_1+1, .., e_N+1; gamma, e_1, .., e_N} built from the
    elementary symmetric functions of the e_i (no individual e_i needed).

    Only alpha + beta and alpha * beta enter, so irrational pairs are fine.
    Each numerator of `_theta_table` is assembled per basis scalar as one
    int-term polynomial in z and the esym values, over their common
    denominator, then scaled by its scalar, and left over the factored
    z^(N+1) (z - 1), whose factors L~'s denominators share.
    """
    N = len(esym)
    table = _theta_table(*(_val(v, ring) for v in (sum_ab, prod_ab, gamma)), N)
    nums, fac = _over_lcm([RatFunc.of(1, ring)] + [_val(e, ring) for e in esym])
    den_c = lcm(*(n._c.denominator for n in nums))
    # sigma_i as int terms over 1 / den_c
    sigmas = [[(key, c * (n._c * den_c).numerator) for key, c in n._t.items()] for n in nums]
    uz = ring._field("z")[1]
    den = {ring.var("z"): N + 1, ring.var("z") - 1: 1}
    coeffs = []
    for j, rows in enumerate(table):
        num = RatFunc.of(0, ring)
        for s, A, B in rows:
            t: dict = {}
            for i, terms in enumerate(sigmas):
                for key, c in terms:
                    if A[i]:
                        k = key + j * uz
                        t[k] = t.get(k, 0) + A[i] * c
                    if B[i]:   # B_0 = 0, so j >= 1 here
                        k = key + (j - 1) * uz
                        t[k] = t.get(k, 0) - B[i] * c
            num = num + s * RatFunc(MultiPoly(ring, t, Fraction(1, den_c)), fac)
        # left uncancelled, so that every coefficient has the same factors:
        # D^j's numerator A_j z^j - B_j z^(j-1) is divisible by z^(j-1)
        coeffs.append(RatFunc(num.num, {**num.den_factors(), **den}, _simplify=False))
    return DiffOp(ring, "z", coeffs + [RatFunc.of(1, ring)])


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
    uppers = [a.fraction() for a in g.upper]
    lowers = [b.fraction() for b in g.lower]
    if None in uppers + lowers:
        raise UsageError("pfq_eval requires concrete rational parameters")
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
