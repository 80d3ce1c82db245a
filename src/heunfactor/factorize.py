"""Factorization of generalized hypergeometric operators through operators
with apparent singularities.

The engine verifies instances of the factorization

    L_{alpha, beta, e_1+1, ..., e_N+1; gamma, e_1, ..., e_N} = D~ . L~

where L~ is a second-order Fuchsian operator whose extra singularities
t_1..t_M (local exponents 0, m_k+1) are all apparent.  Right division of the
hypergeometric operator by L~'s cleared form Q L~ produces X, with D~ = X Q,
and an order-<=1 remainder whose coefficients are affine in the elementary
symmetric functions of the e_i; solving the induced linear system and
checking that the remainder then lies in the apparency ideal certifies the
instance.

Exact mode works in Q(params)[q] / (P_app(q)) for one extra singularity and
falls back to a budgeted Groebner reduction (or the numeric path) for more.
Numeric mode solves the same rows and reads the same remainder at several
hundred bits, from the D^j mod L~ recurrence in fixed point; only its
functions import mpmath and `_mpnum`, so exact mode runs without them.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (
    BudgetExceededError,
    MultiPoly,
    RatFunc,
    Ring,
    SingularMatrixError,
    UsageError,
    Value,
    _FIELD_MASK,
    _subs_parts,
    _val,
    groebner_reduce,
    point_rank,
    poly_add,
    poly_deflate,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    rank_of,
    reduce_mod,
    solve_linear,
)
from .ghg import _theta_shift_product, ghg_operator_esym
from .heun import HeunParams, frobenius_series, _monic_in_q
from .oredop import DiffOp

#: exact-or-numeric profiles with a verified proof in the source material
SUPPORTED_PROFILES = (
    (1,), (2,), (3,), (4,), (5,),
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
    (1, 1, 1),
)

#: the largest precision of a numeric verification: a cold m = 5 run (gamma
#: 5/7, alpha 1/3, beta 3/5, t 2) took 0.26 s at 300 bits, 8.9 s at 100000
MAX_PRECISION_BITS = 32768

#: exact M = 1 strengths run without deep=True; the CLI always passes it:
#: only fully symbolic 4 and 5 are slow, and a file's alpha..t are rational
DEFAULT_EXACT_M1 = 3


class UnsupportedProfileError(UsageError):
    pass


class DegenerateInstanceError(Exception):
    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


def factor_ring(M: int, N: int) -> Ring:
    """Variable pool for an (M, N) factorization run."""
    names = ["z", "q", "alpha", "beta", "gamma", "t"]
    names += [f"p{k}" for k in range(1, M + 1)]
    names += [f"e{j}" for j in range(1, N + 1)]
    return Ring(names)


@dataclass(frozen=True)
class ApparentFuchsian:
    """Second-order operator data of the conjectured right factor L~.

    Stored in s-form: numerator s_M z^M + ... + s_0 over
    z (z-1) (z-t_1) ... (z-t_M).  alpha beta = s_M and
    alpha + beta = gamma + delta - N - 1 are the only combinations the
    pipeline ever needs, so irrational alpha, beta never materialize.
    """

    ring: Ring
    gamma: RatFunc
    delta: RatFunc
    sing: tuple            # ((t_k, m_k), ...) with t_k RatFunc, m_k >= 1
    s_coeffs: tuple        # s_0 .. s_M

    def __post_init__(self):
        if not self.sing:
            raise UsageError("at least one extra singularity required")
        if any(m < 1 for _, m in self.sing):
            raise UsageError("multiplicities m_k must be >= 1")
        if len(self.s_coeffs) != len(self.sing) + 1:
            raise UsageError("numerator must have M + 1 coefficients s_0..s_M")
        concrete = [c for c in (tk.fraction() for tk, _ in self.sing) if c is not None]
        if any(c in (0, 1) for c in concrete):
            raise UsageError("t_k must avoid 0 and 1")
        if len(set(concrete)) != len(concrete):
            raise UsageError("0, 1, t_1, ..., t_M must be mutually distinct")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_heun(cls, alpha: Value, beta: Value, gamma: Value, m: int,
                  q: Value, t: Value, ring: Ring | None = None) -> "ApparentFuchsian":
        """M = 1 instance H_[eps=-m] with accessory parameter q."""
        if ring is None:
            ring = factor_ring(1, m)
        a, b, g = (_val(v, ring) for v in (alpha, beta, gamma))
        qv, tv = _val(q, ring), _val(t, ring)
        delta = a + b - g + m + 1
        return cls(ring, g, delta, ((tv, m),), (-qv, a * b))

    @classmethod
    def from_p_form(cls, gamma: Value, delta: Value, sing: Sequence,
                    prod_ab: Value, p_vals: Sequence[Value],
                    ring: Ring) -> "ApparentFuchsian":
        g, d = _val(gamma, ring), _val(delta, ring)
        ss = [(_val(tk, ring), int(mk)) for tk, mk in sing]
        ab = _val(prod_ab, ring)
        ps = [_val(p, ring) for p in p_vals]
        zero = RatFunc.of(0, ring)
        s = [zero] * (len(ss) + 1)
        # alpha beta prod(z - t_k), expanded as prod(th + s) with s = -t_k
        shifts = [-tk for tk, _ in ss]
        for k, c in enumerate(_theta_shift_product(shifts, ring)):
            s[k] = s[k] + ab * c
        for k, p in enumerate(ps):
            partial = _theta_shift_product(
                [r for j, r in enumerate(shifts) if j != k], ring)
            for i, c in enumerate(partial):
                s[i] = s[i] + p * c
        return cls(ring, g, d, tuple(ss), tuple(s))

    # -- derived quantities ----------------------------------------------------

    @property
    def M(self) -> int:
        return len(self.sing)

    @property
    def N(self) -> int:
        return sum(m for _, m in self.sing)

    @property
    def profile(self) -> tuple:
        return tuple(m for _, m in self.sing)

    @property
    def sum_ab(self) -> RatFunc:
        return self.gamma + self.delta - self.N - 1

    @property
    def prod_ab(self) -> RatFunc:
        return self.s_coeffs[-1]

    def heun_q(self) -> RatFunc:
        """The Heun accessory parameter -s_0 (M = 1 only)."""
        if self.M != 1:
            raise UsageError("heun_q is only defined for M = 1")
        return -self.s_coeffs[0]

    @cached_property
    def cleared(self) -> tuple:
        """(roots, Q, P1, S) of the cleared form Q L~ = Q D^2 + P1 D + S:
        Q = z (z-1) prod(z - t_k) with roots 0, 1, t_1..t_M,
        P1 = gamma Q/z + delta Q/(z-1) - sum m_k Q/(z - t_k) and
        S = sum s_i z^i, as coefficient tuples in z, low degree first; built
        once per instance and kept in its __dict__, outside the fields that
        ``__eq__`` and ``__hash__`` read.

        With gamma, delta and the t_k rational and the s_i polynomials, the
        roots and the entries of Q and P1 are ints or Fractions and those of
        S MultiPolys; otherwise they stay RatFuncs."""
        roots = [0, 1] + [tk for tk, _ in self.sing]
        weights = [self.gamma, self.delta] + [-mk for _, mk in self.sing]
        S = list(self.s_coeffs)
        fracs = [v.fraction() for v in weights[:2] + roots[2:]]
        if None not in fracs and all(s.is_poly() for s in S):
            weights[:2], roots[2:] = fracs[:2], fracs[2:]
            S = [s.num for s in S]
        Q = [1]
        for r in roots:
            Q = poly_mul(Q, [-r, 1])
        P1 = [0]
        for r, w in zip(roots, weights):
            P1 = poly_add(P1, poly_scale(poly_deflate(Q, r), w))
        return tuple(roots), tuple(Q), tuple(P1), tuple(S)

    def local_coeffs(self, point: RatFunc) -> list:
        """The cleared form about z = point, for `heun.frobenius_series`
        (see `DiffOp.local_coeffs`): S, P1 and Q Taylor-shifted to the
        point, as {m: nonzero coefficient of (z - point)^m}."""
        _, Q, P1, S = self.cleared
        c = point.fraction()
        if c is None:
            c = point
        out = []
        for a in (S, P1, Q):
            if c != 0:
                a = poly_shift(a, c)
            out.append({m: v for m, v in enumerate(a) if v != 0})
        return out

    def cleared_operator(self) -> DiffOp:
        """Q L~ = Q D^2 + P1 D + S as a DiffOp that carries its leading
        coefficient's inverse 1/Q over the factors z - r of Q, each root's
        denominator moved into the numerator."""
        ring = self.ring
        roots, Q, P1, S = self.cleared
        z = RatFunc.of(ring.var("z"), ring)
        fac: dict = {}
        cofactor = ring.one   # the denominators of the roots
        for r in roots:
            f = z - r
            fac[f.num] = fac.get(f.num, 0) + 1
            cofactor = cofactor * f.den
        return DiffOp(ring, "z", [_val(poly_eval(a, z.num), ring) for a in (S, P1, Q)],
                      leading_inverse=RatFunc(cofactor, fac))

    def operator(self) -> DiffOp:
        """L~ as the monic DiffOp D^2 + (P1/Q) D + S/Q, each coefficient
        over the factors z - r of Q (`cleared_operator`'s 1/Q)."""
        Lc = self.cleared_operator()
        return DiffOp(self.ring, "z", [c * Lc.leading_inverse for c in Lc.coeffs[:2]] + [1])


# -- apparency conditions ------------------------------------------------------


def apparency_system(Lt: ApparentFuchsian) -> list:
    """Condition polynomials P_j(p_1..p_M): vanishing of all of them makes
    every t_j apparent.  Computed from the local series obstruction at
    exponent 0, step m_j + 1; the p_k are the ring atoms p1..pM.

    Degree profile (checked): deg_{p_j} P_j = m_j + 1 and, in every other
    residue variable, deg_{p_j'} P_j <= m_j.
    """
    ring = Lt.ring
    p_atoms = [RatFunc.of(ring.var(f"p{k}"), ring) for k in range(1, Lt.M + 1)]
    return _obstruction_system(ApparentFuchsian.from_p_form(
        Lt.gamma, Lt.delta, Lt.sing, Lt.prod_ab, p_atoms, ring))


def _obstruction_system(Lt: ApparentFuchsian) -> list:
    """`apparency_system` of an L~ whose residues are already the atoms."""
    ring = Lt.ring
    out = []
    for j, (tj, mj) in enumerate(Lt.sing):
        ser = frobenius_series(Lt, tj, 0, mj + 1)
        if ser.log_coefficient is None:
            raise DegenerateInstanceError(
                f"no obstruction found at t_{j+1}; singularity is degenerate")
        num = ser.log_coefficient.num
        P = MultiPoly(ring, num._t, Fraction(1))  # primitive, positive lead
        dj = P.degree(f"p{j+1}")
        if dj != mj + 1:
            raise DegenerateInstanceError(
                f"P_{j+1} has degree {dj} in p{j+1}, expected {mj + 1}")
        for jp in range(Lt.M):
            if jp != j and P.degree(f"p{jp+1}") > mj:
                raise DegenerateInstanceError("degree profile violated")
        out.append(P)
    return out


def apparency_modulus(Lt: ApparentFuchsian) -> MultiPoly:
    """Monic-in-q apparency polynomial for an M = 1 instance whose accessory
    parameter is the atom q (exact quotient-ring verification)."""
    if Lt.M != 1:
        raise UsageError("single-generator modulus requires M = 1")
    ring = Lt.ring
    P = apparency_system(Lt)[0]
    # rewrite in q: p1 = alpha beta t - q
    p1_of_q = Lt.prod_ab * Lt.sing[0][0] - RatFunc.of(ring.var("q"), ring)
    composed = RatFunc.of(P, ring).subs({"p1": p1_of_q})
    return _monic_in_q(composed, ring)


# -- closed forms (m = 1, 2) ---------------------------------------------------


def maier_e1(p: HeunParams) -> RatFunc:
    """e_1 for the order-1 left factor at eps = -1:
    e_1 = (q - (alpha+1)(beta+1) t + gamma)/(1 - t) - 1.

    Requires an apparent instance: for concrete q the apparency polynomial
    must vanish exactly (the residual is reported otherwise); symbolic q is
    accepted and verified downstream modulo the apparency ideal.
    """
    from .heun import apparency_poly, _is_int

    if _is_int(p.epsilon) != -1:
        raise UsageError("maier_e1 requires eps = -1")
    P = apparency_poly(p)
    res = RatFunc.of(P, p.ring).subs({"q": p.q})
    q_is_symbolic = p.q.num.involves("q") if p.q.is_poly() else True
    if not q_is_symbolic and not res.is_zero:
        raise SolutionResidualError("instance is not apparent", res)
    return (p.q - (p.alpha + 1) * (p.beta + 1) * p.t + p.gamma) / (1 - p.t) - 1


class SolutionResidualError(Exception):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def maier_left_factor(p: HeunParams, e1: RatFunc) -> DiffOp:
    """The displayed order-1 quotient d/dz + (e1+1)/z + 1/(z-1) + 1/(z-t)."""
    ring = p.ring
    z = RatFunc.of(ring.var("z"), ring)
    one = RatFunc.of(1, ring)
    c0 = (e1 + 1) / z + one / (z - 1) + one / (z - p.t)
    return DiffOp(ring, "z", [c0, one])


def thm44_e1e2(p: HeunParams):
    """(E1, E2, v(z)) of the displayed order-2 left factor at eps = -2:

        E1 = e1 + e2 = -3 + (q - (alpha+2)(beta+2) t + 2 gamma)/(1 - t)
        E2 = e1 e2   = [q^2 - ... ] / (2 (t-1)^2)

    and v(z) with numerator (e1+3)(e2+3) z^2 + {q - ((e1+1)(e2+1) +
    (alpha+2)(beta+2)) t - (e1+3)(e2+3) + 2(gamma+1)} z + t (e1+1)(e2+1)
    over z^2 (z-1)(z-t); symmetric products rewritten through E1, E2.
    """
    from .heun import _is_int

    if _is_int(p.epsilon) != -2:
        raise UsageError("thm44_e1e2 requires eps = -2")
    a, b, g, q, t = p.alpha, p.beta, p.gamma, p.q, p.t
    ring = p.ring
    E1 = -3 + (q - (a + 2) * (b + 2) * t + 2 * g) / (1 - t)
    E2 = (q * q
          - ((2 * a * b + 3 * a + 3 * b + 1) * t - (3 * g - 4)) * q
          + (a * a * b * b + 3 * a * a * b + 3 * a * b * b + 7 * a * b
             + 2 * a * a + 2 * b * b + 2 * a + 2 * b) * t * t
          + (2 * a * b + 4 * a + 4 * b - g * (3 * a * b + 4 * a + 4 * b)) * t
          + 2 * (g - 1) * (g - 2)) / (2 * (t - 1) ** 2)
    e11 = E2 + E1 + 1       # (e1+1)(e2+1)
    e33 = E2 + 3 * E1 + 9   # (e1+3)(e2+3)
    z = RatFunc.of(ring.var("z"), ring)
    vnum = e33 * z * z + (q - (e11 + (a + 2) * (b + 2)) * t - e33
                          + 2 * (g + 1)) * z + t * e11
    v = vnum / (z * z * (z - 1) * (z - p.t))
    return E1, E2, v


def thm44_left_factor(p: HeunParams, E1: RatFunc, v: RatFunc) -> DiffOp:
    ring = p.ring
    z = RatFunc.of(ring.var("z"), ring)
    one = RatFunc.of(1, ring)
    c1 = (E1 + 3) / z + 2 * one / (z - 1) + 2 * one / (z - p.t)
    return DiffOp(ring, "z", [v, c1, one])


# -- esym solving and verification ----------------------------------------------


@dataclass(frozen=True)
class EsymVector:
    """Elementary symmetric functions of e_1..e_N from the exact solve."""

    values: tuple                 # RatFunc
    # (Lt, FactorizationWork) of the solve_esym call; the work keeps the
    # e-atoms symbolic, so it stays valid for any values on the same Lt
    division: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FactorizationWork:
    """Division data: D~ candidate coefficients and the defect coefficients
    w_0..w_{N+1} of L_GHG - D~ L~ (w_2..w_{N+1} vanish by construction)."""

    quotient: DiffOp
    w_coeffs: tuple


def _division_work(Lt: ApparentFuchsian) -> FactorizationWork:
    """Right division of L_GHG, with the e-atoms as its esym values, by
    L~'s cleared form Q D^2 + P1 D + S: L_GHG = X (Q L~) + R gives D~ = X Q
    and R, the remainder modulo L~.  Leibniz terms multiply by derivatives
    of polynomials, and each quotient step by the factored 1/Q."""
    ring = Lt.ring
    es = [ring.var(f"e{j}") for j in range(1, Lt.N + 1)]
    L = ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma, es, ring)
    Lc = Lt.cleared_operator()
    X, rem = L.right_divide(Lc)
    ws = [rem.coeff(0), rem.coeff(1)] + [RatFunc.of(0, Lt.ring)] * Lt.N
    return FactorizationWork(X * DiffOp.mul_by(Lc.leading, ring, "z"), tuple(ws))


def check_profile(Lt: ApparentFuchsian, deep: bool = False):
    prof = Lt.profile
    if tuple(sorted(prof, reverse=True)) not in {tuple(sorted(p, reverse=True))
                                                 for p in SUPPORTED_PROFILES}:
        raise UnsupportedProfileError(
            f"profile {prof} is outside the verified cases "
            "(M=1 m<=5, M=2 m1+m2<=4, M=3 (1,1,1))")
    if Lt.M == 1 and not deep and prof[0] > DEFAULT_EXACT_M1:
        raise UnsupportedProfileError(
            f"exact-symbolic m1 = {prof[0]} runs only under deep mode "
            "(use numeric mode or pass deep=True)")


def solve_esym(Lt: ApparentFuchsian, deep: bool = False) -> tuple:
    """Solve w1 = 0 for the elementary symmetric functions (exact mode).

    Returns (EsymVector, FactorizationWork with e-atoms still symbolic).
    The first N linearly independent coefficients of w1's numerator are used,
    in z-expansion order for M = 1 and (z-1)-expansion order for M >= 2.
    """
    check_profile(Lt, deep=deep)
    ring = Lt.ring
    N = Lt.N
    e_names = [f"e{j}" for j in range(1, N + 1)]
    work = _division_work(Lt)
    w1 = work.w_coeffs[1]
    num = w1.num
    if Lt.M >= 2:
        z = ring.var("z")
        num = num.subs({"z": z + 1})
    rows = _affine_rows(num, e_names, ring)
    A, b = _select_rows(rows, N, ring)
    try:
        sol = solve_linear(A, b)
    except SingularMatrixError as err:
        raise DegenerateInstanceError(
            f"esym system singular (rank {err.rank} of {err.size})",
            rank=err.rank) from err
    stripped: dict = {}   # the values share their denominator factors
    values = tuple(_normalize_t_denominator(v, ring, stripped) for v in sol)
    return EsymVector(values, division=(Lt, work)), work


def _affine_rows(num: MultiPoly, e_names: Sequence[str], ring: Ring) -> list:
    """Coefficient equations of a polynomial affine in the e-atoms.

    Returns [(const_part, [gradient wrt each e])] per z-power, ascending,
    read in one pass over the terms.
    """
    sz, uz = ring._field("z")
    fields = [ring._field(n) for n in e_names]
    parts: dict = {}
    for e, c in num._t.items():
        # slot 0 takes the constant part, slot j the coefficient of e_j
        slot, key = 0, e
        for j, (s, u) in enumerate(fields, 1):
            d = e >> s & _FIELD_MASK
            if d:
                if slot or d > 1:
                    raise DegenerateInstanceError(
                        "w1 coefficients are not affine in the esym variables")
                slot, key = j, e - u
        k = e >> sz & _FIELD_MASK
        if k not in parts:
            parts[k] = [{} for _ in range(len(fields) + 1)]
        parts[k][slot][key - k * uz] = c
    return [(MultiPoly(ring, t[0], num._c), [MultiPoly(ring, g, num._c) for g in t[1:]])
            for _, t in sorted(parts.items())]


def _select_rows(rows: list, N: int, ring: Ring):
    """First N rows of full rank, in expansion order (deterministic).

    Full rank at one point mod p proves full rank, so only a candidate that
    tests dependent there (or has no value there) takes the exact rank."""
    chosen = []
    for const, grad in rows:
        if all(g.is_zero for g in grad):
            continue
        candidate = chosen + [(const, grad)]
        mat = [g for _, g in candidate]
        n = len(candidate)
        if point_rank(mat) == n or rank_of(mat) == n:
            chosen = candidate
            if len(chosen) == N:
                break
    if len(chosen) < N:
        raise DegenerateInstanceError(
            f"w1 system has rank {len(chosen)} < {N}", rank=len(chosen))
    A = [g for _, g in chosen]
    b = [-c for c, _ in chosen]
    return A, b


def _normalize_t_denominator(v: RatFunc, ring: Ring, stripped: dict) -> RatFunc:
    """Rewrite a value n / det of `solve_linear`, uncancelled, as polynomial
    / (t^a (t-1)^b) in lowest terms; the cancelled n / det if that fails.

    The solved esym values are claimed to be polynomial in q, alpha, beta,
    gamma and holomorphic in t off {0, 1}; this pulls the powers of t and
    (t - 1) out of each denominator factor and divides the numerator by the
    rest, which succeeds exactly when the claim holds.  A numerator that the
    whole denominator divides gives the polynomial, as cancelling n / det
    first did.  ``stripped`` maps each factor already seen to (rest, a, b),
    f = t^a (t - 1)^b rest.
    """
    from .exactalg import _quotient, exact_div

    if "t" not in ring.index:
        return RatFunc(v.num, v.den_factors())
    t = ring.var("t")
    num = v.num
    out_fac: dict = {}
    for f, k in v.den_factors().items():
        if f not in stripped:
            rest = f
            a = b = 0
            while (d := exact_div(rest, t)) is not None:
                rest = d
                a += 1
            while (d := exact_div(rest, t - 1)) is not None:
                rest = d
                b += 1
            stripped[f] = rest, a, b
        rest, a, b = stripped[f]
        for _ in range(k):
            num = _quotient(num, rest)
            if num is None:
                return RatFunc(v.num, v.den_factors())
        if a:
            out_fac[t] = out_fac.get(t, 0) + a * k
        if b:
            out_fac[t - 1] = out_fac.get(t - 1, 0) + b * k
    whole = num
    for f, k in out_fac.items():
        if (whole := exact_div(whole, f ** k)) is None:
            return RatFunc(num, out_fac, _simplify=False)
    return RatFunc(whole)


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    profile: tuple
    esym: tuple            # printable strings
    defect_max: str
    passed: bool
    quotient_operator: str
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "profile": list(self.profile),
            "esym": list(self.esym),
            "defect_max": self.defect_max,
            "pass": self.passed,
            "quotient_operator": self.quotient_operator,
            "detail": self.detail,
        }


def verify_factorization(Lt: ApparentFuchsian,
                         esym: Optional[EsymVector] = None,
                         deep: bool = False,
                         groebner_budget: int = 20000) -> VerificationReport:
    """Exact verification: defect reduces to zero modulo the apparency ideal.

    M = 1 instances reduce in Q(alpha,beta,gamma,t)[q]/(P_app); M >= 2
    symbolic instances use the budgeted Groebner path (and report a numeric
    fallback recommendation when the budget trips).  Fully concrete exactly
    apparent instances need no ideal at all.
    """
    check_profile(Lt, deep=deep)
    ring = Lt.ring
    if esym is None:
        esym, work = solve_esym(Lt, deep=deep)
    elif esym.division is not None and esym.division[0] is Lt:
        work = esym.division[1]
    else:
        work = _division_work(Lt)
    e_assign = {f"e{j+1}": v for j, v in enumerate(esym.values)}
    quotient = DiffOp(ring, "z", [c.subs(e_assign) for c in work.quotient.coeffs])

    def cancelled_residuals(reduce) -> list:
        return [reduce(w.subs(e_assign).num) for w in work.w_coeffs[:2]]

    q_symbolic = Lt.M == 1 and Lt.heun_q().num.involves("q")
    p_atoms_used = any(
        s.num.involves(f"p{k}") for s in Lt.s_coeffs for k in range(1, Lt.M + 1))
    strings = tuple(v.pretty() for v in esym.values)
    if Lt.M == 1 and q_symbolic:
        modulus = apparency_modulus(Lt)
        # cancelling drops only q-free factors here, and the modulus is monic
        # in q: the uncancelled numerators reduce to zero exactly when the
        # cancelled ones do, and a failing report prints the cancelled ones
        q_free = not any(f.involves("q") for v in esym.values + work.w_coeffs[:2]
                         for f in v.den_factors())
        passed = q_free and all(reduce_mod(_subs_parts(w.num, e_assign)[0], modulus, "q").is_zero
                                for w in work.w_coeffs[:2])
        residuals = [] if passed else cancelled_residuals(lambda n: reduce_mod(n, modulus, "q"))
    elif p_atoms_used:
        system = apparency_system(Lt)
        main = [f"p{k}" for k in range(1, Lt.M + 1)]
        try:
            residuals = cancelled_residuals(
                lambda n: groebner_reduce(n, system, main, budget=groebner_budget))
        except BudgetExceededError:
            return VerificationReport(
                "exact", Lt.profile, strings, "budget-exceeded",
                False, quotient.pretty(),
                detail="Groebner budget exceeded; use the numeric path")
    else:
        residuals = cancelled_residuals(lambda n: n)
    ok = all(r.is_zero for r in residuals)
    offender = ""
    if not ok:
        bad = next(r for r in residuals if not r.is_zero)
        offender = f"nonzero defect coefficient: {bad.pretty()[:200]}"
    return VerificationReport(
        "exact", Lt.profile, strings,
        "0" if ok else "nonzero", ok, quotient.pretty(), detail=offender)


# -- numeric pipeline -----------------------------------------------------------


def _residue_atom_factor(gamma, delta, sing: Sequence, prod_ab) -> ApparentFuchsian:
    """L~ of a rational instance with the residues left as the atoms p1..pM."""
    M = len(sing)
    ring = factor_ring(M, sum(m for _, m in sing))
    return ApparentFuchsian.from_p_form(
        gamma, delta, [(Fraction(t), m) for t, m in sing], prod_ab,
        [ring.var(f"p{k}") for k in range(1, M + 1)], ring)


def solve_apparent_p(gamma: Fraction, delta: Fraction, sing: Sequence,
                     prod_ab: Fraction, seed: int = 0, bits: int = 300,
                     Lt: Optional[ApparentFuchsian] = None):
    """Numerically solve the apparency system for the residues p_1..p_M.

    Damped Newton at `bits` precision from seeded random complex starts, in
    Gaussian fixed point up to the returned root (`_mpnum.newton_apparency`),
    stopped after the first full step shorter than tol max(1, max |p_i|),
    tol = 1e-70 at 300 bits and above; no absolute residual is asked for.
    Returns the residues as mpc.  `Lt` takes `_residue_atom_factor` of the
    same data when the caller has built it already.
    """
    from mpmath import mp

    from . import _mpnum

    if Lt is None:
        Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    system = _obstruction_system(Lt)
    with mp.workprec(bits):
        return _mpnum.newton_apparency(system, [f"p{k}" for k in range(1, len(sing) + 1)],
                                       seed=seed)


def verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                 p_vals=None, bits: int = 300, seed: int = 0,
                                 tol_exp: int = -60) -> VerificationReport:
    """Numeric verification at `bits` precision.

    The residues are one `_mpnum.GaussPoint`.  One pass of the `D^j mod
    L~` recurrence on L~'s cleared form (`_mpnum.d_remainders`) serves both
    steps: the esym values solve the coefficient rows of the remainder's
    D-coefficient r1, affine in them through L_GHG's th-table
    (`_mpnum.solve_esym_numeric`, the rows the exact lane solves in w1;
    singular rows raise ZeroDivisionError), and the verdict reads every
    coefficient of r1 and r0 at those values (`_mpnum.remainder_defect`).
    No exact division, exact solve or operator type is built, and a
    wrong esym value can only raise the defect: a control passes only if
    some esym values make L_GHG = D~ L~.  When p_vals is omitted the
    apparency system is solved first.  Passes when the maximal numerator
    coefficient of the remainder over z^N Q^(N+1), Q = z (z-1) prod(z -
    t_k), is below 10^tol_exp, which must lie in (-bits log10 2, 0): a
    bound no finer than the working precision.
    """
    import mpmath
    from mpmath import mp

    from . import _mpnum

    if not 1 <= bits <= MAX_PRECISION_BITS:
        raise UsageError(f"precision must be 1..{MAX_PRECISION_BITS} bits, got {bits}")
    if not -bits * math.log10(2) < tol_exp < 0:
        raise UsageError(f"tol_exp = {tol_exp} is outside (-{bits} log10 2, 0)")
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    with mp.workprec(bits):
        if p_vals is None:
            p_vals = solve_apparent_p(gamma, delta, sing, prod_ab,
                                      seed=seed, bits=bits, Lt=Lt)
        point = _mpnum.GaussPoint({f"p{k}": p for k, p in enumerate(p_vals, 1)},
                                  mp.prec + _mpnum.GUARD_BITS)
        rems = _mpnum.d_remainders(Lt, point)
        es = _mpnum.solve_esym_numeric(rems)
        defect = _mpnum.remainder_defect(rems, es)
        passed = defect < mp.mpf(10) ** tol_exp
        return VerificationReport(
            "numeric", Lt.profile,
            tuple(mpmath.nstr(_mpnum._unfixed(v, point.bits), 25) for v in es),
            mpmath.nstr(defect, 8), bool(passed), "(numeric quotient suppressed)",
            detail=f"precision {bits} bits, tolerance 1e{tol_exp}")


def lvw_instance(alpha: Value, beta: Value, gamma: Value, e1: Value,
                 ring: Ring | None = None) -> HeunParams:
    """Exact eps = -1 apparent bundle from the reducible-series parametrization

        t = e1 (e1 + 1 - gamma) / ((e1 - alpha)(e1 - beta)),
        q = alpha beta (e1 + 1)(e1 + 1 - gamma) / ((e1 - alpha)(e1 - beta)).

    (The accessory-parameter sign is pinned by the series oracle: the operator
    must kill z f' / e1 + f for f the Gauss series.)  Rational inputs give
    a fully rational instance whose apparency polynomial vanishes exactly,
    which makes it the workhorse for exact-mode tests.
    """
    if ring is None:
        from .heun import base_ring
        ring = base_ring()
    a, b, g, e = (_val(v, ring) for v in (alpha, beta, gamma, e1))
    den = (e - a) * (e - b)
    if den.is_zero:
        raise UsageError("e1 must avoid alpha and beta")
    t = e * (e + 1 - g) / den
    q = a * b * (e + 1) * (e + 1 - g) / den
    return HeunParams.make(alpha=a, beta=b, gamma=g, epsilon=-1, q=q, t=t,
                           ring=ring)


def ep2_instance(alpha: Value, beta: Value, gamma: Value,
                 ring: Ring | None = None) -> HeunParams:
    """Exact eps = -2 apparent bundle: the singularity position and accessory
    parameter

        t = (1 - gamma) / (alpha + beta - 2 gamma + 3),
        q = (1 - gamma)(alpha beta + 2 alpha + 2 beta - 2 gamma + 4)
              / (alpha + beta - 2 gamma + 3)

    are a root of the cubic apparency condition for every parameter choice
    (the factorization with this linear factor is an exact identity)."""
    if ring is None:
        from .heun import base_ring
        ring = base_ring()
    a, b, g = (_val(v, ring) for v in (alpha, beta, gamma))
    den = a + b - 2 * g + 3
    if den.is_zero:
        raise UsageError("alpha + beta - 2 gamma + 3 must be nonzero")
    t = (1 - g) / den
    q = (1 - g) * (a * b + 2 * a + 2 * b - 2 * g + 4) / den
    return HeunParams.make(alpha=a, beta=b, gamma=g, epsilon=-2, q=q, t=t,
                           ring=ring)


def random_profile_instance(profile: Sequence[int], seed: int):
    """Random rational (gamma, delta, sing, prod_ab) avoiding degeneracies."""
    rng = _random.Random(seed)
    M = len(profile)
    N = sum(profile)

    def frac(lo=-6, hi=6, den=5):
        while True:
            f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
            if f != 0:
                return f

    while True:
        gamma = frac() + Fraction(1, 7)   # dodge small-integer degeneracies
        alpha = frac()
        beta = frac()
        if alpha == beta:
            continue
        delta = alpha + beta - gamma + N + 1
        ts = []
        while len(ts) < M:
            c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if c not in (0, 1) and c not in ts:
                ts.append(c)
        if gamma.denominator == 1 or delta.denominator == 1:
            continue
        return gamma, delta, [(t, m) for t, m in zip(ts, profile)], alpha * beta
