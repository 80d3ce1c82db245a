"""Factorization of generalized hypergeometric operators through operators
with apparent singularities.

The engine verifies instances of the factorization

    L_{alpha, beta, e_1+1, ..., e_N+1; gamma, e_1, ..., e_N} = D~ . L~

where L~ is a second-order Fuchsian operator whose extra singularities
t_1..t_M (local exponents 0, m_k+1) are all apparent.  Right division of the
hypergeometric operator by L~ produces D~ and an order-<=1 remainder whose
coefficients are affine in the elementary symmetric functions of the e_i;
solving the induced linear system and checking that the remainder then lies
in the apparency ideal certifies the instance.

Exact mode works in Q(params)[q] / (P_app(q)) for one extra singularity and
falls back to a budgeted Groebner reduction (or the numeric path) for more.
Numeric mode runs the same division at several hundred bits.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
from mpmath import mp

from . import _mpnum
from .exactalg import (
    BudgetExceededError,
    MultiPoly,
    RatFunc,
    Ring,
    SingularMatrixError,
    UsageError,
    Value,
    _val,
    groebner_reduce,
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

#: exact-symbolic runs allowed by default; 4 and 5 only under --deep
DEFAULT_EXACT_M1 = 3


class UnsupportedProfileError(Exception):
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
        concrete = []
        for tk, _ in self.sing:
            if tk.is_poly() and tk.as_poly().is_const():
                concrete.append(tk.as_poly().const_value())
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

    def p_residues(self) -> list:
        """Residue parameters p_k of the Appendix's display."""
        out = []
        roots = [tk for tk, _ in self.sing]
        for k, tk in enumerate(roots):
            num = RatFunc.of(0, self.ring)
            for i, s in enumerate(self.s_coeffs):
                num = num + s * tk ** i
            den = RatFunc.of(1, self.ring)
            for j, tj in enumerate(roots):
                if j != k:
                    den = den * (tk - tj)
            out.append(num / den)
        return out

    def heun_q(self) -> RatFunc:
        """The Heun accessory parameter -s_0 (M = 1 only)."""
        if self.M != 1:
            raise UsageError("heun_q is only defined for M = 1")
        return -self.s_coeffs[0]

    def operator(self) -> DiffOp:
        ring = self.ring
        z = RatFunc.of(ring.var("z"), ring)
        c1 = self.gamma / z + self.delta / (z - 1)
        c0 = RatFunc.of(0, ring)
        for i, s in enumerate(self.s_coeffs):
            c0 = c0 + s * z ** i
        c0 = c0 / z / (z - 1)
        for tk, mk in self.sing:
            c1 = c1 - RatFunc.of(mk, ring) / (z - tk)
            c0 = c0 / (z - tk)
        return DiffOp(ring, "z", [c0, c1, RatFunc.of(1, ring)])


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
    sym = ApparentFuchsian.from_p_form(Lt.gamma, Lt.delta, Lt.sing,
                                       Lt.prod_ab, p_atoms, ring)
    L = sym.operator()
    out = []
    for j, (tj, mj) in enumerate(Lt.sing):
        ser = frobenius_series(L, tj, 0, mj + 1)
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
    """Solved elementary symmetric functions of e_1..e_N."""

    mode: str                     # "exact" | "numeric"
    values: tuple                 # RatFunc (exact) or mpc (numeric)
    denominators: tuple = ()      # observed denominator factors, exact mode
    # (Lt, FactorizationWork) of the solve_esym call; the work keeps the
    # e-atoms symbolic, so it stays valid for any values on the same Lt
    division: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FactorizationWork:
    """Division data: D~ candidate coefficients and the defect coefficients
    w_0..w_{N+1} of L_GHG - D~ L~ (w_2..w_{N+1} vanish by construction)."""

    quotient: DiffOp
    w_coeffs: tuple


def _division_work(Lt: ApparentFuchsian, esym_values: Sequence[RatFunc]
                   ) -> FactorizationWork:
    ring = Lt.ring
    L = ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma, list(esym_values), ring)
    Q, rem = L.right_divide(Lt.operator())
    N = Lt.N
    ws = [rem.coeff(0), rem.coeff(1)] + [RatFunc.of(0, ring)] * N
    return FactorizationWork(Q, tuple(ws))


def check_profile(Lt: ApparentFuchsian, deep: bool = False, numeric: bool = False):
    prof = Lt.profile
    if tuple(sorted(prof, reverse=True)) not in {tuple(sorted(p, reverse=True))
                                                 for p in SUPPORTED_PROFILES}:
        raise UnsupportedProfileError(
            f"profile {prof} is outside the verified cases "
            "(M=1 m<=5, M=2 m1+m2<=4, M=3 (1,1,1))")
    if Lt.M == 1 and not numeric and not deep and prof[0] > DEFAULT_EXACT_M1:
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
    e_atoms = [RatFunc.of(ring.var(n), ring) for n in e_names]
    work = _division_work(Lt, e_atoms)
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
    values = []
    dens = []
    for v in sol:
        nv, profile = _normalize_t_denominator(v, ring)
        values.append(nv)
        dens.append(profile)
    return EsymVector("exact", tuple(values), tuple(dens), (Lt, work)), work


def _affine_rows(num: MultiPoly, e_names: Sequence[str], ring: Ring) -> list:
    """Coefficient equations of a polynomial affine in the e-atoms.

    Returns [(const_part, [gradient wrt each e])] per z-power, ascending.
    """
    e_idx = [ring.index[n] for n in e_names]
    for e, _ in num.terms():
        if sum(e[i] for i in e_idx) > 1:
            raise DegenerateInstanceError(
                "w1 coefficients are not affine in the esym variables")
    rows = []
    for k in sorted(num.coeffs_in("z")):
        eq = num.coeff_of("z", k)
        if eq.is_zero:
            continue
        zero_subs = {n: 0 for n in e_names}
        const = eq.subs(zero_subs)
        grad = []
        for n in e_names:
            g = eq.coeff_of(n, 1)
            g = g.subs({m: 0 for m in e_names if m != n}) if any(
                g.involves(m) for m in e_names if m != n) else g
            grad.append(g)
        rows.append((const, grad))
    return rows


def _select_rows(rows: list, N: int, ring: Ring):
    """First N rows of full rank, in expansion order (deterministic)."""
    chosen = []
    for const, grad in rows:
        if all(g.is_zero for g in grad):
            continue
        candidate = chosen + [(const, grad)]
        mat = [g for _, g in candidate]
        if rank_of(mat) == len(candidate):
            chosen = candidate
            if len(chosen) == N:
                break
    if len(chosen) < N:
        raise DegenerateInstanceError(
            f"w1 system has rank {len(chosen)} < {N}", rank=len(chosen))
    A = [g for _, g in chosen]
    b = [-c for c, _ in chosen]
    return A, b


def _normalize_t_denominator(v: RatFunc, ring: Ring):
    """Try to rewrite v as polynomial / (t^a (t-1)^b); report the profile.

    The solved esym values are claimed to be polynomial in q, alpha, beta,
    gamma and holomorphic in t off {0, 1}; this pulls the powers of t and
    (t - 1) out of each denominator factor and cancels the rest into the
    numerator, which succeeds exactly when the claim holds.
    """
    from .exactalg import exact_div

    if "t" not in ring.index:
        return v, ()
    t = ring.var("t")
    num = v.num
    out_fac: dict = {}
    for f, k in v.den_factors().items():
        rest = f
        a = b = 0
        while (d := exact_div(rest, t)) is not None:
            rest = d
            a += 1
        while (d := exact_div(rest, t - 1)) is not None:
            rest = d
            b += 1
        if not rest.is_const():
            ok = True
            for _ in range(k):
                q2 = exact_div(num, rest)
                if q2 is None:
                    ok = False
                    break
                num = q2
            if not ok:
                return v, tuple(sorted(fc.pretty() for fc in v.den_factors()))
        else:
            num = num / rest.const_value() ** k
        if a:
            out_fac[t] = out_fac.get(t, 0) + a * k
        if b:
            out_fac[t - 1] = out_fac.get(t - 1, 0) + b * k
    cleaned = RatFunc(num, out_fac, _simplify=False)
    return cleaned, tuple(sorted(f.pretty() for f in out_fac))


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
        atoms = [RatFunc.of(ring.var(f"e{j}"), ring) for j in range(1, Lt.N + 1)]
        work = _division_work(Lt, atoms)
    e_assign = {f"e{j+1}": v for j, v in enumerate(esym.values)}
    w0 = work.w_coeffs[0].subs(e_assign)
    w1 = work.w_coeffs[1].subs(e_assign)
    quotient = DiffOp(ring, "z", [c.subs(e_assign) for c in work.quotient.coeffs])

    q_symbolic = Lt.M == 1 and Lt.heun_q().num.involves("q")
    p_atoms_used = any(
        s.num.involves(f"p{k}") for s in Lt.s_coeffs for k in range(1, Lt.M + 1))
    residuals = []
    detail = ""
    if Lt.M == 1 and q_symbolic:
        modulus = apparency_modulus(Lt)
        for w in (w0, w1):
            residuals.append(reduce_mod(w.num, modulus, "q"))
    elif p_atoms_used:
        system = apparency_system(Lt)
        main = [f"p{k}" for k in range(1, Lt.M + 1)]
        try:
            for w in (w0, w1):
                residuals.append(groebner_reduce(w.num, system, main,
                                                 budget=groebner_budget))
        except BudgetExceededError:
            return VerificationReport(
                "exact", Lt.profile, _esym_strings(esym), "budget-exceeded",
                False, _pretty_op(quotient),
                detail="Groebner budget exceeded; use the numeric path")
    else:
        residuals = [w0.num, w1.num]
    ok = all(r.is_zero for r in residuals)
    offender = ""
    if not ok:
        bad = next(r for r in residuals if not r.is_zero)
        offender = f"nonzero defect coefficient: {bad.pretty()[:200]}"
    return VerificationReport(
        "exact", Lt.profile, _esym_strings(esym),
        "0" if ok else "nonzero", ok, _pretty_op(quotient), detail=offender)


def _esym_strings(esym: EsymVector) -> tuple:
    if esym.mode == "exact":
        return tuple(v.pretty() for v in esym.values)
    return tuple(mpmath.nstr(v, 25) for v in esym.values)


def _pretty_op(op: DiffOp) -> str:
    return op.pretty()


# -- numeric pipeline -----------------------------------------------------------


def _residue_atom_factor(gamma, delta, sing: Sequence, prod_ab) -> ApparentFuchsian:
    """L~ of a rational instance with the residues left as the atoms p1..pM."""
    M = len(sing)
    ring = factor_ring(M, sum(m for _, m in sing))
    return ApparentFuchsian.from_p_form(
        gamma, delta, [(Fraction(t), m) for t, m in sing], prod_ab,
        [ring.var(f"p{k}") for k in range(1, M + 1)], ring)


def solve_apparent_p(gamma: Fraction, delta: Fraction, sing: Sequence,
                     prod_ab: Fraction, seed: int = 0, bits: int = 300):
    """Numerically solve the apparency system for the residues p_1..p_M.

    Newton at `bits` precision from seeded random complex starts, refined to
    residual < 1e-70 (the returned values are mpc).
    """
    M = len(sing)
    system = apparency_system(_residue_atom_factor(gamma, delta, sing, prod_ab))
    p_names = [f"p{k}" for k in range(1, M + 1)]

    def fn_of(poly):
        def f(pv):
            return poly.eval_num(dict(zip(p_names, pv)), num=mp.mpc)
        return f

    fns = [fn_of(P) for P in system]
    jac = [[fn_of(P.derivative(n)) for n in p_names] for P in system]
    with mp.workprec(bits):
        return _mpnum.newton_apparency(fns, jac, M, seed=seed)


def _z0_series(Lt: ApparentFuchsian, op: DiffOp, p_vals) -> Optional[tuple]:
    """(ratios, shift) of L~'s z = 0 series for `_mpnum.solve_esym_numeric`,
    or None when neither z = 0 exponent carries the esym values.

    At exponent 0 the series of an apparent L~ is the pFq series of
    L_{alpha,beta,e_i+1; gamma,e_i}; at 1 - gamma it is z^(1-gamma) times
    the one with alpha, beta, e_i shifted by 1 - gamma and gamma -> 2 - gamma.
    Either way c_n w_n = prod(1 + n / (e_i + rho)) with the exact weight
    w_n = (gamma')_n n! / ((alpha')_n (beta')_n).  The exponent is chosen from
    exact data alone: the first with no vanishing (gamma')_n or
    (alpha')_n (beta')_n, n <= N, whose series is then unique and divisible
    by the Pochhammer factors.  The c_n come from the series engine with the
    residues as atoms, evaluated at p_vals."""
    N, g, S, P = Lt.N, Lt.gamma, Lt.sum_ab, Lt.prod_ab
    c = 1 - g
    for rho, g2, S2, P2 in ((0, g, S, P), (c, 2 - g, S + 2 * c, P + c * S + c * c)):
        # (alpha')_n (beta')_n = prod_{k<n} (k^2 + k S' + P')
        factors = [(g2 + k, k * k + k * S2 + P2) for k in range(N)]
        if any(a.is_zero or b.is_zero for a, b in factors):
            continue
        cs = frobenius_series(op, 0, rho, N).coeffs
        assign = {f"p{k}": _mpnum.to_mpc(p) for k, p in enumerate(p_vals, 1)}
        ratios, w = [], RatFunc.of(1, Lt.ring)
        for n, (a, b) in enumerate(factors, 1):
            w = w * a * n / b
            ratios.append((cs[n] * w).eval_num(assign, num=mp.mpc))
        return ratios, _val(rho, Lt.ring).eval_num({}, num=mp.mpc)
    return None


def verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                 p_vals=None, bits: int = 300, seed: int = 0,
                                 tol_exp: int = -60) -> VerificationReport:
    """Numeric verification at `bits` precision.

    The esym values come from c_1..c_N of L~'s z = 0 series (`_z0_series`),
    or, when neither z = 0 exponent qualifies, from affine sampling of the
    remainder.  The exact L_GHG (esym values as atoms) is then evaluated and
    divided by L~ once at `bits` precision; a wrong esym value can only
    raise the defect, never pass a verdict.  When p_vals is omitted the
    apparency system is solved first.  Passes when the maximal defect
    coefficient is below 10^tol_exp, which must lie in (-bits log10 2, 0):
    a bound no finer than the working precision.
    """
    if bits < 1:
        raise UsageError(f"precision must be a positive number of bits, got {bits}")
    if not -bits * math.log10(2) < tol_exp < 0:
        raise UsageError(f"tol_exp = {tol_exp} is outside (-{bits} log10 2, 0)")
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    ring = Lt.ring
    L = ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma,
                          [ring.var(f"e{j}") for j in range(1, Lt.N + 1)], ring)
    roots = [0, 1] + [t for t, _ in sing]
    with mp.workprec(bits):
        if p_vals is None:
            p_vals = solve_apparent_p(gamma, delta, sing, prod_ab,
                                      seed=seed, bits=bits)
        op = Lt.operator()
        es, run = _mpnum.solve_esym_numeric(L, op, roots, p_vals,
                                            _z0_series(Lt, op, p_vals))
        rem = run(es)
        defect = _mpnum.defect_of_remainder(rem)
        passed = defect < mp.mpf(10) ** tol_exp
        esym = EsymVector("numeric", tuple(es))
        return VerificationReport(
            "numeric", Lt.profile, _esym_strings(esym),
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
