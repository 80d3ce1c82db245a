"""High-precision numeric operator arithmetic (mpmath lane).

Runs the factorization defect check at several hundred bits on the exact
operators, evaluated at numeric residues and esym values: dense univariate
polynomials over ``mpmath.mpc``, rational functions whose denominators are
exponent vectors over a fixed basis of linear factors (z - r_i), and
normal-ordered operator composition / right division by a monic operator.

The esym values come from the z = 0 series identity of L~ (an N x N solve,
no division); only the verifying division runs at full operator size.
Instances whose z = 0 series cannot carry the identity fall back to affine
sampling of the remainder (N + 1 more divisions).

Denominators never need cancellation here: every division in the pipeline is
by a leading coefficient equal to one, so degrees stay at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath
from mpmath import mp

from .exactalg import (exact_div, poly_add, poly_deriv, poly_mul, poly_scale, poly_shift,
                       poly_trim)


def to_mpc(x) -> "mpmath.mpc":
    """Lift ints, Fractions, floats, strings and mp numbers to mpc."""
    if isinstance(x, Fraction):
        return mp.mpc(x.numerator) / x.denominator
    return mp.mpc(x)


class FactorBasis:
    """Fixed list of linear-factor roots (z - r_i) shared by a computation;
    ``exact`` keeps the rational roots that exact denominators split over."""

    def __init__(self, roots):
        self.exact = tuple(Fraction(r) for r in roots)
        self.roots = tuple(to_mpc(r) for r in self.exact)
        self._products = {}

    def expand(self, vec) -> list:
        """prod (z - r_i)^vec_i, built once per exponent vector."""
        vec = tuple(vec)
        out = self._products.get(vec)
        if out is None:
            out = [mp.mpc(1)]
            for r, k in zip(self.roots, vec):
                for _ in range(k):
                    out = poly_mul(out, [-r, mp.mpc(1)])
            self._products[vec] = out
        return out


class RatM:
    """num(z) / prod (z - r_i)^vec_i over a shared FactorBasis."""

    __slots__ = ("basis", "num", "vec")

    def __init__(self, basis: FactorBasis, num: list, vec=None):
        self.basis = basis
        # products, sums and derivatives already hold mpc values
        mpc = mp.mpc
        self.num = poly_trim([c if type(c) is mpc else to_mpc(c) for c in num])
        self.vec = tuple(vec) if vec is not None else (0,) * len(basis.roots)

    @classmethod
    def const(cls, basis, c):
        return cls(basis, [to_mpc(c)])

    @classmethod
    def from_exact(cls, basis: FactorBasis, f, assign) -> "RatM":
        """An exact coefficient f (a RatFunc whose denominator factors are
        polynomials in z alone) at the numeric values ``assign`` of the other
        variables of its numerator."""
        cs = f.num.coeffs_in("z")
        num = [mp.mpc(0)] * (max(cs, default=0) + 1)
        for k, c in cs.items():
            num[k] = c.eval_num(assign, num=mp.mpc)
        vec = [0] * len(basis.roots)
        scale = Fraction(1)
        for fac, k in f.den_factors().items():
            rest = fac
            for i, r in enumerate(basis.exact):
                while (q := exact_div(rest, fac.ring.var("z") - r)) is not None:
                    rest = q
                    vec[i] += k
            if not rest.is_const():
                raise ValueError(f"denominator factor {fac.pretty()} does not "
                                 "split over the factor basis")
            scale *= rest.const_value() ** k
        return cls(basis, [c * scale.denominator / scale.numerator for c in num], vec)

    @property
    def is_zero(self):
        return len(self.num) == 1 and self.num[0] == 0

    def _align(self, other):
        vec = tuple(max(a, b) for a, b in zip(self.vec, other.vec))
        def lift(r):
            extra = [v - w for v, w in zip(vec, r.vec)]
            num = r.num
            if any(extra):
                num = poly_mul(num, r.basis.expand(extra))
            return num
        return vec, lift(self), lift(other)

    def __add__(self, other):
        if not isinstance(other, RatM):
            other = RatM.const(self.basis, other)
        vec, a, b = self._align(other)
        return RatM(self.basis, poly_add(a, b), vec)

    def __neg__(self):
        return RatM(self.basis, [-c for c in self.num], self.vec)

    def __sub__(self, other):
        if not isinstance(other, RatM):
            other = RatM.const(self.basis, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatM):
            other = RatM.const(self.basis, other)
        vec = tuple(a + b for a, b in zip(self.vec, other.vec))
        return RatM(self.basis, poly_mul(self.num, other.num), vec)

    def scale(self, s):
        return RatM(self.basis, poly_scale(self.num, s), self.vec)

    def derivative(self) -> "RatM":
        active = [i for i, k in enumerate(self.vec) if k]
        if not active:
            return RatM(self.basis, poly_deriv(self.num), self.vec)
        new_vec = tuple(k + 1 if k else 0 for k in self.vec)
        ones = [1 if k else 0 for k in self.vec]
        total = poly_mul(poly_deriv(self.num), self.basis.expand(ones))
        for i in active:
            partial = self.basis.expand(ones[:i] + [0] + ones[i + 1:])
            total = poly_add(total, poly_scale(poly_mul(self.num, partial),
                                               -self.vec[i]))
        return RatM(self.basis, total, new_vec)

    def max_num_abs(self):
        return max(abs(c) for c in self.num)


class DiffOpM:
    """sum c_j(z) D^j with RatM coefficients."""

    __slots__ = ("basis", "coeffs", "_derivs")

    def __init__(self, basis: FactorBasis, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.basis = basis
        self.coeffs = cs
        self._derivs = [cs]

    def derivative_table(self, n: int) -> list:
        """[coeffs, D coeffs, ..., D^n coeffs]; kept on the operator, so a
        divisor differentiates its coefficients once for all its products."""
        while len(self._derivs) <= n:
            self._derivs.append([c.derivative() for c in self._derivs[-1]])
        return self._derivs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return RatM.const(self.basis, 0)

    def __mul__(self, other: "DiffOpM"):
        n, m = self.order, other.order
        if n < 0 or m < 0:
            return DiffOpM(self.basis, [])
        derivs = other.derivative_table(n)
        out = [RatM.const(self.basis, 0) for _ in range(n + m + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for k in range(i + 1):
                ck = comb(i, k)
                for j, b in enumerate(derivs[k]):
                    if not b.is_zero:
                        out[i - k + j] = out[i - k + j] + (a * b).scale(ck)
        return DiffOpM(self.basis, out)

    def right_divide_monic(self, other: "DiffOpM"):
        """(Q, rem) for a divisor whose leading coefficient is exactly 1."""
        rem = self
        q = {}
        while rem.order >= other.order:
            k = rem.order - other.order
            qk = rem.coeffs[-1]
            q[k] = qk
            step = DiffOpM(self.basis, [RatM.const(self.basis, 0)] * k + [qk]) * other
            new = [rem.coeff(j) - step.coeff(j) for j in range(rem.order)]
            rem = DiffOpM(self.basis, new)
        n = max(q) + 1 if q else 0
        Q = DiffOpM(self.basis, [q.get(j, RatM.const(self.basis, 0)) for j in range(n)])
        return Q, rem


def defect_of_remainder(rem: DiffOpM) -> mpmath.mpf:
    if rem.order < 0:
        return mp.mpf(0)
    return max(c.max_num_abs() for c in rem.coeffs)


def solve_esym_numeric(L, Lt, roots, p_vals, series):
    """Solve for the elementary symmetric e-values.

    L is the exact L_GHG with the esym atoms e1..eN, Lt the exact L-tilde
    with the residue atoms p1..pM and roots its singular points
    [0, 1, t_1, ..., t_M]; p_vals are the numeric residues.  ``series`` is
    (ratios, shift) from L-tilde's z = 0 series at exponent ``shift``:
    ratios[n-1] = prod(1 + n / (e_i + shift)) for n = 1..N, a polynomial in
    n of degree N whose coefficients s_k = sigma'_{N-k} / sigma'_N are one
    N x N lu_solve away.  With series None the values come from
    ``esym_by_sampling``.  Returns (esym values, function run(esym)->rem):
    run is the one division whose remainder decides the verdict.
    """
    M = len(roots) - 2
    N = L.order - 2
    basis = FactorBasis(roots)

    def at(op, assign):
        return DiffOpM(basis, [RatM.from_exact(basis, c, assign) for c in op.coeffs])

    Ltm = at(Lt, {f"p{k}": to_mpc(p) for k, p in enumerate(p_vals, 1)})

    def run(esym):
        _, rem = at(L, {f"e{j}": e for j, e in enumerate(esym, 1)}).right_divide_monic(Ltm)
        return rem

    if series is None:
        return esym_by_sampling(run, N, M), run
    ratios, shift = series
    A = mp.matrix([[mp.mpf(n) ** k for k in range(1, N + 1)] for n in range(1, N + 1)])
    s = mp.lu_solve(A, mp.matrix([r - 1 for r in ratios]))
    # prod(x + e_i + shift) = sigma'_N (1 + sum_k s_k x^k); shift x back
    lead = 1 / s[N - 1]
    monic = poly_shift([lead] + [s[k] * lead for k in range(N)], -to_mpc(shift))
    return [monic[N - j] for j in range(1, N + 1)], run


def esym_by_sampling(run, N: int, M: int) -> list:
    """Esym values from the remainder alone, for instances without a usable
    z = 0 series.  The remainder of L_GHG by L-tilde is affine in the esym
    vector; sample ``run`` at 0 and at unit vectors, assemble the linear
    system from the first N coefficients of w1's numerator (z-expansion for
    M=1, (z-1)-expansion for M >= 2), and lu_solve."""
    def w1_coeffs(rem):
        w1 = rem.coeff(1)
        num = w1.num
        if M >= 2:
            num = poly_shift(num, mp.mpc(1))
        return num

    zero_e = [mp.mpc(0)] * N
    rem0 = run(zero_e)
    base_vec = w1_coeffs(rem0)
    cols = []
    for j in range(N):
        e = [mp.mpc(0)] * N
        e[j] = mp.mpc(1)
        remj = run(e)
        cj = w1_coeffs(remj)
        n = max(len(cj), len(base_vec))
        col = [(cj[i] if i < len(cj) else 0) - (base_vec[i] if i < len(base_vec) else 0)
               for i in range(n)]
        cols.append(col)
    nrows = max(len(base_vec), max(len(c) for c in cols))
    rows = []
    for i in range(nrows):
        vec = [cols[j][i] if i < len(cols[j]) else mp.mpc(0) for j in range(N)]
        rhs = -(base_vec[i] if i < len(base_vec) else mp.mpc(0))
        rows.append((vec, rhs))
    # first-N coefficients in expansion order, skipping rows that do not
    # increase the (numerically well-conditioned) rank: the uncancelled
    # denominator factors make low coefficients structural zeros
    tol = mp.mpf(10) ** (-(mp.prec // 10))
    scale = max((max(abs(x) for x in vec + [rhs]) for vec, rhs in rows),
                default=mp.mpf(0))
    chosen = []
    ortho = []
    for vec, rhs in rows:
        nrm = mp.sqrt(sum(abs(x) ** 2 for x in vec))
        if nrm <= tol * max(scale, 1):
            continue
        resid = [mp.mpc(x) for x in vec]
        for u in ortho:
            proj = sum(a * mp.conj(b) for a, b in zip(resid, u))
            resid = [a - proj * b for a, b in zip(resid, u)]
        rnrm = mp.sqrt(sum(abs(x) ** 2 for x in resid))
        if rnrm <= tol * nrm:
            continue
        ortho.append([x / rnrm for x in resid])
        chosen.append((vec, rhs))
        if len(chosen) == N:
            break
    if len(chosen) < N:
        raise ZeroDivisionError(
            f"w1 coefficient system is rank-deficient ({len(chosen)} < {N})")
    A = mp.matrix(N, N)
    b = mp.matrix(N, 1)
    for i, (vec, rhs) in enumerate(chosen):
        b[i] = rhs
        for j in range(N):
            A[i, j] = vec[j]
    sol = mp.lu_solve(A, b)
    return [sol[j] for j in range(N)]


def newton_apparency(system_fns, jac_fns, M, seed=0, max_starts=60,
                     tol_exp=None):
    """Solve P_1(p)=...=P_M(p)=0 by damped Newton from random complex starts.

    system_fns / jac_fns are callables taking a list of mpc and returning mpc.
    Deterministic for fixed seed.  Returns the p-vector at residual below
    10^tol_exp (default: 12 digits above working precision, capped at -70,
    the certification target at 300 bits)."""
    import random as _random
    rng = _random.Random(seed)
    if tol_exp is None:
        tol_exp = max(-70, -(mp.dps - 12))
    tol = mp.mpf(10) ** tol_exp
    for _ in range(max_starts):
        p = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(M)]
        ok = True
        for _ in range(220):
            F = mp.matrix([system_fns[i](p) for i in range(M)])
            res = max(abs(F[i]) for i in range(M))
            if res < tol:
                break
            J = mp.matrix(M, M)
            for i in range(M):
                for j in range(M):
                    J[i, j] = jac_fns[i][j](p)
            try:
                step = mp.lu_solve(J, F)
            except ZeroDivisionError:
                ok = False
                break
            nrm = max(abs(step[i]) for i in range(M))
            damp = 1 if nrm < 1 else mp.mpf(1) / nrm
            p = [p[i] - damp * step[i] for i in range(M)]
        else:
            ok = False
        if not ok:
            continue
        F = [system_fns[i](p) for i in range(M)]
        if max(abs(f) for f in F) < tol:
            return p
    raise RuntimeError("Newton failed to reach the apparency residual target")
