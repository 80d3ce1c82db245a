"""High-precision numeric operator arithmetic (mpmath lane).

Mirrors just enough of the exact operator stack to run the factorization
defect check at several hundred bits: dense univariate polynomials over
``mpmath.mpc``, rational functions whose denominators are exponent vectors
over a fixed basis of linear factors (z - r_i), and normal-ordered operator
composition / right division by a monic operator.

Denominators never need cancellation here: every division in the pipeline is
by a leading coefficient equal to one, so degrees stay at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath
from mpmath import mp

from .exactalg import poly_add, poly_deriv, poly_mul, poly_scale, poly_shift, poly_trim


def to_mpc(x) -> "mpmath.mpc":
    """Lift ints, Fractions, floats, strings and mp numbers to mpc."""
    if isinstance(x, Fraction):
        return mp.mpc(x.numerator) / x.denominator
    return mp.mpc(x)


class FactorBasis:
    """Fixed list of linear-factor roots (z - r_i) shared by a computation."""

    def __init__(self, roots):
        self.roots = tuple(to_mpc(r) for r in roots)

    def expand(self, vec) -> list:
        out = [mp.mpc(1)]
        for r, k in zip(self.roots, vec):
            for _ in range(k):
                out = poly_mul(out, [-r, mp.mpc(1)])
        return out


class RatM:
    """num(z) / prod (z - r_i)^vec_i over a shared FactorBasis."""

    __slots__ = ("basis", "num", "vec")

    def __init__(self, basis: FactorBasis, num: list, vec=None):
        self.basis = basis
        self.num = poly_trim([to_mpc(c) for c in num])
        self.vec = tuple(vec) if vec is not None else (0,) * len(basis.roots)

    @classmethod
    def const(cls, basis, c):
        return cls(basis, [to_mpc(c)])

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
        prod_all = [mp.mpc(1)]
        for i in active:
            prod_all = poly_mul(prod_all, [-self.basis.roots[i], mp.mpc(1)])
        total = poly_mul(poly_deriv(self.num), prod_all)
        for i in active:
            partial = [mp.mpc(1)]
            for j in active:
                if j != i:
                    partial = poly_mul(partial, [-self.basis.roots[j], mp.mpc(1)])
            total = poly_add(total, poly_scale(poly_mul(self.num, partial),
                                               -self.vec[i]))
        return RatM(self.basis, total, new_vec)

    def max_num_abs(self):
        return max(abs(c) for c in self.num)


class DiffOpM:
    """sum c_j(z) D^j with RatM coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: FactorBasis, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.basis = basis
        self.coeffs = cs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return RatM.const(self.basis, 0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOpM(self.basis, [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOpM(self.basis, [self.coeff(j) - other.coeff(j) for j in range(n)])

    def scale_rat(self, r: RatM):
        return DiffOpM(self.basis, [c * r for c in self.coeffs])

    def __mul__(self, other: "DiffOpM"):
        n, m = self.order, other.order
        if n < 0 or m < 0:
            return DiffOpM(self.basis, [])
        derivs = [list(other.coeffs)]
        for _ in range(n):
            derivs.append([c.derivative() for c in derivs[-1]])
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


def esym_shifted_num(esym, c, N):
    """Elementary symmetric functions of (e_i + c) from those of e_i (index 0 = 1)."""
    base = [mp.mpc(1)] + [to_mpc(e) for e in esym]
    out = []
    for k in range(N + 1):
        acc = mp.mpc(0)
        for j in range(k + 1):
            acc += base[j] * comb(N - j, k - j) * to_mpc(c) ** (k - j)
        out.append(acc)
    return out


def _theta_powers_as_ops(basis: FactorBasis, max_k: int):
    """Normal-ordered z-polynomial coefficient lists for th^k, th = z d/dz.

    Returns table[k][j] = polynomial coefficient of D^j in th^k.
    """
    table = [[[mp.mpc(1)]]]  # th^0 = 1
    z = [mp.mpc(0), mp.mpc(1)]
    for _ in range(max_k):
        prev = table[-1]
        out = [[mp.mpc(0)] for _ in range(len(prev) + 1)]
        # th * (sum c_j D^j) = z * sum (c_j' D^j + c_j D^(j+1))
        for j, c in enumerate(prev):
            out[j + 1] = poly_add(out[j + 1], poly_mul(z, c))
            out[j] = poly_add(out[j], poly_mul(z, poly_deriv(c)))
        table.append(out)
    return table


def ghg_esym_numeric(basis: FactorBasis, sum_ab, prod_ab, gamma, esym):
    """Monic L_{alpha,beta,e+1;gamma,e} with numeric elementary symmetric e."""
    N = len(esym)
    up = esym_shifted_num(esym, 1, N)     # esym of e_i + 1
    lo = esym_shifted_num(esym, -1, N)    # esym of e_i - 1
    # theta-polynomials, low power first
    b_poly = [lo[N - i] for i in range(N + 1)]
    b_poly = poly_mul(b_poly, [to_mpc(gamma) - 1, mp.mpc(1)])
    a_poly = [up[N - i] for i in range(N + 1)]
    a_poly = poly_mul(a_poly, [to_mpc(prod_ab), to_mpc(sum_ab), mp.mpc(1)])
    table = _theta_powers_as_ops(basis, N + 2)

    def assemble(theta_poly):
        ops = [[mp.mpc(0)] for _ in range(len(theta_poly))]
        for k, c in enumerate(theta_poly):
            for j, pc in enumerate(table[k]):
                while len(ops) <= j:
                    ops.append([mp.mpc(0)])
                ops[j] = poly_add(ops[j], poly_scale(pc, c))
        return ops

    b_ops = assemble(b_poly)   # polynomial coefficients of Pi(th + b - 1)
    a_ops = assemble(a_poly)
    # B = D o b_ops:  D o (c_j D^j) = c_j D^(j+1) + c_j' D^j
    raw = [[mp.mpc(0)] for _ in range(max(len(b_ops) + 1, len(a_ops)))]
    for j, c in enumerate(b_ops):
        raw[j + 1] = poly_add(raw[j + 1], c)
        raw[j] = poly_add(raw[j], poly_deriv(c))
    for j, c in enumerate(a_ops):
        raw[j] = poly_add(raw[j], poly_scale(c, -1))
    # leading coefficient is z^(N+1) (1 - z); divide through
    lead_vec = [0] * len(basis.roots)
    # factor basis convention: root 0 at index 0, root 1 at index 1
    lead_vec[0] = N + 1
    lead_vec[1] = 1
    coeffs = []
    for c in raw:
        coeffs.append(RatM(basis, poly_scale(c, -1), tuple(lead_vec)))
    # raw leading coeff is z^(N+1) - z^(N+2) = -z^(N+1)(z-1); the -1 scale above
    # makes the operator exactly monic: top coefficient z^(N+1)(z-1)/(z^(N+1)(z-1))
    return DiffOpM(basis, coeffs)


def ltilde_numeric(basis: FactorBasis, gamma, delta, sing, prod_ab, p_vals):
    """The multi-apparent-singularity operator with numeric residues p_k.

    sing: list of (t_k as mpc-able, m_k).  Factor basis roots must be
    [0, 1, t_1, ..., t_M].
    """
    M = len(sing)
    nroots = len(basis.roots)
    one = RatM.const(basis, 1)
    # first-order coefficient gamma/z + delta/(z-1) - sum m_k/(z - t_k)
    c1 = RatM(basis, [to_mpc(gamma)], (1,) + (0,) * (nroots - 1))
    c1 = c1 + RatM(basis, [to_mpc(delta)], (0, 1) + (0,) * (nroots - 2))
    for k, (_, mk) in enumerate(sing):
        vec = [0] * nroots
        vec[2 + k] = 1
        c1 = c1 + RatM(basis, [to_mpc(-mk)], tuple(vec))
    # numerator S(z) = prod_ab prod(z - t_k) + sum p_k prod_{j != k}(z - t_j)
    S = [to_mpc(prod_ab)]
    for tk, _ in sing:
        S = poly_mul(S, [-to_mpc(tk), mp.mpc(1)])
    for k, (tk, _) in enumerate(sing):
        part = [to_mpc(p_vals[k])]
        for j, (tj, _) in enumerate(sing):
            if j != k:
                part = poly_mul(part, [-to_mpc(tj), mp.mpc(1)])
        S = poly_add(S, part)
    vec = [1, 1] + [1] * M
    c0 = RatM(basis, S, tuple(vec))
    return DiffOpM(basis, [c0, c1, one])


def defect_of_remainder(rem: DiffOpM) -> mpmath.mpf:
    if rem.order < 0:
        return mp.mpf(0)
    return max(c.max_num_abs() for c in rem.coeffs)


def solve_esym_numeric(gamma, delta, sing, prod_ab, p_vals, N):
    """Solve for the elementary symmetric e-values by affine sampling.

    The remainder of L_GHG by L-tilde is affine in the esym vector; sample it
    at 0 and at unit vectors, assemble the linear system from the first N
    coefficients of w1's numerator (z-expansion for M=1, (z-1)-expansion for
    M >= 2), and lu_solve.  Returns (esym values, function run(esym)->rem).
    """
    M = len(sing)
    basis = FactorBasis([0, 1] + [tk for tk, _ in sing])
    Lt = ltilde_numeric(basis, gamma, delta, sing, prod_ab, p_vals)
    sum_ab = to_mpc(gamma) + to_mpc(delta) - N - 1

    def run(esym):
        L = ghg_esym_numeric(basis, sum_ab, prod_ab, gamma, esym)
        _, rem = L.right_divide_monic(Lt)
        return rem

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
    return [sol[j] for j in range(N)], run


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
