"""High-precision numeric operator arithmetic (mpmath lane).

Runs the factorization defect check at several hundred bits on the exact
operators, evaluated at numeric residues and esym values: dense univariate
polynomials over ``mpmath.mpc``, rational functions whose denominators are
exponent vectors over a fixed basis of linear factors (z - r_i), and
normal-ordered operator composition / right division by a monic operator.

The esym values come from the z = 0 series identity of L~ (an N x N solve,
no division), or from the exact esym solve when that series cannot carry
them (``factorize.verify_factorization_numeric``); either way one division,
``remainder_defect``, decides the verdict.

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


def solve_esym_numeric(ratios, shift) -> list | None:
    """Esym values from L-tilde's z = 0 series at exponent ``shift``, or None
    when the series does not determine them.

    ratios[n-1] = prod(1 + n / (e_i + shift)) for n = 1..N is a polynomial in
    n of degree N whose coefficients s_k = sigma'_{N-k} / sigma'_N are one
    N x N lu_solve away.  s_N = 1 / prod(e_i + shift) cannot vanish for finite
    e_i, so a zero s_N means that the series fixes no esym values.
    """
    N = len(ratios)
    A = mp.matrix([[mp.mpf(n) ** k for k in range(1, N + 1)] for n in range(1, N + 1)])
    s = mp.lu_solve(A, mp.matrix([r - 1 for r in ratios]))
    if not s[N - 1]:
        return None
    # prod(x + e_i + shift) = sigma'_N (1 + sum_k s_k x^k); shift x back
    lead = 1 / s[N - 1]
    monic = poly_shift([lead] + [s[k] * lead for k in range(N)], -to_mpc(shift))
    return [monic[N - j] for j in range(1, N + 1)]


def remainder_defect(L, Lt, roots, p_vals, esym) -> mpmath.mpf:
    """The verdict's one division: L is the exact L_GHG with the esym atoms
    e1..eN, Lt the exact L-tilde with the residue atoms p1..pM, both
    evaluated at p_vals and esym over the factor basis of ``roots`` (the
    singular points [0, 1, t_1, ..., t_M]); returns the largest absolute
    numerator coefficient of the remainder of L by Lt."""
    basis = FactorBasis(roots)

    def at(op, name, vals):
        assign = {f"{name}{k}": to_mpc(v) for k, v in enumerate(vals, 1)}
        return DiffOpM(basis, [RatM.from_exact(basis, c, assign) for c in op.coeffs])

    divisor = at(Lt, "p", p_vals)
    _, rem = at(L, "e", esym).right_divide_monic(divisor)
    return max((abs(x) for c in rem.coeffs for x in c.num), default=mp.mpf(0))


def newton_apparency(system_fns, jac_fns, M, seed=0):
    """Solve P_1(p)=...=P_M(p)=0 by damped Newton from at most 60 random
    complex starts.

    system_fns / jac_fns are callables taking a list of mpc and returning mpc.
    Deterministic for fixed seed.  Returns the p-vector at residual below
    10^max(-70, 12 - dps): 12 digits above working precision, capped at the
    certification target -70 of 300 bits."""
    import random as _random
    rng = _random.Random(seed)
    tol = mp.mpf(10) ** max(-70, 12 - mp.dps)
    for _ in range(60):
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
