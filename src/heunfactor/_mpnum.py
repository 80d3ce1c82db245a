"""High-precision numeric operator arithmetic (mpmath lane).

Runs the factorization defect check at several hundred bits: L_GHG, built
from its th-table (`ghg._theta_table`) at numeric esym values, is reduced
modulo L-tilde, read from its cleared form Q D^2 + P1 D + S at numeric
residues (`d_remainders` and `cleared_remainder`, the D^j mod L-tilde
recurrence).  The remainder r1 D + r0 is read over z^N Q^(N+1), Q = z (z-1)
prod(z - t_k), a denominator fixed by the instance, whatever form the
operators take.

The verdict's path (`d_remainders`, `solve_esym_numeric`,
`remainder_defect`, `theta_at`) holds only Gaussian fixed-point pairs and
int coefficient lists, all at the scale of the one `GaussPoint` of the
residues.  The tests' reference layer is separate: rational functions
whose denominators are exponent vectors over a fixed basis of linear
factors (z - r_i) (`FactorBasis`, `RatM`), operators over them (`DiffOpM`)
and ``DiffOpM.right_divide_monic``, `oredop.right_divide` with fixed-point
coefficients, into which the tests evaluate the exact operators.

Numerators are Gaussian integers in fixed point: two int coefficient lists
(re, im) standing for (re + i im) 2^-W, with one W per `GaussPoint` (or
`FactorBasis`), the working precision ``mp.prec`` at its construction plus
``GUARD_BITS``.
Sums, derivatives and integer scales are exact.  Each input coefficient and
each coefficient of a product (exactalg's ``poly_mul`` on plain ints) is
rounded once to the nearest multiple of 2^-W, an absolute error of at most
2^-(W+1) in each part.  The verdict compares an absolute numerator maximum
with 10^tol_exp, and tol_exp > -prec log10 2, so these roundings sit
GUARD_BITS below the finest verdict.  Fixed point loses to floating point
only where a value below 2^-GUARD_BITS, which keeps fewer than prec
significant bits, meets a large one; tests/test_mpnum.py's dynamic-range
test covers residues, parameters and singular points from 1/10^6 to 10^5.

Every exact polynomial of the lane is evaluated one way, by `GaussPoint`:
L-tilde's coefficients and Newton's F and Jacobian.  L_GHG needs no
polynomial evaluation: each z-coefficient is an affine form in the esym
values, rounded once from its exact value as `GaussPoint.value` rounds it
(`theta_at`).  A power x^k comes from x^(k-1) x, rounded once, so its
error is at most about k max(1, |x|)^(k-1) 2^-(W+1) per part; a monomial
in several variables rounds once more per factor; the int coefficients
multiply and add exactly, and the content is one rounded multiply.  A value therefore
errs by a few 2^-W times the sum of its absolute terms, with each |x|
floored at 1.  Newton (`newton_apparency`) iterates in this fixed point
too, its M x M step solve included, and stops on a step below
10^-70 max(1, max |p|) at 300 bits; the error of F over |J| sets the noise
of that step.  Large residues cost no significant bits: at t = 10^5
(gamma 5/7, beta 3/5, m 3) the residue reaches |p| = 1.8e5 and the
system's terms 1e30, and the root matches a 400-bit solve to 4e-91
relative.  Small residues keep fewer bits only in their small terms: at
t = 10^-6 the residue is 1.6e-10 and the root matches to 4e-91 as well.
Only the defect and the printed values are mpc.

The esym values come from the remainder itself (`solve_esym_numeric`):
the remainders of D^j modulo L~ do not depend on them and L_GHG's
coefficients are affine in them, so r1 = 0 is the linear system that the
exact lane solves in w1.  Its coefficient rows, tall and unscaled, are
solved in this fixed point with partial pivoting over all rows (`_solve`,
as Newton's step).  One pass of the recurrence serves the rows and the
verdict, `remainder_defect` at the solved values, which reads every
coefficient of r1 and r0: a wrong L~ passes only if some esym values make
L_GHG = D~ L~.  Nothing needs a quotient: each step of the recurrence is
a few products with Q, Q', P1 and S, and the denominators are powers of Q
known in advance, so nothing is cancelled or lifted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import isqrt, lcm
from operator import add

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .exactalg import (_FIELD_MASK, MultiPoly, UsageError, _frac, exact_div, poly_add,
                       poly_deflate, poly_deriv, poly_mul, poly_scale, poly_trim)
from .ghg import _theta_table
from .oredop import right_divide

# bits kept below the working precision by the fixed-point numerators
GUARD_BITS = 32


def to_mpc(x) -> "mpmath.mpc":
    """Lift ints, Fractions, floats, strings and mp numbers to mpc."""
    if isinstance(x, Fraction):
        return mp.mpc(x.numerator) / x.denominator
    return mp.mpc(x)


def _fixed(x, W: int) -> tuple:
    """(re, im) of the mpc x in units of 2^-W, rounded to nearest."""
    return tuple((to_fixed(part, W + 1) + 1) >> 1 for part in x._mpc_)


def _unfixed(v: tuple, W: int) -> "mpmath.mpc":
    """The mpc of a fixed-point pair (re, im) in units of 2^-W."""
    prec = mp.prec
    return mp.make_mpc(tuple(from_man_exp(x, -W, prec, round_nearest) for x in v))


def _round_mul(x: tuple, y: tuple, W: int) -> tuple:
    """(a + i b)(c + i d) of two fixed-point pairs at scale 2^-W, rounded."""
    (a, b), (c, d), half = x, y, 1 << (W - 1)
    return (a * c - b * d + half) >> W, (a * d + b * c + half) >> W


class GaussPoint:
    """Values of named variables in Gaussian fixed point, (re + i im) 2^-W,
    with a power table per variable that fills as polynomials need it."""

    __slots__ = ("bits", "_powers")

    def __init__(self, values, bits: int):
        """values: {variable name: an mpc, or anything ``to_mpc`` lifts, or a
        fixed-point pair (re, im) in units of 2^-bits, taken as it is}."""
        self.bits = bits
        self._powers = {name: [(1 << bits, 0), v if type(v) is tuple else _fixed(to_mpc(v), bits)]
                        for name, v in values.items()}

    def _power(self, name: str, k: int) -> tuple:
        pw, W = self._powers[name], self.bits
        while len(pw) <= k:
            pw.append(_round_mul(pw[-1], pw[1], W))
        return pw[k]

    def value(self, f: MultiPoly, factor: Fraction = Fraction(1)) -> tuple:
        """factor times the MultiPoly f at this point, (re, im) in units of
        2^-W.  Each monomial is a product of table powers, rounded once per
        product; the sum of the int-coefficient terms is exact, so the value
        does not depend on term order; the content times factor is applied
        at the end as one rounded rational multiply."""
        ring, W = f.ring, self.bits
        fields = [(ring._field(name)[0], name) for name in self._powers if name in ring.index]
        re = im = 0
        for key, c in f._t.items():
            deg, mono = key >> ring._deg_shift, None
            for s, name in fields:
                k = key >> s & _FIELD_MASK
                if k:
                    deg -= k
                    x = self._power(name, k)
                    mono = x if mono is None else _round_mul(mono, x, W)
            if deg:
                raise UsageError(f"no value for a variable of {f.pretty()[:80]}")
            if mono is None:
                re += c << W
            else:
                re += c * mono[0]
                im += c * mono[1]
        q = f._c if factor == 1 else f._c * factor
        if q == 1:
            return re, im
        n, d = q.numerator, q.denominator
        return (2 * re * n + d) // (2 * d), (2 * im * n + d) // (2 * d)


def _rounded(p: list, W: int) -> list:
    """A product of two 2^-W fixed-point polynomials back at scale 2^-W,
    each coefficient rounded to nearest."""
    half = 1 << (W - 1)
    return [(c + half) >> W for c in p]


def _fixed_rationals(a, W: int) -> list:
    """Rational coefficients in units of 2^-W, rounded to nearest, ties up."""
    return [(2 * c.numerator << W) // c.denominator + 1 >> 1 for c in map(Fraction, a)]


def _gauss_mul(a: list, b: list, c: list, d: list) -> tuple:
    """(a + i b)(c + i d) for int coefficient lists, exactly: three products,
    or two when one factor is real."""
    if b == [0]:
        return poly_mul(a, c), poly_mul(a, d)
    if d == [0]:
        return poly_mul(a, c), poly_mul(b, c)
    ac, bd = poly_mul(a, c), poly_mul(b, d)
    mixed = poly_mul(poly_add(a, b), poly_add(c, d))
    return poly_add(ac, poly_scale(bd, -1)), poly_add(mixed, poly_scale(poly_add(ac, bd), -1))


class FactorBasis:
    """Fixed list of rational roots r_i of the linear factors (z - r_i)
    shared by a computation, and its fixed-point exponent W."""

    def __init__(self, roots):
        self.exact = tuple(Fraction(r) for r in roots)
        self.bits = mp.prec + GUARD_BITS
        self._products = {}
        self._splits = {}

    def split(self, fac) -> tuple:
        """(exponents, c) with fac = c prod (z - r_i)^exponents_i, for a
        polynomial fac in z alone; found once per factor."""
        out = self._splits.get(fac)
        if out is None:
            z = fac.ring.var("z")
            rest, exps = fac, []
            for r in self.exact:
                n = 0
                while (q := exact_div(rest, z - r)) is not None:
                    rest, n = q, n + 1
                exps.append(n)
            if not rest.is_const():
                raise ValueError(f"denominator factor {fac.pretty()} does not "
                                 "split over the factor basis")
            out = self._splits[fac] = (exps, rest.const_value())
        return out

    def expand(self, vec) -> list:
        """prod (z - r_i)^vec_i in fixed point, one int list (the roots are
        real), exact and then rounded; built once per exponent vector."""
        vec = tuple(vec)
        out = self._products.get(vec)
        if out is None:
            P = [1]
            for r, k in zip(self.exact, vec):
                for _ in range(k):
                    P = poly_mul(P, [-r, 1])
            out = self._products[vec] = _fixed_rationals(P, self.bits)
        return out


class RatM:
    """(re + i im)(z) 2^-W / prod (z - r_i)^vec_i over a shared FactorBasis:
    re and im are int coefficient lists, W is ``basis.bits``."""

    __slots__ = ("basis", "re", "im", "vec")

    def __init__(self, basis: FactorBasis, re: list, im: list, vec: tuple):
        self.basis = basis
        self.re = poly_trim(re)
        self.im = poly_trim(im)
        self.vec = vec

    @classmethod
    def zero(cls, basis):
        return cls(basis, [0], [0], (0,) * len(basis.exact))

    @classmethod
    def from_exact(cls, basis: FactorBasis, f, point: GaussPoint) -> "RatM":
        """An exact coefficient f (a RatFunc whose denominator factors are
        polynomials in z alone) with the other variables of its numerator at
        ``point``, whose scale is ``basis.bits``."""
        vec = [0] * len(basis.exact)
        scale = Fraction(1)
        for fac, k in f.den_factors().items():
            exps, c = basis.split(fac)
            vec = [v + k * e for v, e in zip(vec, exps)]
            scale *= c ** k
        cs = f.num.coeffs_in("z")
        re = [0] * (max(cs, default=0) + 1)
        im = list(re)
        for k, c in cs.items():
            re[k], im[k] = point.value(c, 1 / scale)
        return cls(basis, re, im, tuple(vec))

    @property
    def is_zero(self):
        return self.re == [0] and self.im == [0]

    def _lift(self, vec) -> tuple:
        """(re, im) over the denominator exponents vec >= self.vec."""
        extra = [v - w for v, w in zip(vec, self.vec)]
        if not any(extra):
            return self.re, self.im
        e, W = self.basis.expand(extra), self.basis.bits
        return _rounded(poly_mul(self.re, e), W), _rounded(poly_mul(self.im, e), W)

    def __add__(self, other):
        vec = tuple(map(max, self.vec, other.vec))
        (a, b), (c, d) = self._lift(vec), other._lift(vec)
        return RatM(self.basis, poly_add(a, c), poly_add(b, d), vec)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        W = self.basis.bits
        re, im = _gauss_mul(self.re, self.im, other.re, other.im)
        return RatM(self.basis, _rounded(re, W), _rounded(im, W),
                    tuple(map(add, self.vec, other.vec)))

    def scale(self, s: int):
        return RatM(self.basis, poly_scale(self.re, s), poly_scale(self.im, s), self.vec)

    def derivative(self) -> "RatM":
        # (n / prod (z - r_i)^k_i)' = n' / prod - sum_i k_i n / (prod (z - r_i))
        out = RatM(self.basis, poly_deriv(self.re), poly_deriv(self.im), self.vec)
        for i, k in enumerate(self.vec):
            if k:
                vec = self.vec[:i] + (k + 1,) + self.vec[i + 1:]
                out = out + RatM(self.basis, poly_scale(self.re, -k), poly_scale(self.im, -k), vec)
        return out


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

    def right_divide_monic(self, other: "DiffOpM"):
        """(Q, rem) for a divisor whose leading coefficient is exactly 1; each
        coefficient subtracts its rounded Leibniz products, summed from zero."""
        zero = RatM.zero(self.basis)
        q, rem = right_divide(self.coeffs, other, zero, lambda c: c,
                              lambda a, b, ck: (a * b).scale(ck),
                              lambda c, ts: c - sum(ts, zero))
        return DiffOpM(self.basis, q), DiffOpM(self.basis, rem)


def _mag(x: tuple) -> int:
    """|x| of a fixed-point pair, floored to the unit."""
    return isqrt(x[0] * x[0] + x[1] * x[1])


def _solve(A: list, b: list, W: int) -> list:
    """x with A x = b for a square or tall matrix (a list of rows) of
    Gaussian fixed-point pairs at scale 2^-W, by Gaussian elimination with
    partial pivoting over all remaining rows: the n pivot rows fix x, and
    the other rows do not check it.  Products (`_round_mul`) and quotients
    are rounded once to nearest.  ZeroDivisionError when a pivot is no
    larger than eps = 2^(1 - prec) times the largest column sum of |A|."""

    def div(x, y):
        # ((ac + bd) + i (bc - ad)) / (c^2 + d^2)
        (a, b), (c, d) = x, y
        den = c * c + d * d
        return tuple(((2 * v << W) + den) // (2 * den) for v in (a * c + b * d, b * c - a * d))

    n = len(A[0])
    rows = [list(r) + [v] for r, v in zip(A, b)]
    colsum = max(sum(_mag(r[j]) for r in rows) for j in range(n))
    for k in range(n):
        sizes = [_mag(r[k]) for r in rows[k:]]
        size = max(sizes)
        piv = k + sizes.index(size)   # first of equals
        rows[k], rows[piv] = rows[piv], rows[k]
        sizes[piv - k] = sizes[0]
        top = rows[k]
        if size * (1 << mp.prec - 1) <= colsum:   # size <= eps colsum, exactly scaled
            raise ZeroDivisionError("matrix is numerically singular")
        for r, entry in zip(rows[k + 1:], sizes[1:]):
            if entry:   # an exact zero eliminates nothing
                f = div(r[k], top[k])
                for j in range(k + 1, n + 1):
                    a, b = _round_mul(f, top[j], W)
                    r[j] = r[j][0] - a, r[j][1] - b
    x = [0] * n
    for k in reversed(range(n)):
        r = rows[k]
        ps = [_round_mul(f, v, W) for f, v in zip(r[k + 1:n], x[k + 1:])]
        x[k] = div((r[n][0] - sum(p[0] for p in ps), r[n][1] - sum(p[1] for p in ps)), r[k])
    return x


def _theta_ints(table, N: int) -> tuple:
    """(den, forms): the th-table (``ghg._theta_table``, rational scalars)
    over one denominator, forms[j] = (A, B) with int vectors [const,
    sigma_1..sigma_N] such that A_j = sum_i A[i] sigma_i / den (sigma_0 =
    1), and B_j likewise."""
    den = lcm(*(_frac(s).denominator for row in table for s, _, _ in row))
    forms = []
    for row in table:
        ms = [(_frac(s) * den).numerator for s, _, _ in row]
        forms.append(tuple([sum(m * t[k][i] for m, t in zip(ms, row)) for i in range(N + 1)]
                           for k in (1, 2)))
    return den, forms


def theta_at(W: int, den: int, forms: list, esym) -> list:
    """L_GHG's coefficients below D^(N+2) from its th-table in int forms
    (den, forms) (`_theta_ints`) at the esym values ``esym`` (mpc-liftable,
    or fixed-point pairs at scale 2^-W taken as they are):
    one Gaussian fixed-point pair (A_j, B_j) at scale 2^-W per j = 0..N+1,
    the coefficient of D^j being (A_j z^j - B_j z^(j-1)) / (z^(N+2) -
    z^(N+1)).  A_j and -B_j are the exact rationals sum_i r_i x_i (x_i the
    fixed-point sigma_i, x_0 = 2^W; the `_theta_ints` forms) rounded once
    to nearest, ties up: what `GaussPoint.value` makes of the exact
    operator's numerator coefficients (``ghg_operator_esym``) at the same
    sigma values."""
    xs = [(1 << W, 0)] + [v if type(v) is tuple else _fixed(to_mpc(v), W) for v in esym]

    def rounded(form: list, sign: int) -> tuple:
        # sign * sum_i form_i x_i / den, (re, im) rounded to nearest
        return tuple(sign * ((2 * sign * sum(f * x[k] for f, x in zip(form, xs)) + den)
                             // (2 * den)) for k in (0, 1))

    return [(rounded(A, 1), rounded(B, -1)) for A, B in forms]


def _rounded_sum(W: int, *products) -> list:
    """The sum of exact products of 2^-W polynomials, rounded once back to
    scale 2^-W."""
    return _rounded(reduce(poly_add, products), W)


def d_remainders(Lt, point: GaussPoint) -> tuple:
    """The esym-free part of `cleared_remainder`: (W, q, prod, U, V, den,
    forms) with W = ``point.bits``, Q and prod(z - t_k) as fixed-point int
    lists, the remainders rem(D^j) = (U_j D + V_j) / Q^(j-1), j = 0..N+2,
    as Gaussian fixed-point pairs, and L_GHG's th-table as `_theta_ints`.

    L-tilde, its residue atoms at ``point``, is read from its cleared form
    Q D^2 + P1 D + S (``Lt.cleared``, which must take its rational branch).
    By the normal form D (u D + v) = (u' + v - u P1/Q) D + v' - u S/Q
    (Bronstein and Petkovsek, 1996), from U_0 = 0, V_0 = 1, U_1 = 1, V_1 = 0
    and with e = j - 1,
        U_(j+1) = (U_j' + V_j) Q - U_j (e Q' + P1),
        V_(j+1) = V_j' Q - e Q' V_j - U_j S.
    Q, Q', P1 and prod(z - t_k) are rounded once, S by `GaussPoint.value`;
    each step sums its exact products and rounds once."""
    _, Q, P1, S = Lt.cleared
    if not all(isinstance(s, MultiPoly) for s in S):
        raise UsageError("the fixed-point remainder needs rational gamma, delta and t_k")
    W, N = point.bits, Lt.N
    q, dq, minus_p1, prod = (_fixed_rationals(a, W) for a in (
        Q, poly_deriv(Q), poly_scale(P1, -1), poly_deflate(poly_deflate(Q, 0), 1)))
    minus_s = tuple(poly_scale(part, -1) for part in zip(*map(point.value, S)))
    zero, one = ([0], [0]), ([1 << W], [0])
    U, V = [zero, one], [one, zero]
    for e in range(N + 1):
        (ur, ui), (vr, vi) = U[-1], V[-1]
        minus_edq = poly_scale(dq, -e)
        minus_b = poly_add(minus_edq, minus_p1)   # -(e Q' + P1)
        minus_us = _gauss_mul(ur, ui, *minus_s)
        U.append(tuple(_rounded_sum(W, poly_mul(poly_add(poly_deriv(u), v), q),
                                    poly_mul(u, minus_b)) for u, v in ((ur, vr), (ui, vi))))
        V.append(tuple(_rounded_sum(W, poly_mul(poly_deriv(v), q), poly_mul(v, minus_edq), t)
                       for v, t in zip((vr, vi), minus_us)))
    return (W, q, prod, U, V) + _theta_ints(_theta_table(
        *(v.fraction() for v in (Lt.sum_ab, Lt.prod_ab, Lt.gamma)), N), N)


def _remainder(rems: tuple, esym) -> tuple:
    """`cleared_remainder` from the `d_remainders` of its L-tilde and point."""
    W, q, prod, U, V, den, forms = rems
    n = len(forms)
    N = n - 2
    zero = ([0], [0])
    C = [tuple(poly_trim([0] * (j - 1) + [-b, a] if j else [a]) for a, b in zip(A, B))
         for j, (A, B) in enumerate(theta_at(W, den, forms, esym))]
    r = []
    for X in (U, V):
        acc = zero
        for j in range(1, n):
            terms = [_gauss_mul(*C[k], *X[k]) for k in ((1, 0) if j == 1 else (j,))]
            acc = tuple(_rounded_sum(W, poly_mul(a, q), *ts) for a, *ts in zip(acc, *terms))
        r.append(tuple(poly_add([0] * N + x, _rounded(poly_mul(a, prod), W))
                       for x, a in zip(X[n], acc)))
    return r[0], r[1]


def cleared_remainder(Lt, point: GaussPoint, esym) -> tuple:
    """(r1, r0): the remainder r1 D + r0 of L_GHG on right division by
    L-tilde as Gaussian fixed-point numerators (re, im) at scale 2^-W, W =
    ``point.bits``, over z^N Q^(N+1), Q = z (z-1) prod(z - t_k).  L_GHG,
    from its th-table at the esym values (`theta_at`), is sum_j C_j D^j /
    (z^(N+1) (z-1)) with C_j = z^(j-1) (A_j z - B_j) and monic D^(N+2);
    with rem(D^j) = (U_j D + V_j) / Q^(j-1) (`d_remainders`), n = N + 2,
        r = z^N X_n + prod(z - t_k) sum_(j<n) C_j X_j Q^(N - max(j-1, 0))
    for X = U (r1) and X = V (r0), by Horner in Q, each step rounded once."""
    return _remainder(d_remainders(Lt, point), esym)


def solve_esym_numeric(rems: tuple) -> list:
    """The esym values sigma_1..sigma_N that make r1 vanish, as fixed-point
    pairs at scale 2^-W, from `d_remainders` rems.  Each C_j is affine in
    sigma (`_theta_ints`), so with Y_j = prod(z - t_k) U_j Q^(N - max(j-1,
    0)), each rounded once, den r1 = G_0 + sum_i sigma_i G_i with
        G_i = sum_j (A_j[i] z^j - B_j[i] z^(j-1)) Y_j  (+ den z^N U_(N+2) in G_0),
    exact int combinations.  The coefficient rows of G_1..G_N against -G_0,
    unscaled, go to `_solve` in Gaussian fixed point; singular rows raise
    ZeroDivisionError."""
    W, q, prod, U, V, den, forms = rems
    n = len(forms)
    N = n - 2
    QP = [prod]   # prod(z - t_k) Q^k
    for _ in range(N):
        QP.append(_rounded(poly_mul(QP[-1], q), W))
    Y = [[_rounded(poly_mul(u, QP[N - max(j - 1, 0)]), W) for u in U[j]] for j in range(n)]
    L = max([N + len(u) for u in U[n]] + [j + len(y) for j, ys in enumerate(Y) for y in ys])
    G = [([0] * L, [0] * L) for _ in range(N + 1)]
    for part, u in enumerate(U[n]):
        G[0][part][N:N + len(u)] = [den * c for c in u]
    for j, ((A, B), ys) in enumerate(zip(forms, Y)):
        for part, y in enumerate(ys):
            for g, a, b in zip(G, A, B):
                if a or b:   # B_0 = 0, so at j = 0 g[-1] gains nothing
                    g = g[part]
                    for k, c in enumerate(y, j):
                        g[k] += a * c
                        g[k - 1] -= b * c
    rows = [[(g[0][k], g[1][k]) for g in G[1:]] for k in range(L)]
    return _solve(rows, [(-G[0][0][k], -G[0][1][k]) for k in range(L)], W)


def remainder_defect(rems: tuple, esym) -> mpmath.mpf:
    """The verdict: the largest isqrt(re^2 + im^2) 2^-W over the
    coefficients of r1 and r0 (`cleared_remainder`, from the `d_remainders`
    rems), over the instance's fixed denominator z^N Q^(N+1).  Its error is
    a sum of roundings of at most 2^-(W+1) per part, each amplified only by
    the other factors of its product (module docstring)."""
    top = max(isqrt(x * x + y * y) for re, im in _remainder(rems, esym)
              for x, y in zip_longest(re, im, fillvalue=0))
    return mpmath.ldexp(mp.mpf(top), -rems[0])


def newton_apparency(system, names, seed=0):
    """Solve P_1(p)=...=P_M(p)=0 by damped Newton from at most 60 random
    complex starts in [-2, 2]^2, each step at most max(1, max |p_i|) long.

    system: the MultiPolys P_j in the variables ``names`` (p1..pM).  From
    each start to the root, p, F (`GaussPoint.value`), its Jacobian, the
    M x M step solve (`_solve`: products and quotients rounded once) and
    the update are Gaussian fixed point at scale 2^-W, W = mp.prec +
    GUARD_BITS.  Deterministic for fixed seed.  Returns p (mpc) after the
    first full step shorter than tol max(1, max |p_i|), tol =
    10^max(-70, 12 - dps): 12 digits above working precision, capped at the
    certification target -70 of 300 bits.  Newton converges quadratically
    there, so p lies far closer to the root than that step, down to the
    rounding floor of the system.  No absolute residual is asked for: a
    system with large terms keeps its residual above any fixed target at
    working precision."""
    rng = random.Random(seed)
    M, W = len(names), mp.prec + GUARD_BITS
    jac = [[P.derivative(n) for n in names] for P in system]
    one = 1 << W
    tol = (one * 10 ** 12) // 10 ** min(82, mp.dps)   # 10^max(-70, 12 - dps) 2^W
    for _ in range(60):
        p = [_fixed(mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)), W) for _ in range(M)]
        for _ in range(220):
            at = GaussPoint(dict(zip(names, p)), W)
            try:
                step = _solve([[at.value(d) for d in row] for row in jac],
                              [at.value(P) for P in system], W)
            except ZeroDivisionError:
                break
            nrm = max(map(_mag, step))
            reach = max(one, max(map(_mag, p)))
            if nrm >= reach:
                step = [tuple((2 * v * reach + nrm) // (2 * nrm) for v in dx) for dx in step]
            p = [(x - dx, y - dy) for (x, y), (dx, dy) in zip(p, step)]
            if nrm << W < tol * reach:
                return [_unfixed(x, W) for x in p]
    raise RuntimeError("Newton failed to converge on the apparency system")
