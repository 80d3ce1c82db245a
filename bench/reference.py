"""Reference computations made apart from heunfactor.

Everything here uses plain ``Fraction`` and mpmath arithmetic and never
heunfactor's algebra.  Program outputs enter only through ``terms()``,
``num`` and ``den_factors()`` and are evaluated here (``eval_poly``,
``eval_ratfunc``).

Contents:

* ``UPoly``: polynomials in one free parameter (q or p), optionally reduced
  modulo a condition polynomial, so identities can be checked exactly in
  Q[q]/(P(q));
* ``Jet``: first-order jets, for exact Jacobians of the obstructions;
* the Frobenius recurrence of a second-order polynomial ODE at a regular
  singular point (DLMF 31.3.3 at z = 0, the same recurrence at z = t), the
  apparency obstruction with the accessory parameter left free, and the
  Heun-polynomial condition;
* the generalized hypergeometric coefficient identity built from the
  elementary symmetric values alone, and an esym solve from series
  coefficients;
* the paper's closed forms (eps = -1/-2 apparency conditions, alpha = -1/-2
  polynomial conditions, the order-1 and order-2 esym values, the eps = -2
  quasi-polynomial h(w), the LVW and eps = -2 apparent families);
* an independent p-solve from the obstructions (all roots for one extra
  singularity, Newton certification otherwise).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from mpmath import mp


# -- univariate polynomials, optionally modulo a condition polynomial ----------


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


class UPoly:
    """Polynomial in one free parameter, low power first.  With ``mod`` set
    (a monic coefficient list) every product is reduced modulo it, so this is
    an element of K[x]/(mod)."""

    __slots__ = ("c", "mod")

    def __init__(self, coeffs, mod=None):
        self.mod = mod
        self.c = _trim(list(coeffs))
        if mod is not None:
            self._reduce()

    @classmethod
    def x(cls, mod=None) -> "UPoly":
        return cls([0, 1], mod)

    def _reduce(self):
        m = self.mod
        d = len(m) - 1
        c = self.c
        while len(c) > d:
            lead = c[-1]
            shift = len(c) - 1 - d
            for i in range(d):
                c[shift + i] -= lead * m[i]
            c.pop()
            _trim(c)

    def _lift(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            return other
        return UPoly([other], self.mod)

    def __add__(self, other):
        o = self._lift(other)
        n = max(len(self.c), len(o.c))
        a = self.c + [0] * (n - len(self.c))
        b = o.c + [0] * (n - len(o.c))
        return UPoly([x + y for x, y in zip(a, b)], self.mod)

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-x for x in self.c], self.mod)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return UPoly([x * other for x in self.c], self.mod)
        if not self.c or not other.c:
            return UPoly([], self.mod)
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        return UPoly(out, self.mod if self.mod is not None else other.mod)

    __rmul__ = __mul__

    def __truediv__(self, s):
        if isinstance(s, UPoly):
            return self * s.inverse()
        return UPoly([x / s for x in self.c], self.mod)

    def __pow__(self, n: int):
        out = UPoly([1], self.mod)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (self - other).is_zero

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.c

    def monic(self) -> "UPoly":
        return self / self.c[-1]

    def inverse(self) -> "UPoly":
        """Inverse modulo ``mod`` by the extended Euclidean algorithm."""
        if self.mod is None:
            if len(self.c) == 1:
                return UPoly([1 / self.c[0]])
            raise ZeroDivisionError("non-constant polynomial has no inverse")
        r0, r1 = list(self.mod), list(self.c)
        s0, s1 = [], [1]
        while r1:
            qt, r = _divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _sub(s0, _mul(qt, s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor modulo the condition")
        return UPoly([x / r0[0] for x in s0], self.mod)

    def eval(self, x):
        acc = 0
        for c in reversed(self.c):
            acc = acc * x + c
        return acc


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _divmod(a, b):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
        a.pop()
        _trim(a)
    return _trim(q), a


# -- first-order jets (value plus gradient) ------------------------------------


class Jet:
    """Value with its gradient in M directions; exact first derivatives of
    any polynomial expression evaluated through it."""

    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = tuple(g)

    @classmethod
    def var(cls, v, k: int, M: int) -> "Jet":
        return cls(v, [1 if i == k else 0 for i in range(M)])

    def _lift(self, o):
        return o if isinstance(o, Jet) else Jet(o, [0] * len(self.g))

    def __add__(self, o):
        o = self._lift(o)
        return Jet(self.v + o.v, [a + b for a, b in zip(self.g, o.g)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, [-a for a in self.g])

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v * o, [a * o for a in self.g])
        return Jet(self.v * o.v, [a * o.v + self.v * b for a, b in zip(self.g, o.g)])

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Jet(self.v / s, [a / s for a in self.g])


# -- dense polynomials in z with generic coefficients ---------------------------


def padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def pmul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def pscale(a: list, s) -> list:
    return [x * s for x in a]


def from_roots(roots) -> list:
    out = [1]
    for r in roots:
        out = pmul(out, [-r, 1])
    return out


def taylor_shift(a: list, x0) -> list:
    """Coefficients of a(x + x0)."""
    out = list(a)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + x0 * out[j + 1]
    return out


# -- second-order polynomial ODEs A2 y'' + A1 y' + A0 y = 0 ---------------------


def heun_ode(alpha, beta, gamma, delta, eps, q, t) -> list:
    """[A0, A1, A2] of Heun's equation multiplied by z (z-1) (z-t)."""
    A2 = from_roots([0, 1, t])
    A1 = padd(padd(pscale(from_roots([1, t]), gamma), pscale(from_roots([0, t]), delta)),
              pscale(from_roots([0, 1]), eps))
    A0 = [-q, alpha * beta]
    return [A0, A1, A2]


def fuchsian_ode(gamma, delta, sing, prod_ab, ps) -> list:
    """[A0, A1, A2] of the apparent-singularity operator L~ with extra
    singularities sing = [(t_k, m_k)] and residues p_k, multiplied by
    z (z-1) prod(z - t_k):

        A1 = gamma (z-1) P + delta z P - sum_k m_k z (z-1) P / (z - t_k),
        A0 = prod_ab P + sum_k p_k P / (z - t_k),   P = prod (z - t_k).
    """
    ts = [t for t, _ in sing]
    P = from_roots(ts)
    A2 = pmul(from_roots([0, 1]), P)
    A1 = padd(pscale(pmul([-1, 1], P), gamma), pscale(pmul([0, 1], P), delta))
    A0 = pscale(P, prod_ab)
    for k, (_, mk) in enumerate(sing):
        rest = from_roots([t for j, t in enumerate(ts) if j != k])
        A1 = padd(A1, pscale(pmul(from_roots([0, 1]), rest), -mk))
        A0 = padd(A0, pscale(rest, ps[k]))
    return [A0, A1, A2]


def _falling(s, d: int):
    out = 1
    for i in range(d):
        out = out * (s - i)
    return out


class _Local:
    """The ODE in the local variable x = z - point (regular singular at 0)."""

    def __init__(self, ode: list, point):
        self.A = [taylor_shift(a, point) for a in ode]

    def coef(self, d: int, j: int):
        a = self.A[d]
        return a[j] if 0 <= j < len(a) else 0

    def indicial(self, s):
        return self.coef(2, 1) * s * (s - 1) + self.coef(1, 0) * s

    def rest(self, c: list, N: int, rho):
        """Sum of the terms of the x^(N + rho - 1) equation that involve
        c_0 .. c_{N-1}."""
        acc = 0
        for k in range(1, N + 1):
            s = N - k + rho
            for d in range(3):
                a = self.coef(d, k + d - 1)
                if not (isinstance(a, (int, Fraction)) and a == 0):
                    acc = acc + a * _falling(s, d) * c[N - k]
        return acc

    def series(self, rho, n: int) -> list:
        """c_0 = 1, ..., c_{n-1} at exponent rho (no resonance below n)."""
        c = [1]
        for N in range(1, n):
            c.append(-self.rest(c, N, rho) / self.indicial(N + rho))
        return c


def local_series(ode: list, point, rho, n: int) -> list:
    """c_0 = 1, ..., c_{n-1} of the local solution sum c_j (z-point)^(j+rho)."""
    return _Local(ode, point).series(rho, n)


def obstruction(ode: list, point, step: int):
    """Recurrence obstruction at the resonant index ``step`` for the
    exponent-0 solution: zero exactly when no logarithm appears, i.e. when
    the singularity is apparent."""
    loc = _Local(ode, point)
    return loc.rest(loc.series(0, step), step, 0)


def apparency_condition(alpha, beta, gamma, eps: int, t, mod=None) -> UPoly:
    """Monic apparency polynomial in q (q free) at z = t, degree 1 - eps."""
    m = -eps
    delta = alpha + beta + 1 - gamma - eps
    ode = heun_ode(alpha, beta, gamma, delta, eps, UPoly.x(mod), t)
    return obstruction(ode, t, m + 1).monic()


def heun_poly_condition(beta, gamma, eps, t, a_int: int) -> UPoly:
    """Monic condition in q for a polynomial solution of degree -alpha:
    c_{1-alpha}(q) = 0 in the z = 0 recurrence (DLMF 31.3.3)."""
    alpha = Fraction(a_int)
    delta = alpha + beta + 1 - gamma - eps
    ode = heun_ode(alpha, beta, gamma, delta, eps, UPoly.x(), t)
    return local_series(ode, 0, 0, 2 - a_int)[-1].monic()


# -- generalized hypergeometric coefficients from elementary symmetric values --


def shift_esym(sigma: list, c) -> list:
    """Elementary symmetric values of (e_i + c) from those of e_i; sigma
    holds sigma_1..sigma_N and the result does too."""
    N = len(sigma)
    base = [1] + list(sigma)
    return [sum((base[j] * comb(N - j, k - j) * c ** (k - j) for j in range(k + 1)), 0)
            for k in range(1, N + 1)]


def _E(sigma: list, n: int):
    """prod_i (e_i + n) = sum_k sigma_k n^(N-k)."""
    N = len(sigma)
    base = [1] + list(sigma)
    return sum((base[k] * n ** (N - k) for k in range(N + 1)), 0)


def _ab_poch(S, P, n: int):
    """(alpha)_n (beta)_n from alpha + beta = S and alpha beta = P."""
    out = 1
    for j in range(n):
        out = out * (j * j + S * j + P)
    return out


def _poch(a, n: int):
    out = 1
    for j in range(n):
        out = out * (a + j)
    return out


def exponent_data(S, P, gamma, sigma, second: bool):
    """(S, P, gamma, sigma) of the generalized hypergeometric series at the
    z = 0 exponent 0 (second=False) or 1 - gamma (second=True)."""
    if not second:
        return S, P, gamma, list(sigma)
    c = 1 - gamma
    return S + 2 * c, P + c * S + c * c, 2 - gamma, shift_esym(sigma, c)


def ghg_identity(S, P, gamma, sigma, series: list, second: bool) -> list:
    """Pairs (c_n sigma_N (gamma)_n n!, (alpha)_n (beta)_n prod(e_i + n)) for
    the L~ series coefficients c_n at one z = 0 exponent: the coefficient
    recurrence of L_{alpha,beta,e_i+1; gamma,e_i}, written through the
    elementary symmetric values alone.  The two sides agree when L~ is
    apparent and sigma are its esym values."""
    S2, P2, g2, sig = exponent_data(S, P, gamma, sigma, second)
    out = []
    fact = 1
    for n, c in enumerate(series):
        if n:
            fact *= n
        out.append((c * sig[-1] * (_poch(g2, n) * fact), _ab_poch(S2, P2, n) * _E(sig, n)))
    return out


def nonterminating(S, P, N: int) -> bool:
    return all(j * j + S * j + P != 0 for j in range(N + 1))


def esym_from_series(S, P, gamma, series: list, second: bool, N: int) -> list:
    """sigma_1..sigma_N from N + 1 series coefficients: with
    r_n = c_n (gamma)_n n! / ((alpha)_n (beta)_n) = prod(1 + n/e_i),
    solve sum_k s_k n^k = r_n - 1 (n = 1..N) and read
    sigma_N = 1/s_N, sigma_{N-k} = s_k sigma_N.  Needs a non-terminating
    series at the chosen exponent."""
    S2, P2, g2, _ = exponent_data(S, P, gamma, [0] * N, second)
    rows = []
    fact = 1
    for n in range(1, N + 1):
        fact *= n
        r = series[n] * _poch(g2, n) * fact / _ab_poch(S2, P2, n)
        rows.append([Fraction(n) ** k for k in range(1, N + 1)] + [r - 1])
    s = _solve(rows)
    sN = 1 / s[-1]
    sig = [s[N - j - 1] * sN for j in range(1, N)] + [sN]   # sigma_j = s_{N-j} sigma_N
    if second:
        sig = shift_esym(sig, -(1 - gamma))
    return sig


def _solve(rows: list) -> list:
    """Gaussian elimination on an augmented matrix (Fraction or mpmath)."""
    n = len(rows)
    a = [list(r) for r in rows]
    for i in range(n):
        piv = max(range(i, n), key=lambda r: abs(a[r][i]))
        a[i], a[piv] = a[piv], a[i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n + 1):
                a[r][c] = a[r][c] - f * a[i][c]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (a[i][n] - sum((a[i][c] * x[c] for c in range(i + 1, n)), 0)) / a[i][i]
    return x


# -- the paper's closed forms ---------------------------------------------------


def ep1_condition(q, a, b, g, t):
    """Quadratic apparency condition at eps = -1."""
    return q * q - ((2 * a * b + a + b) * t - g + 1) * q + a * b * t * ((a + 1) * (b + 1) * t - g)


def ep2_condition(q, a, b, g, t):
    """Cubic apparency condition at eps = -2."""
    return (q ** 3
            + ((-3 * a * b - 3 * a - 3 * b - 1) * t + (3 * g - 4)) * q ** 2
            + ((3 * a * a * b * b + 6 * a * b * (a + b) + 10 * a * b + 2 * (a * a + b * b)
                + 2 * a + 2 * b) * t * t
               + ((-6 * a * b - 4 * a - 4 * b) * g + 4 * a * b + 4 * a + 4 * b) * t
               + 2 * (g - 1) * (g - 2)) * q
            - a * b * t * ((a + 1) * (a + 2) * (b + 1) * (b + 2) * t * t
                           - g * (3 * a * b + 4 * a + 4 * b + 4) * t
                           + 2 * g * (g - 1)))


def al1_condition(q, b, g, t, e):
    """Quadratic condition for a degree-1 Heun polynomial (alpha = -1)."""
    return q * q + ((b - e) * t + g + e) * q + b * g * t


def al2_condition(q, b, g, t, e):
    """Cubic condition for a degree-2 Heun polynomial (alpha = -2)."""
    return (q ** 3
            + ((3 * b - 3 * e - 1) * t + 3 * g + 3 * e + 2) * q * q
            + (2 * (b - e) * (b - e - 1) * t * t
               - 4 * (e * e + (g - b + 1) * e - (2 * g + 1) * b) * t
               + 2 * (g + e) * (g + e + 1)) * q
            + 4 * b * g * t * ((b - e) * t + g + e + 1))


def maier_e1(q, a, b, g, t):
    """e_1 of the order-1 left factor at eps = -1."""
    return (q - (a + 1) * (b + 1) * t + g) / (1 - t) - 1


def thm44_e1e2(q, a, b, g, t):
    """(e1 + e2, e1 e2) of the order-2 left factor at eps = -2."""
    E1 = -3 + (q - (a + 2) * (b + 2) * t + 2 * g) / (1 - t)
    E2 = (q * q
          - ((2 * a * b + 3 * a + 3 * b + 1) * t - (3 * g - 4)) * q
          + (a * a * b * b + 3 * a * a * b + 3 * a * b * b + 7 * a * b
             + 2 * a * a + 2 * b * b + 2 * a + 2 * b) * t * t
          + (2 * a * b + 4 * a + 4 * b - g * (3 * a * b + 4 * a + 4 * b)) * t
          + 2 * (g - 1) * (g - 2)) / (2 * (t - 1) ** 2)
    return E1, E2


def h_ep2(w, q, a, b, g, t):
    """The displayed quadratic h(w) of the eps = -2 quasi-polynomial solution."""
    return (2 * a * (a + 1) * w * w
            + 2 * (a + 1) * (q - a * (b + 2) * t) * w
            + q * q - ((2 * a * b + 3 * a + b + 1) * t - g + 2) * q
            + a * t * (t * (a + 1) * (b + 1) * (b + 2) - b * g))


def lvw_tq(a, b, g, e1):
    """(t, q) of the eps = -1 apparent family from the reducible series."""
    den = (e1 - a) * (e1 - b)
    return e1 * (e1 + 1 - g) / den, a * b * (e1 + 1) * (e1 + 1 - g) / den


def ep2_tq(a, b, g):
    """(t, q) of the eps = -2 apparent family."""
    den = a + b - 2 * g + 3
    return (1 - g) / den, (1 - g) * (a * b + 2 * a + 2 * b - 2 * g + 4) / den


def quasipoly_residual(a, b, g, t, h_wq: list, mod: list) -> list:
    """Coefficients (in w) of the primed Heun operator applied to
    w^(beta-gamma) (w-1)^(beta-delta) h(w), times w^2 (w-1)^2 (w-t) and
    divided by the power prefactor, reduced modulo the original apparency
    condition (eps = -2).  h_wq[i] is the UPoly (in q) coefficient of w^i.
    The primed bundle is gamma' = gamma-beta+1, delta' = delta-beta+1,
    eps' = eps-beta+1, {alpha', beta'} = {2-beta, alpha-beta+1},
    q' = q + (1-beta)(eps + delta t + (gamma-beta)(t+1))."""
    eps = -2
    d = a + b + 1 - g - eps
    q = UPoly.x(mod)
    gp, dp, ep = g - b + 1, d - b + 1, eps - b + 1
    app, bpp = 2 - b, a - b + 1
    qp = q + (1 - b) * (eps + d * t + (g - b) * (t + 1))
    A, B = b - g, b - d                       # exponents at w = 0 and w = 1
    h = [UPoly(c.c, mod) if isinstance(c, UPoly) else UPoly([c], mod) for c in h_wq]
    w1, wt, w0 = [-1, 1], [-t, 1], [0, 1]
    u = padd(pscale(w1, A), pscale(w0, B))                          # (w(w-1)) u(w)
    pp = padd(padd(pscale(pmul(w1, wt), gp), pscale(pmul(w0, wt), dp)),
              pscale(pmul(w0, w1), ep))                             # (w(w-1)(w-t)) p(w)
    D2 = pmul(pmul(pmul(w0, w0), pmul(w1, w1)), wt)                 # w^2 (w-1)^2 (w-t)
    c1 = padd(pscale(pmul(pmul(u, pmul(w0, w1)), wt), 2), pmul(pp, pmul(w0, w1)))
    uu = padd(padd(pscale(pmul(w1, w1), -A), pscale(pmul(w0, w0), -B)), pmul(u, u))
    c0 = padd(padd(pmul(uu, wt), pmul(pp, u)), pmul([-qp, app * bpp], pmul(w0, w1)))
    dh = [h[i] * i for i in range(1, len(h))]
    d2h = [dh[i] * i for i in range(1, len(dh))]
    out = padd(padd(pmul(D2, d2h) if d2h else [0], pmul(c1, dh) if dh else [0]), pmul(c0, h))
    return [x if isinstance(x, UPoly) else UPoly([x], mod) for x in out]


# -- evaluation of program outputs ---------------------------------------------


def eval_poly(poly, values: dict, free: str | None = None, mod=None):
    """Evaluate a heunfactor polynomial read through ``terms()``; the
    variable ``free`` (if any) stays symbolic and the result is a UPoly."""
    names = poly.ring.names
    acc: dict = {}
    for e, coef in poly.terms():
        v = coef
        k = 0
        for name, x in zip(names, e):
            if not x:
                continue
            if name == free:
                k = x
            else:
                v = v * values[name] ** x
        acc[k] = acc.get(k, 0) + v
    if free is None:
        return acc.get(0, 0)
    return UPoly([acc.get(i, 0) for i in range(max(acc, default=-1) + 1)], mod)


def eval_ratfunc(r, values: dict, free: str | None = None, mod=None):
    """Evaluate a heunfactor rational function; with ``free`` set the
    denominator must be invertible (a constant, or a unit modulo ``mod``)."""
    num = eval_poly(r.num, values, free, mod)
    den = 1
    for f, k in r.den_factors().items():
        den = den * eval_poly(f, values, free, mod) ** k
    return num / den


def eval_poly_2(poly, values: dict, v1: str, v2: str, mod=None) -> list:
    """Evaluate with two free variables: list over v1-powers of UPoly in v2."""
    names = poly.ring.names
    acc: dict = {}
    for e, coef in poly.terms():
        v = coef
        k1 = k2 = 0
        for name, x in zip(names, e):
            if not x:
                continue
            if name == v1:
                k1 = x
            elif name == v2:
                k2 = x
            else:
                v = v * values[name] ** x
        acc.setdefault(k1, {})
        acc[k1][k2] = acc[k1].get(k2, 0) + v
    out = []
    for i in range(max(acc, default=-1) + 1):
        d = acc.get(i, {})
        out.append(UPoly([d.get(j, 0) for j in range(max(d, default=-1) + 1)], mod))
    return out


def parse_poly(s: str) -> dict:
    """Parse a printed polynomial such as '2/81*p1^2 - p1*p2 + 5/3' into
    {((name, power), ...): Fraction}."""
    out = {}
    for term in s.replace(" - ", " + -").split(" + "):
        coef, mono = Fraction(1), []
        factors = term.split("*")
        if factors[0].startswith("-") and not factors[0][1:2].isdigit():
            coef, factors[0] = Fraction(-1), factors[0][1:]
        for f in factors:
            if f[:1].isdigit() or f[:1] == "-":
                coef *= Fraction(f)
            else:
                name, _, k = f.partition("^")
                if not name.isidentifier():
                    raise ValueError(f"cannot parse {term!r}")
                mono.append((name, int(k or 1)))
        key = tuple(sorted(mono))
        out[key] = out.get(key, 0) + coef
    return out


def eval_parsed(poly: dict, values: dict):
    acc = 0
    for mono, c in poly.items():
        v = c
        for name, k in mono:
            v = v * values[name] ** k
        acc = acc + v
    return acc


def parse_mpc(s: str):
    """Parse mpmath.nstr output: '(a + bj)', '(a - bj)' or 'a'."""
    s = s.strip()
    if not s.startswith("("):
        return mp.mpc(mp.mpf(s))
    body = s[1:-1].rstrip("j")
    i = max(body.rfind(" + "), body.rfind(" - "))
    re_part, im_part = body[:i], body[i + 1:].replace(" ", "")
    return mp.mpc(mp.mpf(re_part), mp.mpf(im_part))


# -- independent p-solve from the obstructions ----------------------------------


def mpnum(x):
    """mpmath number from an int, Fraction or mpmath value."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return x if isinstance(x, (mp.mpf, mp.mpc)) else mp.mpf(x)


def obstructions(gamma, delta, sing, prod_ab, ps) -> list:
    """Apparency obstruction at every t_k for residues ps (numbers, UPoly
    or Jet)."""
    ode = fuchsian_ode(gamma, delta, sing, prod_ab, ps)
    return [obstruction(ode, tk, mk + 1) for tk, mk in sing]


def p_roots_single(gamma, delta, sing, prod_ab) -> list:
    """All roots p_1 of the single-singularity apparency polynomial."""
    (tk, mk), = sing
    P = obstructions(mpnum(gamma), mpnum(delta), [(mpnum(tk), mk)], mpnum(prod_ab), [UPoly.x()])[0]
    coeffs = [mp.mpc(c) for c in reversed(P.c)]
    return mp.polyroots(coeffs, maxsteps=400, extraprec=2 * mp.prec)


def newton_step(gamma, delta, sing, prod_ab, p: list) -> list:
    """Newton correction J^-1 F of the obstruction system at p, with the
    Jacobian from first-order jets."""
    M = len(p)
    jets = [Jet.var(p[k], k, M) for k in range(M)]
    F = obstructions(gamma, delta, sing, prod_ab, jets)
    J = mp.matrix([[f.g[j] for j in range(M)] for f in F])
    step = mp.lu_solve(J, mp.matrix([f.v for f in F]))
    return [step[k] for k in range(M)]


def newton_solve(gamma, delta, sing, prod_ab, seed: int, starts: int = 40,
                 tol_digits: int = 40) -> list:
    """A root of the obstruction system by damped Newton from seeded
    starts, at the current mpmath precision."""
    rng = random.Random(seed)
    M = len(sing)
    sing = [(mpnum(t), m) for t, m in sing]
    g, d, ab = mpnum(gamma), mpnum(delta), mpnum(prod_ab)
    tol = mp.mpf(10) ** (-tol_digits)
    for _ in range(starts):
        p = [mp.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(M)]
        for _ in range(200):
            try:
                step = newton_step(g, d, sing, ab, p)
            except ZeroDivisionError:
                break
            nrm = max(abs(s) for s in step)
            damp = 1 if nrm < 1 else 1 / nrm
            p = [x - damp * s for x, s in zip(p, step)]
            if nrm < tol * max(1, max(abs(x) for x in p)):
                return p
    raise ArithmeticError("no root of the obstruction system found")
