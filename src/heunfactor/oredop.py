"""Noncommutative differential operators in one variable.

A ``DiffOp`` is sum(c_j(z) * D^j) with RatFunc coefficients, normal-ordered
with all derivatives to the right of the coefficients.  Multiplication uses
the Leibniz rule D o f = f o D + f'; right division by an operator with an
invertible leading coefficient is exact.  Both add up their Leibniz
products without cancelling partial sums and cancel each coefficient they
return once, so the returned coefficients are reduced.

`leibniz` and `right_divide` write that product and that division once for
any coefficient ring (Bronstein and Petkovsek, "An introduction to
pseudo-linear algebra", 1996).  The fixed-point ``_mpnum.DiffOpM`` divides
with them too, but only as the tests' reference: the numeric verdict
builds no operator and reads its remainder modulo L~ off L~'s cleared
form (``_mpnum.cleared_remainder``) over z^N Q^(N+1), Q = z (z-1)
prod(z - t_k).

``QuasiFunction`` models w^a (w-1)^b R(w) with symbolic exponents; it is
closed under d/dw, which is what the quasi-polynomial checks need.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exactalg import RatFunc, Ring, UsageError, _over_lcm


class DiffOpError(Exception):
    pass


class DiffOp:
    """Linear differential operator sum c_j(var) d^j/dvar^j."""

    __slots__ = ("ring", "var", "coeffs", "_derivs", "_inverse")

    def __init__(self, ring: Ring, var: str, coeffs: Sequence, leading_inverse=None):
        if var not in ring.index:
            raise UsageError(f"variable {var!r} not in ring")
        cs = [RatFunc.of(c, ring) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.ring = ring
        self.var = var
        self.coeffs = tuple(cs)
        self._derivs = [self.coeffs]
        self._inverse = leading_inverse

    def derivative_table(self, n: int) -> list:
        """[coeffs, d/dvar coeffs, ..., (d/dvar)^n coeffs]; kept on the
        operator, so a divisor differentiates its coefficients once for all
        its products."""
        while len(self._derivs) <= n:
            self._derivs.append([c.derivative(self.var) for c in self._derivs[-1]])
        return self._derivs

    # -- basics ---------------------------------------------------------------

    @property
    def order(self) -> int:
        """Order of the operator; -1 for the zero operator."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> RatFunc:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return RatFunc.of(0, self.ring)

    @property
    def leading(self) -> RatFunc:
        if self.is_zero:
            raise DiffOpError("zero operator has no leading coefficient")
        return self.coeffs[-1]

    @property
    def leading_inverse(self) -> RatFunc:
        """1 / leading as given to the constructor, else computed once."""
        if self._inverse is None:
            self._inverse = self.leading.inverse()
        return self._inverse

    @classmethod
    def zero_op(cls, ring: Ring, var: str) -> "DiffOp":
        return cls(ring, var, [])

    @classmethod
    def identity(cls, ring: Ring, var: str) -> "DiffOp":
        return cls(ring, var, [ring.one])

    @classmethod
    def d(cls, ring: Ring, var: str, order: int = 1) -> "DiffOp":
        return cls(ring, var, [ring.zero] * order + [ring.one])

    @classmethod
    def mul_by(cls, f, ring: Ring, var: str) -> "DiffOp":
        """Multiplication-by-f(z) as an order-0 operator."""
        return cls(ring, var, [RatFunc.of(f, ring)])

    def _check(self, other: "DiffOp"):
        if self.ring != other.ring or self.var != other.var:
            raise UsageError("operator ring/variable mismatch")

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.ring != other.ring or self.var != other.var:
            return False
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(self.ring, self.var,
                      [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __neg__(self):
        return DiffOp(self.ring, self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "DiffOp":
        s = RatFunc.of(s, self.ring)
        return DiffOp(self.ring, self.var, [c * s for c in self.coeffs])

    def __mul__(self, other):
        """Operator composition (self after other), Leibniz normal ordering."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        return DiffOp(self.ring, self.var, [_cancelled(_sum(ts)) if ts else 0
                                            for ts in leibniz(self.coeffs, other, _product)])

    def apply(self, f) -> RatFunc:
        """Apply the operator to a rational function of the main variable."""
        f = RatFunc.of(f, self.ring)
        out = RatFunc.of(0, self.ring)
        d = f
        for j, c in enumerate(self.coeffs):
            if j:
                d = d.derivative(self.var)
            if not c.is_zero:
                out = out + c * d
        return out

    def apply_quasi(self, f: "QuasiFunction") -> "QuasiFunction":
        """Apply to w^a (w-1)^b R(w); exponents are carried along."""
        if f.ring != self.ring or f.var != self.var:
            raise UsageError("quasi-function ring/variable mismatch")
        out = RatFunc.of(0, self.ring)
        d = f
        for j, c in enumerate(self.coeffs):
            if j:
                d = d.derivative()
            if not c.is_zero:
                out = out + c * d.rational_part
        return QuasiFunction(self.ring, self.var, f.exponent_a, f.exponent_b, out)

    def right_divide(self, other: "DiffOp"):
        """Return (Q, rem) with self = Q*other + rem, order(rem) < order(other).
        A quotient coefficient is the top one times ``other.leading_inverse``,
        cancelled; the remainder's stay uncancelled until the end."""
        self._check(other)
        if other.order < 1:
            raise DiffOpError("divisor must have order >= 1")
        inverse = other.leading_inverse
        q, rem = right_divide(self.coeffs, other, RatFunc.of(0, self.ring),
                              lambda c: c * inverse,
                              lambda a, b, ck: _product(a, b, -ck),
                              lambda c, ts: _sum([c] + ts))
        return (DiffOp(self.ring, self.var, q),
                DiffOp(self.ring, self.var, [_cancelled(c) for c in rem]))

    def local_coeffs(self, point: RatFunc) -> list:
        """The operator about var = point, for ``heun.frobenius_series``:
        [{m: coefficient of u^m}] per coefficient, u = var - point, after
        the shift and after multiplying by the denominator factors that
        involve var, each made monic in var."""
        ring, var = self.ring, self.var
        z = RatFunc.of(ring.var(var), ring)
        shifted = self.coeffs if point.is_zero else [c.subs({var: z + point})
                                                    for c in self.coeffs]
        fac: dict = {}
        for c in shifted:
            for f, k in c.den_factors().items():
                if f.involves(var):
                    fac[f] = max(fac.get(f, 0), k)
        den = RatFunc.of(1, ring)
        leads: dict = {}
        for f, k in fac.items():
            den = den * RatFunc.of(f, ring) ** k
            lead = f.coeff_of(var, f.degree(var))
            leads[lead] = leads.get(lead, 0) + k
        return [(c * den * RatFunc(ring.one, leads)).coeffs_in(var) for c in shifted]

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j in range(self.order, -1, -1):
            c = self.coeff(j)
            if c.is_zero:
                continue
            if j == 0:
                parts.append(c.pretty())
            else:
                dsym = f"D^{j}" if j > 1 else "D"
                parts.append(f"[{c.pretty()}]*{dsym}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<DiffOp {self.pretty()}>"


def leibniz(coeffs: Sequence, other, term) -> list:
    """Per coefficient of (sum_i coeffs[i] D^i) * other, the list of its
    Leibniz terms term(a, b, C(i, k)), by D^i o b = sum_k C(i, k) b^(k)
    D^(i-k); ``other`` is any operator with ``order`` and
    ``derivative_table``, and zero coefficients give no terms."""
    derivs = other.derivative_table(len(coeffs) - 1)
    out = [[] for _ in range(len(coeffs) + other.order)]
    for i, a in enumerate(coeffs):
        if a.is_zero:
            continue
        for k in range(i + 1):
            ck = comb(i, k)
            for j, b in enumerate(derivs[k]):
                if not b.is_zero:
                    out[i - k + j].append(term(a, b, ck))
    return out


def right_divide(coeffs: Sequence, other, zero, quotient, term, combine) -> tuple:
    """Coefficient lists (q, rem), sum_i coeffs[i] D^i = q * other + rem and
    len(rem) <= order(other): a step's qk = quotient(top) is the top over
    other's leading coefficient, and each coefficient c below the top becomes
    combine(c, its terms of (qk D^k) * other by `leibniz` with ``term``)."""
    n = other.order
    rem = list(coeffs)
    q = [zero] * max(len(rem) - n, 0)
    while len(rem) > n:
        k = len(rem) - 1 - n
        q[k] = qk = quotient(rem[-1])
        step = leibniz([zero] * k + [qk], other, term)
        # the top coefficient cancels exactly, so it is dropped, not computed
        rem = [combine(c, ts) for c, ts in zip(rem[:-1], step)]
        while rem and rem[-1].is_zero:
            rem.pop()
    return q, rem


def _product(a: RatFunc, b: RatFunc, ck: int) -> RatFunc:
    """ck a b, uncancelled."""
    fac = a.den_factors()
    for f, m in b.den_factors().items():
        fac[f] = fac.get(f, 0) + m
    return RatFunc(a.num * b.num * ck, fac, _simplify=False)


def _sum(terms: list) -> RatFunc:
    """Sum of RatFuncs over the lcm of their denominators, uncancelled."""
    if len(terms) == 1:
        return terms[0]
    nums, fac = _over_lcm(terms)
    total = nums[0]
    for n in nums[1:]:
        total = total + n
    return RatFunc(total, fac, _simplify=False)


def _cancelled(c: RatFunc) -> RatFunc:
    return RatFunc(c.num, c.den_factors())


class QuasiFunction:
    """w^a (w-1)^b R(w) with exact (possibly symbolic) exponents a, b."""

    __slots__ = ("ring", "var", "exponent_a", "exponent_b", "rational_part")

    def __init__(self, ring: Ring, var: str, exponent_a, exponent_b, rational_part):
        self.ring = ring
        self.var = var
        self.exponent_a = RatFunc.of(exponent_a, ring)
        self.exponent_b = RatFunc.of(exponent_b, ring)
        self.rational_part = RatFunc.of(rational_part, ring)
        for e in (self.exponent_a, self.exponent_b):
            if e.num.involves(var) or any(f.involves(var) for f in e.den_factors()):
                raise UsageError("exponents must not involve the main variable")

    def derivative(self) -> "QuasiFunction":
        w = self.ring.var(self.var)
        R = self.rational_part
        dR = R.derivative(self.var)
        log_der = self.exponent_a / RatFunc.of(w, self.ring) \
            + self.exponent_b / RatFunc.of(w - 1, self.ring)
        return QuasiFunction(self.ring, self.var, self.exponent_a, self.exponent_b,
                             dR + R * log_der)

    @property
    def is_zero(self) -> bool:
        return self.rational_part.is_zero

    def pretty(self) -> str:
        v = self.var
        return (f"{v}^({self.exponent_a.pretty()}) * ({v}-1)^({self.exponent_b.pretty()})"
                f" * ({self.rational_part.pretty()})")

    def __repr__(self):
        return f"<QuasiFunction {self.pretty()}>"
