"""Noncommutative differential operators in one variable.

A ``DiffOp`` is sum(c_j(z) * D^j) with RatFunc coefficients, normal-ordered
with all derivatives to the right of the coefficients.  Multiplication uses
the Leibniz rule D o f = f o D + f'; right division by an operator with an
invertible leading coefficient is exact.

``QuasiFunction`` models w^a (w-1)^b R(w) with symbolic exponents; it is
closed under d/dw, which is what the quasi-polynomial checks need.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exactalg import RatFunc, Ring, UsageError


class DiffOpError(Exception):
    pass


class DiffOp:
    """Linear differential operator sum c_j(var) d^j/dvar^j."""

    __slots__ = ("ring", "var", "coeffs", "_derivs")

    def __init__(self, ring: Ring, var: str, coeffs: Sequence):
        if var not in ring.index:
            raise UsageError(f"variable {var!r} not in ring")
        cs = [RatFunc.of(c, ring) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.ring = ring
        self.var = var
        self.coeffs = tuple(cs)
        self._derivs = [self.coeffs]

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
        if self.is_zero or other.is_zero:
            return DiffOp.zero_op(self.ring, self.var)
        return DiffOp(self.ring, self.var, _leibniz(self.coeffs, other))

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
        """Return (Q, rem) with self = Q*other + rem, order(rem) < order(other)."""
        self._check(other)
        if other.order < 1:
            raise DiffOpError("divisor must have order >= 1")
        lead = other.leading
        if lead.is_zero:  # pragma: no cover - trimmed representation
            raise DiffOpError("divisor leading coefficient vanishes identically")
        rem = self
        q_coeffs = {}
        ring, var = self.ring, self.var
        zero = RatFunc.of(0, ring)
        while rem.order >= other.order:
            k = rem.order - other.order
            qk = rem.leading / lead
            q_coeffs[k] = qk
            # rem -= (qk * D^k) * other, top coefficient cancels exactly
            step = _leibniz([zero] * k + [qk], other)
            new = [rem.coeff(j) - step[j] for j in range(rem.order)]
            rem = DiffOp(ring, var, new)
        n = max(q_coeffs) + 1 if q_coeffs else 0
        q = DiffOp(ring, var, [q_coeffs.get(j, zero) for j in range(n)])
        return q, rem

    def substitute(self, assign) -> "DiffOp":
        """Substitute parameter values into every coefficient (not the main var)."""
        if self.var in assign:
            raise UsageError("cannot substitute the differentiation variable")
        return DiffOp(self.ring, self.var, [c.subs(assign) for c in self.coeffs])

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


def _leibniz(coeffs: Sequence, other: DiffOp) -> list:
    """Coefficients of (sum_i coeffs[i] D^i) * other, by the Leibniz rule
    D^i o b = sum_k C(i, k) b^(k) D^(i-k)."""
    derivs = other.derivative_table(len(coeffs) - 1)
    out = [RatFunc.of(0, other.ring) for _ in range(len(coeffs) + other.order)]
    for i, a in enumerate(coeffs):
        if a.is_zero:
            continue
        for k in range(i + 1):
            ck = comb(i, k)
            for j, b in enumerate(derivs[k]):
                if b.is_zero:
                    continue
                ab = a * b
                if ck != 1:
                    # a*b is already cancelled, and an integer factor cancels
                    # nothing more
                    ab = RatFunc(ab.num * ck, ab.den_factors(), _simplify=False)
                out[i - k + j] = out[i - k + j] + ab
    return out


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
