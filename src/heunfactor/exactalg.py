"""Exact arithmetic foundation.

Arbitrary-precision rationals (``fractions.Fraction``), sparse multivariate
polynomials over Q, rational functions with factored denominators,
reduction modulo a monic ideal generator, fraction-free (Bareiss) linear
solving and a small Buchberger engine for bivariate-style ideals.

Everything here is an immutable value; all operations are pure functions,
so values can be shared freely between threads.

Representation notes
--------------------
A ``MultiPoly`` stores an integer-coefficient term dict together with a
single ``Fraction`` content multiplier.  The dict is kept primitive
(gcd of coefficients is 1, leading coefficient in graded-lex order is
positive), which makes equality and hashing structural and keeps the
per-term arithmetic in machine/long integers instead of ``Fraction``.

Each monomial of the dict is one packed ``int`` key: the total degree in
the top field, then one ``_FIELD_BITS``-wide field per ring variable in
ring order, the top bit of each field a guard that is always clear.  Graded
lex order is then plain integer order, a monomial product is one ``+`` and
a monomial quotient one ``-`` whose borrows show in the guard bits.  Total
degree is bounded by ``_MAX_DEG``, so no field can overflow; exceeding it
raises ``UsageError``.  The public methods (``terms``, ``leading_exp``,
``coeff``, the constructor) take and yield exponent tuples.

A ``RatFunc`` keeps its denominator as a multiset of primitive polynomial
factors.  Denominators in this package are overwhelmingly products of a few
small linear factors (z, z-1, z-t, ...); keeping them factored makes
cancellation a sequence of cheap exact-division attempts instead of a
multivariate gcd.
"""

from __future__ import annotations

import heapq
import random
import struct
import sys
from array import array
from fractions import Fraction
from math import gcd as _igcd
from typing import Iterator, Mapping, Sequence, Union


class ExactAlgError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class UsageError(ExactAlgError):
    """A caller violated a documented precondition (wrong variable, ...)."""


class NotReducibleError(ExactAlgError):
    """reduce_mod was handed a generator that is not monic in the variable."""


class SingularMatrixError(ExactAlgError):
    """Linear system is singular; carries the rank actually achieved."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"singular system: rank {rank} < size {size}")


class BudgetExceededError(ExactAlgError):
    """A bounded computation (Groebner) ran past its budget."""


Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"not an exact scalar: {x!r}")


def _content_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd of two rationals: gcd of numerators over lcm of denominators
    n = _igcd(a.numerator, b.numerator)
    d = (a.denominator * b.denominator) // _igcd(a.denominator, b.denominator)
    return Fraction(n, d)


def _grlex_key(e: tuple) -> tuple:
    return (sum(e), e)


# Width of one packed exponent field; its top bit is the guard.  The Ring's
# struct format below ("H") reads one such field per item.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_MAX_DEG = (1 << (_FIELD_BITS - 1)) - 1


class Ring:
    """An ordered tuple of named indeterminates.

    Polynomials belong to exactly one ring; mixing rings raises.  Rings with
    equal name tuples compare equal, so modules can construct them freely.
    The ring also owns the packed-key layout of its monomials.
    """

    __slots__ = ("names", "index", "nvars", "_hash", "_shift", "_unit", "_deg_shift",
                 "_guards", "_struct")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names: {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.nvars = n = len(names)
        self._hash = hash(names)
        # bit offset of each variable's field, the first variable highest;
        # the total degree sits above them all
        self._shift = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self._deg_shift = _FIELD_BITS * n
        # the packed key of each variable (its field and the degree at 1)
        self._unit = tuple((1 << self._deg_shift) | (1 << s) for s in self._shift)
        self._guards = sum(1 << (s + _FIELD_BITS - 1) for s in self._shift)
        self._struct = struct.Struct(f">{n + 1}H")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring{self.names}"

    def __reduce__(self):  # the layout is rebuilt; a Struct does not pickle
        return Ring, (self.names,)

    def _pack(self, e: Sequence[int]) -> int:
        """Packed key of an exponent vector."""
        e = tuple(e)
        if len(e) != self.nvars or any(k < 0 for k in e):
            raise UsageError(f"not an exponent vector of {self.names}: {e}")
        d = sum(e)
        if d > _MAX_DEG:
            raise UsageError(f"total degree {d} exceeds the limit {_MAX_DEG}")
        return int.from_bytes(self._struct.pack(d, *e), "big")

    def _unpack(self, key: int) -> tuple:
        """Exponent vector of a packed key."""
        return self._struct.unpack(key.to_bytes(self._struct.size, "big"))[1:]

    def _field(self, var: str) -> tuple:
        """(bit offset, packed key) of one variable."""
        i = self.index[var]
        return self._shift[i], self._unit[i]

    def _columns(self, keys) -> list:
        """Per variable, its exponent in each of the packed keys, in order."""
        size = self._struct.size
        a = array("H", b"".join([k.to_bytes(size, "little") for k in keys]))
        if sys.byteorder == "big":
            a.byteswap()
        n = self.nvars
        # little-endian fields run from the last variable up to the degree
        return [a[n - 1 - j::n + 1] for j in range(n)]

    def var(self, name: str) -> "MultiPoly":
        if name not in self.index:
            raise UsageError(f"variable {name!r} not in {self.names}")
        return MultiPoly(self, {self._unit[self.index[name]]: 1}, Fraction(1), _normalized=True)

    def const(self, c: Scalar) -> "MultiPoly":
        c = _frac(c)
        if c == 0:
            return MultiPoly(self, {}, Fraction(0))
        return MultiPoly(self, {0: 1}, c, _normalized=True)

    @property
    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {}, Fraction(0))

    @property
    def one(self) -> "MultiPoly":
        return self.const(1)

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> "MultiPoly":
        e = [0] * self.nvars
        for name, k in exps.items():
            e[self.index[name]] = k
        c = _frac(coeff)
        if c == 0:
            return self.zero
        return MultiPoly(self, {self._pack(e): 1}, c, _normalized=True)


class MultiPoly:
    """Sparse multivariate polynomial over Q (int term dict + Fraction content)."""

    __slots__ = ("ring", "_t", "_c", "_hash", "_mod")

    def __init__(self, ring: Ring, terms: dict, content: Fraction, _normalized=False):
        """``terms`` maps exponent tuples (or the ring's packed keys) to ints."""
        self.ring = ring
        if _normalized:
            self._t = terms
            self._c = content
        else:
            if terms and type(next(iter(terms))) is tuple:
                terms = {ring._pack(e): c for e, c in terms.items()}
            self._t, self._c = self._normalize(terms, content)
        self._hash = None
        # the pre-check's cache: {main variable index: image, None: (exponent
        # columns, degrees)}, see _mod_image
        self._mod = None

    @staticmethod
    def _normalize(terms: dict, content: Fraction):
        terms = {e: c for e, c in terms.items() if c}
        if not terms or content == 0:
            return {}, Fraction(0)
        g = 0
        for c in terms.values():
            g = _igcd(g, c)
            if g == 1:
                break
        sign = -1 if terms[max(terms)] < 0 else 1
        g *= sign
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
        return terms, content * g

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_fraction_terms(cls, ring: Ring, terms: Mapping[tuple, Fraction]) -> "MultiPoly":
        """Build from exponent-tuple -> Fraction coefficient mapping."""
        terms = {e: _frac(c) for e, c in terms.items() if c}
        if not terms:
            return ring.zero
        den_lcm = 1
        for c in terms.values():
            den_lcm = den_lcm * c.denominator // _igcd(den_lcm, c.denominator)
        int_terms = {e: int(c * den_lcm) for e, c in terms.items()}
        return cls(ring, int_terms, Fraction(1, den_lcm))

    # -- canonical views ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    def terms(self) -> Iterator[tuple]:
        """Yield (exponent_tuple, Fraction coefficient), grlex-descending."""
        unpack = self.ring._unpack
        for e in sorted(self._t, reverse=True):
            yield unpack(e), self._t[e] * self._c

    def num_terms(self) -> int:
        return len(self._t)

    def coeff(self, e: tuple) -> Fraction:
        try:
            key = self.ring._pack(e)
        except UsageError:  # no such monomial can occur
            return Fraction(0)
        return self._t.get(key, 0) * self._c

    def content(self) -> Fraction:
        return self._c

    def leading_exp(self) -> tuple:
        if not self._t:
            raise UsageError("zero polynomial has no leading term")
        return self.ring._unpack(max(self._t))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self._c == other._c and self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self._c, frozenset(self._t.items())))
        return self._hash

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise UsageError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = _content_gcd(self._c, other._c)
        m1 = self._c / g
        m2 = other._c / g
        assert m1.denominator == 1 and m2.denominator == 1
        m1, m2 = m1.numerator, m2.numerator
        t = {e: c * m1 for e, c in self._t.items()}
        for e, c in other._t.items():
            v = t.get(e, 0) + c * m2
            if v:
                t[e] = v
            elif e in t:
                del t[e]
        return MultiPoly(self.ring, t, g)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return MultiPoly(self.ring, self._t, -self._c, _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0 or self.is_zero:
                return self.ring.zero
            return MultiPoly(self.ring, self._t, self._c * c, _normalized=True)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.ring.zero
        a, b = self._t, other._t
        if len(a) > len(b):
            a, b = b, a
        shift = self.ring._deg_shift
        if (max(a) >> shift) + (max(b) >> shift) > _MAX_DEG:
            raise UsageError(f"product exceeds the degree limit {_MAX_DEG}")
        b_items = b.items()
        rows = iter(a.items())
        e1, c1 = next(rows)
        # the monomials of one row are distinct: it needs no lookups
        t = {e1 + e2: c1 * c2 for e2, c2 in b_items}
        if len(a) > 1:
            get = t.get
            for e1, c1 in rows:
                for e2, c2 in b_items:
                    e = e1 + e2
                    t[e] = get(e, 0) + c1 * c2
            t = {e: c for e, c in t.items() if c}
        # primitive * primitive stays primitive (Gauss), sign of lead is +
        return MultiPoly(self.ring, t, self._c * other._c, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            if self.is_zero:
                return self
            return MultiPoly(self.ring, self._t, self._c / c, _normalized=True)
        return NotImplemented

    # -- structure ------------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable.  Zero polynomial: -1."""
        if self.is_zero:
            return -1
        if var is None:
            return max(self._t) >> self.ring._deg_shift
        s, _ = self.ring._field(var)
        return max(e >> s & _FIELD_MASK for e in self._t)

    def coeffs_in(self, var: str) -> dict:
        """Split into {k: coefficient of var**k}, coefficients free of var."""
        s, u = self.ring._field(var)
        out: dict = {}
        for e, c in self._t.items():
            k = e >> s & _FIELD_MASK
            out.setdefault(k, {})[e - k * u] = c
        return {
            k: MultiPoly(self.ring, t, self._c)
            for k, t in out.items()
        }

    def coeff_of(self, var: str, k: int) -> "MultiPoly":
        s, u = self.ring._field(var)
        t = {e - k * u: c for e, c in self._t.items() if e >> s & _FIELD_MASK == k}
        return MultiPoly(self.ring, t, self._c)

    def involves(self, var: str) -> bool:
        s, _ = self.ring._field(var)
        m = _FIELD_MASK << s
        return any(e & m for e in self._t)

    def is_const(self) -> bool:
        return not any(self._t)

    def const_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_const():
            raise UsageError("polynomial is not constant")
        return self._t[0] * self._c

    def derivative(self, var: str) -> "MultiPoly":
        s, u = self.ring._field(var)
        t = {}
        for e, c in self._t.items():
            k = e >> s & _FIELD_MASK
            if k:
                t[e - u] = c * k
        return MultiPoly(self.ring, t, self._c)

    def subs(self, assign: Mapping[str, object]):
        """Substitute values for variables.

        Values may be scalars, MultiPoly of this ring, or RatFunc of this
        ring; the result is a RatFunc whenever any value is one, otherwise a
        MultiPoly.
        """
        vals = {}
        for name, v in assign.items():
            if isinstance(v, MultiPoly) and v.ring != self.ring:
                raise UsageError("substitution value from a different ring")
            vals[name] = RatFunc.of(v, self.ring)
        num, fac = _subs_parts(self, vals)
        if any(isinstance(v, RatFunc) for v in assign.values()):
            return RatFunc(num, fac)
        return num

    def eval_num(self, assign: Mapping[str, object], num=complex):
        """Evaluate numerically; every variable must receive a value."""
        for n in self.ring.names:
            if self.involves(n) and n not in assign:
                raise UsageError(f"no value for variable {n!r}")
        total = num(0)
        # a fixed order (ascending exponent tuples), so that equal
        # polynomials give equal values
        unpack = self.ring._unpack
        for e, c in sorted((unpack(k), c) for k, c in self._t.items()):
            v = num(c)
            for name, i in self.ring.index.items():
                k = e[i]
                if k:
                    v = v * assign[name] ** k
            total += v
        return total * num(self._c.numerator) / num(self._c.denominator)

    def as_univariate(self, var: str) -> list:
        """Dense Fraction coefficient list [c0, c1, ...]; requires univariate."""
        s, u = self.ring._field(var)
        for e in self._t:
            if e != (e >> s & _FIELD_MASK) * u:
                raise UsageError(f"polynomial is not univariate in {var!r}")
        if self.is_zero:
            return [Fraction(0)]
        d = self.degree(var)
        out = [Fraction(0)] * (d + 1)
        for e, c in self._t.items():
            out[e >> s & _FIELD_MASK] = c * self._c
        return out

    def rename(self, ring: Ring) -> "MultiPoly":
        """Re-embed into another ring containing (at least) the used variables."""
        mapping = []
        for i, name in enumerate(self.ring.names):
            if name in ring.index:
                mapping.append(ring.index[name])
            elif self.involves(name):
                raise UsageError(f"target ring lacks variable {name!r}")
            else:
                mapping.append(None)
        unpack = self.ring._unpack
        t = {}
        for e, c in self._t.items():
            e2 = [0] * ring.nvars
            for i, k in enumerate(unpack(e)):
                if k:
                    e2[mapping[i]] = k
            t[ring._pack(e2)] = c
        return MultiPoly(ring, t, self._c)

    # -- printing -------------------------------------------------------------

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in zip(self.ring.names, e)
                if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"<MultiPoly {self.pretty()}>"


# -- modular non-divisor test ------------------------------------------------
#
# A necessary condition for g | f, checked before the heap division.  If g
# divides f over Q, Gauss's lemma gives prim(f) = +-prim(g) * h with h in
# Z[X].  Reducing modulo the prime _MOD_P and fixing every variable but one,
# x, at a point is a ring homomorphism Z[X] -> Z_p[x], so then the image of
# prim(g) divides the image of prim(f).  A nonzero remainder of the images
# therefore proves that g does not divide f; a zero remainder proves
# nothing, and a constant image of g gives no verdict.  The points are fixed
# so that every run takes the same path, and drawn once from a seeded
# generator so that they satisfy no small relation such as y^2 = x*z.

_MOD_P = (1 << 61) - 1
_MOD_POINTS = tuple(random.Random(1979).sample(range(2, _MOD_P), 256))


def _columns(f: MultiPoly) -> tuple:
    """(exponent column, degree) of each variable of f; cached on f."""
    if f._mod is None:
        f._mod = {}
    cd = f._mod.get(None)
    if cd is None:
        cols = f.ring._columns(f._t)
        cd = f._mod[None] = (cols, [max(col) for col in cols])
    return cd


def _degrees(f: MultiPoly) -> list:
    return _columns(f)[1]


def _mod_image(f: MultiPoly, main: int) -> list:
    """Image of f's primitive part in Z_p[x_main], low degree first, trimmed;
    cached on f."""
    cols, degs = _columns(f)
    img = f._mod.get(main)
    if img is None:
        vals = list(f._t.values())
        for j, (col, d) in enumerate(zip(cols, degs)):
            if j == main or not d:
                continue
            # points repeat past 256 variables, which only weakens the test
            x, pw = _MOD_POINTS[j % len(_MOD_POINTS)], [1]
            for _ in range(d):
                pw.append(pw[-1] * x % _MOD_P)
            vals = [v * pw[k] % _MOD_P for v, k in zip(vals, col)]
        img = [0] * (degs[main] + 1)
        for v, k in zip(vals, cols[main]):
            img[k] += v
        img = [v % _MOD_P for v in img]
        while img and not img[-1]:
            img.pop()
        f._mod[main] = img
    return img


def _surely_not_divisor(f: MultiPoly, g: MultiPoly) -> bool:
    """True only when g provably does not divide f (both nonzero, g not
    constant); False means no verdict."""
    gdeg = _degrees(g)
    if any(a > b for a, b in zip(gdeg, _degrees(f))):
        return True
    main = max(range(len(gdeg)), key=gdeg.__getitem__)
    G = _mod_image(g, main)
    if len(G) < 2:
        return False
    r = list(_mod_image(f, main))
    dg = len(G) - 1
    inv = pow(G[-1], -1, _MOD_P)
    for k in range(len(r) - 1 - dg, -1, -1):
        q = r[k + dg] * inv % _MOD_P
        if q:
            for i in range(dg):
                r[k + i] = (r[k + i] - q * G[i]) % _MOD_P
    return any(r[:dg])


def exact_div(f: MultiPoly, g: MultiPoly):
    """Return f/g when g divides f exactly, else None.

    The modular test above rejects most non-divisors first.  The division
    then runs on the primitive integer parts: by Gauss's lemma g divides f
    over Q exactly when prim(g) divides prim(f) over Z, so a quotient digit
    with a nonzero remainder proves that g does not divide f, and the
    quotient's content is f's over g's.  Leading terms are drawn from a heap
    instead of re-scanning the remainder, so large exact divisions (Bareiss
    interior steps) stay near-linear in the number of term updates.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    if f.ring != g.ring:
        raise UsageError("ring mismatch in exact_div")
    if g.is_const():
        return f * (1 / g.const_value())
    if _surely_not_divisor(f, g):
        return None
    guards = f.ring._guards
    g_lead = max(g._t)
    g_lc = g._t[g_lead]
    g_rest = [(e, c) for e, c in g._t.items() if e != g_lead]
    # every key of rem has exactly one entry, negated, on the heap; a
    # cancelled key stays in rem at 0 until it is popped
    rem = dict(f._t)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        e = -heapq.heappop(heap)
        c = rem.pop(e)
        if not c:
            continue
        qe = e - g_lead
        if qe & guards:  # a borrow: g's leading monomial does not divide e
            return None
        qc, r = divmod(c, g_lc)
        if r:
            return None
        quo[qe] = qc
        for ge, gc in g_rest:
            te = qe + ge
            v = rem.get(te)
            if v is None:
                rem[te] = -qc * gc
                heapq.heappush(heap, -te)
            else:
                rem[te] = v - qc * gc
    # prim(f) = prim(g) * quo, so quo is primitive with a positive lead
    return MultiPoly(f.ring, quo, f._c / g._c, _normalized=True)


# -- dense univariate polynomials ---------------------------------------------
#
# Coefficient lists, low degree first.  Zeros are the plain integer 0, so the
# same helpers serve Fraction, complex, mpmath and RatFunc coefficients.


def poly_trim(p: list) -> list:
    """Drop trailing zero coefficients in place, keeping at least one."""
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_add(a: Sequence, b: Sequence) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_scale(a: Sequence, s) -> list:
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_deriv(a: Sequence) -> list:
    return poly_trim([a[i] * i for i in range(1, len(a))] or [0])


def poly_shift(a: Sequence, c) -> list:
    """Coefficients of p(z + c) (Taylor shift, Horner)."""
    out = [0]
    for coeff in reversed(a):
        out = poly_add(poly_mul(out, [c, 1]), [coeff])
    return out


def poly_eval(a: Sequence, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _dense_rem(a: list, b: list) -> list:
    """Remainder of dense Fraction polynomial a modulo b (b nonzero)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and any(r):
        k = len(r) - 1 - db
        q = r[-1] / lb
        for i in range(db + 1):
            r[k + i] -= q * b[i]
        del r[-1]  # leading term cancelled exactly
        poly_trim(r)
    if not any(r):
        return [Fraction(0)]
    return poly_trim(r)


def gcd_univar(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Gcd of two univariate polynomials (primitive, positive leading coeff)."""
    a = poly_trim(list(f.as_univariate(var)))
    b = poly_trim(list(g.as_univariate(var)))
    if a == [0]:
        a, b = b, a
    while b != [0]:
        a, b = b, _dense_rem(a, b)
    ring = f.ring
    i = ring.index[var]
    terms = {}
    for k, c in enumerate(a):
        if c:
            e = [0] * ring.nvars
            e[i] = k
            terms[tuple(e)] = c
    if not terms:
        return ring.zero
    p = MultiPoly.from_fraction_terms(ring, terms)
    # unit-normalize: primitive part with positive leading coefficient
    return MultiPoly(ring, p._t, Fraction(1), _normalized=True)


def reduce_mod(p: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Remainder of p modulo the ideal (g), by long division in `var`.

    g must be monic in `var` after dividing out a constant leading
    coefficient; its other coefficients may involve the remaining variables.
    """
    if var not in p.ring.index:
        raise UsageError(f"variable {var!r} not in ring {p.ring.names}")
    if g.ring != p.ring:
        g = g.rename(p.ring)
    d = g.degree(var)
    if d < 1:
        raise NotReducibleError("generator must have degree >= 1 in the variable")
    lc = g.coeff_of(var, d)
    if not lc.is_const():
        raise NotReducibleError(
            f"generator is not monic in {var!r}: leading coefficient {lc.pretty()}"
        )
    c = lc.const_value()
    if c != 1:
        g = g * (1 / c)
    vmono = p.ring.var(var)
    while (m := p.degree(var)) >= d:
        c_top = p.coeff_of(var, m)
        p = p - c_top * vmono ** (m - d) * g
    return p


# -- rational functions -------------------------------------------------------


def _normalize_factor(f: MultiPoly):
    """Split poly into (content Fraction, primitive positive-lead poly)."""
    if f.is_zero:
        raise ZeroDivisionError("zero polynomial as denominator factor")
    prim = MultiPoly(f.ring, f._t, Fraction(1), _normalized=True)
    return f._c, prim


class RatFunc:
    """Quotient of multivariate polynomials, denominator kept factored.

    The public ``num``/``den`` views present the spec's (numerator,
    denominator) pair; internally the denominator is a multiset of primitive
    factors so that cancellation is a cheap exact-division attempt per factor.
    """

    __slots__ = ("ring", "_num", "_fac")

    def __init__(self, num: MultiPoly, factors: Mapping[MultiPoly, int] | None = None,
                 _simplify=True):
        self.ring = num.ring
        fac: dict = {}
        if factors:
            for f, k in factors.items():
                if k == 0:
                    continue
                if k < 0:
                    raise UsageError("negative multiplicity in denominator")
                c, prim = _normalize_factor(f)
                if c != 1:
                    num = num * (1 / c) ** k
                if prim.is_const():
                    continue
                fac[prim] = fac.get(prim, 0) + k
        self._num = num
        self._fac = fac
        if _simplify and fac and not num.is_zero:
            self._cancel()
        if self._num.is_zero:
            self._fac = {}

    def _cancel(self):
        num = self._num
        fac = dict(self._fac)
        changed = True
        while changed:
            changed = False
            for f in list(fac):
                while fac.get(f, 0) > 0:
                    q = exact_div(num, f)
                    if q is None:
                        break
                    num = q
                    fac[f] -= 1
                    changed = True
                if fac.get(f) == 0:
                    del fac[f]
        self._num = num
        self._fac = fac

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, value, ring: Ring | None = None) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MultiPoly):
            return cls(value)
        if ring is None:
            raise UsageError("ring required to lift a scalar to RatFunc")
        return cls(ring.const(_frac(value)))

    @classmethod
    def fraction(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        return cls(num, {den: 1})

    # -- views ----------------------------------------------------------------

    @property
    def num(self) -> MultiPoly:
        return self._num

    @property
    def den(self) -> MultiPoly:
        out = self.ring.one
        for f, k in self._fac.items():
            out = out * f ** k
        return out

    def den_factors(self) -> dict:
        return dict(self._fac)

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def is_poly(self) -> bool:
        return not self._fac

    def as_poly(self) -> MultiPoly:
        if self._fac:
            raise UsageError(f"not a polynomial: {self.pretty()}")
        return self._num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFunc.of(other, self.ring)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self._fac == other._fac:
            return self._num == other._num
        return self._num * other.den == other._num * self.den

    def __hash__(self):
        # equal values may differ in numerator and denominator (cancellation
        # is not forced), so hash the ring only; RatFuncs are rarely dict keys
        return hash(self.ring)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.of(_frac(other), self.ring)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise UsageError("ring mismatch")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._fac == other._fac:
            return RatFunc(self._num + other._num, self._fac)
        fac = dict(self._fac)
        for f, k in other._fac.items():
            fac[f] = max(fac.get(f, 0), k)
        m1 = self.ring.one
        for f, k in fac.items():
            d = k - self._fac.get(f, 0)
            if d:
                m1 = m1 * f ** d
        m2 = self.ring.one
        for f, k in fac.items():
            d = k - other._fac.get(f, 0)
            if d:
                m2 = m2 * f ** d
        return RatFunc(self._num * m1 + other._num * m2, fac)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self._num, self._fac, _simplify=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatFunc(self.ring.zero)
        fac = dict(self._fac)
        for f, k in other._fac.items():
            fac[f] = fac.get(f, 0) + k
        return RatFunc(self._num * other._num, fac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        num = self.ring.one
        for f, k in self._fac.items():
            num = num * f ** k
        return RatFunc(num, {self._num: 1})

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFunc(self.ring.one)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def derivative(self, var: str) -> "RatFunc":
        # d(n/D)/dx with D = prod f_i^k_i:
        #   (n' - n * sum k_i f_i'/f_i) / D ... assembled with factored tails
        if self.is_zero:
            return self
        n = self._num
        total = RatFunc(n.derivative(var), self._fac)
        for f, k in self._fac.items():
            df = f.derivative(var)
            if df.is_zero:
                continue
            fac = dict(self._fac)
            fac[f] = fac.get(f, 0) + 1
            total = total + RatFunc(n * df * (-k), fac)
        return total

    def subs(self, assign: Mapping[str, object]) -> "RatFunc":
        vals = {name: RatFunc.of(v, self.ring) for name, v in assign.items()}
        num, fac = _subs_parts(self._num, vals)
        for f, k in self._fac.items():
            fv = RatFunc(*_subs_parts(f, vals))
            if fv.is_zero:
                raise ZeroDivisionError("substitution makes a denominator factor vanish")
            for g, m in fv._fac.items():
                num = num * g ** (m * k)
            # the k-th power of f's value enters as one factor, not as f's
            # value with multiplicity k: the factor set that dividing by
            # fv**k gives, so printed denominators keep their form
            fk = fv._num ** k
            fac[fk] = fac.get(fk, 0) + 1
        return RatFunc(num, fac)

    def eval_num(self, assign: Mapping[str, object], num=complex):
        den = num(1)
        for f, k in self._fac.items():
            den *= f.eval_num(assign, num) ** k
        return self._num.eval_num(assign, num) / den

    def coeffs_in(self, var: str) -> dict:
        """Coefficients of powers of `var`: {k: RatFunc}, denominator must be
        free of `var` (raises otherwise)."""
        for f in self._fac:
            if f.involves(var):
                raise UsageError(f"denominator involves {var!r}")
        return {k: RatFunc(c, self._fac, _simplify=False)
                for k, c in self._num.coeffs_in(var).items()}

    def degree(self, var: str) -> int:
        """Degree of the numerator in `var` (denominator must be free of it)."""
        for f in self._fac:
            if f.involves(var):
                raise UsageError(f"denominator involves {var!r}")
        return self._num.degree(var)

    def pretty(self) -> str:
        n = self._num.pretty()
        if not self._fac:
            return n
        dens = []
        for f in sorted(self._fac, key=lambda p: p.pretty()):
            k = self._fac[f]
            fp = f.pretty()
            dens.append(f"({fp})^{k}" if k > 1 else f"({fp})")
        return f"({n})/({'*'.join(dens)})"

    def __repr__(self):
        return f"<RatFunc {self.pretty()}>"


Value = Union[int, Fraction, MultiPoly, RatFunc]


def _val(v: Value, ring: Ring) -> RatFunc:
    """Lift a scalar, polynomial or rational function into `ring`."""
    if isinstance(v, RatFunc):
        if v.ring != ring:
            raise UsageError("value from a different ring")
        return v
    if isinstance(v, MultiPoly):
        return RatFunc.of(v if v.ring == ring else v.rename(ring), ring)
    return RatFunc.of(v, ring)


def _subs_parts(p: MultiPoly, assign: Mapping[str, RatFunc]) -> tuple:
    """(numerator, denominator factors) of p with the values substituted.

    The terms are grouped by their exponents in the substituted variables,
    so each distinct monomial costs one product, and the groups are summed
    over the least common multiple of the values' factored denominators.
    Nothing is cancelled here; the caller builds one RatFunc at the end.
    """
    used = [(n, v) for n, v in assign.items() if p.involves(n)]
    if not used:
        return p, {}
    fields = [p.ring._field(n) for n, _ in used]
    groups: dict = {}
    for e, c in p._t.items():
        key = tuple(e >> s & _FIELD_MASK for s, _ in fields)
        rest = e - sum(k * u for k, (_, u) in zip(key, fields))
        groups.setdefault(key, {})[rest] = c
    dens = {}
    lcm: dict = {}
    for key in groups:
        d: dict = {}
        for (_, v), k in zip(used, key):
            for f, m in v._fac.items() if k else ():
                d[f] = d.get(f, 0) + m * k
        dens[key] = d
        for f, m in d.items():
            lcm[f] = max(lcm.get(f, 0), m)
    powers: dict = {}

    def _pow(f, k):
        if (f, k) not in powers:
            powers[f, k] = f ** k
        return powers[f, k]

    num = p.ring.zero
    for key, terms in groups.items():
        mult = p.ring.one
        for (_, v), k in zip(used, key):
            if k:
                mult = mult * _pow(v._num, k)
        for f, m in lcm.items():
            if m != dens[key].get(f, 0):
                mult = mult * _pow(f, m - dens[key].get(f, 0))
        num = num + MultiPoly(p.ring, terms, p._c) * mult
    return num, lcm


# -- linear algebra -----------------------------------------------------------


def _cleared_row(row: Sequence, ring: Ring) -> list:
    """Polynomial entries of a MultiPoly/RatFunc row times the row's common
    denominator."""
    lifted = [RatFunc.of(x, ring) for x in row]
    fac: dict = {}
    for x in lifted:
        for f, k in x.den_factors().items():
            fac[f] = max(fac.get(f, 0), k)
    cleared = []
    for x in lifted:
        m = ring.one
        for f, k in fac.items():
            d = k - x.den_factors().get(f, 0)
            if d:
                m = m * f ** d
        cleared.append(x.num * m)
    return cleared


def _bareiss_det(M: list, ring: Ring):
    """Determinant of a square MultiPoly matrix by fraction-free elimination.

    Mutates M.  Returns (det, rank); det is None when the matrix is singular
    (rank reports how far elimination got).
    """
    n = len(M)
    prev = ring.one
    sign = 1
    for k in range(n):
        piv = None
        for r in range(k, n):
            if not M[r][k].is_zero:
                piv = r
                break
        if piv is None:
            return None, k
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                q = exact_div(t, prev)
                if q is None:  # pragma: no cover - Bareiss divisions are exact
                    raise ExactAlgError("Bareiss exact division failed")
                M[i][j] = q
            M[i][k] = ring.zero
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return (det if sign == 1 else -det), n


def solve_linear(A: Sequence[Sequence], b: Sequence) -> list:
    """Solve A x = b exactly over the fraction field.

    Entries may be MultiPoly or RatFunc (one common ring).  Rows are cleared
    of denominators, then the solution is assembled as ratios of fraction-
    free (Bareiss) determinants, so no arithmetic ever leaves the polynomial
    ring until the single final division per component.

    Raises SingularMatrixError (with the achieved rank) when det = 0.
    """
    n = len(A)
    if n == 0:
        return []
    if any(len(row) != n for row in A) or len(b) != n:
        raise UsageError("solve_linear requires a square system")
    ring = None
    for row in list(A) + [list(b)]:
        for x in row if isinstance(row, (list, tuple)) else [row]:
            if isinstance(x, (MultiPoly, RatFunc)):
                ring = x.ring
                break
        if ring:
            break
    if ring is None:
        raise UsageError("system has no ring-valued entries")

    M = [_cleared_row(list(A[i]) + [b[i]], ring) for i in range(n)]
    det, rank = _bareiss_det([row[:n] for row in M], ring)
    if det is None:
        raise SingularMatrixError(rank, n)
    out = []
    for j in range(n):
        Mj = [[M[i][col] if col != j else M[i][n] for col in range(n)]
              for i in range(n)]
        det_j, _ = _bareiss_det(Mj, ring)
        if det_j is None:
            out.append(RatFunc.of(0, ring))
        else:
            out.append(RatFunc(det_j, {det: 1}))
    return out


def rank_of(A: Sequence[Sequence]) -> int:
    """Rank of a rectangular MultiPoly/RatFunc matrix (fraction-free)."""
    rows = [list(r) for r in A]
    if not rows:
        return 0
    ring = None
    for r in rows:
        for x in r:
            if isinstance(x, (MultiPoly, RatFunc)):
                ring = x.ring
    if ring is None:
        raise UsageError("matrix has no ring-valued entries")
    M = [_cleared_row(r, ring) for r in rows]
    nr, nc = len(M), len(M[0])
    rank = 0
    row = 0
    prev = ring.one
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if not M[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        for i in range(row + 1, nr):
            for j in range(col + 1, nc):
                q = exact_div(M[row][col] * M[i][j] - M[i][col] * M[row][j], prev)
                M[i][j] = q
            M[i][col] = ring.zero
        prev = M[row][col]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


# -- Groebner (optional exact path for several apparency generators) ----------


class _GPoly:
    """Polynomial in a designated subset of 'main' variables with RatFunc
    coefficients in the remaining ones.  Internal to the Groebner engine."""

    __slots__ = ("ring", "main", "terms")

    def __init__(self, ring, main, terms):
        self.ring = ring
        self.main = main          # tuple of variable names
        self.terms = {e: c for e, c in terms.items() if not c.is_zero}

    @classmethod
    def from_poly(cls, p: MultiPoly, main: Sequence[str]) -> "_GPoly":
        main = tuple(main)
        fields = [p.ring._field(v) for v in main]
        buckets: dict = {}
        for e, c in p._t.items():
            me = tuple(e >> s & _FIELD_MASK for s, _ in fields)
            buckets.setdefault(me, {})[e - sum(k * u for k, (_, u) in zip(me, fields))] = c
        terms = {
            me: RatFunc(MultiPoly(p.ring, t, p._c))
            for me, t in buckets.items()
        }
        return cls(p.ring, main, terms)

    def to_poly_numerator(self) -> MultiPoly:
        """Clear denominators; zero iff self is zero."""
        if not self.terms:
            return self.ring.zero
        den = self.ring.one
        seen: dict = {}
        for c in self.terms.values():
            for f, k in c.den_factors().items():
                seen[f] = max(seen.get(f, 0), k)
        for f, k in seen.items():
            den = den * f ** k
        out = self.ring.zero
        idxs = [self.ring.index[v] for v in self.main]
        for me, c in self.terms.items():
            mono_exp = [0] * self.ring.nvars
            for i, k in zip(idxs, me):
                mono_exp[i] = k
            mono = MultiPoly(self.ring, {tuple(mono_exp): 1}, Fraction(1))
            cleared = (c * den).as_poly()
            out = out + cleared * mono
        return out

    @property
    def is_zero(self):
        return not self.terms

    def lead(self):
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def scale(self, c: RatFunc) -> "_GPoly":
        return _GPoly(self.ring, self.main, {e: v * c for e, v in self.terms.items()})

    def sub_mul(self, c: RatFunc, shift: tuple, other: "_GPoly") -> "_GPoly":
        terms = dict(self.terms)
        zero = RatFunc(self.ring.zero)
        for e, v in other.terms.items():
            te = tuple(a + b for a, b in zip(e, shift))
            nv = terms.get(te, zero) - c * v
            if nv.is_zero:
                terms.pop(te, None)
            else:
                terms[te] = nv
        return _GPoly(self.ring, self.main, terms)


def _gp_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _gp_normal_form(p: _GPoly, basis: list, budget: list) -> _GPoly:
    rem = p
    changed = True
    while changed and not rem.is_zero:
        changed = False
        le, lc = rem.lead()
        for g in basis:
            ge, gc = g.lead()
            if _gp_divides(ge, le):
                shift = tuple(a - b for a, b in zip(le, ge))
                rem = rem.sub_mul(lc / gc, shift, g)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise BudgetExceededError("Groebner reduction budget exceeded")
                changed = True
                break
    return rem


def groebner_basis(polys: Sequence[MultiPoly], main_vars: Sequence[str],
                   budget: int = 20000) -> list:
    """Buchberger with autoreduction over Q(other vars)[main_vars], grlex.

    Desk-scale only: raises BudgetExceededError past `budget` reduction steps
    so callers can fall back to the numeric path.
    """
    gs = [_GPoly.from_poly(p, main_vars) for p in polys if not p.is_zero]
    if not gs:
        return []
    steps = [budget]
    pairs = [(i, j) for i in range(len(gs)) for j in range(i + 1, len(gs))]
    while pairs:
        i, j = pairs.pop(0)
        ei, ci = gs[i].lead()
        ej, cj = gs[j].lead()
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        if all(a + b == m for a, b, m in zip(ei, ej, lcm)):
            continue  # coprime leads: S-poly reduces to zero
        si = tuple(a - b for a, b in zip(lcm, ei))
        sj = tuple(a - b for a, b in zip(lcm, ej))
        zero = _GPoly(gs[i].ring, gs[i].main, {})
        s = zero.sub_mul(RatFunc(gs[i].ring.one) / ci * (-1), si, gs[i])
        s = s.sub_mul(RatFunc(gs[i].ring.one) / cj, sj, gs[j])
        s = _gp_normal_form(s, gs, steps)
        if not s.is_zero:
            k = len(gs)
            gs.append(s)
            pairs.extend((x, k) for x in range(k))
    # minimal basis: in ascending lead order keep an element (made monic)
    # only when no kept lead divides its lead, so one per equal lead survives;
    # lead-reducing a kept element against the others then changes nothing
    out = []
    for g in sorted(gs, key=lambda h: _grlex_key(h.lead()[0])):
        le, lc = g.lead()
        if not any(_gp_divides(h.lead()[0], le) for h in out):
            out.append(g.scale(RatFunc(g.ring.one) / lc))
    return out


def groebner_reduce(p: MultiPoly, basis: Sequence[MultiPoly],
                    main_vars: Sequence[str], budget: int = 20000) -> MultiPoly:
    """Normal form of p modulo the ideal generated by `basis` in main_vars.

    The basis is (re)completed by Buchberger first, so callers may pass raw
    generators.  Returns a denominator-cleared polynomial: zero iff p is in
    the ideal.
    """
    gb = groebner_basis(list(basis), main_vars, budget=budget)
    steps = [budget]
    nf = _gp_normal_form(_GPoly.from_poly(p, main_vars), gb, steps)
    return nf.to_poly_numerator()
