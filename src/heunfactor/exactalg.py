"""Exact arithmetic foundation.

Arbitrary-precision rationals (``fractions.Fraction``), sparse multivariate
polynomials over Q, rational functions with factored denominators,
reduction modulo a monic ideal generator, division-free linear solving
(Cramer's rule by expansion by minors), fraction-free (Bareiss) rank and a
small Buchberger engine for bivariate-style ideals.

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
raises ``UsageError``.  The public methods (``terms``, ``coeff``, the
constructor) take and yield exponent tuples.

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
from fractions import Fraction
from functools import reduce
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
    The ring also owns the packed-key layout of its monomials, and the
    table of monomial values mod p that the modular non-divisor test reads
    (see _mod_image); the table starts empty and fills as monomials occur.
    """

    __slots__ = ("names", "index", "nvars", "_hash", "_shift", "_unit", "_deg_shift",
                 "_guards", "_struct", "_mod_values")

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
        self._mod_values: dict = {}

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
        # the pre-check's cache: {variable index j: [degree in x_j, image in
        # Z_p[x_j] or None], None: indices of the variables f involves}, see
        # _mod_image
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:  # no constant to build: the dense helpers test == 0
                return not self._t
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
        if isinstance(other, (int, Fraction)) and not other:
            return self
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
        t = _convolve(self.ring, {}, self._t, other._t)
        if len(t) < len(self._t) * len(other._t):  # merged terms may cancel
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
        unpack, names = self.ring._unpack, self.ring.names
        cn, cd = self._c.numerator, self._c.denominator
        for e in sorted(self._t, reverse=True):
            # the term's coefficient in lowest terms, as str(Fraction) gives it
            n = self._t[e] * cn
            g = _igcd(n, cd)
            c = f"{n // g}/{cd // g}" if cd != g else str(n // g)
            mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(names, unpack(e)) if k)
            if not mono:
                parts.append(c)
            elif c == "1":
                parts.append(mono)
            elif c == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"<MultiPoly {self.pretty()}>"


def _convolve(ring: Ring, t: dict, a: dict, b: dict, m: int = 1) -> dict:
    """Add m times the product of the nonempty term dicts a and b into t and
    return t; zero entries may remain."""
    if len(a) > len(b):
        a, b = b, a
    shift = ring._deg_shift
    if (max(a) >> shift) + (max(b) >> shift) > _MAX_DEG:
        raise UsageError(f"product exceeds the degree limit {_MAX_DEG}")
    b_items, get = b.items(), t.get
    for e1, c1 in a.items():
        c1 *= m
        for e2, c2 in b_items:
            e = e1 + e2
            t[e] = get(e, 0) + c1 * c2
    return t


def _sum_of_products(ring: Ring, products) -> MultiPoly:
    """Sum of k * a * b over (a, b, k), a and b MultiPoly and k rational: one
    int dict at the contents' common gcd, normalized once (one accumulator
    for the whole sum, Johnson, ACM SIGSAM Bull. 8, 1974).  The result
    equals the sequential sum of `*` and `+`, down to terms and content."""
    products = [(a._t, b._t, a._c * b._c * k) for a, b, k in products
                if a._t and b._t and k]
    if not products:
        return ring.zero
    g = reduce(_content_gcd, [c for _, _, c in products])
    t: dict = {}
    for a, b, c in products:
        _convolve(ring, t, a, b, (c / g).numerator)
    return MultiPoly(ring, t, g)


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
#
# An image is one pass over f's terms: each term splits into its power of x
# and the rest of its monomial, whose value at the points comes from the
# ring's table of monomial values (Ring._mod_values, filled on first use).
# Only the variables that g involves are compared by degree, and x is the
# first of them of highest degree in g.

_MOD_P = (1 << 61) - 1
_MOD_POINTS = tuple(random.Random(1979).sample(range(2, _MOD_P), 256))


def _mod_monomial(ring: Ring, key: int) -> int:
    """Value mod p of the monomial `key` at the fixed points; cached on ring."""
    v = ring._mod_values.get(key)
    if v is None:
        v = 1
        # points repeat past 256 variables, which only weakens the test
        for j, k in enumerate(ring._unpack(key)):
            if k:
                v = v * pow(_MOD_POINTS[j % len(_MOD_POINTS)], k, _MOD_P) % _MOD_P
        ring._mod_values[key] = v
    return v


def _mod_entry(f: MultiPoly, j: int) -> list:
    """[degree of f in x_j, image in Z_p[x_j] or None]; cached on f."""
    if f._mod is None:
        f._mod = {}
    ent = f._mod.get(j)
    if ent is None:
        s = f.ring._shift[j]
        ent = f._mod[j] = [max(e >> s & _FIELD_MASK for e in f._t), None]
    return ent


def _mod_image(f: MultiPoly, main: int) -> list:
    """Image of f's primitive part in Z_p[x_main], low degree first, trimmed;
    cached on f."""
    ent = _mod_entry(f, main)
    if ent[1] is None:
        ring = f.ring
        s, u = ring._shift[main], ring._unit[main]
        img = [0] * (ent[0] + 1)
        for e, c in f._t.items():
            k = e >> s & _FIELD_MASK
            img[k] += c * _mod_monomial(ring, e - k * u)
        img = [v % _MOD_P for v in img]
        while img and not img[-1]:
            img.pop()
        ent[1] = img
    return ent[1]


def _mod_vars(g: MultiPoly) -> tuple:
    """Indices of the variables g involves, ascending; cached on g."""
    if g._mod is None:
        g._mod = {}
    js = g._mod.get(None)
    if js is None:
        used = 0
        for e in g._t:
            used |= e
        shifts = g.ring._shift
        js = g._mod[None] = tuple(j for j in range(g.ring.nvars)
                                  if used >> shifts[j] & _FIELD_MASK)
    return js


def _surely_not_divisor(f: MultiPoly, g: MultiPoly) -> bool:
    """True only when g provably does not divide f (both nonzero, g not
    constant); False means no verdict."""
    main, top = -1, -1
    for j in _mod_vars(g):
        d = _mod_entry(g, j)[0]
        if d > _mod_entry(f, j)[0]:
            return True
        if d > top:
            main, top = j, d
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

    The modular test above rejects most non-divisors of two or more terms
    before `_quotient`; a one-term divisor is an exponent shift there.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    if f.ring != g.ring:
        raise UsageError("ring mismatch in exact_div")
    if len(g._t) > 1 and _surely_not_divisor(f, g):
        return None
    return _quotient(f, g)


def _quotient(f: MultiPoly, g: MultiPoly):
    """f/g for nonzero f and g of one ring, or None when g does not divide f.

    The division runs on the primitive integer parts: by Gauss's lemma g
    divides f over Q exactly when prim(g) divides prim(f) over Z, so a
    quotient digit with a nonzero remainder proves that g does not divide f,
    and the quotient's content is f's over g's.  A one-term prim(g) is a
    monomial: its key is subtracted from each of f's, a borrow proving a
    non-divisor.  Otherwise leading terms are drawn from a heap instead of
    re-scanning the remainder, so large exact divisions (Bareiss steps of
    `_rank`, a Cramer numerator over its determinant) stay near-linear in
    the number of term updates.
    """
    guards = f.ring._guards
    if len(g._t) == 1:
        (ge,) = g._t
        quo = {e - ge: c for e, c in f._t.items()}
        if any(e & guards for e in quo):
            return None
        return MultiPoly(f.ring, quo, f._c / g._c, _normalized=True)
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
    """Coefficients of p(z + c), as many as a has (Taylor shift by repeated
    synthetic division, in place on a copy of a)."""
    out = list(a)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def poly_deflate(a: Sequence, r) -> list:
    """Coefficients of p(z) / (z - r) for a root r of p (synthetic division)."""
    out = [0] * (len(a) - 1)
    acc = 0
    for k in range(len(a) - 1, 0, -1):
        acc = a[k] + r * acc
        out[k - 1] = acc
    return out


def poly_eval(a: Sequence, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


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
    if f._c == 1:  # already primitive: keep the object and its caches
        return f._c, f
    prim = MultiPoly(f.ring, f._t, Fraction(1), _normalized=True)
    return f._c, prim


class RatFunc:
    """Quotient of multivariate polynomials, denominator kept factored.

    The public ``num``/``den`` views present the spec's (numerator,
    denominator) pair; internally the denominator is a multiset of primitive
    factors so that cancellation is a cheap exact-division attempt per factor.

    Arithmetic by a rational constant (an ``int``, a ``Fraction`` or a
    RatFunc whose ``fraction()`` is not None, on either side of ``*``, on
    the right of ``/``) scales the numerator's content and keeps the factor
    dict: ``RatFunc(num * c, fac)``, or ``num / c``, which refuses a zero.
    A constant numerator is ``{0: 1}`` and carries no factors, so the
    general product would copy the same terms, multiply the same contents
    and merge nothing into the same factors, and both routes end in the
    same ``_cancel``; adding an ``int`` or ``Fraction`` to a value without
    factors is the numerators' sum either way.  The results are equal down
    to their terms, content and factor order.
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

    def fraction(self) -> Fraction | None:
        """The value as a Fraction when it is a constant, else None."""
        if self._fac or not self._num.is_const():
            return None
        return self._num.const_value()

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

    def _scalar(self, other) -> Fraction | None:
        """`other` as a Fraction when it is a rational constant of this
        ring (int, Fraction or constant RatFunc), else None."""
        if isinstance(other, (int, Fraction)):
            return _frac(other)
        if isinstance(other, RatFunc) and other.ring == self.ring:
            return other.fraction()
        return None

    def __add__(self, other):
        if not self._fac and isinstance(other, (int, Fraction)):
            return RatFunc(self._num + other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._fac == other._fac:
            return RatFunc(self._num + other._num, self._fac)
        (n1, n2), fac = _over_lcm((self, other))
        return RatFunc(n1 + n2, fac)

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
        c = self._scalar(other)
        if c is not None:
            return RatFunc(self._num * c, self._fac)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = self.fraction()
        if c is not None:
            return RatFunc(other._num * c, other._fac)
        if self.is_zero or other.is_zero:
            return RatFunc(self.ring.zero)
        fac = dict(self._fac)
        for f, k in other._fac.items():
            fac[f] = fac.get(f, 0) + k
        return RatFunc(self._num * other._num, fac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._scalar(other)
        if c is not None:
            return RatFunc(self._num / c, self._fac)
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
        # d(n/D)/dx with D = prod f_i^k_i and P the product of the f_i that
        # involve x:  (n' P - n sum k_i f_i' P/f_i) / (D P), cancelled once
        if self.is_zero:
            return self
        n = self._num
        fac = dict(self._fac)
        P, S = self.ring.one, self.ring.zero
        for f, k in self._fac.items():
            df = f.derivative(var)
            if df.is_zero:
                continue
            S = S * f + df * P * k
            P = P * f
            fac[f] += 1
        return RatFunc(n.derivative(var) * P - n * S, fac)

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


def _over_lcm(values: Sequence[RatFunc]) -> tuple:
    """(numerators, factors) of RatFuncs brought over the least common
    multiple of their factored denominators: each numerator times its
    cofactor, and the multiple's factors.  Nothing is cancelled."""
    fac: dict = {}
    for v in values:
        for f, k in v._fac.items():
            if k > fac.get(f, 0):
                fac[f] = k
    powers: dict = {}
    nums = []
    for v in values:
        n = v._num
        for f, k in fac.items():
            d = k - v._fac.get(f, 0)
            if d:
                if (f, d) not in powers:
                    powers[f, d] = f ** d
                n = n * powers[f, d]
        nums.append(n)
    return nums, fac


def _subs_parts(p: MultiPoly, assign: Mapping[str, RatFunc]) -> tuple:
    """(numerator, denominator factors) of p with the values substituted.

    The terms are grouped by their exponents in the substituted variables,
    so each distinct monomial costs one product, and the groups are summed
    over the least common multiple of the values' factored denominators in
    one `_sum_of_products`.  Nothing is cancelled; the caller builds one
    RatFunc at the end.
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

    products = []
    for key, terms in groups.items():
        mult = p.ring.one
        for (_, v), k in zip(used, key):
            if k:
                mult = mult * _pow(v._num, k)
        for f, m in lcm.items():
            if m != dens[key].get(f, 0):
                mult = mult * _pow(f, m - dens[key].get(f, 0))
        products.append((MultiPoly(p.ring, terms, p._c), mult, 1))
    return _sum_of_products(p.ring, products), lcm


# -- linear algebra -----------------------------------------------------------


def _cleared(A: Sequence[Sequence]) -> list:
    """Rows of a MultiPoly/RatFunc matrix as polynomial lists, each row times
    its common denominator."""
    ring = next((x.ring for row in A for x in row
                 if isinstance(x, (MultiPoly, RatFunc))), None)
    if ring is None:
        raise UsageError("matrix has no ring-valued entries")
    return [_over_lcm([RatFunc.of(x, ring) for x in row])[0] for row in A]


def _rank(M: list) -> int:
    """Rank of a nonempty MultiPoly matrix by fraction-free row echelon, in
    place, skipping zero columns (Bareiss, Math. Comp. 22, 1968).

    Every division is exact by Sylvester's identity, so it goes straight to
    `_quotient`.
    """
    nr, nc = len(M), len(M[0])
    rank, prev = 0, M[0][0].ring.one
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if not M[r][col].is_zero), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        top = M[rank]
        for row in M[rank + 1:]:
            for j in range(col + 1, nc):
                t = top[col] * row[j] - row[col] * top[j]
                q = _quotient(t, prev) if not t.is_zero else t
                if q is None:  # pragma: no cover - Bareiss divisions are exact
                    raise ExactAlgError("Bareiss exact division failed")
                row[j] = q
        prev = top[col]
        rank += 1
        if rank == nr:
            break
    return rank


def solve_linear(A: Sequence[Sequence], b: Sequence) -> list:
    """Solve A x = b exactly over the fraction field.

    Entries may be MultiPoly or RatFunc (one common ring).  Rows are cleared
    of denominators, then one Laplace expansion of the augmented n x (n+1)
    matrix [A | b] gives every determinant of Cramer's rule: row k expands
    each (k+1)-column minor of the rows 0..k along row k, from the k-column
    minors of the rows above, so each minor is computed once, a zero minor
    is dropped, and no polynomial is ever divided (expansion by minors,
    Gentleman & Johnson, ACM TOMS 2, 1976).  Each minor is one
    `_sum_of_products` of its cofactor terms.  The columns 0..n-1 give
    det A; the columns without j give Cramer's numerator j up to the sign
    (-1)^(n-1-j), since b sits last instead of at column j.  The values come
    back uncancelled, numerator over {det: 1}; a caller that wants them in
    lowest terms cancels each once.

    Raises SingularMatrixError (with the achieved rank) when det = 0.
    """
    n = len(A)
    if n == 0:
        return []
    if any(len(row) != n for row in A) or len(b) != n:
        raise UsageError("solve_linear requires a square system")
    M = _cleared([list(A[i]) + [b[i]] for i in range(n)])
    # the sparsest rows last, where their entries multiply the largest
    # minors; a row order scales det and every numerator by one sign
    M.sort(key=lambda row: -sum(x.num_terms() for x in row))
    ring = M[0][0].ring
    # column set (bit mask) -> nonzero minor on the rows expanded so far
    minors = {0: ring.one}
    for row in M:
        nxt: dict = {}
        for cols, minor in minors.items():
            for c, x in enumerate(row):
                bit = 1 << c
                if cols & bit or x.is_zero:
                    continue
                # along the minor's last row, x's cofactor has the sign of
                # the number of columns after c
                sign = -1 if (cols >> c).bit_count() & 1 else 1
                nxt.setdefault(cols | bit, []).append((x, minor, sign))
        minors = {s: v for s, terms in nxt.items()
                  if not (v := _sum_of_products(ring, terms)).is_zero}
    full = (1 << (n + 1)) - 1
    det = minors.get(full ^ 1 << n)
    if det is None:
        raise SingularMatrixError(_rank([row[:n] for row in M]), n)
    return [RatFunc(minors.get(full ^ 1 << j, ring.zero) * (-1) ** (n - 1 - j), {det: 1},
                    _simplify=False) for j in range(n)]


def _mod_value(f: MultiPoly):
    """Value of f mod p at the pre-check's fixed points; None when p divides
    the denominator of f's content."""
    c = f._c
    if c.denominator % _MOD_P == 0:
        return None
    v = sum(k * _mod_monomial(f.ring, e) for e, k in f._t.items())
    return v * c.numerator * pow(c.denominator, -1, _MOD_P) % _MOD_P


def point_rank(A: Sequence[Sequence[MultiPoly]]):
    """Rank of a MultiPoly matrix at the pre-check's fixed points mod p, or
    None when an entry has no value there (see _mod_value).

    A minor that is nonzero at a point is a nonzero polynomial, so this is a
    lower bound of `rank_of` and equal to it unless the point is special:
    full rank here proves full rank exactly."""
    rows = []
    for r in A:
        row = [_mod_value(x) for x in r]
        if None in row:
            return None
        rows.append(row)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _MOD_P)
        for i in range(rank + 1, len(rows)):
            m = rows[i][col] * inv % _MOD_P
            if m:
                rows[i] = [(a - m * b) % _MOD_P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_of(A: Sequence[Sequence]) -> int:
    """Rank of a rectangular MultiPoly/RatFunc matrix (fraction-free)."""
    return _rank(_cleared(A)) if A else 0


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
        out = self.ring.zero
        idxs = [self.ring.index[v] for v in self.main]
        for me, cleared in zip(self.terms, _over_lcm(list(self.terms.values()))[0]):
            mono_exp = [0] * self.ring.nvars
            for i, k in zip(idxs, me):
                mono_exp[i] = k
            mono = MultiPoly(self.ring, {tuple(mono_exp): 1}, Fraction(1))
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
