"""Exact-arithmetic foundation: ring axioms, reduction, Bareiss, gcd, Groebner."""

import pickle
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from heunfactor.exactalg import (
    MultiPoly,
    NotReducibleError,
    RatFunc,
    Ring,
    SingularMatrixError,
    UsageError,
    _MAX_DEG,
    _MOD_P,
    _MOD_POINTS,
    _grlex_key,
    _over_lcm,
    _mod_image,
    _quotient,
    _sum_of_products,
    _surely_not_divisor,
    exact_div,
    groebner_basis,
    groebner_reduce,
    point_rank,
    poly_eval,
    poly_shift,
    rank_of,
    reduce_mod,
    solve_linear,
)


def rand_poly(ring, rng, nterms=4, deg=3, coeff=6):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(ring.nvars))
        terms[e] = F(rng.randint(-coeff, coeff), rng.randint(1, 3))
    return MultiPoly.from_fraction_terms(ring, terms)


_XYZ = Ring(("x", "y", "z"))
_polys = st.builds(
    lambda terms, k: MultiPoly.from_fraction_terms(_XYZ, terms) * k,
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6),
                    max_size=5),
    st.sampled_from([1, -1, 6, F(-4, 9)]))

_XYE = Ring(("x", "y", "e1", "e2"))
_x, _y = _XYE.var("x"), _XYE.var("y")
_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4),
                         st.fractions(min_value=-9, max_value=9, max_denominator=6),
                         max_size=5)
# denominator factors of the values: shared, repeated and composite ones
_den_factors = st.sampled_from([_x, _y, _x - 1, _x + _y, _x * _y + 1, _x * (_y - 2)])
_dens = st.dictionaries(_den_factors, st.integers(1, 2), max_size=2)
_xy_values = st.builds(
    lambda terms, fac: RatFunc(MultiPoly.from_fraction_terms(
        _XYE, {(a, b, 0, 0): c for (a, b, _, _), c in terms.items()}), fac),
    _terms, _dens)


def _image_oracle(f, main):
    """Image of f's primitive part in Z_p[x_main], each term evaluated alone."""
    img = {}
    prim = f * (1 / f.content())
    for e, c in prim.terms():
        v = int(c)
        for j, k in enumerate(e):
            if j != main:
                v = v * pow(_MOD_POINTS[j], k, _MOD_P)
        img[e[main]] = (img.get(e[main], 0) + v) % _MOD_P
    out = [img.get(k, 0) for k in range(max(img, default=-1) + 1)]
    while out and not out[-1]:
        out.pop()
    return out


def _subs_termwise(p, assign):
    """Oracle: the term-by-term substitution, one RatFunc sum per term."""
    out = RatFunc(p.ring.zero)
    for e, c in p.terms():
        rest = {n: k for n, k in zip(p.ring.names, e) if n not in assign}
        term = RatFunc(p.ring.monomial(rest, c))
        for name, v in assign.items():
            term = term * v ** e[p.ring.index[name]]
        out = out + term
    return out


class TestRingAxioms:
    def test_randomized_axioms(self):
        rng = random.Random(7)
        ring = Ring(("x", "y", "z"))
        for _ in range(1000):
            a, b, c = (rand_poly(ring, rng, nterms=3, deg=2) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_no_zero_terms_stored(self):
        ring = Ring(("x",))
        x = ring.var("x")
        p = x + (-x)
        assert p.is_zero and p.num_terms() == 0

    def test_content_canonical(self):
        ring = Ring(("x", "y"))
        p = MultiPoly.from_fraction_terms(
            ring, {(1, 0): F(4, 6), (0, 1): F(-2, 3)})
        assert p.coeff((1, 0)) == F(2, 3)
        assert p.coeff((0, 1)) == F(-2, 3)


class TestReduceMod:
    def test_single_substitution(self):
        ring = Ring(("q", "alpha", "beta", "t"))
        q, a, b, t = (ring.var(n) for n in ring.names)
        assert reduce_mod(q ** 2, q - a * b * t, "q") == (a * b * t) ** 2

    def test_self_reduction(self, ep1q):
        assert reduce_mod(ep1q, ep1q, "q").is_zero

    def test_cubic_against_dense_division_oracle(self, R, ep1q):
        # independent oracle: dense long division in q over Q at a concrete
        # instance alpha=1, beta=2, t=2, gamma=34/3
        inst = {"alpha": F(1), "beta": F(2), "t": F(2), "gamma": F(34, 3)}
        g_inst = RatFunc.of(ep1q, R).subs(inst).as_poly()
        gd = {k: v.const_value() for k, v in g_inst.coeffs_in("q").items()}
        g_dense = [gd.get(i, F(0)) for i in range(3)]
        # long division of q^3 by g_dense, remainder degree <= 1
        r = [F(0), F(0), F(0), F(1)]
        while len(r) - 1 >= 2:
            k = len(r) - 1 - 2
            c = r[-1] / g_dense[-1]
            for i in range(3):
                r[k + i] -= c * g_dense[i]
            r.pop()
        q = R.var("q")
        want = R.const(r[0]) + R.const(r[1]) * q
        got = reduce_mod(q ** 3, g_inst, "q")
        assert got == want
        assert got.degree("q") == 1

    def test_division_identity_property(self, R, rng):
        q = R.var("q")
        for _ in range(40):
            g = q ** 2 + rng.randint(-5, 5) * q + rng.randint(-5, 5)
            p = rand_poly(R, rng, nterms=3, deg=2)
            r = rand_poly(R, rng, nterms=2, deg=0) + rng.randint(-3, 3) * q
            assert reduce_mod(p * g + r, g, "q") == reduce_mod(r, g, "q")

    def test_non_monic_rejected(self, R):
        q, t = R.var("q"), R.var("t")
        with pytest.raises(NotReducibleError):
            reduce_mod(q ** 3, t * q ** 2 - 1, "q")

    def test_unknown_variable(self, R):
        other = Ring(("u",))
        with pytest.raises(UsageError):
            reduce_mod(other.var("u"), other.var("u"), "q")


class TestSolveLinear:
    def test_one_by_one(self, R):
        (x,) = solve_linear([[R.const(2)]], [R.const(3)])
        assert x == RatFunc.of(F(3, 2), R)

    def test_identity(self, R):
        a, b = R.var("alpha"), R.var("beta")
        x = solve_linear([[R.one, R.zero], [R.zero, R.one]], [a, b])
        assert x[0] == RatFunc(a) and x[1] == RatFunc(b)

    def test_zero_component(self, R):
        a = R.var("alpha")
        x = solve_linear([[R.one, a], [a, R.one]], [a * a, a])
        assert x == [RatFunc.of(0, R), RatFunc(a)]

    def test_round_trip_random(self, R, rng):
        for n in (2, 3):
            for _ in range(10):
                A = [[R.const(F(rng.randint(-6, 6), rng.randint(1, 4)))
                      for _ in range(n)] for _ in range(n)]
                xs = [R.const(F(rng.randint(-6, 6), rng.randint(1, 4)))
                      for _ in range(n)]
                try:
                    b = [sum((A[i][j] * xs[j] for j in range(n)), R.zero)
                         for i in range(n)]
                    sol = solve_linear(A, b)
                except SingularMatrixError:
                    continue
                assert all(sol[j] == RatFunc(xs[j]) for j in range(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_polynomial_entries(self, n):
        # sparse entries in three variables, zeros among them, and a known
        # solution with a shared polynomial denominator, so b is rational
        rng = random.Random(5000 + n)
        ring = Ring(("x", "y", "z"))
        den = rand_poly(ring, rng, nterms=2, deg=1)
        solved = 0
        while solved < 3:
            A = [[rand_poly(ring, rng, nterms=rng.choice([0, 1, 2, 3]), deg=2)
                  for _ in range(n)] for _ in range(n)]
            if point_rank(A) != n:
                continue
            xs = [RatFunc(rand_poly(ring, rng, nterms=rng.choice([0, 2, 3])),
                          {den: 1}) for _ in range(n)]
            b = [sum((A[i][j] * xs[j] for j in range(n)), RatFunc.of(0, ring))
                 for i in range(n)]
            assert solve_linear(A, b) == xs
            solved += 1

    @pytest.mark.parametrize("rank", [2, 3])
    def test_rank_deficient_polynomial_system(self, rank):
        # rows past `rank` are polynomial combinations of the first two
        rng = random.Random(6000 + rank)
        ring = Ring(("x", "y", "z"))
        rows = [[rand_poly(ring, rng, nterms=3, deg=2) for _ in range(4)]
                for _ in range(rank)]
        for _ in range(4 - rank):
            p, q = rand_poly(ring, rng, nterms=2, deg=1), rand_poly(ring, rng, nterms=2, deg=1)
            rows.append([p * u + q * v for u, v in zip(rows[0], rows[1])])
        assert point_rank(rows[:rank]) == rank
        b = [rand_poly(ring, rng) for _ in range(4)]
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(rows, b)
        assert err.value.rank == rank and err.value.size == 4

    def test_singular_reports_rank(self, R):
        with pytest.raises(SingularMatrixError) as err:
            solve_linear([[R.one, R.one], [R.one, R.one]], [R.zero, R.one])
        assert err.value.rank == 1 and err.value.size == 2

    def test_thm44_system_matches_closed_forms(self):
        # the 2x2 system from the first-order defect coefficients at a random
        # rational strength-2 instance must reproduce the closed forms
        from heunfactor.factorize import (ApparentFuchsian, factor_ring,
                                          solve_esym, thm44_e1e2)
        from heunfactor.heun import HeunParams

        ring = factor_ring(1, 2)
        vals = dict(alpha=F(1, 3), beta=F(2, 7), gamma=F(5, 4), q=F(3, 5),
                    t=F(7, 3))
        Lt = ApparentFuchsian.from_heun(vals["alpha"], vals["beta"],
                                        vals["gamma"], 2, vals["q"],
                                        vals["t"], ring)
        es, _ = solve_esym(Lt)
        hp = HeunParams.make(alpha=vals["alpha"], beta=vals["beta"],
                             gamma=vals["gamma"], epsilon=-2, q=vals["q"],
                             t=vals["t"], ring=ring)
        E1, E2, _ = thm44_e1e2(hp)
        assert es.values[0] == E1
        assert es.values[1] == E2


class TestExactDiv:
    def test_divides(self, R):
        z, t, a = R.var("z"), R.var("t"), R.var("alpha")
        assert exact_div((z - t) * (z - 1) * a, z - t) == (z - 1) * a

    def test_fails_clean(self, R):
        z = R.var("z")
        assert exact_div(z * z + 1, z - 1) is None

    @given(g=_polys, h=_polys)
    def test_true_divisor_never_rejected(self, g, h):
        # the modular pre-check only rejects: g always divides g*h, whatever
        # the contents and the signs of the leading coefficients
        if g.is_zero:
            return
        assert exact_div(g * h, g) == h

    @given(c1=_polys, c0=_polys, h=_polys)
    def test_true_divisor_linear_in_z_never_rejected(self, c1, c0, h):
        # g = c1(x, y) z + c0(x, y) with x and y present: the images come from the
        # ring's table of monomial values, and they are the homomorphic images
        g = c1.subs({"z": 0}) * _XYZ.var("z") + c0.subs({"z": 0})
        if g.is_const() or h.is_zero:
            return
        for f in (g, g * h):
            for main in range(3):
                assert _mod_image(f, main) == _image_oracle(f, main)
        assert _XYZ._mod_values
        assert exact_div(g * h, g) == h

    def test_modular_image_rejects(self):
        # the image of g = x - y in Z_p[x] keeps its degree, and x^2 + y
        # leaves the nonzero remainder y0^2 + y0: the pre-check rejects
        x, y = _XYZ.var("x"), _XYZ.var("y")
        f, g = x * x + y, x - y
        assert len(_mod_image(g, 0)) == 2
        assert _surely_not_divisor(f, g)
        assert exact_div(f, g) is None

    @pytest.mark.parametrize("shape", ["constant", "zero"])
    def test_constant_image_falls_through(self, shape):
        # the x-coefficient of g vanishes at the fixed point y0 of y, so the
        # image of g carries no verdict and the heap division decides
        x, y = _XYZ.var("x"), _XYZ.var("y")
        y0 = _mod_image(y, 0)[0]
        g = (y - y0) * x + (1 if shape == "constant" else 0)
        assert len(_mod_image(g, 0)) == (1 if shape == "constant" else 0)
        h = 3 * x * y - F(2, 5) * x + y ** 2
        assert not _surely_not_divisor(g * h, g)
        assert exact_div(g * h, g) == h
        f = g * h + x
        assert not _surely_not_divisor(f, g)
        assert exact_div(f, g) is None


# eleven variables: more fields than fit one 64-bit word at 16 bits each
_WIDE = Ring([f"x{i}" for i in range(11)])
_wide_exps = st.tuples(*[st.integers(0, 3)] * 11)
_wide_polys = st.builds(
    lambda terms, k: MultiPoly(_WIDE, terms, F(1)) * k,
    st.dictionaries(_wide_exps, st.integers(-9, 9), max_size=5),
    st.sampled_from([1, -1, F(3, 7)]))


def _convolve(a: dict, b: dict) -> dict:
    """Oracle: the product of two {exponent tuple: coefficient} dicts."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class TestPackedKernel:
    @given(a=_wide_exps, b=_wide_exps)
    def test_key_order_is_grlex(self, a, b):
        ka, kb = _WIDE._pack(a), _WIDE._pack(b)
        assert (ka < kb) == (_grlex_key(a) < _grlex_key(b))
        assert (ka == kb) == (a == b)
        assert _WIDE._unpack(ka) == a

    @given(f=_wide_polys, g=_wide_polys)
    def test_mul_is_the_convolution(self, f, g):
        got = dict((f * g).terms())
        assert got == _convolve(dict(f.terms()), dict(g.terms()))
        assert list(got) == sorted(got, key=_grlex_key, reverse=True)

    @given(f=_wide_polys, g=_wide_polys, r=_wide_polys)
    def test_exact_div_inverts_mul(self, f, g, r):
        if g.is_zero:
            return
        assert exact_div(f * g, g) == f
        # a nonzero r of lower total degree than g is no multiple of g
        if not r.is_zero and r.degree() < g.degree():
            assert exact_div(f * g + r, g) is None

    def test_pickle_round_trip(self):
        x0, x9 = _WIDE.var("x0"), _WIDE.var("x9")
        r = RatFunc((x0 - 2 * x9) ** 3, {x0 + 1: 2})
        assert pickle.loads(pickle.dumps(r)) == r

    def test_fractional_digit_rejects(self):
        # g's image in Z_p[x] is constant, so the heap division decides: its
        # first quotient digit, xy / 2xy, is not an integer
        x, y = _XYZ.var("x"), _XYZ.var("y")
        g = 2 * (y - _mod_image(y, 0)[0]) * x + 1
        assert not _surely_not_divisor(x * y, g)
        assert exact_div(x * y, g) is None

    def test_degree_limit_raises(self):
        x0, x1 = _WIDE.var("x0"), _WIDE.var("x1")
        big = x0 ** _MAX_DEG
        assert big.degree("x0") == _MAX_DEG
        assert big.derivative("x0").degree() == _MAX_DEG - 1
        with pytest.raises(UsageError):
            big * x1
        with pytest.raises(UsageError):
            x0 ** (_MAX_DEG + 1)
        with pytest.raises(UsageError):
            _WIDE.monomial({"x0": _MAX_DEG, "x5": 1})
        with pytest.raises(UsageError):
            MultiPoly(_WIDE, {(_MAX_DEG + 1,) + (0,) * 10: 1}, F(1))
        with pytest.raises(UsageError):
            MultiPoly(_WIDE, {(-1,) + (0,) * 10: 1}, F(1))


def _pretty_oracle(p):
    """The printed form with one Fraction per term."""
    if p.is_zero:
        return "0"
    parts = []
    for e, c in p.terms():
        mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(p.ring.names, e) if k)
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mono if c == 1 else f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


_ks = st.sampled_from([1, -1, 3, -2, F(5, 6), F(-7, 4)])
_products = st.lists(st.tuples(_polys, _polys, _ks), max_size=5)


class TestExactLaneKernels:
    @settings(max_examples=60)
    @given(products=_products)
    def test_sum_of_products_is_the_sequential_sum(self, products):
        want = _XYZ.zero
        for a, b, k in products:
            want = want + a * b * k
        got = _sum_of_products(_XYZ, products)
        assert got._t == want._t and got._c == want._c

    @settings(max_examples=60)
    @given(products=_products)
    def test_sum_of_products_cancels_to_zero(self, products):
        # each product once with k and once with -k
        got = _sum_of_products(_XYZ, products + [(b, a, -k) for a, b, k in products])
        assert got.is_zero and got.content() == 0

    def test_sum_of_products_keeps_the_degree_limit(self):
        x0, x1 = _WIDE.var("x0"), _WIDE.var("x1")
        with pytest.raises(UsageError):
            _sum_of_products(_WIDE, [(x1, x1, 1), (x0 ** _MAX_DEG, x1, F(1, 2))])
        assert _sum_of_products(_WIDE, [(x0 ** _MAX_DEG, _WIDE.zero, 1)]).is_zero

    @given(f=_polys, h=_polys, e=st.tuples(*[st.integers(0, 2)] * 3),
           c=st.sampled_from([1, -3, F(2, 5), F(-7, 9)]))
    def test_monomial_division_matches_the_heap_route(self, f, h, e, c):
        # g | f exactly when g h | f h, and g h has two or more terms for the
        # h that pass, so exact_div takes the modular test and the heap there
        g = _XYZ.monomial(dict(zip(_XYZ.names, e)), c)
        if f.is_zero or h.num_terms() < 2:
            return
        for num in (f, f * g):
            got = exact_div(num, g)
            assert got == exact_div(num * h, g * h)
            if got is not None:
                assert got * g == num
                assert got._t == exact_div(num * h, g * h)._t

    def test_monomial_division_rejects(self):
        x, y, z = (_XYZ.var(n) for n in _XYZ.names)
        # a borrow in one field (y^2 z / x), a lower total degree (x / x^2 y),
        # a lower degree in one variable under a higher total (x^3 z^2 / x^4)
        for f, g in ((y * y * z, x), (x + x * x * y * 5, x * x * y),
                     (x ** 3 * z * z + x ** 5, x ** 4)):
            assert exact_div(f, g) is None and _quotient(f, g) is None
        assert exact_div(x * y * z * 6 + x * y, x * y * 2) == 3 * z + F(1, 2)

    @given(f=_polys, c=st.sampled_from([1, -1, 7, F(-3, 4)]))
    def test_constant_division(self, f, c):
        if f.is_zero:
            return
        got = exact_div(f, _XYZ.const(c))
        assert got._t == f._t and got._c == f.content() / c

    def test_heap_route_rejects_a_fractional_digit(self):
        # prim(g) = 2x + 1 does not divide 3x + 1 over Z: the first digit
        # 3/2 has a remainder (the modular test is bypassed here)
        x = _XYZ.var("x")
        assert _quotient(3 * x + 1, 2 * x + 1) is None
        assert _quotient((3 * x + 1) * (2 * x + 1), 2 * x + 1) == 3 * x + 1

    @given(p=_polys)
    def test_pretty_matches_the_fraction_per_term_form(self, p):
        assert p.pretty() == _pretty_oracle(p)

    def test_pretty_unit_and_fractional_coefficients(self):
        x, y = _XYZ.var("x"), _XYZ.var("y")
        for p in (x - y, -x + y * F(1, 3), (x * y - 1) * F(-2, 3), x * 4 - 6,
                  _XYZ.const(F(-5, 2)), (x - y * 3) * F(1, 3), -x * y - 1):
            assert p.pretty() == _pretty_oracle(p)
        assert ((x * y - 1) * F(-2, 3)).pretty() == "-2/3*x*y + 2/3"
        assert ((x - y * 3) * F(1, 3)).pretty() == "1/3*x - y"


class TestGroebner:
    def test_member_reduces_to_zero(self, R):
        z = R.var("z")
        assert groebner_reduce((z - 1) * (z + 2), [z - 1], ["z"]).is_zero

    def test_one_in_proper_ideal_stays(self, R):
        z = R.var("z")
        nf = groebner_reduce(R.one, [z - 1], ["z"])
        assert not nf.is_zero
        assert nf.is_const()

    def test_two_variable_ideal(self):
        ring = Ring(("p1", "p2"))
        p1, p2 = ring.var("p1"), ring.var("p2")
        basis = [p1 ** 2 + p2 - 3, p1 * p2 - 1]
        member = (p1 ** 2 + p2 - 3) * p2 + (p1 * p2 - 1) * (p1 + 5)
        assert groebner_reduce(member, basis, ["p1", "p2"]).is_zero
        assert not groebner_reduce(p1 + p2, basis, ["p1", "p2"]).is_zero

    def test_equal_leads_keep_one_generator(self):
        # autoreduction once reduced 2f against f and f against 2f, and both
        # vanished: the basis came out empty and members looked like non-members
        ring = Ring(("p1", "p2", "t"))
        p1, p2, t = (ring.var(n) for n in ("p1", "p2", "t"))
        f = p1 ** 2 + p2 - t
        main = ["p1", "p2"]
        assert ([g.terms for g in groebner_basis([f, 2 * f], main)]
                == [g.terms for g in groebner_basis([f], main)] != [])
        assert groebner_reduce(p1 * f, [f, 2 * f], main).is_zero


class TestSubs:
    @given(terms=_terms, den=_dens, e1=_xy_values, e2=_xy_values)
    def test_grouped_substitution_matches_termwise(self, terms, den, e1, e2):
        f = RatFunc(MultiPoly.from_fraction_terms(_XYE, terms),
                    {g.subs({"x": _XYE.var("e1")}): k for g, k in den.items()})
        assign = {"e1": e1, "e2": e2}
        want = _subs_termwise(f.num, assign)
        try:
            for g, k in f.den_factors().items():
                want = want / _subs_termwise(g, assign) ** k
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                f.subs(assign)
            return
        got = f.subs(assign)
        assert got == want
        assert got == f.num.subs(assign) / f.den.subs(assign)
        for g in got.den_factors():
            assert exact_div(got.num, g) is None

    def test_polynomial_values_give_polynomials(self):
        p = _x * _XYE.var("e1") ** 2 + _XYE.var("e2")
        got = p.subs({"e1": _y - 1, "e2": F(1, 2)})
        assert got == _x * (_y - 1) ** 2 + F(1, 2)


class TestPolyShift:
    """poly_shift(a, c) holds the coefficients of p(z + c): its value at x is
    p's at x + c."""

    XS = (F(0), F(1, 3), F(-5, 2), F(7))

    def test_fraction_shift(self):
        rng = random.Random(11)
        for n in range(1, 8):
            a = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            c = F(rng.randint(-9, 9), rng.randint(1, 5))
            shifted = poly_shift(a, c)
            assert len(shifted) == n
            assert all(poly_eval(shifted, x) == poly_eval(a, x + c) for x in self.XS)

    def test_complex_shift(self):
        rng = random.Random(12)
        for n in range(1, 8):
            a = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            shifted = poly_shift(a, c)
            for x in map(complex, self.XS):
                want = poly_eval(a, x + c)
                assert abs(poly_eval(shifted, x) - want) <= 1e-12 * max(1, abs(want))

    def test_ratfunc_shift(self, R):
        # MultiPoly coefficients shifted by a point rational in t, as the
        # series engine shifts L~'s cleared form
        q, a, t = (R.var(n) for n in ("q", "alpha", "t"))
        coeffs = [q * t, a * t - 1, F(3, 2), q - a, R.one]
        c = RatFunc(t * t + 1, {t - 1: 1})
        shifted = poly_shift(coeffs, c)
        for x in self.XS:
            assert (RatFunc.of(poly_eval(shifted, x), R)
                    == RatFunc.of(poly_eval(coeffs, x + c), R))


class TestEvalNum:
    def test_term_order_does_not_change_the_value(self):
        # at 53 bits (1e30 + 1) - 1e30 is 0 but (1e30 - 1e30) + 1 is 1
        ring = Ring(("x", "y"))
        a = MultiPoly(ring, {(1, 0): 10 ** 30, (0, 0): 1, (0, 1): -10 ** 30}, F(1))
        b = MultiPoly(ring, {(1, 0): 10 ** 30, (0, 1): -10 ** 30, (0, 0): 1}, F(1))
        assert a == b
        at = {"x": mp.mpc(1), "y": mp.mpc(1)}
        with mp.workprec(53):
            assert a.eval_num(at, num=mp.mpc) == b.eval_num(at, num=mp.mpc)


class TestRatFunc:
    def test_cancellation(self, R):
        z, t, a, b = (R.var(n) for n in ("z", "t", "alpha", "beta"))
        r = RatFunc(a * b * (z - t), {z: 1, z - 1: 1, z - t: 1})
        assert r == RatFunc(a * b, {z: 1, z - 1: 1})
        assert (z - t) not in r.den_factors()

    def test_derivative_quotient_rule(self, R, rng):
        z = R.var("z")
        den = z * (z - 1) ** 2  # fixed representative, independent of cancellation
        for _ in range(20):
            num = rand_poly(R, rng, nterms=3, deg=2)
            r = RatFunc(num, {z: 1, z - 1: 2})
            dr = r.derivative("z")
            lhs = dr * den * den
            rhs = RatFunc(num.derivative("z")) * den - RatFunc(num) * den.derivative("z")
            assert lhs == rhs

    @given(n=_polys, roots=st.lists(st.sampled_from([0, 1, -2, F(3, 2)]),
                                    max_size=2, unique=True),
           ks=st.lists(st.integers(1, 3), min_size=3, max_size=3))
    def test_derivative_of_linear_factors_is_reduced(self, n, roots, ks):
        # n / prod (x - r_i)^k_i with distinct r_i, one of them the symbol y
        x = _XYZ.var("x")
        lin = [x - _XYZ.var("y")] + [x - r for r in roots]
        den = _XYZ.one
        for f, k in zip(lin, ks):
            den = den * f ** k
        r = RatFunc(n, dict(zip(lin, ks)))
        dr = r.derivative("x")
        assert dr * den * den == RatFunc(n.derivative("x") * den - n * den.derivative("x"))
        for f in dr.den_factors():
            assert exact_div(dr.num, f) is None

    def test_equal_values_hash_equal(self):
        ring = Ring(("t",))
        t = ring.var("t")
        uncancelled = RatFunc(t - 1, {t * t - 1: 1})
        cancelled = RatFunc(ring.one, {t + 1: 1})
        assert uncancelled == cancelled
        assert hash(uncancelled) == hash(cancelled)
        assert len({uncancelled, cancelled}) == 1

    def test_fraction_of_constants_only(self, R):
        z, a = R.var("z"), R.var("alpha")
        assert RatFunc.of(F(-3, 7), R).fraction() == F(-3, 7)
        assert RatFunc.of(0, R).fraction() == 0
        # a constant quotient cancels to a constant
        assert RatFunc(3 * (z - 1), {z - 1: 1}).fraction() == 3
        assert RatFunc.of(a, R).fraction() is None
        assert RatFunc(R.one, {z: 1}).fraction() is None

    def test_rank_of(self, R):
        a = R.var("alpha")
        assert rank_of([[R.one, a], [a, a * a]]) == 1
        assert rank_of([[R.one, a], [a, R.one]]) == 2
        # the elimination steps over a zero column and past a dependent row
        assert rank_of([[R.zero, R.one, a], [R.zero, a, a * a], [R.zero, R.one, R.one]]) == 2
        assert rank_of([[R.zero, R.zero], [R.zero, R.zero]]) == 0

    def test_point_rank_bounds_rank_of(self, R):
        a, t = R.var("alpha"), R.var("t")
        assert point_rank([[R.one, a], [a, a * a]]) == 1
        assert point_rank([[R.one, a], [a, R.one]]) == 2
        assert point_rank([[t, a], [R.zero, R.zero]]) == 1
        # no value at the point: a content denominator divisible by p
        assert point_rank([[a * F(1, _MOD_P), R.one]]) is None


# -- arithmetic by a rational constant -----------------------------------------
#
# RatFunc multiplies, divides and adds by a constant without lifting it; the
# references below are the general route: both operands lifted, numerators
# multiplied or added over the merged factors, a quotient through inverse().


def _lift(v):
    return v if isinstance(v, RatFunc) else RatFunc.of(v, _XYE)


def _general_mul(a, b):
    a, b = _lift(a), _lift(b)
    if a.is_zero or b.is_zero:
        return RatFunc(_XYE.zero)
    fac = dict(a._fac)
    for f, k in b._fac.items():
        fac[f] = fac.get(f, 0) + k
    return RatFunc(a._num * b._num, fac)


def _general_div(a, c):
    c = _lift(c)
    if c.is_zero:
        raise ZeroDivisionError
    num = _XYE.one
    for f, k in c._fac.items():
        num = num * f ** k
    return _general_mul(a, RatFunc(num, {c._num: 1}))


def _general_add(a, c):
    a, c = _lift(a), _lift(c)
    if a.is_zero:
        return c
    if c.is_zero:
        return a
    if a._fac == c._fac:
        return RatFunc(a._num + c._num, a._fac)
    (n1, n2), fac = _over_lcm((a, c))
    return RatFunc(n1 + n2, fac)


def _same(got, want):
    assert got._num._t == want._num._t
    assert got._num._c == want._num._c
    assert list(got._fac.items()) == list(want._fac.items())


def _unreduced(terms, den):
    """The coefficient of e1 in (n + e1 D (n + 1)) / D, D the product of
    the factors, as coeffs_in gives it: D (n + 1) / D, not cancelled."""
    n = MultiPoly.from_fraction_terms(
        _XYE, {(a, b, 0, d): c for (a, b, _, d), c in terms.items()})
    D = _XYE.one
    for f, m in den.items():
        D = D * f ** m
    return RatFunc(n + _XYE.var("e1") * D * (n + 1), den).coeffs_in("e1").get(1)


def _substituted(terms, value):
    """A value whose factor is a composite power, (value's numerator)^2 as
    one factor, as subs builds it; None where the factor vanishes."""
    e1 = _XYE.var("e1")
    try:
        return RatFunc(MultiPoly.from_fraction_terms(_XYE, terms),
                       {e1: 2, e1 + _x: 1}).subs({"e1": value})
    except ZeroDivisionError:
        return None


_operands = st.one_of(
    _xy_values,
    st.builds(_unreduced, _terms,
              st.dictionaries(_den_factors, st.integers(1, 2), min_size=1, max_size=2)
              ).filter(lambda v: v is not None),
    st.builds(_substituted, _terms, _xy_values).filter(lambda v: v is not None))
_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_constants = st.one_of(
    st.integers(-5, 5),
    _fracs,
    st.builds(lambda c: RatFunc.of(c, _XYE), _fracs),
    # a constant that cancellation leaves: c (x - 1) / (x - 1)
    st.builds(lambda c: RatFunc((_x - 1) * c, {_x - 1: 1}), _fracs))


class TestScalarRoute:
    @settings(max_examples=80)
    @given(a=_operands, c=_constants)
    def test_matches_the_general_route(self, a, c):
        _same(a * c, _general_mul(a, c))
        _same(c * a, _general_mul(c, a))
        _same(a + c, _general_add(a, c))
        if _lift(c).is_zero:
            with pytest.raises(ZeroDivisionError):
                a / c
        else:
            _same(a / c, _general_div(a, c))

    @given(a=_operands)
    def test_division_by_zero_raises(self, a):
        for zero in (0, F(0), RatFunc.of(0, _XYE)):
            with pytest.raises(ZeroDivisionError):
                a / zero

    def test_constant_of_another_ring_is_refused(self):
        other = RatFunc.of(3, Ring(("x",)))
        for op in (lambda v: v * other, lambda v: v / other, lambda v: v + other):
            with pytest.raises(UsageError):
                op(RatFunc(_x))
