"""Noncommutative operator algebra: Leibniz ordering, division, quasi-functions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from heunfactor.exactalg import MultiPoly, RatFunc, Ring, exact_div
from heunfactor.oredop import DiffOp, DiffOpError, QuasiFunction


@pytest.fixture(scope="module")
def ring():
    return Ring(("z", "a"))


def rand_op(ring, rng, max_order=3):
    z = ring.var("z")
    coeffs = []
    for _ in range(rng.randint(1, max_order + 1)):
        coeffs.append(ring.const(rng.randint(-3, 3)) + z * rng.randint(-2, 2))
    return DiffOp(ring, "z", coeffs)


def test_canonical_commutator(ring):
    D = DiffOp.d(ring, "z")
    Z = DiffOp.mul_by(ring.var("z"), ring, "z")
    assert D * Z == Z * D + DiffOp.identity(ring, "z")


def test_mul_by_zero(ring):
    D = DiffOp.d(ring, "z")
    assert (D * DiffOp.zero_op(ring, "z")).is_zero
    assert (DiffOp.zero_op(ring, "z") * D).is_zero


def test_associativity_random(ring):
    rng = random.Random(11)
    for _ in range(30):
        A, B, C = (rand_op(ring, rng) for _ in range(3))
        assert (A * B) * C == A * (B * C)


def test_addition_commutes(ring):
    rng = random.Random(12)
    for _ in range(10):
        A, B = rand_op(ring, rng), rand_op(ring, rng)
        assert A + B == B + A


class TestRightDivide:
    def test_self_division(self, ring):
        z = ring.var("z")
        L = DiffOp.d(ring, "z", 2) + DiffOp.mul_by(z, ring, "z")
        q, r = L.right_divide(L)
        assert q == DiffOp.identity(ring, "z") and r.is_zero

    def test_division_identity_random(self, ring):
        rng = random.Random(13)
        for _ in range(25):
            L = rand_op(ring, rng, max_order=3)
            Rd = rand_op(ring, rng, max_order=2)
            if Rd.order < 1:
                continue
            Q, rem = L.right_divide(Rd)
            assert Q * Rd + rem == L
            assert rem.order < Rd.order

    def test_generic_division_nonzero_remainder(self):
        # generic order-3 hypergeometric-type operator by a generic Heun
        # operator: remainder of order <= 1, reconstruction exact
        from heunfactor.ghg import GHGParams, ghg_operator
        from heunfactor.heun import HeunParams, heun_operator, base_ring

        R = base_ring()
        g3 = ghg_operator(GHGParams.make([F(1, 2), F(3, 4), F(5, 6)],
                                         [F(7, 8), F(9, 10)], R))
        p = HeunParams.make(alpha=F(1, 2), beta=F(3, 4), gamma=F(7, 8),
                            epsilon=-1, q=F(2, 3), t=F(3))
        H = heun_operator(p)
        Q, rem = g3.right_divide(H)
        assert not rem.is_zero and rem.order <= 1
        assert Q * H + rem == g3

    def test_order_zero_divisor_rejected(self, ring):
        L = DiffOp.d(ring, "z")
        with pytest.raises(DiffOpError):
            L.right_divide(DiffOp.identity(ring, "z"))


def test_maier_product_concrete():
    # left factor composed with the strength-1 operator reproduces the
    # explicit third-order operator at an exact rational apparent instance
    from heunfactor.factorize import lvw_instance, maier_e1, maier_left_factor
    from heunfactor.ghg import GHGParams, ghg_operator
    from heunfactor.heun import heun_operator

    al, be, ga, e1 = F(1, 3), F(2, 5), F(3, 7), F(5, 2)
    p = lvw_instance(al, be, ga, e1)
    R = p.ring
    e1_found = maier_e1(p)
    assert e1_found == RatFunc.of(e1, R)
    L = ghg_operator(GHGParams.make([al, be, e1 + 1], [ga, e1], R))
    left = maier_left_factor(p, e1_found)
    assert left * heun_operator(p) == L
    Q, rem = L.right_divide(heun_operator(p))
    assert rem.is_zero and Q == left


def test_leibniz_against_function_multiplication(ring):
    # composing with multiplication-by-f equals applying to f * poly
    rng = random.Random(14)
    z = ring.var("z")
    for _ in range(15):
        L = rand_op(ring, rng, max_order=2)
        f = RatFunc(ring.const(rng.randint(1, 4)) + z * rng.randint(-3, 3),
                    {z - 1: 1})
        poly = RatFunc.of(z ** rng.randint(0, 3) + rng.randint(-2, 2), ring)
        lhs = (L * DiffOp.mul_by(f, ring, "z")).apply(poly)
        rhs = L.apply(f * poly)
        assert lhs == rhs


_ZT = Ring(("z", "t"))
# coefficients with denominators made of distinct linear factors z - r, one
# of them symbolic, as in the factorization's operators
_lin = st.sampled_from([_ZT.var("z") - r for r in (0, 1, -3, F(5, 2), _ZT.var("t"))])
_ratfuncs = st.builds(
    lambda terms, fac: RatFunc(MultiPoly(_ZT, terms, F(1)), fac),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                    st.integers(-5, 5), max_size=3),
    st.dictionaries(_lin, st.integers(1, 2), max_size=2))


@settings(max_examples=40)
@given(c0=_ratfuncs, c1=_ratfuncs, coeffs=st.lists(_ratfuncs, min_size=3, max_size=5))
def test_right_divide_by_monic_order_two_is_exact_and_reduced(c0, c1, coeffs):
    Lt = DiffOp(_ZT, "z", [c0, c1, _ZT.one])
    L = DiffOp(_ZT, "z", coeffs)
    Q, R = L.right_divide(Lt)
    assert Q * Lt + R == L
    assert R.order < 2
    for c in Q.coeffs + R.coeffs:
        for f in c.den_factors():
            assert exact_div(c.num, f) is None


class TestQuasiFunction:
    def test_derivative_of_power(self, ring):
        a = ring.var("a")
        f = QuasiFunction(ring, "z", a, ring.zero, ring.one)
        df = f.derivative()
        assert df.exponent_a == RatFunc(a)
        assert df.rational_part == RatFunc(a, {ring.var("z"): 1})

    def test_second_derivative_of_square(self, ring):
        f = QuasiFunction(ring, "z", ring.const(2), ring.zero, ring.one)
        out = DiffOp.d(ring, "z", 2).apply_quasi(f)
        assert out.rational_part == RatFunc(ring.const(2), {ring.var("z"): 2})
        assert out.exponent_a == RatFunc.of(2, ring)
        assert out.exponent_b == RatFunc.of(0, ring)

    def test_exponent_must_not_involve_main_var(self, ring):
        from heunfactor.exactalg import UsageError

        with pytest.raises(UsageError):
            QuasiFunction(ring, "z", ring.var("z"), ring.zero, ring.one)

    def test_derivative_matches_rational_case(self, ring):
        # with integer exponents the quasi-derivative agrees with plain
        # rational-function differentiation of z^2 (z-1)^3 R(z)
        z = ring.var("z")
        Rpart = RatFunc(z + 3, {z - 1: 1})
        f = QuasiFunction(ring, "z", ring.const(2), ring.const(3), Rpart)
        df = f.derivative()
        explicit = RatFunc(z ** 2 * (z - 1) ** 3) * Rpart
        dexp = explicit.derivative("z")
        rebuilt = RatFunc(z ** 2 * (z - 1) ** 3) * df.rational_part
        assert rebuilt == dexp


def test_pretty_printer_deterministic(ring):
    z = ring.var("z")
    L = DiffOp(ring, "z", [RatFunc(z + 1, {z: 1}), RatFunc.of(2, ring),
                           RatFunc.of(1, ring)])
    s1 = L.pretty()
    s2 = DiffOp(ring, "z", list(L.coeffs)).pretty()
    assert s1 == s2
    assert "D^2" in s1 and s1.index("D^2") < s1.index("D ")
