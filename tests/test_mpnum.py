"""Numeric lane: the exact operators evaluated into the mpmath operator type."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from heunfactor._mpnum import FactorBasis, RatM
from heunfactor.exactalg import RatFunc, Ring, poly_eval
from heunfactor.factorize import _residue_atom_factor
from heunfactor.ghg import ghg_operator_esym

_rats = st.fractions(min_value=-7, max_value=7, max_denominator=6)
_profiles = st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1)])
Z_POINTS = (mp.mpc("0.3", "0.7"), mp.mpc("-1.9", "0.2"), mp.mpc("4.1", "-2.6"))


def _value(r: RatM, z):
    den = mp.mpc(1)
    for root, k in zip(r.basis.roots, r.vec):
        den *= (z - root) ** k
    return poly_eval(r.num, z) / den


@st.composite
def _instances(draw):
    profile = draw(_profiles)
    ts = draw(st.lists(_rats.filter(lambda t: t not in (0, 1)), min_size=len(profile),
                       max_size=len(profile), unique=True))
    gamma, delta, prod_ab = draw(_rats), draw(_rats), draw(_rats)
    ps = draw(st.lists(_rats, min_size=len(profile), max_size=len(profile)))
    es = draw(st.lists(_rats, min_size=sum(profile), max_size=sum(profile)))
    return gamma, delta, list(zip(ts, profile)), prod_ab, ps, es


@settings(max_examples=40)
@given(inst=_instances())
def test_converted_coefficients_equal_the_exact_ones(inst):
    gamma, delta, sing, prod_ab, ps, es = inst
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    ring = Lt.ring
    L = ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma,
                          [ring.var(f"e{j}") for j in range(1, Lt.N + 1)], ring)
    with mp.workprec(300):
        basis = FactorBasis([0, 1] + [t for t, _ in sing])
        for op, names, vals in ((Lt.operator(), "p", ps), (L, "e", es)):
            assign = {f"{names}{k}": mp.mpc(v.numerator) / v.denominator
                      for k, v in enumerate(vals, 1)}
            for c in op.coeffs:
                r = RatM.from_exact(basis, c, assign)
                for z in Z_POINTS:
                    want = c.eval_num({**assign, "z": z}, num=mp.mpc)
                    assert abs(_value(r, z) - want) <= mp.mpf(10) ** -70 * abs(want)


def test_repeated_and_composite_denominator_factors_split_over_the_basis():
    ring = Ring(("z", "p1"))
    z, p1 = ring.var("z"), ring.var("p1")
    f = RatFunc(p1 * z + 3, {2 * z - 5: 2, z ** 3 - z ** 2: 1})
    with mp.workprec(300):
        basis = FactorBasis([0, 1, F(5, 2)])
        assign = {"p1": mp.mpc(2, -1)}
        r = RatM.from_exact(basis, f, assign)
        assert r.vec == (2, 1, 2)
        for z0 in Z_POINTS:
            want = f.eval_num({**assign, "z": z0}, num=mp.mpc)
            assert abs(_value(r, z0) - want) <= mp.mpf(10) ** -70 * abs(want)
        with pytest.raises(ValueError, match="does not split"):
            RatM.from_exact(basis, RatFunc(p1, {z - 3: 1}), assign)
