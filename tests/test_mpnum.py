"""Numeric lane: the exact operators evaluated into the mpmath operator type,
the two esym routes and the divisor's reused derivative table."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from heunfactor import _mpnum
from heunfactor._mpnum import DiffOpM, FactorBasis, RatM, to_mpc
from heunfactor.exactalg import RatFunc, Ring, poly_eval
from heunfactor.factorize import (_residue_atom_factor, _z0_series, random_profile_instance,
                                  solve_apparent_p)
from heunfactor.ghg import ghg_operator_esym

_rats = st.fractions(min_value=-7, max_value=7, max_denominator=6)
_profiles = st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1)])
Z_POINTS = (mp.mpc("0.3", "0.7"), mp.mpc("-1.9", "0.2"), mp.mpc("4.1", "-2.6"))


def _value(r: RatM, z):
    den = mp.mpc(1)
    for root, k in zip(r.basis.roots, r.vec):
        den *= (z - root) ** k
    return poly_eval(r.num, z) / den


def _operators(gamma, delta, sing, prod_ab):
    """L~ with residue atoms and L_GHG with esym atoms, as the numeric lane
    builds them."""
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    ring = Lt.ring
    L = ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma,
                          [ring.var(f"e{j}") for j in range(1, Lt.N + 1)], ring)
    return Lt, L


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
    Lt, L = _operators(gamma, delta, sing, prod_ab)
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


def _check_routes_agree(gamma, delta, sing, prod_ab):
    """The series esym values equal the affine-sampling ones to 1e-70
    relative, both divide with defect below 1e-60; returns the series."""
    Lt, L = _operators(gamma, delta, sing, prod_ab)
    op = Lt.operator()
    with mp.workprec(300):
        pv = solve_apparent_p(gamma, delta, sing, prod_ab, seed=0)
        series = _z0_series(Lt, op, pv)
        assert series is not None
        es, run = _mpnum.solve_esym_numeric(L, op, [0, 1] + [t for t, _ in sing], pv, series)
        sampled = _mpnum.esym_by_sampling(run, Lt.N, Lt.M)
        assert len(es) == len(sampled) == Lt.N
        for x, y in zip(es, sampled):
            assert abs(x - y) <= mp.mpf(10) ** -70 * abs(y)
        for values in (es, sampled):
            assert _mpnum.defect_of_remainder(run(values)) < mp.mpf(10) ** -60
    return series


@pytest.mark.parametrize("profile", [(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1), (1, 2),
                                     (2, 2), (3, 1), (1, 3), (1, 1, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_series_and_sampling_esym_agree(profile):
    _check_routes_agree(*random_profile_instance(profile, seed=11))


def test_terminating_exponent_zero_series_takes_exponent_one_minus_gamma():
    # beta = -1 ends the exponent-0 series; 1 - gamma = 2/7 carries the values
    gamma, alpha, beta, m = F(5, 7), F(1, 3), F(-1), 3
    _, shift = _check_routes_agree(gamma, alpha + beta - gamma + m + 1, [(F(5, 2), m)],
                                   alpha * beta)
    with mp.workprec(300):
        assert shift == to_mpc(1 - gamma)


def _same(a: DiffOpM, b: DiffOpM) -> bool:
    return [(c.vec, c.num) for c in a.coeffs] == [(c.vec, c.num) for c in b.coeffs]


def test_a_shared_divisor_divides_like_fresh_copies():
    gamma, delta, sing, prod_ab = random_profile_instance((2, 1), seed=4)
    Lt, L = _operators(gamma, delta, sing, prod_ab)
    roots = [0, 1] + [t for t, _ in sing]
    p_assign = {"p1": to_mpc(F(3, 2)), "p2": mp.mpc(-1, 2)}

    def at(basis, op, assign):
        return DiffOpM(basis, [RatM.from_exact(basis, c, assign) for c in op.coeffs])

    with mp.workprec(300):
        basis = FactorBasis(roots)
        shared = at(basis, Lt.operator(), p_assign)
        for es in ((1, 2, 3), (F(-1, 2), 5, F(7, 3))):
            e_assign = {f"e{j}": to_mpc(e) for j, e in enumerate(es, 1)}
            got = at(basis, L, e_assign).right_divide_monic(shared)
            fresh = FactorBasis(roots)
            want = at(fresh, L, e_assign).right_divide_monic(at(fresh, Lt.operator(), p_assign))
            assert all(_same(g, w) for g, w in zip(got, want))
