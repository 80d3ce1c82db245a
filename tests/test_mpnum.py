"""Numeric lane: the fixed-point polynomial values against eval_num, the
exact operators evaluated into the fixed-point operator type, L_GHG from
its th-table against the evaluated exact one, the remainder against the
exact one, the cleared-form remainder against the Leibniz one, the esym
values from the remainder's rows against the exact solve's, the divisor's
reused derivative table, the step and row solves, Newton's reach, and the
verdicts over a wide dynamic range."""

import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from heunfactor import _mpnum
from heunfactor._mpnum import DiffOpM, FactorBasis, GaussPoint, RatM, to_mpc
from heunfactor.exactalg import MultiPoly, RatFunc, Ring, poly_eval, poly_trim
from heunfactor.factorize import (_division_work, _residue_atom_factor, apparency_system,
                                  random_profile_instance, solve_apparent_p, solve_esym,
                                  verify_factorization, verify_factorization_numeric)
from heunfactor.ghg import _theta_table, ghg_operator_esym

from conftest import EDGES

_rats = st.fractions(min_value=-7, max_value=7, max_denominator=6)
_profiles = st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1)])
Z_POINTS = (mp.mpc("0.3", "0.7"), mp.mpc("-1.9", "0.2"), mp.mpc("4.1", "-2.6"))


def _value(r: RatM, z):
    W = r.basis.bits
    num = [mp.mpc(mp.ldexp(x, -W), mp.ldexp(y, -W))
           for x, y in zip_longest(r.re, r.im, fillvalue=0)]
    den = mp.mpc(1)
    for root, k in zip(r.basis.exact, r.vec):
        den *= (z - to_mpc(root)) ** k
    return poly_eval(num, z) / den


def _at(basis, op, assign):
    point = GaussPoint(assign, basis.bits)
    return DiffOpM(basis, [RatM.from_exact(basis, c, point) for c in op.coeffs])


def _ghg_atoms(Lt):
    """The exact L_GHG of L~'s data with the e-atoms as its esym values."""
    ring = Lt.ring
    return ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma,
                             [ring.var(f"e{j}") for j in range(1, Lt.N + 1)], ring)


def _operators(gamma, delta, sing, prod_ab):
    """L~ with residue atoms and L_GHG with esym atoms."""
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    return Lt, _ghg_atoms(Lt)


@st.composite
def _instances(draw):
    profile = draw(_profiles)
    ts = draw(st.lists(_rats.filter(lambda t: t not in (0, 1)), min_size=len(profile),
                       max_size=len(profile), unique=True))
    gamma, delta, prod_ab = draw(_rats), draw(_rats), draw(_rats)
    ps = draw(st.lists(_rats, min_size=len(profile), max_size=len(profile)))
    es = draw(st.lists(_rats, min_size=sum(profile), max_size=sum(profile)))
    return gamma, delta, list(zip(ts, profile)), prod_ab, ps, es


def _random_mpc(rng, scale):
    """A complex number with full 300-bit parts, each in [-scale, scale]."""
    return mp.mpc(*(scale * (2 * mp.mpf(rng.getrandbits(300)) / 2 ** 300 - 1) for _ in "ri"))


@pytest.mark.parametrize("profile", [(4,), (5,), (2, 2), (3, 1), (1, 3), (1, 1, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_fixed_point_values_match_eval_num(profile):
    # the apparency system and its Jacobian, as Newton evaluates them, at
    # random points with |p| up to 2e5: within a few 2^-W of the sum of the
    # absolute terms (each |p| floored at 1), against eval_num at 1000 bits;
    # the same terms in another dict order give the same ints
    system = apparency_system(_residue_atom_factor(*random_profile_instance(profile, seed=11)))
    names = [f"p{k}" for k in range(1, len(profile) + 1)]
    polys = system + [P.derivative(n) for P in system for n in names]
    rng = random.Random(str(profile))
    with mp.workprec(300):
        W = mp.prec + _mpnum.GUARD_BITS
        for scale in (1, 1000, 2 * 10 ** 5):
            assign = {n: _random_mpc(rng, scale) for n in names}
            point = GaussPoint(assign, W)
            for P in polys:
                got = point.value(P)
                terms = list(P.terms())
                for order in (terms, terms[::-1]):
                    assert point.value(MultiPoly.from_fraction_terms(P.ring, dict(order))) == got
                with mp.workprec(1000):
                    size = sum(abs(c) * mp.fprod(max(1, abs(assign[n])) ** e[P.ring.index[n]]
                                                 for n in names) for e, c in terms)
                    err = abs(mp.mpc(*(mp.ldexp(x, -W) for x in got))
                              - P.eval_num(assign, num=mp.mpc))
                    assert err <= 4 * mp.ldexp(size, -W)


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
            point = GaussPoint(assign, basis.bits)
            for c in op.coeffs:
                r = RatM.from_exact(basis, c, point)
                for z in Z_POINTS:
                    want = c.eval_num({**assign, "z": z}, num=mp.mpc)
                    assert abs(_value(r, z) - want) <= mp.mpf(10) ** -70 * abs(want)


@settings(max_examples=25, deadline=None)
@given(inst=_instances())
def test_fixed_point_remainder_equals_the_exact_one(inst):
    # rational residues and esym values, so the exact division is the reference
    gamma, delta, sing, prod_ab, ps, es = inst
    Lt, L = _operators(gamma, delta, sing, prod_ab)
    op = Lt.operator()
    exact = _division_work(Lt).w_coeffs
    assign = {**{f"p{k}": to_mpc(v) for k, v in enumerate(ps, 1)},
              **{f"e{k}": to_mpc(v) for k, v in enumerate(es, 1)}}
    with mp.workprec(300):
        basis = FactorBasis([0, 1] + [t for t, _ in sing])
        _, rem = _at(basis, L, assign).right_divide_monic(_at(basis, op, assign))
        assert rem.order < len(exact)
        for z in Z_POINTS:
            at_z = {**assign, "z": z}
            scale = max(abs(c.eval_num(at_z, num=mp.mpc)) for c in L.coeffs)
            for j, w in enumerate(exact):
                got = _value(rem.coeffs[j], z) if j <= rem.order else 0
                assert abs(got - w.eval_num(at_z, num=mp.mpc)) <= mp.mpf(10) ** -70 * scale


def _assert_table_is_exact(Lt, es, bits=300):
    """L_GHG's pairs (A_j, B_j) from the th-table at the esym values es
    give, bit for bit, the numerators z^(j-1) (A_j z - B_j) over z^(N+1)
    (z - 1) of the exact e-atom operator evaluated at them, whose top
    coefficient is 1; returns the pairs."""
    L = _ghg_atoms(Lt)
    table = _theta_table(*(v.fraction() for v in (Lt.sum_ab, Lt.prod_ab, Lt.gamma)), Lt.N)
    with mp.workprec(bits):
        basis = FactorBasis([0, 1] + [t.fraction() for t, _ in Lt.sing])
        W = basis.bits
        point = GaussPoint({f"e{k}": to_mpc(v) for k, v in enumerate(es, 1)}, W)
        pairs = _mpnum.theta_at(W, *_mpnum._theta_ints(table, Lt.N), es)
        want = [RatM.from_exact(basis, c, point) for c in L.coeffs]
        assert len(want) == len(pairs) + 1 == Lt.N + 3
        assert (want[-1].re, want[-1].im, set(want[-1].vec)) == ([1 << W], [0], {0})
        over = (Lt.N + 1, 1) + (0,) * Lt.M
        for j, ((A, B), c, r) in enumerate(zip(pairs, L.coeffs, want)):
            got = tuple(poly_trim([0] * (j - 1) + [-b, a] if j else [a]) for a, b in zip(A, B))
            assert got == (r.re, r.im)
            assert r.vec == ((0,) * len(over) if c.is_zero else over)
    return pairs


@settings(max_examples=40, deadline=None)
@given(inst=_instances())
def test_theta_table_is_the_exact_operator_at_rational_esym_values(inst):
    gamma, delta, sing, prod_ab, _, es = inst
    _assert_table_is_exact(_residue_atom_factor(gamma, delta, sing, prod_ab), es)


def _row_esym(Lt, point) -> list:
    """The numeric verdict's esym values at the residues ``point``, as mpc."""
    rems = _mpnum.d_remainders(Lt, point)
    return [_mpnum._unfixed(v, point.bits) for v in _mpnum.solve_esym_numeric(rems)]


def _solved_esym(inst, bits):
    """Residues by Newton and esym values as the numeric verdict finds them."""
    Lt = _residue_atom_factor(*inst)
    with mp.workprec(bits):
        pv = solve_apparent_p(*inst, seed=0, bits=bits)
        es = _row_esym(Lt, GaussPoint({f"p{k}": p for k, p in enumerate(pv, 1)},
                                      mp.prec + _mpnum.GUARD_BITS))
    return Lt, es


def _pinned(profile, beta):
    """gamma 5/7, alpha 1/3 and a pinned beta, which ends the exponent-0 series."""
    gamma, alpha, N = F(5, 7), F(1, 3), sum(profile)
    sing = list(zip((F(5, 2), F(-3, 4), F(3)), profile))
    return gamma, alpha + beta - gamma + N + 1, sing, alpha * beta


@pytest.mark.parametrize("inst", [
    *(random_profile_instance(p, seed=11) for p in [(4,), (5,), (2, 2), (3, 1), (1, 3), (1, 1, 1)]),
    _pinned((5,), F(-1)), _pinned((1, 1, 1), F(-2)),
], ids=["4", "5", "22", "31", "13", "111", "5-pinned", "111-pinned"])
def test_theta_table_is_the_exact_operator_at_solved_esym_values(inst):
    _assert_table_is_exact(*_solved_esym(inst, 300))


def test_theta_table_zero_coefficient_and_large_t():
    # alpha = 0: alpha beta = 0 makes the D^0 coefficient vanish identically
    Lt, es = _solved_esym(_apparent_m3(F(5, 2), F(0), F(-2, 7)), 300)
    assert _assert_table_is_exact(Lt, es)[0] == ((0, 0), (0, 0))
    # t = 10^5, alpha = 200/3: operator coefficients near t^k, at 400 bits
    _assert_table_is_exact(*_solved_esym(_apparent_m3(F(10 ** 5), F(200, 3), F(3, 5)), 400), 400)
    # gamma = 2^-32 puts B_1 = -1 + gamma sigma_1 at sigma_1 = 1/3 (2^31 times
    # an odd int at 300 bits) on a tie, which rounds -B_1 up, not -(B_1 up)
    _assert_table_is_exact(_residue_atom_factor(F(1, 2 ** 32), F(7, 3), [(F(5, 2), 1)],
                                                 F(1, 2)), [F(1, 3)])


def test_repeated_and_composite_denominator_factors_split_over_the_basis():
    ring = Ring(("z", "p1"))
    z, p1 = ring.var("z"), ring.var("p1")
    f = RatFunc(p1 * z + 3, {2 * z - 5: 2, z ** 3 - z ** 2: 1})
    with mp.workprec(300):
        basis = FactorBasis([0, 1, F(5, 2)])
        assign = {"p1": mp.mpc(2, -1)}
        point = GaussPoint(assign, basis.bits)
        r = RatM.from_exact(basis, f, point)
        assert r.vec == (2, 1, 2)
        for z0 in Z_POINTS:
            want = f.eval_num({**assign, "z": z0}, num=mp.mpc)
            assert abs(_value(r, z0) - want) <= mp.mpf(10) ** -70 * abs(want)
        with pytest.raises(ValueError, match="does not split"):
            RatM.from_exact(basis, RatFunc(p1, {z - 3: 1}), point)


def _check_routes_agree(gamma, delta, sing, prod_ab):
    """The esym values from the remainder's rows equal the exact solve's
    values at the same residues to 1e-70 relative to the largest (an edge
    can have sigma_N = 0), and both divide with defect below 1e-60."""
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    with mp.workprec(300):
        pv = solve_apparent_p(gamma, delta, sing, prod_ab, seed=0)
        assign = {f"p{k}": to_mpc(p) for k, p in enumerate(pv, 1)}
        point = GaussPoint(assign, mp.prec + _mpnum.GUARD_BITS)
        es = _row_esym(Lt, point)
        exact = [v.eval_num(assign, num=mp.mpc) for v in solve_esym(Lt, deep=True)[0].values]
        assert len(es) == len(exact) == Lt.N
        size = max(abs(y) for y in exact)
        assert all(abs(x - y) <= mp.mpf(10) ** -70 * size for x, y in zip(es, exact))
        rems = _mpnum.d_remainders(Lt, point)
        for values in (es, exact):
            assert _mpnum.remainder_defect(rems, values) < mp.mpf(10) ** -60


@pytest.mark.parametrize("profile", [(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1), (1, 2),
                                     (2, 2), (3, 1), (1, 3), (1, 1, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_series_and_sampling_esym_agree(profile):
    # row values against the exact solve's (see _check_routes_agree)
    _check_routes_agree(*random_profile_instance(profile, seed=11))


@pytest.mark.parametrize("gamma, alpha, beta, m", EDGES)
def test_row_esym_agrees_with_the_exact_solve_on_the_edges(gamma, alpha, beta, m):
    _check_routes_agree(F(gamma), F(alpha + beta - gamma + m + 1), [(F(5, 2), m)],
                        F(alpha * beta))


@pytest.mark.parametrize(("profile", "beta"), [((5,), F(-1)), ((1, 1, 1), F(-2))],
                         ids=["5-pinned", "111-pinned"])
def test_row_esym_agrees_with_the_exact_solve_at_pinned_beta(profile, beta):
    _check_routes_agree(*_pinned(profile, beta))


def test_terminating_exponent_zero_series_takes_exponent_one_minus_gamma():
    # beta = -1 ends the exponent-0 series of L~ at z = 0
    gamma, alpha, beta, m = F(5, 7), F(1, 3), F(-1), 3
    _check_routes_agree(gamma, alpha + beta - gamma + m + 1, [(F(5, 2), m)], alpha * beta)


def _same(a: DiffOpM, b: DiffOpM) -> bool:
    return ([(c.vec, c.re, c.im) for c in a.coeffs]
            == [(c.vec, c.re, c.im) for c in b.coeffs])


def test_a_shared_divisor_divides_like_fresh_copies():
    gamma, delta, sing, prod_ab = random_profile_instance((2, 1), seed=4)
    Lt, L = _operators(gamma, delta, sing, prod_ab)
    roots = [0, 1] + [t for t, _ in sing]
    p_assign = {"p1": to_mpc(F(3, 2)), "p2": mp.mpc(-1, 2)}
    with mp.workprec(300):
        basis = FactorBasis(roots)
        shared = _at(basis, Lt.operator(), p_assign)
        for es in ((1, 2, 3), (F(-1, 2), 5, F(7, 3))):
            e_assign = {f"e{j}": to_mpc(e) for j, e in enumerate(es, 1)}
            got = _at(basis, L, e_assign).right_divide_monic(shared)
            fresh = FactorBasis(roots)
            want = _at(fresh, L, e_assign).right_divide_monic(_at(fresh, Lt.operator(),
                                                                  p_assign))
            assert all(_same(g, w) for g, w in zip(got, want))


def _apparent_m3(t, alpha, beta):
    """gamma = 5/7 and one extra singular point t of multiplicity 3."""
    gamma, m = F(5, 7), 3
    return gamma, alpha + beta - gamma + m + 1, [(t, m)], alpha * beta


def _assert_cleared_remainder_is_leibniz(Lt, p_vals, es, bits=300) -> list:
    """`cleared_remainder`'s r1, r0 over z^N Q^(N+1) equal the remainder of
    `DiffOpM.right_divide_monic` of the exact e-atom L_GHG and L~ evaluated
    at es and p_vals, lifted to that denominator, within 2^8 H^(N+1)
    max(1, |C|) units of 2^-W: a unit per rounding, amplified by at most
    N + 1 of L~'s cleared coefficients (H the largest |Q|, |P1|, |S|
    coefficient, at least 1) and one of L_GHG's (C the largest).  Returns
    the vecs of the Leibniz r1 and r0."""
    roots, Q, P1, S = Lt.cleared
    with mp.workprec(bits):
        basis = FactorBasis(roots)
        W = basis.bits
        assign = {f"p{k}": to_mpc(v) for k, v in enumerate(p_vals, 1)}
        point = GaussPoint(assign, W)
        r1, r0 = _mpnum.cleared_remainder(Lt, point, es)
        L = _at(basis, _ghg_atoms(Lt), {f"e{k}": to_mpc(v) for k, v in enumerate(es, 1)})
        _, rem = L.right_divide_monic(_at(basis, Lt.operator(), assign))
        H = max([mp.mpf(1)] + [abs(to_mpc(c)) for c in Q + P1]
                + [abs(_mpnum._unfixed(point.value(s), W)) for s in S])
        C = max(1, mp.ldexp(max(abs(x) for c in L.coeffs for x in c.re + c.im), -W))
        bound = 2 ** 8 * H ** (Lt.N + 1) * C
        over = (2 * Lt.N + 1,) + (Lt.N + 1,) * (Lt.M + 1)   # z^N Q^(N+1)
        vecs = []
        for k, got in ((1, r1), (0, r0)):
            want = rem.coeffs[k] if k < len(rem.coeffs) else RatM.zero(basis)
            assert all(v <= w for v, w in zip(want.vec, over))
            vecs.append(want.vec)
            for x, y in zip(got, want._lift(over)):
                assert max(abs(a - b) for a, b in zip_longest(x, y, fillvalue=0)) <= bound
    return vecs


@settings(max_examples=25, deadline=None)
@given(inst=_instances())
def test_cleared_remainder_is_the_leibniz_remainder(inst):
    gamma, delta, sing, prod_ab, ps, es = inst
    Lt = _residue_atom_factor(gamma, delta, sing, prod_ab)
    for shift in (0, F(1, 7)):
        _assert_cleared_remainder_is_leibniz(Lt, [ps[0] + shift] + ps[1:], es)


@pytest.mark.parametrize(("inst", "bits"), [
    *((random_profile_instance(p, seed=11), 300)
      for p in [(4,), (5,), (2, 2), (3, 1), (1, 3), (1, 1, 1)]),
    (_pinned((5,), F(-1)), 300), (_pinned((1, 1, 1), F(-2)), 300),
    ((F(0), F(1, 3) + F(3, 5) + 4, [(F(5, 2), 3)], F(1, 5)), 300),
    (_apparent_m3(F(5, 2), F(0), F(-2, 7)), 300),
    (_apparent_m3(F(5, 2), F(1, 3), F(-1)), 300),
    (_apparent_m3(F(10 ** 5), F(200, 3), F(3, 5)), 400),
    (_pinned((12,), F(3, 5)), 300),
    (_pinned((2,), F(-55, 21)), 300),
], ids=["4", "5", "22", "31", "13", "111", "5-pinned", "111-pinned", "gamma-0", "alpha-0",
        "beta-minus-1", "t-1e5", "m12", "delta-0"])
def test_cleared_remainder_is_the_leibniz_remainder_at_solved_values(inst, bits):
    # apparent and at p + 1/7.  The Leibniz division reaches z^N Q^(N+1)
    # itself, except in r1 for gamma = 0 (one z fewer, a shift) and for
    # delta = 0 (one z - 1 fewer: r1 is the Leibniz r1 times z - 1)
    gamma, delta = inst[:2]
    Lt, es = _solved_esym(inst, bits)
    with mp.workprec(bits):
        pv = solve_apparent_p(*inst, seed=0, bits=bits)
        over = (2 * Lt.N + 1,) + (Lt.N + 1,) * (Lt.M + 1)
        r1_vec = (over[0] - (gamma == 0), over[1] - (delta == 0)) + over[2:]
        for p in (pv, [pv[0] + to_mpc(F(1, 7))] + pv[1:]):
            assert _assert_cleared_remainder_is_leibniz(Lt, p, es, bits) == [r1_vec, over]


def test_step_solve_matches_lu_solve_and_rejects_a_singular_matrix():
    rng = random.Random(7)
    with mp.workprec(300):
        W = mp.prec + _mpnum.GUARD_BITS
        for trial in range(60):
            # one scale s from 1e-6 to 1e6 per system: fixed point rounds each
            # product and quotient to 2^-W absolutely, 2^-W / s relative to
            # the entries; the reference solves the same rounded entries
            n, scale = trial % 3 + 1, mp.mpf(10) ** rng.randint(-6, 6)
            A = [[_mpnum._fixed(_random_mpc(rng, scale), W) for _ in range(n)] for _ in range(n)]
            b = [_mpnum._fixed(_random_mpc(rng, scale), W) for _ in range(n)]
            got = _mpnum._solve(A, b, W)
            with mp.workprec(W + 64):
                want = mp.lu_solve(mp.matrix([[_mpnum._unfixed(a, W) for a in r] for r in A]),
                                   mp.matrix([_mpnum._unfixed(v, W) for v in b]))
                bound = mp.ldexp(max(1, max(abs(y) for y in want)) / min(1, scale), 20 - W)
                assert all(abs(_mpnum._unfixed(x, W) - y) <= bound for x, y in zip(got, want))
        singular = ([[mp.mpc(1, 2), mp.mpc(2, 4)], [mp.mpc(3), mp.mpc(6)]], [mp.mpc(1), mp.mpc(2)])
        with pytest.raises(ZeroDivisionError):
            _mpnum._solve([[_mpnum._fixed(a, W) for a in r] for r in singular[0]],
                          [_mpnum._fixed(v, W) for v in singular[1]], W)


def test_row_solve_pivots_over_a_tall_matrix():
    # a consistent 7 x 3 system in Gaussian fixed point, as the esym rows
    # give it: rows of very different sizes, unscaled, a zero row and a
    # row of rounding-noise size.  The pivots come from the large rows; a
    # quotient rounds to 2^-W absolutely, so x errs by a few 2^-W times the
    # ratio of the largest pivot row to the smallest (10^30 here)
    rng = random.Random(11)
    with mp.workprec(300):
        W = mp.prec + _mpnum.GUARD_BITS
        x = [_random_mpc(rng, 5) for _ in range(3)]
        A = [[_random_mpc(rng, mp.mpf(10) ** e) for _ in range(3)]
             for e in (30, 0, -80, 12, 3, -5)]
        A.insert(2, [mp.mpc(0)] * 3)
        b = [mp.fsum(a * v for a, v in zip(r, x)) for r in A]
        got = _mpnum._solve([[_mpnum._fixed(a, W) for a in r] for r in A],
                            [_mpnum._fixed(v, W) for v in b], W)
        bound = mp.ldexp(mp.mpf(10) ** 30, 8 - W)
        assert all(abs(_mpnum._unfixed(g, W) - v) <= bound for g, v in zip(got, x))
        dependent = [[a, 2 * a, c] for a, _, c in A]
        with pytest.raises(ZeroDivisionError):
            _mpnum._solve([[_mpnum._fixed(a, W) for a in r] for r in dependent],
                          [_mpnum._fixed(v, W) for v in b], W)


@pytest.mark.parametrize("profile", [(4,), (2, 2), (1, 1, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_one_theta_table_in_int_forms_per_numeric_verdict(profile, monkeypatch):
    # the row solve and the verdict share the forms d_remainders computes
    inst = random_profile_instance(profile, seed=5)
    real, calls = _mpnum._theta_ints, []
    monkeypatch.setattr(_mpnum, "_theta_ints", lambda *a: calls.append(a) or real(*a))
    with mp.workprec(300):
        pv = solve_apparent_p(*inst, seed=0, bits=300)
        for p in (pv, [pv[0] + 1] + pv[1:]):
            calls.clear()
            verify_factorization_numeric(*inst, p_vals=p, bits=300)
            assert len(calls) == 1


@pytest.mark.parametrize("profile", [(4,), (2, 2), (1, 1, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_newton_stays_in_fixed_point_and_lands_on_the_root(profile, monkeypatch):
    Lt = _residue_atom_factor(*random_profile_instance(profile, seed=5))
    system, names = apparency_system(Lt), [f"p{k}" for k in range(1, len(profile) + 1)]
    real, unfixed = _mpnum._unfixed, []
    monkeypatch.setattr(_mpnum, "_unfixed", lambda v, W: unfixed.append(v) or real(v, W))
    with mp.workprec(300):
        p = _mpnum.newton_apparency(system, names, seed=0)
    # only the returned root leaves fixed point: no iterate goes through mpc
    assert len(unfixed) == len(names)
    with mp.workprec(400):
        if len(names) == 1:
            cs = system[0].coeffs_in("p1")
            poly = [to_mpc(cs[k].const_value()) if k in cs else 0
                    for k in range(max(cs), -1, -1)]
            root = min(mp.polyroots(poly, maxsteps=200, extraprec=400),
                       key=lambda r: abs(r - p[0]))
            assert abs(p[0] - root) <= mp.mpf(10) ** -90 * abs(root)
        else:
            at = dict(zip(names, p))
            F = [P.eval_num(at, to_mpc) for P in system]
            J = [[P.derivative(n).eval_num(at, to_mpc) for n in names] for P in system]
            step = mp.lu_solve(mp.matrix(J), mp.matrix(F))
            assert max(abs(x) for x in step) <= mp.mpf(10) ** -85 * max(abs(x) for x in p)


@pytest.mark.parametrize(("t", "alpha", "beta", "root"), [
    # the roots lie at -998.7 ... -3572.6, out of reach of 220 unit steps
    (F(1000), F(1, 3), F(3, 5), "-998.72665651881940958"),
    # coefficients near 1e37: no residual falls below 1e-70 at 300 bits
    (F(1, 10**6), F(1, 5000), F(200, 3), "1.7500293425969091052e-8"),
], ids=["far", "large-scale"])
def test_newton_reaches_far_and_large_scale_residues(t, alpha, beta, root):
    with mp.workprec(300):
        (p,) = solve_apparent_p(*_apparent_m3(t, alpha, beta), seed=0)
        assert mp.nstr(p.real, 20) == root


@pytest.mark.parametrize(("alpha", "beta"), [(F(1, 5000), F(3, 5)), (F(200, 3), F(3, 5)),
                                             (F(1, 5000), F(200, 3))],
                         ids=["small", "large", "small-large"])
@pytest.mark.parametrize("t", [F(1, 10**6), F(1, 1000), F(1000)], ids=str)
def test_verdicts_over_a_wide_dynamic_range(t, alpha, beta):
    # fixed point keeps fewer significant bits of small values: the apparent
    # instance passes and its p + 1/7 control fails at 300 and 1000 bits, as
    # the exact lane certifies
    inst = _apparent_m3(t, alpha, beta)
    assert verify_factorization(_residue_atom_factor(*inst), deep=True).passed
    for bits in (300, 1000):
        with mp.workprec(bits):
            (p,) = solve_apparent_p(*inst, seed=0, bits=bits)
            rep = verify_factorization_numeric(*inst, p_vals=[p], bits=bits)
            assert rep.passed, (bits, rep.defect_max)
            control = verify_factorization_numeric(*inst, p_vals=[p + to_mpc(F(1, 7))],
                                                   bits=bits)
            assert not control.passed and float(control.defect_max) > 1e-10


@pytest.mark.parametrize(("alpha", "bits"), [(F(1, 3), 300), (F(200, 3), 400)],
                         ids=["1/3", "200/3"])
def test_verdicts_at_large_t(alpha, bits):
    # t = 10^5: the residue lies near -10^5 (alpha 1/3) or -1.8e5 (alpha
    # 200/3) and the system's terms reach 1e30; Newton's root matches a
    # 400-bit solve to 1e-90.  The gate is absolute, and the operators'
    # coefficients grow like t^k, so alpha 200/3 is checked at 400 bits.
    inst = _apparent_m3(F(10 ** 5), alpha, F(3, 5))
    assert verify_factorization(_residue_atom_factor(*inst), deep=True).passed
    with mp.workprec(400):
        (want,) = solve_apparent_p(*inst, seed=0, bits=400)
    with mp.workprec(bits):
        (p,) = solve_apparent_p(*inst, seed=0, bits=bits)
        assert abs(p - want) <= mp.mpf(10) ** -90 * abs(want)
        rep = verify_factorization_numeric(*inst, p_vals=[p], bits=bits)
        assert rep.passed, rep.defect_max
        control = verify_factorization_numeric(*inst, p_vals=[p + to_mpc(F(1, 7))], bits=bits)
        assert not control.passed and float(control.defect_max) > 1e-10
