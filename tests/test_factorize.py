"""Factorization engine: closed forms, esym solving, exact and numeric
verification, apparency systems, instance families."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from heunfactor import factorize
from heunfactor.cli import cmd_factorize
from heunfactor.exactalg import _MOD_P, RatFunc, Ring, rank_of, solve_linear
from heunfactor.factorize import (
    SUPPORTED_PROFILES,
    ApparentFuchsian,
    DegenerateInstanceError,
    SolutionResidualError,
    UnsupportedProfileError,
    apparency_modulus,
    apparency_system,
    ep2_instance,
    factor_ring,
    lvw_instance,
    maier_e1,
    maier_left_factor,
    random_profile_instance,
    solve_apparent_p,
    solve_esym,
    thm44_e1e2,
    thm44_left_factor,
    verify_factorization,
    verify_factorization_numeric,
)
from heunfactor.heun import HeunParams, frobenius_series, heun_operator
from heunfactor.oredop import DiffOp

from conftest import EDGES, make_rng


def symbolic_m1(m):
    ring = factor_ring(1, m)
    a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                     for n in ("alpha", "beta", "gamma", "t", "q"))
    return ApparentFuchsian.from_heun(a, b, g, m, q, t, ring), ring


class TestMaier:
    def test_concrete_instance(self):
        # gamma chosen to put q = 1 on the apparency quadric
        p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1,
                            q=1, t=2)
        e1 = maier_e1(p)
        assert e1 == RatFunc.of(F(-4, 3), p.ring)

    def test_non_apparent_rejected(self):
        p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1,
                            q=2, t=2)
        with pytest.raises(SolutionResidualError):
            maier_e1(p)

    def test_symbolic_solution_matches_formula(self):
        Lt, ring = symbolic_m1(1)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        es, work = solve_esym(Lt)
        assert es.values[0] == (q - (a + 1) * (b + 1) * t + g) / (1 - t) - 1

    def test_symbolic_verification_and_quotient(self):
        Lt, ring = symbolic_m1(1)
        es, work = solve_esym(Lt)
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed and rep.defect_max == "0"
        z = RatFunc.of(ring.var("z"), ring)
        one = RatFunc.of(1, ring)
        t = RatFunc.of(ring.var("t"), ring)
        disp = DiffOp(ring, "z",
                      [(es.values[0] + 1) / z + one / (z - 1) + one / (z - t),
                       one])
        Q = DiffOp(ring, "z",
                   [c.subs({"e1": es.values[0]}) for c in work.quotient.coeffs])
        assert Q == disp

    def test_verify_reuses_the_division_of_solve_esym(self, monkeypatch):
        calls = []
        divide = DiffOp.right_divide

        def counted(self, other):
            calls.append(1)
            return divide(self, other)

        monkeypatch.setattr(DiffOp, "right_divide", counted)
        Lt, ring = symbolic_m1(1)
        es, _ = solve_esym(Lt)
        assert verify_factorization(Lt, esym=es).passed
        assert len(calls) == 1
        other, _ = symbolic_m1(1)   # an equal operator, but not the same one
        assert verify_factorization(other, esym=es).passed
        assert len(calls) == 2

    def test_shifted_esym_fails_with_reused_division(self):
        Lt, ring = symbolic_m1(1)
        es, _ = solve_esym(Lt)
        shifted = replace(es, values=(es.values[0] + 1,))
        assert shifted.division is es.division
        assert not verify_factorization(Lt, esym=shifted).passed

    @pytest.mark.parametrize("m", [1, 2])
    def test_esym_values_equal_modulo_the_condition_pass(self, m):
        # a q in the values' denominators takes the cancelled zero test
        Lt, ring = symbolic_m1(m)
        es, _ = solve_esym(Lt)
        q = RatFunc.of(ring.var("q"), ring)
        P = RatFunc.of(apparency_modulus(Lt), ring)
        for shift, passed in ((P / (q - 7), True), (P / (q - 7) + 1, False)):
            values = (es.values[0] + shift,) + es.values[1:]
            assert verify_factorization(Lt, esym=replace(es, values=values)).passed is passed

    def test_perturbed_defect_nonzero(self):
        ring = factor_ring(1, 1)
        p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1,
                            q=2, t=2, ring=ring)
        Lt = ApparentFuchsian.from_heun(1, 2, F(34, 3), 1, 2, 2, ring)
        es, work = solve_esym(Lt)
        rep = verify_factorization(Lt, esym=es)
        assert not rep.passed


class TestThm44:
    def test_e1e2_echo(self):
        # the displayed combination for e1 + e2
        ring = factor_ring(1, 2)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        hp = HeunParams(ring, a, b, g, a + b - g + 3, RatFunc.of(-2, ring), q, t)
        E1, E2, v = thm44_e1e2(hp)
        assert E1 == -3 + (q - (a + 2) * (b + 2) * t + 2 * g) / (1 - t)

    def test_symbolic_solution_and_defect(self):
        Lt, ring = symbolic_m1(2)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        es, work = solve_esym(Lt)
        hp = HeunParams(ring, a, b, g, a + b - g + 3, RatFunc.of(-2, ring), q, t)
        E1, E2, v = thm44_e1e2(hp)
        assert es.values[0] == E1 and es.values[1] == E2
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed
        disp = thm44_left_factor(hp, E1, v)
        sub = {"e1": es.values[0], "e2": es.values[1]}
        Q = DiffOp(ring, "z", [c.subs(sub) for c in work.quotient.coeffs])
        assert Q == disp

    def test_x1_values(self):
        from heunfactor.xjacobi import x1_heun_params

        k, g, h = 2, F(1), F(1, 4)
        p = x1_heun_params(k, g, h)
        E1, E2, _ = thm44_e1e2(p)
        assert E1 == RatFunc.of(2 * g, p.ring)
        want = F(-(k + 1), 1) * (k + g + h + 1) * (2 * g + 1) / (2 * h + 1)
        assert E2 == RatFunc.of(want, p.ring)


class TestInstanceFamilies:
    def test_lvw_symbolic_apparent(self):
        from heunfactor.heun import base_ring, is_apparent

        R = base_ring(("e1",))
        a, b, g, e1 = (RatFunc.of(R.var(n), R)
                       for n in ("alpha", "beta", "gamma", "e1"))
        assert is_apparent(lvw_instance(a, b, g, e1, ring=R))

    def test_ep2_symbolic_apparent(self):
        from heunfactor.heun import base_ring, is_apparent

        R = base_ring()
        a, b, g = (RatFunc.of(R.var(n), R) for n in ("alpha", "beta", "gamma"))
        assert is_apparent(ep2_instance(a, b, g, ring=R))

    def test_lvw_concrete_factorization(self):
        from heunfactor.ghg import GHGParams, ghg_operator

        al, be, ga, e1 = F(1, 3), F(2, 5), F(3, 7), F(5, 2)
        p = lvw_instance(al, be, ga, e1)
        L = ghg_operator(GHGParams.make([al, be, e1 + 1], [ga, e1], p.ring))
        left = maier_left_factor(p, RatFunc.of(e1, p.ring))
        assert left * heun_operator(p) == L


class TestSolveEsym:
    def test_m3_exact_smallish(self):
        # concrete rational strength-3 instance stays exact and zero-defect
        rng = make_rng(42)
        al, be, ga = F(1, 3), F(2, 7), F(5, 4)
        t = F(7, 3)
        ring = factor_ring(1, 3)
        q = RatFunc.of(ring.var("q"), ring)
        Lt = ApparentFuchsian.from_heun(al, be, ga, 3, q, t, ring)
        es, _ = solve_esym(Lt)
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed

    def test_holomorphy_of_esym_denominators(self):
        Lt, ring = symbolic_m1(2)
        es, _ = solve_esym(Lt)
        for v in es.values:
            assert {f.pretty() for f in v.den_factors()} <= {"t", "t - 1"}

    @pytest.mark.parametrize("profile", [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2),
                                         (3, 1), (1, 3), (1, 1, 1)],
                             ids=lambda p: "".join(map(str, p)))
    def test_rows_match_the_exact_selection(self, profile, monkeypatch):
        # symbolic M = 1 instances and the Groebner profiles of the pinned
        # reports: the rows chosen at one point mod p are the exact choice
        seen = []
        select = factorize._select_rows

        def capture(rows, N, ring):
            A, b = select(rows, N, ring)
            seen.append((rows, N, A))
            return A, b

        monkeypatch.setattr(factorize, "_select_rows", capture)
        if len(profile) == 1:
            Lt, _ = symbolic_m1(profile[0])
        else:
            gamma, delta, sing, prod_ab = random_profile_instance(profile, seed=3)
            Lt = factorize._residue_atom_factor(gamma, delta, sing, prod_ab)
        solve_esym(Lt)
        (rows, N, chosen), = seen
        exact = []
        for _, grad in rows:
            if any(not g.is_zero for g in grad) and rank_of(exact + [grad]) == len(exact) + 1:
                exact.append(grad)
                if len(exact) == N:
                    break
        assert chosen == exact

    def test_dependent_rows_take_the_exact_rank(self, monkeypatch):
        ring = Ring(("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        ranks = []
        monkeypatch.setattr(factorize, "rank_of", lambda A: ranks.append(A) or rank_of(A))
        rows = [(ring.one, [x, y]),
                (ring.zero, [2 * x, 2 * y]),              # dependent
                (ring.one, [y * (1 / F(_MOD_P)), x]),     # no value mod p
                (x, [ring.one, x])]
        A, b = factorize._select_rows(rows, 2, ring)
        assert A == [[x, y], [y * (1 / F(_MOD_P)), x]]
        assert [len(m) for m in ranks] == [2, 2]

    # numerator n of n / det, det = 3/7 t^2 (t - 1) (q + t + 2), and the
    # normalized value: numerator, its content and the factors, in order
    NORMALIZED = {
        # det divides n: the polynomial
        "whole": (lambda det, q, a, t, z: det * (a * q - F(1, 5)) * -2,
                  "-2*q*alpha + 2/5", F(-2, 5), []),
        # the rest and t divide n, t - 1 does not: t stays in the numerator
        "rest_and_t": (lambda det, q, a, t, z: F(5, 2) * t * (q + t + 2) * (a + z),
                       "35/6*z*t + 35/6*alpha*t", F(35, 6), [("t", 2), ("t - 1", 1)]),
        # the rest q + t + 2 does not divide n: n / det, cancelled
        "rest_fails": (lambda det, q, a, t, z: F(-4, 3) * t * (t - 1) * (q - t + 2),
                       "-28/9*q*t^2 + 28/9*t^3 + 28/9*q*t - 28/3*t^2 + 56/9*t", F(-28, 9),
                       [("q*t^3 + t^4 - q*t^2 + t^3 - 2*t^2", 1)]),
    }

    @pytest.mark.parametrize("case", sorted(NORMALIZED))
    def test_normalized_value_edge_cases(self, case):
        # solve_esym's two steps on a 1 x 1 system; the pinned values are
        # those of the route that cancelled each Cramer value before it
        # normalized it
        ring = factor_ring(1, 1)
        q, a, t, z = (ring.var(n) for n in ("q", "alpha", "t", "z"))
        det = F(3, 7) * t ** 2 * (t - 1) * (q + t + 2)
        make, num, content, factors = self.NORMALIZED[case]
        (v,) = solve_linear([[det]], [make(det, q, a, t, z)])
        got = factorize._normalize_t_denominator(v, ring, {})
        assert got.num.pretty() == num and got.num.content() == content
        assert [(f.pretty(), k) for f, k in got.den_factors().items()] == factors
        assert got == RatFunc(make(det, q, a, t, z), {det: 1})

    def test_normalized_value_without_t_is_cancelled(self):
        ring = Ring(("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        (v,) = solve_linear([[2 * x * y]], [x * y * (y + 1)])
        got = factorize._normalize_t_denominator(v, ring, {})
        assert got.is_poly() and got.num == (y + 1) / 2

    def test_unsupported_profile(self):
        ring = factor_ring(1, 6)
        Lt = ApparentFuchsian.from_heun(F(1, 3), F(2, 5), F(3, 7), 6,
                                        RatFunc.of(ring.var("q"), ring),
                                        F(5, 2), ring)
        with pytest.raises(UnsupportedProfileError):
            solve_esym(Lt)

    def test_deep_gate_for_m4(self):
        ring = factor_ring(1, 4)
        Lt = ApparentFuchsian.from_heun(F(1, 3), F(2, 5), F(3, 7), 4,
                                        RatFunc.of(ring.var("q"), ring),
                                        F(5, 2), ring)
        with pytest.raises(UnsupportedProfileError):
            solve_esym(Lt, deep=False)


class TestApparencySystem:
    def test_m1_reduces_to_heun_condition(self, ep1q):
        # P(p1) with p1 = alpha beta t - q recovers the quadratic in q
        ring = factor_ring(1, 1)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = ApparentFuchsian.from_heun(a, b, g, 1, q, t, ring)
        P = apparency_modulus(Lt)
        assert P == ep1q.rename(ring)

    def test_m2_system_has_no_spurious_factor(self, ep2q):
        # P_1 itself, not only its monic-in-q form, is the reference cubic:
        # no factor t(t - 1) from an expanded operator denominator
        Lt, ring = symbolic_m1(2)
        P = apparency_system(Lt)[0]
        a, b, t, q = (ring.var(n) for n in ("alpha", "beta", "t", "q"))
        assert P.subs({"p1": a * b * t - q}) == -ep2q.rename(ring)
        assert P.num_terms() == 27

    def test_degree_profile_m2(self):
        gamma, delta, sing, prod_ab = random_profile_instance((2, 1), seed=4)
        ring = factor_ring(2, 3)
        Lt = ApparentFuchsian.from_p_form(
            gamma, delta, sing, prod_ab,
            [RatFunc.of(ring.var("p1"), ring), RatFunc.of(ring.var("p2"), ring)],
            ring)
        system = apparency_system(Lt)
        assert system[0].degree("p1") == 3 and system[0].degree("p2") <= 2
        assert system[1].degree("p2") == 2 and system[1].degree("p1") <= 1

    def test_numeric_root_is_log_free_by_monodromy(self):
        # a numeric apparency root (possibly complex) gives near-identity
        # local monodromy; a perturbed residue does not
        import numpy as np
        from mpmath import mp

        from heunfactor.numcheck import _circle, _transfer_matrix

        gamma, delta, sing, prod_ab = random_profile_instance((1,), seed=11)
        with mp.workprec(120):
            pv = solve_apparent_p(gamma, delta, sing, prod_ab, seed=5, bits=120)
        p1 = complex(pv[0])
        t1 = float(sing[0][0])
        g, d, ab = float(gamma), float(delta), float(prod_ab)
        m1 = sing[0][1]

        def mats(p_res):
            # Heun's D y'' + P1 y' + R1 y = 0 with eps = -m1 and
            # R1 = ab (z - t1) + p_res, ascending coefficients in z
            polys = ([0, t1, -(1 + t1), 1.0],
                     [g * t1, -(g * (1 + t1) + d * t1 - m1), g + d - m1],
                     [p_res - ab * t1, ab])
            r = 0.5 * min(abs(t1), abs(t1 - 1))
            return np.array(_transfer_matrix(polys, [0j, 1 + 0j, t1 + 0j],
                                             _circle(t1 + 0j, r, t1 + r), 1e-12))

        M = mats(p1)
        assert float(np.max(np.abs(M - np.eye(2)))) < 1e-6
        M_bad = mats(p1 + 0.5)
        assert float(np.max(np.abs(M_bad - np.eye(2)))) > 1e-3


def _same_parts(a: RatFunc, b: RatFunc):
    """Equal terms, content and factor dict, the factors in the same order."""
    assert a.num == b.num and a.num.content() == b.num.content()
    assert list(a.den_factors().items()) == list(b.den_factors().items())


def _series_points(Lt):
    """(point, exponent, order) at each t_j (exponent 0, step m_j + 1) and
    at z = 0 (both exponents)."""
    pts = [(tj, 0, mj + 1) for tj, mj in Lt.sing]
    return pts + [(0, 0, Lt.N + 1), (0, 1 - Lt.gamma, Lt.N + 1)]


def _partial_fraction_operator(Lt):
    """[c0, c1] of L~ summed and divided term by term: the reference the
    cleared lists must reproduce."""
    ring = Lt.ring
    z = RatFunc.of(ring.var("z"), ring)
    c1 = Lt.gamma / z + Lt.delta / (z - 1)
    c0 = RatFunc.of(0, ring)
    for i, s in enumerate(Lt.s_coeffs):
        c0 = c0 + s * z ** i
    c0 = c0 / z / (z - 1)
    for tk, mk in Lt.sing:
        c1 = c1 - RatFunc.of(mk, ring) / (z - tk)
        c0 = c0 / (z - tk)
    return [c0, c1]


def _cleared_form_cases():
    cases = [pytest.param(lambda p=prof, s=seed: factorize._residue_atom_factor(
        *random_profile_instance(p, seed=s)), id="".join(map(str, prof)) + f"-s{seed}")
             for prof in SUPPORTED_PROFILES for seed in (1, 2)]
    return cases + [pytest.param(lambda m=m: symbolic_m1(m)[0], id=f"symbolic-m{m}")
                    for m in (1, 2, 3)]


class TestClearedForm:
    """L~'s series and operator from its cleared lists Q, P1, S equal those
    of the DiffOp route (shift by substitution, clearing by products)."""

    @pytest.mark.parametrize("make", _cleared_form_cases())
    def test_series_match_the_operator_route(self, make):
        Lt = make()
        op = Lt.operator()
        for point, rho, order in _series_points(Lt):
            new = frobenius_series(Lt, point, rho, order)
            old = frobenius_series(op, point, rho, order)
            assert len(new.coeffs) == len(old.coeffs)
            for a, b in zip(new.coeffs, old.coeffs):
                _same_parts(a, b)
            assert (new.log_coefficient is None) == (old.log_coefficient is None)
            if new.log_coefficient is not None:
                _same_parts(new.log_coefficient, old.log_coefficient)
            assert new.free_index == old.free_index

    @pytest.mark.parametrize("make", _cleared_form_cases())
    def test_operator_matches_the_partial_fractions(self, make):
        Lt = make()
        op = Lt.operator()
        assert op.coeffs[2] == 1
        for a, b in zip(op.coeffs[:2], _partial_fraction_operator(Lt)):
            _same_parts(a, b)

    def test_exactly_apparent_instance_is_degenerate_on_both_routes(self, monkeypatch):
        # q = 1 makes t = 2 apparent: no obstruction at step m + 1.
        # apparency_system puts the atoms p_k in, so the degenerate branch
        # is reached here with the residues as given
        ring = factor_ring(1, 1)
        Lt = ApparentFuchsian.from_heun(1, 2, F(34, 3), 1, 1, 2, ring)
        with pytest.raises(DegenerateInstanceError, match="no obstruction found at t_1") as new:
            factorize._obstruction_system(Lt)
        monkeypatch.setattr(factorize, "frobenius_series",
                            lambda L, *args: frobenius_series(L.operator(), *args))
        with pytest.raises(DegenerateInstanceError) as old:
            factorize._obstruction_system(Lt)
        assert str(new.value) == str(old.value)

    def test_one_residue_atom_factor_per_numeric_verify(self, monkeypatch):
        built = []
        from_p_form = ApparentFuchsian.from_p_form.__func__

        def counting(cls, *args):
            built.append(args)
            return from_p_form(cls, *args)

        monkeypatch.setattr(ApparentFuchsian, "from_p_form", classmethod(counting))
        gamma, alpha, beta = F(5, 7), F(0), F(-2, 7)
        sing = [(F(5, 2), 1), (F(-3), 1)]
        delta = alpha + beta - gamma + 3
        rep = verify_factorization_numeric(gamma, delta, sing, alpha * beta, bits=300)
        assert rep.passed and len(built) == 1


def _division_cases():
    panel = [pytest.param(lambda p=prof: factorize._residue_atom_factor(
        *random_profile_instance(p, seed=3)), id="".join(map(str, prof)))
             for prof in ((1, 1), (2, 1), (2, 2), (3, 1), (1, 3), (1, 1, 1))]

    def edge(gamma, alpha, beta, m):
        ring = factor_ring(1, m)
        return ApparentFuchsian.from_heun(alpha, beta, gamma, m, ring.var("q"), F(5, 2), ring)

    edges = [pytest.param(lambda e=e: edge(*e), id=f"edge{i}") for i, e in enumerate(EDGES)]
    return [pytest.param(lambda m=m: symbolic_m1(m)[0], id=f"symbolic-m{m}")
            for m in (1, 2, 3)] + panel + edges


@pytest.mark.parametrize("make", _division_cases())
def test_cleared_division_matches_the_monic_division(make):
    """D~ = X Q and the remainder of L_GHG = X (Q L~) + R equal the quotient
    and remainder of the division by the monic L~, term for term."""
    Lt = make()
    ring = Lt.ring
    L = factorize.ghg_operator_esym(Lt.sum_ab, Lt.prod_ab, Lt.gamma,
                                    [ring.var(f"e{j}") for j in range(1, Lt.N + 1)], ring)
    D, rem = L.right_divide(Lt.operator())
    work = factorize._division_work(Lt)
    assert len(work.quotient.coeffs) == len(D.coeffs) == Lt.N + 1
    for a, b in zip(work.quotient.coeffs, D.coeffs):
        _same_parts(a, b)
    for a, b in zip(work.w_coeffs, (rem.coeff(0), rem.coeff(1))):
        _same_parts(a, b)
    assert all(w.is_zero for w in work.w_coeffs[2:])


class TestNumericPipeline:
    @pytest.mark.parametrize("profile", [(1, 1), (2, 1)])
    def test_profiles_pass(self, profile):
        gamma, delta, sing, prod_ab = random_profile_instance(profile, seed=42)
        rep = verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                           bits=300, seed=1)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60

    # alpha = 0 or -1 terminates the exponent-0 GHG series; integer gamma
    # gives resonant exponents at z = 0.  The defects read 0 to 1.3e-89.
    @pytest.mark.parametrize("gamma, alpha, beta, m", EDGES)
    def test_terminating_and_integer_gamma_edges_pass(self, gamma, alpha, beta, m):
        delta = alpha + beta - gamma + m + 1
        rep = verify_factorization_numeric(F(gamma), F(delta), [(F(5, 2), m)],
                                           F(alpha * beta), bits=300)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60

    @pytest.mark.parametrize("gamma, alpha, beta, m", EDGES + [(F(5, 7), 0, F(-2, 7), 8)])
    def test_edges_pass_without_an_exact_division_or_solve(self, gamma, alpha, beta, m,
                                                           monkeypatch):
        # the esym values come from the fixed-point remainder's rows on the
        # edges too: no exact L_GHG, exact esym solve or exact division
        def refuse(*args):
            raise AssertionError("the numeric lane ran exact algebra")

        monkeypatch.setattr(factorize, "ghg_operator_esym", refuse)
        monkeypatch.setattr(factorize, "solve_esym", refuse)
        monkeypatch.setattr(DiffOp, "right_divide", refuse)
        delta = alpha + beta - gamma + m + 1
        rep = verify_factorization_numeric(F(gamma), F(delta), [(F(5, 2), m)],
                                           F(alpha * beta), bits=300)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60

    @pytest.mark.parametrize(("alpha", "t", "m"), [(F(200, 3), 10 ** 5, 3), (F(1, 3), F(5, 2), 12)],
                             ids=["t-1e5", "m12"])
    def test_large_t_and_large_m_pass_at_300_bits(self, alpha, t, m):
        # gamma 5/7, beta 3/5: the operators' coefficients reach 1e30 and
        # more, yet the defect stays below 1e-60 at the default 300 bits;
        # the control at p + 1/7 (the real root to 40 digits) exits 2
        from mpmath import mp

        params = {"gamma": "5/7", "alpha": str(alpha), "beta": "3/5",
                  "sing": [{"t": str(t), "m": m}]}
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
                "parameters": params}
        report, code = cmd_factorize(inst, None, 300, -60, None)
        assert code == 0 and report["pass"], report["defect_max"]
        gamma, beta = F(5, 7), F(3, 5)
        with mp.workprec(300):
            (p,) = solve_apparent_p(gamma, alpha + beta - gamma + m + 1, [(F(t), m)],
                                    alpha * beta)
            assert abs(p.imag) <= mp.mpf(10) ** -60 * abs(p)
            control = str(F(mp.nstr(p.real, 40, min_fixed=-mp.inf, max_fixed=mp.inf))
                          + F(1, 7))
        report, code = cmd_factorize({**inst, "parameters": {**params, "p": [control]}},
                                     None, 300, -60, None)
        assert code == 2 and float(report["defect_max"]) > 1e-10

    def test_series_verdicts_build_no_exact_ghg_operator(self, monkeypatch):
        # L_GHG comes from its th-table at the esym values
        calls = []
        build = factorize.ghg_operator_esym
        monkeypatch.setattr(factorize, "ghg_operator_esym",
                            lambda *a: calls.append(a) or build(*a))
        for profile in [(2,), (1, 1), (1, 1, 1)]:
            gamma, delta, sing, prod_ab = random_profile_instance(profile, seed=5)
            rep = verify_factorization_numeric(gamma, delta, sing, prod_ab, bits=300)
            assert rep.passed
        assert calls == []

    def test_series_verdicts_divide_by_no_operator(self, monkeypatch):
        # the remainder comes from L~'s cleared form and L_GHG's th-table on
        # fixed-point pairs, so the verdict neither builds L~
        # as an operator nor divides one, builds none of the fixed-point
        # operator types, and evaluates at one GaussPoint
        from mpmath import mp

        from heunfactor import _mpnum

        insts = [random_profile_instance(p, seed=5) for p in [(2,), (1, 1), (1, 1, 1)]]
        with mp.workprec(300):
            p_vals = [solve_apparent_p(*inst) for inst in insts]
        calls = []
        for owner, name in ((ApparentFuchsian, "operator"), (_mpnum.DiffOpM, "right_divide_monic"),
                            *((cls, "__init__") for cls in (_mpnum.FactorBasis, _mpnum.RatM,
                                                            _mpnum.DiffOpM, _mpnum.GaussPoint))):
            real = getattr(owner, name)
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name,
                                lambda *a, label=label, real=real: calls.append(label) or real(*a))
        for inst, pv in zip(insts, p_vals):
            assert verify_factorization_numeric(*inst, p_vals=pv, bits=300).passed
        assert calls == ["GaussPoint.__init__"] * len(insts)

    @pytest.mark.parametrize("profile", [(1, 1), (2, 1)])
    def test_two_singularity_edges_pass_and_their_controls_fail(self, profile):
        from mpmath import mp

        gamma, alpha, beta = F(5, 7), F(0), F(-2, 7)
        sing = list(zip((F(5, 2), F(-3)), profile))
        delta = alpha + beta - gamma + sum(profile) + 1
        rep = verify_factorization_numeric(gamma, delta, sing, alpha * beta, bits=300)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60
        with mp.workprec(300):
            pv = solve_apparent_p(gamma, delta, sing, alpha * beta)
            rep = verify_factorization_numeric(gamma, delta, sing, alpha * beta,
                                               p_vals=[pv[0] + 1, pv[1]], bits=300)
        assert not rep.passed
        assert float(rep.defect_max) > 1e-10

    def test_edge_outside_the_supported_profiles_passes_in_numeric_mode(self):
        # m = 6 is outside SUPPORTED_PROFILES; numeric mode applies no profile gate
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
                "parameters": {"gamma": "5/7", "alpha": "0", "beta": "-2/7",
                               "sing": [{"t": "5/2", "m": 6}]}}
        report, code = cmd_factorize(inst, None, None, -60, None)
        assert code == 0
        assert report["pass"] and float(report["defect_max"]) < 1e-60

    def test_sensitivity(self):
        from mpmath import mp

        gamma, delta, sing, prod_ab = random_profile_instance((2,), seed=5)
        with mp.workprec(300):
            pv = solve_apparent_p(gamma, delta, sing, prod_ab, seed=2)
            for d in (1, F(1, 2), F(1, 7)):
                from heunfactor._mpnum import to_mpc

                rep = verify_factorization_numeric(
                    gamma, delta, sing, prod_ab, p_vals=[pv[0] + to_mpc(d)],
                    bits=300)
                assert not rep.passed
                assert float(rep.defect_max) > 1e-10


class TestGroebnerPath:
    def test_m2_exact_symbolic_p(self):
        ring = factor_ring(2, 2)
        gamma, delta, sing, prod_ab = random_profile_instance((1, 1), seed=9)
        p1 = RatFunc.of(ring.var("p1"), ring)
        p2 = RatFunc.of(ring.var("p2"), ring)
        Lt = ApparentFuchsian.from_p_form(gamma, delta, sing, prod_ab,
                                          [p1, p2], ring)
        rep = verify_factorization(Lt)
        assert rep.passed

    def test_budget_trips_to_numeric_recommendation(self):
        ring = factor_ring(2, 2)
        gamma, delta, sing, prod_ab = random_profile_instance((1, 1), seed=9)
        p1 = RatFunc.of(ring.var("p1"), ring)
        p2 = RatFunc.of(ring.var("p2"), ring)
        Lt = ApparentFuchsian.from_p_form(gamma, delta, sing, prod_ab,
                                          [p1, p2], ring)
        rep = verify_factorization(Lt, groebner_budget=1)
        assert not rep.passed
        assert rep.defect_max == "budget-exceeded"
        assert "numeric" in rep.detail


class TestReportShape:
    def test_report_fields(self):
        Lt, ring = symbolic_m1(1)
        rep = verify_factorization(Lt)
        d = rep.to_json()
        assert set(d) == {"mode", "profile", "esym", "defect_max", "pass",
                          "quotient_operator", "detail"}
        assert d["mode"] == "exact" and d["profile"] == [1]


class TestFuchsianData:
    def test_distinctness_enforced(self):
        ring = factor_ring(2, 2)
        from heunfactor.exactalg import UsageError

        with pytest.raises(UsageError):
            ApparentFuchsian.from_p_form(
                F(1, 2), F(3, 2), [(F(2), 1), (F(2), 1)], F(1),
                [RatFunc.of(0, ring), RatFunc.of(0, ring)], ring)

    def test_heun_q_view(self):
        Lt, ring = symbolic_m1(1)
        assert Lt.heun_q() == RatFunc.of(ring.var("q"), ring)
