"""Factorization engine: closed forms, esym solving, exact and numeric
verification, apparency systems, instance families."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from heunfactor import _mpnum
from heunfactor.exactalg import RatFunc, reduce_mod
from heunfactor.factorize import (
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
from heunfactor.heun import HeunParams, apparency_poly, heun_operator
from heunfactor.oredop import DiffOp

from conftest import make_rng, rand_frac


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
        for profile in es.denominators:
            assert set(profile) <= {"t", "t - 1"}

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


#: numeric instances (gamma, alpha, beta, m) at t = 5/2 with no usable z = 0
#: series: a Pochhammer factor vanishes at both exponents
EDGES = [
    (F(5, 7), 0, F(-2, 7), 3),
    (-2, 0, -3, 2),
    (3, -1, 1, 2),
    (F(5, 7), -1, F(-9, 7), 2),
]


class TestNumericPipeline:
    @pytest.mark.parametrize("profile", [(1, 1), (2, 1)])
    def test_profiles_pass(self, profile):
        gamma, delta, sing, prod_ab = random_profile_instance(profile, seed=42)
        rep = verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                           bits=300, seed=1)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60

    # alpha = 0 or -1 terminates the exponent-0 GHG series; integer gamma
    # gives resonant exponents at z = 0.  The last one has the smallest
    # margin of the four (defect about 1e-72).
    @pytest.mark.parametrize("gamma, alpha, beta, m", EDGES)
    def test_terminating_and_integer_gamma_edges_pass(self, gamma, alpha, beta, m):
        delta = alpha + beta - gamma + m + 1
        rep = verify_factorization_numeric(F(gamma), F(delta), [(F(5, 2), m)],
                                           F(alpha * beta), bits=300)
        assert rep.passed
        assert float(rep.defect_max) < 1e-60

    def test_only_edges_without_a_series_exponent_sample_the_remainder(self, monkeypatch):
        # at both z = 0 exponents of each edge a Pochhammer factor vanishes
        calls = []
        sampling = _mpnum.esym_by_sampling
        monkeypatch.setattr(_mpnum, "esym_by_sampling",
                            lambda *a: calls.append(a) or sampling(*a))
        for k, (gamma, alpha, beta, m) in enumerate(EDGES, 1):
            delta = alpha + beta - gamma + m + 1
            verify_factorization_numeric(F(gamma), F(delta), [(F(5, 2), m)],
                                         F(alpha * beta), bits=300)
            assert len(calls) == k
        gamma, delta, sing, prod_ab = random_profile_instance((2,), seed=5)
        assert verify_factorization_numeric(gamma, delta, sing, prod_ab, bits=300).passed
        assert len(calls) == len(EDGES)

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
    def test_p_s_round_trip(self):
        ring = factor_ring(2, 2)
        gamma, delta, sing, prod_ab = random_profile_instance((1, 1), seed=3)
        ps = [F(5, 7), F(-2, 3)]
        Lt = ApparentFuchsian.from_p_form(gamma, delta, sing, prod_ab,
                                          [RatFunc.of(p, ring) for p in ps],
                                          ring)
        back = Lt.p_residues()
        assert [b.as_poly().const_value() for b in back] == ps
        assert Lt.prod_ab == RatFunc.of(prod_ab, ring)

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
