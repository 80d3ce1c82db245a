"""Heun equation machinery: series recurrence, condition polynomials,
polynomial(-type) solutions, gauge transforms, implication properties."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from heunfactor.exactalg import RatFunc, reduce_mod
from heunfactor.heun import (
    HeunConditionError,
    HeunParams,
    NoSolution,
    PolySolution,
    SolutionError,
    UnsupportedCaseError,
    apparency_poly,
    apparency_condition,
    base_ring,
    frobenius_series,
    gauge_transform,
    heun_operator,
    heun_poly_condition,
    heun_poly_condition_ratfunc,
    is_apparent,
    polynomial_solution,
    polytype_condition_poly,
    polytype_solution,
    series_at,
    series_coeffs,
    transform_to_infinity,
)
from heunfactor.exactalg import UsageError

from conftest import rand_frac, rand_noninteger, make_rng


class TestConstruction:
    def test_fuchs_relation_enforced(self, R):
        with pytest.raises(HeunConditionError):
            HeunParams.make(alpha=1, beta=1, gamma=1, epsilon=1, delta=17,
                            q=0, t=2)

    def test_t_not_zero_one(self):
        with pytest.raises(HeunConditionError):
            HeunParams.make(alpha=1, beta=1, gamma=1, epsilon=1, q=0, t=1)

    def test_operator_echo_symbolic(self, R, atoms):
        # coefficients match the canonical display verbatim
        p = HeunParams.symbolic()
        L = heun_operator(p)
        z = RatFunc.of(atoms["z"], R)
        g, d, e = (RatFunc.of(atoms[n], R) for n in ("gamma", "delta", "epsilon"))
        a, b, q, t = (RatFunc.of(atoms[n], R) for n in ("alpha", "beta", "q", "t"))
        # delta in the symbolic bundle is the derived combination
        d = a + b + 1 - g - e
        assert L.coeff(2) == RatFunc.of(1, R)
        assert L.coeff(1) == g / z + d / (z - 1) + e / (z - t)
        assert L.coeff(0) == (a * b * z - q) / (z * (z - 1) * (z - t))

    def test_eps0_reduces_to_gauss(self, R, atoms):
        from heunfactor.ghg import GHGParams, ghg_operator

        a, b, g = atoms["alpha"], atoms["beta"], atoms["gamma"]
        p = HeunParams.symbolic(epsilon=0, q=RatFunc(a * b * atoms["t"]))
        assert heun_operator(p) == ghg_operator(GHGParams.make([a, b], [g], R))

    def test_x1_map_concrete_t(self):
        from heunfactor.xjacobi import x1_heun_params

        p = x1_heun_params(1, F(1), F(1, 4))
        assert p.t == RatFunc.of(F(2), p.ring)
        assert p.alpha == RatFunc.of(-2, p.ring)

    def test_json_round_trip(self):
        p = HeunParams.make(alpha=F(1, 3), beta=2, gamma=F(-5, 7), epsilon=-1,
                            q=F(22, 7), t=F(9, 2))
        p2 = HeunParams.from_json(p.to_json())
        assert p2 == p
        sym = HeunParams.symbolic(epsilon=-2)
        sym2 = HeunParams.from_json(sym.to_json())
        assert sym2 == sym


class TestSeries:
    def test_c0_is_one(self):
        ser = series_coeffs(HeunParams.symbolic(), 0)
        assert ser.coeffs[0] == RatFunc.of(1, HeunParams.symbolic().ring)

    def test_c1_display(self, R, atoms):
        p = HeunParams.symbolic()
        ser = series_coeffs(p, 1)
        q, a, b, e, t = (RatFunc.of(atoms[n], R)
                         for n in ("q", "alpha", "beta", "epsilon", "t"))
        assert ser.coeffs[1] == (q - a * b * t) / (e * t * (t - 1))

    def test_deg_q_of_c3(self, rng):
        p = HeunParams.make(alpha=rand_frac(rng, nonzero=True),
                            beta=rand_frac(rng, nonzero=True),
                            gamma=rand_frac(rng, nonzero=True),
                            epsilon=rand_noninteger(rng),
                            q=base_ring().var("q"), t=F(7, 2))
        ser = series_coeffs(p, 3)
        assert ser.coeffs[3].num.degree("q") == 3

    def test_resubstitution_invariant(self):
        # truncated series satisfies the equation through its order
        p = HeunParams.make(alpha=F(1, 2), beta=F(1, 5), gamma=F(3, 4),
                            epsilon=F(5, 3), q=F(1, 7), t=F(5, 2))
        K = 9
        ser = series_coeffs(p, K)
        ring = p.ring
        z = RatFunc.of(ring.var("z"), ring)
        y = RatFunc.of(0, ring)
        for j, c in enumerate(ser.coeffs):
            y = y + c * (z - p.t) ** j
        res = heun_operator(p).apply(y)
        shifted = res.num.subs({"z": ring.var("z") + ring.const(F(5, 2))})
        for k in range(K - 1):
            assert shifted.coeff_of("z", k).is_zero


    def test_three_term_recurrence(self):
        # the paper's recurrence about z = t, transcribed as the reference:
        #   i (i + eps - 1) t (t-1) c_i + (i+alpha-2)(i+beta-2) c_{i-2}
        #     + [(i-1)(i-2)(2t-1) + (i-1){(gamma+delta+2 eps) t - gamma - eps}
        #        + alpha beta t - q] c_{i-1} = 0
        p = HeunParams.symbolic()
        a, b, g, d, e, q, t = (p.alpha, p.beta, p.gamma, p.delta, p.epsilon,
                               p.q, p.t)
        cs = [RatFunc.of(0, p.ring)] + list(series_coeffs(p, 4).coeffs)  # c_{-1}
        for i in range(1, 5):
            c_i, c_1, c_2 = cs[i + 1], cs[i], cs[i - 1]
            res = (i * (i + e - 1) * t * (t - 1) * c_i
                   + (i + a - 2) * (i + b - 2) * c_2
                   + ((i - 1) * (i - 2) * (2 * t - 1)
                      + (i - 1) * ((g + d + 2 * e) * t - g - e)
                      + a * b * t - q) * c_1)
            assert res.is_zero, i

    def test_free_value_at_deep_free_index(self):
        # eps = -2 bundle with z = t exactly apparent: c_3 is free
        from heunfactor.factorize import ep2_instance

        p = ep2_instance(F(1, 3), F(2, 7), F(5, 4))
        L = heun_operator(p)
        for v in (0, F(5, 7)):
            ser = frobenius_series(L, p.t, 0, 4, free_value=v)
            assert ser.log_coefficient is None and ser.free_index == 3
            assert ser.coeffs[3] == v
            assert series_coeffs(p, 4, free_value=v) == ser


class TestApparency:
    def test_eps0(self, R, atoms):
        P = apparency_poly(HeunParams.symbolic(epsilon=0))
        assert P == atoms["q"] - atoms["alpha"] * atoms["beta"] * atoms["t"]

    def test_eps_minus1_display(self, ep1q):
        assert apparency_poly(HeunParams.symbolic(epsilon=-1)) == ep1q

    def test_eps_minus2_display(self, ep2q):
        assert apparency_poly(HeunParams.symbolic(epsilon=-2)) == ep2q

    def test_monic_and_degree(self):
        for e in (0, -1, -2, -3):
            P = apparency_poly(HeunParams.symbolic(epsilon=e))
            assert P.degree("q") == 1 - e
            assert P.coeff_of("q", 1 - e).const_value() == 1

    def test_eps_one_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            apparency_poly(HeunParams.symbolic(epsilon=1))

    def test_eps_noninteger_rejected(self):
        with pytest.raises(UsageError):
            apparency_poly(HeunParams.symbolic(epsilon=F(1, 2)))

    def test_recurrence_vs_closed_form_on_random_rationals(self, rng, ep1q, ep2q, R):
        # spot-confirm the symbolic identity at random rational parameters
        for _ in range(5):
            vals = {"alpha": rand_frac(rng), "beta": rand_frac(rng),
                    "gamma": rand_frac(rng), "t": rand_frac(rng, exclude=(0, 1))}
            for eps, ref in ((-1, ep1q), (-2, ep2q)):
                p = HeunParams.make(alpha=vals["alpha"], beta=vals["beta"],
                                    gamma=vals["gamma"], epsilon=eps,
                                    q=R.var("q"), t=vals["t"], ring=R)
                got = apparency_poly(p)
                want = RatFunc.of(ref, R).subs(vals).as_poly()
                assert got == want


class TestHeunPolyCondition:
    def test_alpha0(self, atoms):
        assert heun_poly_condition(HeunParams.symbolic(alpha=0)) == atoms["q"]

    def test_al1q(self, al1q):
        assert heun_poly_condition(HeunParams.symbolic(alpha=-1)) == al1q

    def test_al2q(self, al2q):
        assert heun_poly_condition(HeunParams.symbolic(alpha=-2)) == al2q

    def test_monic(self):
        P = heun_poly_condition(HeunParams.symbolic(alpha=-3))
        assert P.degree("q") == 4
        assert P.coeff_of("q", 4).const_value() == 1

    def test_alpha_must_be_nonpositive_integer(self):
        with pytest.raises(UsageError):
            heun_poly_condition(HeunParams.symbolic())


class TestPolynomialSolution:
    def test_alpha0_constant(self, R):
        p = HeunParams.make(alpha=0, beta=F(1, 3), gamma=F(2, 5),
                            epsilon=F(7, 5), q=0, t=3)
        sol = polynomial_solution(p, 0)
        assert len(sol.coeffs) == 1
        assert sol.coeffs[0] == RatFunc.of(1, p.ring)

    def test_al1y_display(self, R, atoms):
        p = HeunParams.symbolic(alpha=-1)
        P1 = heun_poly_condition(p)
        sol = polynomial_solution(p, R.var("q"), modulus=P1)
        t, e, q, b = (RatFunc.of(atoms[n], R) for n in ("t", "epsilon", "q", "beta"))
        scale = t * (t - 1) * e
        assert sol.coeffs[0] * scale == scale
        assert sol.coeffs[1] * scale == q + b * t

    def test_al2y_display_mod_condition(self, R, atoms):
        p = HeunParams.symbolic(alpha=-2)
        P2 = heun_poly_condition(p)
        sol = polynomial_solution(p, R.var("q"), modulus=P2)
        t, e, q, b, g = (RatFunc.of(atoms[n], R)
                         for n in ("t", "epsilon", "q", "beta", "gamma"))
        scale = 2 * t ** 2 * (t - 1) ** 2 * e * (e + 1)
        want = [scale,
                2 * t * (t - 1) * (e + 1) * (q + 2 * b * t),
                q * q + ((3 * b - e + 1) * t + g + e) * q
                + 2 * b * t * ((b + 1) * t + g)]
        for got_c, want_c in zip(sol.coeffs, want):
            d = got_c * scale - want_c
            if not d.is_zero:
                d = RatFunc(reduce_mod(d.num, P2, "q"), d.den_factors())
            assert d.is_zero

    def test_wrong_root_raises_with_residual(self):
        p = HeunParams.make(alpha=-1, beta=F(1, 3), gamma=F(2, 5),
                            epsilon=F(7, 5), q=F(1, 2), t=3)
        with pytest.raises(SolutionError) as err:
            polynomial_solution(p, F(1, 2))
        assert err.value.residual is not None

    def test_solution_annihilated(self):
        # instances with a chosen rational root: the degree-1 condition is
        # linear in gamma, so solve gamma for a picked q*
        found = 0
        for seed in range(12):
            r2 = make_rng(500 + seed)
            b = rand_noninteger(r2)
            t = rand_frac(r2, exclude=(0, 1))
            e = rand_noninteger(r2)
            qstar = rand_frac(r2, nonzero=True)
            den = qstar + b * t
            if den == 0:
                continue
            g = -qstar * (qstar + (b - e) * t + e) / den
            if g == 0:
                continue
            p = HeunParams.make(alpha=-1, beta=b, gamma=g, epsilon=e,
                                q=qstar, t=t)
            sol = polynomial_solution(p, qstar)
            y = sol.poly_as_ratfunc()
            assert heun_operator(p).apply(y).is_zero
            found += 1
            if found >= 3:
                break
        assert found >= 3


class TestGaugeAndPolytype:
    def test_double_transform_regression(self):
        p = HeunParams.symbolic()
        g1 = gauge_transform(p, 1 - p.gamma, 1 - p.delta, 0)
        assert gauge_transform(g1, 1 - g1.gamma, 1 - g1.delta, 0) == p
        g2 = gauge_transform(p, 0, 0, 1 - p.epsilon)
        assert gauge_transform(g2, 0, 0, 1 - g2.epsilon) == p

    def test_bad_sigma_rejected(self):
        p = HeunParams.symbolic()
        with pytest.raises(UsageError):
            polytype_solution(p, 3, 0, 0)

    def test_all_zero_reduces_to_polynomial_solution(self, R):
        p = HeunParams.symbolic(alpha=-1)
        P1 = heun_poly_condition(p)
        sol = polytype_solution(p.subs_q(R.var("q")), 0, 0, 0, modulus=P1)
        assert isinstance(sol, PolySolution)
        assert len(sol.coeffs) == 2

    def test_precondition_gate(self):
        p = HeunParams.make(alpha=F(1, 3), beta=F(1, 5), gamma=F(1, 7),
                            epsilon=F(2, 3), q=1, t=3)
        out = polytype_solution(p, 1 - p.gamma, 1 - p.delta, 0)
        assert isinstance(out, NoSolution)
        assert "precondition" in out.reason

    def test_x1_alpha0_prefactored_solution(self):
        # alpha = 0 member of the strength-2 apparent family: the
        # (1-gamma, 1-delta, 0) solution has linear part
        # (beta - 2 gamma + 3) z + gamma - 2
        R = base_ring()
        b, g = (RatFunc.of(R.var(n), R) for n in ("beta", "gamma"))
        den = b - 2 * g + 3
        t = (1 - g) / den
        q = (1 - g) * (2 * b - 2 * g + 4) / den
        p = HeunParams.make(alpha=0, beta=b, gamma=g, epsilon=-2, q=q, t=t,
                            ring=R)
        sol = polytype_solution(p, 1 - p.gamma, 1 - p.delta, 0)
        assert isinstance(sol, PolySolution)
        got = sol.poly_as_ratfunc()
        z = RatFunc.of(R.var("z"), R)
        want = den * z + g - 2
        # proportionality: cross-multiply by the leading coefficients
        lead_got = got.coeffs_in("z").get(1)
        assert got * den == want * lead_got
        assert sol.degree() == 1


class TestTheorem54:
    @staticmethod
    def _roots(P):
        cs = {k: float(v.const_value()) for k, v in P.coeffs_in("q").items()}
        dense = [cs.get(i, 0.0) for i in range(max(cs) + 1)]
        return np.roots(list(reversed(dense)))

    @staticmethod
    def _scale(P):
        return max(abs(float(v.const_value()))
                   for v in P.coeffs_in("q").values())

    def test_implications_sampled(self):
        # (i) polynomial-solution roots are apparency roots when the solution
        # degree fits under the exponent gap; (ii) symmetric regime
        checked_i = checked_ii = 0
        for seed in range(60):
            rng = make_rng(1000 + seed)
            alpha = -rng.randint(0, 3)
            eps = -rng.randint(0, 3)
            b = rand_noninteger(rng)
            g = rand_frac(rng, nonzero=True)
            t = rand_frac(rng, exclude=(0, 1))
            p = HeunParams.make(alpha=alpha, beta=b, gamma=g, epsilon=eps,
                                q=0, t=t)
            Papp = apparency_poly(p)
            Ppol = heun_poly_condition(p)
            if -alpha <= -eps and checked_i < 6:
                for r in self._roots(Ppol):
                    val = np.polyval(
                        list(reversed([complex(v.const_value())
                                       for v in [Papp.coeff_of("q", i)
                                                 for i in range(Papp.degree("q") + 1)]])), r)
                    scale = self._scale(Papp) * max(1.0, abs(r)) ** Papp.degree("q")
                    assert abs(val) < 1e-10 * scale
                checked_i += 1
            if -eps <= -alpha and checked_ii < 6:
                for r in self._roots(Papp):
                    val = np.polyval(
                        list(reversed([complex(v.const_value())
                                       for v in [Ppol.coeff_of("q", i)
                                                 for i in range(Ppol.degree("q") + 1)]])), r)
                    scale = self._scale(Ppol) * max(1.0, abs(r)) ** Ppol.degree("q")
                    assert abs(val) < 1e-10 * scale
                checked_ii += 1
        assert checked_i >= 6 and checked_ii >= 6


class TestReducibilityTrichotomy:
    def test_grid(self):
        # apparent q: one of the two polynomial-type witnesses must exist,
        # selected by the sign regime of alpha against the exponent gap
        for alpha in range(-5, 6):
            for eps in range(-5, 1):
                rng = make_rng(7000 + 13 * alpha + eps)
                n = -eps
                b = rand_noninteger(rng)
                g = rand_noninteger(rng)
                t = rand_frac(rng, exclude=(0, 1))
                p = HeunParams.make(alpha=alpha, beta=b, gamma=g, epsilon=eps,
                                    q=0, t=t)
                Papp = apparency_poly(p)
                cs = {k: float(v.const_value())
                      for k, v in Papp.coeffs_in("q").items()}
                dense = [cs.get(i, 0.0) for i in range(max(cs) + 1)]
                roots = np.roots(list(reversed(dense)))
                qstar = min(roots, key=lambda r: abs(r.imag))

                def cond_value(P):
                    coeffs = [complex(v.const_value())
                              for v in [P.coeff_of("q", i)
                                        for i in range(P.degree("q") + 1)]]
                    scale = max(abs(c) for c in coeffs) * max(1.0, abs(qstar)) ** (len(coeffs) - 1)
                    return abs(np.polyval(list(reversed(coeffs)), qstar)) / scale

                has_poly = None
                has_prefactored = None
                if alpha <= 0:
                    has_poly = cond_value(heun_poly_condition(p)) < 1e-8
                if alpha >= 1 - n:
                    Pt = polytype_condition_poly(p, 1 - p.gamma, 1 - p.delta, 0)
                    has_prefactored = cond_value(Pt) < 1e-8
                if alpha < 1 - n:
                    assert has_poly
                elif alpha > 0:
                    assert has_prefactored
                else:
                    assert has_poly or has_prefactored


class TestSeriesAt:
    @pytest.mark.parametrize("point,second", [("zero", False), ("zero", True),
                                              ("one", False), ("one", True),
                                              ("t", False)])
    def test_truncation_satisfies_equation(self, point, second):
        p = HeunParams.make(alpha=F(1, 2), beta=F(1, 5), gamma=F(3, 4),
                            epsilon=F(5, 3), q=F(1, 7), t=F(5, 2))
        K = 6
        ser = series_at(p, point, second, K)
        ring = p.ring
        z = RatFunc.of(ring.var("z"), ring)
        u = z - ser.point
        # w = u^rho * sum c_j u^j; apply L and clear the u^rho prefactor via
        # the quasi-function calculus when rho is fractional: here rho is a
        # rational so direct RatFunc powers only work for integers; use the
        # recurrence residual instead: re-run one order deeper and compare
        deeper = series_at(p, point, second, K + 1)
        assert deeper.coeffs[:K + 1] == ser.coeffs

    def test_infinity_series_exponent(self):
        p = HeunParams.symbolic()
        s = series_at(p, "infinity", False, 3)
        assert s.exponent == p.alpha
        s2 = series_at(p, "infinity", True, 3)
        assert s2.exponent == p.beta

    def test_infinity_transform_consistency(self):
        # u^2-substitution rules: transformed operator annihilates the
        # transformed rational function
        p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1,
                            q=1, t=2)
        L = heun_operator(p)
        Linf = transform_to_infinity(L)
        ring = p.ring
        u = RatFunc.of(ring.var("z"), ring)
        # pick f(z) = z^2: then f(1/u) = u^-2: L(f) transformed should equal
        # Linf applied to u^-2 (both as rational functions after z -> 1/u)
        f = RatFunc.of(ring.var("z"), ring) ** 2
        lhs = L.apply(f).subs({"z": 1 / u})
        rhs = Linf.apply(1 / (u * u))
        assert lhs == rhs


def test_frobenius_obstruction_surface():
    # strength -1, generic concrete q: the series stops at step 2 with the
    # obstruction equal to the apparency residual up to normalization
    p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1, q=2, t=2)
    ser = series_coeffs(p, 4)
    assert ser.log_coefficient is not None
    assert len(ser.coeffs) == 2
    papp = apparency_condition(p).subs({"q": p.q})
    assert not papp.is_zero
    # apparent instance continues through with the free coefficient zeroed
    pa = p.subs_q(1)
    ser2 = series_coeffs(pa, 4)
    assert ser2.log_coefficient is None
    assert len(ser2.coeffs) == 5
    assert ser2.coeffs[2].is_zero
