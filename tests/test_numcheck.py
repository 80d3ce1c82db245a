"""Numeric oracles: monodromy, reducibility, hypergeometric decomposition."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from heunfactor.exactalg import poly_eval
from heunfactor.factorize import ep2_instance, lvw_instance
from heunfactor.heun import HeunParams, frobenius_series, heun_operator, polynomial_solution
from heunfactor.numcheck import (
    InconclusiveError,
    IntegrationError,
    classify_apparent,
    decompose_2f1,
    heun_taylor,
    monodromy,
    product_relation_defect,
    reducibility_witness,
)

from conftest import make_rng, rand_frac, rand_noninteger

APPARENT = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-1,
                           q=1, t=2)


class TestMonodromy:
    def test_apparent_instance(self):
        M = monodromy(APPARENT, "t")
        assert M.distance_from_identity() < 1e-6

    def test_perturbed_instance(self):
        M = monodromy(APPARENT.subs_q(2), "t")
        assert M.distance_from_identity() > 1e-3

    def test_determinant_identity(self):
        # integer strength at t: both exponents integral, det = 1
        for p in (APPARENT, APPARENT.subs_q(2)):
            M = monodromy(p, "t")
            assert abs(M.det() - 1) < 1e-6

    @pytest.mark.parametrize("seed", [5, 13, 29])
    def test_determinant_identity_at_noninteger_exponents(self, seed):
        # Liouville: det M = e^{2 pi i (sum of the local exponents)}, the
        # exponents 0 and 1 - gamma (1 - delta, 1 - epsilon) of each loop
        rng = make_rng(seed)
        while True:
            g, e = rand_noninteger(rng), rand_noninteger(rng)
            p = HeunParams.make(alpha=rand_frac(rng), beta=rand_frac(rng), gamma=g,
                                epsilon=e, q=rand_frac(rng), t=rand_frac(rng, 12, 30, 4))
            d = p.delta.fraction()
            if d.denominator != 1:
                break
        for loop, exponent in (("zero", g), ("one", d), ("t", e)):
            want = cmath.exp(-2j * math.pi * float(exponent))
            assert abs(monodromy(p, loop).det() - want) < 1e-11

    def test_classification(self):
        assert classify_apparent(APPARENT) is True
        assert classify_apparent(APPARENT.subs_q(2)) is False

    def test_integrator_convergence(self):
        M1 = np.array(monodromy(APPARENT.subs_q(2), "t", tol=1e-10).entries)
        M2 = np.array(monodromy(APPARENT.subs_q(2), "t", tol=5e-11).entries)
        assert float(np.max(np.abs(M1 - M2))) < 10 * 1e-10

    def test_step_collapse_error(self):
        # the path's first vertex, the basepoint, is the singularity z = 0
        with pytest.raises(IntegrationError):
            monodromy(APPARENT, "t", basepoint=0j)

    @pytest.mark.parametrize("t,loop,basepoint", [
        (2, "t", 0.5),          # the edge to the circle about t crosses z = 1
        (F(1, 3), "one", 0.2),  # the edge to the circle about 1 crosses t
    ])
    def test_path_through_singularity_error(self, t, loop, basepoint):
        # the steps shrink toward the singularity until the path is declared
        # blocked, instead of stalling where z + h rounds back to z
        p = HeunParams.make(alpha=F(1, 3), beta=F(2, 5), gamma=F(1, 2),
                            epsilon=F(1, 3), q=F(1, 7), t=t)
        with pytest.raises(IntegrationError):
            monodromy(p, loop, basepoint=complex(basepoint))

    def test_product_relation(self):
        assert product_relation_defect(APPARENT) < 1e-5

    def test_product_relation_at_continuation_accuracy(self):
        # M_inf has condition number 1.4e10 here: a defect that inverts it
        # cannot fall below about 1e-7 however accurate the continuation
        assert product_relation_defect(APPARENT) < 1e-10

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_local_exponents_in_trace(self, seed):
        # exponents 0 and 1 - gamma at z = 0 (0 and 1 - delta at z = 1): the
        # loop's eigenvalues are 1 and e^{-2 pi i gamma} (e^{-2 pi i delta})
        rng = make_rng(seed)
        while True:
            g, e = rand_noninteger(rng), rand_frac(rng)
            a, b = rand_frac(rng), rand_frac(rng)
            p = HeunParams.make(alpha=a, beta=b, gamma=g, epsilon=e,
                                q=rand_frac(rng), t=rand_frac(rng, 12, 30, 4))
            d = p.delta.as_poly().const_value()
            if d.denominator != 1:
                break
        for loop, exponent in (("zero", g), ("one", d)):
            M = np.array(monodromy(p, loop).entries)
            want = 1 + np.exp(-2j * np.pi * float(exponent))
            got = np.trace(M)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestAgreementWithExactCondition:
    def test_small_agreement_suite(self):
        # exact apparent families against perturbed controls
        rng = make_rng(77)
        apparent, perturbed = [], []
        while len(apparent) < 4:
            a = rand_noninteger(rng)
            b = rand_noninteger(rng)
            g = rand_noninteger(rng)
            e1 = rand_frac(rng, nonzero=True)
            try:
                p = lvw_instance(a, b, g, e1)
                tf = p.t.as_poly().const_value()
            except Exception:
                continue
            if abs(tf) < F(1, 4) or abs(tf - 1) < F(1, 4) or abs(tf) > 8:
                continue
            apparent.append(p)
            perturbed.append(p.subs_q(p.q + F(1, 2)))
        while len(apparent) < 8:
            a = rand_noninteger(rng)
            b = rand_noninteger(rng)
            g = rand_noninteger(rng)
            try:
                p = ep2_instance(a, b, g)
                tf = p.t.as_poly().const_value()
            except Exception:
                continue
            if abs(tf) < F(1, 4) or abs(tf - 1) < F(1, 4) or abs(tf) > 8:
                continue
            apparent.append(p)
            perturbed.append(p.subs_q(p.q + 1))
        for p in apparent:
            assert classify_apparent(p) is True
        for p in perturbed:
            assert classify_apparent(p) is False


class TestReducibilityWitness:
    def test_witness_on_apparent_integer_alpha(self):
        w, best = reducibility_witness(APPARENT)
        assert w is not None
        assert best.angle_defect < 1e-5

    def test_generic_instance_recorded(self):
        # non-integer alpha: no claim either way; just record the defect
        p = HeunParams.make(alpha=F(1, 3), beta=F(2, 5), gamma=F(3, 7),
                            epsilon=F(109, 105), q=F(1, 2), t=3)
        w, best = reducibility_witness(p)
        assert best is not None  # observation, not an assertion

    def test_witness_direction_matches_polynomial_solution(self):
        # apparent + polynomial solution: the solution's value/derivative at
        # the basepoint spans an invariant line of both monodromies
        from heunfactor.xjacobi import x1_heun_params

        k, g, h = 2, F(1), F(1, 4)
        p = x1_heun_params(k, g, h)
        sol = polynomial_solution(p, p.q)
        y = sol.poly_as_ratfunc()
        dy = y.derivative("z")
        span = max(abs(complex(F(p.t.as_poly().const_value()))), 1.0)
        b = -0.61j * span
        v = np.array([y.eval_num({"z": b}), dy.eval_num({"z": b})])
        v = v / np.linalg.norm(v)
        w, best = reducibility_witness(p)
        assert w is not None
        wv = np.asarray(w.vector)
        overlap = abs(np.vdot(wv / np.linalg.norm(wv), v))
        assert overlap > 1 - 1e-6


class TestHelpers:
    def test_heun_taylor_solves_ode(self):
        p = APPARENT
        cs = heun_taylor(p, 0.5, 1.0, 0.3, order=60)
        # numeric second-derivative residual at a nearby point
        z = 0.55
        y = poly_eval(cs, z - 0.5)
        hstep = 1e-5
        yp = (poly_eval(cs, z + hstep - 0.5)
              - poly_eval(cs, z - hstep - 0.5)) / (2 * hstep)
        ypp = (poly_eval(cs, z + hstep - 0.5) - 2 * y
               + poly_eval(cs, z - hstep - 0.5)) / hstep ** 2
        a, b, g, d, e, q, t = 1, 2, 34 / 3, -19 / 3, -1, 1, 2
        P = g / z + d / (z - 1) + e / (z - t)
        R = (a * b * z - q) / (z * (z - 1) * (z - t))
        assert abs(ypp + P * yp + R * y) < 1e-4

    def test_heun_taylor_matches_the_exact_series(self):
        # the float recurrence against frobenius_series at an ordinary point,
        # whose c_0 = 1 and free c_1 = c1 fix the same solution
        rng = make_rng(19)
        generic = HeunParams.make(alpha=rand_frac(rng), beta=rand_frac(rng),
                                  gamma=rand_noninteger(rng), epsilon=rand_noninteger(rng),
                                  q=rand_frac(rng), t=rand_frac(rng, 12, 30, 4))
        for p in (APPARENT, generic):
            for c1 in (F(0), F(3, 10)):
                series = frobenius_series(heun_operator(p), F(1, 2), 0, 40, free_value=c1)
                got = heun_taylor(p, 0.5, 1.0, float(c1), order=40)
                assert len(got) == len(series.coeffs) == 41
                for g, c in zip(got, series.coeffs):
                    want = float(c.fraction())
                    assert abs(g - want) <= 1e-13 * abs(want)


def _apparent_ep2_noninteger(seed):
    rng = make_rng(seed)
    while True:
        a = rand_noninteger(rng)
        b = rand_noninteger(rng)
        g = rand_noninteger(rng)
        d = a + b + 3 - g
        bad = any(v.denominator == 1 for v in (a, b, b - g, b - d))
        if bad:
            continue
        try:
            p = ep2_instance(a, b, g)
        except Exception:
            continue
        tf = p.t.as_poly().const_value()
        # keep t clear of 0, 1 and of the sampling disc about 1/2
        if (F(1, 5) < abs(tf) and abs(tf - 1) > F(1, 5) and abs(tf) < 10
                and abs(tf - F(1, 2)) > F(9, 16)):
            return p


class TestDecomposition:
    def test_apparent_instance_fits(self):
        p = _apparent_ep2_noninteger(3)
        res = decompose_2f1(p)
        assert res.residual < 1e-8

    def test_broken_apparency_fails(self):
        p = _apparent_ep2_noninteger(3)
        res = decompose_2f1(p.subs_q(p.q + 1))
        assert res.residual > 1e-8

    def test_basis_element_fit_dominant(self):
        # fitting one basis function reproduces a one-hot coefficient vector
        import cmath
        import math

        from scipy.special import hyp2f1

        from heunfactor.numcheck import _cnum

        p = _apparent_ep2_noninteger(5)
        a, b, g = (_cnum(getattr(p, n)).real for n in ("alpha", "beta", "gamma"))

        def basis3(z):
            return z ** (1 - g) * hyp2f1(a - g + 3, b - g + 1, 2 - g, z)

        pts = [0.5 + 0.3 * cmath.exp(2j * math.pi * i / 16) for i in range(16)]
        hold = [0.5 + 0.22 * cmath.exp(2j * math.pi * (i + 0.5) / 8)
                for i in range(8)]
        res = decompose_2f1(p, sample_points=pts, holdout_points=hold)
        # now fit the basis element itself by hijacking the solution: the
        # member of the span must fit to machine precision
        from heunfactor import numcheck as nc

        orig = nc.heun_taylor
        try:
            nc.heun_taylor = lambda *a_, **k_: None

            def fake_eval(coeffs, u):   # the Taylor sum in u = z - 1/2
                return basis3(u + 0.5)

            orig_eval = nc.poly_eval
            nc.poly_eval = fake_eval
            out = decompose_2f1(p, sample_points=pts, holdout_points=hold)
            coeffs = np.abs(out.coefficients)
            assert out.residual < 1e-10
            assert coeffs[0] > 100 * max(np.delete(coeffs, 0))
        finally:
            nc.heun_taylor = orig
            nc.poly_eval = orig_eval

    def test_integer_hypothesis_rejected(self):
        from heunfactor.exactalg import UsageError

        p = HeunParams.make(alpha=-1, beta=F(2, 5), gamma=F(3, 7),
                            epsilon=-2, q=F(1, 2), t=3)
        with pytest.raises(UsageError):
            decompose_2f1(p)
