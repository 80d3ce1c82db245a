"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line with its elapsed time; the suite is the
go/no-go signal for the whole build.  Criteria:

  1  apparency closed forms (quadratic / cubic) exactly, < 1 s each
  2  polynomial-condition closed forms and solutions, < 1 s
  3  order-1 left-factor division in the quotient ring, < 10 s
  4  order-2 left factor: zero defect + closed-form esym, < 60 s
  5  profile coverage: exact m=3 (< 10 min), numeric m in {4,5},
     two-singularity m1+m2 <= 4, three-singularity (1,1,1) at 300 bits with
     defect < 1e-60, 5 random instances each, perturbed controls > 1e-10
  6  polynomial-condition/apparency implication on 100 random instances
  7  monodromy oracle agreement on 50 instances at 1e-6 / 1e-3
  8  quasi-polynomial verification (< 60 s) and hypergeometric-sum
     decomposition residual < 1e-8 on 5 instances
  9  exceptional-Jacobi suite for k <= 10, 20 random (g, h), < 5 min
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from heunfactor.exactalg import RatFunc, reduce_mod
from heunfactor.factorize import (
    ApparentFuchsian,
    _residue_atom_factor,
    ep2_instance,
    factor_ring,
    lvw_instance,
    random_profile_instance,
    solve_apparent_p,
    solve_esym,
    thm44_e1e2,
    thm44_left_factor,
    verify_factorization,
    verify_factorization_numeric,
)
from heunfactor.heun import (
    HeunParams,
    apparency_poly,
    heun_operator,
    heun_poly_condition,
    polynomial_solution,
)
from heunfactor.oredop import DiffOp

from conftest import make_rng, rand_frac, rand_noninteger


def report(n, label, t0):
    print(f"\nACCEPTANCE {n} PASS: {label} ({time.time() - t0:.2f}s)")


class TestCriterion1:
    def test_apparency_closed_forms(self, ep1q, ep2q):
        t0 = time.time()
        assert apparency_poly(HeunParams.symbolic(epsilon=-1)) == ep1q
        t1 = time.time() - t0
        assert t1 < 1.0
        t0b = time.time()
        assert apparency_poly(HeunParams.symbolic(epsilon=-2)) == ep2q
        assert time.time() - t0b < 1.0
        report(1, "apparency closed forms (quadratic and cubic) exact", t0)


class TestCriterion2:
    def test_polynomial_closed_forms(self, al1q, al2q, R, atoms):
        t0 = time.time()
        p1 = HeunParams.symbolic(alpha=-1)
        p2 = HeunParams.symbolic(alpha=-2)
        assert heun_poly_condition(p1) == al1q
        assert heun_poly_condition(p2) == al2q
        t_, e, q, b, g = (RatFunc.of(atoms[n], R)
                          for n in ("t", "epsilon", "q", "beta", "gamma"))
        P1 = heun_poly_condition(p1)
        sol1 = polynomial_solution(p1, R.var("q"), modulus=P1)
        s1 = t_ * (t_ - 1) * e
        assert sol1.coeffs[0] * s1 == s1
        assert sol1.coeffs[1] * s1 == q + b * t_
        P2 = heun_poly_condition(p2)
        sol2 = polynomial_solution(p2, R.var("q"), modulus=P2)
        s2 = 2 * t_ ** 2 * (t_ - 1) ** 2 * e * (e + 1)
        want = [s2,
                2 * t_ * (t_ - 1) * (e + 1) * (q + 2 * b * t_),
                q * q + ((3 * b - e + 1) * t_ + g + e) * q
                + 2 * b * t_ * ((b + 1) * t_ + g)]
        for got_c, want_c in zip(sol2.coeffs, want):
            d = got_c * s2 - want_c
            if not d.is_zero:
                d = RatFunc(reduce_mod(d.num, P2, "q"), d.den_factors())
            assert d.is_zero
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(2, "polynomial-condition closed forms and solutions exact", t0)


class TestCriterion3:
    def test_order1_left_factor(self):
        t0 = time.time()
        ring = factor_ring(1, 1)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = ApparentFuchsian.from_heun(a, b, g, 1, q, t, ring)
        es, work = solve_esym(Lt)
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed and rep.defect_max == "0"
        e1 = (q - (a + 1) * (b + 1) * t + g) / (1 - t) - 1
        assert es.values[0] == e1
        z = RatFunc.of(ring.var("z"), ring)
        one = RatFunc.of(1, ring)
        disp = DiffOp(ring, "z",
                      [(e1 + 1) / z + one / (z - 1) + one / (z - t), one])
        Q = DiffOp(ring, "z",
                   [c.subs({"e1": es.values[0]}) for c in work.quotient.coeffs])
        assert Q == disp
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(3, "order-1 left factor: zero remainder in quotient ring, "
                  "displayed quotient", t0)


class TestCriterion4:
    def test_order2_left_factor(self):
        t0 = time.time()
        ring = factor_ring(1, 2)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = ApparentFuchsian.from_heun(a, b, g, 2, q, t, ring)
        es, work = solve_esym(Lt)
        hp = HeunParams(ring, a, b, g, a + b - g + 3, RatFunc.of(-2, ring),
                        q, t)
        E1, E2, v = thm44_e1e2(hp)
        assert es.values[0] == E1
        assert es.values[1] == E2
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed
        disp = thm44_left_factor(hp, E1, v)
        sub = {"e1": es.values[0], "e2": es.values[1]}
        Q = DiffOp(ring, "z", [c.subs(sub) for c in work.quotient.coeffs])
        assert Q == disp
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(4, "order-2 left factor: zero defect, closed-form esym", t0)


class TestCriterion5:
    def test_exact_m3(self):
        t0 = time.time()
        ring = factor_ring(1, 3)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                         for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = ApparentFuchsian.from_heun(a, b, g, 3, q, t, ring)
        es, _ = solve_esym(Lt)
        rep = verify_factorization(Lt, esym=es)
        assert rep.passed
        elapsed = time.time() - t0
        assert elapsed < 600.0
        report(5, f"exact-symbolic zero defect at strength 3", t0)

    PROFILES = [(4,), (5,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1)]

    @staticmethod
    def panel(profile):
        """The five random instances of the numeric panel for a profile."""
        for i in range(5):
            yield i, random_profile_instance(
                profile, seed=1000 * sum(profile) + 37 * len(profile) + i)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_numeric_profiles(self, profile):
        t0 = time.time()
        for i, (gamma, delta, sing, prod_ab) in self.panel(profile):
            rep = verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                               bits=300, seed=i)
            assert rep.passed, (profile, i, rep.defect_max)
            assert float(rep.defect_max) < 1e-60
        elapsed = time.time() - t0
        assert elapsed < 600.0
        report(5, f"numeric zero defect below 1e-60, profile {profile}, "
                  "5 instances", t0)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_numeric_profiles_certified_exactly(self, profile):
        # the same instances with the residues as atoms: the exact lane
        # reduces the defect to zero modulo the apparency ideal
        t0 = time.time()
        for i, inst in self.panel(profile):
            rep = verify_factorization(_residue_atom_factor(*inst), deep=True)
            assert rep.passed, (profile, i, rep.defect_max)
            assert rep.defect_max == "0"
        report(5, f"exact zero defect, profile {profile}, the 5 numeric instances", t0)

    def test_sensitivity_controls(self):
        from mpmath import mp

        from heunfactor._mpnum import to_mpc

        t0 = time.time()
        for profile, seed in (((2,), 5), ((1, 1), 8)):
            gamma, delta, sing, prod_ab = random_profile_instance(profile,
                                                                  seed=seed)
            with mp.workprec(300):
                pv = solve_apparent_p(gamma, delta, sing, prod_ab, seed=2)
                for d in (1, F(1, 2), F(1, 7)):
                    bad = list(pv)
                    bad[0] = bad[0] + to_mpc(d)
                    rep = verify_factorization_numeric(
                        gamma, delta, sing, prod_ab, p_vals=bad, bits=300)
                    assert not rep.passed
                    assert float(rep.defect_max) > 1e-10
        report(5, "perturbed-accessory controls fail with defect > 1e-10", t0)


class TestCriterion6:
    @staticmethod
    def _poly_floats(P):
        cs = {k: complex(v.const_value()) for k, v in P.coeffs_in("q").items()}
        return [cs.get(i, 0j) for i in range(max(cs) + 1)]

    @staticmethod
    def _rational_roots(P):
        # monic over Q: clear denominators, try divisors of the constant term
        cs = {k: v.const_value() for k, v in P.coeffs_in("q").items()}
        deg = max(cs)
        den = 1
        for v in cs.values():
            den = den * v.denominator // __import__("math").gcd(
                den, v.denominator)
        ints = {k: int(v * den) for k, v in cs.items()}
        a0 = ints.get(0, 0)
        an = ints[deg]
        if a0 == 0:
            return [F(0)]
        out = []

        def divisors(n):
            n = abs(n)
            out = set()
            d = 1
            while d * d <= n:
                if n % d == 0:
                    out.add(d)
                    out.add(n // d)
                d += 1
            return out

        for pnum in divisors(a0):
            for pden in divisors(an):
                for sign in (1, -1):
                    cand = F(sign * pnum, pden)
                    val = F(0)
                    for k in range(deg, -1, -1):
                        val = val * cand + ints.get(k, 0)
                    if val == 0:
                        out.append(cand)
        return out

    def test_hundred_instances(self):
        t0 = time.time()
        exact_checks = numeric_checks = 0
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            rng = make_rng(3000 + seed)
            regime_i = count % 2 == 0
            eps = -rng.randint(0, 4)
            if regime_i:
                # polynomial solution forces apparency when -alpha <= -eps
                alpha = -rng.randint(0, max(0, -eps))
            else:
                # apparency forces a polynomial solution when -eps <= -alpha
                alpha = -rng.randint(-eps, -eps + 3)
            b = rand_noninteger(rng)
            g = rand_frac(rng, nonzero=True)
            t = rand_frac(rng, exclude=(0, 1))
            try:
                p = HeunParams.make(alpha=alpha, beta=b, gamma=g, epsilon=eps,
                                    q=0, t=t)
                Papp = apparency_poly(p)
                Ppol = heun_poly_condition(p)
            except Exception:
                continue
            if regime_i:
                src, dst = Ppol, Papp
            else:
                src, dst = Papp, Ppol
            dst_dense = self._poly_floats(dst)
            scale0 = max(abs(c) for c in dst_dense)
            for r in self._rational_roots(src):
                val = RatFunc.of(dst, p.ring).subs({"q": r})
                assert val.is_zero  # rational roots satisfy exactly
                exact_checks += 1
            for r in np.roots(list(reversed(self._poly_floats(src)))):
                val = np.polyval(list(reversed(dst_dense)), r)
                scale = scale0 * max(1.0, abs(r)) ** (len(dst_dense) - 1)
                assert abs(val) < 1e-10 * scale
                numeric_checks += 1
            count += 1
        assert numeric_checks > 150
        assert exact_checks >= 5
        report(6, f"implication suite on 100 instances "
                  f"({numeric_checks} numeric, {exact_checks} exact roots)", t0)


def _monodromy_panel():
    """25 exactly apparent instances + 25 perturbed controls."""
    apparent = []
    seed = 0
    while len(apparent) < 25:
        seed += 1
        rng = make_rng(4000 + seed)
        kind = len(apparent) % 2
        a = rand_noninteger(rng)
        b = rand_noninteger(rng)
        g = rand_noninteger(rng)
        try:
            if kind == 0:
                p = lvw_instance(a, b, g, rand_frac(rng, nonzero=True))
            else:
                p = ep2_instance(a, b, g)
        except Exception:
            continue
        tf = p.t.as_poly().const_value()
        if abs(tf) < F(1, 4) or abs(tf - 1) < F(1, 4) or abs(tf) > 8:
            continue
        apparent.append(p)
    deltas = [F(1), F(1, 2), F(1, 7)]
    perturbed = [p.subs_q(p.q + deltas[i % 3]) for i, p in enumerate(apparent)]
    return apparent, perturbed


class TestCriterion7:
    def test_agreement_suite(self):
        from heunfactor.numcheck import classify_apparent

        t0 = time.time()
        apparent, perturbed = _monodromy_panel()
        hits = 0
        for p in apparent:
            assert classify_apparent(p) is True
            hits += 1
        for p in perturbed:
            assert classify_apparent(p) is False
            hits += 1
        assert hits == 50
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(7, "monodromy oracle agrees with the exact condition on "
                  "50/50 instances", t0)


class TestCriterion8:
    def test_quasipoly_symbolic(self):
        from heunfactor.kstrans import verify_quasipoly

        t0 = time.time()
        rep = verify_quasipoly(HeunParams.symbolic(epsilon=-2))
        assert rep.passed
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(8, "quasi-polynomial integrand verified symbolically", t0)

    def test_decomposition_residuals(self):
        from heunfactor.numcheck import decompose_2f1

        t0 = time.time()
        done = 0
        seed = 0
        while done < 5:
            seed += 1
            rng = make_rng(5000 + seed)
            a = rand_noninteger(rng)
            b = rand_noninteger(rng)
            g = rand_noninteger(rng)
            d = a + b + 3 - g
            if any(v.denominator == 1 for v in (a, b, b - g, b - d)):
                continue
            try:
                p = ep2_instance(a, b, g)
            except Exception:
                continue
            tf = p.t.as_poly().const_value()
            if not (F(1, 5) < abs(tf) and abs(tf - 1) > F(1, 5)
                    and abs(tf) < 10 and abs(tf - F(1, 2)) > F(9, 16)):
                continue
            res = decompose_2f1(p)
            assert res.residual < 1e-8
            done += 1
        report(8, "hypergeometric-sum decomposition residual < 1e-8 on "
                  "5 instances", t0)


class TestCriterion9:
    def test_x1_suite(self):
        from heunfactor.xjacobi import (heun_annihilates_x1, orthogonality_check,
                                        x1_4f3_check, x1_apparency_factor,
                                        x1_jacobi, x1_ode_residual)

        t0 = time.time()
        rng = make_rng(6000)
        pairs = []
        while len(pairs) < 20:
            g = rand_frac(rng, lo=0, hi=5, den=5)
            h = rand_frac(rng, lo=0, hi=5, den=5)
            if g == h or g.denominator == 2 or h.denominator == 2:
                continue
            if g < 0 or h < 0:
                continue
            pairs.append((g, h))
        for g, h in pairs:
            for k in range(11):
                poly = x1_jacobi(k, g, h)
                assert all(c == 0 for c in x1_ode_residual(poly))
                assert x1_4f3_check(k, g, h) != 0
            for k in (0, 4, 10):
                assert heun_annihilates_x1(k, g, h)
                _, ok = x1_apparency_factor(k, g, h)
                assert ok
        # full annihilation/factorization depth at the reference pair
        for k in range(11):
            assert heun_annihilates_x1(k, F(1), F(1, 4))
            _, ok = x1_apparency_factor(k, F(1), F(1, 4))
            assert ok
        for j in range(7):
            for k in range(j + 1, 7):
                v, scale = orthogonality_check(j, k, F(1), F(1, 4))
                assert abs(v) < 1e-8 and abs(v) <= 1e-8 * scale
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(9, "exceptional-Jacobi suite: ODE, annihilation, "
                  "apparency factor, terminating-series identity, "
                  "orthogonality", t0)
