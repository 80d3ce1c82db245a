"""Generalized hypergeometric operator and series."""

import random
from fractions import Fraction as F

import pytest

from heunfactor.exactalg import RatFunc, Ring
from heunfactor.ghg import (
    GHGError,
    GHGParams,
    ghg_operator,
    ghg_operator_esym,
    pfq_eval,
    pfq_sym_eval,
    pochhammer,
)
from heunfactor.heun import base_ring
from heunfactor.oredop import DiffOp

from conftest import rand_frac


@pytest.fixture(scope="module")
def R():
    return base_ring()


class TestOperator:
    def test_third_order_display(self):
        ring = Ring(("z", "a1", "a2", "a3", "b1", "b2"))
        a1, a2, a3, b1, b2, z = (ring.var(n)
                                 for n in ("a1", "a2", "a3", "b1", "b2", "z"))
        L = ghg_operator(GHGParams.make([a1, a2, a3], [b1, b2], ring))
        c2 = RatFunc((a1 + a2 + a3 + 3) * z - (b1 + b2 + 1), {z: 1, z - 1: 1})
        c1 = RatFunc((a1 * a2 + a1 * a3 + a2 * a3 + a1 + a2 + a3 + 1) * z
                     - b1 * b2, {z: 2, z - 1: 1})
        c0 = RatFunc(a1 * a2 * a3, {z: 2, z - 1: 1})
        assert L == DiffOp(ring, "z", [c0, c1, c2, ring.one])

    def test_gauss_reduction(self, R):
        from heunfactor.heun import HeunParams, heun_operator

        a, b, g = R.var("alpha"), R.var("beta"), R.var("gamma")
        L = ghg_operator(GHGParams.make([a, b], [g], R))
        p = HeunParams.symbolic(epsilon=0, q=RatFunc(a * b * R.var("t")))
        assert L == heun_operator(p)

    def test_monic(self, R):
        rng = random.Random(5)
        for _ in range(5):
            ups = [rand_frac(rng, nonzero=True) for _ in range(3)]
            los = [rand_frac(rng, nonzero=True) for _ in range(2)]
            L = ghg_operator(GHGParams.make(ups, los, R))
            assert L.leading == RatFunc.of(1, R)

    def test_non_fuchsian_rejected(self, R):
        with pytest.raises(GHGError):
            ghg_operator(GHGParams.make([F(1), F(2)], [], R))

    def test_annihilates_truncated_series(self, R):
        rng = random.Random(6)
        K = 12
        z = R.var("z")
        for _ in range(4):
            ups = [rand_frac(rng, lo=1, hi=9, nonzero=True) for _ in range(3)]
            los = [rand_frac(rng, lo=1, hi=9, nonzero=True) for _ in range(2)]
            G = GHGParams.make(ups, los, R)
            L = ghg_operator(G)
            term = F(1)
            S = R.zero
            for n in range(K + 1):
                S = S + R.const(term) * z ** n
                num = F(1)
                for a in ups:
                    num *= a + n
                den = F(n + 1)
                for b in los:
                    den *= b + n
                term = term * num / den
            res = L.apply(RatFunc(S))
            val_num = min((e[R.index["z"]] for e, _ in res.num.terms()),
                          default=10 ** 9)
            val_den = sum(k for f, k in res.den_factors().items()
                          if f == R.var("z"))
            # residual coefficients of z^n vanish for n <= K - (q+1)
            assert val_num - val_den >= K - 3 + 1

    @staticmethod
    def _esym(es):
        sigma = [F(1)]
        for e in es:   # prod(x + e_i), one factor at a time
            sigma = [a + b * e for a, b in zip(sigma + [0], [0] + sigma)]
        return sigma[1:]

    def test_esym_route_matches_explicit(self, R):
        rng = random.Random(8)
        for N in range(1, 6):
            done = 0
            while done < 4:
                es = [rand_frac(rng, nonzero=True) for _ in range(N)]
                if len(set(es)) < N:
                    continue
                al, be, ga = (rand_frac(rng, nonzero=True) for _ in range(3))
                Ge = GHGParams.make([al, be] + [e + 1 for e in es], [ga] + es, R)
                sigma = [R.const(s) for s in self._esym(es)]
                assert ghg_operator(Ge) == ghg_operator_esym(al + be, al * be, ga, sigma, R)
                done += 1

    @pytest.mark.parametrize("N", [2, 4])
    def test_esym_route_matches_explicit_with_symbolic_parameters(self, R, N):
        al, be, ga = (RatFunc.of(R.var(n), R) for n in ("alpha", "beta", "gamma"))
        es = [F(1, 3), F(-2), F(5, 2), F(7, 4)][:N]
        Ge = GHGParams.make([al, be] + [e + 1 for e in es], [ga] + es, R)
        L2 = ghg_operator_esym(al + be, al * be, ga, [R.const(s) for s in self._esym(es)], R)
        assert ghg_operator(Ge) == L2

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_esym_operator_denominators_are_factored(self, N):
        ring = Ring(["z", "alpha", "beta", "gamma"] + [f"e{j}" for j in range(1, N + 1)])
        al, be, ga = (ring.var(n) for n in ("alpha", "beta", "gamma"))
        L = ghg_operator_esym(al + be, al * be, ga,
                              [ring.var(f"e{j}") for j in range(1, N + 1)], ring)
        z = ring.var("z")
        assert L.order == N + 2 and L.leading == 1
        for c in L.coeffs[:-1]:
            assert c.den_factors() == {z: N + 1, z - 1: 1}
            # the single composite factor the coefficients once carried
            assert c == RatFunc(c.num, {z ** (N + 2) - z ** (N + 1): 1}, _simplify=False)


class TestSeries:
    def test_two_term(self, R):
        G = GHGParams.make([F(-1), F(2, 3)], [F(5, 7)], R)
        out = pfq_eval(G, F(1, 2))
        assert out.terminated
        assert out.value == 1 - F(2, 3) / F(5, 7) * F(1, 2)

    def test_4f3_terminates_after_k_plus_2(self, R):
        k = 3
        G = GHGParams.make([F(-k - 1), F(4), F(5, 2), F(7, 2)],
                           [F(3, 2), F(3, 2), F(5, 2)], R)
        out = pfq_eval(G, F(1, 3))
        assert out.terminated and out.terms_used == k + 2

    def test_binomial_tail_bound(self, R):
        G = GHGParams.make([F(1, 3)], [], R)
        out = pfq_eval(G, F(1, 2), terms=40)
        assert not out.terminated and out.converged
        target = (1 - 0.5) ** (-1 / 3)
        assert abs(float(out.value) - target) <= float(out.tail_bound)

    def test_lower_pochhammer_zero(self, R):
        G = GHGParams.make([F(1, 2), F(1, 3)], [F(-2)], R)
        with pytest.raises(GHGError):
            pfq_eval(G, F(1, 5), terms=10)

    def test_divergent_flagged(self, R):
        G = GHGParams.make([F(3), F(4)], [F(1, 2)], R)
        out = pfq_eval(G, F(3), terms=12)
        assert not out.converged


class TestSymEval:
    def test_ratio_identity_small_n(self, R):
        # telescoped factor at n=0 is 1 and at n=1 is (E2+E1+1)/E2: compare a
        # one-step evaluation against the explicit formula
        E1, E2 = F(5, 2), F(-7, 3)
        v0 = pfq_sym_eval(0, F(1), F(1, 4), E1, E2, F(0), ring=R)
        assert v0 == RatFunc.of(1, R)  # only the n=0 ratio survives at z=0
        ring = Ring(("zz",))
        z = RatFunc.of(ring.var("zz"), ring)
        v = pfq_sym_eval(0, F(1), F(1, 4), E1, E2, z, ring=ring)
        c1 = v.coeffs_in("zz")[1]
        a1, a2, b1 = F(-1), F(1) + F(1, 4) + 1, F(1) + F(3, 2)
        want = RatFunc.of((E2 + E1 + 1) / E2 * a1 * a2 / b1, ring)
        assert c1 == want

    def test_matches_explicit_rational_e(self, R):
        rng = random.Random(9)
        done = 0
        while done < 100:
            e1 = rand_frac(rng, nonzero=True)
            e2 = rand_frac(rng, nonzero=True)
            g = rand_frac(rng, den=4)
            h = rand_frac(rng, den=4)
            k = rng.randint(0, 4)
            zv = rand_frac(rng, den=5)
            if g.denominator == 2 or h.denominator == 2:
                continue  # dodge excluded half-integers and lower-param zeros
            lower = [g + F(3, 2), e1, e2]
            if any(b.denominator == 1 and b <= 0 for b in lower):
                continue
            try:
                explicit = pfq_eval(GHGParams.make(
                    [F(-k - 1), k + g + h + 1, e1 + 1, e2 + 1], lower, R), zv)
            except GHGError:
                continue
            sym = pfq_sym_eval(k, g, h, e1 + e2, e1 * e2, zv, ring=R)
            assert sym == RatFunc.of(explicit.value, R)
            done += 1

    def test_k0_proportional_to_xi_tilde(self):
        # degree-1 output at (g, h) = (1, 1/4) is a multiple of xi~(1 - 2z)
        from heunfactor.xjacobi import xi_tilde_poly

        g, h = F(1), F(1, 4)
        E1 = 2 * g
        E2 = F(-1) * (g + h + 1) * (2 * g + 1) / (2 * h + 1)
        assert E2 == F(-9, 2)
        ring = Ring(("z",))
        z = RatFunc.of(ring.var("z"), ring)
        v = pfq_sym_eval(0, g, h, E1, E2, z, ring=ring)
        xt = xi_tilde_poly(g, h)  # in eta; eta = 1 - 2z
        target = RatFunc.of(xt[0] + xt[1], ring) - 2 * xt[1] * z
        c_v = v.coeffs_in("z")
        c_t = target.coeffs_in("z")
        ratio = c_t[1] / c_v[1]
        assert c_t[0] == c_v[0] * ratio

    def test_e2_zero_rejected(self, R):
        with pytest.raises(GHGError):
            pfq_sym_eval(1, F(1), F(1, 4), F(2), F(0), F(1, 2), ring=R)


def test_pochhammer():
    assert pochhammer(F(3, 2), 3) == F(3, 2) * F(5, 2) * F(7, 2)
    assert pochhammer(F(-2), 3) == 0
    assert pochhammer(F(5), 0) == 1
