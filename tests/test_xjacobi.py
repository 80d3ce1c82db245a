"""Exceptional-Jacobi suite: construction, ODE, Heun map, orthogonality, 4F3."""

from fractions import Fraction as F

import pytest

from heunfactor.exactalg import RatFunc
from heunfactor.heun import heun_operator, heun_poly_condition_ratfunc
from heunfactor.xjacobi import (
    QuadratureError,
    X1Poly,
    XJacobiError,
    _gauss_jacobi,
    heun_annihilates_x1,
    jacobi_poly,
    orthogonality_check,
    x1_4f3_check,
    x1_apparency_factor,
    x1_heun_params,
    x1_jacobi,
    x1_ode_residual,
    xi_poly,
    xi_tilde_poly,
)

from conftest import make_rng, rand_frac


def jacobi_recurrence_oracle(k, g, h):
    """Independent three-term recurrence for the same normalization:
    P_k = ((a+1)_k / k!) 2F1(-k, k+a+b+1; a+1; (1-x)/2) with a = g - 1/2,
    b = h + 3/2 matches the module's parametrization."""
    a = F(g) - F(1, 2)
    b = F(h) + F(3, 2)
    if k == 0:
        return [F(1)]
    p_prev = [F(1)]
    p_cur = [(a - b) / 2, (a + b + 2) / 2]  # degree-1 member

    def padd(u, v):
        n = max(len(u), len(v))
        out = [F(0)] * n
        for i, c in enumerate(u):
            out[i] += c
        for i, c in enumerate(v):
            out[i] += c
        return out

    def shift_mul(u, c0, c1):
        # (c0 + c1 x) * u
        out = [F(0)] * (len(u) + 1)
        for i, c in enumerate(u):
            out[i] += c0 * c
            out[i + 1] += c1 * c
        return out

    for n in range(2, k + 1):
        n2ab = 2 * n + a + b
        A = F(n2ab - 1) * (n2ab) * (n2ab - 2)
        B = F(n2ab - 1) * (a * a - b * b)
        C = F(2) * (n + a - 1) * (n + b - 1) * n2ab
        D = F(2) * n * (n + a + b) * (n2ab - 2)
        new = padd(shift_mul(p_cur, B / D, A / D),
                   [-(C / D) * c for c in p_prev])
        p_prev, p_cur = p_cur, new
    return p_cur


class TestJacobi:
    def test_k0(self):
        assert jacobi_poly(0, F(1), F(1, 4)) == [F(1)]

    def test_k1_display_expansion(self):
        g, h = F(1), F(1, 4)
        got = jacobi_poly(1, g, h)
        # (g+1/2)(1 - ((g+h+3)/(g+1/2)) (1-eta)/2) expanded
        pre = g + F(1, 2)
        c = g + h + 3
        want = [pre - c / 2, c / 2]
        assert got == want

    @pytest.mark.parametrize("seed", range(4))
    def test_recurrence_oracle(self, seed):
        rng = make_rng(100 + seed)
        g = rand_frac(rng, lo=0, hi=6, den=4, nonzero=True)
        h = rand_frac(rng, lo=0, hi=6, den=4, nonzero=True)
        if g.denominator == 2 or h.denominator == 2:
            g, h = g + F(1, 3), h + F(1, 5)
        for k in range(9):
            assert jacobi_poly(k, g, h) == jacobi_recurrence_oracle(k, g, h)

    def test_excluded_parameters(self):
        with pytest.raises(XJacobiError):
            jacobi_poly(2, F(-3, 2), F(1, 4))


class TestX1Construction:
    def test_k0_is_xi_tilde(self):
        g, h = F(1), F(1, 4)
        assert list(x1_jacobi(0, g, h).coeffs) == xi_tilde_poly(g, h)

    def test_k1_exact_and_ode(self):
        poly = x1_jacobi(1, F(1), F(1, 4))
        assert poly.degree() == 2
        assert all(c == 0 for c in x1_ode_residual(poly))

    def test_degrees(self):
        g, h = F(1), F(1, 4)
        for k in range(11):
            assert x1_jacobi(k, g, h).degree() == k + 1

    def test_ode_random_parameters(self):
        rng = make_rng(55)
        for _ in range(6):
            g = rand_frac(rng, lo=0, hi=5, den=5, nonzero=True)
            h = rand_frac(rng, lo=0, hi=5, den=5, nonzero=True)
            if g.denominator == 2 or h.denominator == 2 or g == h:
                continue
            for k in (0, 2, 5):
                assert all(c == 0 for c in x1_ode_residual(x1_jacobi(k, g, h)))


class TestHeunMap:
    def test_parameter_echo_symbolic(self):
        p = x1_heun_params(None, None, None, symbolic=True)
        R = p.ring
        g, h, k = (RatFunc.of(R.var(n), R) for n in ("g", "h", "k"))
        assert p.alpha == -k - 1
        assert p.beta == k + g + h + 1
        assert p.gamma == g + F(3, 2)
        assert p.delta == h + F(3, 2)
        assert p.epsilon == RatFunc.of(-2, R)
        assert p.t == (g + F(1, 2)) / (g - h)
        assert p.q == (g + F(1, 2)) / (h - g) * (k * k + (g + h + 2) * k + g - h)
        # the two displayed forms of t agree
        assert p.t == (1 - p.gamma) / (p.alpha + p.beta - 2 * p.gamma + 3)

    def test_annihilation(self):
        for k in range(6):
            assert heun_annihilates_x1(k, F(1), F(1, 4))

    def test_annihilation_other_parameters(self):
        assert heun_annihilates_x1(3, F(7, 3), F(1, 5))

    def test_degenerate_g_equals_h(self):
        with pytest.raises(XJacobiError):
            x1_heun_params(1, F(1), F(1))

    def test_degenerate_half(self):
        with pytest.raises(XJacobiError):
            x1_heun_params(1, F(-1, 2), F(1, 4))
        with pytest.raises(XJacobiError):
            x1_heun_params(1, F(1), F(-1, 2))

    def test_apparency_linear_factor(self):
        for k in range(5):
            root, ok = x1_apparency_factor(k, F(1), F(1, 4))
            assert ok

    def test_k0_polynomial_condition_factors(self):
        # at the k = 0 bundle (alpha = -1) the quadratic condition splits as
        # (q - 1 + gamma)(q - beta gamma / (beta - 2 gamma + 2)) and the
        # bundle's accessory parameter is the first root
        from heunfactor.heun import HeunParams, base_ring

        R = base_ring()
        b, g = (RatFunc.of(R.var(n), R) for n in ("beta", "gamma"))
        den = b - 2 * g + 2
        t = (1 - g) / den
        p = HeunParams.make(alpha=-1, beta=b, gamma=g, epsilon=-2,
                            q=R.var("q"), t=t, ring=R)
        P = heun_poly_condition_ratfunc(p)
        qa = RatFunc.of(R.var("q"), R)
        assert P == (qa - 1 + g) * (qa - b * g / den)
        pk0 = x1_heun_params(0, F(1), F(1, 4))
        assert pk0.q == 1 - pk0.gamma

    def test_poly_condition_root_for_k_ge_1(self):
        # existence of the degree-(k+1) member forces the polynomial
        # condition to vanish at the bundle's accessory parameter
        for k in (1, 2, 3):
            p = x1_heun_params(k, F(1), F(1, 4))
            P = heun_poly_condition_ratfunc(p)
            assert P.subs({"q": p.q}).is_zero


class TestOrthogonality:
    def test_off_diagonal(self):
        v, scale = orthogonality_check(0, 1, F(1), F(1, 4))
        assert abs(v) < 1e-10 and abs(v) < 1e-13 * scale

    def test_diagonal_nonzero(self):
        v, scale = orthogonality_check(0, 0, F(1), F(1, 4))
        assert v > 1e-6
        # on the diagonal the scale is the value itself
        assert scale == pytest.approx(v, rel=1e-14)

    @pytest.mark.parametrize("k,g,h", [(5, F(1000), F(100)), (5, F(1), F(1, 4)),
                                       (8, F(7, 2), F(1, 3))])
    def test_off_diagonal_relative_to_the_diagonal(self, k, g, h):
        # worst measured: 4.5e-15 at (5, 1000, 100), where the scale is
        # below 1e-140
        for j in range(k):
            v, scale = orthogonality_check(j, k, g, h)
            assert abs(v) < 1e-13 * scale

    def test_random_parameters_off_diagonal(self):
        rng = make_rng(66)
        done = 0
        while done < 3:
            g = F(rng.randint(0, 3)) + F(1, 3)
            h = F(rng.randint(0, 3)) + F(1, 5)
            if g == h:
                continue
            assert abs(orthogonality_check(2, 5, g, h)[0]) < 1e-8
            done += 1

    def test_parameter_bounds(self):
        from heunfactor.exactalg import UsageError

        with pytest.raises(UsageError):
            orthogonality_check(0, 1, F(-3, 4), F(1, 4))


class TestGaussJacobi:
    @staticmethod
    def _errors(n, a, b):
        """(largest node error, largest relative weight error) of the rule
        against a 30-digit mpmath.gauss_quadrature reference, whose weights
        (for (1-x)^a (1+x)^b) are rescaled by 2^-(a+b+1)."""
        from mpmath import mp, mpf

        with mp.workdps(30):
            X, W = mp.gauss_quadrature(n, "jacobi", mpf(a), mpf(b))
            scale = mp.power(2, -(mpf(a) + mpf(b) + 1))
            ref = sorted(zip(X, (w * scale for w in W)), reverse=True)
            nodes, weights = _gauss_jacobi(n, a, b)
            return (max(abs(x - rx) for x, (rx, _) in zip(nodes, ref)),
                    max(abs(w / rw - 1) for w, (_, rw) in zip(weights, ref)))

    @pytest.mark.parametrize("n,a,b", [(19, 1.5, 0.75), (24, 7.5, 0.1),
                                       (38, 0.05, 8.05)])
    def test_rule_against_mpmath_at_30_digits(self, n, a, b):
        dx, dw = self._errors(n, a, b)
        assert dx <= 1e-15 and dw <= 1e-12

    @pytest.mark.parametrize("n,a,b", [(17, 300.5, 0.75), (34, 1.5, 1000.5),
                                       (40, 500.5, 300.5)])
    def test_large_exponents_against_mpmath(self, n, a, b):
        dx, dw = self._errors(n, a, b)
        assert dx <= 1e-15 and dw <= 1e-11

    @pytest.mark.parametrize("n,a", [(17, 300.5), (34, 300.5), (17, 1000.5)])
    def test_large_exponent_raises_or_is_right(self, n, a):
        # the rule is checked, not trusted: where it cannot be right it
        # raises instead of returning wrong nodes
        try:
            dx, dw = self._errors(n, a, 0.75)
        except QuadratureError:
            return
        assert dx <= 1e-12 and dw <= 1e-9


class Test4F3:
    def test_k0_proportional_to_xi_tilde(self):
        D0 = x1_4f3_check(0, F(1), F(1, 4))
        assert D0 == x1_jacobi(0, F(1), F(1, 4)).eval(F(1))

    def test_k_up_to_10(self):
        for k in range(11):
            assert x1_4f3_check(k, F(1), F(1, 4)) != 0

    def test_constant_is_value_at_one(self):
        for k in (1, 3, 5):
            Dk = x1_4f3_check(k, F(2), F(1, 3))
            assert Dk == x1_jacobi(k, F(2), F(1, 3)).eval(F(1))

    def test_random_parameters(self):
        rng = make_rng(88)
        done = 0
        while done < 4:
            g = rand_frac(rng, lo=0, hi=4, den=3, nonzero=True)
            h = rand_frac(rng, lo=0, hi=4, den=3, nonzero=True)
            if g == h or g.denominator == 2 or h.denominator == 2:
                continue
            assert x1_4f3_check(3, g, h) != 0
            done += 1
