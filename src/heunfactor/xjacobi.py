"""X1-Jacobi polynomials end to end.

Construction from the classical Jacobi family, the second-order equation
they satisfy, orthogonality against the weight with the xi^2 denominator,
the parameter map onto Heun's equation (third singularity apparent), and
the exact terminating-4F3 representation through the symmetric e-values.

Polynomials in eta are dense exact-rational coefficient lists, low degree
first; g and h are exact rationals (symbolic bundles are available for the
Heun parameter echo).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (RatFunc, Ring, UsageError, poly_add, poly_deriv, poly_eval,
                       poly_mul, poly_scale, poly_trim)
from .ghg import pfq_sym_eval, pochhammer
from .heun import HeunParams, base_ring, heun_operator


class XJacobiError(Exception):
    pass


class QuadratureError(Exception):
    pass


def _check_params(g: Fraction, h: Fraction):
    for name, v in (("g", g), ("h", h)):
        if v.denominator == 2 and v.numerator < 0:
            raise XJacobiError(f"{name} = {v} is an excluded half-integer")


@dataclass(frozen=True)
class X1Poly:
    """Exact coefficients of the degree-(k+1) exceptional polynomial."""

    k: int
    g: Fraction
    h: Fraction
    coeffs: tuple   # low degree first, length k+2

    def degree(self) -> int:
        return len(poly_trim(list(self.coeffs))) - 1

    def eval(self, x: Fraction) -> Fraction:
        return poly_eval(self.coeffs, Fraction(x))

    def eval_float(self, x: float) -> float:
        return poly_eval(self.coeffs, x)


def jacobi_poly(k: int, g, h) -> list:
    """Jacobi polynomial in the (g, h) parametrization:

        P_k(eta) = ((g+1/2)_k / k!) sum_j ((-k)_j (k+g+h+2)_j
                     / (j! (g+1/2)_j)) ((1-eta)/2)^j,

    exact coefficients, low degree first.
    """
    g, h = Fraction(g), Fraction(h)
    _check_params(g, h)
    half = Fraction(1, 2)
    pre = pochhammer(g + half, k) / pochhammer(Fraction(1), k)
    out = [Fraction(0)]
    one_minus_eta_half = [half, -half]   # (1 - eta)/2
    power = [Fraction(1)]
    for j in range(k + 1):
        den = pochhammer(Fraction(1), j) * pochhammer(g + half, j)
        if den == 0:
            raise XJacobiError("Pochhammer zero in the coefficient denominator")
        cj = pochhammer(Fraction(-k), j) * pochhammer(k + g + h + 2, j) / den
        out = poly_add(out, poly_scale(power, cj))
        power = poly_mul(power, one_minus_eta_half)
    return poly_scale(out, pre)


def xi_poly(g, h) -> list:
    g, h = Fraction(g), Fraction(h)
    return [Fraction(g + h + 1, 2), Fraction(g - h, 2)]


def xi_tilde_poly(g, h) -> list:
    g, h = Fraction(g), Fraction(h)
    return [Fraction(g + h + 3, 2), Fraction(g - h, 2)]


def x1_jacobi(k: int, g, h) -> X1Poly:
    """The degree-(k+1) exceptional polynomial

        ((h+1/2) xi~(eta) P_k(eta) + (1+eta) xi(eta) P_k'(eta)) / (k+h+1/2).
    """
    g, h = Fraction(g), Fraction(h)
    _check_params(g, h)
    Pk = jacobi_poly(k, g, h)
    half = Fraction(1, 2)
    den = k + h + half
    if den == 0:
        raise XJacobiError("k + h + 1/2 = 0")
    term1 = poly_scale(poly_mul(xi_tilde_poly(g, h), Pk), h + half)
    term2 = poly_mul(poly_mul([Fraction(1), Fraction(1)], xi_poly(g, h)), poly_deriv(Pk))
    coeffs = poly_scale(poly_add(term1, term2), 1 / den)
    coeffs = coeffs + [Fraction(0)] * (k + 2 - len(coeffs))
    poly = X1Poly(k, g, h, tuple(coeffs))
    if poly.degree() != k + 1:
        raise XJacobiError(f"degree {poly.degree()} != k + 1")
    return poly


def x1_ode_residual(poly: X1Poly) -> list:
    """Residual coefficients of the second-order equation for the exceptional
    family, multiplied through by xi(eta); identically zero for a genuine
    member (xi' = xi~' = (g-h)/2)."""
    g, h, k = poly.g, poly.h, poly.k
    y = list(poly.coeffs)
    dy = poly_deriv(y)
    d2y = poly_deriv(dy)
    xi = xi_poly(g, h)
    dxi = Fraction(g - h, 2)
    one_m_eta2 = [Fraction(1), Fraction(0), Fraction(-1)]
    half = Fraction(1, 2)
    t2 = poly_add(poly_mul(xi, [h - g, -(g + h + 3)]),
                  poly_scale(one_m_eta2, -2 * dxi))
    lam = Fraction(k) * (k + g + h + 2) + (g - h)
    t0 = poly_add(poly_scale([Fraction(1), Fraction(-1)], -2 * (h + half) * dxi),
                  poly_scale(xi, lam))
    res = poly_mul(poly_mul(xi, one_m_eta2), d2y)
    res = poly_add(res, poly_mul(t2, dy))
    res = poly_add(res, poly_mul(t0, y))
    return res


def x1_heun_params(k, g, h, ring: Ring | None = None,
                   symbolic: bool = False) -> HeunParams:
    """Heun bundle annihilating P_k^(X1)(1 - 2z):

        alpha = -k-1, beta = k+g+h+1, gamma = g+3/2, delta = h+3/2,
        eps = -2, t = (g+1/2)/(g-h),
        q = (g+1/2)/(h-g) * (k^2 + (g+h+2) k + g - h).

    g = h (and g or h = -1/2) are rejected: they put t at 0, 1 or infinity.
    """
    if symbolic:
        if ring is None:
            ring = base_ring(("g", "h", "k"))
        gv = RatFunc.of(ring.var("g"), ring)
        hv = RatFunc.of(ring.var("h"), ring)
        kv = RatFunc.of(ring.var("k"), ring)
    else:
        if ring is None:
            ring = base_ring()
        g, h = Fraction(g), Fraction(h)
        _check_params(g, h)
        if g == h:
            raise XJacobiError("g = h puts the extra singularity at infinity")
        if g == Fraction(-1, 2) or h == Fraction(-1, 2):
            raise XJacobiError("g or h = -1/2 puts the singularity at 0 or 1")
        gv = RatFunc.of(g, ring)
        hv = RatFunc.of(h, ring)
        kv = RatFunc.of(int(k), ring)
    half = Fraction(1, 2)
    t = (gv + half) / (gv - hv)
    q = (gv + half) / (hv - gv) * (kv * kv + (gv + hv + 2) * kv + gv - hv)
    return HeunParams.make(
        alpha=-kv - 1, beta=kv + gv + hv + 1, gamma=gv + Fraction(3, 2),
        delta=hv + Fraction(3, 2), epsilon=-2, q=q, t=t, ring=ring)


def heun_annihilates_x1(k: int, g, h) -> bool:
    """Exact check that the mapped operator kills P_k^(X1)(1 - 2z)."""
    poly = x1_jacobi(k, g, h)
    p = x1_heun_params(k, g, h)
    ring = p.ring
    z = RatFunc.of(ring.var("z"), ring)
    eta = 1 - 2 * z
    y = RatFunc.of(0, ring)
    power = RatFunc.of(1, ring)
    for c in poly.coeffs:
        y = y + power * c
        power = power * eta
    return heun_operator(p).apply(y).is_zero


def x1_apparency_factor(k, g, h):
    """(linear-factor root, quotient check): the apparency polynomial of the
    mapped bundle has the exact root
        q = -(gamma-1)(alpha beta + 2 alpha + 2 beta - 2 gamma + 4)
            / (alpha + beta - 2 gamma + 3),
    which is the bundle's own accessory parameter."""
    from .heun import apparency_poly

    p = x1_heun_params(k, g, h)
    a, b, gm = p.alpha, p.beta, p.gamma
    root = -(gm - 1) * (a * b + 2 * a + 2 * b - 2 * gm + 4) / (a + b - 2 * gm + 3)
    if root != p.q:
        raise XJacobiError("displayed linear-factor root differs from the bundle q")
    P = apparency_poly(p)
    val = RatFunc.of(P, p.ring).subs({"q": root})
    return root, val.is_zero


def orthogonality_check(j: int, k: int, g, h, quad_order: int | None = None
                        ) -> float:
    """Inner product of two family members for the weight
    (1-eta)^(g+1/2) (1+eta)^(h+1/2) / (2^(g+h+2) xi(eta)^2).

    Gauss-Jacobi quadrature with order doubling as convergence control;
    needs g, h > -1/2 so the weight is integrable and xi has no zero inside
    [-1, 1].  Off-diagonal values are zero up to quadrature accuracy.
    """
    # imported here, by its only user, so that importing the CLI does not
    # load scipy.special
    from scipy.special import roots_jacobi

    g, h = Fraction(g), Fraction(h)
    if g <= Fraction(-1, 2) or h <= Fraction(-1, 2):
        raise UsageError("orthogonality needs g, h > -1/2")
    pj = x1_jacobi(j, g, h)
    pk = x1_jacobi(k, g, h)
    xi = xi_poly(g, h)
    scale = 2.0 ** float(g + h + 2)
    if quad_order is None:
        quad_order = j + k + 12

    def integral(n):
        nodes, weights = roots_jacobi(n, float(g) + 0.5, float(h) + 0.5)
        total = 0.0
        for x, w in zip(nodes.tolist(), weights.tolist()):
            xiv = float(xi[0]) + float(xi[1]) * x
            total += w * pj.eval_float(x) * pk.eval_float(x) / (scale * xiv * xiv)
        return float(total)

    v1 = integral(quad_order)
    v2 = integral(2 * quad_order)
    ref = max(abs(v2), 1.0)
    if abs(v1 - v2) > 1e-9 * ref:
        raise QuadratureError(
            f"quadrature not converged: {v1!r} vs {v2!r} at doubled order")
    return v2


def x1_4f3_check(k: int, g, h) -> Fraction:
    """Exact proportionality of the family member against the terminating
    4F3 with the symmetric e-values

        E1 = 2 g,   E2 = -(k+1)(k+g+h+1)(2g+1) / (2h+1),

    evaluated at argument (1-eta)/2.  Returns the nonzero constant D_k with
    member = D_k * series; raises with the first mismatched coefficient
    otherwise.  D_k equals the member's value at eta = 1 (the series is 1
    at argument 0).
    """
    g, h = Fraction(g), Fraction(h)
    poly = x1_jacobi(k, g, h)
    E1 = 2 * g
    E2 = Fraction(-(k + 1), 1) * (k + g + h + 1) * (2 * g + 1) / (2 * h + 1)
    if E2 == 0:
        raise XJacobiError("E2 = 0: degenerate symmetric values")
    ring = Ring(("eta",))
    eta = RatFunc.of(ring.var("eta"), ring)
    series = pfq_sym_eval(k, g, h, E1, E2, (1 - eta) / 2, ring=ring)
    D_k = poly.eval(Fraction(1))
    if D_k == 0:
        raise XJacobiError("member vanishes at eta = 1; no proportionality constant")
    lhs = series * D_k
    got = {kk: v.as_poly().const_value() if v.is_poly() else None
           for kk, v in lhs.coeffs_in("eta").items()}
    for i, c in enumerate(poly.coeffs):
        gi = got.pop(i, Fraction(0))
        if gi != c:
            raise XJacobiError(
                f"coefficient of eta^{i} mismatches: {gi} vs {c}")
    if any(v != 0 for v in got.values()):
        raise XJacobiError("series has spurious high-degree terms")
    return D_k
