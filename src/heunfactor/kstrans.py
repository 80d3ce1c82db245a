"""Algebraic side of the Kazakov-Slavyanov integral transform.

The transform with kernel (z - w)^(-eta), eta in {alpha, beta}, maps
solutions of a primed Heun equation to solutions of the original one.  This
module computes the primed parameter bundle, the degree-(-eps) quasi-
polynomial solution w^(beta-gamma) (w-1)^(beta-delta) h(w) of the primed
equation that exists when z = t is apparent, and verifies it symbolically in
the quotient ring by the apparency ideal.

Contour quadrature of the transform itself is out of scope; only the
integrand's differential equation is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactalg import MultiPoly, RatFunc, UsageError, reduce_mod
from .heun import (
    HeunParams,
    NoSolution,
    apparency_poly,
    heun_operator,
    polytype_solution,
    _is_int,
)
from .oredop import QuasiFunction


@dataclass(frozen=True)
class KSMap:
    """Primed parameter bundle of the integral transform."""

    eta_choice: str           # "alpha" | "beta"
    eta: RatFunc
    primed: HeunParams


def ks_params(p: HeunParams, eta_choice: str) -> KSMap:
    """Parameter map of the transform:

        gamma' = gamma - eta + 1,  delta' = delta - eta + 1,
        eps'   = eps - eta + 1,
        {alpha', beta'} = {2 - eta, alpha + beta - 2 eta + 1},
        q' = q + (1 - eta)(eps + delta t + (gamma - eta)(t + 1)).

    alpha' = 2 - eta is fixed as the first member; the primed bundle
    satisfies the Fuchs relation identically (asserted by construction).
    """
    if eta_choice not in ("alpha", "beta"):
        raise UsageError("eta_choice must be 'alpha' or 'beta'")
    eta = p.alpha if eta_choice == "alpha" else p.beta
    primed = HeunParams.make(
        alpha=2 - eta,
        beta=p.alpha + p.beta - 2 * eta + 1,
        gamma=p.gamma - eta + 1,
        delta=p.delta - eta + 1,
        epsilon=p.epsilon - eta + 1,
        q=p.q + (1 - eta) * (p.epsilon + p.delta * p.t
                             + (p.gamma - eta) * (p.t + 1)),
        t=p.t,
        ring=p.ring)
    return KSMap(eta_choice, eta, primed)


def ks_double_observation(p: HeunParams, first: str = "beta",
                          second: str = "alpha"):
    """Apply the map twice and hand back the result for inspection.

    Whether the double transform is projectively the identity is not settled
    here; this exists so sweeps can record the observation.
    """
    once = ks_params(p, first)
    twice = ks_params(once.primed, second)
    return once, twice


def h_poly_ep2(p: HeunParams) -> RatFunc:
    """The displayed quadratic h(w) of the eps = -2 quasi-polynomial solution:

        2 alpha (alpha+1) w^2 + 2 (alpha+1) {q - alpha (beta+2) t} w
          + q^2 - {(2 alpha beta + 3 alpha + beta + 1) t - gamma + 2} q
          + alpha t {t (alpha+1)(beta+1)(beta+2) - beta gamma}.
    """
    ring = p.ring
    a, b, g, q, t = p.alpha, p.beta, p.gamma, p.q, p.t
    w = RatFunc.of(ring.var("z"), ring)
    return (2 * a * (a + 1) * w * w
            + 2 * (a + 1) * (q - a * (b + 2) * t) * w
            + q * q - ((2 * a * b + 3 * a + b + 1) * t - g + 2) * q
            + a * t * (t * (a + 1) * (b + 1) * (b + 2) - b * g))


def quasipoly_h(p: HeunParams, modulus: Optional[MultiPoly] = None):
    """h(w) of degree -eps solved from the primed equation's polynomial-type
    condition (gauge to exponents (1-gamma', 1-delta', 0), then recurrence).

    Covers every eps in Z_{<=0}, not just the displayed eps = -2 case.
    Returns the PolySolution (polynomial part in powers of (w - t)) or
    NoSolution with the failed precondition.
    """
    ks = ks_params(p, "beta")
    pr = ks.primed
    return polytype_solution(pr, 1 - pr.gamma, 1 - pr.delta, 0, modulus=modulus)


@dataclass(frozen=True)
class QuasipolyReport:
    passed: bool
    residual: RatFunc
    h_used: RatFunc


def verify_quasipoly(p: HeunParams, h: Optional[RatFunc] = None,
                     use_display: bool = True) -> QuasipolyReport:
    """Check that v(w) = w^(beta-gamma) (w-1)^(beta-delta) h(w) solves the
    primed equation modulo the apparency ideal of the original one.

    With symbolic q the check runs in Q(alpha,beta,gamma,t)[q]/(P_app); for
    eps = -2 the displayed h(w) is used by default, otherwise (or with
    use_display=False) h comes from the primed polynomial-type condition.
    """
    e = _is_int(p.epsilon)
    if e is None or e > 0:
        raise UsageError("verify_quasipoly requires eps a nonpositive integer")
    modulus = apparency_poly(p)
    ring = p.ring
    ks = ks_params(p, "beta")
    pr = ks.primed
    if h is None:
        if e == -2 and use_display:
            h = h_poly_ep2(p)
        else:
            sol = quasipoly_h(p, modulus=modulus)
            if isinstance(sol, NoSolution):
                raise UsageError(f"no quasi-polynomial candidate: {sol.reason}")
            h = sol.poly_as_ratfunc()
    v = QuasiFunction(ring, "z", p.beta - p.gamma, p.beta - p.delta, h)
    L = heun_operator(pr)
    res = L.apply_quasi(v).rational_part
    if res.is_zero:
        return QuasipolyReport(True, res, h)
    reduced = RatFunc(reduce_mod(res.num, modulus, "q"), res.den_factors())
    return QuasipolyReport(reduced.is_zero, reduced, h)
