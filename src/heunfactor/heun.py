"""Heun's differential equation with an eye on the singularity z = t.

Covers construction of the canonical order-2 operator, the local series
recurrence about z = t, the apparency condition polynomial in the accessory
parameter, the Heun-polynomial condition, and polynomial / polynomial-type
solutions via gauge transformations.

Parameter values may be exact rationals or symbolic expressions; symbolic
accessory-parameter mode is the default for the condition polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactalg import (
    MultiPoly,
    RatFunc,
    Ring,
    UsageError,
    Value,
    _val,
    reduce_mod,
)
from .oredop import DiffOp

#: every exact computation shares this variable pool unless a caller brings
#: its own ring (the X1-Jacobi map, for instance, works over (z, q, g, h, k)).
BASE_VARS = ("z", "q", "alpha", "beta", "gamma", "delta", "epsilon", "t")


def base_ring(extra: Sequence[str] = ()) -> Ring:
    return Ring(BASE_VARS + tuple(extra))


class HeunConditionError(Exception):
    """gamma + delta + epsilon != alpha + beta + 1, or t in {0, 1}."""


class UnsupportedCaseError(Exception):
    """A parameter regime the engine deliberately does not guess at."""


class SolutionError(Exception):
    """A claimed solution fails; carries the nonzero residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _is_int(r: RatFunc) -> Optional[int]:
    """The exact integer value of a constant RatFunc, else None."""
    if not r.is_poly():
        return None
    p = r.as_poly()
    if not p.is_const():
        return None
    c = p.const_value()
    return c.numerator if c.denominator == 1 else None


def _as_fraction(r: RatFunc) -> Optional[Fraction]:
    if not r.is_poly():
        return None
    p = r.as_poly()
    if not p.is_const():
        return None
    return p.const_value()


@dataclass(frozen=True)
class HeunParams:
    """Parameter bundle of Heun's equation; validates the Fuchs relation."""

    ring: Ring
    alpha: RatFunc
    beta: RatFunc
    gamma: RatFunc
    delta: RatFunc
    epsilon: RatFunc
    q: RatFunc
    t: RatFunc

    @classmethod
    def make(cls, alpha, beta, gamma, epsilon, q, t,
             delta=None, ring: Ring | None = None) -> "HeunParams":
        """Build a bundle; delta defaults to alpha+beta+1-gamma-epsilon."""
        if ring is None:
            ring = base_ring()
        a, b, g, e = (_val(v, ring) for v in (alpha, beta, gamma, epsilon))
        qv, tv = _val(q, ring), _val(t, ring)
        d = a + b + 1 - g - e if delta is None else _val(delta, ring)
        return cls(ring, a, b, g, d, e, qv, tv)

    @classmethod
    def symbolic(cls, ring: Ring | None = None, **overrides) -> "HeunParams":
        """Fully symbolic bundle: atoms for alpha..t, delta derived."""
        if ring is None:
            ring = base_ring()
        vals = {n: RatFunc.of(ring.var(n), ring)
                for n in ("alpha", "beta", "gamma", "epsilon", "q", "t")}
        vals.update({k: _val(v, ring) for k, v in overrides.items()})
        return cls.make(ring=ring, **vals)

    def __post_init__(self):
        lhs = self.gamma + self.delta + self.epsilon
        rhs = self.alpha + self.beta + 1
        if lhs != rhs:
            raise HeunConditionError(
                "gamma + delta + epsilon != alpha + beta + 1")
        tf = _as_fraction(self.t)
        if tf is not None and tf in (0, 1):
            raise HeunConditionError(f"t = {tf} is a genuine singularity position")

    def subs_q(self, q_value: Value) -> "HeunParams":
        return replace(self, q=_val(q_value, self.ring))

    def swap_alpha_beta(self) -> "HeunParams":
        return replace(self, alpha=self.beta, beta=self.alpha)

    # -- JSON wire format (rationals as "p/q", symbols as {"sym": name}) ------

    def to_json(self) -> dict:
        out = {}
        for key in ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t"):
            v: RatFunc = getattr(self, key)
            f = _as_fraction(v)
            if f is not None:
                out[key] = str(f)
                continue
            if v.is_poly():
                p = v.as_poly()
                if p.num_terms() == 1:
                    (e, c), = p.terms()
                    if c == 1 and sum(e) == 1:
                        name = p.ring.names[e.index(1)]
                        out[key] = {"sym": name}
                        continue
            if key == "delta":
                continue  # derived expression; reconstructed on load
            raise UsageError(f"field {key} is not a serializable atom/rational")
        return out

    @classmethod
    def from_json(cls, obj: Mapping, ring: Ring | None = None) -> "HeunParams":
        if ring is None:
            ring = base_ring()

        def load(key):
            if key not in obj:
                return None
            v = obj[key]
            if isinstance(v, str):
                try:
                    return Fraction(v)
                except (ValueError, ZeroDivisionError):
                    raise UsageError(f"bad rational for {key}: {v!r}") from None
            if isinstance(v, Mapping) and set(v) == {"sym"} and isinstance(v["sym"], str):
                return RatFunc.of(ring.var(v["sym"]), ring)
            raise UsageError(f"bad value for {key}: {v!r}")

        kwargs = {k: load(k) for k in ("alpha", "beta", "gamma", "epsilon", "q", "t")}
        missing = [k for k, v in kwargs.items() if v is None]
        if missing:
            raise UsageError(f"missing Heun parameters: {missing}")
        return cls.make(delta=load("delta"), ring=ring, **kwargs)


def heun_operator(p: HeunParams) -> DiffOp:
    """The monic order-2 Heun operator for the bundle p."""
    ring = p.ring
    z = RatFunc.of(ring.var("z"), ring)
    one = RatFunc.of(1, ring)
    c1 = p.gamma / z + p.delta / (z - 1) + p.epsilon / (z - p.t)
    c0 = (p.alpha * p.beta * z - p.q) / z / (z - 1) / (z - p.t)
    return DiffOp(ring, "z", [c0, c1, one])


@dataclass(frozen=True)
class LocalSeries:
    """Truncated local solution sum c_j (z - point)^(exponent + j).

    ``log_coefficient`` is set (to the recurrence obstruction, a nonzero
    multiple of the true log coefficient) when the Frobenius step hits a
    vanishing multiplier with an inconsistent right-hand side; the series
    then stops at the obstruction index.  A vanishing multiplier with a
    consistent right side leaves that coefficient free; its index is
    reported in ``free_index`` and the chosen value in ``coeffs``.
    """

    point: RatFunc
    exponent: RatFunc
    coeffs: tuple
    log_coefficient: Optional[RatFunc] = None
    free_index: Optional[int] = None


def _reduce_num(r: RatFunc, modulus: Optional[MultiPoly], var: str = "q") -> RatFunc:
    if modulus is None or r.is_zero:
        return r
    return RatFunc(reduce_mod(r.num, modulus, var), r.den_factors())


def series_coeffs(p: HeunParams, order: int,
                  modulus: Optional[MultiPoly] = None,
                  free_value: Value = 0) -> LocalSeries:
    """Local series about z = t with exponent 0, c_0 = 1, from the generic
    Frobenius engine.

    With symbolic q, c_i is a polynomial of degree i in q.  When eps is a
    nonpositive integer the multiplier at i = 1 - eps vanishes: a nonzero
    right side stops the series with the obstruction in log_coefficient;
    otherwise c_i := free_value and the recurrence continues.
    """
    return frobenius_series(heun_operator(p), p.t, 0, order,
                            free_value=free_value, modulus=modulus)


def _monic_condition(obstruction: RatFunc, var: str = "q") -> RatFunc:
    """Scale a condition expression monic in `var` (coefficients may stay
    rational in the other parameters)."""
    n = obstruction.num
    deg = n.degree(var)
    if deg < 0:
        raise SolutionError("condition expression vanished identically")
    lead = RatFunc(n.coeff_of(var, deg), obstruction.den_factors())
    return obstruction / lead


def _monic_in_q(obstruction: RatFunc, ring: Ring, var: str = "q") -> MultiPoly:
    """Normalize a condition expression to a monic polynomial in `var`."""
    monic = _monic_condition(obstruction, var)
    if not monic.is_poly():
        raise UsageError(
            "condition coefficients are rational in the parameters; "
            "use the RatFunc condition variant")
    return monic.as_poly()


def apparency_poly(p: HeunParams) -> MultiPoly:
    """Monic condition polynomial P(q) of degree 1 - eps whose vanishing makes
    z = t an apparent singularity: ``apparency_condition`` with polynomial
    coefficients.  Requires eps a nonpositive integer (q symbolic, regardless
    of the q stored in p)."""
    if _is_int(p.epsilon) == 1:
        raise UnsupportedCaseError(
            "epsilon = 1 boundary case (degree-0 condition) is not covered")
    P = _monic_in_q(_apparency_obstruction(p, "apparency_poly"), p.ring)
    assert P.degree("q") == 1 - _is_int(p.epsilon)
    return P


def apparency_condition(p: HeunParams) -> RatFunc:
    """Monic-in-q apparency condition with possibly rational coefficients
    (covers bundles whose t is a rational expression of other parameters)."""
    return _monic_condition(_apparency_obstruction(p, "apparency condition"))


def _apparency_obstruction(p: HeunParams, name: str) -> RatFunc:
    """The i = 1 - eps obstruction of the z = t recurrence with q symbolic;
    ``name`` is the routine the epsilon error message names."""
    e = _is_int(p.epsilon)
    if e is None or e > 0:
        raise UsageError(f"{name} requires epsilon a nonpositive integer")
    ring = p.ring
    ser = series_coeffs(replace(p, q=RatFunc.of(ring.var("q"), ring)), 1 - e)
    if ser.log_coefficient is None:
        raise SolutionError("expected an obstruction at i = 1 - eps; got none")
    return ser.log_coefficient


def is_apparent(p: HeunParams, modulus: Optional[MultiPoly] = None) -> bool:
    """Exact apparency test of z = t for concrete (or ideal-reduced) q."""
    P = apparency_condition(p)
    val = P.subs({"q": p.q})
    val = _reduce_num(val, modulus)
    return val.is_zero


def heun_poly_condition(p: HeunParams) -> MultiPoly:
    """Monic condition polynomial in q (degree 1 - alpha) for a polynomial
    solution of degree -alpha.

    alpha must be a concrete nonpositive integer; beta, gamma, t may stay
    symbolic.  The recurrence is run with a symbolic third-singularity
    strength so its denominators never vanish, and the bundle's eps is
    substituted afterwards (the condition polynomial is polynomial in eps).
    """
    P = heun_poly_condition_ratfunc(p)
    if not P.is_poly():
        raise UsageError(
            "condition coefficients are rational in the parameters; "
            "use heun_poly_condition_ratfunc")
    out = P.as_poly()
    assert out.degree("q") == 1 - _is_int(p.alpha)
    return out


def heun_poly_condition_ratfunc(p: HeunParams) -> RatFunc:
    """Monic-in-q polynomial-solution condition, coefficients allowed to be
    rational expressions of the remaining parameters."""
    a = _is_int(p.alpha)
    if a is None or a > 0:
        raise UsageError("heun_poly_condition requires alpha a nonpositive integer")
    N = 1 - a
    ring = p.ring
    eps_atom = RatFunc.of(ring.var("epsilon"), ring)
    for name in ("beta", "gamma", "t"):
        v: RatFunc = getattr(p, name)
        if v.num.involves("epsilon") or any(f.involves("epsilon")
                                            for f in v.den_factors()):
            raise UsageError(f"{name} must not involve the epsilon atom")
    scratch = HeunParams.make(alpha=p.alpha, beta=p.beta, gamma=p.gamma,
                              epsilon=eps_atom, q=ring.var("q"), t=p.t, ring=ring)
    ser = series_coeffs(scratch, N)
    if ser.log_coefficient is not None:  # pragma: no cover - eps is symbolic
        raise SolutionError("unexpected obstruction with symbolic epsilon")
    P = _monic_condition(ser.coeffs[N])
    if p.epsilon != eps_atom:
        P = P.subs({"epsilon": p.epsilon})
    return P


@dataclass(frozen=True)
class PolySolution:
    """Polynomial(-type) solution prefactor + expansion in powers of (z - t)."""

    params: HeunParams
    coeffs: tuple                 # c_0 .. c_{N-1} in (z - t)^i
    sigma0: RatFunc
    sigma1: RatFunc
    sigmat: RatFunc

    def poly_as_ratfunc(self) -> RatFunc:
        """The polynomial part as a rational expression in z."""
        ring = self.params.ring
        z = RatFunc.of(ring.var("z"), ring)
        u = z - self.params.t
        out = RatFunc.of(0, ring)
        for i, c in enumerate(self.coeffs):
            out = out + c * u ** i
        return out

    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d].is_zero:
            d -= 1
        return d


def polynomial_solution(p: HeunParams, q_root: Value,
                        modulus: Optional[MultiPoly] = None) -> PolySolution:
    """Heun polynomial of degree -alpha at an exact root of the condition.

    Verifies c_N = 0 (exactly, or modulo the supplied ideal generator in q);
    raises SolutionError carrying the residual otherwise.
    """
    a = _is_int(p.alpha)
    if a is None or a > 0:
        raise UsageError("polynomial_solution requires alpha a nonpositive integer")
    N = 1 - a
    inst = p.subs_q(_val(q_root, p.ring))
    ser = series_coeffs(inst, N, modulus=modulus)
    if ser.log_coefficient is not None:
        raise SolutionError(
            "recurrence obstructed before degree -alpha (apparency fails)",
            residual=ser.log_coefficient)
    coeffs = list(ser.coeffs)
    if ser.free_index is not None and ser.free_index < N:
        # a coefficient mid-run was free (apparent singularity below the
        # target degree): the terminal condition is affine in it, so solve
        ser1 = series_coeffs(inst, N, modulus=modulus, free_value=1)
        slope = ser1.coeffs[N] - ser.coeffs[N]
        base = ser.coeffs[N]
        if slope.is_zero:
            if not base.is_zero:
                raise SolutionError(
                    "q_root is not a root of the polynomial condition",
                    residual=base)
        else:
            s = -base / slope
            coeffs = [c0 + s * (c1 - c0)
                      for c0, c1 in zip(ser.coeffs, ser1.coeffs)]
    cN = _reduce_num(coeffs[N], modulus)
    if not cN.is_zero:
        raise SolutionError("q_root is not a root of the polynomial condition",
                            residual=cN)
    zero = RatFunc.of(0, p.ring)
    return PolySolution(inst, tuple(coeffs[:N]), zero, zero, zero)


# -- gauge transformations and polynomial-type solutions ----------------------


def gauge_transform(p: HeunParams, sigma0: Value, sigma1: Value, sigmat: Value
                    ) -> HeunParams:
    """Parameters of the equation satisfied by u where y = z^s0 (z-1)^s1 (z-t)^st u.

    Derived mechanically: conjugate the operator by the prefactor and match
    the Heun normal form; construction asserts the match, so a bad sigma
    surfaces immediately.
    """
    ring = p.ring
    s0, s1, st = (_val(s, ring) for s in (sigma0, sigma1, sigmat))
    z = RatFunc.of(ring.var("z"), ring)
    L = heun_operator(p)
    W = s0 / z + s1 / (z - 1) + st / (z - p.t)
    dW = W.derivative("z")
    c1 = L.coeff(1) + 2 * W
    c0 = L.coeff(0) + L.coeff(1) * W + dW + W * W
    s = s0 + s1 + st
    new = HeunParams.make(
        alpha=p.alpha + s, beta=p.beta + s,
        gamma=p.gamma + 2 * s0, epsilon=p.epsilon + 2 * st,
        delta=p.delta + 2 * s1,
        q=_extract_accessory(c0, p.t, (p.alpha + s) * (p.beta + s), ring),
        t=p.t, ring=ring)
    conj = DiffOp(ring, "z", [c0, c1, RatFunc.of(1, ring)])
    if heun_operator(new) != conj:
        raise UsageError("gauge prefactor is not an exponent-menu choice "
                         "(conjugated operator is not in Heun form)")
    return new


def _extract_accessory(c0: RatFunc, t: RatFunc, ab: RatFunc, ring: Ring) -> RatFunc:
    """Read q off a zeroth coefficient (alpha beta z - q)/(z (z-1) (z-t))."""
    z = RatFunc.of(ring.var("z"), ring)
    P = c0 * z * (z - 1) * (z - t)
    cs = P.coeffs_in("z")
    if any(k > 1 for k in cs):
        raise UsageError("zeroth coefficient is not of Heun shape")
    lin = cs.get(1, RatFunc.of(0, ring))
    if lin != ab:
        raise UsageError("zeroth coefficient is not of Heun shape (z-part)")
    return -cs.get(0, RatFunc.of(0, ring))


@dataclass(frozen=True)
class NoSolution:
    reason: str


def polytype_solution(p: HeunParams, sigma0: Value, sigma1: Value, sigmat: Value,
                      modulus: Optional[MultiPoly] = None):
    """Polynomial-type solution z^s0 (z-1)^s1 (z-t)^st h(z), or NoSolution.

    The sigmas must be picked from {0, 1-gamma} x {0, 1-delta} x {0, 1-eps}.
    Implemented as a gauge transformation followed by polynomial_solution on
    the transformed bundle (whichever of its infinity exponents is a
    nonpositive integer takes the alpha role).
    """
    ring = p.ring
    s0, s1, st = (_val(s, ring) for s in (sigma0, sigma1, sigmat))
    zero = RatFunc.of(0, ring)
    menu = ((s0, (zero, 1 - p.gamma)), (s1, (zero, 1 - p.delta)),
            (st, (zero, 1 - p.epsilon)))
    for val, options in menu:
        if val != options[0] and val != options[1]:
            raise UsageError("sigma outside the local exponent menu")
    if s0.is_zero and s1.is_zero and st.is_zero:
        try:
            return polynomial_solution(p, p.q, modulus=modulus)
        except SolutionError as err:
            return NoSolution(f"no polynomial solution: {err}")
    gauged = gauge_transform(p, s0, s1, st)
    target = _polynomial_target(gauged)
    if target is None:
        return NoSolution(
            "integrality precondition unmet: neither transformed infinity "
            f"exponent ({gauged.alpha.pretty()}, {gauged.beta.pretty()}) "
            "is a nonpositive integer")
    try:
        sol = polynomial_solution(target, target.q, modulus=modulus)
    except SolutionError as err:
        return NoSolution(f"no polynomial part: {err}")
    return PolySolution(target, sol.coeffs, s0, s1, st)


def _polynomial_target(gauged: HeunParams) -> Optional[HeunParams]:
    """The gauged bundle with a nonpositive-integer infinity exponent in the
    alpha role (alpha first, then beta), or None when neither is one."""
    a, b = _is_int(gauged.alpha), _is_int(gauged.beta)
    if a is not None and a <= 0:
        return gauged
    if b is not None and b <= 0:
        return gauged.swap_alpha_beta()
    return None


def polytype_condition_poly(p: HeunParams, sigma0: Value, sigma1: Value,
                            sigmat: Value) -> MultiPoly:
    """Monic condition polynomial in the *original* q for a polynomial-type
    solution with the given prefactor."""
    ring = p.ring
    q_atom = RatFunc.of(ring.var("q"), ring)
    psym = replace(p, q=q_atom)
    target = _polynomial_target(gauge_transform(psym, sigma0, sigma1, sigmat))
    if target is None:
        raise UsageError("integrality precondition unmet for this prefactor")
    shift = target.q - q_atom  # affine, free of q
    if shift.num.involves("q"):
        raise UsageError("accessory shift unexpectedly involves q")
    P_hat = heun_poly_condition(replace(target, q=q_atom))
    composed = RatFunc.of(P_hat, ring).subs({"q": q_atom + shift})
    return _monic_in_q(composed, ring)


# -- generic Frobenius machinery ----------------------------------------------


def _falling(rho: RatFunc, k: int, ring: Ring) -> RatFunc:
    out = RatFunc.of(1, ring)
    for i in range(k):
        out = out * (rho - i)
    return out


def frobenius_series(L: DiffOp, point: Value, exponent: Value, order: int,
                     free_value: Value = 0,
                     modulus: Optional[MultiPoly] = None) -> LocalSeries:
    """Frobenius/Taylor coefficients of a solution sum c_j u^(rho+j), u = z - point.

    Works at ordinary and regular singular points.  At a vanishing multiplier
    with zero right side the coefficient is free: it is set to free_value and
    its index reported in free_index.  A vanishing multiplier with nonzero
    right side stops the series and stores the obstruction in
    log_coefficient.
    """
    ring = L.ring
    var = L.var
    pt = _val(point, ring)
    rho = _val(exponent, ring)
    z = RatFunc.of(ring.var(var), ring)
    shifted = [c.subs({var: z + pt}) for c in L.coeffs]
    # clear the denominator factors that involve var, each made monic in var
    fac: dict = {}
    for c in shifted:
        for f, k in c.den_factors().items():
            if f.involves(var):
                fac[f] = max(fac.get(f, 0), k)
    den = RatFunc.of(1, ring)
    leads: dict = {}
    for f, k in fac.items():
        den = den * RatFunc.of(f, ring) ** k
        lead = f.coeff_of(var, f.degree(var))
        leads[lead] = leads.get(lead, 0) + k
    cleared = [c * den * RatFunc(ring.one, leads) for c in shifted]
    acoef = []  # acoef[k][m] = coeff of u^m in a_k
    for c in cleared:
        acoef.append(c.coeffs_in(var))
    dmin = min(min(m - k for m in cs) for k, cs in enumerate(acoef) if cs)

    def T(j: int, d: int) -> RatFunc:
        out = RatFunc.of(0, ring)
        for k, cs in enumerate(acoef):
            m = d + k
            if m in cs:
                out = out + cs[m] * _falling(rho + j, k, ring)
        return out

    zero = RatFunc.of(0, ring)
    cs_out = [RatFunc.of(1, ring)]
    free_index = None
    for i in range(1, order + 1):
        rhs = zero
        for j in range(i):
            tj = T(j, dmin + i - j)
            if not tj.is_zero:
                rhs = rhs + cs_out[j] * tj
        rhs = _reduce_num(rhs, modulus)
        mult = T(i, dmin)
        if mult.is_zero:
            if not rhs.is_zero:
                return LocalSeries(pt, rho, tuple(cs_out), log_coefficient=rhs)
            cs_out.append(_val(free_value, ring))
            free_index = i
        else:
            cs_out.append(_reduce_num(-rhs / mult, modulus))
    return LocalSeries(pt, rho, tuple(cs_out), free_index=free_index)


def transform_to_infinity(L: DiffOp) -> DiffOp:
    """Rewrite an order-2 operator in u = 1/z (solutions compose with z = 1/u)."""
    if L.order != 2:
        raise UsageError("infinity transform implemented for order 2")
    ring, var = L.ring, L.var
    u = RatFunc.of(ring.var(var), ring)
    inv = RatFunc.of(1, ring) / u
    c2 = L.coeff(2).subs({var: inv})
    c1 = L.coeff(1).subs({var: inv})
    c0 = L.coeff(0).subs({var: inv})
    # d/dz = -u^2 d/du, d^2/dz^2 = u^4 d^2/du^2 + 2 u^3 d/du
    u2, u3, u4 = u * u, u ** 3, u ** 4
    return DiffOp(ring, var, [c0, c1 * (-u2) + c2 * 2 * u3, c2 * u4])


def series_at(p: HeunParams, point: str, second_exponent: bool, order: int,
              modulus: Optional[MultiPoly] = None) -> LocalSeries:
    """Local series at one of the four singular points.

    point in {"zero", "one", "t", "infinity"}; second_exponent picks
    {1-gamma, 1-delta, 1-eps, beta} instead of {0, 0, 0, alpha}.
    """
    ring = p.ring
    zero = RatFunc.of(0, ring)
    L = heun_operator(p)
    if point == "infinity":
        Linf = transform_to_infinity(L)
        rho = p.beta if second_exponent else p.alpha
        return frobenius_series(Linf, 0, rho, order, modulus=modulus)
    table = {
        "zero": (zero, 1 - p.gamma, RatFunc.of(0, ring)),
        "one": (zero, 1 - p.delta, RatFunc.of(1, ring)),
        "t": (zero, 1 - p.epsilon, p.t),
    }
    if point not in table:
        raise UsageError(f"unknown expansion point {point!r}")
    e0, e1, pt = table[point]
    rho = e1 if second_exponent else e0
    return frobenius_series(L, pt, rho, order, modulus=modulus)
