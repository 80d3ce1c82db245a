"""Batch verification front door.

Subcommands parse JSON instance files, dispatch to the library modules and
emit deterministic JSON or text reports with a CI-friendly exit-code
contract: 0 = pass, 1 = usage, schema or setting error, 2 = verification
failed (a degenerate instance or any other error of the machinery counts as
failed).  A file gets the same code run directly and inside a sweep.

Instance file schema (version 1):

    {
      "version": 1,
      "kind": "heun" | "apparent_fuchsian" | "xjacobi",
      "parameters": { ... kind-specific ... },
      "mode": "exact" | "numeric",          (optional, default "exact")
      "precision_bits": 300,                (optional, numeric mode)
      "seed": 0                             (optional)
    }

Rationals are "p/q" strings or JSON integers (never booleans) in every
kind; a symbolic entry names its own field's atom ({"sym": "alpha"} for
alpha, {"sym": "p2"} for p[1]); unknown keys are rejected.  kind-specific
parameters:

    heun:              alpha, beta, gamma, epsilon, q, t (delta optional,
                       derived from the Fuchs relation when absent)
    apparent_fuchsian: gamma, sing = [{"t": rat, "m": int}, ...] (the m
                       sum to at most MAX_MULTIPLICITY),
                       alpha+beta via "alpha","beta" or "delta"+"prod_ab";
                       optional "q" (M = 1) or "p" list (omit to leave the
                       accessory symbolic in exact mode / solved in numeric)
    xjacobi:           k (0..MAX_X1_DEGREE), g, h

Each command imports the layers it runs inside its cmd_* function, not at
the top of this module: every command is a fresh interpreter, and a cold
`apparency` or `x1` would otherwise pay for importing all of them.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .exactalg import RatFunc, UsageError
from .heun import (HeunParams, HeunConditionError, UnsupportedCaseError, apparency_poly,
                   base_ring)


class SchemaError(Exception):
    pass


#: the largest sum of sing multiplicities N an apparent_fuchsian file may
#: ask for.  Each unit of N is one e-atom of the factor ring, whose packed
#: monomial keys grow with its number of variables: N = 10^6 exhausts
#: memory building the ring.  On the Maier instance (gamma 34/3, alpha 1,
#: beta 2, t 2, q 1) N = 64 and 200 already exit 2 with a numerically
#: singular esym system at the default 300 bits.
MAX_MULTIPLICITY = 64

#: the largest degree k an x1 call or an xjacobi file may ask for.  The
#: exact checks grow fast in k: a cold ``heunfactor x1 K 1 1/4`` took
#: 0.45 s at k = 64, 2.9 s at k = 200, 30 s at k = 500 and ran past 40 s
#: at k = 1000.
MAX_X1_DEGREE = 64


def _rat(v, where: str) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"{where}: bad rational {v!r}: {e}") from None
    if type(v) is int:  # not bool: a JSON true/false is not a number
        return Fraction(v)
    raise SchemaError(f"{where}: rationals must be 'p/q' strings or integers, got {v!r}")


def _value(v, where: str, ring, atom: str) -> RatFunc:
    """An instance value in ``ring``: a rational (see _rat), or the atom
    ``atom`` when v is {"sym": atom}."""
    if isinstance(v, dict):
        if v != {"sym": atom}:
            raise SchemaError(f"{where}: bad symbol {v!r} (the atom is "
                              f"{{'sym': '{atom}'}})")
        return RatFunc.of(ring.var(atom), ring)
    return RatFunc.of(_rat(v, where), ring)


def _check_keys(obj: dict, allowed: set, where: str, required: set = frozenset()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def load_instance(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno} "
            f"(char {e.pos}): {e.msg}") from None
    except ValueError as e:  # an integer literal past Python's digit limit
        raise SchemaError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: instance must be a JSON object")
    _check_keys(obj, {"version", "kind", "parameters", "mode",
                      "precision_bits", "seed"}, str(path),
                required={"version", "kind", "parameters"})
    if type(obj["version"]) is not int or obj["version"] != 1:
        raise SchemaError(f"{path}: unsupported version {obj['version']!r}")
    if obj["kind"] not in ("heun", "apparent_fuchsian", "xjacobi"):
        raise SchemaError(f"{path}: unknown kind {obj['kind']!r}")
    if obj.get("mode", "exact") not in ("exact", "numeric"):
        raise SchemaError(f"{path}: mode must be 'exact' or 'numeric'")
    if not isinstance(obj["parameters"], dict):
        raise SchemaError(f"{path}: parameters must be an object")
    for key in ("precision_bits", "seed"):
        if type(obj.get(key, 0)) is not int:
            raise SchemaError(f"{path}: {key} must be an integer")
    return obj


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        for line in _textify(report):
            sys.stdout.write(line + "\n")


def _textify(obj, prefix="") -> list:
    if isinstance(obj, dict):
        items = [(k, obj[k]) for k in sorted(obj)]
    elif isinstance(obj, list):
        items = [(f"[{i}]", v) for i, v in enumerate(obj)]
    else:
        return [f"{prefix}{obj}"]
    lines = []
    for k, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{prefix}{k}:")
            lines.extend(_textify(v, prefix + "  "))
        else:
            lines.append(f"{prefix}{k}: {v}")
    return lines


# -- heun / apparency ------------------------------------------------------------
#
# Each cmd_* takes the values it reads and returns (report, exit code); only
# main prints.  Exceptions map to exit codes in _guarded, for direct runs and
# sweeps alike.


def _heun_from_parameters(params: dict) -> HeunParams:
    _check_keys(params, {"alpha", "beta", "gamma", "delta", "epsilon", "q", "t"},
                "parameters", required={"alpha", "beta", "gamma", "epsilon",
                                         "q", "t"})
    ring = base_ring()
    return HeunParams.make(ring=ring,
                           **{k: _value(v, k, ring, k) for k, v in params.items()})


def cmd_apparency(inst: dict) -> tuple:
    if inst["kind"] != "heun":
        raise SchemaError("apparency expects a 'heun' instance")
    p = _heun_from_parameters(inst["parameters"])
    P = apparency_poly(p)
    report = {
        "command": "apparency",
        "condition_polynomial": P.pretty(),
        "degree": P.degree("q"),
    }
    status = 0
    if all(getattr(p, n).fraction() is not None for n in ("alpha", "beta", "gamma", "t")):
        cd = {k: v.fraction() for k, v in RatFunc.of(P, p.ring).coeffs_in("q").items()}
        report["numeric_roots"] = [f"{r.real!r}{'+' if r.imag >= 0 else '-'}"
                                   f"{abs(r.imag)!r}j" for r in _float_roots(cd)]
    if p.q.fraction() is not None:
        val = RatFunc.of(P, p.ring).subs({"q": p.q})
        report["apparent"] = val.is_zero
        status = 0 if val.is_zero else 2
    return report, status


def _float_roots(cd: dict) -> list:
    """Sorted complex roots of the monic polynomial sum cd[k] q^k (exact
    coefficients).

    Zero low-order coefficients give roots at 0.  The others are found by an
    Aberth-Ehrlich iteration in doubles for q = 2^s x, with s the shift
    nearest 0 that brings every coefficient within about 2^(+-1000), so that
    none overflows or underflows a float (s = 0 whenever the coefficients
    fit); when no shift does both, the least one that avoids overflow.  A
    root whose imaginary part is below its error estimate is taken as real;
    then at most two exact dyadic Newton steps polish each root (`_polish`).
    """
    low = min(k for k, c in cd.items() if c)
    dense = [Fraction(cd.get(k, 0)) for k in range(low, max(cd) + 1)]
    n = len(dense) - 1
    roots = [0j] * low
    if n:
        # c.numerator.bit_length() - c.denominator.bit_length() is log2 |c| to 1;
        # c 2^(-s d) lies within 2^(+-1000) for lo <= s <= hi
        logs = [(c.numerator.bit_length() - c.denominator.bit_length(), n - k)
                for k, c in enumerate(dense[:-1]) if c]
        lo = max(-((1000 - l) // d) for l, d in logs)
        hi = min((l + 1000) // d for l, d in logs)
        s = min(max(0, lo), hi) if lo <= hi else max(0, lo)
        coeffs = [float(c / Fraction(2) ** (s * (n - k))) for k, c in enumerate(dense)]
        log2c = {k: math.log2(abs(c.numerator)) - math.log2(c.denominator) - s * (n - k)
                 for k, c in enumerate(dense) if c}
        xs = _aberth(coeffs, _newton_polygon_start(log2c, n))
        den = math.lcm(*(c.denominator for c in dense))
        ints = [c.numerator * (den // c.denominator) for c in dense]
        for x in xs:
            im = 0.0 if abs(x.imag) <= _newton(coeffs, x)[1] else x.imag
            roots.append(_polish(ints, _dyadic(x.real, s), _dyadic(im, s)))
    return sorted(roots, key=lambda r: (round(r.real, 10), round(r.imag, 10)))


def _newton_polygon_start(log2c: dict, n: int) -> list:
    """Aberth starting points: for each edge of the upper convex hull of the
    points (k, log2 |c_k|), as many points as the edge spans, on the circle
    whose radius the edge's slope gives (Bini's choice)."""
    hull = []
    for pt in sorted(log2c.items()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    zs = []
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        m, r = k1 - k0, 2.0 ** ((l0 - l1) / (k1 - k0))
        zs += [r * cmath.exp(2j * math.pi * (j / m + k0 / n) + 0.7j) for j in range(m)]
    return zs


def _newton(c: list, z: complex) -> tuple:
    """(p(z)/p'(z), n (|p(z)| + rounding bound) / |p'(z)|, whether |p(z)| is
    at the rounding level) for the float polynomial c (ascending, degree n).
    The second entry is the radius of a disc about z that holds a root.  For
    |z| > 1 the reversed polynomial is evaluated at 1/z, so that no power of
    z overflows."""
    n = len(c) - 1
    rev = abs(z) > 1
    w, seq = (1 / z, c) if rev else (z, reversed(c))
    p = dp = 0j
    bound = 0.0
    for ck in seq:
        dp = dp * w + p
        p = p * w + ck
        bound = bound * abs(w) + abs(ck)
    bound *= 2 * n * sys.float_info.epsilon
    if rev:
        # p(z) = z^n r(w), p'(z) = z^(n-1) (n r(w) - w r'(w))
        p, dp = p * z, n * p - w * dp
        bound *= abs(z)
    if dp == 0:
        return 0j, math.inf, True
    return p / dp, n * (abs(p) + bound) / abs(dp), abs(p) <= bound


def _aberth(c: list, zs: list) -> list:
    """Simultaneous roots of the float polynomial c from the starting points
    zs (Aberth-Ehrlich, updated in place); a root stops moving once its
    residual or its step is at the rounding level, or after 100 sweeps."""
    live = range(len(zs))
    for _ in range(100):
        moving = []
        for i in live:
            z = zs[i]
            N, _, small = _newton(c, z)
            if small:
                continue
            N /= 1 - N * sum(1 / (z - v) for j, v in enumerate(zs) if j != i)
            zs[i] = z - N
            if abs(N) > sys.float_info.epsilon * abs(zs[i]):
                moving.append(i)
        live = moving
        if not live:
            break
    return zs


#: the polished roots' working precision: twice a double's mantissa
POLISH_BITS = 106


def _polish(c: list, re: tuple, im: tuple) -> complex:
    """At most two exact dyadic Newton steps on the integer polynomial c
    (ascending, degree n; the exact coefficients over one common
    denominator) from z = re + i im, each part a dyadic (m, e) for m 2^e; a
    step is kept only when it lowers |p|.

    z is held as (a + ib) 2^-E with Gaussian integers, so that Horner on ints
    gives 2^(E n) p(z) and 2^(E (n-1)) p'(z) exactly, and the |p| comparison
    is exact too.  Each new iterate is rounded to POLISH_BITS per part;
    without that rounding the integers grow with every step."""
    n = len(c) - 1
    dc = [k * ck for k, ck in enumerate(c)][1:]
    z = _join(re, im)
    P = _horner(c, *z)
    for _ in range(2):
        a, b, E = z
        Qr, Qi = _horner(dc, *z)
        if not (Qr or Qi):
            break
        # z - p/p' = (w Q - P) / (Q 2^E), w = a + ib; times conj(Q) / |Q|^2
        Xr, Xi = a * Qr - b * Qi - P[0], a * Qi + b * Qr - P[1]
        d = (Qr * Qr + Qi * Qi) << E
        re2, im2 = _rounded(Xr * Qr + Xi * Qi, d), _rounded(Xi * Qr - Xr * Qi, d)
        z2 = _join(re2, im2)
        P2 = _horner(c, *z2)
        # |p(z2)| < |p(z)|: |P2| 2^(E n) < |P| 2^(E2 n), squared
        if not ((P2[0] ** 2 + P2[1] ** 2) << 2 * n * E
                < (P[0] ** 2 + P[1] ** 2) << 2 * n * z2[2]):
            break
        z, P, re, im = z2, P2, re2, im2
    return complex(_to_float(*re), _to_float(*im))


def _dyadic(x: float, s: int) -> tuple:
    """x 2^s as (m, e), m 2^e."""
    m, d = x.as_integer_ratio()
    return m, s - d.bit_length() + 1


def _join(re: tuple, im: tuple) -> tuple:
    """(a, b, E) with a + ib = (re + i im) 2^E exactly and E >= 0 the least
    such."""
    E = max([0] + [-e for m, e in (re, im) if m])
    return tuple(m << (e + E) if m else 0 for m, e in (re, im)) + (E,)


def _horner(c: list, a: int, b: int, E: int) -> tuple:
    """2^(E n) sum c[k] z^k at z = (a + ib) 2^-E as Gaussian integer parts,
    n = len(c) - 1."""
    re, im = c[-1], 0
    for k, ck in enumerate(reversed(c[:-1]), 1):
        re, im = re * a - im * b + (ck << E * k), re * b + im * a
    return re, im


def _rounded(num: int, den: int) -> tuple:
    """num/den (den > 0) rounded to POLISH_BITS bits, ties to even, as (m, e)."""
    if not num:
        return 0, 0
    n = abs(num)
    # the quotient n / (den 2^e) has POLISH_BITS + 2 or + 3 bits
    e = n.bit_length() - den.bit_length() - POLISH_BITS - 2
    q, r = divmod(n, den << e) if e >= 0 else divmod(n << -e, den)
    shift = q.bit_length() - POLISH_BITS
    m, rest, half = q >> shift, q & ((1 << shift) - 1), 1 << (shift - 1)
    if rest > half or (rest == half and (r or m & 1)):
        m += 1
    return (m if num > 0 else -m), e + shift


def _to_float(m: int, e: int) -> float:
    """m 2^e rounded to a double (to +-inf beyond the double range)."""
    try:
        return math.ldexp(float(m), e)
    except OverflowError:
        return math.copysign(math.inf, m)


# -- factorize -------------------------------------------------------------------


def _fuchsian_from_parameters(params: dict):
    """(gamma, delta, sing, prod_ab, p values, ring); a residue left out is
    its atom (through a symbolic q when M = 1)."""
    from . import factorize as fz

    _check_keys(params, {"gamma", "delta", "alpha", "beta", "prod_ab",
                         "sing", "q", "p"}, "parameters",
                required={"gamma", "sing"})
    gamma = _rat(params["gamma"], "gamma")
    if not isinstance(params["sing"], list):
        raise SchemaError("sing: must be a list of {t, m} objects")
    sing = []
    for i, s in enumerate(params["sing"]):
        _check_keys(s, {"t", "m"}, f"sing[{i}]", required={"t", "m"})
        if type(s["m"]) is not int or s["m"] < 1:
            raise SchemaError(f"sing[{i}].m must be a positive integer")
        sing.append((_rat(s["t"], f"sing[{i}].t"), s["m"]))
    N = sum(m for _, m in sing)
    if N > MAX_MULTIPLICITY:
        raise SchemaError(f"sing: the multiplicities sum to {N}, more than "
                          f"{MAX_MULTIPLICITY}")
    if "alpha" in params or "beta" in params:
        if not ("alpha" in params and "beta" in params):
            raise SchemaError("alpha and beta must be given together")
        alpha = _rat(params["alpha"], "alpha")
        beta = _rat(params["beta"], "beta")
        delta = alpha + beta - gamma + N + 1
        prod_ab = alpha * beta
    else:
        if "delta" not in params or "prod_ab" not in params:
            raise SchemaError("need alpha+beta or delta+prod_ab")
        delta = _rat(params["delta"], "delta")
        prod_ab = _rat(params["prod_ab"], "prod_ab")
    M = len(sing)
    ring = fz.factor_ring(M, N)
    if "q" in params or ("p" not in params and M == 1):
        if M != 1:
            raise SchemaError("'q' shortcut needs exactly one extra singularity")
        q = _value(params.get("q", {"sym": "q"}), "q", ring, "q")
        p_vals = [RatFunc.of(prod_ab * sing[0][0], ring) - q]
    elif "p" in params:
        if not isinstance(params["p"], list) or len(params["p"]) != M:
            raise SchemaError(f"p: must be a list with one entry per sing entry ({M})")
        p_vals = [_value(pv, f"p[{i}]", ring, f"p{i+1}")
                  for i, pv in enumerate(params["p"])]
    else:
        p_vals = [RatFunc.of(ring.var(f"p{k+1}"), ring) for k in range(M)]
    return gamma, delta, sing, prod_ab, p_vals, ring


def cmd_factorize(inst: dict, mode, precision_bits, tol_exp, seed) -> tuple:
    """``mode``, ``precision_bits`` and ``seed`` override the instance's own
    values unless None."""
    from . import factorize as fz

    if inst["kind"] != "apparent_fuchsian":
        raise SchemaError("factorize expects an 'apparent_fuchsian' instance")
    mode = mode or inst.get("mode", "exact")
    bits = precision_bits if precision_bits is not None else inst.get("precision_bits", 300)
    seed = seed if seed is not None else inst.get("seed", 0)
    gamma, delta, sing, prod_ab, p_vals, ring = _fuchsian_from_parameters(
        inst["parameters"])
    if mode == "exact":
        Lt = fz.ApparentFuchsian.from_p_form(gamma, delta, sing, prod_ab, p_vals, ring)
        rep = fz.verify_factorization(Lt, deep=True)  # see DEFAULT_EXACT_M1
    else:
        # a residue that is not a number (an atom) is solved for
        ps = [p.fraction() for p in p_vals]
        rep = fz.verify_factorization_numeric(
            gamma, delta, sing, prod_ab, p_vals=None if None in ps else ps,
            bits=bits, seed=seed, tol_exp=tol_exp)
    report = {"command": "factorize", "instance": inst["parameters"],
              **rep.to_json()}
    return report, 0 if rep.passed else 2


# -- x1 --------------------------------------------------------------------------


def cmd_x1(k: int, g, h, ortho_max=None) -> tuple:
    if not 0 <= k <= MAX_X1_DEGREE:
        raise SchemaError(f"k = {k} is outside 0..{MAX_X1_DEGREE}")
    if ortho_max is not None and ortho_max < 0:
        raise SchemaError(f"--ortho-max must be at least 0, got {ortho_max}")
    from . import xjacobi as xj

    g = _rat(g, "g")
    h = _rat(h, "h")
    if g == h:
        raise SchemaError("degenerate parameters: g = h")
    poly = xj.x1_jacobi(k, g, h)
    ode_ok = all(c == 0 for c in xj.x1_ode_residual(poly))
    heun_ok = xj.heun_annihilates_x1(k, g, h)
    _, factor_ok = xj.x1_apparency_factor(k, g, h)
    D_k = xj.x1_4f3_check(k, g, h)
    ortho = {}
    ortho_ok = True
    if ortho_max is not None:
        for j in range(min(ortho_max, k)):
            v, scale = xj.orthogonality_check(j, k, g, h)
            ortho[f"<{j},{k}>"] = repr(v)
            # absolute and relative to the diagonal: B(g + 3/2, h + 3/2)
            # can make any value small
            ortho_ok = ortho_ok and abs(v) < 1e-8 and abs(v) <= 1e-8 * scale
    passed = ode_ok and heun_ok and factor_ok and D_k != 0 and ortho_ok
    report = {
        "command": "x1",
        "k": k, "g": str(g), "h": str(h),
        "coefficients": [str(c) for c in poly.coeffs],
        "ode_annihilated": ode_ok,
        "heun_annihilated": heun_ok,
        "apparency_linear_factor": factor_ok,
        "proportionality_constant": str(D_k),
        "orthogonality": ortho,
        "pass": passed,
    }
    return report, 0 if passed else 2


# -- monodromy -------------------------------------------------------------------


def cmd_monodromy(inst: dict, tol: float) -> tuple:
    from . import numcheck

    if inst["kind"] != "heun":
        raise SchemaError("monodromy expects a 'heun' instance")
    p = _heun_from_parameters(inst["parameters"])
    M = numcheck.monodromy(p, "t", tol=tol)
    d = M.distance_from_identity()
    verdict = numcheck.apparency_verdict(d)
    report = {
        "command": "monodromy",
        "loop": "t",
        "distance_from_identity": repr(d),
        "verdict": verdict,
    }
    return report, 0 if verdict == "apparent" else 2


# -- sweep -----------------------------------------------------------------------


def _run_file(path, mode, precision_bits, tol, tol_exp, seed) -> tuple:
    """Run one instance file through the command its kind (and, for heun
    files, its mode) selects."""
    inst = load_instance(path)
    if inst["kind"] == "heun":
        if (mode or inst.get("mode", "exact")) == "numeric":
            return cmd_monodromy(inst, tol)
        return cmd_apparency(inst)
    if inst["kind"] == "apparent_fuchsian":
        return cmd_factorize(inst, mode, precision_bits, tol_exp, seed)
    params = inst["parameters"]
    _check_keys(params, {"k", "g", "h"}, "parameters", required={"k", "g", "h"})
    if type(params["k"]) is not int:
        raise SchemaError("parameters: k must be an integer")
    return cmd_x1(params["k"], params["g"], params["h"])


def _sweep_one(path_str: str, opts: dict) -> dict:
    """Worker: run one instance file, return its result entry (never raises)."""
    report, code, error = _guarded(lambda: _run_file(path_str, **opts))
    key, value = ("report", report) if error is None else ("error", error)
    return {"file": Path(path_str).name, "exit_code": code, key: value}


def _sweep_workers(files: int) -> int:
    """The sweep's worker count: HEUNFACTOR_THREADS, else the CPUs this
    process may run on; never more than ``files`` (a pool forks all its
    workers at once)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    raw = os.environ.get("HEUNFACTOR_THREADS") or str(cpus)
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise UsageError(f"HEUNFACTOR_THREADS must be a positive integer, got {raw!r}")
    return min(int(raw), files)


def cmd_sweep(directory: str, opts: dict) -> tuple:
    """``opts`` holds the settings forwarded to every file: mode,
    precision_bits, tol, tol_exp and seed."""
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"{root} is not a directory")
    paths = sorted(str(p) for p in root.glob("*.json"))
    workers = _sweep_workers(len(paths))
    # load every command's layers before the pool forks, so that no worker
    # imports them again
    for name in ("factorize", "_mpnum", "numcheck", "xjacobi"):
        importlib.import_module(f".{name}", __package__)
    import concurrent.futures

    if workers <= 1:
        results = [_sweep_one(p, opts) for p in paths]
    else:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(_sweep_one, paths, [opts] * len(paths)))
        except (OSError, PermissionError):
            results = [_sweep_one(p, opts) for p in paths]
    worst = max((r["exit_code"] for r in results), default=0)
    report = {
        "command": "sweep",
        "directory": str(root),
        "count": len(results),
        "results": results,
        "pass": worst == 0,
    }
    return report, worst


# -- exit codes and entry point --------------------------------------------------


#: a bad input or setting (exit 1; factorize's UnsupportedProfileError and
#: xjacobi's XJacobiError are UsageErrors); any other exception from the
#: verification machinery fails the run (exit 2)
USAGE_ERRORS = (SchemaError, UsageError, HeunConditionError, UnsupportedCaseError)


def _guarded(run) -> tuple:
    """(report, exit code, error message or None) of ``run()``; never raises
    an Exception."""
    try:
        report, code = run()
        return report, code, None
    except SchemaError as e:
        return None, 1, str(e)
    except Exception as e:
        return None, 1 if isinstance(e, USAGE_ERRORS) else 2, f"{type(e).__name__}: {e}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


FLAGS = {
    "mode": dict(choices=["exact", "numeric"], default=None),
    "precision_bits": dict(type=int, default=None),
    "tol": dict(type=float, default=1e-12),
    "tol_exp": dict(type=int, default=-60),
    "seed": dict(type=int, default=None),
    "ortho_max": dict(type=int, default=None),
}
SWEEP_FLAGS = ("mode", "precision_bits", "tol", "tol_exp", "seed")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="heunfactor",
                 description="exact and numeric verification of apparent-"
                             "singularity factorizations")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, positionals: dict, flags, run):
        # no abbreviations, so that --tol never stands for --tol-exp
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        for pos, typ in positionals.items():
            sp.add_argument(pos, type=typ)
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=True)
        fmt.add_argument("--text", dest="json", action="store_false")
        sp.set_defaults(run=run)

    # the lambdas look the cmd_* functions up when they run, not here
    command("apparency", "condition polynomial for z = t", {"instance": str}, (),
            lambda a: cmd_apparency(load_instance(a.instance)))
    command("factorize", "verify the operator factorization", {"instance": str},
            ("mode", "precision_bits", "tol_exp", "seed"),
            lambda a: cmd_factorize(load_instance(a.instance), a.mode, a.precision_bits,
                                    a.tol_exp, a.seed))
    command("x1", "exceptional-Jacobi checks", {"k": int, "g": str, "h": str},
            ("ortho_max",), lambda a: cmd_x1(a.k, a.g, a.h, a.ortho_max))
    command("monodromy", "numeric apparency oracle", {"instance": str}, ("tol",),
            lambda a: cmd_monodromy(load_instance(a.instance), a.tol))
    command("sweep", "run a directory of instances", {"directory": str}, SWEEP_FLAGS,
            lambda a: cmd_sweep(a.directory, {f: getattr(a, f) for f in SWEEP_FLAGS}))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report, code, error = _guarded(lambda: args.run(args))
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
        return code
    _emit(report, args.json)
    for r in report.get("results", ()):  # a sweep's failed files
        if "error" in r:
            sys.stderr.write(f"error: {r['file']}: {r['error']}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
