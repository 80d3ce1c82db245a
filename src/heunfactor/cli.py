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
`apparency` or `x1` would otherwise pay for importing all of them; a sweep,
which runs its files in its own process, loads only those its files need.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .exactalg import RatFunc, UsageError
from .heun import (HeunParams, HeunConditionError, UnsupportedCaseError, apparency_poly,
                   base_ring, condition_roots)


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

#: the largest degree 1 - epsilon an apparency condition may have.  The
#: exact recurrence grows fast in the degree: a cold ``apparency`` on the
#: paper's instance (gamma 34/3, alpha 1, beta 2, t 2, q 1) took 0.29 s at
#: degree 101, 1.0 s at 201, 1.7 s at 256 and 2.6 s at 301, and
#: epsilon = -10^18 ran until it was killed.
MAX_CONDITION_DEGREE = 256

#: the most digits an integer in an input literal may have: Python's
#: default limit on converting a string to an int.  `main` lifts that
#: limit, so that a report can print longer integers, but not for inputs.
MAX_LITERAL_DIGITS = 4300


def _rat(v, where: str) -> Fraction:
    if isinstance(v, str):
        # the most digits of an integer that Fraction(v) builds: its longest
        # digit run, or with an exponent the mantissa's digits plus the
        # exponent's magnitude
        s = v.replace("_", "")
        digits = max((len(d) for d in re.findall(r"\d+", s)), default=0)
        exp = re.search(r"[eE][-+]?(\d+)", s)
        if exp and digits <= MAX_LITERAL_DIGITS:
            digits = len(re.sub(r"\D", "", s[:exp.start()])) + int(exp[1])
        if digits > MAX_LITERAL_DIGITS:
            raise SchemaError(f"{where}: bad rational: an integer of more than "
                              f"{MAX_LITERAL_DIGITS} digits")
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


def _json_int(literal: str) -> int:
    """A JSON integer literal's value; ValueError past MAX_LITERAL_DIGITS."""
    if len(literal.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise ValueError(f"an integer literal of more than {MAX_LITERAL_DIGITS} digits")
    return int(literal)


def load_instance(path) -> dict:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    try:  # UTF-8 whatever the locale (json.loads of bytes would take UTF-16)
        obj = json.loads(data.decode("utf-8"), parse_int=_json_int)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno} "
            f"(char {e.pos}): {e.msg}") from None
    except ValueError as e:  # from _json_int
        raise SchemaError(f"{path}: malformed JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path}: malformed JSON: nested too deeply") from None
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
    e = p.epsilon.fraction()
    if e is not None and e.denominator == 1 and 1 - e > MAX_CONDITION_DEGREE:
        raise SchemaError(f"epsilon = {e}: the condition's degree 1 - epsilon is "
                          f"more than {MAX_CONDITION_DEGREE}")
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
                                   f"{abs(r.imag)!r}j" for r in condition_roots(cd)]
    if p.q.fraction() is not None:
        val = RatFunc.of(P, p.ring).subs({"q": p.q})
        report["apparent"] = val.is_zero
        status = 0 if val.is_zero else 2
    return report, status


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


def cmd_sweep(directory: str, opts: dict) -> tuple:
    """Run every ``*.json`` file of ``directory``, in name order, in this
    process; ``opts`` holds the settings forwarded to every file: mode,
    precision_bits, tol, tol_exp and seed."""
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"{root} is not a directory")
    results = []
    for path in sorted(root.glob("*.json")):
        report, code, error = _guarded(lambda: _run_file(path, **opts))
        key, value = ("report", report) if error is None else ("error", error)
        results.append({"file": path.name, "exit_code": code, key: value})
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
    # an exact report may print integers of more than Python's default 4300
    # digits: lift the limit for the command (every file of a sweep) and
    # restore it afterwards
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report, code, error = _guarded(lambda: args.run(args))
        if error is not None:
            sys.stderr.write(f"error: {error}\n")
            return code
        _emit(report, args.json)
        for r in report.get("results", ()):  # a sweep's failed files
            if "error" in r:
                sys.stderr.write(f"error: {r['file']}: {r['error']}\n")
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
