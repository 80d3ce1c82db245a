"""The four benchmark workloads: fixed panels, timed operations, checks.

A workload is a list of operations that make up one pass.  Each operation
returns the program's output; its check reads that output and compares it
with ``reference`` (never with a stored copy of earlier output) and returns
one status per verdict: ``ok``, ``wrong`` (the program answered, and the
answer is not right) or ``error`` (the program raised or reported an
error instead of a verdict).

Panels are fixed: the instance data never depends on ``--seed``, because
drawing fresh instances moves single verdicts by more than any bound.  The
seed drives what does not change the amount of work: the order of the
operations in a pass and the perturbation of the control instances (every
offset it can draw leaves every control clearly non-apparent).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

from mpmath import mp

import reference as ref
from reference import UPoly

NAMES = ("exact-symbolic", "exact-groebner", "numeric-300bit", "cli-sweep")
GROEBNER_PROFILES = ((1, 1), (2, 1), (2, 2), (3, 1), (1, 3), (1, 1, 1))
TOL_EXP = -60          # the numeric pass bound 10^-60 at 300 bits
CONTROL_FLOOR = 1e-10  # perturbed controls must exceed this defect
CONTROL_OFFSETS = tuple(s * F(1, d) for s in (1, -1) for d in (1, 2, 3, 5, 7))


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable                  # output -> list of statuses
    digest: Callable = repr          # output -> hashable summary the check reads
    key: bool = False                # the workload's key verdict
    verdicts: int = 1
    swell: Callable | None = None    # output -> (max terms, max coefficient bits)
    margins: Callable | None = None  # output -> tol_exp - log10(defect) values


@dataclass
class Workload:
    name: str
    nominal_pass_s: float            # pass wall time used to fix the pass count
    ops: list
    warmup: list
    traced_ops: list | None = None   # in-process variant for the traced run
    key_repeats: int = 1             # key verdict samples per pass
    cold: Callable | None = None     # one fresh-interpreter CLI call
    children: SubprocessCLI | None = None  # peak memory is that of these CLI calls
    checked: dict = field(default_factory=dict)

    def check(self, op: Op, out) -> list:
        """Statuses for one output; identical outputs are checked once."""
        try:
            k = (op.label, op.digest(out))
        except Exception:
            k = None
        if k is not None and k in self.checked:
            return self.checked[k]
        try:
            st = op.check(out)
        except Exception as e:   # a check that cannot read the output
            sys.stderr.write(f"check {op.label}: {type(e).__name__}: {e}\n")
            st = ["wrong"] * op.verdicts
        if k is not None:
            self.checked[k] = st
        return st


def ok(cond: bool) -> list:
    return ["ok" if cond else "wrong"]


# -- seeded helpers ---------------------------------------------------------------


def rfrac(rng, lo=-6, hi=6, den=7, nonint=False, avoid=()):
    while True:
        f = F(rng.randint(lo, hi), rng.randint(2 if nonint else 1, den))
        if nonint and f.denominator == 1:
            continue
        if f != 0 and f not in avoid:
            return f


def check_points(n: int = 2) -> list:
    """Fixed rational (alpha, beta, gamma, t, eps) points at which symbolic
    outputs are evaluated."""
    rng = random.Random("check-points")
    out = []
    while len(out) < n:
        a, b, g = (rfrac(rng, nonint=True) for _ in range(3))
        t = rfrac(rng, -9, 9, 5, avoid=(0, 1))
        e = rfrac(rng, nonint=True)
        if len({a, b, g}) == 3:
            out.append((a, b, g, t, e))
    return out


def control_offsets(seed: int, n: int) -> list:
    """Perturbations of the control instances (each clearly non-apparent)."""
    rng = random.Random(f"controls-{seed}")
    return [rng.choice(CONTROL_OFFSETS) for _ in range(n)]


def panel_instance(profile: tuple, tag: str, beta=None):
    """Fixed rational (gamma, delta, sing, prod_ab) for one profile, with
    non-integer gamma and delta; ``beta`` pins beta (terminating series)."""
    rng = random.Random(f"{tag}-{profile}-{beta}")
    N = sum(profile)
    while True:
        gamma = rfrac(rng, den=5) + F(1, 7)
        alpha = rfrac(rng, den=5)
        b = F(beta) if beta is not None else rfrac(rng, den=5)
        delta = alpha + b - gamma + N + 1
        ts = []
        while len(ts) < len(profile):
            c = F(rng.randint(-8, 8), rng.randint(1, 4))
            if c not in (0, 1) and c not in ts:
                ts.append(c)
        S, P = alpha + b, alpha * b
        if alpha == b or gamma.denominator == 1 or delta.denominator == 1:
            continue
        if not ref.nonterminating(S + 2 * (1 - gamma), P + (1 - gamma) * S + (1 - gamma) ** 2, N):
            continue
        if beta is None and not ref.nonterminating(S, P, N):
            continue
        return gamma, delta, list(zip(ts, profile)), alpha * b, alpha, b


def rel_close(x, y, tol) -> bool:
    return abs(x - y) <= tol * max(1, abs(x), abs(y))


# -- exact-symbolic -------------------------------------------------------------


def _exact_pass_symbolic(hf) -> tuple:
    fz, heun, kstrans = hf.factorize, hf.heun, hf.kstrans
    RatFunc = hf.exactalg.RatFunc
    pts = check_points()
    ops = []

    for m in (1, 2, 3):
        ring = fz.factor_ring(1, m)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring) for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = fz.ApparentFuchsian.from_heun(a, b, g, m, q, t, ring)

        def run(Lt=Lt):
            es, work = fz.solve_esym(Lt)
            return es, work, fz.verify_factorization(Lt, esym=es)

        ops.append(Op(f"factorize-m{m}", run, lambda out, m=m: ok(_check_sym_fact(m, out, pts)),
                      digest=_fact_digest, key=(m == 3), swell=_swell))

    for eps in (-1, -2, -3, -4):
        p = heun.HeunParams.symbolic(epsilon=eps)
        ops.append(Op(f"apparency-eps{eps}", lambda p=p: heun.apparency_poly(p),
                      lambda P, eps=eps: ok(_check_app_poly(eps, P, pts)),
                      digest=lambda P: P.pretty()))
    for al in (-1, -2, -3):
        p = heun.HeunParams.symbolic(alpha=al)
        ops.append(Op(f"heunpoly-alpha{al}", lambda p=p: heun.heun_poly_condition(p),
                      lambda P, al=al: ok(_check_hpc(al, P, pts)),
                      digest=lambda P: P.pretty()))
    p = heun.HeunParams.symbolic(epsilon=-2)
    ops.append(Op("quasipoly-eps-2", lambda: kstrans.verify_quasipoly(p),
                  lambda rep: ok(_check_quasipoly(rep, pts)),
                  digest=lambda rep: (rep.passed, rep.residual.pretty(), rep.h_used.pretty())))
    return ops, [op for op in ops if not op.key]


def _fact_digest(out):
    es, work, rep = out
    return tuple(v.pretty() for v in es.values) + (rep.passed, rep.defect_max)


def _swell(out):
    es, work, _ = out
    polys = [work.w_coeffs[0].num, work.w_coeffs[1].num] + [v.num for v in es.values]
    terms = max(p.num_terms() for p in polys)
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for p in polys for _, c in p.terms())
    return terms, bits


def _check_sym_fact(m: int, out, pts) -> bool:
    es, _, rep = out
    if not (rep.passed and rep.defect_max == "0" and len(es.values) == m):
        return False
    for a, b, g, t, _ in pts:
        mod = ref.apparency_condition(a, b, g, -m, t).c
        vals = {"alpha": a, "beta": b, "gamma": g, "t": t}
        sig = [ref.eval_ratfunc(v, vals, "q", mod) for v in es.values]
        ode = ref.heun_ode(a, b, g, a + b + 1 - g + m, -m, UPoly.x(mod), t)
        for second in (False, True):
            series = ref.local_series(ode, 0, (1 - g) if second else 0, m + 4)
            for lhs, rhs in ref.ghg_identity(a + b, a * b, g, sig, series, second):
                if lhs != rhs:
                    return False
        q = UPoly.x()
        plain = [ref.eval_ratfunc(v, vals, "q") for v in es.values]
        if m == 1 and plain[0] != ref.maier_e1(q, a, b, g, t):
            return False
        if m == 2 and plain != list(ref.thm44_e1e2(q, a, b, g, t)):
            return False
    return True


def _check_app_poly(eps: int, P, pts) -> bool:
    for a, b, g, t, _ in pts:
        vals = {"alpha": a, "beta": b, "gamma": g, "t": t, "epsilon": F(eps),
                "delta": a + b + 1 - g - eps}
        got = ref.eval_poly(P, vals, "q")
        want = ref.apparency_condition(a, b, g, eps, t)
        if got != want:
            return False
        closed = {-1: ref.ep1_condition, -2: ref.ep2_condition}.get(eps)
        if closed and got != closed(UPoly.x(), a, b, g, t):
            return False
    return True


def _check_hpc(al: int, P, pts) -> bool:
    for _, b, g, t, e in pts:
        vals = {"alpha": F(al), "beta": b, "gamma": g, "t": t, "epsilon": e,
                "delta": al + b + 1 - g - e}
        got = ref.eval_poly(P, vals, "q")
        if got != ref.heun_poly_condition(b, g, e, t, al):
            return False
        closed = {-1: ref.al1_condition, -2: ref.al2_condition}.get(al)
        if closed and got != closed(UPoly.x(), b, g, t, e):
            return False
    return True


def _check_quasipoly(rep, pts) -> bool:
    if not (rep.passed and rep.residual.is_zero):
        return False
    h = rep.h_used
    for a, b, g, t, _ in pts:
        vals = {"alpha": a, "beta": b, "gamma": g, "t": t}
        den = 1
        for f, k in h.den_factors().items():
            den *= ref.eval_poly(f, vals) ** k
        h_wq = [c / den for c in ref.eval_poly_2(h.num, vals, "z", "q")]
        q = UPoly.x()
        for w in range(4):
            got = sum((c * F(w) ** i for i, c in enumerate(h_wq)), UPoly([]))
            if got != ref.h_ep2(F(w), q, a, b, g, t):
                return False
        mod = ref.apparency_condition(a, b, g, -2, t).c
        if any(not c.is_zero for c in ref.quasipoly_residual(a, b, g, t, h_wq, mod)):
            return False
    return True


# -- exact-groebner ---------------------------------------------------------------


def _groebner_ops(hf) -> tuple:
    """One call per instance, as the CLI makes it: verify_factorization
    solves the esym system itself and reuses its division."""
    fz = hf.factorize
    ops = []
    for prof in GROEBNER_PROFILES:
        gamma, delta, sing, prod_ab, _, _ = panel_instance(prof, "groebner")
        M, N = len(prof), sum(prof)
        ring = fz.factor_ring(M, N)
        Lt = fz.ApparentFuchsian.from_p_form(
            gamma, delta, sing, prod_ab, [ring.var(f"p{k}") for k in range(1, M + 1)], ring)
        inst = (gamma, delta, sing, prod_ab)
        ops.append(Op(f"groebner-{''.join(map(str, prof))}", lambda Lt=Lt: fz.verify_factorization(Lt),
                      lambda rep, inst=inst, prof=prof: ok(_check_groebner(inst, prof, rep)),
                      digest=lambda rep: (rep.passed, rep.defect_max, rep.esym),
                      key=(prof == (2, 2))))
    return ops, [ops[0]]


def _check_groebner(inst, prof, rep) -> bool:
    """The printed esym values (polynomials in the residues p_k), evaluated
    at a root of the obstruction system, satisfy the series identity."""
    gamma, delta, sing, prod_ab = inst
    if not (rep.passed and rep.defect_max == "0" and len(rep.esym) == sum(prof)):
        return False
    with mp.workprec(200):
        root = ref.newton_solve(gamma, delta, sing, prod_ab, seed=0)
        vals = {f"p{k + 1}": v for k, v in enumerate(root)}
        sig = [ref.eval_parsed(ref.parse_poly(s), vals) for s in rep.esym]
        return _series_identity_holds(gamma, delta, sing, prod_ab, root, sig, tol=mp.mpf(10) ** -40)


def _series_identity_holds(gamma, delta, sing, prod_ab, p, sig, tol) -> bool:
    g = ref.mpnum(gamma)
    S = g + ref.mpnum(delta) - len(sig) - 1
    ode = ref.fuchsian_ode(g, ref.mpnum(delta), [(ref.mpnum(t), m) for t, m in sing], ref.mpnum(prod_ab), p)
    for second in (False, True):
        series = ref.local_series(ode, 0, (1 - g) if second else 0, len(sig) + 4)
        for lhs, rhs in ref.ghg_identity(S, ref.mpnum(prod_ab), g, sig, series, second):
            if not rel_close(lhs, rhs, tol):
                return False
    return True


# -- numeric-300bit ----------------------------------------------------------------


NUMERIC_PANEL = (((4,), None), ((5,), None), ((5,), -1), ((2, 2), None), ((3, 1), None),
                 ((1, 3), None), ((1, 1, 1), None), ((1, 1, 1), -2))


def _numeric_ops(hf, seed: int) -> tuple:
    fz = hf.factorize
    offsets = control_offsets(seed, len(NUMERIC_PANEL) + 4)
    ops = []
    for i, (prof, beta) in enumerate(NUMERIC_PANEL):
        gamma, delta, sing, prod_ab, alpha, b = panel_instance(prof, "numeric", beta)
        inst = (gamma, delta, sing, prod_ab)
        tag = "".join(map(str, prof)) + ("t" if beta is not None else "")

        def run_app(inst=inst):
            with mp.workprec(300):
                pv = fz.solve_apparent_p(*inst, seed=0, bits=300)
                return pv, fz.verify_factorization_numeric(*inst, p_vals=pv, bits=300)

        def run_ctl(inst=inst, d=offsets[i]):
            with mp.workprec(300):
                pv = fz.solve_apparent_p(*inst, seed=0, bits=300)
                bad = [pv[0] + d] + list(pv[1:])
                return bad, fz.verify_factorization_numeric(*inst, p_vals=bad, bits=300)

        ops.append(Op(f"numeric-{tag}", run_app,
                      lambda out, inst=inst: ok(_check_numeric(inst, out)),
                      digest=_numeric_digest, key=(prof == (5,) and beta is None),
                      margins=lambda out: [_margin(out[1].defect_max)]))
        ops.append(Op(f"control-{tag}", run_ctl,
                      lambda out, inst=inst: ok(_check_control(inst, out)),
                      digest=_numeric_digest))
    mono = _monodromy_panel(hf, offsets[len(NUMERIC_PANEL):])
    for k, (p, expect, params) in enumerate(mono):
        ops.append(Op(f"monodromy-{k}", lambda p=p: hf.numcheck.classify_apparent(p),
                      lambda got, expect=expect, params=params: ok(
                          got is expect and _exactly_apparent(*params) is expect)))
    warm = [ops[0], ops[1], ops[len(NUMERIC_PANEL) * 2]]
    return ops, warm


def _numeric_digest(out):
    pv, rep = out
    return tuple(mp.nstr(x, 40) for x in pv) + (rep.passed, rep.defect_max, rep.esym)


def _margin(defect_max: str) -> float:
    return TOL_EXP - math.log10(float(defect_max))


def _check_numeric(inst, out) -> bool:
    pv, rep = out
    gamma, delta, sing, prod_ab = inst
    if not (rep.passed and float(rep.defect_max) < 10.0 ** TOL_EXP):
        return False
    with mp.workprec(300):
        scale = max(1, max(abs(x) for x in pv))
        if len(sing) == 1:
            roots = ref.p_roots_single(gamma, delta, sing, prod_ab)
            if min(abs(pv[0] - r) for r in roots) > mp.mpf(10) ** -50 * scale:
                return False
        else:
            msing = [(ref.mpnum(t), m) for t, m in sing]
            step = ref.newton_step(ref.mpnum(gamma), ref.mpnum(delta), msing, ref.mpnum(prod_ab), pv)
            if max(abs(s) for s in step) > mp.mpf(10) ** -55 * scale:
                return False
        N = sum(m for _, m in sing)
        second = not ref.nonterminating(gamma + delta - N - 1, prod_ab, N)
        g = ref.mpnum(gamma)
        S, P = g + ref.mpnum(delta) - N - 1, ref.mpnum(prod_ab)
        ode = ref.fuchsian_ode(g, ref.mpnum(delta), [(ref.mpnum(t), m) for t, m in sing], P, pv)
        series = ref.local_series(ode, 0, (1 - g) if second else 0, N + 1)
        want = ref.esym_from_series(S, P, g, series, second, N)
        got = [ref.parse_mpc(s) for s in rep.esym]
        return len(got) == N and all(rel_close(x, y, mp.mpf(10) ** -18) for x, y in zip(got, want))


def _check_control(inst, out) -> bool:
    bad, rep = out
    gamma, delta, sing, prod_ab = inst
    if rep.passed or not float(rep.defect_max) > CONTROL_FLOOR:
        return False
    with mp.workprec(300):
        msing = [(ref.mpnum(t), m) for t, m in sing]
        step = ref.newton_step(ref.mpnum(gamma), ref.mpnum(delta), msing, ref.mpnum(prod_ab), bad)
        return max(abs(s) for s in step) > CONTROL_FLOOR


def _monodromy_panel(hf, offsets: list) -> list:
    """Four exactly apparent eps = -1 instances from the LVW family, with t
    well inside the plane, and their q-perturbed controls."""
    rng = random.Random("monodromy-panel")
    out = []
    while len(out) < 4:
        a, b, g = (rfrac(rng, -8, 8, 7, nonint=True) for _ in range(3))
        e1 = rfrac(rng, -8, 8, 6, avoid=(a, b))
        t, q = ref.lvw_tq(a, b, g, e1)
        if abs(t) < F(1, 4) or abs(t - 1) < F(1, 4) or abs(t) > 8 or (g - 1 - e1) == 0:
            continue
        out.append((a, b, g, q, t))
    ops = []
    for (a, b, g, q, t), d in zip(out, offsets):
        for qq, expect in ((q, True), (q + d, False)):
            p = hf.heun.HeunParams.make(alpha=a, beta=b, gamma=g, epsilon=-1, q=qq, t=t)
            ops.append((p, expect, (a, b, g, -1, qq, t)))
    return ops


def _exactly_apparent(a, b, g, eps, q, t) -> bool:
    return ref.apparency_condition(a, b, g, eps, t).eval(q) == 0


# -- cli-sweep --------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["HEUNFACTOR_THREADS"] = str(min(2, os.cpu_count() or 1))
    return env


def _cli_files(seed: int) -> dict:
    """Instance files of the sweep: name -> (JSON object, (kind, data the
    check needs))."""
    rng = random.Random("cli-panel")
    d1, d2 = control_offsets(seed, 2)
    while True:
        a, b, g = (rfrac(rng, -6, 6, 5, nonint=True) for _ in range(3))
        e1 = rfrac(rng, -6, 6, 4, avoid=(a, b))
        t1, q1 = ref.lvw_tq(a, b, g, e1)
        t2, q2 = ref.ep2_tq(a, b, g)
        if all(abs(t) > F(1, 4) and abs(t - 1) > F(1, 4) and abs(t) < 8 for t in (t1, t2)):
            break
    def heun(q, t, eps, mode=None):
        obj = {"version": 1, "kind": "heun",
               "parameters": {"alpha": str(a), "beta": str(b), "gamma": str(g), "epsilon": str(eps),
                              "q": str(q), "t": str(t)}}
        if mode:
            obj["mode"] = mode
        return obj

    def fuchs(q, t, m):
        return {"version": 1, "kind": "apparent_fuchsian",
                "parameters": {"alpha": str(a), "beta": str(b), "gamma": str(g), "q": str(q),
                               "sing": [{"t": str(t), "m": m}]}}

    files = {
        "heun-eps1.json": (heun(q1, t1, -1), ("apparency", (a, b, g, -1, q1, t1))),
        "heun-eps2.json": (heun(q2, t2, -2), ("apparency", (a, b, g, -2, q2, t2))),
        "heun-eps1-control.json": (heun(q1 + d1, t1, -1),
                                   ("apparency", (a, b, g, -1, q1 + d1, t1))),
        "monodromy.json": (heun(q1, t1, -1, "numeric"), ("monodromy", (a, b, g, -1, q1, t1))),
        "monodromy-control.json": (heun(q1 + d2, t1, -1, "numeric"),
                                   ("monodromy", (a, b, g, -1, q1 + d2, t1))),
        "factorize-m1.json": (fuchs(q1, t1, 1), ("exact", (a, b, g, q1, t1, 1))),
        "factorize-m2.json": (fuchs(q2, t2, 2), ("exact", (a, b, g, q2, t2, 2))),
    }
    for prof in ((3,), (4,)):
        gamma, _, sing, _, alpha, beta = panel_instance(prof, "cli")
        files[f"numeric-m{prof[0]}.json"] = (
            {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
             "parameters": {"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
                            "sing": [{"t": str(sing[0][0]), "m": prof[0]}]}},
            ("numeric", (alpha, beta, gamma, sing)))
    files["xjacobi.json"] = ({"version": 1, "kind": "xjacobi",
                              "parameters": {"k": 3, "g": "1", "h": "1/4"}}, ("x1", (3, F(1), F(1, 4))))
    return files


X1_ARGS = (5, F(1), F(1, 4), 3)   # k, g, h, --ortho-max
SMALL = "heun-eps1.json"         # also the instance of the cold-start call


def _check_heun_report(rep: dict, code: int, spec) -> bool:
    a, b, g, eps, q, t = spec
    want = _exactly_apparent(a, b, g, eps, q, t)
    if rep.get("apparent") is not want or code != (0 if want else 2):
        return False
    if rep.get("degree") != 1 - eps:
        return False
    P = ref.apparency_condition(a, b, g, eps, t)
    with mp.workprec(200):
        roots = mp.polyroots([ref.mpnum(c) for c in reversed(P.c)], maxsteps=200, extraprec=200)
    got = [complex(s) for s in rep["numeric_roots"]]
    return len(got) == len(roots) and all(
        min(abs(x - complex(r)) for r in roots) < 1e-7 * max(1, abs(x)) for x in got)


def _check_exact_factorize(rep: dict, code: int, spec) -> bool:
    a, b, g, q, t, m = spec
    if code != 0 or rep.get("pass") is not True or rep.get("defect_max") != "0":
        return False
    ode = ref.heun_ode(a, b, g, a + b + 1 - g + m, -m, q, t)
    S, P = a + b, a * b
    second = not ref.nonterminating(S, P, m)
    series = ref.local_series(ode, 0, (1 - g) if second else 0, m + 1)
    want = ref.esym_from_series(S, P, g, series, second, m)
    return [F(s) for s in rep["esym"]] == want


def _check_numeric_factorize(rep: dict, code: int, spec) -> bool:
    alpha, beta, gamma, sing = spec
    if code != 0 or rep.get("pass") is not True or not float(rep["defect_max"]) < 10.0 ** TOL_EXP:
        return False
    N = sing[0][1]
    delta = alpha + beta - gamma + N + 1
    second = not ref.nonterminating(alpha + beta, alpha * beta, N)
    with mp.workprec(300):
        got = [ref.parse_mpc(s) for s in rep["esym"]]
        g, S, P = ref.mpnum(gamma), ref.mpnum(alpha + beta), ref.mpnum(alpha * beta)
        for root in ref.p_roots_single(gamma, delta, sing, alpha * beta):
            ode = ref.fuchsian_ode(g, ref.mpnum(delta), [(ref.mpnum(sing[0][0]), N)], P, [root])
            series = ref.local_series(ode, 0, (1 - g) if second else 0, N + 1)
            want = ref.esym_from_series(S, P, g, series, second, N)
            if all(rel_close(x, y, mp.mpf(10) ** -18) for x, y in zip(got, want)):
                return len(got) == N
    return False


def _check_x1_report(rep: dict, code: int, spec) -> bool:
    k = spec[0]
    coeffs = [F(c) for c in rep.get("coefficients", [])]
    return (code == 0 and rep.get("pass") is True and rep.get("apparency_linear_factor") is True
            and rep.get("ode_annihilated") is True and rep.get("heun_annihilated") is True
            and len(coeffs) == k + 2
            and F(rep["proportionality_constant"]) == sum(coeffs) != 0
            and all(abs(float(v)) < 1e-8 for v in rep["orthogonality"].values()))


def _file_status(res: dict, spec) -> str:
    if "error" in res:
        return "error"
    kind, data = spec
    rep, code = res["report"], res["exit_code"]
    if kind == "monodromy":
        want = _exactly_apparent(*data)
        good = rep.get("verdict") == ("apparent" if want else "not_apparent") and \
            code == (0 if want else 2)
    else:
        good = {"apparency": _check_heun_report, "exact": _check_exact_factorize,
                "numeric": _check_numeric_factorize, "x1": _check_x1_report}[kind](rep, code, data)
    return "ok" if good else "wrong"


def _margins_from_sweep(out) -> list:
    code, text = out
    res = json.loads(text)["results"]
    return [_margin(r["report"]["defect_max"]) for r in res
            if isinstance(r.get("report"), dict) and r["report"].get("mode") == "numeric"
            and r["report"].get("pass")]


def _cli_ops(workdir: Path, files: dict, small: Path, call) -> list:
    """The cli-sweep pass: a cold apparency, one sweep, one x1 call, each
    made through ``call`` (a fresh interpreter, or cli.main in this one,
    serially, for the traced variant)."""
    names = sorted(files)
    x1 = [str(X1_ARGS[0]), str(X1_ARGS[1]), str(X1_ARGS[2]), "--ortho-max", str(X1_ARGS[3])]
    small_spec = files[SMALL][1][1]

    def check_sweep(out):
        code, text = out
        res = {r["file"]: r for r in json.loads(text)["results"]}
        if sorted(res) != names:
            return ["wrong"] * len(names)
        return [_file_status(res[n], files[n][1]) for n in names]

    def check_x1(out):
        code, text = out
        return ok(_check_x1_report(json.loads(text), code, X1_ARGS))

    return [
        cold_op(call, small, small_spec),
        Op("sweep", lambda: call(["sweep", str(workdir / "sweep")]), check_sweep,
           key=True, verdicts=len(names), margins=_margins_from_sweep),
        Op("x1", lambda: call(["x1"] + x1), check_x1),
    ]


def cold_op(call, small: Path, spec) -> Op:
    def check(out):
        code, text = out
        return ok(_check_heun_report(json.loads(text), code, spec))
    return Op("cold-apparency", lambda: call(["apparency", str(small)]), check)


class SubprocessCLI:
    """Runs the CLI in a fresh interpreter and keeps the peak resident
    memory of its calls (each child's own, or that of a process it waited
    for, such as a sweep's pool workers)."""

    TIMEOUT_S = 170

    def __init__(self, root: Path):
        self.env = cli_env(root)
        self.peak_mib = 0.0

    def __call__(self, argv) -> tuple:
        proc = subprocess.Popen([sys.executable, "-m", "heunfactor.cli"] + argv,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, env=self.env)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(self.TIMEOUT_S, kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 rather than proc.wait(): it also gives the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            raise subprocess.TimeoutExpired(proc.args, self.TIMEOUT_S)
        self.peak_mib = max(self.peak_mib, usage.ru_maxrss / 1024.0)
        return proc.returncode, out


def _in_process_cli(hf):
    def call(argv):
        buf = io.StringIO()
        os.environ["HEUNFACTOR_THREADS"] = "1"
        with contextlib.redirect_stdout(buf):
            code = hf.cli.main(argv)
        return code, buf.getvalue()
    return call


def _write_cli_inputs(workdir: Path, files: dict, sweep: bool) -> Path:
    """Write the small instance of the cold-start call and, with ``sweep``,
    the sweep directory; return the small instance's path."""
    workdir.mkdir(parents=True, exist_ok=True)
    if sweep:
        (workdir / "sweep").mkdir(exist_ok=True)
        for name, (obj, _) in files.items():
            (workdir / "sweep" / name).write_text(json.dumps(obj))
    small = workdir / "small.json"
    small.write_text(json.dumps(files[SMALL][0]))
    return small


# -- construction -------------------------------------------------------------------


class _HF:
    """The heunfactor modules a workload imports (imported on demand, so
    set-up time counts only what the workload needs)."""

    def __init__(self, mods):
        import importlib
        for m in mods:
            setattr(self, m, importlib.import_module(f"heunfactor.{m}"))


#: pass wall time (key repeats included) that fixes the number of passes
NOMINAL_PASS_S = {"exact-symbolic": 27.0, "exact-groebner": 22.0,
                  "numeric-300bit": 21.0, "cli-sweep": 3.0}
#: key verdict samples per pass: the one-pass workloads repeat their key
#: verdict, evenly spread over the pass, so its median does not rest on a
#: single moment of the machine's speed
KEY_REPEATS = {"exact-symbolic": 4, "exact-groebner": 6, "numeric-300bit": 5, "cli-sweep": 1}


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Import what the workload needs and build its inputs.  Every workload
    writes the small instance of the cold-start call into ``workdir``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    files = _cli_files(seed)
    small = _write_cli_inputs(workdir, files, sweep=(name == "cli-sweep"))
    if name == "cli-sweep":
        hf = _HF(("cli",))
        cli = SubprocessCLI(root)
        ops = _cli_ops(workdir, files, small, cli)
        traced = _cli_ops(workdir, files, small, _in_process_cli(hf))
        return Workload(name, NOMINAL_PASS_S[name], ops, [ops[0]], traced_ops=traced,
                        cold=ops[0], children=cli)
    cold = cold_op(SubprocessCLI(root), small, files[SMALL][1][1])
    if name == "exact-symbolic":
        hf = _HF(("exactalg", "factorize", "heun", "kstrans"))
        ops, warm = _exact_pass_symbolic(hf)
    elif name == "exact-groebner":
        hf = _HF(("factorize",))
        ops, warm = _groebner_ops(hf)
    else:
        hf = _HF(("factorize", "heun", "numcheck"))
        ops, warm = _numeric_ops(hf, seed)
    return Workload(name, NOMINAL_PASS_S[name], ops, warm, cold=cold,
                    key_repeats=KEY_REPEATS[name])
