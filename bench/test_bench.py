"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference as ref
import run as bench_run
import workloads
from reference import UPoly

ROOT = Path(__file__).resolve().parent.parent


def _points(n=4, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a, b, g, e = (workloads.rfrac(rng, nonint=True) for _ in range(4))
        t = workloads.rfrac(rng, -9, 9, 5, avoid=(0, 1))
        if len({a, b, g}) == 3:
            out.append((a, b, g, t, e))
    return out


@pytest.mark.parametrize("a,b,g,t,e", _points())
def test_references_reproduce_closed_forms(a, b, g, t, e):
    q = UPoly.x()
    assert ref.apparency_condition(a, b, g, -1, t) == ref.ep1_condition(q, a, b, g, t)
    assert ref.apparency_condition(a, b, g, -2, t) == ref.ep2_condition(q, a, b, g, t)
    assert ref.heun_poly_condition(b, g, e, t, -1) == ref.al1_condition(q, b, g, t, e)
    assert ref.heun_poly_condition(b, g, e, t, -2) == ref.al2_condition(q, b, g, t, e)
    # the closed-form esym values satisfy the series identity modulo P_app
    for m in (1, 2):
        mod = ref.apparency_condition(a, b, g, -m, t).c
        qm = UPoly.x(mod)
        sig = [ref.maier_e1(qm, a, b, g, t)] if m == 1 else list(ref.thm44_e1e2(qm, a, b, g, t))
        ode = ref.heun_ode(a, b, g, a + b + 1 - g + m, -m, qm, t)
        for second in (False, True):
            series = ref.local_series(ode, 0, (1 - g) if second else 0, m + 4)
            assert all(l == r for l, r in ref.ghg_identity(a + b, a * b, g, sig, series, second))
    # the displayed h(w) solves the primed equation modulo P_app
    mod = ref.apparency_condition(a, b, g, -2, t).c
    h = [ref.h_ep2(F(0), q, a, b, g, t), 2 * (a + 1) * (q - a * (b + 2) * t), 2 * a * (a + 1)]
    h = [c if isinstance(c, UPoly) else UPoly([c]) for c in h]
    assert all(c.is_zero for c in ref.quasipoly_residual(a, b, g, t, h, mod))
    # both apparent families are exactly apparent, a shifted q is not
    t1, q1 = ref.lvw_tq(a, b, g, e)
    assert ref.apparency_condition(a, b, g, -1, t1).eval(q1) == 0
    assert ref.apparency_condition(a, b, g, -1, t1).eval(q1 + 1) != 0
    t2, q2 = ref.ep2_tq(a, b, g)
    assert ref.apparency_condition(a, b, g, -2, t2).eval(q2) == 0


def test_esym_from_series_recovers_lvw_e1():
    a, b, g, e1 = F(1, 3), F(5, 2), F(7, 4), F(2, 3)
    t, q = ref.lvw_tq(a, b, g, e1)
    ode = ref.heun_ode(a, b, g, a + b + 2 - g, -1, q, t)
    for second in (False, True):
        series = ref.local_series(ode, 0, (1 - g) if second else 0, 2)
        assert ref.esym_from_series(a + b, a * b, g, series, second, 1) == [e1]


@pytest.fixture(scope="module")
def program():
    bench_run.load_program()
    from heunfactor import factorize, heun
    return factorize, heun


def _tally_of(name, labels, workdir, alter=None):
    """Run the labelled operations of a workload; ``alter`` edits each
    output after the program has made it, before the check reads it."""
    wl = workloads.build(name, 3, ROOT, workdir)
    tally = bench_run.Tally(wl, bench_run.Speed())
    for op in wl.ops:
        if op.label in labels:
            if alter:
                op = replace(op, run=lambda run=op.run: alter(run()))
            tally.run(op)
    return tally


def test_clean_program_passes(program, tmp_path):
    tally = _tally_of("exact-symbolic", {"factorize-m1", "apparency-eps-2"}, tmp_path)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 0, True)


def test_wrong_verdict_is_failed(program, tmp_path, monkeypatch):
    fz, _ = program
    real = fz.verify_factorization
    monkeypatch.setattr(fz, "verify_factorization",
                        lambda *a, **k: replace(real(*a, **k), passed=False))
    tally = _tally_of("exact-symbolic", {"factorize-m1", "factorize-m2"}, tmp_path)
    assert tally.failed == 2 and not tally.correct


def test_wrong_esym_is_failed(program, tmp_path):
    # the program's own verification has passed; only the reference
    # comparisons can catch the shifted value
    def shifted(out):
        es, work, rep = out
        assert rep.passed
        return replace(es, values=(es.values[0] + 1,) + es.values[1:]), work, rep

    tally = _tally_of("exact-symbolic", {"factorize-m1", "factorize-m2"}, tmp_path, shifted)
    assert tally.failed == 2 and not tally.correct


def test_wrong_groebner_esym_is_failed(program, tmp_path):
    def shifted(rep):
        assert rep.passed
        return replace(rep, esym=(rep.esym[0] + " + 1",) + tuple(rep.esym[1:]))

    tally = _tally_of("exact-groebner", {"groebner-11", "groebner-21"}, tmp_path, shifted)
    assert tally.failed == 2 and not tally.correct


def test_wrong_condition_polynomial_is_failed(program, tmp_path, monkeypatch):
    _, heun = program
    real = heun.apparency_poly
    monkeypatch.setattr(heun, "apparency_poly", lambda p: real(p) + p.ring.var("q"))
    tally = _tally_of("exact-symbolic", {"apparency-eps-1", "apparency-eps-3"}, tmp_path)
    assert tally.failed == 2 and not tally.correct


def test_passing_control_is_failed(program, tmp_path, monkeypatch):
    fz, _ = program
    real = fz.verify_factorization_numeric
    monkeypatch.setattr(fz, "verify_factorization_numeric",
                        lambda *a, **k: replace(real(*a, **k), passed=True))
    tally = _tally_of("numeric-300bit", {"control-4"}, tmp_path)
    assert tally.failed == 1 and not tally.correct


def test_raising_operation_is_failed_but_not_wrong(program, tmp_path, monkeypatch):
    _, heun = program

    def broken(p):
        raise ArithmeticError("injected")

    monkeypatch.setattr(heun, "heun_poly_condition", broken)
    tally = _tally_of("exact-symbolic", {"heunpoly-alpha-1"}, tmp_path)
    assert tally.failed == 1 and tally.correct


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def test_traced_calls_repeat_exactly():
    runs = []
    for _ in range(2):
        code, out = _bench("--workload", "cli-sweep", "--seed", "5", "--seconds", "1",
                           "--trace", "1")
        assert code == 0
        runs.append(json.loads(out.splitlines()[-1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(runs[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in runs]
    assert calls[0] == calls[1]
    assert calls[0]["cli.cmd_factorize.calls"] > 0


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    code, out = _bench("--workload", "exact-symbolic", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert code != 0 and not out.strip()
