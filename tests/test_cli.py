"""CLI contract: schemas, exit codes, deterministic reports, sweep."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import heunfactor.cli
from heunfactor.cli import MAX_CONDITION_DEGREE, MAX_MULTIPLICITY, MAX_X1_DEGREE, main
from heunfactor.exactalg import RatFunc
from heunfactor.factorize import MAX_PRECISION_BITS
from heunfactor.heun import HeunParams, apparency_poly

from conftest import condition_coeffs


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


HEUN_SYM_EP1 = {
    "version": 1, "kind": "heun",
    "parameters": {"alpha": {"sym": "alpha"}, "beta": {"sym": "beta"},
                   "gamma": {"sym": "gamma"}, "epsilon": "-1",
                   "q": {"sym": "q"}, "t": {"sym": "t"}},
}

MAIER = {
    "version": 1, "kind": "apparent_fuchsian", "mode": "exact",
    "parameters": {"gamma": "34/3", "alpha": "1", "beta": "2",
                   "sing": [{"t": "2", "m": 1}], "q": "1"},
}


class TestApparencyCommand:
    def test_symbolic_ep1_prints_condition(self, tmp_path, capsys, ep1q):
        path = write(tmp_path, "i.json", HEUN_SYM_EP1)
        code, out, _ = run_cli(["apparency", path], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["condition_polynomial"] == ep1q.pretty()
        assert rep["degree"] == 2

    def test_eps0_prints_linear(self, tmp_path, capsys, R, atoms):
        inst = json.loads(json.dumps(HEUN_SYM_EP1))
        inst["parameters"]["epsilon"] = "0"
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["apparency", path], capsys)
        assert code == 0
        want = atoms["q"] - atoms["alpha"] * atoms["beta"] * atoms["t"]
        assert json.loads(out)["condition_polynomial"] == want.pretty()

    def test_concrete_apparent_and_roots(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "1", "t": "2"}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["apparency", path], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["apparent"] is True
        assert len(rep["numeric_roots"]) == 2

    def test_concrete_not_apparent_exit2(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "2", "t": "2"}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["apparency", path], capsys)
        assert code == 2
        assert json.loads(out)["apparent"] is False

    def test_condition_past_float_range_still_reports(self, tmp_path, capsys):
        # the degree-101 condition has coefficients beyond 1e308
        inst = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-100", "q": "1", "t": "2"}}
        path = write(tmp_path, "i.json", inst)
        code, out, err = run_cli(["apparency", path], capsys)
        assert code == 2 and "error:" not in err
        rep = json.loads(out)
        assert rep["apparent"] is False and rep["degree"] == 101
        assert len(rep["numeric_roots"]) == 101
        # every printed root is within half a Newton step (at 2000 bits, on
        # the exact condition, relative to the root) of where Newton goes
        p = HeunParams.make(alpha=1, beta=2, gamma=F(34, 3), epsilon=-100, q=1, t=2)
        cd = RatFunc.of(apparency_poly(p), p.ring).coeffs_in("q")
        with mp.workprec(2000):
            desc = [mp.mpf(c.numerator) / c.denominator
                    for c in (F(cd[k].as_poly().const_value()) if k in cd else F(0)
                              for k in range(101, -1, -1))]
            for s in rep["numeric_roots"]:
                z = mp.mpc(complex(s))
                assert mp.isfinite(z)
                val, der = mp.polyval(desc, z, derivative=True)
                assert abs(val / der) < 0.5 * abs(z)

    def test_cold_start_roots_correctly_rounded(self, tmp_path, capsys):
        # condition (q + 15/7)(q - 40/21): each root prints as the double
        # nearest to it, as a real number
        inst = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1/3", "beta": "-1/2", "gamma": "-4/3",
                               "epsilon": "-1", "q": "-15/7", "t": "36/7"}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["apparency", path], capsys)
        assert code == 0
        assert json.loads(out)["numeric_roots"] == [
            f"{float(F(-15, 7))!r}+0.0j", f"{float(F(40, 21))!r}+0.0j"]

    @pytest.mark.parametrize("via", ["direct", "sweep"])
    @pytest.mark.parametrize("eps", [-MAX_CONDITION_DEGREE, -10 ** 18])
    def test_degree_outside_the_bound_exits_1(self, tmp_path, capsys, via, eps):
        # epsilon = -10^18 once ran until it was killed
        path = write(tmp_path, "i.json", _with(CONCRETE_EP1, epsilon=str(eps)))
        argv = ["apparency", path] if via == "direct" else ["sweep", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and (via == "sweep" or out == "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_CONDITION_DEGREE) in err

    def test_degree_at_the_bound_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(heunfactor.cli, "MAX_CONDITION_DEGREE", 3)
        runs = [run_cli(["apparency", write(tmp_path, f"{e}.json",
                                            _with(CONCRETE_EP1, epsilon=str(e)))], capsys)
                for e in (-2, -3)]
        assert [code for code, _, _ in runs] == [2, 1]
        assert json.loads(runs[0][1])["degree"] == 3

    @pytest.mark.parametrize("command", ["apparency", "monodromy"])
    def test_json_integers_read_as_rationals(self, tmp_path, capsys, command):
        # rationals are strings or JSON integers in every kind of file
        strings = write(tmp_path, "s.json", MONODROMY)
        ints = write(tmp_path, "i.json", _with(MONODROMY, alpha=1, beta=2, q=1, t=2))
        runs = [run_cli([command, path], capsys) for path in (strings, ints)]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_malformed_json_exit1_with_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 1,,}')
        code, _, err = run_cli(["apparency", str(p)], capsys)
        assert code == 1
        assert "line 1" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        inst = dict(HEUN_SYM_EP1)
        inst["surprise"] = 1
        path = write(tmp_path, "i.json", inst)
        code, _, err = run_cli(["apparency", path], capsys)
        assert code == 1 and "unknown keys" in err

    def test_bad_version(self, tmp_path, capsys):
        inst = dict(HEUN_SYM_EP1)
        inst["version"] = 2
        path = write(tmp_path, "i.json", inst)
        code, _, err = run_cli(["apparency", path], capsys)
        assert code == 1


class TestFactorizeCommand:
    def test_maier_exact(self, tmp_path, capsys):
        path = write(tmp_path, "i.json", MAIER)
        code, out, _ = run_cli(["factorize", path], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["pass"] and rep["esym"] == ["-4/3"]

    def test_m1_m2_symbolic_reports_closed_forms(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "exact",
                "parameters": {"gamma": {"sym": "gamma"} if False else "5/4",
                               "alpha": "1/3", "beta": "2/7",
                               "sing": [{"t": "7/3", "m": 2}],
                               "q": {"sym": "q"}}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["factorize", path], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["pass"]
        from fractions import Fraction as F

        from heunfactor.factorize import factor_ring, ApparentFuchsian, thm44_e1e2
        from heunfactor.heun import HeunParams
        from heunfactor.exactalg import RatFunc

        ring = factor_ring(1, 2)
        hp = HeunParams.make(alpha=F(1, 3), beta=F(2, 7), gamma=F(5, 4),
                             epsilon=-2, q=ring.var("q"), t=F(7, 3), ring=ring)
        E1, E2, _ = thm44_e1e2(hp)
        assert rep["esym"] == [E1.pretty(), E2.pretty()]

    def test_unsupported_profile_exit1(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "exact",
                "parameters": {"gamma": "5/4", "alpha": "1/3", "beta": "2/7",
                               "sing": [{"t": "7/3", "m": 6}],
                               "q": {"sym": "q"}}}
        path = write(tmp_path, "i.json", inst)
        code, _, err = run_cli(["factorize", path], capsys)
        assert code == 1

    def test_numeric_mode(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
                "seed": 3,
                "parameters": {"gamma": "5/7", "alpha": "1/3", "beta": "3/5",
                               "sing": [{"t": "5/2", "m": 1},
                                        {"t": "-3/4", "m": 1}]}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["factorize", path], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["pass"]
        assert float(rep["defect_max"]) < 1e-60

    def test_numeric_series_without_esym_takes_the_exact_solve(self, tmp_path, capsys):
        # beta = 1/2 makes the residue p1 = 0, where L~'s z = 0 series fixes
        # no esym value; the remainder's rows do, and the numeric lane fails
        # as exact mode does (esym -22/3)
        path = write(tmp_path, "i.json", _with(MAIER, beta="1/2"))
        code, out, _ = run_cli(["factorize", path, "--mode", "numeric"], capsys)
        rep = json.loads(out)
        assert code == 2 and not rep["pass"]
        assert float(rep["esym"][0][1:].split()[0]) == pytest.approx(-22 / 3)
        assert float(rep["defect_max"]) == 3.0

    @pytest.mark.parametrize("via", ["direct", "sweep"])
    def test_exact_m5_with_q_symbolic_passes_without_a_flag(self, tmp_path, capsys, via):
        # a file gives alpha, beta, gamma and t as rationals: with q symbolic
        # the exact M = 1, m = 5 run takes a fraction of a second, and it
        # passes by default (it once exited 1 unless --deep was given)
        inst = _with(MAIER, alpha="1/3", beta="2/7", sing=[{"t": "2", "m": 5}],
                     q={"sym": "q"})
        path = write(tmp_path, "i.json", inst)
        code, out, err = run_cli(["factorize", path] if via == "direct"
                                 else ["sweep", str(tmp_path)], capsys)
        rep = json.loads(out)
        if via == "sweep":
            assert rep["results"][0]["exit_code"] == 0
            rep = rep["results"][0]["report"]
        assert code == 0 and err == ""
        assert rep["pass"] and rep["defect_max"] == "0" and rep["profile"] == [5]
        assert len(rep["esym"]) == 5 and "q^5" in rep["esym"][4]

    @pytest.mark.parametrize("via", ["flag", "file", "sweep"])
    def test_precision_past_the_limit_exits_1(self, tmp_path, capsys, via):
        bits = MAX_PRECISION_BITS + 1
        inst = dict(NUMERIC_M1, precision_bits=bits) if via == "file" else NUMERIC_M1
        path = write(tmp_path, "i.json", inst)
        flags = [] if via == "file" else ["--precision-bits", str(bits)]
        code, out, err = run_cli(["sweep" if via == "sweep" else "factorize",
                                  str(tmp_path) if via == "sweep" else path] + flags,
                                 capsys)
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_PRECISION_BITS) in err


class TestX1Command:
    def test_full_checks(self, capsys):
        code, out, _ = run_cli(["x1", "3", "1", "1/4", "--ortho-max", "3"],
                               capsys)
        rep = json.loads(out)
        assert code == 0 and rep["pass"]

    def test_k0_reports_xi_tilde(self, capsys):
        code, out, _ = run_cli(["x1", "0", "1", "1/4"], capsys)
        rep = json.loads(out)
        assert code == 0
        from fractions import Fraction as F

        from heunfactor.xjacobi import xi_tilde_poly

        want = [str(c) for c in xi_tilde_poly(F(1), F(1, 4))]
        assert rep["coefficients"] == want
        assert rep["proportionality_constant"] == "5/2"

    def test_g_equals_h_exit1(self, capsys):
        code, _, err = run_cli(["x1", "1", "1", "1"], capsys)
        assert code == 1 and "degenerate" in err

    @pytest.mark.parametrize("k", [MAX_X1_DEGREE + 1, 1000, 10 ** 29, -1, -5])
    def test_degree_outside_the_bound_exits_1(self, capsys, k):
        # k = 1000 ran past 40 s before any output; k = -1 failed as
        # "E2 = 0: degenerate symmetric values"
        code, out, err = run_cli(["x1", "--", str(k), "1", "1/4"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_X1_DEGREE) in err

    @pytest.mark.parametrize("j", [-1, -5, -10 ** 20])
    def test_negative_ortho_max_exits_1(self, capsys, j):
        # it once ran no orthogonality check, and passed with an empty one
        code, out, err = run_cli(["x1", "3", "1", "1/4", "--ortho-max", str(j)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--ortho-max" in err

    @pytest.mark.parametrize("g", ["12", "40", "1000"])
    def test_unconverged_orthogonality_exits_2(self, capsys, g):
        # the quadrature fails loudly: the doubled order disagrees
        code, out, err = run_cli(["x1", "5", g, "1/4", "--ortho-max", "3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: QuadratureError:") and "Traceback" not in err


    @pytest.mark.parametrize("g,h,ortho_max", [
        ("40", "100", "1"), ("1", "500", "3"), ("80", "40", "3"), ("300", "5/2", "3"),
        ("500", "300", "3"), ("1000", "10", "3"), ("5/2", "1000", "3"),
        # 2^(g+h+2) leaves the double range; the rule's weights carry no such power
        ("1000", "100", "1")])
    def test_large_exponent_orthogonality_passes(self, capsys, g, h, ortho_max):
        # large g + 1/2 and h + 1/2 are Gauss-Jacobi exponents; these pass
        # with scipy's roots_jacobi as the rule too
        code, out, _ = run_cli(["x1", "5", g, h, "--ortho-max", ortho_max], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] and len(rep["orthogonality"]) == int(ortho_max)

    def test_wrong_inner_product_at_a_tiny_scale_fails(self, capsys, monkeypatch):
        # at (1000, 100) the diagonal scale is below 1e-140: an inner
        # product of half of it passes any absolute test, right or wrong
        from heunfactor import xjacobi

        real = xjacobi.orthogonality_check

        def wrong(j, k, g, h):
            _, scale = real(j, k, g, h)
            return 0.5 * scale, scale

        monkeypatch.setattr(xjacobi, "orthogonality_check", wrong)
        code, out, _ = run_cli(["x1", "5", "1000", "100", "--ortho-max", "1"], capsys)
        rep = json.loads(out)
        assert code == 2 and not rep["pass"]
        assert 0 < abs(float(rep["orthogonality"]["<0,5>"])) < 1e-100

    def test_beta_function_underflow_exits_2(self, capsys):
        # B(g + 3/2, h + 3/2) below the double range: every inner product
        # would read 0 and pass, so the rule refuses
        code, out, err = run_cli(["x1", "2", "600", "500", "--ortho-max", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: QuadratureError:") and "underflow" in err


class TestMonodromyCommand:
    def test_apparent(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "heun", "mode": "numeric",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "1", "t": "2"}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["monodromy", path], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "apparent"

    def test_not_apparent_exit2(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "heun", "mode": "numeric",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "2", "t": "2"}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["monodromy", path], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "not_apparent"

    @pytest.mark.parametrize("via", ["direct", "sweep"])
    @pytest.mark.parametrize("t,tol,want,verdict", [
        ("2", "1e-30", 0, "apparent"),
        # tolerance below double precision, t close to the singularity 1
        ("101/100", "5e-324", 2, "not_apparent"),
    ])
    def test_fine_tol_reaches_a_verdict(self, tmp_path, capsys, via, t, tol,
                                        want, verdict):
        path = write(tmp_path, "i.json", _with(MONODROMY, t=t))
        argv = (["monodromy", path] if via == "direct"
                else ["sweep", str(tmp_path)])
        t0 = time.perf_counter()
        code, out, err = run_cli(argv + ["--tol", tol], capsys)
        assert time.perf_counter() - t0 < 30.0
        rep = json.loads(out)
        if via == "sweep":
            assert rep["results"][0]["exit_code"] == want
            rep = rep["results"][0]["report"]
        assert code == want and rep["verdict"] == verdict
        assert "Traceback" not in err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write(tmp_path, "i.json", MAIER)
        _, out1, _ = run_cli(["factorize", path], capsys)
        _, out2, _ = run_cli(["factorize", path], capsys)
        assert out1 == out2
        _, t1, _ = run_cli(["factorize", path, "--text"], capsys)
        _, t2, _ = run_cli(["factorize", path, "--text"], capsys)
        assert t1 == t2 and t1 != out1


class TestSweep:
    def test_empty_dir(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, out, _ = run_cli(["sweep", str(d)], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["count"] == 0 and rep["pass"]

    def test_failing_instance_exit2(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        (d / "a_ok.json").write_text(json.dumps(MAIER))
        bad = json.loads(json.dumps(MAIER))
        bad["parameters"]["q"] = "2"
        (d / "b_bad.json").write_text(json.dumps(bad))
        code, out, _ = run_cli(["sweep", str(d)], capsys)
        rep = json.loads(out)
        assert code == 2 and not rep["pass"]
        assert [r["file"] for r in rep["results"]] == ["a_ok.json", "b_bad.json"]
        assert rep["results"][0]["exit_code"] == 0
        assert rep["results"][1]["exit_code"] == 2

    def test_deterministic_order_and_bytes(self, tmp_path, capsys):
        d = tmp_path / "batch2"
        d.mkdir()
        for i in range(3):
            (d / f"i{i}.json").write_text(json.dumps(MAIER))
        code1, out1, _ = run_cli(["sweep", str(d)], capsys)
        code2, out2, _ = run_cli(["sweep", str(d)], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


def _heun_parameters(p: HeunParams) -> dict:
    """The parameters of a concrete bundle as a heun instance file has them."""
    return {k: str(getattr(p, k).fraction())
            for k in ("alpha", "beta", "gamma", "delta", "epsilon", "q", "t")}


class TestSweepAgreement:
    def test_apparency_vs_monodromy_panel(self, tmp_path, capsys):
        # compact CLI version of the oracle-agreement suite: exactly apparent
        # instances all pass, perturbed controls all fail, ordering stable
        from fractions import Fraction as F

        from heunfactor.factorize import ep2_instance, lvw_instance
        from conftest import make_rng, rand_frac, rand_noninteger

        d = tmp_path / "panel"
        d.mkdir()
        rng = make_rng(424242)
        made = 0
        while made < 6:
            a = rand_noninteger(rng)
            b = rand_noninteger(rng)
            g = rand_noninteger(rng)
            try:
                p = (lvw_instance(a, b, g, rand_frac(rng, nonzero=True))
                     if made % 2 else ep2_instance(a, b, g))
            except Exception:
                continue
            tf = p.t.as_poly().const_value()
            if abs(tf) < F(1, 4) or abs(tf - 1) < F(1, 4) or abs(tf) > 8:
                continue
            inst = {"version": 1, "kind": "heun", "mode": "numeric",
                    "parameters": _heun_parameters(p)}
            (d / f"ok_{made}.json").write_text(json.dumps(inst))
            bad = {"version": 1, "kind": "heun", "mode": "numeric",
                   "parameters": _heun_parameters(p.subs_q(p.q + F(1, 2)))}
            (d / f"zz_bad_{made}.json").write_text(json.dumps(bad))
            made += 1
        code, out, _ = run_cli(["sweep", str(d)], capsys)
        rep = json.loads(out)
        assert code == 2 and rep["count"] == 12
        for r in rep["results"]:
            want = 0 if r["file"].startswith("ok_") else 2
            assert r["exit_code"] == want, r
            verdict = r["report"]["verdict"]
            assert verdict == ("apparent" if want == 0 else "not_apparent")


def test_console_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "heunfactor.cli", "x1", "0",
                          "1", "1/4"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["pass"] is True


NUMERIC_M3 = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
              "parameters": {"gamma": "5/7", "alpha": "1/3", "beta": "3/5",
                             "sing": [{"t": "5/2", "m": 3}]}}
MONODROMY = {"version": 1, "kind": "heun", "mode": "numeric",
             "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                            "epsilon": "-1", "q": "1", "t": "2"}}


def _bad_settings():
    cases = [("factorize", NUMERIC_M3, ["--precision-bits", v], f"bits={v}")
             for v in ("0", "-5")]
    cases += [("factorize", dict(NUMERIC_M3, precision_bits=v), [], f"file-bits={v}")
              for v in (0, -5)]
    cases += [("factorize", NUMERIC_M3, ["--tol-exp", v], f"tol-exp={v}")
              for v in ("5", "0", "-91")]     # -91 < -300 log10 2
    cases += [("monodromy", MONODROMY, ["--tol", v], f"tol={v}")
              for v in ("0", "-1", "nan", "inf")]
    for command, inst, flags, name in cases:
        for via in ("direct", "sweep"):
            yield pytest.param(via, command, inst, flags, id=f"{via}-{name}")


class TestExitCodeContract:
    @pytest.mark.parametrize("via,command,inst,flags", _bad_settings())
    def test_bad_setting_exits_1(self, tmp_path, capsys, via, command, inst, flags):
        path = write(tmp_path, "i.json", inst)
        argv = ([command, path] if via == "direct" else ["sweep", str(tmp_path)])
        code, _, err = run_cli(argv + flags, capsys)
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    def test_finest_tol_exp_at_300_bits_is_accepted(self, tmp_path, capsys):
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
                "seed": 3,
                "parameters": {"gamma": "5/7", "alpha": "1/3", "beta": "3/5",
                               "sing": [{"t": "5/2", "m": 1},
                                        {"t": "-3/4", "m": 1}]}}
        path = write(tmp_path, "i.json", inst)
        code, out, _ = run_cli(["factorize", path, "--tol-exp", "-90"], capsys)
        assert code in (0, 2)
        assert json.loads(out)["detail"] == "precision 300 bits, tolerance 1e-90"

    def test_xjacobi_file_in_sweep_matches_x1(self, tmp_path, capsys):
        write(tmp_path, "x.json", {"version": 1, "kind": "xjacobi",
                                   "parameters": {"k": 3, "g": "1", "h": "1/4"}})
        code, out, _ = run_cli(["sweep", str(tmp_path)], capsys)
        entry = json.loads(out)["results"][0]
        direct, x1_out, _ = run_cli(["x1", "3", "1", "1/4"], capsys)
        assert code == entry["exit_code"] == direct == 0
        assert entry["report"] == json.loads(x1_out)

    @pytest.mark.parametrize("case,want", [("xjacobi-half", 1),
                                           ("xjacobi-degree", 1),
                                           ("not-apparent", 2),
                                           ("integration-error", 2)])
    def test_same_exit_code_direct_and_in_sweep(self, tmp_path, capsys,
                                                monkeypatch, case, want):
        if case == "xjacobi-half":
            inst = {"version": 1, "kind": "xjacobi",
                    "parameters": {"k": 3, "g": "-1/2", "h": "1/4"}}
            direct = ["x1", "--", "3", "-1/2", "1/4"]
        elif case == "xjacobi-degree":
            inst = {"version": 1, "kind": "xjacobi",
                    "parameters": {"k": 1000, "g": "1", "h": "1/4"}}
            direct = ["x1", "1000", "1", "1/4"]
        else:
            inst = json.loads(json.dumps(MONODROMY))
            if case == "not-apparent":
                inst["parameters"]["q"] = "2"
            direct = ["monodromy", str(tmp_path / "i.json")]
        if case == "integration-error":
            from heunfactor import numcheck

            def fail(*args, **kwargs):
                raise numcheck.IntegrationError("step size underflow")
            monkeypatch.setattr(numcheck, "monodromy", fail)
        write(tmp_path, "i.json", inst)
        code, _, err = run_cli(direct, capsys)
        assert code == want and "Traceback" not in err
        code, out, err = run_cli(["sweep", str(tmp_path)], capsys)
        assert code == json.loads(out)["results"][0]["exit_code"] == want
        assert "Traceback" not in err


def _with(inst, **params):
    return dict(inst, parameters=dict(inst["parameters"], **params))


NUMERIC_M1 = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
              "parameters": {"gamma": "5/7", "alpha": "1/3", "beta": "3/5",
                             "sing": [{"t": "2", "m": 1}]}}
CONCRETE_EP1 = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "1", "t": "2"}}
SCHEMA_CASES = {
    "sing-int": ("factorize", _with(MAIER, sing=5)),
    "sing-entry-int": ("factorize", _with(MAIER, sing=[3])),
    "p-int": ("factorize", _with(NUMERIC_M3, p=3)),
    "epsilon-abc": ("apparency", _with(HEUN_SYM_EP1, epsilon="abc")),
    "sym-list": ("apparency", _with(HEUN_SYM_EP1, alpha={"sym": ["alpha"]})),
    "p-too-long": ("factorize", _with(NUMERIC_M1, p=["1", "2"])),
    "p-too-short": ("factorize", _with(NUMERIC_M1, p=["1"], sing=[{"t": "2", "m": 1},
                                                                  {"t": "-3", "m": 1}])),
    # a symbolic entry names its own field's atom, never another variable
    "t-sym-z": ("apparency", _with(HEUN_SYM_EP1, t={"sym": "z"})),
    "alpha-sym-z": ("apparency", _with(CONCRETE_EP1, alpha={"sym": "z"})),
    "q-sym-zz": ("factorize", _with(MAIER, q={"sym": "zz"})),
    "p-sym-zz": ("factorize", _with(NUMERIC_M1, p=[{"sym": "zz"}])),
    "p-sym-p2": ("factorize", _with(dict(NUMERIC_M1, mode="exact"), p=[{"sym": "p2"}])),
}


@pytest.mark.parametrize("via", ["direct", "sweep"])
@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_bad_instance_types_exit_1(tmp_path, capsys, via, case):
    # wrong JSON types and a p list that does not match sing are schema
    # errors: exit 1 with one error line, the same directly and in a sweep
    command, inst = SCHEMA_CASES[case]
    path = write(tmp_path, "i.json", inst)
    argv = [command, path] if via == "direct" else ["sweep", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_oversized_json_integer_exits_1(tmp_path, capsys):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError; it is still malformed input
    (tmp_path / "i.json").write_text(
        json.dumps(_with(MAIER, gamma="GAMMA")).replace('"GAMMA"', "9" * 5000))
    for argv in (["factorize", str(tmp_path / "i.json")], ["sweep", str(tmp_path)]):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1


#: files that json.loads cannot take: UTF-16 text with its byte-order mark,
#: and arrays nested past the parser's recursion limit
UNREADABLE = {"utf16": (b"\xff\xfe" + json.dumps(MAIER).encode("utf-16-le"), "UTF-8"),
              "nested": (b"[" * 100000 + b"]" * 100000, "nested too deeply")}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_instance_file_exits_1(tmp_path, capsys, case):
    # a schema error, not a failed verification: one error line that names
    # the file and the problem, directly and in a sweep
    data, problem = UNREADABLE[case]
    path = tmp_path / "i.json"
    path.write_bytes(data)
    for argv, head in ((["apparency", str(path)], f"error: {path}: "),
                       (["sweep", str(tmp_path)], f"error: i.json: {path}: ")):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, err
        assert err.startswith(head) and err.count("\n") == 1 and problem in err, err
        assert "DecodeError" not in err and "RecursionError" not in err
    assert json.loads(out)["results"][0]["exit_code"] == 1


#: t = 10^3000: the exact reports hold integers of more than 4300 digits
BIG_T = "1" + "0" * 3000
BIG_REPORTS = {
    "factorize": _with(MAIER, sing=[{"t": BIG_T, "m": 2}], q={"sym": "q"}),
    "apparency": _with(CONCRETE_EP1, epsilon="-2", q={"sym": "q"}, t=BIG_T),
}


def test_report_with_an_integer_past_the_str_limit_prints(tmp_path, capsys):
    # Python refuses str() of an int of more than 4300 digits by default:
    # these correct runs once exited 2 with that ValueError from pretty()
    argvs = [[command, write(tmp_path, f"{command}.json", inst)]
             for command, inst in BIG_REPORTS.items()] + [["sweep", str(tmp_path)]]
    limit = sys.get_int_max_str_digits()
    for argv in argvs:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "", argv
        assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command,inst", [
    ("apparency", _with(CONCRETE_EP1, t="9" * 5000)),
    ("factorize", _with(MAIER, gamma="1/" + "7" * 4301)),
    ("factorize", _with(MAIER, sing=[{"t": "2." + "5" * 4301, "m": 1}])),
], ids=["integer", "denominator", "decimal"])
@pytest.mark.parametrize("via", ["direct", "sweep"])
def test_oversized_rational_string_exits_1(tmp_path, capsys, command, inst, via):
    # an input literal keeps Python's 4300-digit cap on integer strings,
    # though the reports may print longer integers
    path = write(tmp_path, "i.json", inst)
    code, _, err = run_cli([command, path] if via == "direct" else ["sweep", str(tmp_path)],
                           capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300" in err


#: short literals whose exponent makes Fraction build an integer of more
#: than 4300 digits
@pytest.mark.parametrize("command,inst", [
    ("apparency", _with(CONCRETE_EP1, q="1e100000")),
    ("apparency", _with(CONCRETE_EP1, t="1e4300")),
    ("factorize", _with(MAIER, gamma="-2.5e-4300")),
], ids=["exponent", "one-past", "negative-exponent"])
@pytest.mark.parametrize("via", ["direct", "sweep"])
def test_oversized_exponent_exits_1(tmp_path, capsys, command, inst, via):
    path = write(tmp_path, "i.json", inst)
    code, _, err = run_cli([command, path] if via == "direct" else ["sweep", str(tmp_path)],
                           capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300" in err


@pytest.mark.parametrize("argv", [["x1", "3", "1e4301", "1/4"],
                                  ["x1", "--", "3", "1", "-1E+4300"]], ids=["g", "h"])
def test_oversized_exponent_argument_exits_1(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300" in err


def test_exponent_at_the_bound_runs(capsys):
    # 10^4299 has 4300 digits, as many as the longest accepted digit run
    code, out, _ = run_cli(["x1", "3", "1e4299", "1/4"], capsys)
    assert code == 0 and json.loads(out)["g"] == "1" + "0" * 4299


@pytest.mark.parametrize("argv", [["x1", "9" * 5000, "1", "1/4"],
                                  ["x1", "3", "9" * 5000, "1/4"]], ids=["k", "g"])
def test_oversized_argument_exits_1(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's usage errors
        code = e.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


_json_leaf = (st.none() | st.booleans() | st.integers()
              # built, not sampled: hypothesis prints its strategies, and
              # repr() refuses an int of more than 4300 digits
              | st.builds(lambda k: (-1) ** k * 10 ** k, st.sampled_from([400, 5001]))
              | st.floats(allow_nan=False, allow_infinity=False)
              | st.text(max_size=8)
              | st.sampled_from(["", "1/0", "0/0", "1e400", "-1e-400", "nan", "inf",
                                 " 3", "1/2/3", "0x10", "1_000", "\u00bd", "-0"]))
_json_values = st.recursive(
    _json_leaf | st.builds(lambda v: {"sym": v}, _json_leaf | st.sampled_from(
        ["z", "q", "t", "alpha", "delta", "epsilon", "e1", ""])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["sym", "p", ""]), inner, max_size=2),
    max_leaves=6)


@settings(max_examples=100)
@given(key=st.sampled_from(sorted(CONCRETE_EP1["parameters"]) + ["delta"]),
       value=_json_values)
def test_apparency_fuzzed_parameter_keeps_exit_contract(key, value):
    # one parameter of a heun instance replaced by arbitrary JSON: the
    # apparency command exits 0, 1 or 2 and never prints a traceback
    _assert_exit_contract(["apparency"], _with(CONCRETE_EP1, **{key: value}))


_rational = st.builds(F, st.integers(-20, 20), st.integers(1, 7))


@settings(max_examples=50)
@given(alpha=_rational, beta=_rational, gamma=_rational, q=_rational,
       t=_rational.filter(lambda t: t not in (0, 1)), eps=st.integers(-6, -1))
def test_apparency_fuzzed_rational_instance_prints_its_roots(alpha, beta, gamma, q, t, eps):
    # a rational heun instance exits 0 or 2 with a report, never a traceback,
    # and prints `degree` finite roots, each within half a Newton step (at
    # 400 bits, on the exact condition, relative to the root) of where
    # Newton goes
    inst = _with(CONCRETE_EP1, alpha=str(alpha), beta=str(beta), gamma=str(gamma),
                 epsilon=str(eps), q=str(q), t=str(t))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "i.json"
        path.write_text(json.dumps(inst))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["apparency", str(path)])
    assert code in (0, 2) and err.getvalue() == ""
    rep = json.loads(out.getvalue())
    assert rep["degree"] == len(rep["numeric_roots"]) == 1 - eps
    cd = condition_coeffs(eps, alpha, beta, gamma, t)
    with mp.workprec(400):
        desc = [mp.mpf(c.numerator) / c.denominator
                for c in (cd.get(k, F(0)) for k in range(1 - eps, -1, -1))]
        for s in rep["numeric_roots"]:
            z = mp.mpc(complex(s))
            assert mp.isfinite(z)
            val, der = mp.polyval(desc, z, derivative=True)
            assert abs(val) <= abs(der) * abs(z) / 2, s


@settings(max_examples=25)
@given(key=st.sampled_from(sorted(MAIER["parameters"]) + ["delta", "prod_ab", "p"]),
       value=_json_values, mode=st.sampled_from(["exact", "numeric"]))
def test_factorize_fuzzed_parameter_keeps_exit_contract(key, value, mode):
    # the same for one parameter of MAIER, in exact and in numeric mode
    _assert_exit_contract(["factorize", "--mode", mode], _with(MAIER, **{key: value}))


@settings(max_examples=25)
@given(key=st.sampled_from(sorted(MONODROMY["parameters"]) + ["delta"]),
       value=_json_values)
def test_monodromy_fuzzed_parameter_keeps_exit_contract(key, value):
    # the same for one parameter of a numeric heun instance
    _assert_exit_contract(["monodromy"], _with(MONODROMY, **{key: value}))


@settings(max_examples=25)
@given(inst=st.sampled_from([CONCRETE_EP1, MONODROMY, MAIER]),
       key=st.sampled_from(["alpha", "gamma", "q", "t", "delta"]), value=_json_values)
def test_sweep_fuzzed_file_keeps_exit_contract(inst, key, value):
    # a directory of one file with one fuzzed parameter: the sweep and the
    # file's entry stay within the exit contract
    _assert_exit_contract(["sweep"], _with(inst, **{key: value}), as_dir=True)


_x1_rationals = (st.sampled_from(["-1/2", "1/2", "3/2", "-3/2", "-1", "0", "1/4",
                                  "12", "40", "1000", "1999/2"])
                 | st.builds(lambda n, d: str(F(n, d)), st.integers(-8, 1000),
                             st.sampled_from([1, 2, 3, 4])))


@settings(max_examples=25)
@given(k=st.integers(0, 8), g=_x1_rationals, h=_x1_rationals)
def test_x1_fuzzed_parameters_keep_exit_contract(k, g, h):
    # small rationals for g and h, half-integers and large values included,
    # with the orthogonality quadrature on
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["x1", "--ortho-max", "3", "--", str(k), g, h])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_ABSENT = "<absent>"  # the key is left out of the file


@settings(max_examples=40)
@given(inst=st.sampled_from([CONCRETE_EP1, MONODROMY, MAIER, NUMERIC_M1]),
       key=st.sampled_from(["version", "kind", "mode"]),
       value=st.sampled_from([_ABSENT, 0, 2, True, 1.0, "1", 10 ** 400, "heun",
                              "apparent_fuchsian", "xjacobi", "exact", "numeric",
                              ["exact"], {"kind": "heun"}]) | _json_leaf,
       command=st.sampled_from(["apparency", "factorize", "monodromy", "sweep"]))
def test_fuzzed_instance_key_keeps_exit_contract(inst, key, value, command):
    # version, kind or mode of a valid file replaced by arbitrary JSON or
    # left out, under every command that reads instance files
    inst = {k: v for k, v in dict(inst, **{key: value}).items() if v != _ABSENT}
    _assert_exit_contract([command], inst, as_dir=command == "sweep")


@settings(max_examples=40)
@given(m=st.sampled_from([0, -1, "1", 1.0, True, None, [1], 10 ** 6, 10 ** 400,
                          MAX_MULTIPLICITY + 1]) | _json_leaf,
       mode=st.sampled_from(["exact", "numeric"]), as_list=st.booleans())
def test_fuzzed_multiplicity_keeps_exit_contract(m, mode, as_list):
    # a multiplicity of any JSON value, huge ones included, and a sing that
    # is one object instead of a list of them
    sing = {"t": "2", "m": m}
    inst = dict(_with(MAIER, sing=[sing] if as_list else sing), mode=mode)
    _assert_exit_contract(["factorize"], inst)


@pytest.mark.parametrize("sing", [[{"t": "2", "m": 10 ** 6}],
                                  [{"t": "2", "m": 1}] * (MAX_MULTIPLICITY + 1)])
def test_multiplicities_past_the_limit_exit_1(tmp_path, capsys, sing):
    # refused before the factor ring is built: 10^6 e-atoms exhaust memory
    path = write(tmp_path, "i.json", dict(_with(MAIER, sing=sing), mode="numeric"))
    code, out, err = run_cli(["factorize", path], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "multiplicities sum to" in err


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_1(tmp_path, capsys, version):
    path = write(tmp_path, "i.json", dict(MAIER, version=version))
    code, _, err = run_cli(["factorize", path], capsys)
    assert code == 1 and "unsupported version" in err


_flag_value = (
    (st.integers(-5, 400)
     | st.sampled_from([10 ** 18, -10 ** 18, 10 ** 400, MAX_PRECISION_BITS + 1])).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e-400", "1e400", "-0", "0.5", "1/2", "",
                       "exact", "numeric", "9" * 5000])
    | st.text(max_size=6))


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """Positionals per command for the flag fuzz: instance files, and for
    the sweep two directories of one file each (so that a failed file is
    one error line)."""
    d = tmp_path_factory.mktemp("flags")
    for name, inst in (("factorize", NUMERIC_M1), ("monodromy", MONODROMY)):
        (d / name).mkdir()
        write(d / name, "i.json", inst)
    return {"factorize": [[str(d / "factorize" / "i.json")]],
            "monodromy": [[str(d / "monodromy" / "i.json")]],
            "x1": [["3", "1", "1/4"]],
            "sweep": [[str(d / "factorize")], [str(d / "monodromy")]]}


@pytest.mark.parametrize("command", ["factorize", "monodromy", "sweep", "x1"])
@settings(max_examples=30)
@given(data=st.data())
def test_fuzzed_flags_keep_exit_contract(flag_inputs, command, data):
    # every flag a command takes left out, set to a usual value, or set to
    # an arbitrary string (ints, negative and huge ones, nan, inf, text):
    # exit 0, 1 or 2, no traceback, and a usage error is one error line
    positionals = data.draw(st.sampled_from(flag_inputs[command]))
    argv = [command] + positionals
    for flag in sorted(COMMAND_FLAGS[command][1]):
        how = data.draw(st.sampled_from(["absent", "usual", "fuzzed"]), label=flag)
        if how != "absent":
            value = FLAG_ARGS[flag][1] if how == "usual" else data.draw(_flag_value)
            argv.append(f"{flag}={value}")
    argv.append(data.draw(st.sampled_from(["--json", "--text"])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    errors = [l for l in err.getvalue().splitlines() if l.startswith("error:")]
    assert len(errors) == (code == 1), err.getvalue()


def _assert_exit_contract(command: list, inst: dict, as_dir: bool = False):
    """``command`` on ``inst`` written to a file (or, with as_dir, on the
    directory that holds it) exits 0, 1 or 2 without a traceback."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(inst)
    finally:
        sys.set_int_max_str_digits(old)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "i.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [d if as_dir else str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if as_dir and out.getvalue():
        assert json.loads(out.getvalue())["results"][0]["exit_code"] == code


XJACOBI = {"version": 1, "kind": "xjacobi", "parameters": {"k": 3, "g": "1", "h": "1/4"}}
BOOLEAN_CASES = {
    "m-true": ("factorize", _with(MAIER, sing=[{"t": "2", "m": True}])),
    "gamma-true": ("factorize", _with(MAIER, gamma=True)),
    "alpha-true": ("apparency", _with(CONCRETE_EP1, alpha=True)),
    "k-true": (None, _with(XJACOBI, k=True)),  # xjacobi files run only in a sweep
}


@pytest.mark.parametrize("case,via", [(c, v) for c in sorted(BOOLEAN_CASES)
                                      for v in ("direct", "sweep")
                                      if v == "sweep" or BOOLEAN_CASES[c][0]])
def test_json_booleans_exit_1(tmp_path, capsys, case, via):
    # isinstance(True, int) holds, but a JSON boolean is neither a
    # multiplicity, an index nor a rational: a schema error
    command, inst = BOOLEAN_CASES[case]
    path = write(tmp_path, "i.json", inst)
    argv = [command, path] if via == "direct" else ["sweep", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    if via == "sweep":
        assert json.loads(out)["results"][0]["exit_code"] == 1


FLAG_ARGS = {"--mode": ["--mode", "exact"], "--precision-bits": ["--precision-bits", "300"],
             "--tol": ["--tol", "1e-12"], "--tol-exp": ["--tol-exp", "-60"],
             "--deep": ["--deep"], "--seed": ["--seed", "0"],
             "--ortho-max": ["--ortho-max", "1"]}
# --deep is gone: every command refuses it as an unrecognized argument
COMMAND_FLAGS = {
    "apparency": (["i.json"], set()),
    "monodromy": (["i.json"], {"--tol"}),
    "x1": (["3", "1", "1/4"], {"--ortho-max"}),
    "factorize": (["i.json"], {"--mode", "--precision-bits", "--tol-exp", "--seed"}),
    "sweep": (["d"], {"--mode", "--precision-bits", "--tol", "--tol-exp", "--seed"}),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_only_its_flags(command, capsys):
    from heunfactor.cli import build_parser

    positionals, allowed = COMMAND_FLAGS[command]
    for flag, argv in FLAG_ARGS.items():
        for fmt in ("--json", "--text"):
            full = [command] + positionals + argv + [fmt]
            if flag in allowed:
                build_parser().parse_args(full)
            else:
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(full)
                assert exc.value.code == 1
                assert "unrecognized arguments" in capsys.readouterr().err


def test_option_count():
    from heunfactor.cli import build_parser

    subparsers = build_parser()._subparsers._group_actions[0].choices
    # --json/--text set one option, so count destinations, not spellings
    dests = {name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
             for name, sp in subparsers.items()}
    assert sum(map(len, dests.values())) == 16


def test_commands_run_with_numpy_and_scipy_unimportable(tmp_path):
    # mpmath is the only runtime dependency: every command passes with the
    # imports of numpy and scipy blocked (the sweep runs in-process, so the
    # block covers its files too)
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    write(sweep, "a.json", CONCRETE_EP1)
    write(sweep, "x.json", XJACOBI)
    argvs = [["apparency", write(tmp_path, "a.json", CONCRETE_EP1)],
             ["monodromy", write(tmp_path, "m.json", MONODROMY)],
             ["factorize", write(tmp_path, "e.json", MAIER)],
             ["factorize", write(tmp_path, "f.json", NUMERIC_M3)],
             ["x1", "5", "1", "1/4", "--ortho-max", "3"],
             ["sweep", str(sweep)]]
    script = ("import contextlib, io, sys\n"
              "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
              "from heunfactor.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    print([main(a) for a in {argvs!r}], file=sys.__stdout__)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0]"


def test_exact_commands_run_with_mpmath_unimportable(tmp_path, capsys):
    # apparency, monodromy and exact factorize do no multiprecision work: with
    # the import of mpmath blocked they print the same reports and exit codes,
    # directly and as the files of a sweep
    argvs = [["apparency", write(tmp_path, "a.json", CONCRETE_EP1)],
             ["apparency", write(tmp_path, "n.json", _with(CONCRETE_EP1, q="2"))],
             ["monodromy", write(tmp_path, "m.json", MONODROMY)],
             ["factorize", write(tmp_path, "e.json", MAIER)]]
    want = [[main(a), capsys.readouterr().out] for a in argvs]
    script = ("import contextlib, io, json, sys\n"
              "sys.modules['mpmath'] = None\n"
              "from heunfactor.cli import main\n"
              "runs = []\n"
              f"for a in {argvs + [['sweep', str(tmp_path)]]!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        runs.append([main(a), out.getvalue()])\n"
              "print(json.dumps(runs))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    *runs, (sweep_code, sweep_out) = json.loads(out.stdout)
    assert runs == want
    assert [code for code, _ in want] == [0, 2, 0, 0]
    entries = {r["file"]: [r["exit_code"], r["report"]]
               for r in json.loads(sweep_out)["results"]}
    assert entries == {Path(a[1]).name: [code, json.loads(report)]
                       for a, (code, report) in zip(argvs, want)}
    assert sweep_code == 2


def _fresh_run(argv) -> tuple:
    """Exit code and report of ``heunfactor ARGV`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-m", "heunfactor.cli"] + argv,
                         capture_output=True, text=True)
    return out.returncode, json.loads(out.stdout)


#: one instance file of each command a sweep runs, and its direct command
EVERY_KIND = {"apparency": (CONCRETE_EP1, ["apparency", "{path}"]),
              "monodromy": (MONODROMY, ["monodromy", "{path}"]),
              "factorize-exact": (MAIER, ["factorize", "{path}"]),
              "factorize-numeric": (NUMERIC_M3, ["factorize", "{path}"]),
              "xjacobi": (XJACOBI, ["x1", "3", "1", "1/4"])}


def test_sweep_entries_equal_direct_runs_in_either_order(tmp_path):
    # a sweep runs its files one after another in one interpreter: no file
    # may leave state that changes the report or exit code of the next, in
    # name order or in the reverse order
    direct = {}
    for kind, (inst, argv) in EVERY_KIND.items():
        path = write(tmp_path, f"{kind}.json", inst)
        direct[kind] = _fresh_run([a.format(path=path) for a in argv])
    assert [code for code, _ in direct.values()] == [0, 0, 0, 0, 0]
    for name, order in (("forward", sorted(EVERY_KIND)),
                        ("reverse", sorted(EVERY_KIND, reverse=True))):
        d = tmp_path / name
        d.mkdir()
        for i, kind in enumerate(order):
            write(d, f"{i}-{kind}.json", EVERY_KIND[kind][0])
        code, report = _fresh_run(["sweep", str(d)])
        assert code == 0
        assert [r["file"] for r in report["results"]] == [
            f"{i}-{kind}.json" for i, kind in enumerate(order)]
        for r, kind in zip(report["results"], order):
            assert (r["exit_code"], r["report"]) == direct[kind], kind


def test_commands_leave_numpy_unloaded(tmp_path):
    # with numpy installed, no command (x1's quadrature included) loads it
    argvs = [["apparency", write(tmp_path, "a.json", CONCRETE_EP1)],
             ["monodromy", write(tmp_path, "m.json", MONODROMY)],
             ["factorize", write(tmp_path, "f.json", NUMERIC_M3)],
             ["x1", "5", "1", "1/4", "--ortho-max", "3"]]
    script = ("import contextlib, io, sys\n"
              "from heunfactor.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(a) for a in {argvs!r}]\n"
              "print(codes, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0] False"


def test_cli_import_leaves_scipy_special_unloaded():
    out = subprocess.run([sys.executable, "-c",
                          "import sys, heunfactor.cli; "
                          "print('scipy.special' in sys.modules)"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "False"


#: the layers a command may or may not load, beyond heun, exactalg and oredop
LAYERS = ("heunfactor.factorize", "heunfactor._mpnum", "heunfactor.numcheck",
          "heunfactor.xjacobi", "heunfactor.ghg", "mpmath", "concurrent.futures.process")
FACTORIZE_LAYERS = ["heunfactor.factorize", "heunfactor._mpnum", "heunfactor.ghg",
                    "mpmath"]


def _layers_loaded(argv) -> str:
    """Exit code and the LAYERS loaded after ``main(argv)`` in a fresh
    interpreter, as the script prints them."""
    script = ("import contextlib, io, sys\n"
              "from heunfactor.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              f"print(code, [m for m in {LAYERS!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("argv,loads", [
    pytest.param(["apparency", "{d}/a.json"], [], id="apparency"),
    pytest.param(["x1", "5", "1", "1/4", "--ortho-max", "3"],
                 ["heunfactor.xjacobi", "heunfactor.ghg"], id="x1"),
    pytest.param(["monodromy", "{d}/m.json"], ["heunfactor.numcheck"], id="monodromy"),
    pytest.param(["factorize", "{d}/e.json"], ["heunfactor.factorize", "heunfactor.ghg"],
                 id="factorize-exact"),
    pytest.param(["factorize", "{d}/f.json"], FACTORIZE_LAYERS, id="factorize-numeric"),
    pytest.param(["sweep", "{d}/sweep"], [], id="sweep"),
    pytest.param(["sweep", "{d}/sweep-exact"], ["heunfactor.factorize", "heunfactor.ghg"],
                 id="sweep-factorize-exact"),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, loads):
    # every command is a fresh interpreter, so the CLI imports a layer only
    # in the command that runs it; a sweep loads those of its files' commands
    write(tmp_path, "a.json", CONCRETE_EP1)
    write(tmp_path, "m.json", MONODROMY)
    write(tmp_path, "e.json", MAIER)
    write(tmp_path, "f.json", NUMERIC_M3)
    (tmp_path / "sweep").mkdir()
    write(tmp_path / "sweep", "a.json", CONCRETE_EP1)
    write(tmp_path / "sweep", "b.json", CONCRETE_EP1)
    (tmp_path / "sweep-exact").mkdir()
    write(tmp_path / "sweep-exact", "a.json", CONCRETE_EP1)
    write(tmp_path / "sweep-exact", "e.json", MAIER)
    got = _layers_loaded([a.format(d=tmp_path) for a in argv])
    assert got == f"0 {loads!r}"
