"""CLI contract: schemas, exit codes, deterministic reports, sweep."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from heunfactor.cli import _float_roots, main
from heunfactor.exactalg import RatFunc, poly_mul
from heunfactor.heun import HeunParams, apparency_poly


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


def _monic(roots: list) -> dict:
    """Exact coefficients {k: c_k} of the monic polynomial with these roots;
    a complex root stands for itself and its conjugate."""
    poly = [F(1)]
    for r in roots:
        if isinstance(r, tuple):
            a, b = r
            poly = poly_mul(poly, [a * a + b * b, -2 * a, F(1)])
        else:
            poly = poly_mul(poly, [-r, F(1)])
    return {k: c for k, c in enumerate(poly) if c}


_small = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


class TestFloatRoots:
    @given(reals=st.lists(_small, max_size=8, unique=True),
           pairs=st.lists(st.tuples(_small, _small.filter(lambda b: b > 0)),
                          max_size=4, unique=True))
    def test_small_rational_and_gaussian_roots(self, reals, pairs):
        assume(1 <= len(reals) + 2 * len(pairs) <= 8)
        want = [complex(r) for r in reals]
        want += [complex(a, s * b) for a, b in pairs for s in (1, -1)]
        got = _float_roots(_monic(reals + pairs))
        assert len(got) == len(want)
        for g in got:
            assert min(abs(g - w) for w in want) <= 1e-9 * max(1.0, abs(g))
        for r in reals:
            assert complex(float(r)) in got

    @pytest.mark.parametrize("cd,want", [
        ({1: F(-1), 3: F(1)}, [-1, 0, 1]),            # q^3 - q
        ({2: F(1), 4: F(1)}, [-1j, 0, 0, 1j]),        # q^4 + q^2
        ({0: F(-16), 4: F(1)}, [-2, -2j, 2j, 2]),     # q^4 - 16
    ])
    def test_zero_and_missing_coefficients(self, cd, want):
        got = _float_roots(cd)
        assert len(got) == len(want)
        assert all(abs(g - w) < 1e-15 for g, w in zip(got, want))
        assert [g for g in got if g.imag == 0] == [w for w in want if complex(w).imag == 0]


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

    def test_deterministic_order_and_bytes(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "batch2"
        d.mkdir()
        for i in range(3):
            (d / f"i{i}.json").write_text(json.dumps(MAIER))
        monkeypatch.setenv("HEUNFACTOR_THREADS", "2")
        code1, out1, _ = run_cli(["sweep", str(d)], capsys)
        code2, out2, _ = run_cli(["sweep", str(d)], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


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
                    "parameters": p.to_json()}
            (d / f"ok_{made}.json").write_text(json.dumps(inst))
            bad = {"version": 1, "kind": "heun", "mode": "numeric",
                   "parameters": p.subs_q(p.q + F(1, 2)).to_json()}
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
            yield pytest.param(via, command, inst, flags, {}, id=f"{via}-{name}")
    for v in ("abc", "0", "-1"):
        yield pytest.param("sweep", "factorize", NUMERIC_M3, [],
                           {"HEUNFACTOR_THREADS": v}, id=f"sweep-threads={v}")


class TestExitCodeContract:
    @pytest.mark.parametrize("via,command,inst,flags,env", _bad_settings())
    def test_bad_setting_exits_1(self, tmp_path, capsys, monkeypatch,
                                 via, command, inst, flags, env):
        for k, v in env.items():
            monkeypatch.setenv(k, v)
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
                                           ("not-apparent", 2),
                                           ("integration-error", 2)])
    def test_same_exit_code_direct_and_in_sweep(self, tmp_path, capsys,
                                                monkeypatch, case, want):
        if case == "xjacobi-half":
            inst = {"version": 1, "kind": "xjacobi",
                    "parameters": {"k": 3, "g": "-1/2", "h": "1/4"}}
            direct = ["x1", "--", "3", "-1/2", "1/4"]
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
SCHEMA_CASES = {
    "sing-int": ("factorize", _with(MAIER, sing=5)),
    "sing-entry-int": ("factorize", _with(MAIER, sing=[3])),
    "p-int": ("factorize", _with(NUMERIC_M3, p=3)),
    "epsilon-abc": ("apparency", _with(HEUN_SYM_EP1, epsilon="abc")),
    "sym-list": ("apparency", _with(HEUN_SYM_EP1, alpha={"sym": ["alpha"]})),
    "p-too-long": ("factorize", _with(NUMERIC_M1, p=["1", "2"])),
    "p-too-short": ("factorize", _with(NUMERIC_M1, p=["1"], sing=[{"t": "2", "m": 1},
                                                                  {"t": "-3", "m": 1}])),
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


CONCRETE_EP1 = {"version": 1, "kind": "heun",
                "parameters": {"alpha": "1", "beta": "2", "gamma": "34/3",
                               "epsilon": "-1", "q": "1", "t": "2"}}
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
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(_with(CONCRETE_EP1, **{key: value}))
    finally:
        sys.set_int_max_str_digits(old)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "i.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["apparency", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


XJACOBI = {"version": 1, "kind": "xjacobi", "parameters": {"k": 3, "g": "1", "h": "1/4"}}
BOOLEAN_CASES = {
    "m-true": ("factorize", _with(MAIER, sing=[{"t": "2", "m": True}])),
    "gamma-true": ("factorize", _with(MAIER, gamma=True)),
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
COMMAND_FLAGS = {
    "apparency": (["i.json"], set()),
    "monodromy": (["i.json"], {"--tol"}),
    "x1": (["3", "1", "1/4"], {"--ortho-max"}),
    "factorize": (["i.json"], {"--mode", "--precision-bits", "--tol-exp", "--deep",
                               "--seed"}),
    "sweep": (["d"], {"--mode", "--precision-bits", "--tol", "--tol-exp", "--deep",
                      "--seed"}),
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
    assert sum(map(len, dests.values())) == 18


def test_commands_leave_numpy_unloaded(tmp_path):
    # only x1 (through scipy's quadrature) may load numpy
    argvs = [["apparency", write(tmp_path, "a.json", CONCRETE_EP1)],
             ["monodromy", write(tmp_path, "m.json", MONODROMY)],
             ["factorize", write(tmp_path, "f.json", NUMERIC_M3)]]
    script = ("import contextlib, io, sys\n"
              "from heunfactor.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(a) for a in {argvs!r}]\n"
              "print(codes, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0] False"


def test_cli_import_leaves_scipy_special_unloaded():
    out = subprocess.run([sys.executable, "-c",
                          "import sys, heunfactor.cli; "
                          "print('scipy.special' in sys.modules)"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "False"
