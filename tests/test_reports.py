"""Report bytes are pinned: the SHA-256 of each report's sorted JSON, exact
reports and 300-bit numeric ones.

A change to the arithmetic underneath (substitution, cancellation, division)
must leave these reports byte-identical; a deliberate change of report
bytes updates the digests here and says so in CHANGES.md."""

import hashlib
import json
from dataclasses import replace

import pytest

from heunfactor.cli import cmd_apparency, cmd_factorize
from heunfactor.exactalg import RatFunc
from heunfactor.factorize import (
    ApparentFuchsian,
    _residue_atom_factor,
    factor_ring,
    random_profile_instance,
    solve_esym,
    verify_factorization,
)

from conftest import EDGES


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


SYMBOLIC = {
    1: "5325756faf2667ee2f4159ecbfeac2c07b87d14ea858f73dc31a9bb0423b92fb",
    2: "4466d04e8d3feda638c01569ffd0370f291c9fab182b6025dcabe189bee385c4",
    3: "7f5de8dad1ece40823b90ae07bfb5ecc39f2fc315865672d8328abb2e350ae96",
}

#: random_profile_instance(profile, seed=3), residues p_k left symbolic
GROEBNER = {
    (1, 1): "b308a0bbf85484d4b86ef3174f3995a30529100abccb85b151bd166df4aa43eb",
    (2, 1): "011d80ce41fcbbf9a1832557083c4f11df96cd353ba0e42a4f285442598531b4",
    (2, 2): "e07d1756ee241bc1641cb550adaa618810a67d0ba829eed2da4937389507606d",
    (3, 1): "3bcf7337b30f071efe5fc6b55a05fdc01e11d58fc999b059ab1b3c8f3694f335",
    (1, 3): "495b0d62ca44e2d734ddd32114e47b8a44754ba1ecc5ee10fb575fa0fe840185",
    (1, 1, 1): "5bf505926c95206c30aac49cd15b36a9bc363ec000bf0f6ed4cb85cf7d409a7d",
}

#: the same profiles at seeds 0 and 1, keyed by (profile, seed)
GROEBNER_SEEDS = {
    ((1, 1), 0): "e8e14c90a78e34665083b1265b083db486a76f2b8e51e567b1462e0219116fe5",
    ((1, 1), 1): "ff58afa1c8874b4bb0d4b8966630cfdf5800a49b93b45712b64e7464d07b8983",
    ((2, 1), 0): "1213afbd3a86d7888d2ada51e6eced43fdc897510788758e327e119dd2fd528f",
    ((2, 1), 1): "2ab339d7574829dd5ad301d79b0a5a229499b7689b6960ea2200eaa702510293",
    ((2, 2), 0): "dfc34fa5990f8fd41d58904ed6e3aeb7c7c2fc06461054f1162dbd375a6b5482",
    ((2, 2), 1): "fcc76a0682ed9d00028b6ff562333c1c167722e6b47b8475dc89983803ec1ac9",
    ((3, 1), 0): "0da171e9db12201bfb2646c4bf8db78e7d639e193687e1758c113081b16fffa2",
    ((3, 1), 1): "084f379146fb6a9db5756fc41ddce24c1efa8029488e1385291182587631fb48",
    ((1, 3), 0): "6c9531dd31d7fe74f04b408f02186a1bbd2e80adda0fb2dd5501a6a5a1f95b4b",
    ((1, 3), 1): "bfa2b73ed32ec8a75b0a29b0986df4ac7f14ae5c7b5cee720ddf7faaa341ef0e",
    ((1, 1, 1), 0): "7d9f48264d10726801bb3d7c4ed91fe63ecb15833e3dc3f3b20aa3d1d5e80b7d",
    ((1, 1, 1), 1): "9e4c11c09038d7b01b1aa47d60ee42778a5e470c07a7e1197f585dae25ffcf04",
}

#: failing M = 1 reports with q symbolic: the solved esym values with e_1
#: shifted by 1, so the defect is nonzero and the detail prints it
SHIFTED = {
    1: "273ca059246c2b888b57f321307bbd16fbb9ee6412300c7f441d5708d70fce33",
    3: "f987facef0b11c1a4048199f48a59f0735b4e0f69c2607926cb01a6511376f46",
}

#: failing exact reports with every value concrete: the paper's instance
#: (gamma 34/3, alpha 1, beta 2, t 2) at q = 3, by m
CONCRETE_Q3 = {
    1: "7582df3fff112053fa9c9b2723b39a2ef86c1caaca8bef5c430c15a1c36868df",
    2: "eda9aeade5e9b811a40ab13c070bcf842831bc6f7bc9ee17aa247e7e83f61ccc",
    3: "712d75315a19fa513e1be5aefa99103aabaaef39b2aff78bc024460d01cdc15b",
}

#: exact `factorize` reports of the numeric lane's EDGES with q symbolic
#: at t = 5/2, by index.  On the delta = 0 edges (2 and 3) the quotient's
#: D coefficient prints in lowest terms over z, z - 1 and 2z - 5
EDGE_EXACT = {
    0: "5f1dd61a2cbe80b1d34de2fc2d0e316a01867b4abc7959cea8adb0cbbf9e4994",
    1: "fea288c2aa68a0639437333acf3f69d60057f90f02fb21cc5e8d41c314a2172d",
    2: "950ad90630a30b3e83eeb3e1c8d673ac198775d7be9e4e9d3423da1ac7ca548b",
    3: "8e6397be8ea6558a5a2dc83824ae8875ae99725fa33186a546d4a7e604c00893",
}

#: alpha, beta, gamma, q and t symbolic: no numeric_roots
SYMBOLIC_HEUN = {n: {"sym": n} for n in ("alpha", "beta", "gamma", "q", "t")}
#: the paper's instance with q symbolic: its report prints numeric_roots
PAPER_HEUN = {"alpha": "1", "beta": "2", "gamma": "34/3", "q": {"sym": "q"}, "t": "2"}

#: `apparency` reports by (parameters, epsilon)
APPARENCY = {
    "-1": (SYMBOLIC_HEUN, -1,
           "be0b1161ca95a1190d1184ecc57b5497b820a725ca9eedee4fe91cdd28539bcd"),
    "-2": (SYMBOLIC_HEUN, -2,
           "825147f908967de16f8b5a0104ecce9065bad971f7b4907526f961d041438fcb"),
    "-3": (SYMBOLIC_HEUN, -3,
           "7a4a62d84f12ee96697c937b295bb24405da138415d34777350e54ac488f3704"),
    "paper-1": (PAPER_HEUN, -1,
                "de8e4f53df93b1dd07c0747586f96297c00fce2c27250edd5102512331cd64a0"),
    "paper-20": (PAPER_HEUN, -20,
                 "fe50de1042ed47b88b43a62ff9dd19987242f32aa2b1e90916c2ca2ef4fc84d2"),
    "paper-100": (PAPER_HEUN, -100,
                  "f8af410c9725c22a18ce7253d6223d1ee0c3ce124eda37790f03896c58c75625"),
}

#: `factorize --mode numeric` at 300 bits, M = 1, m = 3, t = 5/2, gamma = 5/7:
#: (alpha, beta) and the digests of the apparent report (residue solved by
#: Newton) and of a control at p = 1.  The keys name the z = 0 series
#: exponent that carries the esym values (none on the alpha = 0 edge, which
#: once took the exact solve); all three take them from the remainder's rows
NUMERIC = {
    "exponent-0": (("1/3", "3/5"),
                   "e0036106ae04133f224e036d7e7da30c188542f199ede30501509abd3f07199b",
                   "df37742b354b5c0e12b191dddc1a804cebbeaee85d7a86570b63dedbe6df7548"),
    "exponent-1-gamma": (("1/3", "-1"),
                         "2b06b610cd05eef823ad886bc30a8dd258a67678bdf53973d08a3b78db90aa59",
                         "680e18d10866bcb08239374b3cc168e31918276e2150de9ddfc97ff561ecc485"),
    "exact-solve": (("0", "-2/7"),
                    "850e1d5f0a128ced030bacd4f264e6132d5bb8fab35e38c24671e4912b3d1851",
                    "9b02a6265c6f947c2fd92fa05463a3863799cdb9a56f5b00d9405f75bf8c0ece"),
}


@pytest.mark.parametrize("m", sorted(SYMBOLIC))
def test_symbolic_factorization_report(m):
    ring = factor_ring(1, m)
    a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                     for n in ("alpha", "beta", "gamma", "t", "q"))
    Lt = ApparentFuchsian.from_heun(a, b, g, m, q, t, ring)
    assert digest(verify_factorization(Lt).to_json()) == SYMBOLIC[m]


@pytest.mark.parametrize("profile", sorted(GROEBNER),
                         ids=lambda p: "".join(map(str, p)))
def test_groebner_report(profile):
    gamma, delta, sing, prod_ab = random_profile_instance(profile, seed=3)
    M = len(profile)
    ring = factor_ring(M, sum(profile))
    Lt = ApparentFuchsian.from_p_form(gamma, delta, sing, prod_ab,
                                      [ring.var(f"p{k}") for k in range(1, M + 1)],
                                      ring)
    assert digest(verify_factorization(Lt).to_json()) == GROEBNER[profile]


@pytest.mark.parametrize("profile,seed", sorted(GROEBNER_SEEDS), ids=lambda v: (
    "".join(map(str, v)) if isinstance(v, tuple) else f"seed{v}"))
def test_groebner_report_at_seed(profile, seed):
    Lt = _residue_atom_factor(*random_profile_instance(profile, seed=seed))
    assert digest(verify_factorization(Lt).to_json()) == GROEBNER_SEEDS[profile, seed]


@pytest.mark.parametrize("m", sorted(SHIFTED))
def test_failing_symbolic_report(m):
    ring = factor_ring(1, m)
    a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                     for n in ("alpha", "beta", "gamma", "t", "q"))
    Lt = ApparentFuchsian.from_heun(a, b, g, m, q, t, ring)
    es, _ = solve_esym(Lt)
    shifted = replace(es, values=(es.values[0] + 1,) + es.values[1:])
    report = verify_factorization(Lt, esym=shifted).to_json()
    assert not report["pass"]
    assert digest(report) == SHIFTED[m]


@pytest.mark.parametrize("m", sorted(CONCRETE_Q3))
def test_failing_concrete_report(m):
    inst = {"version": 1, "kind": "apparent_fuchsian",
            "parameters": {"gamma": "34/3", "alpha": "1", "beta": "2",
                           "sing": [{"t": "2", "m": m}], "q": "3"}}
    report, code = cmd_factorize(inst, None, None, -60, None)
    assert code == 2
    assert digest(report) == CONCRETE_Q3[m]


@pytest.mark.parametrize("index", sorted(EDGE_EXACT))
def test_edge_exact_report(index):
    gamma, alpha, beta, m = EDGES[index]
    inst = {"version": 1, "kind": "apparent_fuchsian",
            "parameters": {"gamma": str(gamma), "alpha": str(alpha), "beta": str(beta),
                           "sing": [{"t": "5/2", "m": m}], "q": {"sym": "q"}}}
    report, code = cmd_factorize(inst, None, None, -60, None)
    assert code == 0
    assert digest(report) == EDGE_EXACT[index]


@pytest.mark.parametrize("case", sorted(APPARENCY))
def test_apparency_report(case):
    params, eps, want = APPARENCY[case]
    inst = {"version": 1, "kind": "heun",
            "parameters": {**params, "epsilon": str(eps)}}
    report, code = cmd_apparency(inst)
    assert code == 0
    assert digest(report) == want


@pytest.mark.parametrize("route", sorted(NUMERIC))
def test_numeric_factorization_reports(route):
    (alpha, beta), apparent, control = NUMERIC[route]
    params = {"gamma": "5/7", "alpha": alpha, "beta": beta, "sing": [{"t": "5/2", "m": 3}]}
    for extra, want, want_code in (({}, apparent, 0), ({"p": ["1"]}, control, 2)):
        inst = {"version": 1, "kind": "apparent_fuchsian", "mode": "numeric",
                "parameters": {**params, **extra}}
        report, code = cmd_factorize(inst, None, None, -60, None)
        assert code == want_code
        assert digest(report) == want
