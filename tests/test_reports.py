"""Report bytes are pinned: the SHA-256 of each report's sorted JSON, exact
reports and 300-bit numeric ones.

A change to the arithmetic underneath (substitution, cancellation, division)
must leave these reports byte-identical; a deliberate change of report
bytes updates the digests here and says so in CHANGES.md."""

import hashlib
import json

import pytest

from heunfactor.cli import cmd_apparency, cmd_factorize
from heunfactor.exactalg import RatFunc
from heunfactor.factorize import (
    ApparentFuchsian,
    factor_ring,
    random_profile_instance,
    verify_factorization,
)


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
