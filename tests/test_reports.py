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

APPARENCY = {
    -1: "be0b1161ca95a1190d1184ecc57b5497b820a725ca9eedee4fe91cdd28539bcd",
    -2: "825147f908967de16f8b5a0104ecce9065bad971f7b4907526f961d041438fcb",
    -3: "7a4a62d84f12ee96697c937b295bb24405da138415d34777350e54ac488f3704",
}

#: `factorize --mode numeric` at 300 bits, M = 1, m = 3, t = 5/2, gamma = 5/7,
#: one instance per esym route: (alpha, beta) and the digests of the apparent
#: report (residue solved by Newton) and of a control at p = 1
NUMERIC = {
    "exponent-0": (("1/3", "3/5"),
                   "956d8b863ad0e75fb600b5ea8274372579d7da756517e86418ce6ed3c8c31a4e",
                   "25c3cac0040644bf1467e97d1cd9f31c157682a49cca3607002d6fa0a0c0b01a"),
    "exponent-1-gamma": (("1/3", "-1"),
                         "ee71ecb20367ef00579fb23ef51cfc208d47308af575e5283b7dfec958510710",
                         "fa8bda785a58da2d7a8e498a28f39885b48b2f520680e7851782592c4d965dc0"),
    "exact-solve": (("0", "-2/7"),
                    "b8bd0c8f857455fc6953597f39ea98e159022a94cb8e29fa7e5b782ed0cced30",
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


@pytest.mark.parametrize("eps", sorted(APPARENCY))
def test_apparency_report(eps):
    sym = {n: {"sym": n} for n in ("alpha", "beta", "gamma", "q", "t")}
    inst = {"version": 1, "kind": "heun",
            "parameters": {**sym, "epsilon": str(eps)}}
    report, code = cmd_apparency(inst)
    assert code == 0
    assert digest(report) == APPARENCY[eps]


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
