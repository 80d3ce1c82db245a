"""Deep exact-symbolic runs (strengths 4 and 5), opt-in via HEUNFACTOR_DEEP.

These verify the same zero-defect statement as the default suite's numeric
path, but fully symbolically in the quotient ring.  On a 2-CPU machine
whose speed drifts by up to 2x, ``HEUNFACTOR_DEEP=1 python -m pytest
tests/test_deep.py -k 4`` takes 8.5-10.5 s (solve about 9 s, verify under
0.3 s); almost all of it is the Cramer solve of ``solve_esym``, since the
row choice at one point mod p takes about 1 ms.  CI runs it.  At m = 5 the
solve took 23 min in one run (the Cramer solve 1390 s, the row choice
2 ms, verify 1.3 s), against 9 min 22 s for the whole test in an earlier
run on a faster stretch of the machine.  That is why they sit behind the
flag."""

import os

import pytest

from heunfactor.exactalg import RatFunc
from heunfactor.factorize import (
    ApparentFuchsian,
    factor_ring,
    solve_esym,
    verify_factorization,
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("HEUNFACTOR_DEEP"),
    reason="deep exact-symbolic runs are opt-in (set HEUNFACTOR_DEEP=1)")


@pytest.mark.parametrize("m", [4, 5])
def test_exact_symbolic_deep(m):
    ring = factor_ring(1, m)
    a, b, g, t, q = (RatFunc.of(ring.var(n), ring)
                     for n in ("alpha", "beta", "gamma", "t", "q"))
    Lt = ApparentFuchsian.from_heun(a, b, g, m, q, t, ring)
    es, _ = solve_esym(Lt, deep=True)
    for profile in es.denominators:
        assert set(profile) <= {"t", "t - 1"}
    rep = verify_factorization(Lt, esym=es, deep=True)
    assert rep.passed
