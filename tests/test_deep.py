"""Deep exact-symbolic runs (strengths 4 and 5), opt-in via HEUNFACTOR_DEEP.

These verify the same zero-defect statement as the default suite's numeric
path, but fully symbolically in the quotient ring.  On a 2-CPU machine
whose speed drifts by up to 2x, ``HEUNFACTOR_DEEP=1 python -m pytest
tests/test_deep.py`` took 7.2-7.5 s in two runs.  Strength 4 takes about
0.4 s and strength 5 the rest: in its solve and verify, timed one by one,
the Cramer minors of ``solve_esym`` took 5.0 s, normalizing the solved
values 1.0 s and verify 0.24 s.  CI runs both, under a 300 s timeout.
They sit behind the flag because strength 5 alone would add about a
seventh to the default suite's time."""

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
    for v in es.values:
        assert {f.pretty() for f in v.den_factors()} <= {"t", "t - 1"}
    rep = verify_factorization(Lt, esym=es, deep=True)
    assert rep.passed
