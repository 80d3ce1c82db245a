"""Deep exact-symbolic runs (strengths 4 and 5), opt-in via HEUNFACTOR_DEEP.

These verify the same zero-defect statement as the default suite's numeric
path, but fully symbolically in the quotient ring.  On a 2-CPU machine
whose speed drifts by up to 2x, ``HEUNFACTOR_DEEP=1 python -m pytest
tests/test_deep.py -k 4`` takes 6-14 s (solve 6-12 s, verify under 0.3 s);
``-k 5`` passed in 9 min 22 s (almost all of it the row selection and the
Cramer solve of ``solve_esym``).  That is why they sit behind the flag."""

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
