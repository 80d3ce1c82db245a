"""Shared fixtures: reference transcriptions of the closed-form condition
polynomials and solutions, plus random rational instance helpers."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import settings

from heunfactor.exactalg import RatFunc, Ring
from heunfactor.heun import HeunParams, base_ring


# property tests draw the same examples on every run and never time out
settings.register_profile("heunfactor", derandomize=True, deadline=None,
                          max_examples=150, database=None)
settings.load_profile("heunfactor")


@pytest.fixture(scope="session")
def R():
    return base_ring()


@pytest.fixture(scope="session")
def atoms(R):
    return {n: R.var(n) for n in R.names}


@pytest.fixture(scope="session")
def ep1q(R, atoms):
    """Reference quadratic apparency condition (third singularity strength -1)."""
    q, a, b, g, t = (atoms[n] for n in ("q", "alpha", "beta", "gamma", "t"))
    return (q ** 2 - ((2 * a * b + a + b) * t - g + 1) * q
            + a * b * t * ((a + 1) * (b + 1) * t - g))


@pytest.fixture(scope="session")
def ep2q(R, atoms):
    """Reference cubic apparency condition (strength -2)."""
    q, a, b, g, t = (atoms[n] for n in ("q", "alpha", "beta", "gamma", "t"))
    return (q ** 3
            + ((-3 * a * b - 3 * a - 3 * b - 1) * t + (3 * g - 4)) * q ** 2
            + ((3 * a ** 2 * b ** 2 + 6 * a * b * (a + b) + 10 * a * b
                + 2 * (a ** 2 + b ** 2) + 2 * a + 2 * b) * t ** 2
               + ((-6 * a * b - 4 * a - 4 * b) * g
                  + 4 * a * b + 4 * a + 4 * b) * t
               + 2 * (g - 1) * (g - 2)) * q
            - a * b * t * ((a + 1) * (a + 2) * (b + 1) * (b + 2) * t ** 2
                           - g * (3 * a * b + 4 * a + 4 * b + 4) * t
                           + 2 * g * (g - 1)))


@pytest.fixture(scope="session")
def al1q(R, atoms):
    """Reference quadratic polynomial-solution condition (degree-1 solutions)."""
    q, b, g, t, e = (atoms[n] for n in ("q", "beta", "gamma", "t", "epsilon"))
    return q ** 2 + ((b - e) * t + g + e) * q + b * g * t


@pytest.fixture(scope="session")
def al2q(R, atoms):
    """Reference cubic polynomial-solution condition (degree-2 solutions)."""
    q, b, g, t, e = (atoms[n] for n in ("q", "beta", "gamma", "t", "epsilon"))
    return (q ** 3
            + ((3 * b - 3 * e - 1) * t + 3 * g + 3 * e + 2) * q ** 2
            + (2 * (b - e) * (b - e - 1) * t ** 2
               - 4 * (e ** 2 + (g - b + 1) * e - (2 * g + 1) * b) * t
               + 2 * (g + e) * (g + e + 1)) * q
            + 4 * b * g * t * ((b - e) * t + g + e + 1))


def rand_frac(rng, lo=-8, hi=8, den=6, nonzero=False, exclude=()):
    while True:
        f = F(rng.randint(lo, hi), rng.randint(1, den))
        if nonzero and f == 0:
            continue
        if f in exclude:
            continue
        return f


def rand_noninteger(rng, lo=-8, hi=8):
    while True:
        f = F(rng.randint(lo, hi), rng.randint(2, 7))
        if f.denominator > 1:
            return f


@pytest.fixture
def rng():
    return random.Random(20240811)


def make_rng(seed):
    return random.Random(seed)
