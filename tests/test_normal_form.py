"""Every prospect is read through one cached normal form: deep and shared chains, the part cap."""

import math
import sys
import time

import numpy as np
import pytest

from flexcurve import (
    Affine,
    IndependentSum,
    certain_equivalent,
    compare,
    flexibility_curve,
    make_discrete,
    make_gaussian,
    stats,
)
from flexcurve.prospects import FORM_PART_CAP

from conftest import flat_terms, mp_certain_equivalent, oracle_ce, oracle_stats

DEPTH = 5_000
BASE = make_discrete([(0.0, 0.3), (40.0, 0.5), (100.0, 0.2)])
COIN = make_discrete([(0.0, 0.5), (1.0, 0.5)])
SAFE = make_discrete([(20.0, 0.5), (60.0, 0.5)])
RHOS = 0.01 * np.geomspace(1.0, 30.0, 7)


def affine_chain(depth=DEPTH):
    x = BASE
    for i in range(depth):
        x = Affine(x, 1.002 if i % 2 else 0.998, 0.01)
    return x


def sum_chain(depth=DEPTH):
    """Terms added left and right, Gaussians, their affine maps, a few coins and shifted sums."""
    x = BASE
    for i in range(depth):
        if i % 1000 == 999:
            term = COIN
        elif i % 2:
            term = make_gaussian(0.01, 0.02)
        else:
            term = Affine(make_gaussian(0.02, 0.01), 1.5, -0.01)
        x = IndependentSum((x, term)) if i % 3 else IndependentSum((term, x))
        if i % 7 == 0:
            x = Affine(x, 1.0, 0.001)
    return x


def shallow(prospect):
    """The same distribution as an IndependentSum of one-level Affines, from the oracle's flattening."""
    leaves, offset = flat_terms(prospect)
    return IndependentSum(tuple(Affine(leaf, k, 0.0) for leaf, k in leaves) + (make_gaussian(offset, 0.0),))


@pytest.mark.parametrize("build", [affine_chain, sum_chain], ids=["affine", "sum"])
class TestDeepChains:
    """Chains deeper than the recursion limit, against the iterative oracle in conftest."""

    def test_ce_and_curve(self, build):
        assert DEPTH > sys.getrecursionlimit()
        chain = build()
        want = [oracle_ce(chain, rho) for rho in RHOS]
        got = [certain_equivalent(chain, rho) for rho in RHOS]
        assert got == pytest.approx(want, rel=1e-10)
        curve = flexibility_curve(chain, 0.01, RHOS / 0.01)
        assert list(curve.ces) == pytest.approx(want, rel=1e-10)

    def test_stats(self, build):
        chain = build()
        s, (mean, variance, worst) = stats(chain), oracle_stats(chain)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance == pytest.approx(variance, rel=1e-12)
        assert s.worst_case == pytest.approx(worst, rel=1e-12)

    def test_compare(self, build):
        chain = build()
        got, want = compare(chain, SAFE, 0.01), compare(shallow(chain), SAFE, 0.01)
        assert got.classification is want.classification
        assert len(got.crossings) == len(want.crossings)
        assert got.threshold_k == pytest.approx(want.threshold_k, rel=1e-8)
        assert got.tail.relation is want.tail.relation
        assert got.tail.certified_from == pytest.approx(want.tail.certified_from, rel=1e-8)


def doubling(depth):
    """p_i = p_{i-1} + p_{i-1}, one shared object per level: 2**depth coins."""
    x = COIN
    for _ in range(depth):
        x = IndependentSum((x, x))
    return x


class TestPartCap:
    def test_shared_terms_past_the_cap_are_refused_before_expanding(self):
        assert 2**16 == FORM_PART_CAP
        start = time.process_time()
        with pytest.raises(ValueError, match=r"1099511627776 parts, past the part cap FORM_PART_CAP = 65536"):
            certain_equivalent(doubling(40), 0.01)
        with pytest.raises(ValueError, match="FORM_PART_CAP"):
            stats(Affine(doubling(17), 2.0, 1.0))
        assert time.process_time() - start < 0.5

    def test_shared_terms_within_the_cap(self):
        chain = doubling(12)
        ce = certain_equivalent(chain, 0.01)
        assert ce == pytest.approx(4096 * certain_equivalent(COIN, 0.01), rel=1e-12)
        assert f"{ce:.12g}" == "2042.88002133"
        # 65,536 parts in one kernel call.  The parts' columns add in form
        # order, one rounding each, so the sum of n equal columns is within
        # (n - 1) * u / (1 - (n - 1) * u) of n times one (recursive summation,
        # 7.3e-12 here); it reads 1.4e-12 off.
        start = time.process_time()
        ce = certain_equivalent(doubling(16), 0.01)
        assert time.process_time() - start < 1.0
        n, u = 2**16, 2.0**-53
        assert ce == pytest.approx(n * certain_equivalent(COIN, 0.01), rel=(n - 1) * u / (1 - (n - 1) * u))

    def test_a_shared_deep_chain_is_walked_once(self):
        # 2**10 uses of one 5,000-deep chain: pass 1 collapses the chain, so
        # expanding it costs one part per use, not its depth
        x = affine_chain()
        for _ in range(10):
            x = IndependentSum((x, x))
        start = time.process_time()
        assert len(x._form) == 2**10
        assert time.process_time() - start < 1.0
        assert certain_equivalent(x, 0.01) == pytest.approx(2**10 * oracle_ce(affine_chain(), 0.01), rel=1e-10)


def test_nested_prospect_against_mpmath():
    """An affine map of an affine map of a sum of affine maps and Gaussians, against 50 digits.

    Each part's log-MGF is good to a few ulps of rho * (its reach) plus a few
    of |ln mass| at its peak, so after the division by rho the CE error is
    bounded by ulps of the reach plus ulps of 8 / rho per discrete part.
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    u = 2.0**-53
    for _ in range(30):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            pairs = [(float(v), float(m)) for v, m in zip(rng.uniform(-60, 60, 6), rng.uniform(0.05, 1.0, 6))]
            total = math.fsum(m for _, m in pairs)
            d = make_discrete([(v, m / total) for v, m in pairs])
            terms.append(Affine(d, float(rng.uniform(0.3, 3.0)), float(rng.uniform(-20, 20))))
            terms.append(make_gaussian(float(rng.uniform(-10, 10)), float(rng.uniform(0.0, 50.0))))
        inner = Affine(IndependentSum(tuple(terms)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(-5, 5)))
        x = Affine(inner, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-5, 5)))
        leaves, offset = flat_terms(x)
        discrete = [(leaf, k) for leaf, k in leaves if not hasattr(leaf, "variance")]
        for rho in np.geomspace(1e-4, 2.0, 40):
            reach = abs(offset) + sum(k * max(abs(leaf.values[0]), abs(leaf.values[-1])) for leaf, k in discrete)
            reach += sum(k * (abs(leaf.mean) + leaf.variance * k * rho / 2) for leaf, k in leaves if hasattr(leaf, "variance"))
            with mp.workdps(50):
                error = abs(certain_equivalent(x, rho) - mp_certain_equivalent(x, mp.mpf(float(rho))))
            assert error <= 8 * u * (reach + 8 * len(discrete) / rho)
