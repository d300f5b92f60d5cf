import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flexcurve
from flexcurve import (
    Affine,
    Flexibility,
    TailRelation,
    UnsupportedProspectError,
    add_independent,
    certain_equivalent,
    compare,
    find_threshold,
    make_discrete,
    make_gaussian,
    scale,
    shift,
    tail_order,
    upper_envelope,
)
from flexcurve import orders
from flexcurve.orders import (
    _TIE_EPS,
    GRID_POINTS_PER_DECADE,
    ROOT_REL_TOL,
    _discrete_tail,
    _levels,
    _geometric_grid,
    _hermite_start,
    _refine,
)
from flexcurve.prospects import CONVOLUTION_SUPPORT_CAP

from conftest import expected_utility_ce, mp_certain_equivalent, mp_crossing, random_discrete


def bisect_threshold_oracle(x, y, r, lo, hi, tol=1e-10):
    """Independent root finder on CE(X|kr) - CE(Y|kr) via the utility oracle."""

    def g(k):
        return expected_utility_ce(x, k * r) - expected_utility_ce(y, k * r)

    glo = g(lo)
    assert glo * g(hi) < 0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) * glo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTailOrder:
    def test_a_value_whose_mass_underflows_is_no_tail_level(self):
        # the convolution's value 0 has mass 1e-200 * 1e-200 = 0.0 and is dropped, so value 1 is the lowest level
        x = make_discrete([(0, 1e-200), (1, 1.0)])
        p = add_independent(add_independent(x, make_gaussian(0, 1)), x)
        values, masses, variance = orders._decompose(p)
        assert (values.tolist(), masses.tolist(), variance) == ([1.0, 2.0], [2e-200, 1.0], 1.0)
        q = add_independent(make_discrete([(1, 0.5), (2, 0.5)]), make_gaussian(0, 1))
        verdict = tail_order(p, q, 0.1)
        assert (verdict.relation, verdict.rationale) == (TailRelation.X_ABOVE, "mass-at-worst gap")

    def test_less_mass_at_shared_worst_wins(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        w = make_discrete([(0, 0.4), (50, 0.6)])
        verdict = tail_order(x, w, 0.01)
        assert verdict.relation is TailRelation.Y_ABOVE
        assert verdict.rationale == "mass-at-worst gap"
        # numeric confirmation deep in the tail
        kr = 100.0
        assert certain_equivalent(w, kr) > certain_equivalent(x, kr)

    def test_flatter_gaussian_wins(self):
        verdict = tail_order(make_gaussian(10, 4), make_gaussian(9, 1), 1.0)
        assert verdict.relation is TailRelation.Y_ABOVE
        assert verdict.rationale == "Gaussian slope"

    def test_identical_is_equal(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        verdict = tail_order(x, x, 0.1)
        assert verdict.relation is TailRelation.EQUAL
        assert verdict.rationale == "identical distribution"

    def test_bounded_beats_gaussian(self):
        verdict = tail_order(make_gaussian(100, 1), make_discrete([(0, 0.5), (1, 0.5)]), 0.1)
        assert verdict.relation is TailRelation.Y_ABOVE
        assert verdict.rationale == "worst-case gap"
        k = 2 * verdict.certified_from
        assert certain_equivalent(make_gaussian(100, 1), k * 0.1) < 0.0

    def test_lower_worst_value_loses(self):
        x = make_discrete([(-5, 0.1), (100, 0.9)])
        y = make_discrete([(0, 0.5), (1, 0.5)])
        verdict = tail_order(x, y, 0.1)
        assert verdict.relation is TailRelation.Y_ABOVE
        assert verdict.rationale == "worst-case gap"

    def test_lexicographic_level(self):
        x = make_discrete([(0, 0.5), (10, 0.2), (20, 0.3)])
        y = make_discrete([(0, 0.5), (10, 0.3), (20, 0.2)])
        verdict = tail_order(x, y, 0.1)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.rationale == "lexicographic level 1"

    def test_mass_difference_only_at_top_value(self):
        # nothing lies above the differing level, so no gap to the next
        # support value exists and the certificate starts at k = 1
        verdict = _discrete_tail(*_levels((0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.5, 0.5 + 1e-12)), 0.1)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.certified_from == pytest.approx(1.0, abs=1e-5)
        assert verdict.rationale == "lexicographic level 1"

    def test_mass_rounding_is_a_tie(self):
        # a few ulps between two masses is rounding, not a different distribution
        bumped = (0.5, math.nextafter(math.nextafter(0.5, 1.0), 1.0))
        verdict = _discrete_tail(*_levels((0.0, 1.0), (0.5, 0.5), (0.0, 1.0), bumped), 0.1)
        assert verdict.relation is TailRelation.EQUAL
        # below the differing level the rounding is a tie, above it counts
        verdict = _discrete_tail(*_levels((0.0, 1.0, 2.0), (0.25, 0.5, 0.25), (0.0, 1.0, 2.0), (math.nextafter(0.25, 1.0), 0.5 - 1e-6, 0.25 + 1e-6)), 0.1)
        assert verdict.relation is TailRelation.Y_ABOVE
        assert verdict.rationale == "lexicographic level 1"

    def test_antisymmetry(self, rng):
        flipped = {
            TailRelation.X_ABOVE: TailRelation.Y_ABOVE,
            TailRelation.Y_ABOVE: TailRelation.X_ABOVE,
            TailRelation.EQUAL: TailRelation.EQUAL,
        }
        for _ in range(100):
            x, y = random_discrete(rng), random_discrete(rng)
            a = tail_order(x, y, 0.1)
            b = tail_order(y, x, 0.1)
            assert b.relation is flipped[a.relation]

    def test_certificate_soundness(self, rng):
        r = 0.1
        for _ in range(200):
            x, y = random_discrete(rng), random_discrete(rng)
            verdict = tail_order(x, y, r)
            k = 2 * verdict.certified_from
            gap = certain_equivalent(x, k * r) - certain_equivalent(y, k * r)
            if verdict.relation is TailRelation.EQUAL:
                assert abs(gap) <= 1e-9
            elif verdict.relation is TailRelation.X_ABOVE:
                assert gap > 0
            else:
                assert gap < 0

    def test_mixed_unbounded_pair(self):
        # a Gaussian plus a discrete spread on both sides: equal variances
        # cancel, and the flatter of unequal ones is eventually above
        coin = make_discrete([(0, 0.5), (1, 0.5)])
        mixed = add_independent(make_gaussian(0, 1), coin)
        verdict = tail_order(mixed, mixed, 0.1)
        assert verdict.relation is TailRelation.EQUAL
        assert verdict.rationale == "identical distribution"
        verdict = tail_order(mixed, add_independent(make_gaussian(0, 2), coin), 0.1)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.rationale == "Gaussian slope"

    def test_underflowing_slope_difference_keeps_its_sign(self):
        # (2e-300 - 1e-300) * 1e-30 underflows to 0, yet Y stays above until
        # k = 2e330: the certificate is past the float range, not k = 1
        x, y = make_gaussian(0, 1e-300), make_gaussian(1, 2e-300)
        verdict = tail_order(x, y, 1e-30)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.certified_from == math.inf
        for scan in (compare, find_threshold):
            with pytest.raises(OverflowError, match=r"^tail certificate k=inf out of floating-point range$"):
                scan(x, y, 1e-30)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            tail_order(make_gaussian(0, 1), make_gaussian(0, 2), 0.0)

    def test_equal_variances_with_one_point_parts_are_parallel_lines(self):
        verdict = tail_order(make_gaussian(3, 1), make_gaussian(5, 1), 0.1)
        assert (verdict.relation, verdict.certified_from, verdict.rationale) == (TailRelation.Y_ABOVE, 1.0, "Gaussian slope")

    def test_variances_equal_but_for_rounding_tie(self):
        # 0.1 + 0.2 is 0.30000000000000004: rounding, not a flatter curve
        summed = add_independent(make_gaussian(0, 0.1), make_gaussian(0, 0.2))
        assert summed.variance != 0.3
        assert compare(summed, make_gaussian(0, 0.3), 0.1).classification is Flexibility.EQUALLY_FLEXIBLE
        coin = make_discrete([(0, 0.5), (1, 0.5)])
        x = add_independent(add_independent(make_gaussian(0, 0.1), coin), make_gaussian(0, 0.2))
        y = add_independent(make_gaussian(0, 0.3), coin)
        verdict = tail_order(x, y, 0.1)
        assert (verdict.relation, verdict.certified_from) == (TailRelation.EQUAL, 1.0)
        assert compare(x, y, 0.1).classification is Flexibility.EQUALLY_FLEXIBLE

    def test_subnormal_lowest_mass_difference_keeps_a_finite_certificate(self):
        # 0.2 / 1e-320 overflows: the certificate takes the difference of the two logs
        x, y, r = make_discrete([(0, 1e-320), (1, 0.5), (2, 0.5)]), make_discrete([(1, 0.6), (2, 0.4)]), 0.5
        tail = tail_order(x, y, r)
        assert tail.relation is TailRelation.Y_ABOVE and 1470.0 < tail.certified_from < 1471.0
        verdict = compare(x, y, r)
        assert verdict.classification is Flexibility.Y_STRICTLY_MORE_FLEXIBLE
        assert verdict.crossings == (verdict.threshold_k,) and 1000.0 < verdict.threshold_k < tail.certified_from
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            def gap(k):
                return mp_certain_equivalent(x, mp.mpf(k) * r) - mp_certain_equivalent(y, mp.mpf(k) * r)

            # X above at k = 1000, Y from the certificate on, and the sign changes across the threshold
            assert gap(1000.0) > 0 > gap(tail.certified_from)
            assert gap(verdict.threshold_k * (1 - 1e-6)) > 0 > gap(verdict.threshold_k * (1 + 1e-6))


class TestFindThreshold:
    def test_deterministic_vs_risky(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        y = make_discrete([(10, 1.0)])
        k = find_threshold(y, x, 0.01)
        oracle = bisect_threshold_oracle(y, x, 0.01, 6.0, 8.0)
        assert k == pytest.approx(oracle, rel=1e-6)
        assert k == pytest.approx(6.92, abs=0.05)

    def test_shifted_prospect_dominates_from_one(self, rng):
        x = random_discrete(rng)
        assert find_threshold(shift(x, 1.0), x, 0.1) == 1.0

    def test_reflexive_weak_inequality(self, rng):
        x = random_discrete(rng)
        assert find_threshold(x, x, 0.1) == 1.0

    def test_absent_when_tail_favors_other(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        y = make_discrete([(10, 1.0)])
        assert find_threshold(x, y, 0.01) is None

    def test_gaussian_crossing_closed_form(self):
        # lines -50 - 2k and -55 - 0.5k cross at k = 10/3
        k = find_threshold(make_gaussian(-55, 100), make_gaussian(-50, 400), 0.01)
        assert k == pytest.approx(10.0 / 3.0, rel=1e-6)


class TestCompare:
    def test_deterministic_indifference_dominance(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        r = 0.01
        y = make_discrete([(certain_equivalent(x, r), 1.0)])
        verdict = compare(x, y, r)
        assert verdict.classification in (
            Flexibility.Y_DOMINATES,
            Flexibility.Y_STRICTLY_DOMINATES,
        )
        assert verdict.threshold_k == 1.0

    def test_gaussian_dominance_when_crossing_below_one(self):
        # lines 10 - 2k and 9 - 0.5k cross at k = 2/3 < 1
        verdict = compare(make_gaussian(10, 4), make_gaussian(9, 1), 1.0)
        assert verdict.classification is Flexibility.Y_STRICTLY_DOMINATES
        assert verdict.threshold_k == 1.0

    def test_strictly_more_flexible_with_crossing(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        y = make_discrete([(10, 1.0)])
        verdict = compare(x, y, 0.01)
        assert verdict.classification is Flexibility.Y_STRICTLY_MORE_FLEXIBLE
        assert verdict.threshold_k == pytest.approx(6.92, abs=0.05)
        assert len(verdict.crossings) == 1
        assert verdict.crossings[0] == pytest.approx(verdict.threshold_k, rel=1e-6)

    def test_equally_flexible(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        verdict = compare(x, x, 0.1)
        assert verdict.classification is Flexibility.EQUALLY_FLEXIBLE

    def test_strict_dominance_by_shift(self, rng):
        x = random_discrete(rng)
        verdict = compare(shift(x, 1.0), x, 0.1)
        assert verdict.classification is Flexibility.X_STRICTLY_DOMINATES

    def test_incomparable_for_unsupported_forms(self):
        # 1,001 x 1,001 points is past the exact-convolution support cap
        wide = make_discrete([(v, 1.0 / 1001) for v in range(1001)])
        capped = add_independent(wide, wide)
        assert len(wide.values) ** 2 > CONVOLUTION_SUPPORT_CAP
        with pytest.raises(UnsupportedProspectError):
            tail_order(capped, capped, 0.1)
        verdict = compare(capped, capped, 0.1)
        assert verdict.classification is Flexibility.INCOMPARABLE
        assert verdict.threshold_k is None

    def test_mixed_forms_get_a_verdict(self):
        coin = make_discrete([(0, 0.5), (1, 0.5)])
        mixed = add_independent(make_gaussian(0, 1), coin)
        assert compare(mixed, mixed, 0.1).classification is Flexibility.EQUALLY_FLEXIBLE
        verdict = compare(mixed, add_independent(make_gaussian(0, 2), coin), 0.1)
        assert verdict.classification is Flexibility.X_STRICTLY_DOMINATES

    def test_dominance_implies_more_flexible(self, rng):
        dominant = {
            Flexibility.X_DOMINATES,
            Flexibility.X_STRICTLY_DOMINATES,
        }
        for _ in range(50):
            x, y = random_discrete(rng), random_discrete(rng)
            verdict = compare(x, y, 0.1)
            if verdict.classification in dominant:
                assert find_threshold(x, y, 0.1) == 1.0

    def test_transformation_comparison(self, rng):
        # preference between kX + Z and kY + Z matches the distorted CE sign
        from flexcurve import scale as scale_prospect

        r = 0.1
        for _ in range(50):
            x, y, z = (random_discrete(rng) for _ in range(3))
            k = float(rng.uniform(1.0, 10.0))
            lhs = certain_equivalent(add_independent(scale_prospect(x, k), z), r)
            rhs = certain_equivalent(add_independent(scale_prospect(y, k), z), r)
            direct = certain_equivalent(x, k * r) - certain_equivalent(y, k * r)
            if abs(direct) > 1e-9:
                assert (lhs - rhs > 0) == (direct > 0)


class TestUpperEnvelope:
    def test_three_lines_one_never_optimal(self):
        items = [
            ("A", make_gaussian(10, 2)),
            ("B", make_gaussian(9, 1.9)),
            ("C", make_gaussian(8, 0.2)),
        ]
        segments = upper_envelope(items, 1.0, (1.0, 10.0))
        assert [seg.ids for seg in segments] == [("A",), ("C",)]
        assert segments[0].k_hi == pytest.approx(20.0 / 9.0, rel=1e-9)
        assert segments[1].k_lo == pytest.approx(20.0 / 9.0, rel=1e-9)

    def test_single_prospect_covers_range(self):
        # a line, and a discrete through the scan, where one curve forms no pair
        for only in (make_gaussian(0, 1), make_discrete([(0, 0.5), (100, 0.5)])):
            segments = upper_envelope([("only", only)], 0.5, (1.0, 4.0))
            assert segments == [type(segments[0])(1.0, 4.0, ("only",))]

    @pytest.mark.parametrize("seed", range(4))
    def test_one_distribution_built_three_ways_is_one_segment(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        x = make_discrete([(float(v), 1.0 / n) for v in rng.uniform(-10, 10, n)])
        s, c = float(rng.uniform(0.5, 3)), float(rng.uniform(-5, 5))
        items = [("a", scale(shift(x, c), s)), ("b", Affine(x, s, c * s)), ("c", Affine(Affine(x, 1.0, c), s, 0.0))]
        # the three differ in the last bits, so the grid's top curve flips and spans merge
        ks = _geometric_grid(1.0, 100.0)
        best = np.argmax(np.array([[certain_equivalent(p, k * 0.1) for k in ks] for _, p in items]), axis=0)
        assert (best[1:] != best[:-1]).any()
        # the flips are within the tie tolerance: no bracket is refined, and
        # the envelope takes the grid's pass and the span labels' pass only
        passes, brackets = [], []
        real_ce, real_refine = orders._certain_equivalents, orders._refine
        monkeypatch.setattr(orders, "_certain_equivalents", lambda ps, rhos, **kw: passes.append(1) or real_ce(ps, rhos, **kw))
        monkeypatch.setattr(orders, "_refine", lambda f, lo, *rest: brackets.append(len(lo)) or real_refine(f, lo, *rest))
        assert upper_envelope(items, 0.1, (1.0, 100.0)) == [orders.EnvelopeSegment(1.0, 100.0, ("a", "b", "c"))]
        assert (sum(brackets), len(passes)) == (0, 2)

    def test_identical_prospects_tie(self):
        items = [("a", make_gaussian(3, 1)), ("b", make_gaussian(3, 1))]
        segments = upper_envelope(items, 0.5, (1.0, 4.0))
        assert len(segments) == 1
        assert segments[0].ids == ("a", "b")

    def test_mixed_kind_envelope_matches_pointwise_argmax(self, rng):
        items = [
            ("X", make_discrete([(0, 0.5), (100, 0.5)])),
            ("G", make_gaussian(30, 100)),
            ("D", make_discrete([(10, 1.0)])),
        ]
        r = 0.01
        segments = upper_envelope(items, r, (1.0, 50.0))
        for _ in range(100):
            k = float(10 ** rng.uniform(0, math.log10(50.0)))
            seg = next(s for s in segments if s.k_lo <= k <= s.k_hi)
            best = max(certain_equivalent(p, k * r) for _, p in items)
            labeled = max(
                certain_equivalent(dict(items)[i], k * r) for i in seg.ids
            )
            assert labeled == pytest.approx(best, abs=1e-6 * (1 + abs(best)))

    def test_segments_partition_range(self):
        items = [("X", make_discrete([(0, 0.5), (100, 0.5)])), ("D", make_discrete([(10, 1.0)]))]
        segments = upper_envelope(items, 0.01, (1.0, 20.0))
        assert segments[0].k_lo == 1.0
        assert segments[-1].k_hi == 20.0
        for a, b in zip(segments, segments[1:]):
            assert a.k_hi == pytest.approx(b.k_lo, rel=1e-12)

    def test_k_range_past_the_square_root_of_the_float_range(self):
        # k * r stays moderate while the products of neighbouring k overflow; numpy prints nothing
        items = [("X", make_discrete([(0, 0.5), (100, 0.5)])), ("D", make_discrete([(10, 1.0)]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            segments = upper_envelope(items, 1e-162, (1e160, 1e164))
        assert [s.ids for s in segments] == [("X",), ("D",)]
        assert segments[0].k_lo == 1e160 and segments[-1].k_hi == 1e164
        # the crossing sits at the same k * r as on an ordinary range
        reference = upper_envelope(items, 0.01, (1.0, 1e4))
        assert segments[0].k_hi * 1e-162 == pytest.approx(reference[0].k_hi * 0.01, rel=1e-7)

    def test_rejects_empty_and_bad_range(self):
        with pytest.raises(ValueError):
            upper_envelope([], 0.1, (1.0, 2.0))
        with pytest.raises(ValueError):
            upper_envelope([("a", make_gaussian(0, 1))], 0.1, (2.0, 1.0))

    @pytest.mark.parametrize("k_range", [(1.0, math.inf), (math.inf, math.inf), (-math.inf, 2.0), (1.0, math.nan), (math.nan, 2.0)])
    @pytest.mark.parametrize("kind", ["discrete", "gaussian"])
    def test_rejects_a_range_with_an_infinite_or_nan_bound(self, k_range, kind):
        # an infinite upper bound used to pass the check and fail in the grid with OverflowError
        p = make_discrete([(0, 0.5), (1, 0.5)]) if kind == "discrete" else make_gaussian(0, 1)
        with pytest.raises(ValueError, match=r"^invalid k range "):
            upper_envelope([("a", p), ("b", shift(p, 0.5))], 0.1, k_range)


class TestOneKernelCallPerPass:
    """compare scans X and Y together, and every envelope pass reads every curve, in one kernel call."""

    def spy(self, monkeypatch):
        """Record each CE pass's prospect count, and each kernel call."""
        passes, kernel = [], []
        real_ce, real_kernel = orders._certain_equivalents, flexcurve.prospects._lse_segments
        monkeypatch.setattr(orders, "_certain_equivalents", lambda ps, rhos, **kw: passes.append(len(ps.forms)) or real_ce(ps, rhos, **kw))
        monkeypatch.setattr(flexcurve.prospects, "_lse_segments", lambda ts, seg, *rest: kernel.append(len(seg.starts)) or real_kernel(ts, seg, *rest))
        return passes, kernel

    def test_compare_scan(self, monkeypatch):
        # X's form holds two discrete parts and a Gaussian, Y's one part: three segments a pass
        factors = make_discrete([(0, 0.4), (50, 0.3), (100, 0.3)]), make_discrete([(0, 0.3), (7, 0.2), (13, 0.2), (30, 0.3)])
        x = add_independent(add_independent(*factors), make_gaussian(0.0, 1.0))
        y = make_discrete([(20, 0.5), (60, 0.5)])
        passes, kernel = self.spy(monkeypatch)
        verdict = compare(x, y, 0.01)
        assert verdict.crossings and len(passes) >= 2
        assert passes == [2] * len(passes) and kernel == [3] * len(passes)

    def test_envelope_passes(self, monkeypatch):
        items = [
            ("X", make_discrete([(0, 0.5), (100, 0.5)])),
            ("G", add_independent(make_discrete([(20, 0.5), (40, 0.5)]), make_gaussian(0.0, 100.0))),
            ("D", make_discrete([(10, 1.0)])),
        ]
        passes, kernel = self.spy(monkeypatch)
        segments = upper_envelope(items, 0.01, (1.0, 50.0))
        assert len(segments) >= 2
        # the grid, each refinement round and the span labels
        assert len(passes) >= 3 and passes == [3] * len(passes) and kernel == [3] * len(passes)

    def test_many_brackets_refine_in_one_pass(self, monkeypatch):
        # Coin i meets coin i - 1 at the i-th of 60 geometric k: 59 brackets
        # refined together, each round one CE pass for all of them
        n, r = 60, 0.02
        spreads, meets = np.linspace(60, 5, n).tolist(), np.geomspace(1.5, 40, n).tolist()
        plain = [make_discrete([(-s, 0.5), (s, 0.5)]) for s in spreads]
        shifts = [0.0]
        for i in range(1, n):
            rho = meets[i] * r
            shifts.append(shifts[-1] + certain_equivalent(plain[i - 1], rho) - certain_equivalent(plain[i], rho))
        items = [(f"c{i:02d}", make_discrete([(-s + c, 0.5), (s + c, 0.5)])) for i, (s, c) in enumerate(zip(spreads, shifts))]
        passes, brackets = [], []
        real_ce, real_refine = orders._certain_equivalents, orders._refine
        monkeypatch.setattr(orders, "_certain_equivalents", lambda ps, rhos, **kw: passes.append(kw.get("tilted", False)) or real_ce(ps, rhos, **kw))
        monkeypatch.setattr(orders, "_refine", lambda f, lo, *rest: brackets.append(len(lo)) or real_refine(f, lo, *rest))
        segments = upper_envelope(items, r, (1.0, 50.0))
        assert [seg.ids for seg in segments] == [(pid,) for pid, _ in items]
        # the grid and one splitting round (with tilted means), three refinement rounds, all 59 brackets
        # in the first, and the span labels: the Hermite starts at 128 points a decade leave these nearly
        # parallel coins two rounds more than the quintic ones at 512 did
        assert brackets == [59] and passes == [True] * 2 + [False] * 4
        pytest.importorskip("mpmath")
        for i in range(1, n, 10):
            k = segments[i - 1].k_hi
            root = mp_crossing(items[i - 1][1], items[i][1], r, k)
            assert abs(k - root) <= ROOT_REL_TOL * root


def small_discretes():
    """Discrete prospects on integers with arbitrary float masses."""
    pair = st.tuples(st.integers(-30, 30), st.floats(min_value=0.05, max_value=1.0))
    return st.lists(pair, min_size=2, max_size=4, unique_by=lambda p: p[0]).map(
        lambda pairs: make_discrete(
            [(v, w / math.fsum(w for _, w in pairs)) for v, w in pairs]
        )
    )


class TestRepresentationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(small_discretes(), small_discretes(), small_discretes())
    def test_association_is_equally_flexible(self, a, b, c):
        r = 0.05
        left = add_independent(add_independent(a, b), c)
        right = add_independent(a, add_independent(b, c))
        assert left.values == right.values
        verdict = compare(left, right, r)
        assert verdict.classification is Flexibility.EQUALLY_FLEXIBLE

        # moving 1e-9 of mass from the worst value to the best is a real
        # difference, which the tail certificate must still see
        masses = list(left.masses)
        masses[0] -= 1e-9
        masses[-1] += 1e-9
        nudged = make_discrete(zip(left.values, masses))
        verdict = compare(nudged, right, r)
        assert verdict.classification is Flexibility.X_STRICTLY_DOMINATES
        assert verdict.tail.relation is TailRelation.X_ABOVE


@st.composite
def mixed_pairs(draw):
    """Two Gaussian + discrete sums, some under an affine map; a Gaussian they may share makes equal variances."""
    shared = make_gaussian(draw(st.integers(-10, 10)), draw(st.sampled_from([1.0, 4.0, 9.0])))

    def one():
        if draw(st.booleans()):
            gaussian = shared
        else:
            gaussian = make_gaussian(draw(st.integers(-10, 10)), draw(st.sampled_from([1.0, 2.0, 4.0, 16.0])))
        mixed = add_independent(gaussian, draw(small_discretes()))
        if draw(st.booleans()):
            mixed = Affine(mixed, draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.integers(-5, 5)))
        return mixed

    return one(), one(), draw(st.sampled_from([0.01, 0.1, 1.0]))


class TestMixedForms:
    """Gaussian + discrete forms get certified verdicts that an independent CE in mpmath confirms."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_pairs())
    def test_tail_verdict_holds(self, pair):
        mp = pytest.importorskip("mpmath")
        x, y, r = pair
        for p in (x, y):
            assert compare(p, p, r).classification is Flexibility.EQUALLY_FLEXIBLE
        verdict = compare(x, y, r)
        tail = verdict.tail
        sign = {TailRelation.X_ABOVE: 1, TailRelation.Y_ABOVE: -1, TailRelation.EQUAL: 0}[tail.relation]
        # Equal variances cancel and leave the discrete parts, whose CE gap
        # shrinks like exp(-rho * spread); the support spans at most 170.
        spread = 0.0 if tail.rationale == "Gaussian slope" else 200.0

        def gap(k):
            """CE(X|kr) - CE(Y|kr), and the tie tolerance there."""
            with mp.workdps(60 + int(k * r * spread / 2.3)):
                ce_x, ce_y = (mp_certain_equivalent(p, mp.mpf(k) * r) for p in (x, y))
                return ce_x - ce_y, _TIE_EPS * (1 + max(abs(ce_x), abs(ce_y)))

        # past the certificate the tail's winner is above
        for factor in (1.0, 1.5, 4.0):
            g, tol = gap(tail.certified_from * factor)
            assert sign * g > 0 if sign else abs(g) <= tol
        if sign:
            # from the threshold on, the winner stays above, up to the tie tolerance
            lo = verdict.threshold_k * (1.0 + 2.0 * ROOT_REL_TOL)
            for k in np.geomspace(lo, max(tail.certified_from, 2.0 * lo), 40):
                g, tol = gap(k)
                assert sign * g >= -tol


def _geometric_means(a, b):
    """sqrt(a * b) for positive arrays a and b; sqrt(a) * sqrt(b) where the product leaves the float range."""
    with np.errstate(over="ignore"):
        means = np.sqrt(a * b)
    far = np.isinf(means)
    means[far] = np.sqrt(a[far]) * np.sqrt(b[far])
    return means


def counted(g, limit=500):
    """Wrap a batched diff so the test can count rounds and never hang."""
    calls = []

    def diff(rows, ks):
        calls.append(len(ks))
        assert len(calls) <= limit, "refinement does not close its brackets"
        return g(rows, ks)

    return diff, calls


def round_bound(lo, hi):
    """Two rounds per halving of the widest log width, plus slack."""
    widest = max(math.log(b / a) for a, b in zip(lo, hi))
    return 2 * math.ceil(math.log2(widest / ROOT_REL_TOL)) + 2


class TestRefine:
    def test_roots_straddle_a_sign_change(self, rng):
        r = 0.1
        checked = 0
        for _ in range(40):
            x, y = random_discrete(rng), random_discrete(rng)
            k_star = float(10 ** rng.uniform(0.1, 1.2))
            y = shift(y, certain_equivalent(x, k_star * r) - certain_equivalent(y, k_star * r))
            verdict = compare(x, y, r)
            threshold = find_threshold(x, y, r)
            points = list(verdict.crossings)
            if threshold is not None and threshold > 1.0:
                points.append(threshold)
            for c in points:
                sides = []
                for k in (c * (1.0 - ROOT_REL_TOL), c * (1.0 + ROOT_REL_TOL)):
                    cx, cy = certain_equivalent(x, k * r), certain_equivalent(y, k * r)
                    sides.append((cx - cy, _TIE_EPS * (1.0 + max(abs(cx), abs(cy)))))
                (g_lo, tol_lo), (g_hi, tol_hi) = sides
                assert g_lo * g_hi < 0.0 or abs(g_lo) <= tol_lo or abs(g_hi) <= tol_hi
                checked += 1
        assert checked >= 20

    def test_step_closes_every_bracket(self, rng):
        steps = np.sort(10 ** rng.uniform(0.0, 2.0, size=5))
        lo, hi = steps * 0.9, steps * np.array([1.0045, 1.2, 2.0, 10.0, 1.5])
        lo[2] = 1.0  # one bracket spans several steps' worth of log width

        def g(rows, ks):
            return np.where(ks < steps[rows], -1.0, 1.0)

        diff, calls = counted(g)
        roots = _refine(diff, lo, hi, -np.ones(5), np.ones(5))
        assert np.all(np.abs(roots - steps) <= ROOT_REL_TOL * roots)
        assert len(calls) <= round_bound(lo, hi)

    def test_flat_cubic_closes(self):
        # flat at -1e-6 up to k0 - 0.01, then a triple root at k0: the
        # secant sticks to the flat end until the midpoint rounds take over
        k0 = 3.3

        def g(rows, ks):
            return np.maximum((ks - k0) ** 3, -1e-6)

        lo, hi = np.array([1.0]), np.array([10.0])
        diff, calls = counted(g)
        roots = _refine(diff, lo, hi, g(0, lo), g(0, hi))
        assert abs(roots[0] - k0) <= ROOT_REL_TOL * roots[0]
        assert len(calls) <= round_bound(lo, hi)

    def test_exact_zero_returns_its_point(self):
        def g(rows, ks):
            return np.where(ks < 1.9, -1.0, np.where(ks > 2.1, 1.0, 0.0))

        diff, calls = counted(g)
        roots = _refine(diff, np.array([1.0]), np.array([3.0]), np.array([-1.0]), np.array([1.0]))
        assert 1.9 <= roots[0] <= 2.1
        assert g(0, roots)[0] == 0.0
        assert len(calls) == 1

    def test_stalled_brackets_past_the_square_root_of_the_float_range(self):
        # the geometric midpoint of [1e200, 1e300] is 1e250 though a0 * b0 overflows; numpy prints nothing
        diff, calls = counted(lambda rows, ks: np.where(ks < 3e270, -1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = _refine(diff, np.array([1e200]), np.array([1e300]), np.array([-1.0]), np.array([1.0]))
        assert abs(roots[0] - 3e270) <= ROOT_REL_TOL * roots[0]

    def test_closed_brackets_cost_nothing(self):
        diff, calls = counted(lambda rows, ks: ks)
        roots = _refine(diff, np.array([2.0]), np.array([2.0 * (1.0 + ROOT_REL_TOL)]), np.array([-1.0]), np.array([1.0]))
        assert roots[0] == pytest.approx(2.0, rel=ROOT_REL_TOL)
        assert calls == []


def crossing_pairs(rng, count=40, r=0.1):
    """Random discrete pairs moved so that their CE curves meet at a drawn k*."""
    pairs = []
    for _ in range(count):
        x, y = random_discrete(rng), random_discrete(rng)
        k_star = float(10 ** rng.uniform(0.1, 1.2))
        pairs.append((x, shift(y, certain_equivalent(x, k_star * r) - certain_equivalent(y, k_star * r))))
    return pairs


class TestFirstEstimates:
    """Each bracket's refinement starts from the cubic Hermite root through its ends' values and exact slopes."""

    def test_scan_brackets_close_in_one_round(self, rng, monkeypatch):
        calls_per_bracket = []
        refine = orders._refine

        def counting(diff, lo, hi, g_lo, g_hi, first=None):
            seen = []

            def recorded(rows, ks):
                seen.append(set(rows.tolist()))
                return diff(rows, ks)

            roots = refine(recorded, lo, hi, g_lo, g_hi, first)
            calls_per_bracket.extend(sum(i in rows for rows in seen) for i in range(len(lo)))
            return roots

        monkeypatch.setattr(orders, "_refine", counting)
        for x, y in crossing_pairs(rng):
            compare(x, y, 0.1)
            find_threshold(x, y, 0.1)
        assert len(calls_per_bracket) >= 40
        assert sum(n <= 1 for n in calls_per_bracket) >= 0.9 * len(calls_per_bracket)
        assert max(calls_per_bracket) <= 3

    def test_crossings_match_an_independent_root(self, rng):
        pytest.importorskip("mpmath")
        checked = 0
        for x, y in crossing_pairs(rng):
            for c in compare(x, y, 0.1).crossings:
                root = mp_crossing(x, y, 0.1, c)
                assert abs(c - root) <= 1e-11 * root
                checked += 1
        assert checked >= 40

    def test_smooth_crossing_estimate_is_within_a_quarter_tolerance(self):
        # a log squared, an exponential and a wavy reciprocal, each with its derivative
        for g, dg in (
            (lambda k: math.log(k) ** 2 - 1.3, lambda k: 2.0 * math.log(k) / k),
            (lambda k: math.exp(-k) - 0.05, lambda k: -math.exp(-k)),
            (lambda k: 1.0 / k - 0.3 + 0.01 * math.sin(k), lambda k: -1.0 / k**2 + 0.01 * math.cos(k)),
        ):
            ks = _geometric_grid(1.0, 10.0).tolist()
            j = next(i for i in range(len(ks) - 1) if (g(ks[i]) > 0.0) != (g(ks[i + 1]) > 0.0))
            a, b = lo, hi = ks[j], ks[j + 1]
            while hi - lo > 1e-15 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (g(mid) > 0.0) == (g(a) > 0.0) else (lo, mid)
            start = _hermite_start(a, b, g(a), g(b), a * dg(a), b * dg(b))
            assert abs(start - lo) <= 0.25 * ROOT_REL_TOL * lo

    def test_crossing_pairs_estimates_are_within_a_quarter_tolerance(self, rng, monkeypatch):
        # the starts the scan hands to the refinement, on real CE curves, against mpmath's roots
        pytest.importorskip("mpmath")
        starts = []
        refine = orders._refine
        monkeypatch.setattr(orders, "_refine", lambda diff, lo, hi, g_lo, g_hi, first: starts.extend(first.tolist()) or refine(diff, lo, hi, g_lo, g_hi, first))
        near = 0
        for x, y in crossing_pairs(rng, count=20):
            starts.clear()
            for c, start in zip(compare(x, y, 0.1).crossings, starts):
                root = mp_crossing(x, y, 0.1, c)
                near += abs(start - root) <= 0.25 * ROOT_REL_TOL * root
        assert near >= 18

    def test_estimate_outside_the_bracket_falls_back(self):
        # to the end-point secant root
        a, b = 2.0, 2.0 * 10.0 ** (1 / 128)
        secant = a + 0.25 * (b - a) / (0.25 + 0.75)
        # slopes of the wrong sign: Newton's method on the cubic leaves the bracket
        assert _hermite_start(a, b, 0.25, -0.75, 300.0, 40.0) == secant
        # a slope that is not a number
        assert _hermite_start(a, b, 0.25, -0.75, math.nan, -1.0) == secant
        # exact slopes of a line in log k give its root
        h = math.log(b / a)
        assert _hermite_start(a, b, 0.25, -0.75, -1.0 / h, -1.0 / h) == pytest.approx(a * math.exp(0.25 * h), rel=1e-15)

    def test_no_brackets_cost_nothing(self):
        diff, calls = counted(lambda rows, ks: ks)
        empty = np.empty(0)
        assert _refine(diff, empty, empty, empty, empty).size == 0
        assert calls == []


# The quintic seeding of the 512-a-decade scans (``frozen_grid``): six samples, three on either side of a bracket.
_FROZEN_STENCIL = np.arange(-2, 4)
_FROZEN_SAMPLE = np.arange(len(_FROZEN_STENCIL))


def frozen_steps(g, x):
    """Each row's log k at g = 0 less its x[2], through numpy's Lagrange weights."""
    numerators = np.repeat(g[:, None, :], len(_FROZEN_STENCIL), axis=1)
    denominators = g[:, None, :] - g[:, :, None]
    numerators[:, _FROZEN_SAMPLE, _FROZEN_SAMPLE] = denominators[:, _FROZEN_SAMPLE, _FROZEN_SAMPLE] = 1.0
    with np.errstate(all="ignore"):
        weights = numerators.prod(axis=2) / denominators.prod(axis=2)
        return ((x - x[:, 2, None]) * weights).sum(axis=1)


def frozen_first_estimates(ks, lo, hi, sample):
    """The frozen scans' first estimate of each bracket's root: inverse quintic interpolation of the grid samples, or NaN."""
    cols = np.minimum(lo[:, None] + _FROZEN_STENCIL, len(ks) - 1)
    g = sample(cols)
    steps = g[:, 1:] - g[:, :-1]
    usable = (
        (hi == lo + 1)
        & (lo + _FROZEN_STENCIL[0] >= 0)
        & (lo + _FROZEN_STENCIL[-1] < len(ks))
        & ((steps > 0.0).all(axis=1) | (steps < 0.0).all(axis=1))
    )
    g, cols = g[usable], cols[usable]
    with np.errstate(all="ignore"):
        step = frozen_steps(g, np.log(ks[cols]))
        estimate = ks[lo[usable]] * np.exp(step)
    inside = (estimate > ks[lo[usable]]) & (estimate < ks[hi[usable]])
    out = np.full(len(lo), np.nan)
    out[usable.nonzero()[0][inside]] = estimate[inside]
    return out


def frozen_refine(diff, lo, hi, g_lo, g_hi, first=None):
    """``_refine`` in numpy array arithmetic: the bit-for-bit reference."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ga, gb = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    roots = a + ga * (b - a) / (ga - gb)
    active = np.flatnonzero(b - a > ROOT_REL_TOL * b)
    centre = roots.copy() if first is None else np.where(np.isnan(first), roots, first)
    halved = np.ones(len(a), dtype=bool)
    while active.size:
        a0, b0, ga0, gb0 = a[active], b[active], ga[active], gb[active]
        half = 0.25 * ROOT_REL_TOL * b0
        c = np.minimum(np.maximum(centre[active], a0 + 2.0 * half), b0 - 2.0 * half)
        p1, p2 = c - half, c + half
        stalled = np.flatnonzero(~halved[active])
        mids = _geometric_means(a0[stalled], b0[stalled])
        g = diff(np.concatenate([active, active, active[stalled]]), np.concatenate([p1, p2, mids]))
        n = len(active)
        g1, g2 = g[:n], g[n : 2 * n]
        points = np.array([a0, p1, p2, p2, b0]).T
        values = np.array([ga0, g1, g2, g2, gb0]).T
        if stalled.size:
            points[stalled, 3], values[stalled, 3] = mids, g[2 * n :]
            order = np.argsort(points[stalled, 1:4], axis=1) + 1
            points[stalled, 1:4] = np.take_along_axis(points[stalled], order, axis=1)
            values[stalled, 1:4] = np.take_along_axis(values[stalled], order, axis=1)
        hit = (values == 0.0) | ((values > 0.0) != (ga0 > 0.0)[:, None])
        j = hit.argmax(axis=1)
        rows = np.arange(n)
        a1, b1 = points[rows, j - 1], points[rows, j]
        ga1, gb1 = values[rows, j - 1], values[rows, j]
        zero = gb1 == 0.0
        a[active], b[active], ga[active], gb[active] = a1, b1, ga1, gb1
        with np.errstate(over="ignore"):
            halved[active] = np.square(b1 / a1) <= b0 / a0
        ends = a1 + ga1 * (b1 - a1) / (ga1 - gb1)
        slope = np.where(g1 != g2, g1 - g2, np.inf)
        newton = p1 + g1 * (p2 - p1) / slope
        centre[active] = np.where((newton > a1) & (newton < b1), newton, ends)
        roots[active] = np.where(zero, b1, ends)
        active = active[~(zero | (b1 - a1 <= ROOT_REL_TOL * b1))]
    return roots


SHAPES = ("line", "step", "cubic", "plateau")


def shaped(rows, ks, roots, shapes, amplitudes):
    """Bracket ``rows[i]``'s function at ``ks[i]``: a line, a step, a flat cubic or a line with a zero plateau about its root."""
    u = (ks - roots[rows]) / roots[rows]
    with np.errstate(all="ignore"):
        v = np.select(
            [shapes[rows] == s for s in SHAPES],
            [u, np.where(u < 0.0, -1.0, 1.0), np.maximum(u**3, -1e-6), np.where(np.abs(u) <= 1e-8, 0.0, u)],
        )
        return v * amplitudes[rows]


def assert_refine_same_bits(g, lo, hi, first=None):
    """``_refine`` and ``frozen_refine`` make the same ``diff`` calls and return the same bytes; returns the round count."""
    rows = np.arange(len(lo))
    g_lo, g_hi = g(rows, lo), g(rows, hi)
    calls = {"frozen": [], "floats": []}

    def recorded(name):
        def diff(rows, ks):
            calls[name].append((rows.tolist(), ks.tobytes()))
            assert name == "frozen" or len(calls[name]) <= len(calls["frozen"]), "more rounds than the reference"
            return g(rows, ks)

        return diff

    with np.errstate(all="ignore"):
        want = frozen_refine(recorded("frozen"), lo, hi, g_lo, g_hi, first)
    got = _refine(recorded("floats"), lo, hi, g_lo, g_hi, first)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert calls["floats"] == calls["frozen"]
    return len(calls["floats"])


# A bracket: log10 of its left end, log10 of its relative width (the
# narrowest are closed already), where its root sits in it, its shape, its
# orientation and log10 of its size, and where its first estimate sits
# (None: NaN).
refine_brackets = st.tuples(
    st.floats(0.0, 300.0),
    st.floats(-9.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from(SHAPES),
    st.sampled_from([1.0, -1.0]),
    st.floats(-100.0, 100.0),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)


class TestFrozenReference:
    """The refinement's float bookkeeping gives the numpy versions' bits, call for call."""

    @given(st.lists(refine_brackets, max_size=100), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_refine(self, brackets, without_first):
        lo = np.array([10.0 ** b[0] for b in brackets])
        hi = lo * (1.0 + np.array([10.0 ** b[1] for b in brackets]))
        roots = lo + (hi - lo) * np.array([b[2] for b in brackets])
        shapes = np.array([b[3] for b in brackets], dtype=object)
        amplitudes = np.array([b[4] * 10.0 ** b[5] for b in brackets])
        rows = np.arange(len(brackets))
        g_lo, g_hi = shaped(rows, lo, roots, shapes, amplitudes), shaped(rows, hi, roots, shapes, amplitudes)
        # the function is nonzero at both ends, with opposite signs
        keep = (g_lo != 0.0) & (g_hi != 0.0) & ((g_lo > 0.0) != (g_hi > 0.0))
        first = np.array([math.nan if b[6] is None else b[6] for b in brackets])
        first = None if without_first else (lo + (hi - lo) * first)[keep]
        kept = np.flatnonzero(keep)

        def g(rows, ks):
            return shaped(kept[rows], ks, roots, shapes, amplitudes)

        assert_refine_same_bits(g, lo[keep], hi[keep], first)

    @pytest.mark.parametrize("shape", ["step", "cubic"])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e298])
    def test_refine_stalled_brackets(self, shape, scale):
        # steps and flat cubics keep the secant away from the root: the
        # midpoint rounds take over, over many rounds
        lo = scale * np.array([1.0, 1.5, 2.0, 1.0])
        hi = scale * np.array([2.0, 9.0, 2.5, 100.0])
        roots = scale * np.array([1.3, 7.77, 2.0001, 3.3])
        shapes = np.array([shape] * 4, dtype=object)
        amplitudes = np.array([1.0, -1.0, 1.0, 1e-50])
        rounds = assert_refine_same_bits(lambda rows, ks: shaped(rows, ks, roots, shapes, amplitudes), lo, hi)
        assert rounds >= 3

    def test_refine_exact_zero_at_a_straddle_point(self):
        lo, hi = np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0])
        roots = np.array([1.5, 2.25, 3.9])
        shapes, amplitudes = np.array(["plateau"] * 3, dtype=object), np.array([1.0, -2.0, 1e-3])
        g = lambda rows, ks: shaped(rows, ks, roots, shapes, amplitudes)  # noqa: E731
        assert assert_refine_same_bits(g, lo, hi) == 1
        # each bracket returns the round's point where its function is exactly zero
        rows = np.arange(3)
        found = _refine(g, lo, hi, g(rows, lo), g(rows, hi))
        assert (g(rows, found) == 0.0).all() and (found != roots).all()

    def test_refine_empty(self):
        empty = np.empty(0)
        assert assert_refine_same_bits(lambda rows, ks: ks, empty, empty) == 0
        assert assert_refine_same_bits(lambda rows, ks: ks, empty, empty, empty) == 0


class TestGeometricGrid:
    def test_matches_geomspace_bit_for_bit(self, rng):
        for _ in range(2_000):
            k_lo = float(10 ** rng.uniform(-3.0, 3.0))
            k_hi = k_lo * float(10 ** rng.uniform(1e-4, 3.0))
            n = max(2, int(math.ceil(GRID_POINTS_PER_DECADE * math.log10(k_hi / k_lo))) + 1)
            assert _geometric_grid(k_lo, k_hi).tolist() == np.geomspace(k_lo, k_hi, n).tolist()

    def test_long_scan_and_degenerate_ranges(self):
        grid = _geometric_grid(1.0, 1.82575004811e17)
        n = len(grid)
        assert grid.tolist() == np.geomspace(1.0, 1.82575004811e17, n).tolist()
        assert _geometric_grid(2.0, 2.0).tolist() == [2.0]
        tiny = _geometric_grid(1.0, math.nextafter(1.0, 2.0))
        assert tiny.tolist() == [1.0, math.nextafter(1.0, 2.0)]


class TestBatchedEvaluation:
    """compare, find_threshold and upper_envelope evaluate CEs only in batches."""

    @pytest.fixture
    def no_scalar_ce(self, monkeypatch):
        from flexcurve import orders, prospects, valuation

        def refuse(*args, **kwargs):
            raise AssertionError("scalar CE or log-MGF evaluated")

        for module in (flexcurve, orders, prospects, valuation):
            for name in ("certain_equivalent", "log_mgf"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    PAIRS = {
        "discrete": (make_discrete([(10, 1.0)]), make_discrete([(0, 0.5), (100, 0.5)]), 0.01),
        "gaussian": (make_gaussian(-55, 100), make_gaussian(-50, 400), 0.01),
        "mixed": (
            make_discrete([(5, 0.5), (25, 0.5)]),
            add_independent(make_gaussian(0, 50), make_discrete([(0, 0.5), (40, 0.5)])),
            0.01,
        ),
        "both_mixed": (
            add_independent(make_gaussian(0, 10), make_discrete([(5, 0.5), (25, 0.5)])),
            add_independent(make_gaussian(0, 50), make_discrete([(0, 0.5), (40, 0.5)])),
            0.01,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_no_scalar_calls(self, kind, no_scalar_ce):
        x, y, r = self.PAIRS[kind]
        verdict = compare(x, y, r)
        assert verdict.classification is not Flexibility.INCOMPARABLE
        assert verdict.threshold_k is not None and verdict.threshold_k > 1.0
        assert find_threshold(x, y, r) == verdict.threshold_k
        segments = upper_envelope([("x", x), ("y", y)], r, (1.0, 50.0))
        assert [s.ids for s in segments] == [("y",), ("x",)]


def frozen_grid(k_lo, k_hi):
    """The 512-points-a-decade grid the scans sampled before gaps were proven."""
    if k_hi <= k_lo:
        return np.asarray([k_lo])
    return np.geomspace(k_lo, k_hi, max(2, int(math.ceil(512 * math.log10(k_hi / k_lo))) + 1))


def frozen_scan_difference(x, y, r, certified):
    """The pair scan that served compare and find_threshold before ``_scan``: the reference for both.

    Crossings are grid gaps whose ends both clear the tie tolerance with
    opposite signs; the threshold's bracket, from the last clearly negative
    sample to the next positive one, is refined again even when it is the
    last crossing's.
    """
    if not math.isfinite(certified):
        raise OverflowError(f"tail certificate k={certified!r} out of floating-point range")
    pair = orders._pack((x, y))

    def g(_rows, k):
        ce_x, ce_y = orders._certain_equivalents(pair, k * r)
        return ce_x - ce_y

    ks = frozen_grid(1.0, max(1.0, certified))
    ce_x, ce_y = orders._certain_equivalents(pair, ks * r)
    gs = ce_x - ce_y
    tols = _TIE_EPS * (1.0 + np.maximum(np.abs(ce_x), np.abs(ce_y)))
    significant = np.abs(gs) > tols
    positive = gs > 0.0
    lo = np.flatnonzero(significant[:-1] & significant[1:] & (positive[:-1] != positive[1:]))
    hi = lo + 1
    crossing_count = len(lo)
    negative = np.flatnonzero(gs < -tols)
    threshold = 1.0
    if negative.size:
        i = int(negative[-1])
        later = np.flatnonzero(positive[i + 1 :])
        if later.size:
            lo, hi = np.append(lo, i), np.append(hi, i + 1 + int(later[0]))
        else:
            threshold = float(ks[-1])
    roots = []
    if len(lo):
        guess = frozen_first_estimates(ks, lo, hi, lambda cols: gs[cols])
        roots = orders._refine(g, ks[lo], ks[hi], gs[lo], gs[hi], guess).tolist()
    if len(roots) > crossing_count:
        threshold = roots[-1]
    if threshold <= 1.0 + 1e-9:
        return threshold, tuple(roots[:crossing_count]), bool(np.all(gs > tols))
    beyond = ks > threshold * (1.0 + 2.0 * ROOT_REL_TOL)
    return threshold, tuple(roots[:crossing_count]), bool(np.all(gs[beyond] > tols[beyond]))


def frozen_grid_envelope(items, r, k_lo, k_hi):
    """The grid envelope before ``_scan``: the reference for upper_envelope.

    A top change is refined when the two curves' difference flips sign
    between the gap's ends and one end clears the tie tolerance; otherwise
    it keeps the gap's geometric midpoint.
    """
    ks = frozen_grid(k_lo, k_hi)
    ids = [pid for pid, _ in items]
    curves = orders._pack([p for _, p in items])
    ces = orders._certain_equivalents(curves, ks * r)
    best = np.argmax(ces, axis=0)
    t = np.flatnonzero(best[1:] != best[:-1])
    above, below = best[t], best[t + 1]
    g_lo = ces[above, t] - ces[below, t]
    g_hi = ces[above, t + 1] - ces[below, t + 1]
    cuts = _geometric_means(ks[t], ks[t + 1])
    tol_lo, tol_hi = (_TIE_EPS * (1.0 + np.maximum(np.abs(ces[above, j]), np.abs(ces[below, j]))) for j in (t, t + 1))
    with np.errstate(over="ignore"):
        crossing = (g_lo * g_hi < 0.0) & ((np.abs(g_lo) > tol_lo) | (np.abs(g_hi) > tol_hi))
    first, second = above[crossing], below[crossing]

    def diff(rows, k):
        ce = orders._certain_equivalents(curves, k * r)
        points = np.arange(len(k))
        return ce[first[rows], points] - ce[second[rows], points]

    if first.size:
        lo, g_lo, g_hi = t[crossing], g_lo[crossing], g_hi[crossing]
        guess = frozen_first_estimates(ks, lo, lo + 1, lambda cols: ces[first[:, None], cols] - ces[second[:, None], cols])
        cuts[crossing] = orders._refine(diff, ks[lo], ks[lo + 1], g_lo, g_hi, guess)
    bounds = [k_lo, *cuts.tolist(), k_hi]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    mids = _geometric_means(*np.asarray(spans).T)
    values = orders._certain_equivalents(curves, mids * r)
    top = values.max(axis=0)
    on_top = values >= top - 1e-9 * (1.0 + np.abs(top))
    segments = []
    for (lo, hi), column in zip(spans, on_top.T):
        labels = tuple(sorted(ids[i] for i in np.flatnonzero(column)))
        if segments and segments[-1].ids == labels:
            segments[-1] = orders.EnvelopeSegment(segments[-1].k_lo, hi, labels)
        else:
            segments.append(orders.EnvelopeSegment(lo, hi, labels))
    return segments


def with_frozen_scans(run, *args):
    """``run(*args)`` with compare, find_threshold and upper_envelope on the frozen scans."""
    with mock.patch.object(orders, "_threshold_scan", frozen_scan_difference), mock.patch.object(orders, "_grid_envelope", frozen_grid_envelope):
        return run(*args)


def answers(prospects, r, k_range):
    """compare and find_threshold of the first two prospects, or upper_envelope of them all.

    A pair gives (classification, (threshold, find_threshold both ways), crossings); three or more their segments
    as (k_lo, k_hi, ids), spans narrower than ROOT_REL_TOL, the scans' resolution, merged into their neighbours.
    """
    if len(prospects) == 2:
        x, y = prospects
        verdict = compare(x, y, r)
        return verdict.classification, (verdict.threshold_k, find_threshold(x, y, r), find_threshold(y, x, r)), verdict.crossings
    segments = []
    for s in upper_envelope([(f"p{i}", p) for i, p in enumerate(prospects)], r, k_range):
        if s.k_hi - s.k_lo <= ROOT_REL_TOL * s.k_hi:
            continue
        if segments and segments[-1][2] == s.ids:
            segments[-1] = (segments[-1][0], s.k_hi, s.ids)
        else:
            segments.append((s.k_lo, s.k_hi, s.ids))
    return segments


def close(a, b):
    """Both None, or within twice ROOT_REL_TOL (relative)."""
    return a is b is None or None not in (a, b) and abs(a - b) <= 2.0 * ROOT_REL_TOL * max(a, b)


def agree(got, want):
    """The same labels, and every number ``close``."""
    if isinstance(got, list):
        return [s[2] for s in got] == [s[2] for s in want] and all(close(a, b) for s, t in zip(got, want) for a, b in zip(s[:2], t[:2]))
    return got[0] is want[0] and len(got[2]) == len(want[2]) and all(map(close, got[1] + got[2], want[1] + want[2]))


@st.composite
def crossing_curves(draw):
    """Two to five prospects, discrete or a Gaussian plus a discrete, each moved to meet the first at a drawn k; r; a k range.

    Half the draws move each meeting onto a sample of the scan's grid, where the difference is rounding.
    """
    r, k_range, on_grid = draw(st.sampled_from([0.01, 0.05, 0.1])), (1.0, draw(st.floats(2.0, 50.0))), draw(st.booleans())

    def one():
        part = draw(small_discretes())
        return part if draw(st.booleans()) else add_independent(make_gaussian(0.0, draw(st.sampled_from([1.0, 4.0, 16.0]))), part)

    def meet(p, k):
        return shift(p, certain_equivalent(first, k * r) - certain_equivalent(p, k * r))

    first, n = one(), draw(st.sampled_from([2, 3, 4, 5]))
    prospects = [first]
    for _ in range(n - 1):
        p, k = one(), draw(st.floats(1.0, 20.0))
        if on_grid:
            ks = _geometric_grid(*k_range) if n >= 3 else _geometric_grid(1.0, max(1.0, tail_order(first, meet(p, k), r).certified_from))
            k = float(ks[min(int(np.searchsorted(ks, k)), len(ks) - 1)])
        prospects.append(meet(p, k))
    return prospects, r, k_range


def mp_gap(x, y, r, k):
    """CE(X|kr) - CE(Y|kr) in mpmath at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        rho = mp.mpf(k) * r
        return mp_certain_equivalent(x, rho) - mp_certain_equivalent(y, rho)


def assert_mp_crossing(x, y, r, c, window=1e-6):
    """X - Y changes sign across c within ``window``, or lies within the tie tolerance at c, where its rounding hides the root."""
    tie = _TIE_EPS * (1.0 + max(abs(certain_equivalent(p, c * r)) for p in (x, y)))
    assert mp_gap(x, y, r, c * (1 - window)) * mp_gap(x, y, r, c * (1 + window)) < 0 or abs(mp_gap(x, y, r, c)) <= tie


def mp_signs(x, y, r, c, window):
    """The signs of X - Y at c * (1 -+ window) in mpmath, 0 within the tie tolerance."""
    signs = []
    for k in (c * (1 - window), c * (1 + window)):
        gap, tie = mp_gap(x, y, r, k), _TIE_EPS * (1.0 + max(abs(certain_equivalent(p, k * r)) for p in (x, y)))
        signs.append(0 if abs(gap) <= tie else 1 if gap > 0 else -1)
    return signs


def assert_a_real_crossing(x, y, r, c):
    """mpmath puts a root of X - Y within ROOT_REL_TOL of c, and X - Y clears the tie tolerance either side a little further out."""
    assert_mp_crossing(x, y, r, c, window=ROOT_REL_TOL)
    assert mp_signs(x, y, r, c, 1e-6) in ([1, -1], [-1, 1])


def assert_no_crossing_near(x, y, r, c):
    """mpmath puts no root of X - Y within ROOT_REL_TOL of c: the same sign, beyond the tie tolerance, on both sides."""
    assert mp_signs(x, y, r, c, ROOT_REL_TOL) in ([1, 1], [-1, -1])


def mp_on_top(prospects, r, k):
    """The ids of the prospects within 1e-9 * (1 + |top|) of the top CE at k, in mpmath: ``_label``'s rule."""
    import mpmath as mp

    with mp.workdps(40):
        ces = [mp_certain_equivalent(p, mp.mpf(k) * r) for p in prospects]
    top = max(ces)
    return tuple(f"p{i}" for i, ce in enumerate(ces) if ce >= top - 1e-9 * (1 + abs(top)))


class TestScan:
    """One scanner proves every gap, brackets each crossing by its signed samples, refines each bracket once, and agrees with the 512-a-decade scans it replaced or mpmath checks it."""

    X = make_discrete([(20, 0.3), (50, 0.4), (80, 0.3)])
    Y = make_discrete([(-30, 0.2), (-10, 0.1), (100, 0.4), (170, 0.3)])

    @settings(max_examples=150, deadline=None)
    @given(crossing_curves())
    def test_same_answers_as_the_frozen_scans(self, case):
        prospects, r, k_range = case
        got, want = answers(prospects, r, k_range), with_frozen_scans(answers, prospects, r, k_range)
        if agree(got, want):
            return
        # Where the answers differ, mpmath must show the frozen scans wrong and this one right.
        pytest.importorskip("mpmath")
        if len(prospects) >= 3:
            # every stretch both label, differently: the label is what mpmath puts on top there.  A curve
            # mpmath ties with the top within the label band may be left out: the band's edge is read at
            # span midpoints, so it moves with the cuts in either scan
            for lo, hi, ids in got:
                for f_lo, f_hi, f_ids in want:
                    a, b = max(lo, f_lo), min(hi, f_hi)
                    if ids != f_ids and b - a > ROOT_REL_TOL * b:
                        on_top = mp_on_top(prospects, r, math.sqrt(a * b))
                        assert on_top == ids or set(ids) < set(on_top) and set(f_ids) <= set(on_top)
            p = dict((f"p{i}", x) for i, x in enumerate(prospects))
            # a cut between disjoint labels is where the top curve changes, so a crossing
            for (_, c, left), (_, _, right) in zip(got, got[1:]):
                if not any(close(c, f_c) for _, f_c, _ in want[:-1]) and not set(left) & set(right):
                    assert_a_real_crossing(p[left[0]], p[right[0]], r, c)
            return
        (kind, thresholds, crossings), (frozen_kind, frozen_thresholds, frozen_crossings) = got, want
        missed = [c for c in crossings if not any(close(c, f) for f in frozen_crossings)]
        # a verdict may change only where the frozen scans missed a crossing past their threshold,
        # which the loop below confirms in mpmath: the loser leads on one side of it
        assert kind is frozen_kind or any(c > frozen_thresholds[0] * (1 + 2 * ROOT_REL_TOL) for c in missed)
        assert [k is None for k in thresholds] == [k is None for k in frozen_thresholds]
        x, y = prospects
        for k, frozen in zip(thresholds, frozen_thresholds):
            if not close(k, frozen):
                assert_mp_crossing(x, y, r, k, window=ROOT_REL_TOL)
                assert_no_crossing_near(x, y, r, frozen)
        # a crossing one scan lists and the other does not
        for c in missed:
            assert_a_real_crossing(x, y, r, c)
        for f in frozen_crossings:
            if not any(close(c, f) for c in crossings):
                assert_no_crossing_near(x, y, r, f)

    @pytest.mark.parametrize("c", [23.501866356487312, 27.84435371334215])
    def test_a_crossing_on_a_grid_sample_is_found(self, c):
        # a grid sample lands within the tie band of the crossing: the frozen
        # compare lists no crossing, and the bracket now skips that sample
        y, r = shift(self.Y, c), 0.02
        assert with_frozen_scans(compare, self.X, y, r).crossings == ()
        verdict = compare(self.X, y, r)
        assert verdict.classification is Flexibility.X_STRICTLY_MORE_FLEXIBLE
        assert verdict.crossings == (verdict.threshold_k,)
        pytest.importorskip("mpmath")
        root = mp_crossing(self.X, y, r, verdict.threshold_k)
        assert abs(verdict.threshold_k - root) <= ROOT_REL_TOL * root
        segments = upper_envelope([("x", self.X), ("y", y)], r, (1.0, verdict.tail.certified_from))
        assert [s.ids for s in segments] == [("y",), ("x",)]
        assert abs(segments[0].k_hi - root) <= ROOT_REL_TOL * root

    def test_a_tie_band_running_to_the_end_of_the_grid_closes_on_the_first_sample_past_the_crossing(self):
        # the worst values are 6.3e-12 apart, so from k = 6.8 to the tail
        # certificate at 4.6e12 every sample lies in the tie band, with the sign it has
        x = Affine(make_discrete([(-28, 0.375), (37, 0.22916666666666666), (62, 0.020833333333333332), (127, 0.3541666666666667), (132, 0.020833333333333332)]), 1.1900484374841478, -17.917185306409866)
        y = shift(make_discrete([(6, 0.375), (111, 0.625)]), -57.238541555972326)
        r = 0.05
        verdict = compare(x, y, r)
        assert verdict.tail.relation is TailRelation.X_ABOVE and verdict.tail.certified_from > 1e12
        threshold = find_threshold(x, y, r)
        assert threshold == verdict.threshold_k and verdict.crossings == (threshold,)
        # where the difference is its rounding, the 512-a-decade scan's root moves within mpmath's window below
        assert threshold == pytest.approx(with_frozen_scans(find_threshold, x, y, r), rel=1e-3)
        # The difference is 1e-14 near the root, the CEs' own rounding: the
        # threshold is where mpmath's difference is within the tie band, and
        # its sign flips across it.
        pytest.importorskip("mpmath")
        assert_mp_crossing(x, y, r, threshold, window=1e-3)
        assert abs(mp_gap(x, y, r, threshold)) <= _TIE_EPS

    def test_a_single_crossing_is_refined_once(self, monkeypatch):
        brackets = []
        real_refine = orders._refine
        monkeypatch.setattr(orders, "_refine", lambda f, lo, *rest: brackets.append(len(lo)) or real_refine(f, lo, *rest))
        x, y = make_discrete([(0, 0.5), (100, 0.5)]), make_discrete([(10, 1.0)])
        verdict = compare(x, y, 0.01)
        assert len(verdict.crossings) == 1 and brackets == [1]
        # the frozen scan refined the threshold's bracket a second time, to the same root
        frozen = with_frozen_scans(compare, x, y, 0.01)
        assert brackets == [1, 2] and frozen.classification is verdict.classification
        assert frozen.crossings == pytest.approx(verdict.crossings, rel=ROOT_REL_TOL)


def tangent_line_pair(r=0.02, k_star=3.0, lift=2e-7):
    """A coin and a Gaussian line tangent to its curve near k_star, lifted so that they cross twice within one 512-a-decade step.

    The tangent point moves to the middle of the step of the frozen scans'
    grid over [1, the tail certificate] that holds k_star; the certificate
    depends on the line, so that is done three times.
    """
    x, certified = make_discrete([(0.0, 0.5), (40.0, 0.5)]), 7.4
    for _ in range(3):
        grid = frozen_grid(1.0, certified)
        j = int(np.searchsorted(grid, k_star))
        rho = math.sqrt(grid[j - 1] * grid[j]) * r
        ce, mean = (float(a[0, 0]) for a in orders._certain_equivalents([x], np.array([rho]), tilted=True))
        variance = 2.0 * (ce - mean) / rho  # the line's slope -variance/2 in rho matches the coin's
        y = make_gaussian(ce + variance * rho / 2.0 + lift, variance)
        certified = tail_order(x, y, r).certified_from
    return x, y, r


class TestTwoCrossingsInOneStep:
    """Crossings closer together than the 512-a-decade grid's step are found, each where mpmath puts it."""

    def test_compare_and_find_threshold(self):
        x, y, r = tangent_line_pair()
        verdict = compare(x, y, r)
        assert with_frozen_scans(compare, x, y, r).crossings == ()
        assert verdict.classification is Flexibility.X_STRICTLY_MORE_FLEXIBLE and len(verdict.crossings) == 2
        grid = frozen_grid(1.0, verdict.tail.certified_from)
        assert np.searchsorted(grid, verdict.crossings[0]) == np.searchsorted(grid, verdict.crossings[1])
        assert find_threshold(x, y, r) == verdict.threshold_k == verdict.crossings[1]
        segments = upper_envelope([("x", x), ("y", y)], r, (1.0, 7.4))
        assert [s.ids for s in segments] == [("x",), ("y",), ("x",)]
        assert (segments[0].k_hi, segments[1].k_hi) == pytest.approx(verdict.crossings, rel=ROOT_REL_TOL)
        pytest.importorskip("mpmath")
        for c in verdict.crossings:
            root = mp_crossing(x, y, r, c, rel=1e-5)
            assert abs(c - root) <= ROOT_REL_TOL * root

    def test_envelope_finds_the_middle_curve(self):
        # the benchmark's missed-segment trio: e1 falls steeply, e2 is flat, and e0 is on top only
        # between e1 meeting it at 10 % and e2 meeting it at 50 % of the last 512-a-decade step
        r, k_lo, k_hi = 0.02, 2.0, 2.0 * 10.0**0.02
        grid = frozen_grid(k_lo, k_hi)
        step = grid[-1] / grid[-2]
        e0 = make_discrete([(0.0, 0.5), (20.0, 0.5)])
        items = [("e0", e0)]
        for pid, p, share in (("e1", make_discrete([(-20.0, 0.5), (40.0, 0.5)]), 0.1), ("e2", make_discrete([(10.0, 1.0)]), 0.5)):
            rho = grid[-2] * step**share * r
            items.append((pid, shift(p, certain_equivalent(e0, rho) - certain_equivalent(p, rho))))
        assert [s.ids for s in with_frozen_scans(upper_envelope, items, r, (k_lo, k_hi))] == [("e1",), ("e2",)]
        segments = upper_envelope(items, r, (k_lo, k_hi))
        assert [s.ids for s in segments] == [("e1",), ("e0",), ("e2",)]
        assert grid[-2] < segments[1].k_lo < segments[1].k_hi < grid[-1]
        pytest.importorskip("mpmath")
        p = dict(items)
        for k, pair in ((segments[0].k_hi, ("e1", "e0")), (segments[1].k_hi, ("e0", "e2"))):
            root = mp_crossing(p[pair[0]], p[pair[1]], r, k)
            assert abs(k - root) <= ROOT_REL_TOL * root


def pair_gaps(x, y, r, k_hi):
    """The scan's samples of X against Y on [1, k_hi], and the gaps its proofs settle with a sign (not the samples alone)."""
    pack = orders._pack((x, y))
    ks = orders._scan(pack, r, 1.0, k_hi)[0]
    ces, means = orders._certain_equivalents(pack, ks * r, tilted=True)
    strict = orders._settle(ks, ces[:1], ces[1:], means[:1], means[1:])[2][0]
    return ks, ces, strict


class TestProvenGaps:
    """A gap the scan proves signed keeps that sign beyond the tie tolerance between its samples, in mpmath."""

    @settings(max_examples=40, deadline=None)
    @given(crossing_curves())
    def test_a_proven_gap_keeps_its_sign(self, case):
        pytest.importorskip("mpmath")
        (x, y, *_), r, (_, k_hi) = case
        ks, ces, strict = pair_gaps(x, y, r, k_hi)
        proven = strict.nonzero()[0]
        assume(proven.size)
        # the proven gaps nearest a tie: the smallest difference at either end
        nearest = np.abs(ces[0] - ces[1])
        for j in proven[np.argsort(np.minimum(nearest[proven], nearest[proven + 1]))[:3]].tolist():
            for k in np.geomspace(ks[j], ks[j + 1], 10)[1:-1].tolist():
                ce_x, ce_y = certain_equivalent(x, k * r), certain_equivalent(y, k * r)
                assert strict[j] * mp_gap(x, y, r, k) > _TIE_EPS * (1.0 + max(abs(ce_x), abs(ce_y)))

    def test_a_shifted_copy_is_proven_without_a_sample_between(self):
        # a distribution and itself moved by 1e-3: the difference is the shift at every k
        x = make_discrete([(-20, 0.3), (5, 0.2), (30, 0.5)])
        ks, _, strict = pair_gaps(shift(x, 1e-3), x, 0.05, 20.0)
        assert (strict == 1).all() and len(ks) <= 4 * len(_geometric_grid(1.0, 20.0))


class TestRepeatedIds:
    def test_envelope_rejects_a_repeated_id(self):
        coin, sure = make_discrete([(0, 0.5), (100, 0.5)]), make_discrete([(10, 1.0)])
        for ids in (("a", "a"), ("a", "d", "a")):
            items = [(pid, coin if pid == "a" else sure) for pid in ids]
            with pytest.raises(ValueError, match=r"^repeated prospect id 'a'$"):
                upper_envelope(items, 0.01, (1.0, 50.0))
        with pytest.raises(ValueError, match=r"^repeated prospect id 'g'$"):
            upper_envelope([("g", make_gaussian(0, 1)), ("g", make_gaussian(1, 2))], 0.01, (1.0, 50.0))


@st.composite
def count_pairs(draw):
    """Two discretes, two Gaussians plus discretes, or a prospect and itself moved by 1e-9 to 1e-3 or by 0.01 to 20; r."""
    r, kind, x = draw(st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1])), draw(st.sampled_from(["discrete", "mixed", "near", "moved"])), draw(small_discretes())
    if kind == "discrete":
        return x, draw(small_discretes()), r
    if kind == "mixed":
        variances = draw(st.sampled_from([(1.0, 1.0), (4.0, 4.0), (1.0, 4.0), (16.0, 1.0), (0.0, 4.0)]))
        parts = (x, draw(small_discretes()))
        return (*(add_independent(make_gaussian(draw(st.floats(-5.0, 5.0)), v), p) for v, p in zip(variances, parts)), r)
    size = 10.0 ** draw(st.floats(-9.0, -3.0)) if kind == "near" else draw(st.floats(0.01, 20.0))
    return x, shift(x, draw(st.sampled_from([-1.0, 1.0])) * size), r


def count_answers(x, y, r):
    return repr((compare(x, y, r), find_threshold(x, y, r), find_threshold(y, x, r)))


class TestCrossingCount:
    """A pair whose tilted CDF difference never changes sign gets the scan's answer with no scan."""

    @settings(max_examples=200, deadline=None)
    @given(count_pairs())
    def test_same_answers_as_the_scan(self, case):
        x, y, r = case
        with mock.patch.object(orders, "_margin", lambda *args: 0.0):
            scanned = count_answers(x, y, r)
        assert count_answers(x, y, r) == scanned

    @settings(max_examples=150, deadline=None)
    @given(count_pairs())
    def test_certified_bound_holds_in_mpmath(self, case):
        mp = pytest.importorskip("mpmath")
        x, y, r = case
        tail, margin = orders._tail(x, y, r)
        phi = 0.0 if tail.relation is TailRelation.EQUAL else margin()
        if not phi:
            return
        winner, loser = (x, y) if tail.relation is TailRelation.X_ABOVE else (y, x)
        v_w, v_l = orders._decompose(winner)[2], orders._decompose(loser)[2]
        with mp.workdps(40):
            for k in np.geomspace(1.0, tail.certified_from, 8).tolist():
                rho = mp.mpf(k) * r
                bound = mp.log1p(phi) / rho + (mp.mpf(v_l) - mp.mpf(v_w)) * rho / 2
                assert mp_certain_equivalent(winner, rho) - mp_certain_equivalent(loser, rho) >= bound

    @pytest.mark.parametrize(
        "x, y",
        [
            (make_discrete([(0, 0.5), (10, 0.5)]), make_discrete([(1, 0.5), (11, 0.5)])),
            (add_independent(make_discrete([(0, 0.5), (10, 0.5)]), make_gaussian(0.0, 4.0)), make_discrete([(1, 0.5), (11, 0.5)])),
        ],
        ids=["equal variances", "Gaussian slope"],
    )
    def test_a_certified_pair_runs_no_kernel(self, x, y, monkeypatch):
        calls = []
        monkeypatch.setattr(orders, "_certain_equivalents", lambda *args: calls.append("ce"))
        monkeypatch.setattr(orders, "_pack", lambda *args: calls.append("pack"))
        verdict = compare(x, y, 0.05)
        assert (verdict.classification, verdict.threshold_k, verdict.crossings) == (Flexibility.Y_STRICTLY_DOMINATES, 1.0, ())
        assert find_threshold(y, x, 0.05) == 1.0 and find_threshold(x, y, 0.05) is None
        assert calls == []

    def test_a_certificate_past_the_float_range_still_raises(self):
        x = add_independent(make_discrete([(0, 0.5), (1e308, 0.5)]), make_gaussian(0, 1e12))
        y = make_discrete([(-1e308, 0.5), (0, 0.5)])
        assert tail_order(x, y, 0.01).certified_from == math.inf
        with pytest.raises(OverflowError):
            compare(x, y, 0.01)


def frozen_line_envelope(items, r, k_lo, k_hi):
    """The line envelope before the shared labeller: its own tie rule, exact equality of slope and intercept.

    The reference for upper_envelope on Gaussian-only items.
    """
    groups = {}
    for pid, p in items:
        s = flexcurve.stats(p)
        groups.setdefault((-0.5 * s.variance * r, s.mean), []).append(pid)
    by_slope = {}
    for slope, intercept in groups:
        if slope not in by_slope or intercept > by_slope[slope][1]:
            by_slope[slope] = (slope, intercept)

    def meet(a, b):
        return (a[1] - b[1]) / (b[0] - a[0])

    hull = []
    for line in sorted(by_slope.values()):
        while len(hull) >= 2 and meet(hull[-1], line) <= meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    breakpoints = [meet(a, b) for a, b in zip(hull, hull[1:])]
    segments = []
    for i, line in enumerate(hull):
        lo = max(-math.inf if i == 0 else breakpoints[i - 1], k_lo)
        hi = min(math.inf if i == len(hull) - 1 else breakpoints[i], k_hi)
        if hi > lo:
            segments.append(orders.EnvelopeSegment(lo, hi, tuple(sorted(groups[line]))))
    return segments


@st.composite
def gaussian_items(draw):
    """1-6 Gaussian-only items (Gaussians, their affine maps, sums of two) and maybe one more that repeats one or builds a sum two ways; r; k_hi.

    Values come from a seeded generator, so no three lines meet at one point by construction.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, k_hi = draw(st.sampled_from([0.01, 0.1, 1.0])), 10.0 ** draw(st.floats(0.5, 6.0))

    def gaussian():
        # means in units of r and variances spread over decades, so that lines meet across the whole k range
        return make_gaussian(float(rng.uniform(-5.0, 5.0)) * r, float(10.0 ** rng.uniform(-2.0, 1.0)))

    def one():
        kind = draw(st.sampled_from(["gaussian", "affine", "sum"]))
        if kind == "gaussian":
            return gaussian()
        if kind == "affine":
            return Affine(gaussian(), float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3.0, 3.0)) * r)
        return add_independent(Affine(gaussian(), 1.0, 0.5 * r), gaussian()) if draw(st.booleans()) else add_independent(gaussian(), gaussian())

    items = [(f"p{i}", one()) for i in range(draw(st.integers(1, 6)))]
    twin = draw(st.sampled_from(["none", "repeat", "two ways"]))
    if twin == "repeat":
        items.append(("twin", items[draw(st.integers(0, len(items) - 1))][1]))
    elif twin == "two ways":
        # decimal means and variances, whose float sums differ from the decimal sums in the last bit
        (a, c), (b, d) = (np.round(rng.uniform(0.01, 3.0, 2), 2).tolist() for _ in range(2))
        items += [("sum", add_independent(make_gaussian(a, b), make_gaussian(c, d))), ("twin", make_gaussian(round(a + c, 2), round(b + d, 2)))]
    return items, r, k_hi


def labelled_apart(items, r, segments):
    """Whether, at some segment's geometric midpoint, the label rule names other curves than the segment does."""
    lines = [(s.mean, s.variance) for s in (flexcurve.stats(p) for _, p in items)]
    for seg in segments:
        k = math.sqrt(seg.k_lo * seg.k_hi)
        values = [m - 0.5 * v * r * k for m, v in lines]
        top = max(values)
        if tuple(sorted(pid for (pid, _), v in zip(items, values) if v >= top - 1e-9 * (1.0 + abs(top)))) != seg.ids:
            return True
    return False


class TestSpanLabeller:
    """Both envelope constructions end in one labeller: the line hull keeps its exact breakpoints and labels by the grid's rule."""

    @settings(max_examples=200, deadline=None)
    @given(gaussian_items())
    def test_line_envelope_is_the_frozen_hull_or_the_grids_labels(self, case):
        items, r, k_hi = case
        got, frozen = upper_envelope(items, r, (1.0, k_hi)), frozen_line_envelope(items, r, 1.0, k_hi)
        if not labelled_apart(items, r, frozen):
            assert repr(got) == repr(frozen)
            return
        # Near-tied lines: the hull's breakpoints, labelled as the grid labels them.
        # The grid misses a line on top for less than a few of its steps.
        assume(all(s.k_hi > 1.02 * s.k_lo for s in frozen))
        assert {s.k_lo for s in got} <= {s.k_lo for s in frozen}
        assert [s.ids for s in got] == [s.ids for s in orders._grid_envelope(items, r, 1.0, k_hi)]

    def test_a_sum_and_its_decimal_twin_are_one_segment(self, monkeypatch):
        # mean and variance 0.30000000000000004 against 0.3: the frozen hull named only the sum
        items = [("a", add_independent(make_gaussian(0.1, 0.1), make_gaussian(0.2, 0.2))), ("b", make_gaussian(0.3, 0.3))]
        assert frozen_line_envelope(items, 0.1, 1.0, 10.0) == [orders.EnvelopeSegment(1.0, 10.0, ("a",))]
        monkeypatch.setattr(orders, "_certain_equivalents", lambda *args: pytest.fail("the line hull evaluates no CE"))
        assert upper_envelope(items, 0.1, (1, 10)) == [orders.EnvelopeSegment(1.0, 10.0, ("a", "b"))]
        monkeypatch.undo()
        # a common discrete part sends the same pair through the grid, which labels it alike
        part = make_discrete([(0, 0.5), (1, 0.5)])
        moved = [(pid, add_independent(p, part)) for pid, p in items]
        assert upper_envelope(moved, 0.1, (1, 10)) == [orders.EnvelopeSegment(1.0, 10.0, ("a", "b"))]

    def test_an_ulp_apart_pair_has_no_breakpoint(self):
        # the frozen hull cut at k = 32, where compare finds no crossing
        x, y = make_gaussian(100.0, 4.0), make_gaussian(100.00000000000001, 4.000000000000001)
        assert [s.k_hi for s in frozen_line_envelope([("a", x), ("b", y)], 1.0, 1.0, 100.0)] == [32.0, 100.0]
        assert compare(x, y, 1.0).crossings == ()
        assert upper_envelope([("a", x), ("b", y)], 1.0, (1, 100)) == [orders.EnvelopeSegment(1.0, 100.0, ("a", "b"))]

    def test_a_range_past_the_grids_reach(self):
        # 200 decades, which the grid cannot hold; the hull's breakpoint is exact
        items = [("a", make_gaussian(0, 1)), ("b", make_gaussian(1, 2))]
        assert upper_envelope(items, 1.0, (1, 1e200)) == [orders.EnvelopeSegment(1.0, 2.0, ("b",)), orders.EnvelopeSegment(2.0, 1e200, ("a",))]

    def test_lines_past_the_float_range_neither_raise_nor_warn(self):
        items = [("a", make_gaussian(-1e308, 1e300)), ("b", make_gaussian(1e308, 1e301))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            segments = upper_envelope(items, 1.0, (1, 1e300))
        # the means differ by more than the float range; the lines meet at k = 2e308 / 4.5e300
        assert [s.ids for s in segments] == [("b",), ("a",)]
        assert (segments[0].k_lo, segments[1].k_hi) == (1.0, 1e300)
        assert segments[0].k_hi == segments[1].k_lo == pytest.approx(4.0e8 / 9.0, rel=1e-15)
