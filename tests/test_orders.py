import math

import numpy as np
import pytest

from flexcurve import (
    Flexibility,
    TailRelation,
    UnsupportedProspectError,
    add_independent,
    certain_equivalent,
    compare,
    find_threshold,
    make_discrete,
    make_gaussian,
    shift,
    tail_order,
    upper_envelope,
)
from flexcurve.orders import _discrete_tail

from conftest import expected_utility_ce, random_discrete


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
        verdict = _discrete_tail((0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.5, math.nextafter(0.5, 1.0)), 0.1)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.certified_from == pytest.approx(1.0, abs=1e-5)
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

    def test_unsupported_mixed_unbounded_pair(self):
        mixed = add_independent(make_gaussian(0, 1), make_discrete([(0, 0.5), (1, 0.5)]))
        with pytest.raises(UnsupportedProspectError):
            tail_order(mixed, mixed, 0.1)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            tail_order(make_gaussian(0, 1), make_gaussian(0, 2), 0.0)


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
        mixed = add_independent(make_gaussian(0, 1), make_discrete([(0, 0.5), (1, 0.5)]))
        verdict = compare(mixed, mixed, 0.1)
        assert verdict.classification is Flexibility.INCOMPARABLE
        assert verdict.threshold_k is None

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
        segments = upper_envelope([("only", make_gaussian(0, 1))], 0.5, (1.0, 4.0))
        assert segments == [type(segments[0])(1.0, 4.0, ("only",))]

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

    def test_rejects_empty_and_bad_range(self):
        with pytest.raises(ValueError):
            upper_envelope([], 0.1, (1.0, 2.0))
        with pytest.raises(ValueError):
            upper_envelope([("a", make_gaussian(0, 1))], 0.1, (2.0, 1.0))
