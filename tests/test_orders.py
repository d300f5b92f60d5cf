import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    _first_estimates,
    _geometric_grid,
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
        verdict = _discrete_tail((0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.5, 0.5 + 1e-12), 0.1)
        assert verdict.relation is TailRelation.X_ABOVE
        assert verdict.certified_from == pytest.approx(1.0, abs=1e-5)
        assert verdict.rationale == "lexicographic level 1"

    def test_mass_rounding_is_a_tie(self):
        # a few ulps between two masses is rounding, not a different distribution
        bumped = (0.5, math.nextafter(math.nextafter(0.5, 1.0), 1.0))
        verdict = _discrete_tail((0.0, 1.0), (0.5, 0.5), (0.0, 1.0), bumped, 0.1)
        assert verdict.relation is TailRelation.EQUAL
        # below the differing level the rounding is a tie, above it counts
        verdict = _discrete_tail((0.0, 1.0, 2.0), (0.25, 0.5, 0.25), (0.0, 1.0, 2.0), (math.nextafter(0.25, 1.0), 0.5 - 1e-6, 0.25 + 1e-6), 0.1)
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


class TestOneKernelCallPerPass:
    """compare scans X and Y together, and every envelope pass reads every curve, in one kernel call."""

    def spy(self, monkeypatch):
        """Record each CE pass's prospect count, and each kernel call."""
        passes, kernel = [], []
        real_ce, real_kernel = orders._certain_equivalents, flexcurve.prospects._lse_segments
        monkeypatch.setattr(orders, "_certain_equivalents", lambda ps, rhos: passes.append(len(ps.forms)) or real_ce(ps, rhos))
        monkeypatch.setattr(flexcurve.prospects, "_lse_segments", lambda ts, seg: kernel.append(len(seg.starts)) or real_kernel(ts, seg))
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


def sampled_brackets(g, ks):
    """One-step brackets of g's sign changes on the grid, and g's samples there."""
    gs = g(ks)
    lo = np.flatnonzero((gs[:-1] > 0.0) != (gs[1:] > 0.0))
    return gs, lo, lo + 1


class TestFirstEstimates:
    """The scan's own samples seed each bracket, so smooth crossings close in one round."""

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

    def closes(self, g, ks, lo, hi, gs, first):
        diff, calls = counted(lambda rows, k: g(k))
        roots = _refine(diff, ks[lo], ks[hi], gs[lo], gs[hi], first)
        assert len(calls) <= round_bound(ks[lo], ks[hi])
        return roots

    def test_smooth_crossing_estimate_is_within_a_quarter_tolerance(self):
        ks = _geometric_grid(1.0, 10.0)

        def g(k):
            return np.log(k) ** 2 - 1.3

        gs, lo, hi = sampled_brackets(g, ks)
        first = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        root = math.exp(math.sqrt(1.3))
        assert abs(first[0] - root) <= 0.25 * ROOT_REL_TOL * root
        diff, calls = counted(lambda rows, k: g(k))
        refined = _refine(diff, ks[lo], ks[hi], gs[lo], gs[hi], first)
        assert len(calls) == 1
        assert abs(refined[0] - root) <= 1e-14 * root

    def test_non_monotone_samples_fall_back(self):
        ks = _geometric_grid(1.0, 10.0)
        i = 300
        k0 = 0.5 * (ks[i] + ks[i + 1])
        k1 = 0.5 * (ks[i - 2] + ks[i - 1])  # a second root two steps to the left

        def g(k):
            return (k - k0) * (k - k1)

        gs, lo, hi = sampled_brackets(g, ks)
        assert lo.tolist() == [i - 2, i]
        first = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        assert np.isnan(first).all()
        roots = self.closes(g, ks, lo, hi, gs, first)
        assert np.allclose(roots, [k1, k0], rtol=ROOT_REL_TOL, atol=0.0)

    def test_brackets_at_the_grid_ends_fall_back(self):
        ks = _geometric_grid(1.0, 10.0)
        k0, k1 = 0.5 * (ks[0] + ks[1]), 0.5 * (ks[-2] + ks[-1])

        def g(k):
            return (k - k0) * (k1 - k)

        gs, lo, hi = sampled_brackets(g, ks)
        assert lo.tolist() == [0, len(ks) - 2]
        first = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        assert np.isnan(first).all()
        roots = self.closes(g, ks, lo, hi, gs, first)
        assert np.allclose(roots, [k0, k1], rtol=ROOT_REL_TOL, atol=0.0)

    def test_multi_step_bracket_falls_back(self):
        # a threshold bracket skips samples within the tie tolerance
        ks = _geometric_grid(1.0, 10.0)
        k0 = 0.5 * (ks[200] + ks[201])

        def g(k):
            return np.log(k / k0)

        gs = g(ks)
        lo, hi = np.array([199]), np.array([203])
        first = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        assert np.isnan(first).all()
        roots = self.closes(g, ks, lo, hi, gs, first)
        assert abs(roots[0] - k0) <= ROOT_REL_TOL * k0

    def test_estimate_outside_the_bracket_falls_back(self):
        # arctan of a steep line: strictly monotone samples, but nearly flat
        # away from the root, so the interpolating polynomial overshoots
        ks = _geometric_grid(1.0, 10.0)
        k0 = ks[250] + 0.1 * (ks[251] - ks[250])

        def g(k):
            return np.arctan(1e3 * (k - k0))

        gs, lo, hi = sampled_brackets(g, ks)
        assert lo.tolist() == [250]
        steps = np.diff(gs[lo[0] - 2 : lo[0] + 4])
        assert np.all(steps > 0.0)
        first = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        assert np.isnan(first).all()
        roots = self.closes(g, ks, lo, hi, gs, first)
        assert abs(roots[0] - k0) <= ROOT_REL_TOL * k0

    def test_no_brackets_cost_nothing(self):
        diff, calls = counted(lambda rows, ks: ks)
        empty = np.empty(0)
        assert _refine(diff, empty, empty, empty, empty).size == 0
        assert calls == []


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
