import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sforge.errors import CapacityError, PreconditionError
from sforge.family import SetFamily, link, transversal_number
from sforge.spread import (
    check_spread,
    exact_hit_probability,
    find_disjoint_representatives,
    frac_log2_bracket,
    max_spread_restriction,
    covering_bound_bracket,
    remove_elements_spread,
    spread_lemma_mc,
    sunflower_via_spread,
    _wilson_bounds,
)

from support import binom_family, mc_instance, no_small_transversal, seeded_spread_instance


def fam(n, sets):
    return SetFamily.from_sets(n, sets)


class TestCheckSpread:
    def test_binomial_6_2_is_3_spread(self):
        assert check_spread(binom_family(6, 2), 3).ok

    def test_single_pair_violates_2(self):
        v = check_spread(fam(2, [[1, 2]]), 2)
        assert not v.ok
        # the reported witness must itself break the inequality
        F = fam(2, [[1, 2]])
        x = v.violation
        cnt = sum(1 for m in F.members if m & x == x)
        i = x.bit_count()
        assert cnt * 2**i > len(F)
        # the example witness {1,2} breaks it too: 1 > 2^-2 * 1
        assert 1 * 2**2 > 1

    def test_binomial_4_2_boundary(self):
        F = binom_family(4, 2)
        assert check_spread(F, 2).ok
        v = check_spread(F, Fraction(2) + Fraction(1, 100))
        assert not v.ok
        assert v.violation.bit_count() == 1

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError):
            check_spread(SetFamily.from_sets(3, []), 2)

    def test_float_parameter_rejected(self):
        with pytest.raises(PreconditionError):
            check_spread(binom_family(4, 2), 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(1, 7), min_size=1, max_size=4),
            min_size=1, max_size=8,
        ),
        st.fractions(min_value=Fraction(1, 2), max_value=4),
    )
    def test_matches_naive_recheck(self, sets, R):
        F = fam(7, [sorted(s) for s in sets])
        v = check_spread(F, R)
        size = len(F)
        worst = None
        for m in F.members:
            x = m
            sub = x
            while True:
                if sub:
                    cnt = sum(1 for mm in F.members if mm & sub == sub)
                    if Fraction(cnt) * R ** sub.bit_count() > size:
                        worst = sub
                        break
                if sub == 0:
                    break
                sub = (sub - 1) & x
            if worst is not None:
                break
        assert v.ok == (worst is None)
        if not v.ok:
            x = v.violation
            cnt = sum(1 for mm in F.members if mm & x == x)
            assert Fraction(cnt) * R ** x.bit_count() > size


class TestMaxSpreadRestriction:
    def test_spread_family_gives_empty(self):
        assert max_spread_restriction(binom_family(6, 2), 2) == 0

    def test_boundary_tie_prefers_empty(self):
        # |F({1})| R = 3*2 = 6 = |F|: a tie, and the smaller set wins
        assert max_spread_restriction(binom_family(4, 2), 2) == 0

    def test_star_with_stray_pair(self):
        F = fam(6, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [5, 6]])
        assert max_spread_restriction(F, 4) == 0b1

    def test_single_member_gives_whole_set(self):
        F = fam(3, [[1, 2, 3]])
        assert max_spread_restriction(F, 2) == 0b111

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(1, 7), min_size=1, max_size=4),
            min_size=1, max_size=8,
        ),
        st.fractions(min_value=Fraction(1, 2), max_value=4),
    )
    def test_argmax_and_link_spread(self, sets, R):
        F = fam(7, [sorted(s) for s in sets])
        X = max_spread_restriction(F, R)
        counts = {}
        for m in F.members:
            sub = m
            while True:
                counts[sub] = counts.get(sub, 0) + 1
                if sub == 0:
                    break
                sub = (sub - 1) & m
        val = lambda x: counts.get(x, 0) * R ** x.bit_count()
        best = max(val(x) for x in counts)
        assert val(X) == best
        # no strictly-better and no equal-value smaller candidate
        for x in counts:
            if val(x) == best:
                assert (x.bit_count(), x) >= (X.bit_count(), X)
        assert check_spread(link(F, X), R).ok


class TestRemoveElements:
    def test_binomial_4_2_drop_one(self):
        F = binom_family(4, 2)
        cert = remove_elements_spread(F, 2, 0b1)
        assert len(cert.family) == 3
        assert cert.parameter == 1
        assert cert.size_floor == 3
        assert cert.covering_floor == 2
        size, _ = transversal_number(F)
        assert size >= cert.covering_floor

    def test_too_many_removed(self):
        with pytest.raises(PreconditionError):
            remove_elements_spread(binom_family(4, 2), 2, 0b11)

    def test_not_spread_rejected(self):
        F = fam(4, [[1, 2], [1, 3], [1, 4]])
        with pytest.raises(PreconditionError):
            remove_elements_spread(F, 3, 0b10)

    def test_seeded_battery(self):
        for seed in range(40):
            F, R, X = seeded_spread_instance(seed)
            if X == 0:
                continue
            cert = remove_elements_spread(F, R, X)
            assert cert.parameter == R - X.bit_count()
            from math import ceil as _ceil
            c = _ceil(R) - 1
            assert no_small_transversal(F, c)


class TestSunflowerViaSpread:
    def test_disjoint_pairs(self):
        F = binom_family(12, 2)
        w = sunflower_via_spread(F, 3, 4)
        assert w is not None
        assert w.core == 0
        assert w.s == 3
        members = set(F.members)
        assert all(p in members for p in w.petals)

    def test_star_core(self):
        F = fam(21, [[1, x] for x in range(2, 22)])
        w = sunflower_via_spread(F, 4, 3)
        assert w is not None
        assert w.core == 0b1
        assert w.s == 4

    def test_restriction_eats_uniformity(self):
        assert sunflower_via_spread(fam(3, [[1, 2, 3]]), 2, 2) is None

    def test_absence_is_certified(self):
        # four pairwise disjoint pairs need eight points; [4] has four
        assert sunflower_via_spread(binom_family(4, 2), 4, 2) is None


class TestHitProbability:
    def test_empty_set_member_always_hits(self):
        F = SetFamily.from_sets(3, [[]])
        assert exact_hit_probability(F, Fraction(1, 3)) == 1

    def test_single_pair(self):
        F = fam(2, [[1, 2]])
        assert exact_hit_probability(F, Fraction(1, 3)) == Fraction(1, 9)

    def test_binomial_12_2_half(self):
        # misses exactly the subsets with at most one element
        F = binom_family(12, 2)
        assert exact_hit_probability(F, Fraction(1, 2)) == 1 - Fraction(13, 4096)

    def test_ground_cap(self):
        with pytest.raises(CapacityError):
            exact_hit_probability(binom_family(21, 1), Fraction(1, 2))


class TestLogBracket:
    def test_power_of_two(self):
        lo, hi = frac_log2_bracket(Fraction(8))
        assert lo <= 3 <= hi
        assert hi - lo <= Fraction(1, 2**46)

    def test_log2_of_three(self):
        lo, hi = frac_log2_bracket(Fraction(3))
        assert lo < hi
        assert hi - lo <= Fraction(1, 2**46)
        assert abs(float(lo) - 1.5849625007211562) < 1e-9

    def test_fractional_argument(self):
        lo, hi = frac_log2_bracket(Fraction(3, 2))
        assert abs(float(lo) - 0.5849625007211562) < 1e-9
        assert lo <= hi

    def test_reciprocal_is_negative(self):
        lo, hi = frac_log2_bracket(Fraction(1, 3))
        assert lo < 0
        assert abs(float(hi) + 1.5849625007211562) < 1e-9


class TestPaperBound:
    def test_exact_power(self):
        lo, hi, vac = covering_bound_bracket(Fraction(256), Fraction(1, 2), 1)
        assert lo == hi == 1 - Fraction(5, 7)
        assert not vac

    def test_exact_power_m2(self):
        lo, hi, vac = covering_bound_bracket(Fraction(64), Fraction(1), 2)
        assert lo == hi == 1 - Fraction(25, 36)
        assert not vac

    def test_small_argument_vacuous(self):
        lo, hi, vac = covering_bound_bracket(Fraction(6), Fraction(1, 4), 2)
        assert vac
        assert hi is not None and hi <= 0

    def test_argument_at_most_one(self):
        lo, hi, vac = covering_bound_bracket(Fraction(2), Fraction(1, 4), 1)
        assert (lo, hi, vac) == (None, None, True)

    def test_boundary_32_is_vacuous(self):
        lo, hi, vac = covering_bound_bracket(Fraction(32), Fraction(1), 1)
        assert vac
        assert lo == hi == 0

    def test_nonvacuous_bracket(self):
        lo, hi, vac = covering_bound_bracket(Fraction(48), Fraction(1), 1)
        assert not vac
        assert 0 < lo <= hi < 1
        assert hi - lo < Fraction(1, 2**40)


class TestWilson:
    def test_half(self):
        lo, hi = _wilson_bounds(50, 100)
        assert lo < Fraction(1, 2) < hi

    def test_extremes_clamped(self):
        lo, hi = _wilson_bounds(0, 100)
        assert lo == 0 and hi < Fraction(1, 4)
        lo, hi = _wilson_bounds(100, 100)
        assert lo > Fraction(3, 4) and hi == 1

    def test_narrows_with_trials(self):
        lo1, hi1 = _wilson_bounds(500, 1000)
        lo2, hi2 = _wilson_bounds(50000, 100000)
        assert hi2 - lo2 < hi1 - lo1


class TestSpreadLemmaMC:
    def test_empty_set_member(self):
        F = SetFamily.from_sets(4, [[]])
        est = spread_lemma_mc(F, 2, 1, Fraction(1, 2), 5000, seed=1)
        assert est.hit_rate == 1
        assert est.hits == 5000

    def test_example_binomial_12_2(self):
        F = binom_family(12, 2)
        est = spread_lemma_mc(
            F, 6, 2, Fraction(1, 4), 20_000, seed=0, with_exact=True
        )
        exact = 1 - Fraction(13, 4096)
        assert est.exact_probability == exact
        assert est.wilson_low <= exact <= est.wilson_high
        assert est.vacuous  # R*delta = 3/2 is deep in vacuity
        assert not est.violation

    def test_not_spread_rejected(self):
        F = fam(4, [[1, 2], [1, 3]])
        with pytest.raises(PreconditionError):
            spread_lemma_mc(F, 3, 1, Fraction(1, 4), 100)

    def test_seed_determinism(self):
        F = binom_family(10, 2)
        a = spread_lemma_mc(F, 5, 1, Fraction(1, 5), 3000, seed=7)
        b = spread_lemma_mc(F, 5, 1, Fraction(1, 5), 3000, seed=7)
        assert a.hits == b.hits
        c = spread_lemma_mc(F, 5, 1, Fraction(1, 5), 3000, seed=8)
        assert a.hits != c.hits or a.hit_rate == c.hit_rate

    def test_odd_trial_count(self):
        F = binom_family(8, 2)
        est = spread_lemma_mc(F, 4, 1, Fraction(1, 8), 1500, seed=3)
        assert est.trials == 1500
        assert 0 <= est.hits <= 1500

    def test_nonvacuous_instance_beats_bound(self):
        F, R, delta = mc_instance(6)
        est = spread_lemma_mc(F, R, 1, delta, 20_000, seed=11)
        assert not est.vacuous
        assert not est.violation
        assert est.wilson_low > est.covering_bound_high


class TestDisjointRepresentatives:
    def test_two_singletons(self):
        a = SetFamily.from_sets(2, [[1]])
        b = SetFamily.from_sets(2, [[2]])
        assert find_disjoint_representatives([a, b]) == [0b1, 0b10]

    def test_overlap_absence(self):
        g = SetFamily.from_sets(2, [[1, 2]])
        assert find_disjoint_representatives([g, g]) is None

    def test_forbidden_mask_respected(self):
        a = SetFamily.from_sets(3, [[1], [3]])
        reps = find_disjoint_representatives([a], forbidden=0b1)
        assert reps == [0b100]

    def test_three_stars_match_oracle(self):
        groups = [
            SetFamily.from_sets(9, [[1, x] for x in (2, 3, 4)]),
            SetFamily.from_sets(9, [[5, x] for x in (2, 6, 7)]),
            SetFamily.from_sets(9, [[8, x] for x in (9, 2)]),
        ]
        reps = find_disjoint_representatives(groups)
        assert reps is not None
        combined = 0
        for r in reps:
            assert combined & r == 0
            combined |= r

    def test_empty_group_rejected(self):
        with pytest.raises(PreconditionError):
            find_disjoint_representatives([SetFamily.from_sets(2, [])])
