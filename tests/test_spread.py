import importlib.util
import json
import math
from pathlib import Path

import pytest
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings, strategies as st

from sforge import spread
from sforge.errors import CapacityError, PreconditionError
from sforge.family import SetFamily, elements_of, report, transversal_number
from sforge.spread import (
    check_spread,
    exact_hit_probability,
    frac_log2_bracket,
    covering_bound_bracket,
    remove_elements_spread,
    spread_lemma_mc,
    _link_counts,
    _wilson_bounds,
)

from support import (
    binom_family,
    mc_instance,
    no_small_transversal,
    reference_check_spread,
    reference_frac_log2_bracket,
    reference_log2_bracket,
    reference_link_counts,
    reference_mc_hits,
    seeded_spread_instance,
)


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


# member lists on [8]: mixed sizes, the empty set included, or one wide member
SPREAD_SETS = st.one_of(
    st.lists(st.sets(st.integers(1, 8), max_size=8), min_size=1, max_size=10),
    st.sets(st.integers(1, 8), min_size=5, max_size=8).map(lambda es: [es]),
)
# R in [1/2, 4]: small denominators, which meet the families' own ratios,
# and numerators up to 4 * 10^18
SPREAD_RATIOS = st.one_of(
    st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=12),
    st.integers(1, 10**18).flatmap(
        lambda d: st.integers((d + 1) // 2, 4 * d).map(lambda n: Fraction(n, d))
    ),
)


class TestCheckSpreadOracle:
    """check_spread's whole verdict against the per-key loop of
    ``reference_check_spread``: ok, the canonically first violator and the
    family size."""

    @settings(max_examples=400, deadline=None)
    @given(SPREAD_SETS, SPREAD_RATIOS)
    def test_verdict_equals_the_per_key_reference(self, sets, R):
        F = fam(8, [sorted(s) for s in sets])
        assert check_spread(F, R) == reference_check_spread(F, R)

    @settings(max_examples=200, deadline=None)
    @given(SPREAD_SETS, SPREAD_RATIOS, st.sets(st.integers(1, 8), max_size=3))
    def test_removal_verdicts_follow_the_reference(self, sets, R, xs):
        F = fam(8, [sorted(s) for s in sets])
        X = sum(1 << e - 1 for e in xs)
        if len(xs) >= R:
            return
        outer = reference_check_spread(F, R)
        if not outer.ok:
            with pytest.raises(PreconditionError) as info:
                remove_elements_spread(F, R, X)
            assert info.value.details["violation"] == elements_of(outer.violation)
            return
        cert = remove_elements_spread(F, R, X)
        if cert.family.members and cert.parameter > 0:
            assert reference_check_spread(cert.family, cert.parameter).ok

    def test_the_first_violator_is_the_smallest_canonical_one(self):
        # {1,2,3} at R = 4: every nonempty subset of it violates, and the
        # canonically first is the singleton {1}, not the member itself
        v = check_spread(fam(3, [[1, 2, 3]]), 4)
        assert v.violation == 0b1
        assert v == reference_check_spread(fam(3, [[1, 2, 3]]), 4)


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

    def test_x_outside_the_ground_rejected(self):
        with pytest.raises(PreconditionError, match="outside the ground"):
            remove_elements_spread(binom_family(6, 2), 2, 0b1000000)

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

    @pytest.mark.parametrize("p", [0.5, 1e-3, "x", None])
    def test_p_must_be_exact(self, p):
        with pytest.raises(PreconditionError):
            exact_hit_probability(fam(2, [[1, 2]]), p)

    def test_p_may_be_an_int_or_a_string(self):
        F = fam(2, [[1, 2]])
        assert exact_hit_probability(F, 1) == 1
        assert exact_hit_probability(F, "1/3") == Fraction(1, 9)


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

    rationals = st.builds(
        Fraction, st.integers(1, 10**30), st.integers(1, 10**30)
    )

    @settings(max_examples=200, deadline=None)
    @given(rationals, st.sampled_from([1, 10, 48, 96]))
    def test_equals_the_fraction_implementation(self, x, steps):
        assert frac_log2_bracket(x, steps) == reference_frac_log2_bracket(x, steps)

    @pytest.mark.parametrize("steps", [1, 10, 48, 96])
    def test_powers_of_two_and_one_equal_the_fraction_implementation(self, steps):
        for e in range(-70, 71, 7):
            x = Fraction(2) ** e
            assert frac_log2_bracket(x, steps) == reference_frac_log2_bracket(x, steps)
        assert frac_log2_bracket(Fraction(1), steps) == reference_frac_log2_bracket(1, steps)

    @pytest.mark.parametrize("j", range(1, 6))
    def test_endpoints_that_straddle_a_digit_stop_early(self, j):
        # x just below 2^(1/2^j): the j-th squaring puts lo below 2 and hi at 2
        v = 2 << (200 * 2**j)
        for _ in range(j):
            v = isqrt(v)
        x = Fraction(v, 1 << 200)
        lo, hi = frac_log2_bracket(x, 96)
        assert (lo, hi) == reference_frac_log2_bracket(x, 96)
        assert hi - lo == Fraction(1, 2 ** (j - 1))

    BRACKET_STEPS = st.sampled_from([0, 1, 5, 48, 96])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(-70, 70).map(lambda e: Fraction(2) ** e), rationals),
           BRACKET_STEPS)
    def test_equals_the_digit_loop_at_powers_of_two_and_elsewhere(self, x, steps):
        assert frac_log2_bracket(x, steps) == reference_log2_bracket(x, steps)

    @pytest.mark.parametrize("steps", [0, 1, 5, 48, 96])
    def test_every_power_of_two_equals_the_digit_loop(self, steps):
        for e in range(-70, 71):
            x = Fraction(2) ** e
            assert frac_log2_bracket(x, steps) == reference_log2_bracket(x, steps)
            assert frac_log2_bracket(x, steps) == (Fraction(e), e + Fraction(1, 2 ** steps))

    @settings(max_examples=200, deadline=None)
    @given(rationals, BRACKET_STEPS)
    def test_bracket_holds_log2_within_float_tolerance(self, x, steps):
        lo, hi = frac_log2_bracket(x, steps)
        exact = math.log2(x.numerator) - math.log2(x.denominator)
        assert float(lo) <= exact + 1e-9 and exact - 1e-9 <= float(hi)

    @settings(max_examples=100, deadline=None)
    @given(rationals, st.integers(1, 6))
    def test_bracket_is_sound(self, x, steps):
        # with lo = a / 2^steps: 2^a <= x^(2^steps), and likewise x^(2^steps) <= 2^b
        lo, hi = frac_log2_bracket(x, steps)
        a, b = lo * 2**steps, hi * 2**steps
        assert a.denominator == 1 and b.denominator == 1
        power = x ** (2**steps)
        assert Fraction(2) ** int(a) <= power <= Fraction(2) ** int(b)


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

    @pytest.mark.parametrize("m, mu_norm", [(0, 1), (-2, 1), (1, 0), (1, -3), (-1, -1)])
    @pytest.mark.parametrize("R, delta", [(9, 4), (64, 1), (48, 1), (2, Fraction(1, 4))])
    def test_m_and_mu_norm_below_one_rejected(self, R, delta, m, mu_norm):
        # covering_bound_bracket(9, 4, -2) once returned lo > hi
        with pytest.raises(PreconditionError):
            covering_bound_bracket(Fraction(R), Fraction(delta), m, mu_norm)

    @pytest.mark.parametrize("m, mu_norm", [(Fraction(3, 2), 1), (1.5, 1), (True, 1), (1, Fraction(3, 2)),
                                            (1, 1.5), (1, True), (2.0, 1), (Fraction(2), 1)])
    def test_m_and_mu_norm_must_be_ints(self, m, mu_norm):
        # a Fraction or float exponent once left exact arithmetic for floats
        with pytest.raises(PreconditionError):
            covering_bound_bracket(Fraction(64), Fraction(1), m, mu_norm)

    @pytest.mark.parametrize("R,delta", [(4, 0), (4, Fraction(-1, 8)), (0, Fraction(1, 8)),
                                         (-4096, Fraction(1, 16)), (-2, Fraction(-1, 2))])
    def test_non_positive_parameters_rejected(self, R, delta):
        with pytest.raises(PreconditionError):
            covering_bound_bracket(Fraction(R), Fraction(delta), 1)

    @pytest.mark.parametrize("R, delta", [(64.0, Fraction(1)), (Fraction(64), 0.5)])
    def test_float_parameters_rejected(self, R, delta):
        # a float once reached arg.numerator and died with AttributeError
        with pytest.raises(PreconditionError, match="must be exact"):
            covering_bound_bracket(R, delta, 1)


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

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1, 8)])
    def test_non_positive_delta_rejected_before_sampling(self, monkeypatch, delta):
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(spread, "_block_seed", sample)
        F = fam(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
        with pytest.raises(PreconditionError):
            spread_lemma_mc(F, 2, 4, delta, 16)

    @pytest.mark.parametrize("m", [True, 1.0, Fraction(2)])
    def test_a_non_int_m_rejected_before_sampling(self, monkeypatch, m):
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(spread, "_block_seed", sample)
        F = fam(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
        with pytest.raises(PreconditionError):
            spread_lemma_mc(F, 2, m, Fraction(1, 8), 16)

    @pytest.mark.parametrize("trials", [True, 2.5, 16.0, Fraction(16)])
    def test_a_non_int_trial_count_rejected_before_sampling(self, monkeypatch, trials):
        # trials=True once ran one trial and reported "trials": true
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(spread, "_block_seed", sample)
        F = fam(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
        with pytest.raises(PreconditionError, match="m and trials must be positive"):
            spread_lemma_mc(F, 2, 2, Fraction(1, 8), trials)

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

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 5000])
    def test_hits_match_reference(self, trials):
        F = binom_family(9, 2)
        est = spread_lemma_mc(F, Fraction(9, 2), 2, Fraction(1, 8), trials, seed=trials)
        assert est.hits == reference_mc_hits(F, Fraction(1, 4), trials, trials)

    def test_hits_match_reference_on_64_elements(self):
        F = binom_family(64, 1)
        est = spread_lemma_mc(F, 64, 1, Fraction(1, 64), 3000, seed=5)
        assert est.hits == reference_mc_hits(F, Fraction(1, 64), 3000, 5)
        assert 0 < est.hits < 3000

    def test_zero_member_hits_every_trial(self):
        F = SetFamily.from_sets(3, [[], [1, 2]])
        est = spread_lemma_mc(F, 1, 1, Fraction(1, 2), 1025, seed=2)
        assert est.hits == 1025 == reference_mc_hits(F, Fraction(1, 2), 1025, 2)

    def test_frozen_benchmark_hit_counts(self):
        # bench/frozen.json pins the hit counts of the benchmark's Monte
        # Carlo jobs: R = 4, m = 2, delta = 1/8, 65,536 trials
        bench = Path(__file__).resolve().parent.parent / "bench"
        spec = importlib.util.spec_from_file_location("bench_gen", bench / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        with open(bench / "frozen.json", encoding="utf-8") as fh:
            entries = json.load(fh)["mc"]
        assert entries
        for entry in entries:
            F = SetFamily.from_sets(20, gen.as_sets(gen.mc_family(entry["family_seed"])))
            est = spread_lemma_mc(F, 4, 2, Fraction(1, 8), 65_536, seed=entry["mc_seed"])
            assert est.hits == entry["hits"], entry

    def test_nonvacuous_instance_beats_bound(self):
        F, R, delta = mc_instance(6)
        est = spread_lemma_mc(F, R, 1, delta, 20_000, seed=11)
        assert not est.vacuous
        assert not est.violation
        assert est.wilson_low > est.covering_bound_high



MASKS = st.lists(st.sets(st.integers(0, 63), max_size=8).map(lambda es: sum(1 << e for e in es)),
                 max_size=12)


@given(MASKS)
@settings(max_examples=200, deadline=None)
def test_link_counts_match_the_definition_in_key_order(masks):
    # the order is each mask in turn, its submasks in descending numeric order
    assert list(_link_counts(masks).items()) == list(reference_link_counts(masks).items())


@pytest.mark.parametrize("trials", [65_535, 65_536, 65_537, 131_073])
def test_hits_match_reference_across_slice_boundaries(trials):
    # 64 blocks of 1,024 trials share one bit-slice: inside one slice, exactly
    # one, a second slice of one trial, a third slice of one trial
    F = binom_family(9, 2)
    est = spread_lemma_mc(F, Fraction(9, 2), 2, Fraction(1, 8), trials, seed=trials)
    assert est.hits == reference_mc_hits(F, Fraction(1, 4), trials, trials)


def _no_count(masks):
    raise AssertionError("submasks counted past the cap")


def test_check_spread_refuses_a_member_past_the_subset_cap_before_counting(monkeypatch):
    monkeypatch.setattr(spread, "_ENUM_CAP", 1 << 10)
    assert check_spread(SetFamily.from_sets(11, [range(1, 11)]), 1).ok  # 2^10 subsets
    monkeypatch.setattr(spread, "_link_counts", _no_count)
    with pytest.raises(CapacityError, match="too many distinct subsets") as exc:
        check_spread(SetFamily.from_sets(11, [[1], range(1, 12)]), 1)
    assert exc.value.details == {"widest": 11, "cap": 1 << 10}


def test_an_estimate_reports_its_covering_bracket_and_exact_probability():
    # R delta = 2 > 1, so the bracket 1 - (5/log2 2)^1 = -4 is reported
    F = SetFamily.from_sets(4, [[1], [2], [3], [4]])
    got = report(spread_lemma_mc(F, 4, 1, Fraction(1, 2), 64, seed=0, with_exact=True))
    assert got == {
        "R": "4", "m": 1, "delta": "1/2", "trials": 64, "hits": 63,
        "hit_rate": "0.984375", "wilson_low": "0.879579", "wilson_high": "0.998163",
        "vacuous": True, "violation": False,
        "covering_bound_low": "-4.000000", "covering_bound_high": "-4.000000",
        "exact_probability": "15/16",
    }
