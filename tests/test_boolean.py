import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from sforge import boolean
from sforge.boolean import (
    GlobalnessVerdict,
    biased_measure,
    check_global,
    check_uniform_biased_floor,
    drop_coordinates,
    hypercontractivity_check,
    max_global_restriction,
    measure_upgrade,
    noise_operator,
    remove_elements_global,
    stability,
    verify_sharp_threshold,
)
from sforge.errors import CapacityError, PreconditionError, VerificationError
from sforge.family import (
    GroundSet, SetFamily, canon_key, is_upward_closed, report, upper_closure,
)

from support import (
    binom_family,
    reference_check_global_exhaustive,
    reference_hypercontractivity_check,
    reference_max_global_restriction,
    reference_noise_operator,
    reference_superset_sums,
)

F2 = Fraction(1, 2)
F3 = Fraction(1, 3)
F4 = Fraction(1, 4)
F8 = Fraction(1, 8)


def fam(n, sets):
    return SetFamily.from_sets(n, sets)


def dictator(n):
    return upper_closure(fam(n, [[1]]))


def majority3():
    return fam(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])


def full_cube(n):
    return SetFamily.from_sets(n, [[]]).replace_members(range(1 << n))


# literal definitions, used as oracles against the fast engines


def naive_measure(F, p):
    n = F.ground.n
    return sum(
        (p ** m.bit_count()) * (1 - p) ** (n - m.bit_count()) for m in F.members
    ) or Fraction(0)


def naive_cell(F, p, A, B):
    free = F.ground.n - B.bit_count()
    tot = Fraction(0)
    for m in F.members:
        if m & B == A:
            j = (m & ~B).bit_count()
            tot += p**j * (1 - p) ** (free - j)
    return tot


def naive_is_global(F, p, tau):
    n = F.ground.n
    mu = naive_measure(F, p)
    for b in range(1 << n):
        sub = b
        while True:
            if naive_cell(F, p, sub, b) > tau ** b.bit_count() * mu:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & b
    return True


def naive_stability(F, p, rho):
    n = F.ground.n
    ms = F._member_set
    total = Fraction(0)
    for x in range(1 << n):
        if x not in ms:
            continue
        wx = p ** x.bit_count() * (1 - p) ** (n - x.bit_count())
        for y in ms:
            ker = Fraction(1)
            for i in range(n):
                xi, yi = x >> i & 1, y >> i & 1
                bias = p if yi else 1 - p
                ker *= rho * (xi == yi) + (1 - rho) * bias
            total += wx * ker
    return total


fam_strategy = st.integers(2, 5).flatmap(
    lambda n: st.builds(
        lambda ms: SetFamily(binom_family(n, 1).ground, tuple(ms)),
        st.lists(st.integers(0, (1 << n) - 1), max_size=10),
    )
)
prob_strategy = st.sampled_from([F2, F3, F4, Fraction(2, 5), F8])


def _layered(n, sizes, extra):
    # whole layers make many cells tie; the extra masks break some ties
    return SetFamily(
        GroundSet(n),
        tuple({m for m in range(1 << n) if m.bit_count() in sizes} | set(extra)),
    )


# families on up to 8 coordinates: random masks, or unions of whole layers
wide_fam_strategy = st.integers(1, 8).flatmap(
    lambda n: st.one_of(
        st.builds(
            lambda ms: SetFamily(GroundSet(n), tuple(ms)),
            st.lists(st.integers(0, (1 << n) - 1), max_size=40),
        ),
        st.builds(
            lambda sizes, extra: _layered(n, sizes, extra),
            st.sets(st.integers(0, n)),
            st.lists(st.integers(0, (1 << n) - 1), max_size=3),
        ),
    )
)
# pairs on both sides of 1/(1-p) < tau, so both verdicts occur
pair_strategy = st.sampled_from(
    [(F2, F2), (F2, 1), (F2, Fraction(3, 2)), (F2, 3), (F3, 2), (F4, 2),
     (F8, 4), (Fraction(2, 5), Fraction(5, 4)), (Fraction(3, 4), 2), (F8, 1)]
)


# blocks of 3^1 and 3^2 cells put the block boundaries inside small families
block_digits_strategy = st.sampled_from([1, 2, 8])

# families on 1-6 coordinates, the empty family and the full cube among them
edge_fam_strategy = st.integers(1, 6).flatmap(
    lambda n: st.one_of(
        st.just(SetFamily(GroundSet(n), ())),
        st.just(full_cube(n)),
        st.builds(
            lambda ms: SetFamily(GroundSet(n), tuple(ms)),
            st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        ),
    )
)
# p and tau with terms up to 10^13, so that cells need fields of over 64 bits
big_prob_strategy = st.one_of(
    prob_strategy,
    st.builds(lambda c, a: Fraction(1 + a % (c - 1), c),
              st.integers(2, 10**13), st.integers(0, 10**13)),
)
big_tau_strategy = st.one_of(
    st.sampled_from([1, Fraction(3, 2), 4, Fraction(10**12 + 1, 10**12)]),
    st.builds(Fraction, st.integers(1, 10**13), st.integers(1, 10**13)),
)


def reference_diagonal(F, p, tau):
    """First B in canonical order whose A = B cell breaks tau-globalness."""
    a, c = p.numerator, p.denominator
    tau = Fraction(tau)
    z = reference_superset_sums(F, a, c - a)
    for bmask in sorted(range(1 << F.ground.n), key=canon_key):
        j = bmask.bit_count()
        if z[bmask] * (tau.denominator * c) ** j > (tau.numerator * a) ** j * z[0]:
            return bmask
    return None


class TestBiasedMeasure:
    def test_empty_set_member(self):
        assert biased_measure(fam(2, [[]]), F3) == Fraction(4, 9)

    def test_dictator_is_p(self):
        for n in (2, 3, 5):
            for p in (F3, F8, Fraction(3, 7)):
                assert biased_measure(dictator(n), p) == p

    def test_pair_layer(self):
        assert biased_measure(binom_family(4, 2), F2) == Fraction(6, 16)

    def test_empty_family(self):
        assert biased_measure(fam(3, []), F2) == 0

    def test_full_cube(self):
        assert biased_measure(full_cube(3), Fraction(2, 7)) == 1

    def test_float_rejected(self):
        with pytest.raises(PreconditionError):
            biased_measure(fam(2, [[1]]), 0.5)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            biased_measure(fam(2, [[1]]), Fraction(3, 2))
        with pytest.raises(PreconditionError):
            biased_measure(fam(2, [[1]]), 0)

    @given(fam_strategy, prob_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, F, p):
        assert biased_measure(F, p) == naive_measure(F, p)


class TestDropCoordinates:
    def test_reindex(self):
        F = fam(4, [[2, 4], [2]])
        G = drop_coordinates(F, 0b0100)  # drop element 3
        assert G.ground.n == 3
        assert G.as_sets() == [[2], [2, 3]]

    def test_member_meets_dropped(self):
        with pytest.raises(PreconditionError):
            drop_coordinates(fam(3, [[1, 2]]), 0b010)

    def test_cannot_drop_all(self):
        with pytest.raises(PreconditionError):
            drop_coordinates(fam(2, [[]]), 0b11)


class TestCheckGlobal:
    def test_full_cube_ok(self):
        for tau in (1, 2):
            v = check_global(full_cube(3), F3, tau, exhaustive=True)
            assert v.ok and v.violation is None

    def test_point_mass_violation_at_ground(self):
        # single point {1} on a one-element ground: the offending pair is B=[n]
        v = check_global(fam(1, [[1]]), F2, F2, exhaustive=True)
        assert not v.ok
        assert v.violation == (1, 1)

    def test_point_violation_recheckable(self):
        F = fam(2, [[1]])
        v = check_global(F, F8, 2, exhaustive=True)
        assert not v.ok
        a, b = v.violation
        mu = naive_measure(F, F8)
        assert naive_cell(F, F8, a, b) > 2 ** b.bit_count() * mu

    def test_singleton_exactly_recip_p_global(self):
        # tau = 1/p makes every cell an equality for a single point; non-strict
        F = fam(3, [[1]])
        assert check_global(F, F4, 4, exhaustive=True).ok
        assert not check_global(F, F4, Fraction(7, 2), exhaustive=True).ok

    def test_two_generators_by_exhaustion(self):
        F = upper_closure(fam(3, [[1], [2]]))
        assert check_global(F, F4, 3, exhaustive=True).ok

    def test_engines_agree_on_monotone(self):
        F = upper_closure(fam(4, [[1], [2, 3]]))
        ex = check_global(F, F4, 2, exhaustive=True)
        dg = check_global(F, F4, 2, exhaustive=False)
        assert ex.ok == dg.ok

    def test_engines_agree_nonmonotone_small_p(self):
        # 1/(1-p) = 2 < 3, so the diagonal engine is a complete verdict
        F = binom_family(4, 2)
        ex = check_global(F, F2, 3, exhaustive=True)
        dg = check_global(F, F2, 3, exhaustive=False)
        assert ex.ok == dg.ok

    def test_diagonal_insufficient_rejected(self):
        with pytest.raises(PreconditionError):
            check_global(binom_family(4, 2), F2, Fraction(3, 2), exhaustive=False)

    def test_capacity(self):
        wide = fam(13, [[1, 2]])
        with pytest.raises(CapacityError):
            check_global(wide, F2, 1)  # neither engine is valid here
        with pytest.raises(CapacityError):
            check_global(fam(17, [[1]]), F8, 100)

    def test_report_shape(self):
        rep = report(check_global(fam(1, [[1]]), F2, F2, exhaustive=True))
        assert rep["ok"] is False
        assert rep["violation"] == {"A": (1,), "B": (1,)}

    @given(fam_strategy, prob_strategy, st.sampled_from([1, Fraction(3, 2), 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_matches_naive(self, F, p, tau):
        v = check_global(F, p, tau, exhaustive=True)
        assert v.ok == naive_is_global(F, p, tau)
        if not v.ok:
            a, b = v.violation
            assert naive_cell(F, p, a, b) > tau ** b.bit_count() * naive_measure(F, p)

    @given(wide_fam_strategy, pair_strategy, block_digits_strategy)
    @settings(max_examples=200, deadline=None)
    def test_exhaustive_matches_reference(self, F, pair, digits):
        p, tau = pair
        with mock.patch.object(boolean, "_BLOCK_DIGITS", digits):
            v = check_global(F, p, tau, exhaustive=True)
        assert v == reference_check_global_exhaustive(F, p, tau)

    def test_diagonal_violation_is_canonically_first(self):
        # {1, 2} (mask 3) and {3} (mask 4) both violate; {3} is smaller
        F = fam(3, [[3], [1, 2], [1, 2, 3]])
        v = check_global(F, F8, Fraction(3, 2), exhaustive=False)
        assert v.violation == (4, 4) == (reference_diagonal(F, F8, Fraction(3, 2)),) * 2

    @given(wide_fam_strategy, pair_strategy)
    @settings(max_examples=100, deadline=None)
    def test_diagonal_matches_reference(self, F, pair):
        p, tau = pair
        assume_complete = 1 < tau * (1 - p) or is_upward_closed(F)
        if not assume_complete:
            F = upper_closure(F)
        v = check_global(F, p, tau, exhaustive=False)
        first = reference_diagonal(F, p, tau)
        assert v.ok == (first is None)
        assert v.violation == (None if first is None else (first, first))

    @given(wide_fam_strategy, prob_strategy, block_digits_strategy)
    @settings(max_examples=60, deadline=None)
    def test_superset_sums_match_reference(self, F, p, digits):
        # at tau = 1/p every scale factor of a diagonal cell is 1, so the
        # unpacked cell of B is the superset sum z[B]
        a, b = p.numerator, p.denominator - p.numerator
        n = F.ground.n
        z = [None] * (1 << n)
        with mock.patch.object(boolean, "_BLOCK_DIGITS", digits):
            cells = boolean._packed_cells(F, p, 1 / p, False)
            for top, x in cells.leaves:
                for key, cell in zip(cells.keys, boolean._unpack(x, cells)):
                    z[boolean._cell_of(key + top, n)[1]] = cell
        assert z == reference_superset_sums(F, a, b)

    @given(edge_fam_strategy, big_prob_strategy, big_tau_strategy, st.sampled_from([1, 2, 3]))
    @example(fam(3, [[1]]), F4, 4, 1)  # tau = 1/p: cell ({1}, {1}) equals the limit
    @example(full_cube(3), F3, 1, 2)  # tau = 1: every cell equals the limit
    @example(fam(1, [[]]), F2, Fraction(1, 64), 1)  # the violating cell, 128, fills 8 bits
    @example(fam(1, [[1]]), F2, Fraction(1, 64), 1)  # and so does a diagonal one
    @settings(max_examples=150, deadline=None)
    def test_packed_edges_match_reference(self, F, p, tau, digits):
        # large terms in p and tau make fields wider than 64 bits; a cell at
        # the limit is no violation, and the largest cell must stay below
        # its field's guard bit
        with mock.patch.object(boolean, "_BLOCK_DIGITS", digits):
            assert check_global(F, p, tau, exhaustive=True) == \
                reference_check_global_exhaustive(F, p, tau)
            if not (1 < tau * (1 - p) or is_upward_closed(F)):
                F = upper_closure(F)
            v = check_global(F, p, tau, exhaustive=False)
        first = reference_diagonal(F, p, tau)
        assert v.ok == (first is None)
        assert v.violation == (None if first is None else (first, first))

    def test_large_terms_need_fields_over_64_bits(self):
        tau = Fraction(10**12 + 1, 10**12)
        assert boolean._packed_cells(full_cube(3), F3, tau, True).width > 8
        assert check_global(full_cube(3), F3, tau, exhaustive=True).ok

    def test_exhaustive_keeps_memory_to_blocks(self):
        # a list of all 3^10 cells alone would take about 3 MB
        F = binom_family(10, 5)
        tracemalloc.start()
        try:
            assert check_global(F, F4, 2, exhaustive=True).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("p, tau", [(F4, 2), (F2, Fraction(3, 2))])
    def test_diagonal_keeps_memory_to_leaves(self, p, tau):
        # the upward closure of random sets of sizes 3, 4, 4, 5, 5, 5 on 16
        # coordinates; a list of all 2^16 cells alone would take about 2.8 MB
        rng = random.Random(16)
        gens = [sum(1 << e for e in rng.sample(range(16), size)) for size in (3, 4, 4, 5, 5, 5)]
        F = SetFamily(GroundSet(16), tuple(
            m for m in range(1 << 16) if any(m & g == g for g in gens)))
        tracemalloc.start()
        try:
            check_global(F, p, tau, exhaustive=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @given(fam_strategy, st.sampled_from([F8, Fraction(1, 6)]))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_complete_when_tau_large(self, F, p):
        # tau = 2 > 1/(1-p) for these p, so both engines must agree exactly
        ex = check_global(F, p, 2, exhaustive=True)
        dg = check_global(F, p, 2, exhaustive=False)
        assert ex.ok == dg.ok


class TestMaxGlobalRestriction:
    def test_dictator_restricts_to_generator(self):
        r = max_global_restriction(dictator(3), F8, 2)
        assert (r.a, r.b) == (1, 1)
        assert r.value == F2
        assert len(r.family) == 4 and r.family.ground.n == 2
        assert r.verdict.ok

    def test_full_cube_stays_put(self):
        r = max_global_restriction(full_cube(3), F4, 2)
        assert (r.a, r.b) == (0, 0)
        assert r.value == 1

    def test_tie_break_smallest_singleton(self):
        F = upper_closure(fam(3, [[1], [2]]))
        r = max_global_restriction(F, F8, 4)
        assert (r.a, r.b) == (1, 1)
        assert r.value == F4

    def test_collapse_assert_on_exhaustive_path(self):
        # monotone family, so the exhaustive engine must find its max on the
        # diagonal and the cross-engine equality assertion stays quiet
        F = upper_closure(fam(4, [[1, 2], [3]]))
        r = max_global_restriction(F, F8, 2, exhaustive=True)
        assert r.a == r.b

    def test_full_ground_maximizer_rejected(self):
        with pytest.raises(PreconditionError):
            max_global_restriction(fam(2, [[1]]), F2, 1, exhaustive=True)

    def test_diagonal_engine_needs_a_complete_diagonal(self):
        # 1/(1-p) = 2 > 3/2 and the family is not upward closed
        F = fam(4, [[1], [2, 3], [1, 4]])
        with pytest.raises(PreconditionError):
            check_global(F, F2, Fraction(3, 2), exhaustive=False)
        with pytest.raises(PreconditionError):
            max_global_restriction(F, F2, Fraction(3, 2), exhaustive=False)

    @pytest.mark.parametrize("n, exhaustive", [(18, False), (13, True)])
    def test_capacity_before_any_sum(self, monkeypatch, n, exhaustive):
        def no_cells(*args):
            raise AssertionError("cells transformed past the capacity guard")

        monkeypatch.setattr(boolean, "_packed_cells", no_cells)
        F = fam(n, [[1]])
        with pytest.raises(CapacityError):
            check_global(F, F8, 2, exhaustive=exhaustive)
        with pytest.raises(CapacityError):
            max_global_restriction(F, F8, 2, exhaustive=exhaustive)

    @pytest.mark.parametrize("F, exhaustive", [
        (fam(4, [[1], [2, 3], [1, 4]]), None),  # not upward closed: exhaustive engine
        (fam(4, [[1], [2, 3], [1, 4]]), True),
        (upper_closure(fam(4, [[1], [2, 3]])), None),  # diagonal engine
        (upper_closure(fam(4, [[1], [2, 3]])), True),
    ])
    def test_upward_closure_is_tested_once(self, monkeypatch, F, exhaustive):
        # 1/(1-p) = 2 > 3/2, so only upward closure makes the diagonal complete
        seen = []
        monkeypatch.setattr(boolean, "is_upward_closed",
                            lambda G: seen.append(G) or is_upward_closed(G))
        max_global_restriction(F, F2, Fraction(3, 2), exhaustive=exhaustive)
        assert sum(G is F for G in seen) == 1

    @given(wide_fam_strategy, pair_strategy, st.booleans(), block_digits_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, F, pair, exhaustive, digits):
        p, tau = pair
        if not exhaustive and not (1 < tau * (1 - p) or is_upward_closed(F)):
            F = upper_closure(F)
        a, b, value = reference_max_global_restriction(F, p, tau, exhaustive)
        with mock.patch.object(boolean, "_BLOCK_DIGITS", digits):
            if b == F.ground.full_mask:
                with pytest.raises(PreconditionError):
                    max_global_restriction(F, p, tau, exhaustive=exhaustive)
                return
            r = max_global_restriction(F, p, tau, exhaustive=exhaustive)
        assert (r.a, r.b, r.value) == (a, b, value)

    def test_diagonal_tie_goes_to_the_canonically_first_b(self):
        # {2, 3} (mask 6) and {4} (mask 8) tie for the largest diagonal cell
        F = upper_closure(fam(4, [[4], [2, 3]]))
        r = max_global_restriction(F, F2, 1, exhaustive=False)
        assert (r.a, r.b) == (8, 8)
        assert (r.a, r.b, r.value) == reference_max_global_restriction(F, F2, 1, False)

    def test_ties_go_to_the_canonically_first_cell(self):
        # 28 of the 81 cells of binomial(4, 2) attain the maximum here, and
        # 50 of the 243 cells of binomial(5, 3)
        r = max_global_restriction(binom_family(4, 2), F4, Fraction(4, 3), exhaustive=True)
        assert (r.a, r.b, r.value) == (1, 1, Fraction(81, 256))
        r = max_global_restriction(binom_family(5, 3), F4, Fraction(4, 3), exhaustive=True)
        assert (r.a, r.b, r.value) == (3, 3, Fraction(243, 1024))

    @given(fam_strategy, st.sampled_from([F8, Fraction(1, 6)]))
    @settings(max_examples=30, deadline=None)
    def test_value_is_the_exhaustive_max(self, F, p):
        try:
            r = max_global_restriction(F, p, 2, exhaustive=True)
        except PreconditionError:
            return  # maximizer ate the whole ground; nothing to compare
        n = F.ground.n
        mu = naive_measure(F, p)
        best = mu
        for b in range(1 << n):
            sub = b
            while True:
                val = Fraction(1, 2 ** b.bit_count()) * naive_cell(F, p, sub, b)
                if val > best:
                    best = val
                if sub == 0:
                    break
                sub = (sub - 1) & b
        assert r.value == best


class TestNoiseOperator:
    def test_rho_one_is_identity(self):
        F = majority3()
        vals = noise_operator(F, F4, 1)
        for x in range(8):
            assert vals[x] == (1 if x in F._member_set else 0)

    def test_rho_zero_is_constant_measure(self):
        F = majority3()
        mu = biased_measure(F, F4)
        assert all(v == mu for v in noise_operator(F, F4, 0))

    def test_averaging_bounds(self):
        F = fam(3, [[1], [2, 3]])
        vals = noise_operator(F, F3, Fraction(2, 5))
        assert all(0 <= v <= 1 for v in vals)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            noise_operator(fam(13, [[1]]), F2, F2)

    @given(
        st.integers(1, 6).flatmap(lambda n: st.builds(
            lambda ms: SetFamily(GroundSet(n), tuple(ms)),
            st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        )),
        st.fractions(0, 1, max_denominator=40).filter(lambda p: 0 < p < 1),
        st.one_of(st.sampled_from([0, 1]), st.fractions(0, 1, max_denominator=40)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_loop(self, F, p, rho):
        assert noise_operator(F, p, rho) == reference_noise_operator(F, p, rho)

    @given(fam_strategy, prob_strategy, st.sampled_from([F2, F3, Fraction(4, 5)]))
    @settings(max_examples=30, deadline=None)
    def test_inner_product_is_stability(self, F, p, rho):
        n = F.ground.n
        vals = noise_operator(F, p, rho)
        ms = F._member_set
        inner = sum(
            (p ** x.bit_count()) * (1 - p) ** (n - x.bit_count()) * vals[x]
            for x in range(1 << n)
            if x in ms
        ) or Fraction(0)
        assert inner == stability(F, p, rho)


class TestStability:
    def test_constant_one(self):
        assert stability(full_cube(3), F3, Fraction(2, 7)) == 1

    def test_dictator_closed_form(self):
        for p in (F3, F8, Fraction(2, 5)):
            for rho in (Fraction(0), Fraction(1, 7), F2, Fraction(1)):
                assert stability(dictator(4), p, rho) == p * (rho + (1 - rho) * p)

    def test_rho_zero_squares_the_measure(self):
        F = majority3()
        assert stability(F, F4, 0) == biased_measure(F, F4) ** 2

    def test_rho_one_recovers_the_measure(self):
        F = fam(4, [[1, 3], [2], []])
        assert stability(F, F3, 1) == biased_measure(F, F3)

    def test_empty_point(self):
        # indicator of the all-zeros point: Stab = (1-p)^2 + rho p (1-p)
        p, rho = F4, F3
        assert stability(fam(1, [[]]), p, rho) == (1 - p) ** 2 + rho * p * (1 - p)

    def test_monotone_in_rho(self):
        F = majority3()
        grid = [Fraction(j, 6) for j in range(7)]
        vals = [stability(F, F4, r) for r in grid]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_rho_range(self):
        with pytest.raises(PreconditionError):
            stability(majority3(), F4, Fraction(7, 5))

    @given(fam_strategy, prob_strategy, st.sampled_from([F3, F2, Fraction(5, 6)]))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_double_sum(self, F, p, rho):
        if F.ground.n > 4:
            F = SetFamily(binom_family(4, 1).ground, tuple(m & 0b1111 for m in F.members))
        assert stability(F, p, rho) == naive_stability(F, p, rho)

    def test_kernel_against_simulation(self):
        # seeded spot-check of the per-coordinate resampling kernel
        F, p, rho = majority3(), F4, F3
        exact = float(stability(F, p, rho))
        rng = np.random.default_rng(20260822)
        trials = 60_000
        x = rng.random((trials, 3)) < float(p)
        stay = rng.random((trials, 3)) < float(rho)
        fresh = rng.random((trials, 3)) < float(p)
        y = np.where(stay, x, fresh)
        ms = F._member_set
        to_mask = np.array([1, 2, 4])

        def hits(bits):
            masks = bits @ to_mask
            return np.array([m in ms for m in masks])

        est = float(np.mean(hits(x) & hits(y)))
        assert abs(est - exact) < 0.015


class TestSharpThreshold:
    def test_dictator_is_tight(self):
        rep = verify_sharp_threshold(dictator(3), F8, F4)
        assert rep.rho == Fraction(3, 7)
        # equality case of the correlation bound
        assert rep.mu_tilde * rep.stab == rep.mu_p**2

    def test_constant_one(self):
        rep = verify_sharp_threshold(full_cube(2), F4, F2)
        assert rep.mu_p == rep.mu_tilde == rep.stab == 1

    def test_majority(self):
        rep = verify_sharp_threshold(majority3(), F4, F2)
        assert rep.mu_p == Fraction(5, 32)
        assert rep.mu_tilde == F2
        assert not rep.upgraded

    def test_upgraded_on_full_cube(self):
        rep = verify_sharp_threshold(
            full_cube(3), Fraction(1, 512), F4, tau=2
        )
        assert rep.upgraded and rep.global_tau == 2

    def test_upgrade_needs_globalness(self):
        # a dictator is nowhere near 2-global at this p, so the branch refuses
        with pytest.raises(PreconditionError):
            verify_sharp_threshold(dictator(3), Fraction(1, 512), F4, tau=2)

    def test_upgrade_checks_the_scaling(self):
        with pytest.raises(PreconditionError):
            verify_sharp_threshold(full_cube(3), Fraction(1, 512), F8, tau=2)

    def test_upgrade_checks_p_range(self):
        # p_tilde = 2^6 tau p holds, so only p < 2^-7 / tau is left to fail
        with pytest.raises(PreconditionError, match=r"needs p < 2\^-7 / tau"):
            verify_sharp_threshold(full_cube(3), Fraction(1, 256), F2, tau=2)

    def test_upgrade_checks_the_tau_floor(self):
        with pytest.raises(PreconditionError, match="tau must be at least 1"):
            verify_sharp_threshold(full_cube(3), Fraction(1, 512), F4, tau=F2)

    def test_upgraded_report_carries_tau(self):
        rep = verify_sharp_threshold(full_cube(3), Fraction(1, 512), F4, tau=2)
        assert report(rep)["tau"] == "2"
        assert "tau" not in report(verify_sharp_threshold(full_cube(3), Fraction(1, 512), F4))

    def test_not_monotone_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sharp_threshold(binom_family(4, 2), F8, F4)

    def test_order_of_p(self):
        with pytest.raises(PreconditionError):
            verify_sharp_threshold(dictator(3), F4, F8)

    @given(st.sampled_from([2, 3, 4]), st.sampled_from([F8, Fraction(1, 16)]))
    @settings(max_examples=20, deadline=None)
    def test_monotone_closures_pass(self, n, p):
        F = upper_closure(fam(n, [[1], list(range(1, n + 1))]))
        verify_sharp_threshold(F, p, 4 * p)


class TestMeasureUpgrade:
    def test_full_cube_never_moves(self):
        rep = measure_upgrade(full_cube(3), Fraction(1, 512), 2, z=1, m=1)
        assert rep.r_mask == 0
        assert rep.final_measure == 1
        assert rep.final_p == F4
        assert rep.rounds[0].measure_in == 1

    def test_dictator_restricts_then_saturates(self):
        rep = measure_upgrade(dictator(4), Fraction(1, 512), 2, z=9, m=1)
        assert rep.r_mask == 1
        assert rep.rounds[0].restriction == 0b1
        assert rep.final_measure == 1
        assert rep.final_family.ground.n == 3
        assert len(rep.final_family) == 8

    def test_layer_closure_two_rounds(self):
        F = upper_closure(binom_family(6, 3))
        rep = measure_upgrade(F, Fraction(1, 2**16), 2, z=44, m=2)
        assert rep.r_mask == 0b111  # first canonical generator
        assert rep.final_p == F4
        assert rep.final_measure == 1
        assert len(rep.rounds) == 2
        assert rep.rounds[1].restriction == 0
        start = biased_measure(F, Fraction(1, 2**16))
        assert rep.final_measure ** (4**2) >= start ** (3**2)

    def test_measure_precondition(self):
        # the measure at p = 1/512 is nowhere near tau^-1
        with pytest.raises(PreconditionError):
            measure_upgrade(dictator(4), Fraction(1, 512), 2, z=1, m=1)

    def test_p_precondition(self):
        with pytest.raises(PreconditionError):
            measure_upgrade(upper_closure(binom_family(6, 3)), Fraction(1, 2**10), 2, z=26, m=2)

    def test_not_monotone_rejected(self):
        with pytest.raises(PreconditionError):
            measure_upgrade(binom_family(6, 3), Fraction(1, 2**16), 2, z=44, m=2)

    def test_tau_floor(self):
        with pytest.raises(PreconditionError):
            measure_upgrade(full_cube(3), Fraction(1, 512), Fraction(3, 2), z=1, m=1)

    @pytest.mark.parametrize("z, m, name", [(True, 1, "z"), (1, True, "m"), (1.0, 1, "z")])
    def test_counts_must_be_ints(self, z, m, name):
        # a bool is no count, though isinstance(True, int) holds
        with pytest.raises(PreconditionError, match=f"{name} must be a positive integer"):
            measure_upgrade(full_cube(3), Fraction(1, 512), 2, z=z, m=m)


class TestHypercontractivity:
    GATE4 = Fraction(2 * 693147, 10**6) / 64  # certified ln(4)/16/4 at tau = 1

    def test_constant_one(self):
        rep = hypercontractivity_check(full_cube(2), F4, 1, self.GATE4, 4)
        assert rep.lhs == 1 and rep.mu == 1

    def test_empty(self):
        rep = hypercontractivity_check(fam(2, []), F4, 1, self.GATE4, 4)
        assert rep.lhs == 0 and rep.mu == 0

    def test_dictator_at_gate(self):
        gate = self.GATE4 / 4
        rep = hypercontractivity_check(dictator(4), F4, 4, gate, 4)
        assert rep.rho == gate == rep.rho_gate
        assert rep.lhs**2 <= rep.mu**4

    def test_odd_q(self):
        hypercontractivity_check(dictator(3), F4, 4, Fraction(1, 200), 3)

    def test_rho_above_gate(self):
        with pytest.raises(PreconditionError):
            hypercontractivity_check(dictator(4), F4, 4, F8, 4)

    def test_fractional_q_rejected(self):
        with pytest.raises(PreconditionError):
            hypercontractivity_check(dictator(4), F4, 4, Fraction(1, 1000), Fraction(9, 2))

    def test_globalness_enforced(self):
        with pytest.raises(PreconditionError):
            hypercontractivity_check(binom_family(4, 2), F2, 1, Fraction(1, 100), 4)

    def test_reports_match_the_fraction_reference_on_seeded_families(self):
        # tau = 1 / min(p, 1 - p) makes every family tau-global, and rho =
        # 1/200 or less stays under the gate for q <= 5 at tau <= 4
        rng = random.Random(26)
        for _ in range(40):
            n = rng.randint(1, 7)
            F = full_cube(n).replace_members(rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            p = rng.choice([F4, F3, F2, Fraction(2, 3)])
            tau = 1 / min(p, 1 - p)
            rho = rng.choice([Fraction(1, 200), Fraction(3, 1000), Fraction(1, 999)])
            q = rng.randint(3, 5)
            got = hypercontractivity_check(F, p, tau, rho, q)
            want = reference_hypercontractivity_check(F, p, tau, rho, q)
            assert got == want and report(got) == report(want)


class TestUniformBiasedFloor:
    def test_single_pair(self):
        rep = check_uniform_biased_floor(fam(6, [[1, 2]]))
        assert rep.p == F3
        assert rep.mu == Fraction(1, 9)
        assert rep.floor == Fraction(1, 60)

    def test_full_layer(self):
        rep = check_uniform_biased_floor(binom_family(5, 2))
        assert rep.mu == Fraction(2072, 3125)
        assert rep.floor == F4

    def test_seeded_battery(self):
        import random

        rng = random.Random(711)
        for _ in range(30):
            n = rng.randint(4, 12)
            k = rng.randint(1, min(4, n - 1))
            layer = binom_family(n, k)
            size = rng.randint(1, min(len(layer), 12))
            F = layer.replace_members(rng.sample(layer.members, size))
            check_uniform_biased_floor(F)

    def test_rejects_mixed(self):
        with pytest.raises(PreconditionError):
            check_uniform_biased_floor(fam(4, [[1], [2, 3]]))

    def test_rejects_k_equal_n(self):
        with pytest.raises(PreconditionError):
            check_uniform_biased_floor(fam(3, [[1, 2, 3]]))


class TestRemoveElementsGlobal:
    def test_two_generator_closure(self):
        F = upper_closure(fam(3, [[1], [2]]))
        rep = remove_elements_global(F, F4, 3, 0b100)
        assert rep.tau_hat == 12
        assert rep.measure == Fraction(21, 64)
        assert rep.measure_floor == Fraction(7, 64)
        assert all(not m & 0b100 for m in rep.family.members)

    def test_budget_boundary(self):
        # dictator is exactly (1/p)-global; |X| p tau then hits 1 exactly
        with pytest.raises(PreconditionError):
            remove_elements_global(dictator(3), F8, 8, 0b010)

    def test_globalness_hypothesis(self):
        with pytest.raises(PreconditionError):
            remove_elements_global(dictator(3), F8, 2, 0b010)

    def test_x_outside_ground(self):
        with pytest.raises(PreconditionError):
            remove_elements_global(full_cube(2), F4, 2, 0b100)
