import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sforge.bounds import (
    BoundFormula,
    bound_names,
    bound_rhs,
    example_23,
    fstar_family,
    verify_instance,
)
from sforge.domains import Domain
from sforge.errors import PreconditionError, VerificationError
from sforge.family import SetFamily, trace_cover
from sforge.sunflowers import (
    CoreMode,
    CorePredicate,
    find_sunflower,
    oracle_max_sunflower_free,
    product_kernel,
)


def mask(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def fam(n, sets):
    return SetFamily.from_sets(n, sets)


FROZEN_OPTIMA = {
    (5, 2, 1): 4, (5, 2, 2): 1, (5, 3, 1): 10, (5, 3, 2): 5,
    (6, 2, 1): 5, (6, 2, 2): 1, (6, 3, 1): 10, (6, 3, 2): 6,
    (7, 2, 1): 6, (7, 2, 2): 1, (7, 3, 1): 11, (7, 3, 2): 6,
}


class TestBoundRhs:
    def test_registry_is_complete(self):
        assert bound_names() == sorted([
            "erdos-rado", "phi-cap", "erdos-matching", "large-n-main",
            "large-n-main-alt", "frankl-furedi", "small-k-main",
            "delta-method-bound", "double-exp-uniform",
            "downclosed-cover-bound",
        ])

    def test_erdos_rado_values(self):
        assert bound_rhs("erdos-rado", {"s": 3, "k": 2}).value == 8
        assert bound_rhs("erdos-rado", {"s": 2, "k": 4}).value == 24

    def test_phi_cap_is_exact_arithmetic(self):
        f = bound_rhs("phi-cap", {"s": 3, "t": 2})
        assert f.value == Fraction(2 ** 14 * 3) ** 2
        assert bound_rhs("phi-cap", {"s": 4, "t": 1}).value == 3

    def test_erdos_matching_crossover(self):
        # clique side wins while the ground set is small, the cover side
        # takes over at n = 7
        assert bound_rhs("erdos-matching", {"n": 5, "k": 2, "s": 3}).value == 10
        assert bound_rhs("erdos-matching", {"n": 6, "k": 2, "s": 3}).value == 10
        assert bound_rhs("erdos-matching", {"n": 7, "k": 2, "s": 3}).value == 11

    def test_large_n_main_depth_one_drops_the_error_term(self):
        f = bound_rhs("large-n-main", {"n": 40, "k": 3, "s": 3, "t": 1})
        assert f.value == 2 * 741  # (s-1) C(39, 2)
        assert f.hypotheses_met is False

    def test_large_n_main_exact_rational_at_power_of_two_ratio(self):
        n, k = 2 ** 20 * 4, 4
        f = bound_rhs("large-n-main", {"n": n, "k": k, "s": 3, "t": 2})
        assert isinstance(f.value, Fraction)
        lead = 6 * _comb(n - 2, 2)
        extra = (
            Fraction(2 ** 14 * 3) ** 2 * 2 ** 17 * 9 * 4
            * Fraction(k, n) * 20 * _comb(n - 2, 2)
        )
        assert f.value == lead + extra
        assert f.phi_source == "exact"

    def test_alt_variant_uses_squared_log(self):
        p = {"n": 2 ** 10 * 2, "k": 2, "s": 3, "t": 2}
        base = bound_rhs("large-n-main", p)
        alt = bound_rhs("large-n-main-alt", p)
        lead = 6 * _comb(p["n"] - 2, 0)
        assert (base.value - lead) * Fraction(2 ** 5 * 10, 2 ** 17) \
            == alt.value - lead

    def test_symbolic_formulas_refuse_numbers(self):
        for name in ("small-k-main", "delta-method-bound", "double-exp-uniform"):
            f = bound_rhs(name, {"n": 10, "k": 3, "s": 3, "t": 2})
            assert f.value is None
            assert f.symbolic
            assert f.hypotheses_met is False
            assert f.comparable is False

    def test_downclosed_cover_bound(self):
        assert bound_rhs(
            "downclosed-cover-bound", {"n": 12, "k": 3, "s": 3, "t": 1}
        ).value == 0
        f = bound_rhs(
            "downclosed-cover-bound", {"n": 16, "k": 4, "s": 3, "t": 2}
        )
        r = Fraction(4)
        expected = (
            Fraction(2 ** 14 * 3) ** 2 * Fraction(2 ** 19 * 3 * 3) / r * 2
            * _comb(14, 2)
        )
        assert f.value == expected

    def test_unknown_name_and_missing_params(self):
        with pytest.raises(PreconditionError, match="unknown bound"):
            bound_rhs("no-such-bound", {})
        with pytest.raises(PreconditionError, match="needs parameter"):
            bound_rhs("erdos-rado", {"s": 3})
        with pytest.raises(PreconditionError, match="nonnegative int"):
            bound_rhs("erdos-rado", {"s": 3, "k": 2.5})
        with pytest.raises(PreconditionError, match="nonnegative int"):
            bound_rhs("erdos-rado", {"s": True, "k": 3})
        with pytest.raises(PreconditionError, match="s >= 2"):
            bound_rhs("erdos-rado", {"s": 1, "k": 3})

    def test_evaluation_is_deterministic(self):
        p = {"n": 14, "k": 4, "s": 3, "t": 2}
        assert bound_rhs("large-n-main", p) == bound_rhs("large-n-main", p)

    def test_phi_source_upper_estimate_past_the_search_range(self):
        f = bound_rhs("frankl-furedi", {"n": 12, "k": 3, "s": 5, "t": 2})
        assert f.phi_source == "upper-estimate"
        assert f.value == (Fraction(2 ** 14 * 5) ** 2) * _comb(10, 1)


def _comb(n, k):
    from math import comb
    return comb(n, k)


class TestExample23:
    def test_single_point_skeleton_gives_a_star(self):
        out = example_23(5, 2, 2, 1, fam(5, [[1]]))
        assert out.as_sets() == [[1, 2], [1, 3], [1, 4], [1, 5]]

    def test_product_skeleton_counts_exactly(self):
        T = SetFamily.from_sets(10, product_kernel(3, 2).as_sets())
        out = example_23(10, 4, 3, 2, T)
        assert len(out.members) == 4 * _comb(6, 2)
        assert find_sunflower(out, CorePredicate(3, CoreMode.AT_MOST, 1)) is None

    def test_membership_is_exactly_the_trace_condition(self):
        T = fam(8, [[1, 2], [1, 3]])
        out = example_23(8, 3, 3, 2, T)
        assert len(out.members) == 2 * _comb(5, 1)
        supp = mask(1, 2, 3)
        for m in out.members:
            assert (m & supp) in (mask(1, 2), mask(1, 3))

    def test_planted_sunflower_is_rejected(self):
        T = fam(8, [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(PreconditionError, match="carries an s-sunflower"):
            example_23(8, 3, 3, 2, T)

    def test_two_petal_check_catches_any_pair(self):
        with pytest.raises(PreconditionError, match="carries an s-sunflower"):
            example_23(8, 3, 2, 2, fam(8, [[1, 2], [1, 3]]))

    def test_empty_skeleton(self):
        out = example_23(6, 3, 3, 1, fam(6, []))
        assert out.members == ()

    def test_validation(self):
        with pytest.raises(PreconditionError, match="uniform"):
            example_23(8, 3, 3, 2, fam(8, [[1], [2, 3]]))
        with pytest.raises(PreconditionError, match="1 <= t <= k <= n"):
            example_23(5, 6, 3, 2, fam(5, [[1, 2]]))
        with pytest.raises(PreconditionError, match="support exceeds"):
            example_23(4, 2, 3, 1, fam(6, [[5], [6]]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
            lambda ab: ab[0] < ab[1]
        ),
        min_size=1, max_size=4, unique=True,
    ))
    def test_size_identity_on_random_skeletons(self, pairs):
        T = fam(9, [list(p) for p in pairs])
        assume(len(T.members) == len(pairs))
        try:
            out = example_23(9, 3, 3, 2, T)
        except PreconditionError:
            assume(False)
        sigma = T.support().bit_count()
        assert len(out.members) == len(T.members) * _comb(9 - sigma, 1)


class TestFstarFamily:
    def test_single_pair_is_its_star(self):
        A = Domain.binomial(8, 3)
        out = fstar_family(A, fam(8, [[1, 2]]), 3)
        assert len(out.members) == 6
        assert all(m & mask(1, 2) == mask(1, 2) for m in out.members)
        assert set(out.members) == set(trace_cover(A.family, fam(8, [[1, 2]])).members)

    def test_two_disjoint_pairs_drop_cross_members(self):
        A = Domain.binomial(8, 3)
        T = fam(8, [[1, 2], [3, 4]])
        out = fstar_family(A, T, 3)
        assert len(out.members) == 8
        supp = mask(1, 2, 3, 4)
        for m in out.members:
            assert (m & supp) in (mask(1, 2), mask(3, 4))
        # the trace keeps the 4 members meeting both pairs; the gap is
        # exactly what the skeleton-squared estimate must absorb
        assert len(trace_cover(A.family, T).members) - len(out.members) == 4

    def test_empty_skeleton(self):
        A = Domain.binomial(8, 3)
        assert fstar_family(A, fam(8, []), 3).members == ()

    def test_skeleton_outside_shadow(self):
        A = Domain.sequences(4, 2)
        with pytest.raises(PreconditionError, match="shadow"):
            fstar_family(A, SetFamily.from_sets(8, [[1, 2]]), 3)

    def test_ground_mismatch(self):
        A = Domain.binomial(8, 3)
        with pytest.raises(PreconditionError, match="ground"):
            fstar_family(A, fam(6, [[1, 2]]), 3)

    def test_sunflower_skeleton_rejected(self):
        A = Domain.binomial(9, 3)
        with pytest.raises(PreconditionError, match="carries an s-sunflower"):
            fstar_family(A, fam(9, [[1, 2], [3, 4], [5, 6]]), 3)

    def test_petal_validation(self):
        A = Domain.binomial(8, 3)
        with pytest.raises(PreconditionError, match="petals"):
            fstar_family(A, fam(8, [[1, 2]]), 1)


class TestVerifyInstance:
    def test_frozen_grid_with_independent_oracle(self):
        for (n, s, t), frozen in FROZEN_OPTIMA.items():
            A = Domain.binomial(n, 2)
            rep = verify_instance(A, s, t)
            assert rep["optimum_certified"] is True
            assert rep["optimum"] == frozen
            assert rep["violations"] == []
            assert rep["construction"] is not None
            assert rep["construction"] <= rep["optimum"]
            pred = CorePredicate(s, CoreMode.AT_MOST, t - 1)
            assert oracle_max_sunflower_free(A.family, pred) == frozen

    def test_intersecting_case_is_tight(self):
        rep = verify_instance(Domain.binomial(5, 2), 2, 1)
        assert rep["construction"] == rep["optimum"] == 4

    def test_matching_bound_is_tight_at_seven_points(self):
        rep = verify_instance(Domain.binomial(7, 2), 3, 1)
        row = _bound_row(rep, "erdos-matching")
        assert row["applicable"] and row["hypotheses_met"]
        assert row["value"] == "11"
        assert rep["optimum"] == 11

    def test_sandwich_against_met_bounds(self):
        rep = verify_instance(Domain.binomial(7, 2), 3, 2)
        for row in rep["bounds"]:
            if row["applicable"] and row["hypotheses_met"] and row["value"]:
                assert Fraction(rep["optimum"]) <= Fraction(row["value"])
        row = _bound_row(rep, "erdos-rado")
        assert row["applicable"] and row["value"] == "8"

    def test_any_pred_with_two_petals_collapses_to_one(self):
        rep = verify_instance(
            Domain.binomial(6, 3), 2, 1, pred=CorePredicate(2, CoreMode.ANY)
        )
        assert rep["optimum"] == 1
        assert rep["construction"] == 1
        kinds = {c["kind"]: c for c in rep["constructions"]}
        assert kinds["single-member"]["legal"] is True
        assert kinds["skeleton-lift"]["legal"] is False

    def test_budget_exhaustion_downgrades_to_bounds_only(self):
        rep = verify_instance(Domain.binomial(7, 2), 3, 1, budget=5)
        assert rep["optimum"] is None
        assert rep["optimum_certified"] is False
        assert rep["witness"] is None
        assert rep["violations"] == []
        assert any(row["applicable"] for row in rep["bounds"])

    def test_pred_petals_must_match(self):
        with pytest.raises(PreconditionError, match="petal count"):
            verify_instance(
                Domain.binomial(6, 2), 3, 1, pred=CorePredicate(2, CoreMode.ANY)
            )

    def test_depth_one_skips_inapplicable_formulas(self):
        rep = verify_instance(Domain.binomial(6, 2), 3, 1)
        assert _bound_row(rep, "erdos-rado")["applicable"] is False
        assert _bound_row(rep, "phi-cap")["applicable"] is False
        assert _bound_row(rep, "erdos-matching")["applicable"] is True
        assert _bound_row(rep, "downclosed-cover-bound")["applicable"] is False

    def test_phi_provenance_appears_in_rows(self):
        rep = verify_instance(Domain.binomial(6, 2), 3, 2)
        assert _bound_row(rep, "frankl-furedi")["phi_source"] == "exact"

    def test_report_is_deterministic(self):
        a = verify_instance(Domain.binomial(6, 2), 3, 2)
        b = verify_instance(Domain.binomial(6, 2), 3, 2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _bound_row(rep, name):
    for row in rep["bounds"]:
        if row["name"] == name:
            return row
    raise AssertionError(f"no bound row named {name}")
