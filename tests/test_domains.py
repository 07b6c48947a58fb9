import pytest
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from sforge.errors import CapacityError, ParseError, PreconditionError
from sforge.family import SetFamily, link
from sforge.domains import (
    Domain,
    check_assumptions,
    check_rt_spread,
    check_tau_homogeneous,
    domain_from_json_obj,
    homogeneous_subfamily,
    max_homogeneous_restriction,
    most_subsets_homogeneous,
    regularity_identity_holds,
    remove_elements_homogeneous,
    verify_shadow_bound,
)


def mask(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


class TestConstruction:
    def test_binomial(self):
        A = Domain.binomial(5, 3)
        assert len(A) == 10
        assert A.k == 3
        assert A.ground_bits == 5

    def test_sequences(self):
        A = Domain.sequences(3, 2)
        assert len(A) == 9
        assert A.k == 2
        assert A.ground_bits == 6

    def test_kpartite(self):
        A = Domain.kpartite_product(3, [1, 1])
        assert len(A) == 9
        assert A.k == 2

    def test_kpartite_mixed_parts(self):
        A = Domain.kpartite_product(4, [2, 1])
        assert len(A) == comb(4, 2) * 4
        assert A.k == 3

    def test_permutations(self):
        A = Domain.permutations(3)
        assert len(A) == 6
        assert A.k == 3
        assert A.ground_bits == 9

    def test_permutations_cap(self):
        with pytest.raises(CapacityError):
            Domain.permutations(8)

    def test_complex_layer(self):
        faces = SetFamily.from_sets(5, [[1, 2, 3, 4, 5]])
        A = Domain.complex_layer(faces, 3)
        assert len(A) == 10

    def test_complex_layer_two_faces_dedup(self):
        faces = SetFamily.from_sets(4, [[1, 2, 3], [2, 3, 4]])
        A = Domain.complex_layer(faces, 2)
        # {2,3} appears in both faces but only once in the layer
        assert len(A) == 5

    def test_complex_layer_no_faces(self):
        faces = SetFamily.from_sets(4, [[1, 2]])
        with pytest.raises(PreconditionError):
            Domain.complex_layer(faces, 3)

    def test_json_round_trip(self):
        for obj in (
            {"kind": "binomial", "n": 5, "k": 2},
            {"kind": "sequences", "n": 3, "k": 2},
            {"kind": "kpartite_product", "n": 3, "parts": [1, 1]},
            {"kind": "permutations", "n": 3},
            {"kind": "complex_layer", "maximal_faces": [[1, 2, 3]], "k": 2, "n": 3},
        ):
            A = domain_from_json_obj(obj)
            B = domain_from_json_obj(A.as_json_obj())
            assert B.family.members == A.family.members

    def test_json_errors(self):
        with pytest.raises(ParseError):
            domain_from_json_obj({"kind": "granola"})
        with pytest.raises(ParseError):
            domain_from_json_obj({"kind": "binomial", "n": 5})
        with pytest.raises(ParseError):
            domain_from_json_obj("binomial")
        with pytest.raises(ParseError):
            domain_from_json_obj({"kind": "binomial", "n": [1], "k": 2})
        with pytest.raises(ParseError):
            domain_from_json_obj({"kind": "binomial", "n": True, "k": 1})


class TestLinkCount:
    def test_binomial_closed_form(self):
        A = Domain.binomial(5, 3)
        assert A.link_count(mask(1)) == 6

    def test_permutations_fixing_one(self):
        A = Domain.permutations(3)
        assert A.link_count(0b1) == 2  # sigma(1)=1 leaves 2! arrangements

    def test_kpartite_example(self):
        A = Domain.kpartite_product(3, [1, 1])
        assert A.link_count(mask(1)) == 3

    def test_outside_shadow(self):
        A = Domain.sequences(3, 2)
        # two values for the same position never sit below a member
        with pytest.raises(PreconditionError):
            A.link_count(0b11)

    def test_binomial_oversized(self):
        A = Domain.binomial(5, 3)
        with pytest.raises(PreconditionError):
            A.link_count(mask(1, 2, 3, 4))

    def test_binomial_table_matches_closed_form(self):
        A = Domain.binomial(6, 3)
        for size in range(4):
            for combo in combinations(range(1, 7), size):
                T = mask(*combo)
                assert A.table.get(T, 0) == comb(6 - size, 3 - size)

    def test_permutations_prefix_factorials(self):
        A = Domain.permutations(4)
        sigma = A.family.members[0]
        bits = [b for b in range(16) if sigma >> b & 1]
        T = 0
        for j, b in enumerate(bits, start=1):
            T |= 1 << b
            assert A.link_count(T) == factorial(4 - j)

    def test_sequences_closed_form(self):
        A = Domain.sequences(4, 2)
        assert A.link_count(1 << 0) == 4  # fix position 1, free position 2


class TestMaxLink:
    def test_binomial_6_3_depth_2(self):
        T, val = Domain.binomial(6, 3).max_link(2)
        assert val == 4
        assert T.bit_count() == 2

    def test_sequences_3_2_depth_1(self):
        _, val = Domain.sequences(3, 2).max_link(1)
        assert val == 3

    def test_complex_layer_single_face(self):
        faces = SetFamily.from_sets(5, [[1, 2, 3, 4, 5]])
        _, val = Domain.complex_layer(faces, 3).max_link(1)
        assert val == 6

    def test_depth_zero_gives_whole_family(self):
        A = Domain.binomial(5, 2)
        T, val = A.max_link(0)
        assert (T, val) == (0, 10)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            Domain.binomial(5, 2).max_link(3)


class TestRtSpread:
    def test_binomial_6_2(self):
        assert check_rt_spread(Domain.binomial(6, 2), 3, 1).ok

    def test_permutations_4_r1(self):
        assert check_rt_spread(Domain.permutations(4), 1, 1).ok

    def test_binomial_4_2_violation(self):
        rep = check_rt_spread(Domain.binomial(4, 2), 3, 1)
        assert not rep.ok
        T, S = rep.violation
        assert T == 0
        assert S.bit_count() == 1
        # |A(S)| = 3 > 3^-1 * 6
        assert 3 * 3 > 6

    def test_binomial_grid_small(self):
        for n in range(2, 8):
            for k in range(1, min(n, 3) + 1):
                for t in range(k + 1):
                    rep = check_rt_spread(Domain.binomial(n, k), Fraction(n, k), t)
                    assert rep.ok, (n, k, t)

    def test_permutations_5_depth_2(self):
        assert check_rt_spread(Domain.permutations(5), Fraction(5, 4), 2).ok

    def test_sequences_full_r(self):
        # value domains of size n give an (n, t)-spread family
        assert check_rt_spread(Domain.sequences(4, 2), 4, 2).ok

    def test_kpartite_min_ratio(self):
        A = Domain.kpartite_product(4, [2, 2])
        assert check_rt_spread(A, 2, 2).ok

    def test_report_shape(self):
        rep = check_rt_spread(Domain.binomial(4, 2), 3, 1)
        d = rep.as_report()
        assert d["ok"] is False and "violation" in d


class TestAssumptions:
    def test_binomial_8_2(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 2, 4, 2)
        assert rep.all_ok
        assert rep.spread_ok and rep.density_ok
        assert rep.regularity_ok and rep.shadow_ratio_ok

    def test_sequences_4_2(self):
        rep = check_assumptions(Domain.sequences(4, 2), 2, 2, 1, 2, samples=25)
        assert rep.all_ok

    def test_eta_zero_breaks_density(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 0, 4, 2, samples=5)
        assert not rep.density_ok
        assert rep.density_witness["t"] == 1
        assert not rep.all_ok

    def test_report_carries_hypothesis_flags(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 2, 4, 2, samples=5)
        assert rep.nominal["n_ge_4q"] is True
        assert rep.nominal["n_gt_8k"] is False
        d = rep.as_report()
        assert d["all_ok"] is True

    def test_float_rejected(self):
        with pytest.raises(PreconditionError):
            check_assumptions(Domain.binomial(8, 2), 2, 2.0, 4, 2)


class TestRegularityIdentity:
    def test_full_family(self):
        A = Domain.binomial(5, 3)
        assert regularity_identity_holds(A, 0, A.family, 1)

    def test_singletons_all_depths(self):
        A = Domain.binomial(5, 3)
        for m in A.family.members:
            single = A.family.replace_members([m])
            assert regularity_identity_holds(A, 0, single, 1)
            assert regularity_identity_holds(A, 0, single, 2)

    def test_link_level(self):
        A = Domain.binomial(6, 3)
        S = mask(1)
        sub = link(A.family, S)
        assert regularity_identity_holds(A, S, sub, 1)

    def test_irregular_complex_fails(self):
        faces = SetFamily.from_sets(5, [[1, 2, 3], [4, 5]])
        A = Domain.complex_layer(faces, 2)
        lone = A.family.replace_members([mask(4, 5)])
        assert not regularity_identity_holds(A, 0, lone, 1)

    def test_foreign_member_rejected(self):
        A = Domain.binomial(5, 3)
        bad = SetFamily.from_sets(5, [[1, 2]])
        with pytest.raises(PreconditionError):
            regularity_identity_holds(A, 0, bad, 1)


class TestTauHomogeneous:
    def test_full_family_tau_one(self):
        A = Domain.binomial(4, 2)
        v = check_tau_homogeneous(A.family, A, 1)
        assert v.ok
        assert v.worst_ratio == 1

    def test_point_mass_fails(self):
        A = Domain.binomial(4, 2)
        F = SetFamily.from_sets(4, [[1, 2]])
        v = check_tau_homogeneous(F, A, 1)
        assert not v.ok
        assert v.worst_x == mask(1, 2)
        assert v.worst_ratio == 6

    def test_star_at_two(self):
        A = Domain.binomial(4, 2)
        F = SetFamily.from_sets(4, [[1, 2], [1, 3], [1, 4]])
        v = check_tau_homogeneous(F, A, 2)
        assert v.ok
        assert v.worst_ratio == 1

    def test_star_threshold_8_3(self):
        A = Domain.binomial(8, 3)
        F = A.family.replace_members(
            [m for m in A.family.members if m & 1]
        )
        assert check_tau_homogeneous(F, A, 3).ok
        v = check_tau_homogeneous(F, A, Fraction(5, 2))
        assert not v.ok
        assert v.worst_x == mask(1)

    def test_outside_domain_rejected(self):
        A = Domain.binomial(4, 2)
        with pytest.raises(PreconditionError):
            check_tau_homogeneous(SetFamily.from_sets(4, [[1, 2, 3]]), A, 1)


class TestMaxHomogeneousRestriction:
    def test_star_6_3(self):
        A = Domain.binomial(6, 3)
        F = A.family.replace_members([m for m in A.family.members if m & 1])
        assert max_homogeneous_restriction(F, A, 6) == mask(1)

    def test_full_family(self):
        A = Domain.binomial(4, 2)
        assert max_homogeneous_restriction(A.family, A, 6) == 0

    def test_single_member(self):
        A = Domain.binomial(6, 3)
        F = SetFamily.from_sets(6, [[1, 2, 3]])
        assert max_homogeneous_restriction(F, A, 6) == mask(1, 2, 3)

    def test_tau_below_one_rejected(self):
        A = Domain.binomial(4, 2)
        with pytest.raises(PreconditionError):
            max_homogeneous_restriction(A.family, A, Fraction(1, 2))


class TestHomogeneousSubfamily:
    def test_full_family_keeps_everything(self):
        A = Domain.binomial(6, 3)
        res = homogeneous_subfamily(A.family, A, 1, Fraction(1, 6))
        assert res.family.members == A.family.members
        assert res.removed == 0
        assert res.sparse_prefixes == ()

    def test_star_8_3(self):
        A = Domain.binomial(8, 3)
        F = A.family.replace_members([m for m in A.family.members if m & 1])
        res = homogeneous_subfamily(F, A, 3, Fraction(1, 6))
        assert res.removed == 0

    def test_isolated_set_removed(self):
        A = Domain.binomial(12, 3)
        star = [
            m for m in A.family.members
            if m & 1 and not (m & mask(4, 5, 6))
        ]
        F = A.family.replace_members(star + [mask(4, 5, 6)])
        res = homogeneous_subfamily(F, A, 4, Fraction(1, 6))
        assert res.removed == 1
        assert mask(4, 5, 6) not in res.family._member_set
        assert set(res.sparse_prefixes) == {mask(4), mask(5), mask(6)}

    def test_alpha_cap(self):
        A = Domain.binomial(6, 3)
        with pytest.raises(PreconditionError):
            homogeneous_subfamily(A.family, A, 1, Fraction(1, 2))

    def test_inhomogeneous_rejected(self):
        A = Domain.binomial(6, 3)
        F = SetFamily.from_sets(6, [[1, 2, 3]])
        with pytest.raises(PreconditionError):
            homogeneous_subfamily(F, A, 1, Fraction(1, 6))


class TestRemoveElementsHomogeneous:
    def test_full_family_drop_point(self):
        A = Domain.binomial(6, 3)
        res = remove_elements_homogeneous(A.family, A, 1, 2, mask(6))
        assert res.parameter == 2
        assert res.size_floor == 10
        assert len(res.family) == 10

    def test_too_many_elements(self):
        A = Domain.binomial(6, 3)
        with pytest.raises(PreconditionError):
            remove_elements_homogeneous(A.family, A, 1, 2, mask(5, 6))

    def test_inhomogeneous_rejected(self):
        A = Domain.binomial(4, 2)
        F = SetFamily.from_sets(4, [[1, 2]])
        with pytest.raises(PreconditionError):
            remove_elements_homogeneous(F, A, 1, 2, mask(4))


class TestShadowBound:
    def test_star_6_3(self):
        A = Domain.binomial(6, 3)
        F = A.family.replace_members([m for m in A.family.members if m & 1])
        assert verify_shadow_bound(F, A, 2, 1)
        assert verify_shadow_bound(F, A, 2, 2)

    def test_single_member(self):
        A = Domain.binomial(6, 3)
        F = SetFamily.from_sets(6, [[1, 2, 3]])
        assert verify_shadow_bound(F, A, 3, 1)
        assert verify_shadow_bound(F, A, 3, 2)

    def test_precondition(self):
        A = Domain.binomial(6, 3)
        F = SetFamily.from_sets(6, [[1, 2, 3]])
        with pytest.raises(PreconditionError):
            verify_shadow_bound(F, A, 1, 1)


class TestMostSubsetsHomogeneous:
    def test_star_census_clean(self):
        A = Domain.binomial(8, 3)
        F = A.family.replace_members([m for m in A.family.members if m & 1])
        census = most_subsets_homogeneous(
            F, A, 1, 3, Fraction(5, 6), Fraction(4, 5)
        )
        assert census.bad_count == 0
        assert census.shadow_size == 8
        assert census.tau_hat == 15

    def test_tau_gate(self):
        A = Domain.binomial(8, 3)
        F = A.family.replace_members([m for m in A.family.members if m & 1])
        with pytest.raises(PreconditionError):
            most_subsets_homogeneous(F, A, 1, 3, Fraction(5, 8), Fraction(4, 5))
