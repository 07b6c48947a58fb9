import time

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from itertools import combinations, product
from math import comb, factorial

from sforge import domains as domains_module
from sforge.errors import CapacityError, ParseError, PreconditionError
from sforge.family import (
    GroundSet,
    SetFamily,
    bit_subsets,
    block_product,
    canonical,
    elements_of,
    report,
    restrict,
    shadow,
    trace_cover,
)
from sforge.domains import (
    Domain,
    _counts_above,
    _tau_homogeneity,
    check_assumptions,
    check_rt_spread,
    check_tau_homogeneous,
    domain_from_json_obj,
    homogeneous_subfamily,
    regularity_identity_holds,
    remove_elements_homogeneous,
    verify_shadow_bound,
)
from sforge.pipelines import _min_homogeneity_upper
from sforge.spread import _link_counts, check_spread
from sforge.sunflowers import product_kernel
from support import (
    reference_check_rt_spread,
    reference_check_rt_spread_scan,
    reference_check_tau_homogeneous,
    reference_link_counts,
    reference_min_homogeneity_upper,
    reference_regularity_identity,
    reference_trace_cover,
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

    def test_nominal_parameters_of_equal_parts_and_permutations(self):
        # mu = n w / k only when every part has the same size
        assert Domain.kpartite_product(4, [2, 2]).nominal_parameters() == {
            "spread_r": 2, "assumption_r": 1, "eta": 2, "mu": 2}
        assert "mu" not in Domain.kpartite_product(4, [2, 1]).nominal_parameters()
        assert Domain.permutations(4).nominal_parameters() == {"spread_r": 1}

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

    @pytest.mark.parametrize("ctor, args, key", [
        ("binomial", (True, 1), "n"),
        ("binomial", (4.0, 2), "n"),
        ("binomial", (4, "2"), "k"),
        ("sequences", (3, True), "k"),
        ("sequences", (3.0, 2), "n"),
        ("kpartite_product", (3, [True, 2.0]), "parts"),
        ("kpartite_product", (3, ["2"]), "parts"),
        ("kpartite_product", (False, [1]), "n"),
        ("permutations", (True,), "n"),
        ("complex_layer", (SetFamily.from_sets(3, [[1, 2]]), 2.0), "k"),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_constructors_refuse_non_integers(self, ctor, args, key):
        # the check and message a JSON spec gets, with no coercion
        with pytest.raises(ParseError, match=f"domain parameter '{key}' must be an integer"):
            getattr(Domain, ctor)(*args)


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
        d = report(rep)
        assert d["ok"] is False and "violation" in d

    @pytest.mark.parametrize(
        "A",
        [
            Domain.binomial(6, 2),
            Domain.binomial(7, 3),
            Domain.sequences(3, 3),
            Domain.sequences(4, 2),
            Domain.kpartite_product(4, [2, 3]),
            Domain.permutations(4),
            Domain.complex_layer(SetFamily.from_sets(6, [[1, 2, 3, 4], [3, 4, 5], [5, 6]]), 2),
            # {1,2} violates before {5} in plain mask order, after it canonically
            Domain.complex_layer(SetFamily.from_sets(5, [[3, 4, 5], [1, 2, 5], [4, 5]]), 3),
        ],
        ids=lambda A: A.kind,
    )
    def test_matches_the_member_scan_reference(self, A):
        for t in range(A.k + 1):
            for r in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)):
                assert check_rt_spread(A, r, t) == reference_check_rt_spread(A, r, t), (t, r)


@st.composite
def complex_layers(draw, least=1):
    """A layer of a random complex on at most 7 points: link counts differ
    within a level, so no level's largest count settles it.  The layer's
    uniformity is at least ``least`` (at most 3)."""
    n = draw(st.integers(3, 7))
    faces = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    if max(f.bit_count() for f in faces) < least:
        faces.append((1 << least) - 1)
    k = draw(st.integers(least, max(f.bit_count() for f in faces)))
    return Domain.complex_layer(SetFamily(GroundSet(n), tuple(faces)), k)


def rt_thresholds(A, t):
    """The r at which some pair (T, S), |T| <= t, turns into a violation:
    exact for |S| = 1, the nearest small fraction otherwise."""
    table = A.table
    out = set()
    for T in table:
        if T.bit_count() > t:
            continue
        for X in table:
            if X & T == T and X != T:
                i = (X & ~T).bit_count()
                ratio = Fraction(table[T], table[X])
                out.add(ratio if i == 1 else Fraction(float(ratio) ** (1 / i)).limit_denominator(64))
    return sorted(out)


class TestRtSpreadLevels:
    """check_rt_spread against the per-T table scan it replaced."""

    @given(complex_layers(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_table_scan_at_the_thresholds(self, A, data):
        for t in range(A.k + 1):
            for r in data.draw(st.lists(st.sampled_from(rt_thresholds(A, t)), min_size=1, max_size=3)):
                for rr in (r - Fraction(1, 64), r, r + Fraction(1, 64)):
                    if rr > 0:
                        assert check_rt_spread(A, rr, t) == reference_check_rt_spread_scan(A, rr, t), (t, rr)

    @given(complex_layers(), st.fractions(Fraction(1, 4), 8, max_denominator=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_table_scan_at_any_r(self, A, r):
        for t in range(A.k + 1):
            assert check_rt_spread(A, r, t) == reference_check_rt_spread_scan(A, r, t), t


class TestAssumptions:
    def test_binomial_8_2(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 2, 4, 2)
        assert rep.all_ok
        assert rep.spread_ok and rep.density_ok
        assert rep.regularity_ok and rep.shadow_ratio_ok

    def test_sequences_4_2(self):
        rep = check_assumptions(Domain.sequences(4, 2), 2, 2, 1, 2)
        assert rep.all_ok

    def test_eta_zero_breaks_density(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 0, 4, 2)
        assert not rep.density_ok
        assert rep.density_witness["t"] == 1
        assert not rep.all_ok

    def test_report_carries_hypothesis_flags(self):
        rep = check_assumptions(Domain.binomial(8, 2), 2, 2, 4, 2)
        assert rep.nominal["n_ge_4q"] is True
        assert rep.nominal["n_gt_8k"] is False
        d = report(rep)
        assert d["all_ok"] is True

    def test_float_rejected(self):
        with pytest.raises(PreconditionError):
            check_assumptions(Domain.binomial(8, 2), 2, 2.0, 4, 2)

    def test_regularity_failure_carries_its_witness(self):
        faces = SetFamily.from_sets(4, [[1, 2, 3], [3, 4]])
        rep = check_assumptions(Domain.complex_layer(faces, 2), 2, 1, 1, 1)
        assert not rep.regularity_ok and not rep.all_ok
        assert report(rep)["regularity_witness"] == {"S": [], "h": 1, "subfamily_size": 1}

    def test_spread_violation_is_reported(self):
        rep = check_assumptions(Domain.binomial(6, 2), 1, 1, 1, 4)
        assert not rep.spread_ok and not rep.all_ok
        assert report(rep)["spread_violation"] == {"T": [], "S": [1]}

    def test_oversized_regularity_battery_refused_at_once(self):
        # about 10M units of link-shadow work against the 5M cap
        A = Domain.binomial(20, 4)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            check_assumptions(A, 3, 1, 4, 2)
        assert time.perf_counter() - start < 1

    def test_binomial_14_4_at_depth_two_runs(self):
        # about 139k units of link-shadow work; each regularity trial used
        # to be charged |A| as well, 19.4M units in all, and was refused
        rep = check_assumptions(Domain.binomial(14, 4), 2, 2, Fraction(7, 2), Fraction(7, 4))
        assert rep.regularity_ok and rep.spread_ok


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
        sub = restrict(A.family, S, S)
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


    @given(
        st.sampled_from(
            [Domain.binomial(6, 2), Domain.binomial(7, 3), Domain.sequences(3, 3),
             Domain.kpartite_product(4, [2, 3]), Domain.permutations(4)]
        ),
        st.randoms(use_true_random=False),
        st.sampled_from([Fraction(1), Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_reference(self, A, rnd, tau):
        members = A.family.members
        F = A.family.replace_members(rnd.sample(members, rnd.randint(1, len(members))))
        assert check_tau_homogeneous(F, A, tau) == reference_check_tau_homogeneous(F, A, tau)


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

    def test_every_prefix_left_in_the_kept_family_is_checked_from_f(self, monkeypatch):
        # the prefix links are checked from counts derived from F's, for
        # exactly the P of size 1..t-1 that a kept member still holds
        A = Domain.binomial(12, 3)
        star = [m for m in A.family.members if m & 1 and not (m & mask(4, 5, 6))]
        F = A.family.replace_members(star + [mask(4, 5, 6)])
        checked = []
        core = domains_module._tau_homogeneity

        def recording(fcounts, L, tau):
            checked.append((fcounts, L))
            return core(fcounts, L, tau)

        monkeypatch.setattr(domains_module, "_tau_homogeneity", recording)
        res = homogeneous_subfamily(F, A, 4, Fraction(1, 6))
        (pre, _), *links = checked
        assert pre == reference_link_counts(F.members)
        kept = {P for m in res.family.members for P in reference_link_counts([m])
                if 0 < P.bit_count() < 3}
        assert [sum(1 << (e - 1) for e in L.params["S"]) for _, L in links] == canonical(kept)
        for fcounts, L in links:
            P = sum(1 << (e - 1) for e in L.params["S"])
            assert fcounts == reference_link_counts(restrict(F, P, P).members)

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
        assert report(res) == {"size": 10, "parameter": "2", "size_floor": "10"}

    def test_too_many_elements(self):
        A = Domain.binomial(6, 3)
        with pytest.raises(PreconditionError):
            remove_elements_homogeneous(A.family, A, 1, 2, mask(5, 6))

    def test_inhomogeneous_rejected(self):
        A = Domain.binomial(4, 2)
        F = SetFamily.from_sets(4, [[1, 2]])
        with pytest.raises(PreconditionError):
            remove_elements_homogeneous(F, A, 1, 2, mask(4))

    def test_x_outside_the_ground_rejected(self):
        A = Domain.binomial(6, 3)
        with pytest.raises(PreconditionError, match="outside the ground"):
            remove_elements_homogeneous(A.family, A, 1, 2, mask(7))


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



def domain_kinds(least=1):
    """A strategy per domain kind, each drawing domains of uniformity at
    least ``least`` (at most 3)."""
    return {
        "binomial": st.integers(least, 7).flatmap(
            lambda n: st.integers(least, n).map(lambda k: Domain.binomial(n, k))),
        "sequences": st.tuples(st.integers(1, 4), st.integers(least, 3)).map(
            lambda nk: Domain.sequences(*nk)),
        "kpartite_product": st.integers(1, 4).flatmap(
            lambda n: st.lists(st.integers(1, n), min_size=least, max_size=3).map(
                lambda parts: Domain.kpartite_product(n, parts))),
        "permutations": st.integers(least, 4).map(Domain.permutations),
        "complex_layer": complex_layers(least),
    }


DOMAIN_KINDS = domain_kinds()


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
class TestMemberIndex:
    """Link and trace queries answered from the member index, and the cached
    shadow layers, against recounts and scans of the members."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_link_domain_matches_a_recount(self, kind, data):
        A = data.draw(DOMAIN_KINDS[kind])
        S = data.draw(st.sampled_from(sorted(A.table)))
        L = A.link_domain(S)
        assert L.family == restrict(A.family, S, S) and L.k == A.k - S.bit_count()
        assert L.table == reference_link_counts(L.family.members)
        # a link of a link, as homogeneous_subfamily takes one
        P = data.draw(st.sampled_from(sorted(L.table)))
        LL = L.link_domain(P)
        assert LL.family == restrict(A.family, S | P, S | P)
        assert LL.table == reference_link_counts(LL.family.members)

    @pytest.mark.parametrize("size", [2, 3])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_deep_link_domain_matches_a_recount(self, kind, size, data):
        A = data.draw(domain_kinds(size)[kind])
        S = data.draw(st.sampled_from(A.layers[size]))
        L = A.link_domain(S)
        assert L.family == restrict(A.family, S, S) and L.k == A.k - size
        assert L.table == reference_link_counts(L.family.members)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shadow_layers_match_the_table_scan(self, kind, data):
        A = data.draw(DOMAIN_KINDS[kind])
        L = A.link_domain(data.draw(st.sampled_from(sorted(A.table))))
        for D in (A, L):
            for t in range(-1, D.k + 2):
                assert list(D.shadow_layer(t)) == canonical(x for x in D.table if x.bit_count() == t)
                assert D.shadow_upto(t) == canonical(x for x in D.table if x.bit_count() <= t)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_trace_cover_on_the_domain_index_matches_the_scan(self, kind, data):
        A = data.draw(DOMAIN_KINDS[kind])
        # shadow sets, and any sets of the ground, some held by no member
        pool = st.sampled_from(sorted(A.table)) | st.integers(0, A.family.ground.full_mask)
        B = SetFamily(A.family.ground, tuple(data.draw(st.lists(pool, max_size=6))))
        assert trace_cover(A.family, B, A.index) == reference_trace_cover(A.family, B)


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_regularity_identity_matches_the_fraction_reference(kind, data):
    # the whole link, each singleton (check_assumptions' trials) and one
    # random subfamily, at every depth; S = 0 half the time, since the links
    # of a complex layer are more often regular than the layer itself
    A = data.draw(DOMAIN_KINDS[kind])
    S = data.draw(st.just(0) | st.sampled_from(sorted(A.table)))
    L = A if S == 0 else A.link_domain(S)
    picked = data.draw(st.lists(st.sampled_from(L.family.members)))
    trials = [L.family, L.family.replace_members(picked)]
    trials += [L.family.replace_members([m]) for m in L.family.members]
    for h in range(L.k + 1):
        for sub in trials:
            assert regularity_identity_holds(A, S, sub, h) == \
                reference_regularity_identity(A, S, sub, h)


def reference_regularity_battery(A, q):
    """check_assumptions' regularity verdict and witness by a plain loop:
    for each S of the depth-q shadow in canonical order and each h, the
    whole link A(S) and then each singleton in member order, every trial
    through the Fraction reference."""
    for S in canonical(x for x in A.table if x.bit_count() <= q):
        L = A if S == 0 else A.link_domain(S)
        trials = [L.family] + [L.family.replace_members([m]) for m in L.family.members]
        for h in range(1, min(q - 1, L.k) + 1):
            for sub in trials:
                if not reference_regularity_identity(L, 0, sub, h):
                    return False, {"S": list(elements_of(S)), "h": h, "subfamily_size": len(sub)}
    return True, None


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_regularity_battery_matches_the_plain_loop(kind, data):
    # below depth 2 the battery runs no trial; about one complex layer in
    # seven drawn here breaks the identity
    A = data.draw(domain_kinds(2)[kind])
    q = data.draw(st.integers(2, min(A.k, 3)))
    rep = check_assumptions(A, q, 1, 1, 1)
    assert (rep.regularity_ok, rep.regularity_witness) == reference_regularity_battery(A, q)
    assert A.link_domain(0) is A


@pytest.mark.parametrize("size", [1, 2, 3])
def test_shallow_and_deep_links_of_a_large_domain_match_a_recount(size):
    # binomial(16,4): a singleton link filters the parent table, a link of
    # two or three elements reads the parent entry of each of its submasks
    A = Domain.binomial(16, 4)
    S = (1 << size) - 1
    L = A.link_domain(S)
    assert L.family == restrict(A.family, S, S)
    assert L.table == reference_link_counts(L.family.members)


def random_subfamily(A, rnd):
    members = A.family.members
    return A.family.replace_members(rnd.sample(members, rnd.randint(1, len(members))))


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
class TestCountsOnce:
    """The homogeneity chain's checks read off one count of the family."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_min_homogeneity_upper_matches_the_per_set_reference(self, kind, data):
        A = data.draw(DOMAIN_KINDS[kind])
        F = random_subfamily(A, data.draw(st.randoms(use_true_random=False)))
        bits = data.draw(st.sampled_from([4, 48]))
        assert _min_homogeneity_upper(_link_counts(F.members), A, bits) == \
            reference_min_homogeneity_upper(F, A, bits)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_derived_prefix_link_verdict_matches_a_recount(self, kind, data):
        A = data.draw(DOMAIN_KINDS[kind])
        F = random_subfamily(A, data.draw(st.randoms(use_true_random=False)))
        tau = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]))
        fcounts = _link_counts(F.members)
        for P in canonical(fcounts):
            if P.bit_count() > 2:
                break
            L = A.link_domain(P)
            assert _tau_homogeneity(_counts_above(fcounts, P), L, tau) == \
                check_tau_homogeneous(restrict(F, P, P), L, tau)


def brute_block_product(n, parts):
    """Every mask of the ground of len(parts) blocks of n bits with parts[j]
    bits in block j, in the lexicographic order of the element lists."""
    full = (1 << n) - 1
    fits = [x for x in range(1 << (n * len(parts)))
            if all(((x >> j * n) & full).bit_count() == p for j, p in enumerate(parts))]
    return sorted(fits, key=elements_of)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subset_enumerators_and_product_domains_match_their_definitions(data):
    mask = data.draw(st.integers(0, (1 << 12) - 1))
    h = data.draw(st.integers(0, mask.bit_count() + 1))
    assert list(bit_subsets(mask, h)) == sorted(
        (x for x in range(mask + 1) if x & mask == x and x.bit_count() == h), key=elements_of)
    n = data.draw(st.integers(1, 4))
    parts = data.draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=12 // n))
    assert list(block_product(n, parts)) == brute_block_product(n, parts)

    # all k-subsets of [m]
    m = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, m))
    A = Domain.binomial(m, k)
    assert (A.family.ground.n, A.k) == (m, k)
    assert A.family.members == tuple(canonical(x for x in range(1 << m) if x.bit_count() == k))
    # the functions f: [k] -> [n], position i taking value v as bit i*n + v
    k = data.draw(st.integers(1, 12 // n))
    A = Domain.sequences(n, k)
    assert (A.family.ground.n, A.k) == (n * k, k)
    assert A.family.members == tuple(canonical(
        sum(1 << (i * n + v) for i, v in enumerate(f)) for f in product(range(n), repeat=k)))
    # a parts[j]-subset of block j for every j
    parts = [p for p in parts if 1 <= p <= n] or [n]
    A = Domain.kpartite_product(n, parts)
    assert (A.family.ground.n, A.k) == (n * len(parts), sum(parts))
    assert A.family.members == tuple(canonical(brute_block_product(n, parts)))
    # label i_j from block j of s-1 labels, for each of t blocks
    s, t = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    T = product_kernel(s, t)
    assert T.ground.n == (s - 1) * t
    assert T.members == tuple(canonical(
        sum(1 << (j * (s - 1) + i) for j, i in enumerate(pick))
        for pick in product(range(s - 1), repeat=t)))


def test_a_domain_table_past_the_subset_cap_is_refused_before_counting(monkeypatch):
    monkeypatch.setattr(domains_module, "_ENUM_CAP", 1 << 10)
    assert len(Domain.binomial(10, 10).table) == 1 << 10
    monkeypatch.setattr(domains_module, "_link_counts", lambda masks: 1 / 0)
    with pytest.raises(CapacityError, match="domain table capped") as exc:
        Domain.binomial(11, 11).table
    assert exc.value.details == {"k": 11, "cap": 1 << 10}


def test_a_complex_layer_past_the_member_cap_is_refused_at_once(monkeypatch):
    monkeypatch.setattr(domains_module, "MEMBER_CAP", 10)
    assert len(Domain.complex_layer(SetFamily.from_sets(6, [range(1, 6)]), 2)) == 10
    with pytest.raises(CapacityError, match="complex layer too large") as exc:
        Domain.complex_layer(SetFamily.from_sets(6, [[1, 2], range(1, 7)]), 2)
    assert exc.value.details == {"widest": 6, "k": 2, "cap": 10}
    pairs = [[2 * i + 1, 2 * i + 2] for i in range(11)]
    assert len(Domain.complex_layer(SetFamily.from_sets(22, pairs[:10]), 2)) == 10
    with pytest.raises(CapacityError, match="complex layer too large") as exc:
        Domain.complex_layer(SetFamily.from_sets(22, pairs), 2)
    assert exc.value.details == {"k": 2, "cap": 10}


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_shadow_bound_matches_the_shadow_family_at_every_depth(kind, data):
    # the formula it replaced: |shadow(F, h)| tau^h >= |shadow_h A|
    A = data.draw(DOMAIN_KINDS[kind])
    F = data.draw(st.just(A.family) | st.randoms(use_true_random=False).map(
        lambda rnd: random_subfamily(A, rnd)))
    tau = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4), Fraction(100)]))
    ok = check_tau_homogeneous(F, A, tau).ok
    for h in range(A.k + 1):
        if not ok:
            with pytest.raises(PreconditionError, match="not tau-homogeneous"):
                verify_shadow_bound(F, A, tau, h)
            continue
        floor = len(A.shadow_layer(h)) * tau.denominator**h
        assert verify_shadow_bound(F, A, tau, h) == \
            (len(shadow(F, h)) * tau.numerator**h >= floor), h


@pytest.mark.parametrize("kind", sorted(DOMAIN_KINDS))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_homogeneous_removal_refuses_what_check_spread_refuses(kind, data):
    # A is 1-homogeneous in itself and an empty X passes |X| < r / tau, so
    # only the domain's spreadness decides
    A = data.draw(DOMAIN_KINDS[kind])
    r = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
                                   Fraction(5)]))
    amb = check_spread(A.family, r)
    if amb.ok:
        assert remove_elements_homogeneous(A.family, A, 1, r, 0).family == A.family
        return
    with pytest.raises(PreconditionError, match="ambient domain is not r-spread") as exc:
        remove_elements_homogeneous(A.family, A, 1, r, 0)
    assert exc.value.details == {"r": str(r), "violation": elements_of(amb.violation)}


def test_prune_refuses_a_member_past_the_subset_cap_before_counting(monkeypatch):
    monkeypatch.setattr(domains_module, "_ENUM_CAP", 1 << 10)
    A = Domain.binomial(11, 11)
    monkeypatch.setattr(domains_module, "_link_counts", lambda masks: 1 / 0)
    with pytest.raises(CapacityError, match="domain table capped"):
        homogeneous_subfamily(A.family, A, 2, Fraction(1, 22))
