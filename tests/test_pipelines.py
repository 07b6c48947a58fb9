import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from sforge import pipelines
from sforge.domains import Domain, check_tau_homogeneous
from sforge.errors import CapacityError, PreconditionError, VerificationError
from sforge.family import GroundSet, SetFamily, family_minus, report, trace_cover
from sforge.pipelines import (
    DecompositionPart,
    Decomposition,
    ExtractionThreshold,
    SystemSST,
    _bracket,
    _exactly,
    _iv_mul,
    _iv_pow,
    _kernel_scale,
    _ln_bracket,
    _peel,
    _record,
    _smallest_cover,
    cluster_system,
    delta_filter,
    down_closed_cover,
    peel_high_uniformity,
    reduce_intersections,
    simplify,
    spread_approximation,
)
from sforge.spread import frac_log2_bracket
from sforge.sunflowers import CorePredicate, find_sunflower

from support import (
    oracle_simplify_trace,
    planted_instance,
    reference_delta_filter,
    reference_iv_mul,
    reference_iv_pow,
    reference_kernel_scale,
    reference_link_counts,
    reference_ln_bracket,
    reference_peel,
    reference_record,
    reference_threshold_exceeds,
    simplify_fixtures,
)


def mask(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def fam(n, sets):
    return SetFamily.from_sets(n, sets)


def star(A, core):
    return A.family.replace_members(
        m for m in A.family.members if m & core == core
    )


class TestExtractionThreshold:
    def test_t_one_is_exact_sq(self):
        assert ExtractionThreshold(2, 3, 1).exact == 6
        assert ExtractionThreshold(3, 5, 1).exact == 15

    def test_power_of_two_t_is_exact(self):
        assert ExtractionThreshold(3, 4, 2).exact == 2 ** 14 * 3
        assert ExtractionThreshold(2, 1, 4).exact == 2 ** 14 * 2 * 2

    def test_irrational_branch_is_bracketed(self):
        thr = ExtractionThreshold(2, 2, 3)
        assert thr.exact is None
        lo, hi = thr.bracket()
        assert lo < hi
        assert hi - lo < Fraction(1, 10 ** 12)
        # strict compares resolve on either side of the bracket
        below = lo.numerator // lo.denominator
        above = -(-hi.numerator // hi.denominator)
        assert thr.exceeds(1, 1, below) is True
        assert thr.exceeds(1, 1, above) is False

    def test_exponent_zero_compares_plainly(self):
        thr = ExtractionThreshold(2, 2, 3)
        assert thr.exceeds(5, 0, 4) is True
        assert thr.exceeds(4, 0, 4) is False
        assert thr.exceeds(0, 3, 0) is False

    def test_spread_ok(self):
        thr = ExtractionThreshold(2, 2, 1)  # scale 4
        assert thr.spread_ok([mask(1), mask(2), mask(3), mask(4)]) is True
        assert thr.spread_ok([mask(1, 2), mask(1, 3)]) is False
        with pytest.raises(PreconditionError):
            thr.spread_ok([])

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            ExtractionThreshold(1, 2, 1)
        with pytest.raises(PreconditionError):
            ExtractionThreshold(2, 0, 1)
        with pytest.raises(PreconditionError):
            ExtractionThreshold(2, 2, 0)
        with pytest.raises(PreconditionError):
            ExtractionThreshold(2, 2, 3).exceeds(-1, 1, 4)


class TestPeel:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.integers(0, 255), max_size=24),
        st.integers(0, 3),
        st.integers(1, 4),
        st.sampled_from([None, Fraction(3, 2), Fraction(2), Fraction(5)]),
    )
    # two three-leaf stars, cores 0b11 and 0b1100000
    @example({0b111, 0b1011, 0b10011, 0b1100100, 0b1101000, 0b11100000}, 2, 3, None)
    def test_matches_the_recounting_reference(self, masks, least_size, least_count, R):
        def dense(x, c, members):
            # the count must be the one of the members passed along with it
            assert c == sum(1 for m in members if m & x == x)
            j = x.bit_count()
            if j < least_size or c < least_count:
                return False
            return R is None or c * R.numerator**j >= len(members) * R.denominator**j

        members = sorted(masks)
        steps = list(_peel(members, dense))
        assert steps == list(reference_peel(members, dense))
        assert steps[-1][0] is None

    def test_the_empty_core_comes_last(self):
        masks = [0b00011, 0b00111, 0b01000, 0b10000]
        steps = list(_peel(masks, lambda x, c, members: c >= 2))
        assert steps == [
            (0b00011, tuple(masks)),
            (0, (0b01000, 0b10000)),
            (None, ()),
        ]
        assert steps == list(reference_peel(masks, lambda x, c, members: c >= 2))


class TestSpreadApproximation:
    def test_single_star_becomes_one_part(self):
        A = Domain.binomial(8, 3)
        F = star(A, mask(1, 2))
        d = spread_approximation(F, A, Fraction(3), 2)
        assert len(d.parts) == 1
        assert d.parts[0].core == mask(1, 2)
        assert len(d.parts[0].family.members) == 6
        assert all(m.bit_count() == 1 for m in d.parts[0].family.members)
        assert d.remainder.members == ()
        v = check_tau_homogeneous(
            d.parts[0].family, A.link_domain(mask(1, 2)), Fraction(3)
        )
        assert v.ok

    def test_homogeneous_family_is_a_core_free_part(self):
        A = Domain.binomial(7, 3)
        d = spread_approximation(A.family, A, Fraction(2), 2)
        assert len(d.parts) == 1
        assert d.parts[0].core == 0
        assert set(d.parts[0].family.members) == set(A.family.members)
        assert d.remainder.members == ()
        assert d.trace[0]["action"] == "part" and d.trace[0]["core"] == []

    def test_two_stars_give_two_parts(self):
        A = Domain.binomial(10, 3)
        F = A.family.replace_members(
            m
            for m in A.family.members
            if m & mask(1, 2) == mask(1, 2) or m & mask(3, 4) == mask(3, 4)
        )
        assert len(F.members) == 16
        d = spread_approximation(F, A, Fraction(5, 2), 2)
        assert [p.core for p in d.parts] == [mask(1, 2), mask(3, 4)]
        assert all(len(p.family.members) == 8 for p in d.parts)
        assert d.remainder.members == ()
        assert d.records[0].name == "remainder-size"
        assert d.records[0].verdict == "holds"

    def test_weak_tau_stops_on_a_deep_core(self):
        A = Domain.binomial(10, 3)
        F = A.family.replace_members(
            m
            for m in A.family.members
            if m & mask(1, 2) == mask(1, 2) or m & mask(3, 4) == mask(3, 4)
        )
        d = spread_approximation(F, A, Fraction(2), 2)
        # the first star comes off; once the family halves, full members
        # clear tau^3 and the loop must stop rather than overshoot q
        assert [p.core for p in d.parts] == [mask(1, 2)]
        assert len(d.remainder.members) == 8
        assert all(m & mask(3, 4) == mask(3, 4) for m in d.remainder.members)
        assert d.trace[-1]["reason"] == "depth"
        assert d.trace[-1]["core"] == [1, 3, 4]
        rec = d.records[0]
        assert rec.lhs == 8 and rec.rhs_lo == 15 and rec.verdict == "holds"

    def test_floor_stop_keeps_thin_link_out(self):
        A = Domain.binomial(8, 2)
        d = spread_approximation(
            fam(8, [[1, 2]]), A, Fraction(1), 2, measure_floor=Fraction(2)
        )
        assert d.parts == ()
        assert len(d.remainder.members) == 1
        assert d.trace[-1]["reason"] == "floor"
        assert d.trace[-1]["core"] == [1, 2]
        names = [r.name for r in d.records]
        assert names == ["remainder-size", "remainder-display"]
        disp = d.records[1]
        assert disp.verdict == "holds" and disp.hypotheses_met is True

    def test_thin_stop_without_any_dense_core(self):
        A = Domain.binomial(8, 2)
        d = spread_approximation(
            fam(8, [[1, 2], [3, 4]]), A, Fraction(6), 2,
            measure_floor=Fraction(1, 4),
        )
        assert d.parts == ()
        assert len(d.remainder.members) == 2
        assert d.trace[-1]["reason"] == "thin"

    def test_empty_family(self):
        A = Domain.binomial(8, 2)
        d = spread_approximation(fam(8, []), A, Fraction(2), 1)
        assert d.parts == () and d.remainder.members == ()
        assert d.records[0].lhs == 0

    def test_member_outside_domain_rejected(self):
        A = Domain.binomial(8, 3)
        with pytest.raises(PreconditionError, match="outside the domain"):
            spread_approximation(fam(8, [[1, 2]]), A, Fraction(2), 2)

    def test_parameter_validation(self):
        A = Domain.binomial(6, 2)
        F = fam(6, [[1, 2]])
        with pytest.raises(PreconditionError):
            spread_approximation(F, A, 2.0, 2)
        with pytest.raises(PreconditionError):
            spread_approximation(F, A, Fraction(1, 2), 2)
        with pytest.raises(PreconditionError):
            spread_approximation(F, A, Fraction(2), -1)
        with pytest.raises(PreconditionError):
            spread_approximation(F, A, Fraction(2), 2, measure_floor=Fraction(0))

    def test_verify_rejects_tampered_remainder(self):
        A = Domain.binomial(8, 3)
        d = spread_approximation(star(A, mask(1, 2)), A, Fraction(3), 2)
        with pytest.raises(VerificationError, match="partition"):
            dataclasses.replace(
                d, remainder=A.family.replace_members([mask(5, 6, 7)])
            )

    def test_verify_rejects_core_overlap(self):
        A = Domain.binomial(8, 3)
        d = spread_approximation(star(A, mask(1, 2)), A, Fraction(3), 2)
        with pytest.raises(VerificationError, match="overlaps"):
            dataclasses.replace(
                d,
                parts=(
                    DecompositionPart(
                        mask(1, 2), A.family.replace_members([mask(1, 3)])
                    ),
                ),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(1, 7), min_size=3, max_size=3),
            min_size=0, max_size=12,
        ),
        st.sampled_from([Fraction(2), Fraction(3), Fraction(7, 2)]),
    )
    def test_partition_identity_on_random_inputs(self, sets, tau):
        A = Domain.binomial(7, 3)
        masks = sorted({mask(*s) for s in sets})
        F = A.family.replace_members(masks)
        d = spread_approximation(F, A, tau, 2)
        rebuilt = sorted(
            [m | p.core for p in d.parts for m in p.family.members]
            + list(d.remainder.members)
        )
        assert rebuilt == sorted(F.members)
        cores = [p.core for p in d.parts]
        assert len(cores) == len(set(cores))
        assert all(p.family.members for p in d.parts)


class TestSimplify:
    def test_matches_oracle_on_fixtures(self):
        for A, F, s, t in simplify_fixtures():
            res = simplify(F, A, s, t, Fraction(1, 2))
            trace, stages, layers = oracle_simplify_trace(F, s, t)
            assert [(e.round_index, e.core) for e in res.extractions] == trace
            assert [frozenset(x.members) for x in res.stages] == stages
            assert [frozenset(x.members) for x in res.layers] == layers
            assert all(m.bit_count() == t for m in res.core_family.members)
            for r in res.records:
                if r.name.startswith("layer-"):
                    assert r.verdict == "holds"

    def test_dense_star_keeps_its_core_member(self):
        A, F, s, t = simplify_fixtures()[0]
        res = simplify(F, A, s, t, Fraction(1, 2))
        assert set(res.core_family.members) == {mask(1, 2)}
        assert res.extractions == ()
        assert len(res.layers[0].members) == 6

    def test_uniform_input_passes_through(self):
        A, F, s, t = simplify_fixtures()[1]
        res = simplify(F, A, s, t, Fraction(1, 2))
        assert res.stages == (F,)
        assert res.layers == () and res.extractions == ()
        assert set(res.core_family.members) == set(F.members)

    def test_small_star_is_all_residual(self):
        # five edges cannot clear the scale (s q)^2 = 16, so the layer
        # swallows everything and the core family comes out empty
        A, F, s, t = simplify_fixtures()[3]
        res = simplify(F, A, s, t, Fraction(1, 2))
        assert res.core_family.members == ()
        assert len(res.layers[0].members) == 5
        lay = next(r for r in res.records if r.name == "layer-0")
        assert lay.verdict == "holds" and lay.hypotheses_met is False
        unc = next(r for r in res.records if r.name == "uncovered-ambient")
        assert unc.lhs == 5 and unc.verdict == "fails"
        assert unc.hypotheses_met is False

    def test_sixteen_leaf_star_extracts_its_center(self):
        A = Domain.binomial(17, 2)
        F = A.family.replace_members(m for m in A.family.members if m & 1)
        res = simplify(F, A, 2, 1, Fraction(1, 2))
        assert [(e.round_index, e.core) for e in res.extractions] == [(0, mask(1))]
        assert set(res.extractions[0].family.members) == {
            mask(e) for e in range(2, 18)
        }
        assert set(res.core_family.members) == {mask(1)}
        assert res.layers[0].members == ()
        assert res.threshold["exact"] == "4"
        unc = next(r for r in res.records if r.name == "uncovered-ambient")
        assert unc.lhs == 0 and unc.verdict == "holds"
        trace, stages, layers = oracle_simplify_trace(F, 2, 1)
        assert [(e.round_index, e.core) for e in res.extractions] == trace
        assert [frozenset(x.members) for x in res.stages] == stages

    def test_empty_family(self):
        A = Domain.binomial(6, 2)
        F = fam(6, [])
        res = simplify(F, A, 2, 1, Fraction(1, 2))
        assert res.core_family.members == ()
        assert res.stages == (F,) and res.extractions == ()

    def test_small_member_is_a_degenerate_witness(self):
        A = Domain.binomial(8, 3)
        with pytest.raises(PreconditionError, match="small core"):
            simplify(fam(8, [[3], [1, 2, 4]]), A, 3, 2, Fraction(1, 2))

    def test_forbidden_sunflower_rejected(self):
        A = Domain.binomial(8, 2)
        with pytest.raises(PreconditionError, match="small core"):
            simplify(fam(8, [[1, 2], [3, 4]]), A, 2, 1, Fraction(1, 2))

    def test_t_above_largest_member_rejected(self):
        A = Domain.binomial(8, 2)
        with pytest.raises(PreconditionError, match="exceeds"):
            simplify(fam(8, [[1, 2]]), A, 2, 3, Fraction(1, 2))

    def test_eps_validation(self):
        A = Domain.binomial(6, 2)
        F = fam(6, [[1, 2]])
        with pytest.raises(PreconditionError):
            simplify(F, A, 2, 1, Fraction(1))
        with pytest.raises(PreconditionError):
            simplify(F, A, 2, 1, 0.5)

    def test_ground_mismatch_rejected(self):
        A = Domain.binomial(8, 2)
        with pytest.raises(PreconditionError, match="ground"):
            simplify(fam(7, [[1, 2]]), A, 2, 1, Fraction(1, 2))


class TestDownClosedCover:
    def test_triangle_chain_with_certified_residue(self):
        A = Domain.binomial(16, 4)
        tri = [mask(1, 2), mask(1, 3), mask(2, 3)]
        F = A.family.replace_members(
            m for m in A.family.members if any(m & S == S for S in tri)
        )
        assert len(F.members) == 247
        cov = down_closed_cover(F, A, 3, 2, Fraction(5, 2))
        assert cov.mode == "chain"
        assert set(cov.core_family.members) == {mask(1, 2), mask(1, 3)}
        assert len(cov.residue.members) == 78
        assert all(
            m & mask(2, 3) == mask(2, 3) and not m & mask(1)
            for m in cov.residue.members
        )
        assert [p.core for p in cov.decomposition.parts] == [mask(1, 2), mask(1, 3)]
        assert len(cov.decomposition.parts[0].family.members) == 91
        assert len(cov.decomposition.parts[1].family.members) == 78
        cov.decomposition.verify()
        assert cov.trace[-1]["reason"] == "depth"
        chain = next(r for r in cov.records if r.name == "residue-chain")
        assert chain.verdict == "holds" and chain.hypotheses_met is True
        covered = trace_cover(F, cov.core_family)
        assert len(covered.members) + len(cov.residue.members) == 247
        assert set(family_minus(F, covered).members) == set(cov.residue.members)
        assert find_sunflower(cov.core_family, CorePredicate(3)) is None

    def test_small_core_stop_is_honest(self):
        A = Domain.binomial(12, 4)
        tri = [mask(1, 2), mask(1, 3), mask(2, 3)]
        F = A.family.replace_members(
            m for m in A.family.members if any(m & S == S for S in tri)
        )
        assert len(F.members) == 117
        cov = down_closed_cover(F, A, 3, 2, Fraction(5, 2))
        assert cov.mode == "chain"
        assert cov.core_family.members == ()
        assert set(cov.residue.members) == set(F.members)
        assert cov.trace[-1]["reason"] == "small-core"
        assert cov.trace[-1]["core"] == [1]
        assert cov.reduction is None
        assert all(r.name != "residue-chain" for r in cov.records)

    def test_single_star_collapses_to_its_core(self):
        A = Domain.binomial(12, 3)
        F = star(A, mask(1, 2))
        cov = down_closed_cover(F, A, 3, 2, Fraction(5, 2))
        assert cov.mode == "chain"
        assert set(cov.core_family.members) == {mask(1, 2)}
        assert cov.residue.members == ()
        assert cov.trace[0]["action"] == "part"
        rem = next(r for r in cov.records if r.name == "cover-remainder")
        assert rem.lhs == 0 and rem.verdict == "holds"

    def test_direct_mode_on_small_uniformity(self):
        A = Domain.binomial(8, 3)
        F = star(A, mask(1, 2))
        cov = down_closed_cover(F, A, 3, 2, Fraction(3))
        assert cov.mode == "direct"
        assert cov.decomposition is None and cov.reduction is not None
        # at seven members nothing clears the 2^14 scale: all residue
        assert cov.core_family.members == ()
        assert set(cov.residue.members) == set(F.members)

    def test_direct_mode_extracts_when_dense(self):
        A = Domain.binomial(17, 2)
        F = A.family.replace_members(m for m in A.family.members if m & 1)
        cov = down_closed_cover(F, A, 2, 1, Fraction(2))
        assert cov.mode == "direct"
        assert set(cov.core_family.members) == {mask(1)}
        assert cov.residue.members == ()

    def test_empty_family(self):
        A = Domain.binomial(8, 3)
        cov = down_closed_cover(fam(8, []), A, 3, 2, Fraction(5, 2))
        assert cov.core_family.members == () and cov.residue.members == ()
        assert cov.decomposition is None and cov.reduction is None
        assert cov.records == ()

    def test_matching_precondition(self):
        A = Domain.binomial(9, 3)
        F = fam(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(PreconditionError, match="small core"):
            down_closed_cover(F, A, 3, 1, Fraction(3, 2))

    def test_domain_without_nominal_spreadness(self):
        faces = SetFamily.from_sets(6, [[1, 2, 3, 4], [3, 4, 5, 6]])
        CL = Domain.complex_layer(faces, 2)
        F = CL.family.replace_members([mask(1, 2)])
        with pytest.raises(PreconditionError, match="nominal"):
            down_closed_cover(F, CL, 2, 1, Fraction(3, 2))

    def test_parameter_validation(self):
        A = Domain.binomial(8, 2)
        F = fam(8, [[1, 2]])
        with pytest.raises(PreconditionError):
            down_closed_cover(F, A, 2, 1, Fraction(0))
        with pytest.raises(PreconditionError):
            down_closed_cover(F, A, 2, 1, 0.5)
        with pytest.raises(PreconditionError, match="uniformity"):
            down_closed_cover(F, A, 2, 3, Fraction(2))

    def test_planted_instances_partition_exactly(self):
        nonempty = 0
        for seed in range(6):
            A, F, cores, s, t, w = planted_instance(seed)
            cov = down_closed_cover(F, A, s, t, w)
            assert find_sunflower(cov.core_family, CorePredicate(s)) is None
            covered = trace_cover(F, cov.core_family)
            assert len(covered.members) + len(cov.residue.members) == len(F.members)
            assert set(family_minus(F, covered).members) == set(cov.residue.members)
            if cov.decomposition is not None:
                cov.decomposition.verify()
            if cov.core_family.members:
                nonempty += 1
        assert nonempty >= 1


class TestReduceIntersections:
    def test_full_star_survives_pruning(self):
        A = Domain.binomial(12, 4)
        d = spread_approximation(star(A, mask(1, 2)), A, Fraction(3), 2)
        assert d.remainder.members == ()
        system = reduce_intersections(d, A, 3, 2, Fraction(1, 16))
        assert len(system.parts) == 1
        assert system.parts[0].core == mask(1, 2)
        assert set(system.parts[0].family.members) == set(d.parts[0].family.members)
        assert [p.core for p in system.parts] == [mask(1, 2)]
        floor = next(r for r in system.records if r.name == "retained-floor")
        assert floor.verdict == "holds"
        hom = next(r for r in system.records if r.name == "block-homogeneity")
        assert hom.verdict == "holds"

    def test_a_pruned_block_is_checked_from_its_own_count(self, monkeypatch):
        # K_19 on 2..20 plus the edge {1,2}, as the link of {21,22} in
        # binomial(22,4): point 1 is sparse, so pruning drops {1,2}
        A = Domain.binomial(22, 4)
        core = mask(21, 22)
        F = fam(22, [list(e) for e in combinations(range(2, 21), 2)] + [[1, 2]])
        D = Decomposition(
            source=F.replace_members(m | core for m in F.members),
            domain=A,
            parts=(DecompositionPart(core, F),),
            remainder=fam(22, []),
            q=2,
            tau=Fraction(2),
        )
        checked = []
        kernel = pipelines._tau_homogeneity

        def recording(fcounts, L, tau):
            checked.append(fcounts)
            return kernel(fcounts, L, tau)

        monkeypatch.setattr(pipelines, "_tau_homogeneity", recording)
        system = reduce_intersections(D, A, 3, 2, Fraction(1, 16))
        U = system.parts[0].family
        assert len(U.members) == len(F.members) - 1 and mask(1, 2) not in U._member_set
        assert checked == [reference_link_counts(U.members)]

    def test_deep_block_intersection_is_caught(self):
        A = Domain.binomial(8, 4)
        src = fam(8, [[1, 2, 5, 6], [3, 4, 5, 6]])
        D = Decomposition(
            source=src,
            domain=A,
            parts=(
                DecompositionPart(mask(1, 2), fam(8, [[5, 6]])),
                DecompositionPart(mask(3, 4), fam(8, [[5, 6]])),
            ),
            remainder=fam(8, []),
            q=2,
            tau=Fraction(4),
        )
        D.verify()
        with pytest.raises(VerificationError, match="beyond the allowance"):
            reduce_intersections(D, A, 2, 2, Fraction(1, 16))

    def test_spread_mode_decomposition_rejected(self):
        A = Domain.binomial(12, 3)
        cov = down_closed_cover(star(A, mask(1, 2)), A, 3, 2, Fraction(5, 2))
        with pytest.raises(PreconditionError, match="tau"):
            reduce_intersections(cov.decomposition, A, 3, 2, Fraction(1, 12))

    def test_nonempty_remainder_rejected(self):
        A = Domain.binomial(8, 2)
        d = spread_approximation(
            fam(8, [[1, 2], [3, 4]]), A, Fraction(6), 2,
            measure_floor=Fraction(1, 4),
        )
        with pytest.raises(PreconditionError, match="remainder"):
            reduce_intersections(d, A, 2, 2, Fraction(1, 8))

    def test_source_sunflower_at_forbidden_size_rejected(self):
        A = Domain.binomial(8, 3)
        src = fam(8, [[1, 2, 3], [3, 4, 5]])
        D = Decomposition(
            source=src,
            domain=A,
            parts=(DecompositionPart(0, src),),
            remainder=fam(8, []),
            q=2,
            tau=Fraction(56),
        )
        with pytest.raises(PreconditionError, match="forbidden core size"):
            reduce_intersections(D, A, 2, 2, Fraction(1, 12))

    def test_alpha_range(self):
        A = Domain.binomial(12, 4)
        d = spread_approximation(star(A, mask(1, 2)), A, Fraction(3), 2)
        with pytest.raises(PreconditionError, match="alpha"):
            reduce_intersections(d, A, 3, 2, Fraction(1, 4))
        with pytest.raises(PreconditionError):
            reduce_intersections(d, A, 3, 2, 0.01)

    def test_full_size_core_has_nothing_to_prune(self):
        A = Domain.binomial(8, 2)
        d = spread_approximation(fam(8, [[1, 2]]), A, Fraction(1), 2)
        assert [p.core for p in d.parts] == [mask(1, 2)]
        with pytest.raises(PreconditionError, match="uniformity"):
            reduce_intersections(d, A, 2, 2, Fraction(1, 16))


def _cluster_fixture():
    A = Domain.binomial(8, 3)
    parts = (
        DecompositionPart(mask(1, 2), fam(8, [[6], [7], [8]])),
        DecompositionPart(mask(1, 3), fam(8, [[5], [7], [8]])),
        DecompositionPart(mask(4, 5), fam(8, [[1], [2], [3]])),
        DecompositionPart(mask(4, 6), fam(8, [[1], [2], [3]])),
    )
    return A, SystemSST(domain=A, s=3, t=2, parts=parts)


class TestClusterSystem:
    def test_single_part_needs_no_sweeps(self):
        A = Domain.binomial(8, 3)
        U = SystemSST(
            domain=A, s=3, t=2,
            parts=(DecompositionPart(mask(1, 2), fam(8, [[6], [7], [8]])),),
        )
        res = cluster_system(U, A, Fraction(1, 3))
        assert res.rounds == ()
        assert set(res.core_family.members) == {mask(1, 2)}
        assert set(res.final_cores.members) == {mask(1, 2)}
        assert res.eps == Fraction(3, 7)
        sweep = next(r for r in res.records if r.name == "sweep-count")
        assert sweep.lhs == 0 and sweep.verdict == "holds"

    def test_shared_point_captures_two_blocks(self):
        A, U = _cluster_fixture()
        res = cluster_system(U, A, Fraction(1, 3))
        assert len(res.rounds) == 1
        assert res.rounds[0].point == mask(1)
        assert set(res.rounds[0].captured.members) == {mask(4, 5), mask(4, 6)}
        assert set(res.final_cores.members) == {mask(1, 2), mask(1, 3)}
        assert set(res.core_family.members) == {
            mask(1, 2), mask(1, 3), mask(4, 5), mask(4, 6)
        }
        count = next(r for r in res.records if r.name == "cluster-count")
        assert count.lhs == 4 and count.verdict == "holds"
        assert count.hypotheses_met is False
        sweep = next(r for r in res.records if r.name == "sweep-count")
        assert sweep.lhs == 1 and sweep.verdict == "holds"
        rem = next(r for r in res.records if r.name == "cluster-remainder")
        assert rem.lhs == 0

    def test_thin_block_shadow_is_named(self):
        A = Domain.binomial(8, 3)
        U = SystemSST(
            domain=A, s=3, t=2,
            parts=(DecompositionPart(mask(1, 2), fam(8, [[6]])),),
        )
        with pytest.raises(PreconditionError, match="thin"):
            cluster_system(U, A, Fraction(1, 3))

    def test_lambda_validation(self):
        A, U = _cluster_fixture()
        with pytest.raises(PreconditionError):
            cluster_system(U, A, Fraction(0))
        with pytest.raises(PreconditionError):
            cluster_system(U, A, Fraction(2))
        with pytest.raises(PreconditionError):
            cluster_system(U, A, 0.5)

    def test_domain_mismatch_rejected(self):
        A, U = _cluster_fixture()
        other = Domain.binomial(9, 3)
        with pytest.raises(PreconditionError, match="different domain"):
            cluster_system(U, other, Fraction(1, 3))

    def test_system_verification_runs_first(self):
        A = Domain.binomial(8, 3)
        with pytest.raises(VerificationError, match="extend its core"):
            bad = SystemSST(
                domain=A, s=3, t=2,
                parts=(DecompositionPart(mask(1, 2), fam(8, [[1, 6]])),),
            )
            cluster_system(bad, A, Fraction(1, 3))


def test_a_chain_verifies_its_decomposition_and_system_once(monkeypatch):
    calls = {}
    for cls in (Decomposition, SystemSST):
        def counting(self, verify=cls.verify, name=cls.__name__):
            calls[name] = calls.get(name, 0) + 1
            verify(self)
        monkeypatch.setattr(cls, "verify", counting)
    A = Domain.binomial(12, 4)
    d = spread_approximation(star(A, mask(1, 2)), A, Fraction(3), 2)
    system = reduce_intersections(d, A, 3, 2, Fraction(1, 16))
    res = cluster_system(system, A, Fraction(1, 3))
    assert set(res.core_family.members) == {mask(1, 2)}
    assert calls == {"Decomposition": 1, "SystemSST": 1}


def test_system_verification_is_capped():
    # the 28 pairs of [8] as cores: no vertex of degree 10, so no 10 of them
    # form a sunflower on one point, and C(28, 10) = 13,123,110 10-subsets
    # of cores would follow
    A = Domain.binomial(8, 3)
    parts = tuple(
        DecompositionPart(mask(a, b), fam(8, [[min(set(range(1, 9)) - {a, b})]]))
        for a, b in combinations(range(1, 9), 2)
    )
    with pytest.raises(CapacityError, match="system verification"):
        SystemSST(domain=A, s=10, t=2, parts=parts)


def test_system_intersection_search_is_capped():
    # three disjoint cores, so every member per block must meet in nothing;
    # the first two blocks' members all share element 1 and the third's
    # miss it, so no choice fails until the last block: 29 * 28 * 1,596
    # choices, all searched before the cap
    faces = ([[1, 2, 3, x] for x in range(8, 37)] + [[1, 4, 5, y] for y in range(37, 65)]
             + [[6, 7, z, w] for z, w in combinations(range(8, 65), 2)])
    A = Domain.complex_layer(SetFamily.from_sets(64, faces), 4)
    parts = (
        DecompositionPart(mask(2, 3), fam(64, [[1, x] for x in range(8, 37)])),
        DecompositionPart(mask(4, 5), fam(64, [[1, y] for y in range(37, 65)])),
        DecompositionPart(mask(6, 7), fam(64, [list(p) for p in combinations(range(8, 65), 2)])),
    )
    with pytest.raises(CapacityError, match="intersection search"):
        SystemSST(domain=A, s=3, t=2, parts=parts)
    # with a two-member third block the search fits and certifies the system
    SystemSST(domain=A, s=3, t=2, parts=parts[:2] + (
        DecompositionPart(mask(6, 7), fam(64, [[8, 9], [10, 11]])),))


def test_smallest_cover_is_capped():
    # 20 disjoint singleton cores: only all 20 singletons cover them, so the
    # smallest-first search would try 2^20 - 1 candidate families
    A = Domain.binomial(20, 1)
    cores = [1 << i for i in range(20)]
    with pytest.raises(CapacityError, match="smallest cover"):
        _smallest_cover(cores, 1, A)
    # 16 of them need 2^16 - 1 candidates, under the cap
    assert _smallest_cover(cores[:16], 1, A).members == tuple(cores[:16])


def _sts_like_star():
    """512 four-sets through element 1 whose tails form a near-linear
    triple system on 63 points: pair degeneracy at most 2, point degree at
    most 42, so the tail system is exactly (s k)-spread at 512 members."""
    triples = set()
    for a in range(21):
        for b in range(21):
            triples.add((3 * a, 3 * b + 1, 3 * ((a + b) % 21) + 2))
            triples.add((3 * a, 3 * b + 1, 3 * ((a + 2 * b) % 21) + 2))
    masks = []
    for tri in sorted(triples):
        m = 1
        for p in tri:
            m |= 1 << (p + 1)
        masks.append(m)
    masks = sorted(set(masks))[:512]
    assert len(masks) == 512
    return SetFamily(GroundSet(64), tuple(masks))


class TestPeelHighUniformity:
    def test_minimum_uniformity_passes_through(self):
        F = fam(8, [[1, 2, 3], [1, 4, 5], [1, 2, 6]])
        res = peel_high_uniformity(F, 2, 1)
        assert res.core_family == F
        assert res.t_layers == (F,)
        assert res.u_layers == () and res.w_layers == ()
        assert res.extractions == ()

    def test_wide_star_extracts_a_big_core(self):
        F = fam(12, [[1, 2, 3, x] for x in range(4, 13)])
        res = peel_high_uniformity(F, 2, 1)
        assert [(e.round_index, e.core) for e in res.extractions] == [
            (0, mask(1, 2, 3))
        ]
        assert len(res.extractions[0].family.members) == 9
        assert set(res.core_family.members) == {mask(1, 2, 3)}
        assert res.u_layers[0].members == ()
        assert res.w_layers[0].members == ()
        assert res.cover_counts == (0,)
        rec = res.records[0]
        assert rec.name == "residual-0" and rec.verdict == "holds"

    def test_spread_tail_system_sets_aside_a_small_core(self):
        F = _sts_like_star()
        res = peel_high_uniformity(F, 2, 1)
        assert [(e.round_index, e.core) for e in res.extractions] == [(0, mask(1))]
        assert res.u_layers[0].members == (mask(1),)
        assert res.w_layers[0].members == ()
        assert res.core_family.members == ()
        assert res.t_layers[1].members == ()
        assert res.cover_counts == (512,)

    def test_two_stars_extract_in_one_round(self):
        F = fam(
            32,
            [[1, 2, 3, x] for x in range(4, 17)] + [[17, 18, 19, y] for y in range(20, 33)],
        )
        res = peel_high_uniformity(F, 3, 1)
        assert [(e.round_index, e.core) for e in res.extractions] == [
            (0, mask(1, 2, 3)),
            (0, mask(17, 18, 19)),
        ]
        assert [len(e.family.members) for e in res.extractions] == [13, 13]
        assert set(res.core_family.members) == {mask(1, 2, 3), mask(17, 18, 19)}
        assert res.w_layers[0].members == ()

    def test_links_too_small_to_be_spread_are_not_checked(self, monkeypatch):
        # c link members of size j cannot be alpha-spread when c < alpha^j:
        # each member is its own violation, so no spreadness check is run
        seen = []
        check_spread = pipelines.check_spread

        def recording(G, R):
            seen.append((len(G), G.members[0].bit_count(), R))
            return check_spread(G, R)

        monkeypatch.setattr(pipelines, "check_spread", recording)
        # two 13-leaf stars and one member meeting both; alpha = s k = 12
        F = fam(
            32,
            [[1, 2, 3, x] for x in range(4, 17)]
            + [[17, 18, 19, y] for y in range(20, 33)]
            + [[1, 4, 17, 20]],
        )
        res = peel_high_uniformity(F, 3, 1)
        assert [e.core for e in res.extractions] == [mask(1, 2, 3), mask(17, 18, 19)]
        assert res.w_layers[0].members == (mask(1, 4, 17, 20),)
        # every link of the odd member's submasks is that member alone
        assert seen == [(13, 1, 12), (13, 1, 12)]

    def test_unspread_family_is_all_residual(self):
        F = fam(8, [[1, 2, 3, 4], [1, 2, 3, 5], [2, 3, 4, 5]])
        res = peel_high_uniformity(F, 2, 1)
        assert res.extractions == ()
        assert set(res.w_layers[0].members) == set(F.members)
        assert res.core_family.members == ()
        assert res.records[0].verdict == "holds"

    def test_matching_precondition(self):
        with pytest.raises(PreconditionError, match="forbidden core size"):
            peel_high_uniformity(fam(9, [[1, 2, 3], [4, 5, 6]]), 2, 1)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError, match="uniform"):
            peel_high_uniformity(fam(6, [[1, 2], [3, 4, 5]]), 2, 1)
        with pytest.raises(PreconditionError, match="2t"):
            peel_high_uniformity(fam(6, [[1, 2]]), 2, 1)
        with pytest.raises(PreconditionError, match="nonempty"):
            peel_high_uniformity(fam(6, []), 2, 1)
        with pytest.raises(PreconditionError):
            peel_high_uniformity(fam(8, [[1, 2, 3]]), 1, 1)


class TestDeltaFilter:
    def test_empty_family(self):
        res = delta_filter(fam(6, []), 2, 1)
        assert res.family.members == () and res.chosen == ()
        assert res.rounds == 0

    def test_full_star_is_a_fixed_point(self):
        A = Domain.binomial(8, 3)
        F = star(A, mask(1))
        res = delta_filter(F, 3, 1)
        assert res.family == F
        assert res.removed.members == ()
        assert res.rounds == 1
        assert all(T == mask(1) for _, T in res.chosen)

    def test_single_member_dies(self):
        F = fam(8, [[1, 2, 3]])
        res = delta_filter(F, 2, 1)
        assert res.family.members == ()
        assert set(res.removed.members) == set(F.members)
        assert res.rounds == 1

    def test_intruder_is_pruned_then_stable(self):
        A = Domain.binomial(8, 3)
        F = star(A, mask(1)).replace_members(
            list(star(A, mask(1)).members) + [mask(6, 7, 8)]
        )
        res = delta_filter(F, 3, 1)
        assert set(res.family.members) == set(star(A, mask(1)).members)
        assert res.removed.members == (mask(6, 7, 8),)
        assert res.rounds == 2
        assert dict(res.chosen)[mask(1, 2, 3)] == mask(1)

    def test_each_round_is_one_pass(self, monkeypatch):
        # every pass hands its calls one fresh verdict cache
        caches = []
        anchor = pipelines._delta_anchor

        def recording(m, G, p, t, verdicts):
            if not any(c is verdicts for c in caches):
                caches.append(verdicts)
            return anchor(m, G, p, t, verdicts)

        monkeypatch.setattr(pipelines, "_delta_anchor", recording)
        A = Domain.binomial(8, 3)
        F = star(A, mask(1)).replace_members(
            list(star(A, mask(1)).members) + [mask(6, 7, 8)]
        )
        res = delta_filter(F, 3, 1)
        assert res.rounds == 2 and len(caches) == 2

    def test_removal_cascades_to_a_fixed_point(self):
        # dropping the lone outsider starves the remaining stubs round by
        # round; the greatest fixed point here is empty
        F = fam(8, [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [6, 7, 8]])
        res = delta_filter(F, 2, 1)
        assert res.family.members == ()
        assert set(res.removed.members) == set(F.members)
        assert res.rounds == 2

    def test_fixed_point_is_idempotent(self):
        A = Domain.binomial(8, 3)
        F = star(A, mask(1)).replace_members(
            list(star(A, mask(1)).members) + [mask(6, 7, 8)]
        )
        res = delta_filter(F, 3, 1)
        again = delta_filter(res.family, 3, 1)
        assert again.family.members == res.family.members
        assert again.removed.members == ()
        assert again.rounds == 1

    def test_anchored_slices_carry_no_sunflower(self):
        A = Domain.binomial(8, 3)
        res = delta_filter(star(A, mask(1)), 3, 1)
        for D in combinations(range(1, 9), 2):
            Dm = mask(*D)
            sliced = [m for m, T in res.chosen if m & ~Dm == T]
            assert len(sliced) <= 1
            assert find_sunflower(sliced, CorePredicate(3)) is None

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError, match="petal"):
            delta_filter(fam(6, [[1, 2]]), 1, 1)
        with pytest.raises(PreconditionError, match="uniform"):
            delta_filter(fam(6, [[1, 2], [3, 4, 5]]), 2, 1)
        with pytest.raises(PreconditionError, match="anchor size"):
            delta_filter(fam(6, [[1, 2, 3]]), 2, 4)

    @staticmethod
    def assert_matches_reference(F, p, t):
        res = delta_filter(F, p, t)
        family, chosen, removed, rounds = reference_delta_filter(F, p, t)
        assert res.family == family
        assert res.chosen == chosen
        assert res.removed == removed
        assert res.rounds == rounds

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_instances_match_the_uncached_reference(self, seed):
        # six random domain members as intruders, so some rounds remove members
        A, F, cores, s, t, w = planted_instance(seed)
        intruders = random.Random(seed).sample(A.family.members, 6)
        F = F.replace_members(set(F.members) | set(intruders))
        self.assert_matches_reference(F, s, t)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sets(st.integers(1, 7), min_size=3, max_size=3), max_size=14),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2, 3]),
    )
    def test_random_uniform_families_match_the_uncached_reference(self, sets, p, t):
        F = SetFamily.from_sets(7, [sorted(x) for x in sets])
        self.assert_matches_reference(F, p, t)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_two_to_four_petals_match_the_uncached_reference(self, data):
        # pairs and triples on 9 points: a 1-set core can have 4 disjoint petals
        k = data.draw(st.sampled_from([2, 3]))
        sets = data.draw(st.lists(st.sets(st.integers(1, 9), min_size=k, max_size=k),
                                  max_size=18))
        p = data.draw(st.sampled_from([2, 3, 4]))
        t = data.draw(st.integers(1, k))
        self.assert_matches_reference(SetFamily.from_sets(9, [sorted(x) for x in sets]), p, t)

    def test_four_petal_star_keeps_its_members(self):
        A = Domain.binomial(9, 2)
        F = star(A, mask(1)).replace_members(list(star(A, mask(1)).members) + [mask(2, 3)])
        res = delta_filter(F, 4, 1)
        assert res.family == star(A, mask(1)) and res.removed.members == (mask(2, 3),)
        self.assert_matches_reference(F, 4, 1)

    def test_anchor_search_is_capped(self):
        # a 17-set has 17 (2^16 - 1) pairs (T, E) for t = 1, a 12-set 12 (2^11 - 1)
        with pytest.raises(CapacityError, match="anchor search"):
            delta_filter(fam(17, [range(1, 18)]), 2, 1)
        assert delta_filter(fam(12, [range(1, 13)]), 2, 1).family.members == ()
        # t = k leaves no E to test
        assert delta_filter(fam(40, [range(1, 41)]), 2, 40).family.members == (mask(*range(1, 41)),)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(1, 7), min_size=3, max_size=3),
            min_size=0, max_size=10,
        ),
        st.sampled_from([1, 2]),
    )
    def test_filter_is_idempotent(self, sets, t):
        masks = sorted({mask(*s) for s in sets})
        F = SetFamily.from_sets(7, []).replace_members(masks)
        res = delta_filter(F, 2, t)
        again = delta_filter(res.family, 2, t)
        assert again.family.members == res.family.members
        assert again.removed.members == ()


def test_direct_mode_cover_checks_its_family_once(monkeypatch):
    # the small-core freeness of F is searched by down_closed_cover itself;
    # the layer loop it runs in direct mode does not search F again
    calls = []
    find = pipelines.find_sunflower

    def counting(F, pred):
        calls.append(F)
        return find(F, pred)

    monkeypatch.setattr(pipelines, "find_sunflower", counting)
    A = Domain.binomial(12, 3)
    F = star(A, mask(1, 2))
    for w in (Fraction(3), Fraction(4)):
        calls.clear()
        cov = down_closed_cover(F, A, 3, 2, w)
        assert cov.mode == "direct"
        assert sum(G is F for G in calls) == 1
    # simplify called on its own still checks its input
    calls.clear()
    simplify(F, A, 3, 2, Fraction(1, 2))
    assert sum(G is F for G in calls) == 1


def test_direct_mode_cover_finds_its_residue_once(monkeypatch):
    # the layer loop's uncovered members of F are the cover's residue, so
    # direct mode traces the core family on F once
    calls = []
    trace = pipelines.trace_cover

    def counting(F, B, index=None):
        calls.append(F)
        return trace(F, B, index)

    monkeypatch.setattr(pipelines, "trace_cover", counting)
    sparse, dense = Domain.binomial(12, 3), Domain.binomial(17, 2)
    cases = [
        (sparse, star(sparse, mask(1, 2)), 3, 2, Fraction(3)),  # no core: all residue
        (dense, star(dense, mask(1)), 2, 1, Fraction(2)),  # core {1}: no residue
    ]
    for A, F, s, t, w in cases:
        calls.clear()
        cov = down_closed_cover(F, A, s, t, w)
        assert cov.mode == "direct"
        assert sum(G is F for G in calls) == 1
        core = cov.core_family.members
        assert cov.residue.members == tuple(
            m for m in F.members if not any(c & m == c for c in core))


def test_direct_mode_cover_keeps_its_own_error():
    A = Domain.binomial(9, 3)
    matching = fam(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(PreconditionError) as exc:
        down_closed_cover(matching, A, 3, 1, Fraction(3))
    assert exc.value.message == "family carries an s-sunflower with a small core"
    with pytest.raises(PreconditionError) as exc:
        simplify(matching, A, 3, 1, Fraction(1, 2))
    assert exc.value.message == "input family carries an s-sunflower with a small core"


# -- integer brackets against their Fraction originals -----------------------

_RATS = st.fractions(min_value=-40, max_value=40, max_denominator=500)
_POS = st.fractions(min_value=Fraction(1, 400), max_value=60, max_denominator=400)


def _pair(lo, hi):
    return (lo, hi) if lo <= hi else (hi, lo)


# signed intervals, and zero-width ones
_BRACKETS = st.one_of(st.builds(_pair, _RATS, _RATS), _RATS.map(lambda x: (x, x)))
_NONNEG = st.one_of(
    st.builds(_pair, _RATS.map(abs), _RATS.map(abs)), _RATS.map(lambda x: (abs(x), abs(x)))
)


def _fractions(triple):
    lo, hi, d = triple
    assert d > 0
    return Fraction(lo, d), Fraction(hi, d)


class TestIntegerBrackets:
    """Each helper on (lo, hi, d) triples gives the rationals its Fraction
    original gives, so every record's bytes stay the same."""

    @given(st.one_of(st.integers(-10**6, 10**6), _RATS))
    def test_exactly(self, x):
        assert _fractions(_exactly(x)) == (Fraction(x), Fraction(x))

    @given(_BRACKETS, _BRACKETS)
    def test_iv_mul(self, a, b):
        assert _fractions(_iv_mul(_bracket(a), _bracket(b))) == reference_iv_mul(a, b)

    @given(_NONNEG, st.integers(0, 4))
    def test_iv_pow(self, a, e):
        assert _fractions(_iv_pow(_bracket(a), e)) == reference_iv_pow(a, e)

    @given(_RATS.filter(lambda x: x < 0), _RATS, st.integers(0, 4))
    @example(Fraction(-1), Fraction(1), 0)
    def test_iv_pow_refuses_a_negative_lower_end(self, lo, width, e):
        a = (lo, lo + abs(width))
        with pytest.raises(PreconditionError) as exc:
            _iv_pow(_bracket(a), e)
        assert exc.value.message == "interval power needs a nonnegative lower end"
        with pytest.raises(PreconditionError):
            reference_iv_pow(a, e)

    @given(_POS)
    @example(Fraction(1))
    @example(Fraction(1, 3))
    @example(Fraction(8))
    def test_ln_bracket(self, x):
        # ln of x < 1 is negative, so the bracket is signed there
        assert _fractions(_ln_bracket(x)) == reference_ln_bracket(x)

    @given(
        st.integers(2, 5), st.integers(0, 4), _POS, st.lists(_BRACKETS, max_size=2)
    )
    @example(3, 2, Fraction(1), [(Fraction(-1), Fraction(2))])
    @example(2, 0, Fraction(5), [])
    def test_kernel_scale(self, s, t, x, factors):
        try:
            want = reference_kernel_scale(s, t, x, *factors)
        except PreconditionError:  # log2 of x < 1 is negative
            with pytest.raises(PreconditionError):
                _kernel_scale(s, t, x, *map(_bracket, factors))
            return
        assert _fractions(_kernel_scale(s, t, x, *map(_bracket, factors))) == want

    @given(_BRACKETS, st.sampled_from(["lo", "hi", "free"]), _RATS, st.booleans())
    def test_record(self, rhs, at, free, met):
        lhs = {"lo": rhs[0], "hi": rhs[1], "free": free}[at]
        got = _record("r", lhs, _bracket(rhs), hypotheses_met=met, note="n")
        want = reference_record("r", lhs, rhs, hypotheses_met=met, note="n")
        assert got == want
        assert report(got) == report(want)

    def test_record_at_the_ends(self):
        rhs = (Fraction(1, 3), Fraction(1, 2))
        at_lo = _record("r", Fraction(1, 3), _bracket(rhs))
        at_hi = _record("r", Fraction(1, 2), _bracket(rhs))
        assert (at_lo.verdict, at_hi.verdict) == ("holds", "unresolved")
        assert _record("r", 1, _exactly(1)).verdict == "holds"
        assert _record("r", 2, _exactly(1)).verdict == "fails"


def _near_boundary(s, t, count, j):
    """floor(count * (scale * log2 t)^j) from a 200-step bracket, below the
    true value and, for j = 4, inside the 48-step bracket."""
    lo = frac_log2_bracket(t, 200)[0]
    v = count * (2 ** 14 * s * lo) ** j
    return v.numerator // v.denominator


class TestThresholdOffTheExactPath:
    """t neither 1 nor a power of two: exceeds decides on integer numerators."""

    @given(
        st.sampled_from([3, 5, 6, 7]), st.integers(2, 4), st.integers(1, 6),
        st.integers(0, 40), st.integers(0, 4), st.integers(-3, 3),
        st.one_of(st.none(), st.integers(0, 10 ** 22)),
    )
    def test_matches_the_fraction_form(self, t, s, q, count, j, delta, total):
        if total is None:
            total = max(_near_boundary(s, t, count, j) + delta, 0)
        thr = ExtractionThreshold(s, q, t)
        assert thr.exact is None
        assert thr.exceeds(count, j, total) == reference_threshold_exceeds(
            s, q, t, count, j, total
        )

    @pytest.mark.parametrize("t", [3, 5, 6, 7])
    def test_a_compare_that_needs_one_doubling(self, t):
        s, count, j = 3, 1, 4
        total = _near_boundary(s, t, count, j)
        scale = 2 ** 14 * s
        lo, hi = frac_log2_bracket(t, 48)
        assert (scale * lo) ** j <= total < (scale * hi) ** j
        lo, hi = frac_log2_bracket(t, 96)
        assert total < (scale * lo) ** j
        thr = ExtractionThreshold(s, 5, t)
        assert thr.exceeds(count, j, total) is True
        assert reference_threshold_exceeds(s, 5, t, count, j, total) is True
        assert thr.exceeds(count, j, total + 1) == reference_threshold_exceeds(
            s, 5, t, count, j, total + 1
        )


def test_peeling_refuses_a_layer_past_the_subset_cap_before_counting(monkeypatch):
    monkeypatch.setattr(pipelines, "_ENUM_CAP", 1 << 10)
    one = lambda k: SetFamily.from_sets(k, [range(1, k + 1)])  # noqa: E731
    assert peel_high_uniformity(one(10), 2, 1).core_family.members == ()
    # at k = 2t + 1 no round runs, so nothing is counted
    assert peel_high_uniformity(one(11), 2, 5).core_family == one(11)
    monkeypatch.setattr(pipelines, "_link_counts", lambda masks: 1 / 0)
    with pytest.raises(CapacityError, match="peeling counts too many subsets") as exc:
        peel_high_uniformity(one(11), 2, 1)
    assert exc.value.details == {"k": 11, "cap": 1 << 10}


def test_a_depth_stop_on_a_domain_that_is_not_rt_spread_records_an_uncertified_cap():
    # the triangle stars of binomial(16, 4) as their own "binomial" domain:
    # its nominal r = 4 is not a depth-2 spreadness of that family
    B = Domain.binomial(16, 4)
    F = B.family.replace_members(
        m for m in B.family if any(m & S == S for S in (mask(1, 2), mask(1, 3), mask(2, 3))))
    A = Domain("binomial", F, 4, {"n": 16, "k": 4})
    cov = down_closed_cover(F, A, 3, 2, Fraction(5, 2))
    assert cov.trace[-1] == {"action": "stop", "reason": "depth", "core": [2, 3, 4]}
    assert report(cov.records[0]) == {
        "name": "residue-chain", "lhs": "78", "rhs_lo": "78", "rhs_hi": "78",
        "verdict": "holds", "hypotheses_met": False,
        "note": "domain is not (r,t)-spread; chain cap not certified",
    }


def test_clustering_at_two_petals_and_t_2_counts_with_phi_1():
    # phi(2, t) = 1: no two distinct t-sets are free of a 2-sunflower
    A = Domain.binomial(8, 3)
    U = SystemSST(domain=A, s=2, t=2, parts=(
        DecompositionPart(mask(1, 2), fam(8, [[3], [4], [5], [6], [7], [8]])),))
    res = cluster_system(U, A, Fraction(1, 2))
    assert res.core_family.members == (mask(1, 2),) and res.rounds == ()
    count = res.records[0]
    assert count.name == "cluster-count"
    # 1/lambda (1 + 2 phi ln(lambda |shadow_<=2|)) with |shadow_<=2| = 1 + 8 + 28
    assert count.rhs_lo < Fraction(2 * (1 + 2 * math.log(37 / 2))) < count.rhs_hi
    assert count.rhs_hi - count.rhs_lo < Fraction(1, 10 ** 4)


def test_sweeps_that_capture_every_core_leave_an_empty_final_cover():
    # the 0-shadow of each block is the empty set, so one sweep takes both cores
    A = Domain.binomial(8, 3)
    U = SystemSST(domain=A, s=2, t=1, parts=(
        DecompositionPart(mask(1, 2), fam(8, [[4], [5]])),
        DecompositionPart(mask(1, 3), fam(8, [[4], [5]]))))
    res = cluster_system(U, A, Fraction(1))
    assert [(r.point, r.captured.members) for r in res.rounds] == [
        (0, (mask(1, 2), mask(1, 3)))]
    assert res.final_cores.members == ()
    assert _smallest_cover([], 1, A) == A.family.replace_members(())


@pytest.mark.parametrize("s, t", [(1, 1), (3, 0)])
def test_every_pipeline_refuses_the_same_s_and_t(s, t):
    # reduce_intersections at t = 0 once named the "core-size bound" of the
    # t - 1 predicate it built before any check
    A = Domain.binomial(6, 2)
    D = spread_approximation(star(A, mask(1)), A, 2, 1)
    calls = {
        "simplify": lambda: simplify(A.family, A, s, t, Fraction(1, 2)),
        "cover": lambda: down_closed_cover(A.family, A, s, t, Fraction(2)),
        "reduce": lambda: reduce_intersections(D, A, s, t, Fraction(1, 8)),
        "system": lambda: SystemSST(domain=A, s=s, t=t, parts=()),
        "peel": lambda: peel_high_uniformity(A.family, s, t),
    }
    for name, call in calls.items():
        with pytest.raises(PreconditionError, match="need s >= 2 and t >= 1") as exc:
            call()
        assert exc.value.details == {"s": s, "t": t}, name
