from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sforge.bounds import verify_instance
from sforge.domains import Domain
from sforge.errors import CapacityError, PreconditionError
from sforge.family import SetFamily, mask_of
from sforge.sunflowers import (
    CoreMode,
    CorePredicate,
    DegenerateWitness,
    PhiResult,
    SunflowerWitness,
    brute_force_find,
    family_is_free,
    find_sunflower,
    is_sunflower,
    max_sunflower_free,
    oracle_max_sunflower_free,
    phi_exact,
    product_kernel,
)


def binomial_family(n, k):
    return SetFamily.from_sets(n, [list(c) for c in combinations(range(1, n + 1), k)])


def test_is_sunflower_basic():
    star = [mask_of([1, 2]), mask_of([1, 3]), mask_of([1, 4])]
    assert is_sunflower(star) == mask_of([1])
    matching = [mask_of([1, 2]), mask_of([3, 4])]
    assert is_sunflower(matching) == 0
    triangle = [mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3])]
    assert is_sunflower(triangle) is None


def test_is_sunflower_rejects_duplicates():
    with pytest.raises(PreconditionError):
        is_sunflower([3, 3])
    with pytest.raises(PreconditionError):
        is_sunflower([3])


def test_predicate_validation():
    with pytest.raises(PreconditionError):
        CorePredicate(1, CoreMode.ANY)
    with pytest.raises(PreconditionError):
        CorePredicate(3, CoreMode.EXACT)
    with pytest.raises(PreconditionError):
        CorePredicate(3, CoreMode.EXACT, 0, degenerate_small_sets=True)
    p = CorePredicate(3, CoreMode.AT_MOST, 1)
    assert p.admits_core_size(0) and p.admits_core_size(1) and not p.admits_core_size(2)


def test_witness_invariants_enforced():
    with pytest.raises(PreconditionError):
        SunflowerWitness((mask_of([1, 2]), mask_of([1, 2])), mask_of([1, 2]))
    with pytest.raises(PreconditionError):
        SunflowerWitness((mask_of([1, 2]), mask_of([2, 3]), mask_of([1, 3])), 0)
    w = SunflowerWitness((mask_of([1, 2]), mask_of([1, 3]), mask_of([1, 4])), mask_of([1]))
    assert w.s == 3


def test_find_sunflower_star():
    f = SetFamily.from_sets(6, [[1, 2], [1, 3], [1, 4], [5, 6]])
    w = find_sunflower(f, CorePredicate(3, CoreMode.EXACT, 1))
    assert isinstance(w, SunflowerWitness)
    assert w.core == mask_of([1])
    # no 3 pairwise-disjoint members here
    assert find_sunflower(f, CorePredicate(3, CoreMode.EXACT, 0)) is None


def test_find_sunflower_empty_core_matching():
    f = SetFamily.from_sets(6, [[1, 2], [3, 4], [5, 6]])
    w = find_sunflower(f, CorePredicate(3, CoreMode.AT_MOST, 0))
    assert isinstance(w, SunflowerWitness) and w.core == 0


def test_find_sunflower_empty_petal_allowed():
    # the core itself may appear as a member: one empty petal
    f = SetFamily.from_sets(5, [[1, 2], [1, 2, 3], [1, 2, 4]])
    w = find_sunflower(f, CorePredicate(3, CoreMode.ANY))
    assert isinstance(w, SunflowerWitness)
    assert w.core == mask_of([1, 2])


def test_two_triangles_are_three_free():
    f = SetFamily.from_sets(6, [[1, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 6]])
    assert family_is_free(f, CorePredicate(3, CoreMode.ANY))
    assert not family_is_free(f, CorePredicate(2, CoreMode.ANY))


def test_degenerate_small_sets_flag():
    f = SetFamily.from_sets(5, [[1], [2, 3, 4]])
    pred = CorePredicate(3, CoreMode.AT_MOST, 1, degenerate_small_sets=True)
    w = find_sunflower(f, pred)
    assert isinstance(w, DegenerateWitness)
    assert w.member == mask_of([1]) and w.s == 3
    # without the flag the singleton is not by itself a violation
    assert find_sunflower(f, CorePredicate(3, CoreMode.AT_MOST, 1)) is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_matches_brute_force(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    count = data.draw(st.integers(min_value=2, max_value=10))
    sets = data.draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=4),
            min_size=count, max_size=count, unique_by=lambda s: tuple(sorted(s)),
        )
    )
    f = SetFamily.from_sets(n, [sorted(s) for s in sets])
    s = data.draw(st.integers(min_value=2, max_value=4))
    mode = data.draw(st.sampled_from([CoreMode.ANY, CoreMode.AT_MOST, CoreMode.EXACT]))
    bound = None if mode is CoreMode.ANY else data.draw(st.integers(min_value=0, max_value=3))
    pred = CorePredicate(s, mode, bound)
    fast = find_sunflower(f, pred)
    slow = brute_force_find(f, pred)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert isinstance(fast, SunflowerWitness)
        core = is_sunflower(list(fast.petals))
        assert core == fast.core and pred.admits_core_size(core.bit_count())
        assert all(p in f.members for p in fast.petals)


def test_brute_force_capacity():
    f = binomial_family(8, 2)
    with pytest.raises(CapacityError):
        brute_force_find(f, CorePredicate(2, CoreMode.ANY))


def test_max_free_intersecting_pairs():
    # no two disjoint pairs on [5]: best is a star of size 4
    res = max_sunflower_free(binomial_family(5, 2), CorePredicate(2, CoreMode.EXACT, 0),
                             symmetry="full")
    assert res.optimum == 4 and res.certified
    assert family_is_free(res.witness, CorePredicate(2, CoreMode.EXACT, 0))


def test_max_free_budget_downgrade():
    res = max_sunflower_free(binomial_family(6, 2), CorePredicate(3, CoreMode.ANY), budget=5)
    assert not res.certified
    assert res.optimum >= 0  # incumbent, not an error


@pytest.mark.parametrize("n,s,t,expect", [
    (5, 3, 1, 10),
    (6, 3, 1, 10),
    (5, 2, 1, 4),
])
def test_max_free_matches_oracle(n, s, t, expect):
    fam = binomial_family(n, 2)
    pred = CorePredicate(s, CoreMode.AT_MOST, t - 1)
    res = max_sunflower_free(fam, pred, symmetry="full")
    assert res.certified
    assert res.optimum == oracle_max_sunflower_free(fam, pred) == expect


# Node counts enter CLI and scenario reports, so the forward-checking filter
# must visit exactly the nodes of testing each candidate against the whole
# partial family; these are that search's values.
@pytest.mark.parametrize("n,k,pred,symmetry,budget,expect", [
    (7, 2, CorePredicate(3, CoreMode.AT_MOST, 0), None, 2_000_000, (11, 7855, True)),
    (6, 3, CorePredicate(3, CoreMode.ANY), "full", 2_000_000, (10, 788, True)),
    (6, 2, CorePredicate(4, CoreMode.ANY), "full", 2_000_000, (9, 347, True)),
    (7, 3, CorePredicate(3, CoreMode.AT_MOST, 1), None, 1000, (20, 1001, False)),
])
def test_max_free_node_counts_pinned(n, k, pred, symmetry, budget, expect):
    res = max_sunflower_free(binomial_family(n, k), pred, budget=budget, symmetry=symmetry)
    assert (res.optimum, res.nodes, res.certified) == expect
    assert brute_force_find(res.witness, pred) is None


def test_phi_and_verify_node_counts_pinned():
    res = phi_exact(3, 2, support_bound=14)
    assert (res.value, res.nodes, res.certified) == (6, 64, True)
    rep = verify_instance(Domain.binomial(8, 2), 3, 1)
    assert (rep["optimum"], rep["search_nodes"], rep["optimum_certified"]) == (13, 5230, True)


def test_max_free_packs_petals_for_four():
    # The whole family is 4-sunflower-free although some cores x & c have two
    # members above them: their petals overlap, so only packing shows it.
    fam = SetFamily.from_sets(6, [[4], [1, 4], [2, 4], [2, 5], [3, 6], [2, 4, 5], [1, 2, 3, 4, 5, 6]])
    pred = CorePredicate(4, CoreMode.ANY)
    assert max_sunflower_free(fam, pred).optimum == oracle_max_sunflower_free(fam, pred) == 7


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_max_free_matches_oracle_random(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    sets = data.draw(
        st.lists(st.sets(st.integers(min_value=1, max_value=n)),
                 max_size=12, unique_by=lambda s: tuple(sorted(s)))
    )
    fam = SetFamily.from_sets(n, [sorted(s) for s in sets])
    s = data.draw(st.integers(min_value=2, max_value=4))
    mode = data.draw(st.sampled_from([CoreMode.ANY, CoreMode.AT_MOST, CoreMode.EXACT]))
    bound = None if mode is CoreMode.ANY else data.draw(st.integers(min_value=0, max_value=3))
    degenerate = mode is CoreMode.AT_MOST and data.draw(st.booleans())
    pred = CorePredicate(s, mode, bound, degenerate)
    res = max_sunflower_free(fam, pred)
    assert res.certified
    assert res.optimum == oracle_max_sunflower_free(fam, pred)
    assert len(res.witness) == res.optimum
    assert all(m in fam.members for m in res.witness.members)
    assert brute_force_find(res.witness, pred) is None


def test_product_kernel_free():
    for s, t in [(2, 1), (3, 2), (4, 3), (4, 2), (3, 3)]:
        fam = product_kernel(s, t)
        assert len(fam) == (s - 1) ** t
        assert fam.uniformity == t
        assert family_is_free(fam, CorePredicate(s, CoreMode.ANY))


def test_phi_two_petals_always_one():
    for t in range(1, 5):
        res = phi_exact(2, t, support_bound=2 * t)
        assert res.value == 1
        assert res.certified and res.unconditional


def test_phi_one_uniform():
    for s in range(2, 7):
        res = phi_exact(s, 1, support_bound=s)
        assert res.value == s - 1
        assert res.unconditional


def test_phi_pairs_three_petals():
    res = phi_exact(3, 2, support_bound=9)
    assert res.value == 6
    assert res.certified
    # support 9 < 2 * (6 + 1): certification is support-restricted
    assert not res.unconditional
    assert family_is_free(res.witness, CorePredicate(3, CoreMode.ANY))


def test_phi_capacity_gate():
    with pytest.raises(CapacityError):
        phi_exact(3, 4, support_bound=16)
