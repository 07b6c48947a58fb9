import signal
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    _core_index,
    _third_petals,
    brute_force_find,
    family_is_free,
    find_sunflower,
    is_sunflower,
    max_sunflower_free,
    oracle_max_sunflower_free,
    phi_exact,
    product_kernel,
)

from support import least_optimal_family, reference_find_sunflower, reference_max_sunflower_free


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_find_matches_brute_force(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    count = data.draw(st.integers(min_value=2, max_value=12))
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
    degenerate = mode is CoreMode.AT_MOST and data.draw(st.booleans())
    pred = CorePredicate(s, mode, bound, degenerate)
    # a plain mask list, unsorted, goes through the same canonical order
    target = f if data.draw(st.booleans()) else list(reversed(f.members))
    fast = find_sunflower(target, pred)
    assert fast == reference_find_sunflower(target, pred)
    slow = brute_force_find(f, pred)
    assert (fast is None) == (slow is None)
    if isinstance(fast, DegenerateWitness):
        assert fast.member in f.members and fast.member.bit_count() <= bound
    elif fast is not None:
        core = is_sunflower(list(fast.petals))
        assert core == fast.core and pred.admits_core_size(core.bit_count())
        assert all(p in f.members for p in fast.petals)


def uses_core_index(members, pred) -> bool:
    """The side of find_sunflower's cost rule that ``members`` fall on."""
    w = max(m.bit_count() for m in members)
    subsets = sum(comb(w, c) for c in range(w + 1) if pred.admits_core_size(c))
    return len(members) * subsets < comb(len(members), 2)


@st.composite
def sunflower_inputs(draw, index: bool):
    """Distinct masks of mixed sizes and a predicate; many narrow masks when
    ``index`` is set, so that the cost rule picks the core index."""
    n = draw(st.integers(4, 9))
    width = draw(st.integers(1, 3 if index else 5))
    sets = draw(st.sets(st.frozensets(st.integers(1, n), max_size=width),
                        min_size=16 if index else 2, max_size=32 if index else 14))
    members = [sum(1 << (e - 1) for e in x) for x in sets]
    s = draw(st.integers(2, 5))
    mode = draw(st.sampled_from([CoreMode.ANY, CoreMode.AT_MOST, CoreMode.EXACT]))
    bound = None if mode is CoreMode.ANY else draw(st.integers(0, 3))
    degenerate = mode is CoreMode.AT_MOST and draw(st.booleans())
    return members, CorePredicate(s, mode, bound, degenerate)


@pytest.mark.parametrize("index", [True, False], ids=["index", "pairs"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_find_matches_the_reference_on_both_core_paths(index, data):
    members, pred = data.draw(sunflower_inputs(index))
    assume(len(members) >= pred.s and uses_core_index(members, pred) == index)
    assert find_sunflower(members, pred) == reference_find_sunflower(members, pred)


def test_core_index_lists_members_in_the_given_order():
    members = SetFamily.from_sets(6, [[1], [1, 2], [2, 3], [1, 2, 3], [1, 4, 5], [2, 3, 6]]).members
    sizes = [0, 2]
    expect = {}
    for m in members:
        for K in range(1 << 6):
            if K & m == K and K.bit_count() in sizes:
                expect.setdefault(K, []).append(m)
    index = _core_index(members, sizes)
    assert index == expect
    assert index[0] == list(members)
    assert index[mask_of([2, 3])] == [mask_of([2, 3]), mask_of([1, 2, 3]), mask_of([2, 3, 6])]


def test_index_path_finds_an_empty_petal():
    # the core {1, 2} is itself a member: a sunflower with one empty petal
    sets = [[1, 2]] + [[1, 2, x] for x in range(3, 9)] + [[x, x + 1] for x in range(3, 12)]
    f = SetFamily.from_sets(12, sets)
    pred = CorePredicate(4, CoreMode.EXACT, 2)
    assert uses_core_index(f.members, pred)
    w = find_sunflower(f, pred)
    assert w == reference_find_sunflower(f, pred)
    assert w.core == mask_of([1, 2]) and mask_of([1, 2]) in w.petals


def test_many_petals_on_wide_members_stay_fast():
    # 21 triples on elements 1..63 plus the core element 64: the transversal
    # pre-check would branch 3 ways to depth 20 without its node budget
    core = mask_of([64])
    members = [core | (0b111 << (3 * i)) for i in range(21)]
    start = time.perf_counter()
    w = find_sunflower(members, CorePredicate(21, CoreMode.EXACT, 1))
    assert w is not None and w.core == core and len(w.petals) == 21
    crossing = core | mask_of([1, 4])
    assert find_sunflower(members + [crossing], CorePredicate(22, CoreMode.EXACT, 1)) is None
    assert time.perf_counter() - start < 5


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


def erdos_gallai(n, s):
    """The most edges on [n] with no s pairwise disjoint ones (Erdős and
    Gallai, 1959): all of them below 2s - 1 vertices, else the larger of a
    clique on 2s - 1 vertices and the edges meeting a fixed (s-1)-set."""
    if n < 2 * s - 1:
        return comb(n, 2)
    return max(comb(2 * s - 1, 2), comb(s - 1, 2) + (s - 1) * (n - s + 1))


@pytest.mark.parametrize("n, s", [(n, s) for s in (2, 3) for n in range(2, 11)]
                         + [(n, 4) for n in range(2, 9)])
def test_max_free_pairs_meet_the_erdos_gallai_number(n, s):
    # an s-sunflower of edges with an empty core is a matching of size s,
    # so the optimum is a closed form and needs no oracle
    res = max_sunflower_free(Domain.binomial(n, 2).family,
                             CorePredicate(s, CoreMode.AT_MOST, 0), symmetry="full")
    assert res.certified
    assert res.optimum == erdos_gallai(n, s)


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


def test_four_petals_match_the_oracle_with_the_pinned_node_count():
    # s = 4 packs the other petals of each new core for two disjoint ones
    fam = binomial_family(6, 2)
    pred = CorePredicate(4, CoreMode.ANY)
    res = max_sunflower_free(fam, pred)
    assert (res.optimum, res.nodes, res.certified) == (9, 1205, True)
    assert res.optimum == oracle_max_sunflower_free(fam, pred)


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


def search_key(res):
    return res.optimum, res.witness.members, res.nodes, res.certified


@st.composite
def search_inputs(draw, max_members=16, max_s=5):
    """A family of up to ``max_members`` distinct sets on at most 8 elements
    and a predicate of up to ``max_s`` petals."""
    n = draw(st.integers(1, 8))
    sets = draw(st.sets(st.frozensets(st.integers(1, n)), max_size=max_members))
    fam = SetFamily.from_sets(n, [sorted(x) for x in sets])
    s = draw(st.integers(2, max_s))
    mode = draw(st.sampled_from(list(CoreMode)))
    bound = None if mode is CoreMode.ANY else draw(st.integers(0, 3))
    degenerate = mode is CoreMode.AT_MOST and draw(st.booleans())
    return fam, CorePredicate(s, mode, bound, degenerate)


# The bitset search must visit the nodes of the list-based search it
# replaced, in the same order: same optimum, witness, node count and flag.
@settings(max_examples=300, deadline=None)
@given(search_inputs(), st.sampled_from([0, 1, 2, 7, 40, 2_000_000]),
       st.sampled_from([None, "full"]))
def test_max_free_matches_the_reference_search(inputs, budget, symmetry):
    fam, pred = inputs
    got = max_sunflower_free(fam, pred, budget=budget, symmetry=symmetry)
    want = reference_max_sunflower_free(fam, pred, budget=budget, symmetry=symmetry)
    assert search_key(got) == search_key(want)


def test_malformed_search_arguments_are_refused():
    fam = binomial_family(6, 3)
    pred = CorePredicate(3, CoreMode.ANY)
    for bad in ({"budget": -5}, {"symmetry": "Full"}, {"symmetry": ""}):
        with pytest.raises(PreconditionError):
            max_sunflower_free(fam, pred, **bad)
    with pytest.raises(PreconditionError):
        phi_exact(3, 2, support_bound=6, budget=-1)
    with pytest.raises(PreconditionError):
        verify_instance(Domain.binomial(5, 2), 3, 2, budget=-1)


@pytest.mark.parametrize("n,k,pred,budget", [
    (6, 2, CorePredicate(2, CoreMode.AT_MOST, 0), 2_000_000),
    (7, 2, CorePredicate(3, CoreMode.EXACT, 1), 2_000_000),
    (8, 2, CorePredicate(3, CoreMode.AT_MOST, 0), 2_000_000),
    (6, 3, CorePredicate(3, CoreMode.AT_MOST, 1, True), 2_000_000),
    (6, 3, CorePredicate(4, CoreMode.ANY), 700),
    (7, 2, CorePredicate(5, CoreMode.ANY), 2_000_000),
])
def test_max_free_matches_the_reference_search_with_full_symmetry(n, k, pred, budget):
    fam = binomial_family(n, k)
    got = max_sunflower_free(fam, pred, budget=budget, symmetry="full")
    want = reference_max_sunflower_free(fam, pred, budget=budget, symmetry="full")
    assert search_key(got) == search_key(want)


@settings(max_examples=100, deadline=None)
@given(search_inputs())
def test_third_petals_are_the_sunflowers_through_a_pair(inputs):
    fam, pred = inputs
    members = fam.members
    admits = [pred.admits_core_size(c) for c in range(fam.ground.n + 1)]
    third = _third_petals(members, admits)
    for i, j in combinations(range(len(members)), 2):
        for a, b in ((i, j), (j, i)):
            want = 0
            for c, m in enumerate(members):
                if c not in (a, b):
                    core = is_sunflower([members[a], members[b], m])
                    if core is not None and admits[core.bit_count()]:
                        want |= 1 << c
            assert third(a, b) == want


def test_max_free_keeps_no_table_of_all_pairs():
    # 3,003 candidates: a table of every pair would hold about nine million
    # entries; a hundred nodes meet at most a few thousand pairs
    fam = binomial_family(15, 5)
    pred = CorePredicate(3, CoreMode.ANY)
    tracemalloc.start()
    try:
        res = max_sunflower_free(fam, pred, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.nodes, res.certified) == (101, False)
    assert peak < 4 * 2**20


def test_max_free_builds_a_two_petal_row_only_for_a_visited_member():
    # 3,003 candidates: a row of every member would hold about nine million
    # bits, over 1.1 MB; a hundred nodes build at most a hundred rows
    fam = binomial_family(15, 5)
    pred = CorePredicate(2, CoreMode.AT_MOST, 1)
    tracemalloc.start()
    try:
        res = max_sunflower_free(fam, pred, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.nodes, res.certified) == (101, False)
    assert peak < 2**20


# The witness contract: a certified search returns the lexicographically
# least optimal subfamily in member order, whatever it prunes on the way.
@settings(max_examples=150, deadline=None)
@given(search_inputs(max_members=14, max_s=4))
def test_a_certified_witness_is_the_least_optimal_family(inputs):
    fam, pred = inputs
    res = max_sunflower_free(fam, pred)
    assert res.certified
    assert res.witness.members == least_optimal_family(fam, pred).members


def core_shapes(k):
    """Every (mode, bound, degenerate) of a predicate whose bound is below k."""
    return ([(CoreMode.ANY, None, False)]
            + [(CoreMode.AT_MOST, b, d) for b in range(k) for d in (False, True)]
            + [(CoreMode.EXACT, b, False) for b in range(k)])


SMALL_BINOMIAL_SEARCHES = [
    (n, k, CorePredicate(s, *shape), symmetry)
    for n in range(1, 13) for k in range(1, n + 1) if comb(n, k) <= 12
    for s in (2, 3, 4) for shape in core_shapes(k) for symmetry in (None, "full")
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_BINOMIAL_SEARCHES))
def test_a_certified_binomial_witness_is_the_least_optimal_family(case):
    n, k, pred, symmetry = case
    fam = binomial_family(n, k)
    res = max_sunflower_free(fam, pred, symmetry=symmetry)
    assert res.certified
    assert res.witness.members == least_optimal_family(fam, pred).members


def test_product_kernel_free():
    for s, t in [(2, 1), (3, 2), (4, 3), (4, 2), (3, 3), (3, 4), (5, 2), (6, 1), (2, 5)]:
        fam = product_kernel(s, t)
        pred = CorePredicate(s, CoreMode.ANY)
        assert len(fam) == (s - 1) ** t
        assert fam.uniformity == t
        assert family_is_free(fam, pred)
        if len(fam) <= 25:
            assert brute_force_find(fam, pred) is None


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


def test_a_search_deeper_than_the_depth_cap_is_refused():
    # every member holds 1, so no two are disjoint and all 1953 are free
    # together: the search would nest one frame per member
    F = SetFamily.from_sets(64, [[1, a, b] for a, b in combinations(range(2, 65), 2)])
    with pytest.raises(CapacityError):
        max_sunflower_free(F, CorePredicate(2, CoreMode.AT_MOST, 0))


def test_a_quadratic_s2_search_is_refused_within_10_s():
    # any two 10-subsets of [20] meet in at most 9 elements, so the optimum
    # is 1; without symmetry the root would try all 184,756 members, each
    # against every later one
    def expired(signum, frame):
        raise TimeoutError("the s = 2 search still ran after 10 s")

    F = Domain.binomial(20, 10).family
    saved = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    try:
        with pytest.raises(CapacityError) as exc:
            max_sunflower_free(F, CorePredicate(2, CoreMode.AT_MOST, 9))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)
    assert exc.value.details["members"] == 184_756


def test_the_s2_pair_guard_spares_full_symmetry_and_small_families():
    # binomial(15,7) has 6,435 members, over 20 million pairs, but with full
    # symmetry its root has one child; binomial(12,6) stays below the cap
    F = Domain.binomial(15, 7).family
    with pytest.raises(CapacityError):
        max_sunflower_free(F, CorePredicate(2, CoreMode.AT_MOST, 6))
    res = max_sunflower_free(F, CorePredicate(2, CoreMode.AT_MOST, 6), symmetry="full")
    assert (res.optimum, res.nodes, res.certified) == (1, 2, True)
    res = max_sunflower_free(Domain.binomial(12, 6).family, CorePredicate(2, CoreMode.AT_MOST, 5))
    assert (res.optimum, res.nodes, res.certified) == (1, 924, True)


def test_a_deep_search_certifies_whatever_the_interpreter_frame_limit():
    # the first 891 of the family above: free, and one level per member
    F = SetFamily.from_sets(64, [[1, a, b] for a, b in combinations(range(2, 65), 2)][:891])
    pred = CorePredicate(2, CoreMode.AT_MOST, 0)
    want = max_sunflower_free(F, pred)
    assert (want.optimum, want.certified) == (891, True)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        got = max_sunflower_free(F, pred)
    finally:
        sys.setrecursionlimit(saved)
    assert search_key(got) == search_key(want)


def test_phi_capacity_gate():
    with pytest.raises(CapacityError):
        phi_exact(3, 4, support_bound=16)


def test_an_oversized_phi_universe_is_refused_at_once():
    # C(64, 4) = 635,376 four-sets of the support, past the member cap
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        phi_exact(2, 4, support_bound=64)
    assert time.perf_counter() - start < 1
