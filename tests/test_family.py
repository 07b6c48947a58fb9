import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from sforge import family
from sforge.errors import CapacityError, ParseError, PreconditionError
from sforge.family import (
    GroundSet,
    SetFamily,
    bit_subsets,
    canon_key,
    canonical,
    elements_of,
    family_from_hex,
    family_from_json,
    family_minus,
    family_to_hex,
    family_to_json_obj,
    hitting_set,
    is_upward_closed,
    mask_of,
    restrict,
    shadow,
    trace_cover,
    transversal_number,
    upper_closure,
)

from support import brute_force_transversal, reference_trace_cover, reference_transversal_number


def binomial_family(n, k):
    return SetFamily.from_sets(n, [list(c) for c in combinations(range(1, n + 1), k)])


def test_mask_roundtrip():
    assert mask_of([1, 3, 6]) == 0b100101
    assert elements_of(0b100101) == (1, 3, 6)
    assert mask_of([]) == 0


def test_members_canonical_order_and_dedup():
    f = SetFamily.from_sets(5, [[3], [1, 2], [3], [1], [2, 3]])
    assert f.members == (mask_of([1]), mask_of([3]), mask_of([1, 2]), mask_of([2, 3]))
    assert len(f) == 4


def test_member_outside_ground_rejected():
    with pytest.raises(ParseError):
        SetFamily.from_sets(3, [[4]])
    with pytest.raises(PreconditionError):
        SetFamily(GroundSet(3), (1 << 5,))


@pytest.mark.parametrize("bad", ["1", 1.0, None, True, False, -1], ids=repr)
def test_non_mask_member_rejected(bad):
    # validated before sorting: no AttributeError, and True is no {1}
    with pytest.raises(PreconditionError, match="not a subset"):
        SetFamily(GroundSet(3), (1, bad))


def test_ground_size_limits():
    with pytest.raises(CapacityError):
        GroundSet(0)
    with pytest.raises(CapacityError):
        GroundSet(65)
    GroundSet(64)


@pytest.mark.parametrize("bad", [True, 3.0], ids=repr)
def test_non_int_ground_size_rejected(bad):
    # GroundSet(True) was once the ground set [1]
    with pytest.raises(CapacityError, match="ground set size"):
        GroundSet(bad)


def test_empty_set_is_legal_member():
    f = SetFamily.from_sets(4, [[], [1]])
    assert 0 in f.members
    assert f.uniformity is None


def test_uniformity():
    assert binomial_family(5, 2).uniformity == 2
    assert SetFamily.from_sets(4, []).uniformity is None


def test_restrict_star_example():
    # members of C([4],2) through point 1, link = three singletons
    f = binomial_family(4, 2)
    got = restrict(f, mask_of([1]), mask_of([1]))
    assert got.members == (mask_of([2]), mask_of([3]), mask_of([4]))


def test_restrict_requires_subset():
    f = binomial_family(4, 2)
    with pytest.raises(PreconditionError):
        restrict(f, mask_of([1]), mask_of([2]))


def test_restrict_avoiding():
    f = binomial_family(4, 2)
    got = restrict(f, 0, mask_of([1]))
    assert got.members == tuple(
        mask_of(c) for c in ([2, 3], [2, 4], [3, 4])
    )


def test_trace_cover_example():
    f = binomial_family(4, 2)
    b = SetFamily.from_sets(4, [[1], [2]])
    got = trace_cover(f, b)
    assert len(got) == 5  # every pair except {3,4}
    assert mask_of([3, 4]) not in got.members


def test_trace_cover_union_invariant():
    f = binomial_family(6, 3)
    b1 = SetFamily.from_sets(6, [[1, 2]])
    b2 = SetFamily.from_sets(6, [[5]])
    both = SetFamily.from_sets(6, [[1, 2], [5]])
    lhs = set(trace_cover(f, both).members)
    rhs = set(trace_cover(f, b1).members) | set(trace_cover(f, b2).members)
    assert lhs == rhs


@st.composite
def mixed_cover_inputs(draw):
    """F of members up to size w < n, B of members with sizes drawn from 0..n."""
    n = draw(st.integers(2, 8))
    w = draw(st.integers(1, n - 1))
    masks = range(1 << n)
    F = draw(st.lists(st.sampled_from([m for m in masks if m.bit_count() <= w]), min_size=1, max_size=40))
    sizes = draw(st.sets(st.integers(0, n), min_size=1))
    pool = [m for m in masks if m.bit_count() in sizes]
    B = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    return SetFamily(GroundSet(n), tuple(F)), SetFamily(GroundSet(n), tuple(B))


@pytest.mark.parametrize("lookup", [True, False], ids=["lookup", "scan"])
@settings(max_examples=150, deadline=None)
@given(mixed_cover_inputs())
def test_trace_cover_matches_the_pairwise_scan(lookup, inputs):
    F, B = inputs
    w = F.members[-1].bit_count()
    sizes = {b.bit_count() for b in B}
    # the side of trace_cover's cost rule this input falls on
    assume((sum(comb(w, h) for h in sizes) < len(B)) == lookup)
    assert trace_cover(F, B) == reference_trace_cover(F, B)


def test_trace_cover_empty_member_covers_everything():
    F = binomial_family(5, 2).replace_members(binomial_family(5, 2).members + (0,))
    B = SetFamily.from_sets(5, [[]] + [[1, e] for e in range(2, 6)])
    assert trace_cover(F, B) == F


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1) | st.integers(0, 255)))
def test_canonical_is_the_canon_key_sort(masks):
    assert canonical(masks) == sorted(masks, key=canon_key)


def test_shadow_count():
    f = binomial_family(5, 3)
    assert len(shadow(f, 2)) == 10
    assert shadow(f, 0).members == (0,)
    with pytest.raises(PreconditionError):
        shadow(f, 4)


def test_shadow_monotone_under_members():
    small = SetFamily.from_sets(6, [[1, 2, 3]])
    big = SetFamily.from_sets(6, [[1, 2, 3], [2, 3, 4], [4, 5, 6]])
    assert set(shadow(small, 2).members) <= set(shadow(big, 2).members)


def test_upper_closure_example():
    f = SetFamily.from_sets(3, [[1, 2], [3]])
    up = upper_closure(f)
    assert len(up) == 5  # {1,2},{3},{1,3},{2,3},{1,2,3}
    assert is_upward_closed(up)


def test_upper_closure_capacity():
    f = SetFamily.from_sets(25, [[1]])
    with pytest.raises(CapacityError):
        upper_closure(f)


def test_transversal_of_binomial():
    # hitting all pairs from [4] needs 3 points
    f = binomial_family(4, 2)
    size, wit = transversal_number(f)
    assert size == 3
    assert all(m & wit for m in f.members)


def test_transversal_errors():
    with pytest.raises(PreconditionError):
        transversal_number(SetFamily.from_sets(3, []))
    with pytest.raises(PreconditionError):
        transversal_number(SetFamily.from_sets(3, [[], [1]]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transversal_matches_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    n_sets = data.draw(st.integers(min_value=1, max_value=7))
    sets = data.draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=n),
            min_size=n_sets, max_size=n_sets,
        )
    )
    f = SetFamily.from_sets(n, [sorted(s) for s in sets])
    size, wit = transversal_number(f)
    assert size == brute_force_transversal(f.members)
    assert all(m & wit for m in f.members)
    assert wit.bit_count() == size


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_transversal_is_the_branch_and_bound_answer(data):
    # the same size and the same witness as the search it replaced
    n = data.draw(st.integers(min_value=2, max_value=12))
    sets = data.draw(st.lists(
        st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=n),
        min_size=1, max_size=7,
    ))
    f = SetFamily.from_sets(n, [sorted(s) for s in sets])
    assert transversal_number(f) == reference_transversal_number(f)


@pytest.mark.parametrize("n, k", [(4, 2), (6, 2), (7, 3), (9, 2), (6, 4), (5, 5)])
def test_transversal_of_binomial_is_the_branch_and_bound_answer(n, k):
    f = binomial_family(n, k)
    size, wit = transversal_number(f)
    assert size == n - k + 1
    assert (size, wit) == reference_transversal_number(f)


def test_transversal_budget_spans_every_depth(monkeypatch):
    # the edges of K_6 need 5 points, and depths 1..4 take their nodes from
    # the same budget: a cap of all five depths' nodes answers, one less raises
    f = binomial_family(6, 2)
    need = 0
    for h in range(1, 6):
        budget = [10**9]
        hitting_set(f.members, h, budget)
        need += 10**9 - budget[0]
    monkeypatch.setattr(family, "_TRANSVERSAL_CAP", need)
    assert transversal_number(f)[0] == 5
    monkeypatch.setattr(family, "_TRANSVERSAL_CAP", need - 1)
    with pytest.raises(CapacityError):
        transversal_number(f)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transversal_of_sparse_families_is_the_branch_and_bound_answer(data):
    # many small members on a larger ground set, where the depths below the
    # answer are many
    n = data.draw(st.integers(min_value=12, max_value=24))
    sets = data.draw(st.lists(
        st.sets(st.integers(min_value=1, max_value=n), min_size=2, max_size=3),
        min_size=1, max_size=24,
    ))
    f = SetFamily.from_sets(n, [sorted(s) for s in sets])
    assert transversal_number(f) == reference_transversal_number(f)


def _disjoint_blocks(count, size):
    return [list(range(size * i + 1, size * i + size + 1)) for i in range(count)]


@pytest.mark.parametrize("n, sets", [
    (36, _disjoint_blocks(12, 3)),
    (34, _disjoint_blocks(17, 2)),
    (64, _disjoint_blocks(16, 4)),
    (36, _disjoint_blocks(12, 3) + [[1, 4, 7], [2, 30], [9, 20, 31]]),
    # six disjoint 5-cycles: 3 points each, though no 3 edges of one are disjoint
    (30, [[5 * i + j + 1, 5 * i + (j + 1) % 5 + 1] for i in range(6) for j in range(5)]),
])
def test_transversal_of_many_disjoint_parts_is_the_branch_and_bound_answer(n, sets):
    # a depth below the size of a greedy disjoint subfamily is refused at its
    # root, so these answer inside the cap, as the branch and bound did
    f = SetFamily.from_sets(n, sets)
    assert transversal_number(f) == reference_transversal_number(f)


def test_hitting_set_refuses_more_disjoint_masks_than_its_depth_at_once():
    blocks = [0b111 << (3 * i) for i in range(12)]
    budget = [1]
    assert hitting_set(blocks, 11, budget) is None
    assert budget == [0]
    assert hitting_set(blocks, 12, [12]) == sum(0b1 << (3 * i) for i in range(12))


def test_hitting_set_takes_the_first_set_in_branching_order():
    # pivot {1,2} (the first smallest); branch 1 leaves {2,3}, whose
    # intersection gives 2: the answer is {1,2}, not {2} alone at depth 2
    masks = [0b011, 0b110]
    assert hitting_set(masks, 2, [100]) == 0b011
    assert hitting_set(masks, 1, [100]) == 0b010
    assert hitting_set([], 0, [0]) == 0
    assert hitting_set([], -1, [100]) is None
    assert hitting_set([0b1], 0, [100]) is None


def test_hitting_set_shares_its_budget_and_then_answers_none():
    budget = [2]
    assert hitting_set([0b01, 0b10], 2, budget) == 0b11  # two nodes
    assert budget == [0]
    assert hitting_set([0b01, 0b10], 2, budget) is None
    assert budget[0] < 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restrict_composition(data):
    n = 8
    f = binomial_family(n, 3)
    b = data.draw(st.sets(st.integers(min_value=1, max_value=n), max_size=3))
    bprime = data.draw(
        st.sets(st.integers(min_value=1, max_value=n), max_size=3).filter(
            lambda x: not (x & b)
        )
    )
    a = data.draw(st.sets(st.sampled_from(sorted(b)) if b else st.nothing(), max_size=3)) if b else set()
    ap = data.draw(st.sets(st.sampled_from(sorted(bprime)) if bprime else st.nothing(), max_size=3)) if bprime else set()
    A, B = mask_of(a), mask_of(b)
    A2, B2 = mask_of(ap), mask_of(bprime)
    lhs = restrict(restrict(f, A, B), A2, B2)
    rhs = restrict(f, A | A2, B | B2)
    assert lhs.members == rhs.members


def test_restrict_partition_count():
    # |F| splits into members through x and members avoiding x
    f = binomial_family(7, 3)
    x = mask_of([4])
    assert len(f) == len(restrict(f, x, x)) + len(restrict(f, 0, x))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_restrict_partition_random_point(x):
    f = binomial_family(6, 2)
    xm = mask_of([x])
    assert len(f) == len(restrict(f, xm, xm)) + len(restrict(f, 0, xm))


def test_submask_and_subset_helpers():
    assert sorted(bit_subsets(0b111, 2)) == [3, 5, 6]


def test_json_roundtrip():
    f = SetFamily.from_sets(6, [[1, 2], [5], []])
    text = json.dumps(family_to_json_obj(f))
    obj = json.loads(text)
    assert obj["n"] == 6
    g = family_from_json(text)
    assert g.members == f.members and g.ground.n == 6


def test_json_errors():
    with pytest.raises(ParseError):
        family_from_json("not json")
    with pytest.raises(ParseError):
        family_from_json(json.dumps({"n": 4}))
    with pytest.raises(ParseError):
        family_from_json(json.dumps({"n": "4", "sets": []}))
    with pytest.raises(ParseError):
        family_from_json(json.dumps({"n": True, "sets": []}))
    with pytest.raises(ParseError):
        family_from_json(json.dumps({"n": 5, "sets": [[1, 2], [1, True]]}))
    with pytest.raises(CapacityError):
        family_from_json(json.dumps({"n": 100, "sets": []}))


def test_hex_roundtrip():
    f = SetFamily.from_sets(10, [[1, 10], [2, 3, 4]])
    text = family_to_hex(f)
    lines = text.strip().split("\n")
    assert lines[0] == "n=10"
    g = family_from_hex(text)
    assert g.members == f.members
    # bit i (0-based) stands for element i+1
    assert int(lines[1], 16) == mask_of([1, 10])


def test_hex_errors():
    with pytest.raises(ParseError):
        family_from_hex("3\nff")
    with pytest.raises(ParseError):
        family_from_hex("n=4\nzz")


def test_family_minus():
    f = binomial_family(4, 2)
    g = SetFamily.from_sets(4, [[1, 2], [3, 4]])
    assert len(family_minus(f, g)) == 4


def test_shadow_refuses_a_member_with_too_many_h_subsets_at_once(monkeypatch):
    monkeypatch.setattr(family, "MEMBER_CAP", 10)
    assert len(shadow(SetFamily.from_sets(6, [range(1, 6)]), 2)) == 10  # C(5, 2)
    with pytest.raises(CapacityError, match="shadow too large") as exc:
        shadow(SetFamily.from_sets(6, [[1], range(1, 7)]), 2)  # C(6, 2) = 15
    assert exc.value.details == {"widest": 6, "depth": 2, "cap": 10}


def test_shadow_stops_when_the_union_passes_the_cap(monkeypatch):
    monkeypatch.setattr(family, "MEMBER_CAP", 10)
    pairs = [[2 * i + 1, 2 * i + 2] for i in range(11)]
    assert len(shadow(SetFamily.from_sets(22, pairs[:10]), 2)) == 10
    with pytest.raises(CapacityError, match="shadow too large") as exc:
        shadow(SetFamily.from_sets(22, pairs), 2)
    assert exc.value.details == {"depth": 2, "cap": 10}


def test_both_readers_refuse_the_ground_size_before_reading_a_member():
    message = "ground set size must be in 1..64, got 65"
    with pytest.raises(CapacityError, match=message):
        family_from_hex("n=65\nzz")
    with pytest.raises(CapacityError, match=message):
        family_from_json(json.dumps({"n": 65, "sets": [[1, True]]}))
    with pytest.raises(CapacityError, match="got 0"):
        family_from_hex("n=0\n")
