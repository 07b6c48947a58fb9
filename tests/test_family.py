import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sforge.errors import CapacityError, ParseError, PreconditionError
from sforge.family import (
    GroundSet,
    SetFamily,
    bit_subsets,
    elements_of,
    family_from_hex,
    family_from_json,
    family_minus,
    family_to_hex,
    family_to_json,
    is_upward_closed,
    join,
    link,
    mask_of,
    restrict,
    shadow,
    shadow_upto,
    submasks,
    trace_cover,
    transversal_number,
    upper_closure,
    upper_closure_contains,
)


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


def test_ground_size_limits():
    with pytest.raises(CapacityError):
        GroundSet(0)
    with pytest.raises(CapacityError):
        GroundSet(65)
    GroundSet(64)


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


def test_link_equals_restrict_diag():
    f = binomial_family(5, 3)
    s = mask_of([2, 4])
    assert link(f, s).members == restrict(f, s, s).members


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


def test_shadow_upto():
    f = SetFamily.from_sets(5, [[1, 2, 3]])
    got = shadow_upto(f, 2)
    assert len(got) == 1 + 3 + 3  # sizes 0, 1, 2


def test_join_identity_and_dedup():
    f = binomial_family(4, 2)
    empty = SetFamily.from_sets(4, [[]])
    assert join(f, empty).members == f.members
    g = SetFamily.from_sets(4, [[1], [2]])
    joined = join(SetFamily.from_sets(4, [[1, 2]]), g)
    assert joined.members == (mask_of([1, 2]),)


def test_upper_closure_example():
    f = SetFamily.from_sets(3, [[1, 2], [3]])
    up = upper_closure(f)
    assert len(up) == 5  # {1,2},{3},{1,3},{2,3},{1,2,3}
    assert upper_closure_contains(f, mask_of([1, 2, 3]))
    assert not upper_closure_contains(f, mask_of([1]))
    assert is_upward_closed(up)


def test_upper_closure_capacity():
    f = SetFamily.from_sets(25, [[1]])
    with pytest.raises(CapacityError):
        upper_closure(f)
    assert upper_closure_contains(f, mask_of([1, 20]))


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


def oracle_transversal(f):
    n = f.ground.n
    for size in range(0, n + 1):
        for combo in combinations(range(1, n + 1), size):
            t = mask_of(combo)
            if all(m & t for m in f.members):
                return size
    raise AssertionError


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
    assert size == oracle_transversal(f)
    assert all(m & wit for m in f.members)
    assert wit.bit_count() == size


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
    assert sorted(submasks(0b101)) == [0, 1, 4, 5]
    assert sorted(bit_subsets(0b111, 2)) == [3, 5, 6]


def test_json_roundtrip():
    f = SetFamily.from_sets(6, [[1, 2], [5], []])
    text = family_to_json(f)
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
