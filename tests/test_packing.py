"""max_disjoint against the plain rescanning DFS and a brute-force maximum;
the transversal pre-check and find_packing against brute force and
max_disjoint."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sforge import packing
from sforge.errors import CapacityError
from sforge.family import hitting_set
from sforge.packing import find_packing, max_disjoint
from support import brute_force_transversal, reference_max_disjoint

masks8 = st.lists(st.integers(0, 255), max_size=14)


def brute_force_max(masks) -> int:
    ms = sorted(set(masks))
    for size in range(len(ms), 0, -1):
        for combo in combinations(ms, size):
            if all(a & b == 0 for a, b in combinations(combo, 2)):
                return size
    return 0


def is_packing(ms) -> bool:
    return len(set(ms)) == len(ms) and all(a & b == 0 for a, b in combinations(ms, 2))


@settings(max_examples=300, deadline=None)
@given(masks8, st.one_of(st.none(), st.integers(0, 6)))
def test_same_list_as_reference(masks, stop_at):
    out = max_disjoint(masks, stop_at=stop_at)
    assert out == reference_max_disjoint(masks, stop_at=stop_at)
    assert is_packing(out)
    assert set(out) <= set(masks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 0b11, 0b101, 0b1100, 0b110000, 0b11000000]),
                max_size=14), st.one_of(st.none(), st.integers(0, 4)))
def test_duplicates_collapse(masks, stop_at):
    out = max_disjoint(masks, stop_at=stop_at)
    assert out == reference_max_disjoint(masks, stop_at=stop_at)
    assert out == max_disjoint(sorted(set(masks)), stop_at=stop_at)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=10))
def test_size_is_the_brute_force_maximum(masks):
    best = brute_force_max(masks)
    assert len(max_disjoint(masks)) == best


PAIRS = [0b0011, 0b0101, 0b1100, 0b1010, 0b0110, 0b110000]  # optimum 3


def test_stop_at_zero_returns_the_empty_packing():
    assert max_disjoint(PAIRS, stop_at=0) == []
    assert reference_max_disjoint(PAIRS, stop_at=0) == []


def test_stop_at_one_returns_the_first_mask():
    assert max_disjoint(PAIRS, stop_at=1) == [0b0011]


def test_stop_at_above_the_optimum_returns_a_maximum():
    full = max_disjoint(PAIRS)
    assert len(full) == 3
    for stop_at in (3, 4, 10):
        assert max_disjoint(PAIRS, stop_at=stop_at) == full


def test_empty_and_zero_masks():
    assert max_disjoint([]) == []
    assert max_disjoint([0, 0, 0b1]) == [0, 0b1]


def brute_force_hit(masks, h) -> bool:
    """Some set of at most h elements meets every mask."""
    tau = brute_force_transversal(masks)
    return tau is not None and tau <= h


def meets_all(masks, found, h) -> bool:
    return found.bit_count() <= h and all(m & found for m in masks)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=10), st.integers(-1, 5))
def test_transversal_test_is_the_brute_force_answer(masks, h):
    found = hitting_set(masks, h, [10**9])
    assert (found is not None) == brute_force_hit(masks, h)
    assert found is None or meets_all(masks, found, h)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=12), st.integers(0, 5), st.integers(0, 12))
def test_a_budgeted_yes_is_still_a_certificate(masks, h, budget):
    found = hitting_set(masks, h, [budget])
    if found is not None:
        assert brute_force_hit(masks, h)
        assert meets_all(masks, found, h)


def test_an_empty_mask_is_never_met():
    assert hitting_set([0], 3, [100]) is None
    assert hitting_set([0b1, 0b1, 0], 1, [100]) is None
    assert hitting_set([0b1, 0b11], 1, [100]) == 0b1
    # the empty mask and {1} are two disjoint masks
    assert find_packing([0, 0b1], 2) == [0, 0b1]


@settings(max_examples=400, deadline=None)
@given(masks8, st.integers(0, 6))
def test_find_packing_is_max_disjoint_at_the_threshold(masks, p):
    packed = max_disjoint(masks, stop_at=p)
    assert find_packing(masks, p) == (packed if len(packed) >= p else None)


@pytest.mark.parametrize("masks,p", [
    ([0b011, 0b101, 0b110], 3),  # a triangle: 2 elements meet all 3 edges
    ([0b0011, 0b0101, 0b1001, 0b0110], 3),  # a star through 1 plus {2, 3}: {1, 2}
    ([0b1, 0b11, 0b111], 2),  # nested masks, all through element 1
    ([], 1),
])
def test_a_small_transversal_answers_without_a_search(masks, p, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("max_disjoint ran")

    monkeypatch.setattr(packing, "max_disjoint", no_search)
    assert find_packing(masks, p) is None


def test_the_budget_bounds_a_deep_transversal_test():
    # 21 disjoint triples: no 20 elements meet them all, and the exact test
    # would branch 3 ways to depth 20 before saying so
    blocks = [0b111 << (3 * i) for i in range(21)]
    start = time.perf_counter()
    assert hitting_set(blocks, 20, [len(blocks)]) is None
    assert find_packing(blocks, 21) == blocks
    assert find_packing(blocks + [0b1001], 22) is None
    assert time.perf_counter() - start < 5


# the edges of K_15: no 8 are disjoint, yet 14 vertices are needed to meet
# them all, so the search must rule out every way to extend a 7-matching
K15 = [(1 << a) | (1 << b) for a, b in combinations(range(15), 2)]


def test_the_node_budget_refuses_a_hopeless_packing(monkeypatch):
    monkeypatch.setattr(packing, "_PACKING_CAP", 10_000)
    for search in (lambda: max_disjoint(K15), lambda: find_packing(K15, 8)):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            search()
        assert time.perf_counter() - start < 1
