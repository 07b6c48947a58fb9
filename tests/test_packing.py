"""max_disjoint against the plain rescanning DFS and a brute-force maximum."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from sforge.packing import matching_number, max_disjoint
from support import reference_max_disjoint

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
    assert matching_number(masks) == best
    assert matching_number(masks, at_least=best) == best


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
