"""Exact packing: the largest pairwise-disjoint subcollection of masks.

The sunflower machinery packs petals with ``max_disjoint``, an exhaustive
branch and bound under a node cap.  ``find_packing`` first asks
``family.hitting_set``, the one hitting-set search, whether p - 1 elements
meet every mask; then no p masks are disjoint and no packing search runs.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapacityError
from .family import canonical, hitting_set, member_index

_PACKING_CAP = 1_000_000  # search nodes one max_disjoint call may take


def max_disjoint(masks: Sequence[int], stop_at: int | None = None) -> list[int]:
    """A largest pairwise-disjoint subcollection of ``masks``.

    Returns the masks of one maximum packing (canonical search order, so the
    result is deterministic).  If ``stop_at`` is given, the search returns as
    soon as a packing of that size is found.

    Forward checking: each search node carries its candidates, the later
    masks disjoint from its packing, as a bitset of indices into the sorted
    masks.  A child's candidates are its parent's minus the masks that meet
    the new one, and a child that cannot beat the incumbent even with all of
    its candidates is not entered (it would return at once).  More than
    ``_PACKING_CAP`` nodes raise CapacityError.
    """
    ms = canonical(set(masks))
    goal = len(ms) + 1 if stop_at is None else stop_at
    index = member_index(ms)
    clash = []  # clash[i]: indices of the masks that meet ms[i]
    for m in ms:
        c = 0
        while m:
            low = m & -m
            c |= index[low]
            m ^= low
        clash.append(c)
    best: list[list[int]] = [[]]
    nodes = 0

    def dfs(cands: int, cur: list[int]) -> bool:
        """Extend ``cur``; True once a packing of size ``goal`` is found."""
        nonlocal nodes
        nodes += 1
        if nodes > _PACKING_CAP:
            raise CapacityError("disjoint packing search capped", cap=_PACKING_CAP)
        if len(cur) > len(best[0]):
            best[0] = list(cur)
        if len(best[0]) >= goal:
            return True
        while cands:
            low = cands & -cands
            cands ^= low
            j = low.bit_length() - 1
            child = cands & ~clash[j]
            if len(cur) + 1 + child.bit_count() > len(best[0]):
                cur.append(ms[j])
                found = dfs(child, cur)
                cur.pop()
                if found:
                    return True
        return False

    dfs((1 << len(ms)) - 1, [])
    return best[0]


def find_packing(masks: Sequence[int], p: int) -> list[int] | None:
    """``p`` pairwise-disjoint masks from ``masks``, or None if there are none.

    The matching number is at most the transversal number, so when at most
    p - 1 elements meet every mask (``hitting_set``, with a budget of one
    node per mask) there is no such packing and no search runs.  Otherwise
    the answer is that of ``max_disjoint(masks, stop_at=p)``: the same p
    masks in the same order.
    """
    if hitting_set(masks, p - 1, [len(masks)]) is not None:
        return None
    packed = max_disjoint(masks, stop_at=p)
    return packed if len(packed) >= p else None
