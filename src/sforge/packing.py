"""Exact packing primitives: disjoint-set matchings and system representatives.

These are the small search kernels the sunflower machinery leans on.  All
searches are exhaustive branch and bound.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError
from .family import SetFamily, canon_key


def max_disjoint(masks: Sequence[int], stop_at: int | None = None) -> list[int]:
    """A largest pairwise-disjoint subcollection of ``masks``.

    Returns the masks of one maximum packing (canonical search order, so the
    result is deterministic).  If ``stop_at`` is given, the search returns as
    soon as a packing of that size is found.
    """
    ms = sorted(set(masks), key=canon_key)
    best: list[list[int]] = [[]]

    def dfs(idx: int, used: int, cur: list[int]):
        if len(cur) > len(best[0]):
            best[0] = list(cur)
        if stop_at is not None and len(best[0]) >= stop_at:
            return
        remaining = 0
        for j in range(idx, len(ms)):
            if ms[j] & used == 0:
                remaining += 1
        if len(cur) + remaining <= len(best[0]):
            return
        for j in range(idx, len(ms)):
            m = ms[j]
            if m & used == 0:
                cur.append(m)
                dfs(j + 1, used | m, cur)
                cur.pop()
                if stop_at is not None and len(best[0]) >= stop_at:
                    return
    dfs(0, 0, [])
    return best[0]


def matching_number(masks: Sequence[int], at_least: int | None = None) -> int:
    """Size of the largest pairwise-disjoint subcollection.

    With ``at_least`` the search stops early once that size is reached, which
    is all a threshold test needs.
    """
    return len(max_disjoint(masks, stop_at=at_least))


def find_disjoint_representatives(
    groups: Sequence[Sequence[int]],
    forbidden: int = 0,
) -> list[int] | None:
    """One mask per group, pairwise disjoint and avoiding ``forbidden``.

    Exhaustive search, most-constrained group first, so a ``None`` answer is
    an exact certificate of absence; any returned list is verified before
    return.
    """
    if not groups:
        return []
    cleaned = []
    for g in groups:
        opts = sorted({m for m in g if m & forbidden == 0}, key=canon_key)
        if not opts:
            return None
        cleaned.append(opts)

    s = len(cleaned)
    order = sorted(range(s), key=lambda i: len(cleaned[i]))
    chosen: list[int | None] = [None] * s

    def dfs(pos: int, used: int) -> bool:
        if pos == s:
            return True
        gi = order[pos]
        for m in cleaned[gi]:
            if m & used == 0:
                chosen[gi] = m
                if dfs(pos + 1, used | m):
                    return True
                chosen[gi] = None
        return False

    if dfs(0, 0):
        out = [m for m in chosen if m is not None]
        used = 0
        for m in out:
            if m & used or m & forbidden:
                raise PreconditionError("internal: representative check failed")
            used |= m
        return [chosen[i] for i in range(s)]  # type: ignore[misc]
    return None
