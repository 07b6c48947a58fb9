"""Bitmask set-family kernel.

A set over a ground universe of at most 64 elements is a plain int whose
bit i (0-based) stands for element i+1.  Families are immutable, duplicate
free, and stored sorted by (popcount, numeric value), so equality and
iteration order are canonical.  The empty set is a legal member.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, ParseError, PreconditionError

MAX_GROUND = 64
UPPER_CLOSURE_CAP = 24


def mask_of(elements: Iterable[int], n: int | None = None) -> int:
    """Bitmask for a collection of 1-based element labels."""
    m = 0
    for e in elements:
        if type(e) is not int or e < 1 or e > MAX_GROUND:
            raise ParseError(f"element {e!r} is not an integer in 1..{MAX_GROUND}")
        if n is not None and e > n:
            raise ParseError(f"element {e} outside ground set of size {n}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based element labels of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def canon_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bit_subsets(mask: int, h: int) -> Iterator[int]:
    """All subsets of ``mask`` with exactly ``h`` bits."""
    bits = []
    m = mask
    while m:
        low = m & -m
        bits.append(low)
        m ^= low
    for combo in combinations(bits, h):
        s = 0
        for b in combo:
            s |= b
        yield s


@dataclass(frozen=True)
class GroundSet:
    """Universe [n] = {1, ..., n} with optional display labels."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or not (1 <= self.n <= MAX_GROUND):
            raise CapacityError(f"ground set size must be in 1..{MAX_GROUND}, got {self.n!r}")
        if self.labels is not None and len(self.labels) != self.n:
            raise PreconditionError("labels length must equal n")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def label_of(self, element: int) -> str:
        if self.labels is not None:
            return self.labels[element - 1]
        return str(element)


@dataclass(frozen=True)
class SetFamily:
    """Immutable, canonically ordered family of subsets of a ground set."""

    ground: GroundSet
    members: tuple[int, ...]

    def __post_init__(self):
        full = self.ground.full_mask
        canon = tuple(sorted(set(self.members), key=canon_key))
        for m in canon:
            if not isinstance(m, int) or m < 0 or m & ~full:
                raise PreconditionError(
                    f"member {m!r} is not a subset of the ground set", member=m
                )
        object.__setattr__(self, "members", canon)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        g = GroundSet(n)
        return cls(g, tuple(mask_of(s, n) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    @property
    def _member_set(self) -> frozenset:
        # lazily cached; frozen dataclass so stash via object.__setattr__
        cached = self.__dict__.get("_ms")
        if cached is None:
            cached = frozenset(self.members)
            object.__setattr__(self, "_ms", cached)
        return cached

    @property
    def uniformity(self) -> int | None:
        """Common member size k, or None if empty or mixed sizes."""
        if not self.members:
            return None
        k = self.members[0].bit_count()
        return k if self.members[-1].bit_count() == k else None

    def support(self) -> int:
        s = 0
        for m in self.members:
            s |= m
        return s

    def replace_members(self, members: Iterable[int]) -> "SetFamily":
        return SetFamily(self.ground, tuple(members))

    def as_sets(self) -> list[list[int]]:
        return [list(elements_of(m)) for m in self.members]

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, elements_of(m))) + "}" for m in self.members[:8])
        more = "" if len(self.members) <= 8 else f", ... ({len(self.members)} total)"
        return f"SetFamily(n={self.ground.n}, [{body}{more}])"


def restrict(F: SetFamily, A: int, B: int) -> SetFamily:
    """Members whose trace on B is exactly A, with B stripped off.

    Requires A to be a subset of B; anything else is a contract violation,
    not an empty result.
    """
    if A & ~B:
        raise PreconditionError(
            "restriction requires A to be a subset of B",
            A=elements_of(A), B=elements_of(B),
        )
    return F.replace_members(m & ~B for m in F.members if m & B == A)


def link(F: SetFamily, S: int) -> SetFamily:
    """Members containing S, with S removed: restrict(F, S, S)."""
    return restrict(F, S, S)


def trace_cover(F: SetFamily, B: SetFamily) -> SetFamily:
    """Members of F that contain at least one member of B."""
    if B.ground.n != F.ground.n:
        raise PreconditionError("trace requires matching ground sets")
    out = []
    bms = B.members
    for m in F.members:
        for b in bms:
            if m & b == b:
                out.append(m)
                break
    return F.replace_members(out)


def family_minus(F: SetFamily, G: SetFamily) -> SetFamily:
    drop = G._member_set
    return F.replace_members(m for m in F.members if m not in drop)


def shadow(F: SetFamily, h: int) -> SetFamily:
    """All h-element subsets of members of F."""
    if not F.members:
        raise PreconditionError("shadow of an empty family is undefined")
    top = max(m.bit_count() for m in F.members)
    if not (0 <= h <= top):
        raise PreconditionError(f"shadow order {h} outside 0..{top}")
    out = set()
    for m in F.members:
        if m.bit_count() >= h:
            out.update(bit_subsets(m, h))
    return F.replace_members(out)


def shadow_upto(F: SetFamily, h: int) -> SetFamily:
    """All subsets of members of F with at most h elements."""
    if not F.members:
        raise PreconditionError("shadow of an empty family is undefined")
    if h < 0:
        raise PreconditionError("shadow order must be nonnegative")
    out = set()
    for m in F.members:
        for j in range(0, min(h, m.bit_count()) + 1):
            out.update(bit_subsets(m, j))
    return F.replace_members(out)


def join(F: SetFamily, B: SetFamily) -> SetFamily:
    """Pairwise unions {f | b}, deduplicated. Join with {0} is the identity."""
    if B.ground.n != F.ground.n:
        raise PreconditionError("join requires matching ground sets")
    return F.replace_members({f | b for f in F.members for b in B.members})


def upper_closure(F: SetFamily) -> SetFamily:
    """All supersets (within the ground set) of members of F, materialized.

    Materialization is capped at ground size 24; use
    :func:`upper_closure_contains` for membership queries on larger grounds.
    """
    n = F.ground.n
    if n > UPPER_CLOSURE_CAP:
        raise CapacityError(
            f"upper closure materialization capped at n={UPPER_CLOSURE_CAP}, got n={n}"
        )
    full = F.ground.full_mask
    seen = set(F.members)
    frontier = list(F.members)
    while frontier:
        nxt = []
        for m in frontier:
            rest = full & ~m
            while rest:
                low = rest & -rest
                rest ^= low
                cand = m | low
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return F.replace_members(seen)


def upper_closure_contains(F: SetFamily, mask: int) -> bool:
    """Membership query for the upper closure, any ground size."""
    for m in F.members:
        if mask & m == m:
            return True
    return False


def is_upward_closed(F: SetFamily) -> bool:
    full = F.ground.full_mask
    ms = F._member_set
    for m in F.members:
        rest = full & ~m
        while rest:
            low = rest & -rest
            rest ^= low
            if (m | low) not in ms:
                return False
    return True


def transversal_number(F: SetFamily) -> tuple[int, int]:
    """Exact minimum hitting-set size and a witness mask.

    Branch and bound: always branch on the elements of an uncovered member
    with the fewest elements, pruning with a greedy disjoint-member packing
    lower bound.  The family must be nonempty and must not contain the empty
    set (which no transversal can hit).
    """
    if not F.members:
        raise PreconditionError("transversal number of an empty family is undefined")
    if 0 in F._member_set:
        raise PreconditionError("family containing the empty set has no transversal")

    members = F.members
    best: list = [len(elements_of(F.support())), F.support()]

    def packing_bound(chosen: int) -> int:
        used = 0
        cnt = 0
        for m in members:
            if m & chosen:
                continue
            if m & used == 0:
                used |= m
                cnt += 1
        return cnt

    def dfs(chosen: int, size: int):
        # smallest uncovered member
        pivot = -1
        pivot_pc = 99
        for m in members:
            if m & chosen == 0:
                pc = m.bit_count()
                if pc < pivot_pc:
                    pivot, pivot_pc = m, pc
        if pivot == -1:
            if size < best[0]:
                best[0], best[1] = size, chosen
            return
        if size + packing_bound(chosen) >= best[0]:
            return
        rest = pivot
        while rest:
            low = rest & -rest
            rest ^= low
            dfs(chosen | low, size + 1)

    dfs(0, 0)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# file formats


def family_to_json_obj(F: SetFamily) -> dict:
    return {"n": F.ground.n, "sets": F.as_sets()}


def family_from_json_obj(obj) -> SetFamily:
    if not isinstance(obj, dict):
        raise ParseError("family JSON must be an object with keys 'n' and 'sets'")
    try:
        n = obj["n"]
        sets = obj["sets"]
    except KeyError as exc:
        raise ParseError(f"family JSON missing key {exc}")
    if type(n) is not int:
        raise ParseError("family JSON key 'n' must be an integer")
    if not isinstance(sets, list) or any(not isinstance(s, list) for s in sets):
        raise ParseError("family JSON key 'sets' must be a list of lists")
    if not (1 <= n <= MAX_GROUND):
        raise CapacityError(f"ground set size must be in 1..{MAX_GROUND}, got {n}")
    return SetFamily(GroundSet(n), tuple(mask_of(s, n) for s in sets))


def family_to_json(F: SetFamily) -> str:
    return json.dumps(family_to_json_obj(F), sort_keys=True, separators=(",", ":")) + "\n"


def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    return family_from_json_obj(obj)


def family_to_hex(F: SetFamily) -> str:
    """Text format: header line ``n=<int>``, then one lowercase hex mask per line."""
    lines = [f"n={F.ground.n}"]
    lines.extend(format(m, "x") for m in F.members)
    return "\n".join(lines) + "\n"


def family_from_hex(text: str) -> SetFamily:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ParseError("hex family file must start with a 'n=<int>' header line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ParseError(f"bad ground size in header {lines[0]!r}")
    if not (1 <= n <= MAX_GROUND):
        raise CapacityError(f"ground set size must be in 1..{MAX_GROUND}, got {n}")
    masks = []
    for ln in lines[1:]:
        try:
            masks.append(int(ln, 16))
        except ValueError:
            raise ParseError(f"bad hex mask line {ln!r}")
    fam = SetFamily(GroundSet(n), tuple(masks))
    return fam


def load_family(source: str) -> SetFamily:
    """A family from a file path, inline JSON (text starting with ``{``) or
    ``-`` for stdin; the content is JSON or the hex mask format."""
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read family: {exc}")
    if text.lstrip().startswith("{"):
        return family_from_json(text)
    return family_from_hex(text)
