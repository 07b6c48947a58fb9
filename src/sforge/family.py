"""Bitmask set-family kernel.

A set over a ground universe of at most 64 elements is a plain int whose
bit i (0-based) stands for element i+1.  Families are immutable, duplicate
free, and stored sorted by (popcount, numeric value), so equality and
iteration order are canonical.  The empty set is a legal member.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property, lru_cache, reduce
from itertools import combinations, compress, count, product
from math import comb
from operator import and_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapacityError, ParseError, PreconditionError

MAX_GROUND = 64
MEMBER_CAP = 200_000  # members a built domain or construction may hold
UPPER_CLOSURE_CAP = 24
_TRANSVERSAL_CAP = 100_000  # search nodes of one transversal_number call
_ENUM_CAP = 8_000_000  # distinct subsets one count of submasks may hold


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


def canonical(masks: Iterable[int]) -> list[int]:
    """``masks`` in canonical order: by size, then by numeric value.

    The same list as ``sorted(masks, key=canon_key)``, from two sorts keyed
    in C: by value, then (stably) by popcount.
    """
    return sorted(sorted(masks), key=int.bit_count)


def bit_subsets(mask: int, h: int) -> Iterator[int]:
    """All subsets of ``mask`` with exactly ``h`` bits, in the
    lexicographic order of their element lists."""
    bits = []
    m = mask
    while m:
        low = m & -m
        bits.append(low)
        m ^= low
    return map(sum, combinations(bits, h))  # the bits are disjoint: sum is OR


def block_product(n: int, parts: Sequence[int]) -> Iterator[int]:
    """The sets with ``parts[j]`` elements in block j for every j, block j
    being bits j*n .. j*n + n - 1, in the lexicographic order of their
    element lists.

    One block of k gives the k-subsets of [n]; k blocks of one give [n]^k,
    position j taking value v as bit j*n + v - 1.
    """
    full = (1 << n) - 1
    picks = [list(bit_subsets(full << (j * n), p)) for j, p in enumerate(parts)]
    return map(sum, product(*picks))


class GroundSet(NamedTuple("GroundSet", [("n", int)])):
    """Universe [n] = {1, ..., n}."""

    __slots__ = ()

    def __new__(cls, n: int):
        if type(n) is not int or not (1 <= n <= MAX_GROUND):
            raise CapacityError(f"ground set size must be in 1..{MAX_GROUND}, got {n!r}")
        return tuple.__new__(cls, (n,))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


class SetFamily:
    """Immutable, canonically ordered family of subsets of a ground set,
    equal and hashed by ``(ground, members)``."""

    __slots__ = ("ground", "members", "__dict__")  # the dict keeps the cached _member_set
    ground: GroundSet
    members: tuple[int, ...]

    def __init__(self, ground: GroundSet, members: tuple[int, ...]):
        full = ground.full_mask
        for m in members:
            # an int mask only: a bool is no set, and a str or float no mask
            if type(m) is not int or m < 0 or m & ~full:
                raise PreconditionError(
                    f"member {m!r} is not a subset of the ground set", member=m
                )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", tuple(canonical(set(members))))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.members) == (other.ground, other.members)

    def __hash__(self) -> int:
        return hash((self.ground, self.members))

    def __reduce__(self):  # copies and pickles are built, and checked, anew
        return SetFamily, (self.ground, self.members)

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

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

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


def member_index(members: Sequence[int]) -> dict[int, int]:
    """Element bit -> bitset of the positions of the ``members`` holding it.

    The vertical layout of Zaki's Eclat: the members holding every element
    of a set are the AND of its elements' bitsets (``holders``).  Each
    bitset is filled as bytes and converted once, so building costs one
    step per member element whatever the family size.
    """
    rows: dict[int, bytearray] = {}
    width = (len(members) + 7) // 8
    for j, m in enumerate(members):
        byte, bit = j >> 3, 1 << (j & 7)
        while m:
            low = m & -m
            row = rows.get(low)
            if row is None:
                row = rows[low] = bytearray(width)
            row[byte] |= bit
            m ^= low
    return {e: int.from_bytes(row, "little") for e, row in rows.items()}


def _link_counts(masks: Iterable[int]) -> dict[int, int]:
    """How many of ``masks`` contain X, for every X below one of them.

    No cap is checked here: a caller refuses a mask with more than
    ``_ENUM_CAP`` submasks before it counts.

    Keys are in first-visit order: the masks in turn, each mask's submasks
    in descending numeric order (the mask first, 0 last).  A root domain's
    ``table`` is this dict, so it has the same order; a link domain's table
    is derived and need not.  The submasks are walked inline
    (x = (x - 1) & m), one dict read and write per visit.
    """
    counts: dict[int, int] = {}
    get = counts.get
    for m in masks:
        x = m
        while x:
            counts[x] = get(x, 0) + 1
            x = (x - 1) & m
        counts[0] = get(0, 0) + 1
    return counts


def holders(index: dict[int, int], b: int, everyone: int) -> int:
    """Positions of the members holding every element of ``b``, from a
    ``member_index``; ``everyone`` is the bitset of all positions."""
    while b and everyone:
        low = b & -b
        everyone &= index.get(low, 0)
        b ^= low
    return everyone


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def select(members: Sequence[int], positions: int) -> list[int]:
    """``members[j]`` for each set bit j of ``positions``, in order."""
    flags = format(positions, "b")[::-1].encode().translate(_BIT_BYTES)
    return list(compress(members, flags))


def trace_cover(
    F: SetFamily, B: SetFamily, index: dict[int, int] | None = None
) -> SetFamily:
    """Members of F that contain at least one member of B.

    ``index`` is F's ``member_index``; a Domain passes its cached one, and
    for a plain family it is built here.  The members above b are the AND
    of b's element bitsets, and the trace is the OR of those over B.
    """
    if B.ground.n != F.ground.n:
        raise PreconditionError("trace requires matching ground sets")
    if index is None:
        index = member_index(F.members)
    everyone = (1 << len(F.members)) - 1
    hit = 0
    for b in B.members:
        hit |= holders(index, b, everyone)
    return F.replace_members(select(F.members, hit))


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
    if comb(top, h) > MEMBER_CAP:
        raise CapacityError("shadow too large", widest=top, depth=h, cap=MEMBER_CAP)
    out = set()
    for m in F.members:
        if m.bit_count() >= h:
            out.update(bit_subsets(m, h))
            if len(out) > MEMBER_CAP:
                raise CapacityError("shadow too large", depth=h, cap=MEMBER_CAP)
    return F.replace_members(out)


def upper_closure(F: SetFamily) -> SetFamily:
    """All supersets (within the ground set) of members of F, materialized.

    Materialization is capped at ground size 24.
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


def hitting_set(masks: Sequence[int], h: int, budget: list[int]) -> int | None:
    """A set of at most ``h`` elements meeting every mask, or None.

    Some element of the first smallest mask not met yet is in any such set,
    so each node tries its elements in ascending order, to depth ``h``; at
    depth 1 it takes the lowest element of the intersection of the masks
    left.  A node whose masks left hold more than ``h`` pairwise disjoint
    ones, picked greedily, answers None at once.  An empty mask is never
    met; no masks are met by the empty set for h >= 0.  Each node takes one
    from ``budget[0]``, which calls may share; past zero a node answers
    None, so only a set is a certificate.
    """

    def hit(rest: Sequence[int], h: int) -> int | None:
        budget[0] -= 1
        if budget[0] < 0:
            return None
        if h == 1:
            meet = reduce(and_, rest)
            return meet & -meet or None
        used = disjoint = 0
        for m in rest:
            if not m & used:
                used |= m
                disjoint += 1
        if disjoint > h:
            return None
        smallest = min(rest, key=int.bit_count)
        while smallest:
            low = smallest & -smallest
            smallest ^= low
            left = [m for m in rest if not m & low]
            found = hit(left, h - 1) if left else 0
            if found is not None:
                return found | low
        return None

    if not masks:
        return 0 if h >= 0 else None
    return hit(masks, h) if h > 0 else None


def transversal_number(F: SetFamily) -> tuple[int, int]:
    """Exact minimum hitting-set size and a witness mask: ``hitting_set``
    at depth 1, 2, ... over one budget of ``_TRANSVERSAL_CAP`` nodes, whose
    first find is the first minimum transversal in branching order.  The
    family must be nonempty and free of the empty set (which no transversal
    can hit).  A depth that runs the budget out raises CapacityError.
    """
    if not F.members:
        raise PreconditionError("transversal number of an empty family is undefined")
    if 0 in F._member_set:
        raise PreconditionError("family containing the empty set has no transversal")
    budget = [_TRANSVERSAL_CAP]
    for h in count(1):  # ends by h = |support|, which the support meets
        found = hitting_set(F.members, h, budget)
        if budget[0] < 0:
            raise CapacityError("transversal search capped", cap=_TRANSVERSAL_CAP)
        if found is not None:
            return h, found


# ---------------------------------------------------------------------------
# reports


def element_lists(masks) -> list:
    """The element list of a mask, or of each mask of a sequence."""
    if type(masks) is int:
        return list(elements_of(masks))
    return [list(elements_of(m)) for m in masks]


_PLAIN = (type(None), bool, int, str)  # reported as they are


def report(value):
    """The canonical report of a record or of a value inside one.

    A class with its own ``as_report`` builds its report there.  A record
    (a ``NamedTuple`` or a dataclass) becomes a dict of its fields in field
    order.  None, bools, ints and strings stay as they are; a ``SetFamily``
    becomes its element lists, a record its report, a list or tuple a list
    and a dict keeps its keys, their values converted; anything else, a
    ``Fraction`` say, becomes its ``str``.  A record declares only its
    exceptions, as class attributes:

    * ``_report_keys``: field -> the key it is reported under;
    * ``_report_masks``: fields holding a mask, or a sequence of masks,
      reported as element lists;
    * ``_report_omit``: fields left out;
    * ``_report_optional``: fields, and derived keys, left out when None;
    * ``_report_derived``: key -> a function of the record giving that key's
      value, reported as it is, after the fields; a field reported under
      the same key gives way to it.
    """
    cls = type(value)
    if cls in _PLAIN:
        return value
    if cls is SetFamily:
        return value.as_sets()
    if cls is list or cls is tuple:
        return [report(v) for v in value]
    if cls is dict:
        return {k: report(v) for k, v in value.items()}
    own, steps, derived = _plan(cls)
    if own is not None:
        return own(value)
    if steps is None:
        return str(value)
    out = {}
    for f, key, mask, optional in steps:
        v = getattr(value, f)
        if v is None and optional:
            continue
        out[key] = element_lists(v) if mask else v if type(v) in _PLAIN else report(v)
    for key, fn, optional in derived:
        v = fn(value)
        if v is not None or not optional:
            out[key] = v
    return out


@lru_cache(maxsize=256)
def _plan(cls: type) -> tuple:
    """How ``report`` reports a ``cls``: (its own method or None, each
    reported field as (field, key, is a mask, left out when None) or None
    for a value reported by ``str``, each derived key as (key, function,
    left out when None))."""
    own = getattr(cls, "as_report", None)
    if own is not None:
        return own, None, ()
    fields = getattr(cls, "_fields", None) or getattr(cls, "__dataclass_fields__", None)
    if fields is None:
        return None, None, ()
    keys = getattr(cls, "_report_keys", {})
    masks = getattr(cls, "_report_masks", ())
    omit = getattr(cls, "_report_omit", ())
    optional = getattr(cls, "_report_optional", ())
    derived = getattr(cls, "_report_derived", {})
    steps = tuple((f, keys.get(f, f), f in masks, f in optional) for f in fields
                  if f not in omit and keys.get(f, f) not in derived)
    return None, steps, tuple((key, fn, key in optional) for key, fn in derived.items())


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
    return SetFamily(GroundSet(n), tuple(mask_of(s, n) for s in sets))


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
    ground = GroundSet(n)
    masks = []
    for ln in lines[1:]:
        try:
            masks.append(int(ln, 16))
        except ValueError:
            raise ParseError(f"bad hex mask line {ln!r}")
    return SetFamily(ground, tuple(masks))


def read_source(source, what: str) -> str:
    """The text of a file path (str or path-like), of inline JSON (a str
    starting with ``{``) or of stdin for ``-``; ``what`` names the input."""
    if source == "-":
        return sys.stdin.read()
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}")


def load_family(source: str) -> SetFamily:
    """A family from ``read_source``: JSON or the hex mask format."""
    text = read_source(source, "family")
    if text.lstrip().startswith("{"):
        return family_from_json(text)
    return family_from_hex(text)
