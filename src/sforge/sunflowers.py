"""Sunflower detection and extremal sunflower-free search.

A sunflower with s petals is a collection of s pairwise-distinct sets whose
pairwise intersections all equal their common intersection (the core).  The
petals are the sets minus the core; an empty-core sunflower is simply s
pairwise-disjoint sets.  Core-size predicates select which sunflowers count
as violations.
"""

from __future__ import annotations

import enum
from itertools import combinations
from math import comb, factorial
from typing import NamedTuple, Sequence

from .errors import CapacityError, PreconditionError
from .family import (
    MEMBER_CAP,
    GroundSet,
    SetFamily,
    bit_subsets,
    block_product,
    canonical,
    element_lists,
    elements_of,
    holders,
    member_index,
)
from .packing import find_packing


class CoreMode(enum.Enum):
    EXACT = "exact"
    AT_MOST = "at_most"
    ANY = "any"


class _PredicateFields(NamedTuple):
    s: int
    mode: CoreMode = CoreMode.ANY
    bound: int | None = None
    degenerate_small_sets: bool = False


class CorePredicate(_PredicateFields):
    """Which s-petal sunflowers are forbidden.

    ``bound`` is the core-size bound for EXACT / AT_MOST modes and ignored
    for ANY.  ``degenerate_small_sets`` extends AT_MOST: any single member of
    size <= bound then counts as a violation on its own (the reading where a
    tiny set yields a sunflower of s copies of itself).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.s < 2:
            raise PreconditionError("a sunflower needs at least 2 petals")
        if self.mode is not CoreMode.ANY:
            if self.bound is None or self.bound < 0:
                raise PreconditionError("core-size bound must be a nonnegative int")
        if self.degenerate_small_sets and self.mode is not CoreMode.AT_MOST:
            raise PreconditionError(
                "degenerate small-set convention applies to AT_MOST predicates"
            )
        return self

    def admits_core_size(self, c: int) -> bool:
        if self.mode is CoreMode.ANY:
            return True
        if self.mode is CoreMode.EXACT:
            return c == self.bound
        return c <= self.bound

    def describe(self) -> str:
        if self.mode is CoreMode.ANY:
            return f"{self.s} petals, any core"
        rel = "=" if self.mode is CoreMode.EXACT else "<="
        extra = ", degenerate small sets" if self.degenerate_small_sets else ""
        return f"{self.s} petals, core size {rel} {self.bound}{extra}"


class SunflowerWitness(NamedTuple("SunflowerWitness", [("petals", tuple), ("core", int)])):
    """s member sets forming a sunflower with the given core; the petals
    are kept in canonical order."""

    __slots__ = ()

    def __new__(cls, petals: tuple[int, ...], core: int):
        if len(petals) < 2 or len(set(petals)) != len(petals):
            raise PreconditionError("witness petals must be at least 2 distinct sets")
        for a, b in combinations(petals, 2):
            if a & b != core:
                raise PreconditionError(
                    "witness pairwise intersections must equal the core",
                    pair=(elements_of(a), elements_of(b)),
                )
        return tuple.__new__(cls, (tuple(canonical(petals)), core))

    # the core comes first: a witness report is an error detail, which
    # keeps its key order
    _report_masks = ("core",)
    _report_omit = ("petals",)
    _report_derived = {"sets": lambda w: element_lists(w.petals)}

    @property
    def s(self) -> int:
        return len(self.petals)


class DegenerateWitness(NamedTuple):
    """A member of size <= t-1, read as s copies of itself."""

    member: int
    s: int

    _report_keys = {"member": "small_set", "s": "copies"}
    _report_masks = ("member",)


def is_sunflower(sets: Sequence[int]) -> int | None:
    """The core if ``sets`` form a sunflower, else None. Duplicates are an error."""
    if len(sets) < 2:
        raise PreconditionError("a sunflower needs at least 2 sets")
    if len(set(sets)) != len(sets):
        raise PreconditionError("sunflower test on duplicate sets")
    core = sets[0]
    for m in sets[1:]:
        core &= m
    for a, b in combinations(sets, 2):
        if a & b != core:
            return None
    return core


def find_sunflower(
    F: SetFamily | Sequence[int], pred: CorePredicate
) -> SunflowerWitness | DegenerateWitness | None:
    """Search F for a forbidden sunflower; None certifies absence.

    Every sunflower's core is the intersection of any two of its sets, so
    the candidate cores are the pairwise intersections of members of an
    admissible size, in canonical order; for each, the petals above it are
    packed for s pairwise-disjoint ones (``find_packing``, which first asks
    whether fewer than s elements meet every petal: then there are not s
    disjoint ones, since the matching number is at most the transversal
    number).

    When the widest member has fewer admissible-size subsets than half the
    other members, the candidates are instead every such subset of two or
    more members, and the members above each are looked up in an index
    (``_core_index``) rather than scanned.  A subset K that is not the
    intersection of two members adds nothing: any two members above K meet
    outside it, so its petals hold no two disjoint ones, and the first
    witness is the same.
    """
    members = list(F.members) if isinstance(F, SetFamily) else canonical(set(F))
    s = pred.s
    if pred.degenerate_small_sets:
        for m in members:
            if m.bit_count() <= pred.bound:  # type: ignore[operator]
                return DegenerateWitness(m, s)
    if len(members) < s:
        return None
    width = members[-1].bit_count()  # canonical order ends with a widest member
    admits = [pred.admits_core_size(c) for c in range(width + 1)]
    sizes = [c for c in range(width + 1) if admits[c]]
    if len(members) * sum(comb(width, c) for c in sizes) < comb(len(members), 2):
        index = _core_index(members, sizes)
        cores = [K for K, above in index.items() if len(above) >= s]
    else:
        index = None
        cores = [c for c in {a & b for a, b in combinations(members, 2)} if admits[c.bit_count()]]
    for core in canonical(cores):
        above = index[core] if index is not None else [m for m in members if m & core == core]
        if len(above) < s:
            continue
        packed = find_packing([m & ~core for m in above], s)
        if packed is not None:
            return SunflowerWitness(tuple(p | core for p in packed), core)
    return None


def _core_index(members: Sequence[int], sizes: Sequence[int]) -> dict[int, list[int]]:
    """Each subset of a member with a size in ``sizes``, mapped to the
    members that contain it, in the order of ``members``."""
    # every member contains the empty set
    index: dict[int, list[int]] = {0: list(members)} if 0 in sizes else {}
    for c in filter(None, sizes):
        for m in members:
            for x in bit_subsets(m, c):
                index.setdefault(x, []).append(m)
    return index


def family_is_free(F: SetFamily | Sequence[int], pred: CorePredicate) -> bool:
    return find_sunflower(F, pred) is None


def brute_force_find(
    F: SetFamily | Sequence[int], pred: CorePredicate
) -> SunflowerWitness | DegenerateWitness | None:
    """Oracle: test every s-subset directly. Only for families of <= 25 sets."""
    members = list(F.members) if isinstance(F, SetFamily) else canonical(set(F))
    if len(members) > 25:
        raise CapacityError("brute-force sunflower oracle capped at 25 members")
    if pred.degenerate_small_sets:
        for m in members:
            if m.bit_count() <= pred.bound:  # type: ignore[operator]
                return DegenerateWitness(m, pred.s)
    for combo in combinations(members, pred.s):
        core = is_sunflower(list(combo))
        if core is not None and pred.admits_core_size(core.bit_count()):
            return SunflowerWitness(tuple(combo), core)
    return None


# ---------------------------------------------------------------------------
# extremal search

# the largest family the search holds: its third-petal rows grow with the
# square of the depth, and a wholly free domain would be walked to the end
_DEPTH_CAP = 900
# member pairs an s = 2 search without symmetry may test at its root, where
# every member is a child whose row tests it against every later one
_PAIR_CAP = 10_000_000
# flag bytes 0 and 1 to the digits of a base-2 numeral
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class SearchResult(NamedTuple):
    optimum: int
    witness: SetFamily
    nodes: int
    certified: bool


def _third_petals(members: Sequence[int], admits: list[bool]):
    """``third(i, j)``: the bitset of member indices c making x = members[i],
    f = members[j], c a sunflower with admissible core K = x & f, that is the
    members holding all of K and none of x ^ f, less x and f."""
    index = member_index(members)
    everyone = (1 << len(members)) - 1

    def third(i: int, j: int) -> int:
        x, f = members[i], members[j]
        if not admits[(x & f).bit_count()]:
            return 0
        got = holders(index, x & f, everyone & ~(1 << i | 1 << j))
        rest = x ^ f
        while rest:
            low = rest & -rest
            got &= ~index[low]
            rest ^= low
        return got

    return third


def max_sunflower_free(
    candidates: SetFamily,
    pred: CorePredicate,
    budget: int = 2_000_000,
    symmetry: str | None = None,
) -> SearchResult:
    """Largest subfamily of ``candidates`` with no forbidden sunflower.

    Branch and bound over members in canonical order.  With ``symmetry``
    "full" (candidates invariant under every relabeling of the ground set,
    e.g. all k-subsets of [n]) only families whose fresh elements are the
    next unused labels are visited; the canonical representative of every
    isomorphism class is among them, so the optimum is kept.

    Each node carries the later candidates that keep its family free, as a
    bitset of member indices.  On adding x, fam + x and fam + c are free, so
    a new forbidden sunflower has petals x, c and core x & c, and the child
    keeps the candidates outside a ``touched`` set read from x's row.  For
    s = 2 the row is the later members whose core with x is admissible,
    built the first time x enters a child, and all of it goes.  Otherwise each
    further petal f puts c in ``_third_petals``' set for (x, f), and
    touched is the OR of those over fam; for s = 3 it all goes, for s >= 4
    a touched c stays unless its petals f & ~core hold s - 2 disjoint ones
    (``find_packing``).  Bounding by raw indices keeps the nodes and witness
    of testing each c against all of fam; past ``budget`` nodes the result
    is uncertified.

    Members are tried lowest index first, a subtree is pruned only when it
    cannot beat the incumbent, and only a strictly larger family replaces
    it.  So a certified result's witness is the lexicographically least
    optimal subfamily in member order, with or without ``symmetry`` (moving
    a member's fresh labels down to the next unused ones gives a smaller
    isomorphic family).  An uncertified incumbent carries no such promise.
    The open frames are a list, not interpreter frames, and a family that
    grows past ``_DEPTH_CAP`` (900) members raises CapacityError, whoever
    the caller.  So does an s = 2 search without symmetry over more than
    ``_PAIR_CAP`` member pairs, before any node is visited.
    """
    if budget < 0:
        raise PreconditionError("search budget must be nonnegative", budget=budget)
    if symmetry not in (None, "full"):
        raise PreconditionError('symmetry must be None or "full"', symmetry=symmetry)
    members = list(candidates.members)
    M, s = len(members), pred.s
    if s == 2 and symmetry is None and M * (M - 1) // 2 > _PAIR_CAP:
        raise CapacityError("too many member pairs for an s = 2 search without symmetry",
                            members=M, cap=_PAIR_CAP)
    admits = [pred.admits_core_size(c) for c in range(candidates.ground.n + 1)]
    third = _third_petals(members, admits) if s > 2 else None
    # filled on first use: for s = 2 rows[i] is the bitset of the later members
    # whose core with members[i] is admissible, else [third(i, j) for j < i]
    rows: list = [None] * M
    roots = (1 << M) - 1
    if pred.degenerate_small_sets:
        roots = sum(1 << j for j, m in enumerate(members) if m.bit_count() > pred.bound)  # type: ignore[operator]
    full = symmetry == "full"

    # the current node's family, candidates and used label prefix; each open
    # ancestor is one (candidates, prefix) entry of ``stack``
    fam: list[int] = []
    stack: list[tuple[int, int]] = []
    nodes, depth, best, best_size = 1, 0, [], 0  # the root is the first node
    certified = nodes <= budget
    cands, prefix = (roots if certified else 0), 0
    while True:
        if cands:
            low = cands & -cands
            cands ^= low  # now the candidates above idx
            idx = low.bit_length() - 1
            if depth + M - idx > best_size:
                new_prefix = prefix
                if full:
                    fresh = members[idx] >> prefix
                    if fresh & (fresh + 1):
                        continue  # fresh labels not a contiguous next block
                    new_prefix = prefix + fresh.bit_length()
                rest = 0
                if cands:  # drop each candidate that would complete a forbidden sunflower
                    row = rows[idx]
                    if s == 2:
                        if row is None:
                            x = members[idx]  # a flag byte per later member, the last first
                            flags = bytes([admits[(x & m).bit_count()] for m in members[:idx:-1]])
                            row = rows[idx] = int(flags.translate(_DIGITS), 2) << idx + 1
                        touched = row
                    else:  # the OR of third(idx, j) over fam, inline: every node runs it
                        if row is None:
                            row = rows[idx] = [None] * idx
                        touched = 0
                        for j in fam:
                            got = row[j]
                            if got is None:
                                got = row[j] = third(idx, j)
                            touched |= got
                    rest = cands & ~touched
                    if s > 3:  # a touched c stays unless its petals pack s - 2 disjoint ones
                        x = members[idx]
                        for e in elements_of(touched & cands):  # member e - 1
                            core, union = x & members[e - 1], x | members[e - 1]
                            petals = [members[j] & ~core for j in fam if members[j] & union == core]
                            if len(petals) < s - 2 or find_packing(petals, s - 2) is None:
                                rest |= 1 << e - 1
                nodes += 1
                if nodes > budget:
                    certified = False
                    break
                stack.append((cands, prefix))
                fam.append(idx)
                cands, prefix, depth = rest, new_prefix, depth + 1
                if depth > best_size:
                    if depth > _DEPTH_CAP:
                        raise CapacityError("search depth past the cap",
                                            depth=depth, cap=_DEPTH_CAP)
                    best, best_size = list(fam), depth
                continue
        # out of candidates, or the bound fails: leave the frame
        if not stack:
            break
        cands, prefix = stack.pop()
        fam.pop()
        depth -= 1
    return SearchResult(
        optimum=best_size,
        witness=candidates.replace_members(members[j] for j in best),
        nodes=nodes,
        certified=certified,
    )


def oracle_max_sunflower_free(candidates: SetFamily, pred: CorePredicate) -> int:
    """Independent exhaustive optimum: depth-first over all free subfamilies.

    No bound pruning and no symmetry reductions; feasibility is tested with
    the direct every-s-subset sunflower check.  Deliberately simple so it can
    serve as an oracle for the branch-and-bound search.
    """
    members = list(candidates.members)

    def creates(fam: list[int], new: int) -> bool:
        if pred.degenerate_small_sets and new.bit_count() <= pred.bound:  # type: ignore[operator]
            return True
        if len(fam) + 1 < pred.s:
            return False
        for combo in combinations(fam, pred.s - 1):
            sets = list(combo) + [new]
            core = is_sunflower(sets)
            if core is not None and pred.admits_core_size(core.bit_count()):
                return True
        return False

    best = [0]

    def dfs(start: int, fam: list[int]):
        if len(fam) > best[0]:
            best[0] = len(fam)
        for idx in range(start, len(members)):
            m = members[idx]
            if not creates(fam, m):
                fam.append(m)
                dfs(idx + 1, fam)
                fam.pop()

    dfs(0, [])
    return best[0]


def product_kernel(s: int, t: int) -> SetFamily:
    """(s-1)^t t-uniform sets on t blocks of s-1 labels, sunflower free.

    Member (i_1, ..., i_t) picks label i_j from block j: the
    ``block_product`` of t blocks of one.  More than ``MEMBER_CAP`` members
    raise CapacityError before any is built.  It has no s-petal sunflower
    (any core): s distinct members differ in a block the core misses, where
    no two share a label (it would be in the core); a block has s - 1 labels.
    """
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1")
    b = s - 1
    ground = GroundSet(b * t)  # at most 64 bits, so b**t is small to compute
    if b**t > MEMBER_CAP:
        raise CapacityError("product kernel too large", size=b**t)
    return SetFamily(ground, tuple(block_product(b, (1,) * t)))


class PhiResult(NamedTuple):
    s: int
    t: int
    support_bound: int
    value: int
    witness: SetFamily
    nodes: int
    certified: bool
    unconditional: bool

    _report_derived = {"support_restricted": lambda r: not r.unconditional}


def phi_exact(s: int, t: int, support_bound: int, budget: int = 50_000_000) -> PhiResult:
    """Largest t-uniform family with no s-petal sunflower of any core.

    The search runs over all t-subsets of a support of ``support_bound``
    labels with full-symmetry pruning.  The answer is unconditional (valid
    over every support) when ``support_bound >= t * (value + 1)``: a larger
    family would span at most that many elements, so it would already fit.
    Otherwise the result is flagged support-restricted.  More than
    ``MEMBER_CAP`` t-subsets of the support are refused with
    ``CapacityError`` before any is built.
    """
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1")
    if support_bound < t:
        raise PreconditionError("support bound smaller than the uniformity")
    if t >= 4 and s > 2:
        # with two petals the answer is forced, so any t is cheap; beyond that
        # the certified search is only supported through t = 3
        raise CapacityError("exact kernel optima are supported for t <= 3 only")
    hard = t * factorial(t) * (s - 1) ** t
    if hard > 4096:
        raise CapacityError("parameter range too large for certified search", s=s, t=t)
    size = comb(support_bound, t)
    if size > MEMBER_CAP:
        raise CapacityError("too many t-subsets of the support to search", size=size)
    ground = GroundSet(support_bound)
    universe = SetFamily(ground, tuple(bit_subsets(ground.full_mask, t)))
    res = max_sunflower_free(universe, CorePredicate(s, CoreMode.ANY),
                             budget=budget, symmetry="full")
    unconditional = res.certified and support_bound >= t * (res.optimum + 1)
    return PhiResult(
        s=s, t=t, support_bound=support_bound, value=res.optimum,
        witness=res.witness, nodes=res.nodes, certified=res.certified,
        unconditional=unconditional,
    )

