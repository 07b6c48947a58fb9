"""Sunflower detection and extremal sunflower-free search.

A sunflower with s petals is a collection of s pairwise-distinct sets whose
pairwise intersections all equal their common intersection (the core).  The
petals are the sets minus the core; an empty-core sunflower is simply s
pairwise-disjoint sets.  Core-size predicates select which sunflowers count
as violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .errors import CapacityError, PreconditionError
from .family import (
    GroundSet,
    SetFamily,
    canon_key,
    elements_of,
)
from .packing import max_disjoint


class CoreMode(enum.Enum):
    EXACT = "exact"
    AT_MOST = "at_most"
    ANY = "any"


@dataclass(frozen=True)
class CorePredicate:
    """Which s-petal sunflowers are forbidden.

    ``bound`` is the core-size bound for EXACT / AT_MOST modes and ignored
    for ANY.  ``degenerate_small_sets`` extends AT_MOST: any single member of
    size <= bound then counts as a violation on its own (the reading where a
    tiny set yields a sunflower of s copies of itself).
    """

    s: int
    mode: CoreMode = CoreMode.ANY
    bound: int | None = None
    degenerate_small_sets: bool = False

    def __post_init__(self):
        if self.s < 2:
            raise PreconditionError("a sunflower needs at least 2 petals")
        if self.mode is not CoreMode.ANY:
            if self.bound is None or self.bound < 0:
                raise PreconditionError("core-size bound must be a nonnegative int")
        if self.degenerate_small_sets and self.mode is CoreMode.EXACT:
            raise PreconditionError(
                "degenerate small-set convention applies to AT_MOST predicates"
            )

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


@dataclass(frozen=True)
class SunflowerWitness:
    """s member sets forming a sunflower with the given core."""

    petals: tuple[int, ...]
    core: int

    def __post_init__(self):
        ps = self.petals
        if len(ps) < 2 or len(set(ps)) != len(ps):
            raise PreconditionError("witness petals must be at least 2 distinct sets")
        for a, b in combinations(ps, 2):
            if a & b != self.core:
                raise PreconditionError(
                    "witness pairwise intersections must equal the core",
                    pair=(elements_of(a), elements_of(b)),
                )
        object.__setattr__(self, "petals", tuple(sorted(ps, key=canon_key)))

    @property
    def s(self) -> int:
        return len(self.petals)

    def as_report(self) -> dict:
        return {
            "core": list(elements_of(self.core)),
            "sets": [list(elements_of(p)) for p in self.petals],
        }


@dataclass(frozen=True)
class DegenerateWitness:
    """A member of size <= t-1, read as s copies of itself."""

    member: int
    s: int

    def as_report(self) -> dict:
        return {"small_set": list(elements_of(self.member)), "copies": self.s}


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

    Candidate cores are exactly the pairwise intersections of members (every
    sunflower's core is the intersection of any two of its sets), filtered by
    the predicate; for each candidate core the petals above it are packed for
    s pairwise-disjoint ones.
    """
    members = list(F.members) if isinstance(F, SetFamily) else sorted(set(F), key=canon_key)
    if pred.degenerate_small_sets:
        for m in members:
            if m.bit_count() <= pred.bound:  # type: ignore[operator]
                return DegenerateWitness(m, pred.s)
    if len(members) < pred.s:
        return None
    cores = set()
    for a, b in combinations(members, 2):
        c = a & b
        if pred.admits_core_size(c.bit_count()):
            cores.add(c)
    for core in sorted(cores, key=canon_key):
        above = [m for m in members if m & core == core]
        if len(above) < pred.s:
            continue
        petals = [m & ~core for m in above]
        packed = max_disjoint(petals, stop_at=pred.s)
        if len(packed) >= pred.s:
            chosen = set(packed[: pred.s])
            sets = []
            for m in above:
                if (m & ~core) in chosen:
                    sets.append(m)
                    chosen.discard(m & ~core)
            return SunflowerWitness(tuple(sets), core)
    return None


def family_is_free(F: SetFamily | Sequence[int], pred: CorePredicate) -> bool:
    return find_sunflower(F, pred) is None


def brute_force_find(
    F: SetFamily | Sequence[int], pred: CorePredicate
) -> SunflowerWitness | DegenerateWitness | None:
    """Oracle: test every s-subset directly. Only for families of <= 25 sets."""
    members = list(F.members) if isinstance(F, SetFamily) else sorted(set(F), key=canon_key)
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


@dataclass
class SearchResult:
    optimum: int
    witness: SetFamily
    nodes: int
    certified: bool
    notes: dict = field(default_factory=dict)

    def as_report(self) -> dict:
        rep = {
            "optimum": self.optimum,
            "witness": self.witness.as_sets(),
            "nodes": self.nodes,
            "certified": self.certified,
        }
        rep.update({k: v for k, v in sorted(self.notes.items())})
        return rep


def _survivors(
    fam: list[int], x: int, cands: list[tuple[int, int]], admits: list[bool], s: int
) -> list[tuple[int, int]]:
    """The ``(index, mask)`` pairs of ``cands`` whose mask c keeps fam + x + c free.

    Both fam + x and fam + c are free, so a forbidden sunflower in fam + x + c
    has x and c among its petals: its core is x & c, and its other s - 2
    petals are members f of fam with f & (x | c) == x & c whose petals
    f & ~core are pairwise disjoint.
    """
    out = []
    for j, c in cands:
        core = x & c
        if not admits[core.bit_count()]:
            out.append((j, c))
            continue
        if s == 2:
            continue
        union = x | c
        petals = [f & ~core for f in fam if f & union == core]
        if len(petals) < s - 2 or (s > 3 and len(max_disjoint(petals, stop_at=s - 2)) < s - 2):
            out.append((j, c))
    return out


def max_sunflower_free(
    candidates: SetFamily,
    pred: CorePredicate,
    budget: int = 2_000_000,
    symmetry: str | None = None,
) -> SearchResult:
    """Largest subfamily of ``candidates`` with no forbidden sunflower.

    Branch and bound over members in canonical order.  When ``symmetry`` is
    "full" (the candidate family is invariant under every relabeling of the
    ground set, e.g. all k-subsets of [n]), the search only visits families
    whose fresh elements appear as a contiguous prefix of unused labels; the
    canonical representative of every isomorphism class survives that
    pruning, so the optimum is preserved.

    Each node carries the later candidates c that keep its family free and,
    on adding x, filters them with one core per candidate, x & c: fam + x
    and fam + c are free, so any new forbidden sunflower has x and c as
    petals.  The bound counts raw indices, so the nodes and the witness are
    those of testing each candidate against the whole family.

    Exhausting ``budget`` search nodes downgrades the result to an
    uncertified incumbent rather than raising.
    """
    members = list(candidates.members)
    best_fam: list[list[int]] = [[]]
    state = {"nodes": 0, "certified": True}
    admits = [pred.admits_core_size(c) for c in range(candidates.ground.n + 1)]
    roots = list(enumerate(members))
    if pred.degenerate_small_sets:
        roots = [(j, m) for j, m in roots if m.bit_count() > pred.bound]  # type: ignore[operator]

    def dfs(start: int, fam: list[int], used_prefix: int, cands: list[tuple[int, int]]):
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["certified"] = False
            return
        if len(fam) > len(best_fam[0]):
            best_fam[0] = list(fam)
        if len(fam) + (len(members) - start) <= len(best_fam[0]):
            return
        for pos, (idx, m) in enumerate(cands):
            if not state["certified"]:
                return
            if len(fam) + (len(members) - idx) <= len(best_fam[0]):
                return
            new_prefix = used_prefix
            if symmetry == "full":
                fresh = m >> used_prefix
                if fresh & (fresh + 1):
                    continue  # fresh labels not a contiguous next block
                new_prefix = used_prefix + fresh.bit_length()
            rest = _survivors(fam, m, cands[pos + 1:], admits, pred.s)
            fam.append(m)
            dfs(idx + 1, fam, new_prefix, rest)
            fam.pop()

    dfs(0, [], 0, roots)
    witness = candidates.replace_members(best_fam[0])
    return SearchResult(
        optimum=len(best_fam[0]),
        witness=witness,
        nodes=state["nodes"],
        certified=state["certified"],
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

    Member (i_1, ..., i_t) picks label i_j from block j.  Verified free of
    s-petal sunflowers (any core) before returning.
    """
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1")
    b = s - 1
    n = b * t
    idx = [[j * b + i + 1 for i in range(b)] for j in range(t)]
    sets = []

    def build(j: int, cur: list[int]):
        if j == t:
            sets.append(list(cur))
            return
        for lab in idx[j]:
            cur.append(lab)
            build(j + 1, cur)
            cur.pop()

    build(0, [])
    fam = SetFamily.from_sets(max(n, 1), sets)
    wit = find_sunflower(fam, CorePredicate(s, CoreMode.ANY))
    if wit is not None:
        raise PreconditionError("product kernel construction is not sunflower free",
                               witness=wit.as_report())
    return fam


@dataclass
class PhiResult:
    s: int
    t: int
    support_bound: int
    value: int
    witness: SetFamily
    nodes: int
    certified: bool
    unconditional: bool

    def as_report(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "support_bound": self.support_bound,
            "value": self.value,
            "witness": self.witness.as_sets(),
            "nodes": self.nodes,
            "certified": self.certified,
            "unconditional": self.unconditional,
            "support_restricted": not self.unconditional,
        }


def phi_exact(s: int, t: int, support_bound: int, budget: int = 50_000_000) -> PhiResult:
    """Largest t-uniform family with no s-petal sunflower of any core.

    The search runs over all t-subsets of a support of ``support_bound``
    labels with full-symmetry pruning.  The answer is unconditional (valid
    over every support) when ``support_bound >= t * (value + 1)``: a larger
    family would span at most that many elements, so it would already fit.
    Otherwise the result is flagged support-restricted.
    """
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1")
    if support_bound < t:
        raise PreconditionError("support bound smaller than the uniformity")
    if t >= 4 and s > 2:
        # with two petals the answer is forced, so any t is cheap; beyond that
        # the certified search is only supported through t = 3
        raise CapacityError("exact kernel optima are supported for t <= 3 only")
    hard = t * _factorial(t) * (s - 1) ** t
    if hard > 4096:
        raise CapacityError("parameter range too large for certified search",
                            s=s, t=t)
    universe = SetFamily.from_sets(
        support_bound, [list(c) for c in combinations(range(1, support_bound + 1), t)]
    )
    res = max_sunflower_free(universe, CorePredicate(s, CoreMode.ANY),
                             budget=budget, symmetry="full")
    unconditional = res.certified and support_bound >= t * (res.optimum + 1)
    return PhiResult(
        s=s, t=t, support_bound=support_bound, value=res.optimum,
        witness=res.witness, nodes=res.nodes, certified=res.certified,
        unconditional=unconditional,
    )


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
