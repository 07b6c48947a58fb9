"""Shared generators for the seeded test batteries.

Kept out of the package on purpose: these build instances with known-good
parameters for the certificate machinery, they are not part of the API.
"""

import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

from sforge.boolean import GlobalnessVerdict, HypercontractivityReport, biased_measure
from sforge.cli import main
from sforge.domains import Domain, HomogeneityVerdict, SpreadnessReport
from sforge.errors import CapacityError, PreconditionError
from sforge.exact import _LN2_HI, _LN2_LO, frac_log2_bracket
from sforge.family import (
    _TRANSVERSAL_CAP,
    GroundSet,
    SetFamily,
    bit_subsets,
    canon_key,
    elements_of,
)
from sforge.packing import find_packing
from sforge.pipelines import _REPORT_STEPS, _ROOT_BITS, BoundRecord, _iroot_ceil
from sforge.spread import SpreadVerdict, _block_seed, check_spread
from sforge.sunflowers import DegenerateWitness, SearchResult, SunflowerWitness, is_sunflower


@dataclass
class CliResult:
    """What one in-process ``sforge`` command line wrote, and its exit code."""

    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout_bytes.decode()

    stdout = output


def run_cli(args, stdin: str = "") -> CliResult:
    """Run ``sforge.cli.main`` on ``args`` in this process, with ``stdin``
    as standard input (read by a ``-`` argument), capturing stdout as bytes,
    stderr as text and the exit code."""
    out, err = io.BytesIO(), io.StringIO()
    text_out = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), text_out, err
    code = None
    try:
        main([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code
    finally:
        text_out.flush()
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def binom_family(n: int, k: int) -> SetFamily:
    masks = []
    for combo in combinations(range(n), k):
        m = 0
        for c in combo:
            m |= 1 << c
        masks.append(m)
    return SetFamily(GroundSet(n), tuple(masks))


def block_product_family(blocks) -> SetFamily:
    """One element per block; spread parameter = smallest block size."""
    n = max(max(b) for b in blocks)
    out = [0]
    for b in blocks:
        out = [m | (1 << (e - 1)) for m in out for e in b]
    return SetFamily.from_sets(n, [sorted_elements(m) for m in out])


def sorted_elements(mask: int):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def seeded_spread_instance(seed: int):
    """A deterministic (family, R, X) with F exactly R-spread and |X| < R."""
    rng = random.Random(9000 + seed)
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.choice([2, 3])
        n = rng.randrange(max(3 * k, 6), 15)
        F = binom_family(n, k)
        R = Fraction(n, k)
    elif kind == 1:
        w = rng.choice([2, 3])
        bs = rng.randrange(2, 5)
        elems = list(range(1, w * bs + 1))
        rng.shuffle(elems)
        blocks = [elems[i * bs : (i + 1) * bs] for i in range(w)]
        F = block_product_family(blocks)
        R = Fraction(bs)
    else:
        k = rng.choice([2, 3])
        n = rng.randrange(3 * k, 15)
        R = Fraction(n, 2 * k)
        pool = list(combinations(range(1, n + 1), k))
        m = max(2, (3 * len(pool)) // 4)
        F = None
        for _ in range(50):
            cand = SetFamily.from_sets(n, rng.sample(pool, m))
            if check_spread(cand, R).ok:
                F = cand
                break
        if F is None:
            F = binom_family(n, k)
            R = Fraction(n, k)
    n = F.ground.n
    xmax = min(int(ceil(R)) - 1, 3, n)
    xsize = rng.randrange(1, xmax + 1) if xmax >= 1 else 0
    X = 0
    for e in rng.sample(range(n), xsize):
        X |= 1 << e
    return F, R, X


def no_small_transversal(F: SetFamily, c: int) -> bool:
    """True when no c-subset of the support hits every member (so tau > c)."""
    if c < 0:
        return True
    members = F.members
    support = sorted_elements(F.support())
    if c >= len(members):
        return False  # one element per member is a transversal already
    for combo in combinations(support, c):
        T = 0
        for e in combo:
            T |= 1 << (e - 1)
        if all(m & T for m in members):
            return False
    return True


def planted_instance(seed: int):
    """A seeded covering instance (A, F, planted_cores, s, t, w).

    F is a thinned union of full stars inside a binomial domain.  With
    t = 2 the star cores form a triangle on three points, so any two
    members share a triangle point and no 3-sunflower has a core smaller
    than 2.  With t = 1 there are two star centers and any three members
    repeat one of them, so there is no 3-matching.  Every star keeps at
    least one member, and n is chosen large enough that the densest core
    clears the chain threshold r/2 by double counting, whatever the
    thinning did.
    """
    rng = random.Random(7700 + seed)
    s = 3
    t = 1 + seed % 2
    k = rng.choice([2, 3, 4])
    lo = {2: 8, 3: 12, 4: 16}[k] if t == 1 else {2: 7, 3: 11, 4: 14}[k]
    n = rng.randrange(lo, 17)
    pts = rng.sample(range(1, n + 1), 2 if t == 1 else 3)
    if t == 1:
        cores = [1 << (p - 1) for p in pts]
    else:
        a, b, c = pts
        bit = lambda e: 1 << (e - 1)
        cores = [bit(a) | bit(b), bit(a) | bit(c), bit(b) | bit(c)]
    A = Domain.binomial(n, k)
    chosen = set()
    for S in cores:
        star = [m for m in A.family.members if m & S == S]
        keep = [m for m in star if rng.random() < 0.85]
        if len(keep) > 55:
            keep = rng.sample(keep, 55)
        if not keep:
            keep = [star[0]]
        chosen.update(keep)
    F = A.family.replace_members(chosen)
    w = rng.choice([Fraction(2 * t + 1, 2)] * 3 + [Fraction(k)])
    return A, F, cores, s, t, w


def simplify_fixtures():
    """Five instances of at most ten sets whose layer traces can be worked
    by hand; oracle_simplify_trace re-executes them independently."""
    mk = SetFamily.from_sets
    return [
        (
            Domain.binomial(8, 3),
            mk(8, [[1, 2]] + [[1, 2, x] for x in range(3, 9)]),
            3,
            2,
        ),
        (Domain.binomial(8, 2), mk(8, [[1, 2], [3, 4], [1, 3]]), 3, 2),
        (
            Domain.binomial(8, 4),
            mk(8, [[1, 2], [1, 2, 3], [4, 5, 6], [2, 3, 4, 5]]),
            3,
            2,
        ),
        (Domain.binomial(8, 2), mk(8, [[1, x] for x in range(2, 7)]), 2, 1),
        (
            Domain.binomial(8, 4),
            mk(8, [[1, 2], [1, 2, 3], [1, 2, 4], [1, 2, 3, 4]]),
            2,
            2,
        ),
    ]


def oracle_simplify_trace(F: SetFamily, s: int, t: int):
    """Literal re-run of the layer loop with independently bracketed scales.

    The scale max(s*q, 2^14 s log2 t) is sandwiched between the integers
    max(s*q, 2^14 s) and max(s*q, 2^14 s t) for t >= 2 (and is exactly s*q
    for t = 1); both ends must agree on every compare, otherwise the
    fixture sits too close to the threshold to be hand-checkable.
    """
    q = max(m.bit_count() for m in F.members)
    if t == 1:
        a_lo = a_hi = s * q
    else:
        a_lo = max(s * q, 2 ** 14 * s)
        a_hi = max(s * q, 2 ** 14 * s * t)

    def qualifies(c, j, total):
        lo = c * a_lo ** j > total
        hi = c * a_hi ** j > total
        assert lo == hi, "fixture sits on the extraction threshold"
        return lo

    cur = set(F.members)
    trace = []
    stages = [frozenset(cur)]
    layers = []
    for i in range(q - t):
        size = q - i
        W = {m for m in cur if m.bit_count() == size}
        carry = {m for m in cur if m.bit_count() < size}
        cores = set()
        while W:
            counts = {}
            for m in W:
                sub = m
                while True:
                    counts[sub] = counts.get(sub, 0) + 1
                    if sub == 0:
                        break
                    sub = (sub - 1) & m
            good = [
                x
                for x, c in counts.items()
                if x and qualifies(c, x.bit_count(), len(W))
            ]
            if not good:
                break
            best = min(good, key=lambda x: (-x.bit_count(), x))
            if best.bit_count() == size:
                break
            trace.append((i, best))
            cores.add(best)
            W = {m for m in W if m & best != best}
        layers.append(frozenset(W))
        cur = cores | carry
        stages.append(frozenset(cur))
    return trace, stages, layers


def mc_instance(i: int):
    """Singleton families with an integer R*delta above the vacuity line.

    At 64 ground bits, links of k-uniform families force R <= n/k, so only
    1-uniform families reach R*delta > 32; these are the nonvacuous desk
    instances.
    """
    n = 44 + i
    c = 33 + i
    F = binom_family(n, 1)
    return F, Fraction(n), Fraction(c, n)


# ---------------------------------------------------------------------------
# Reference kernels: the straightforward versions the fast kernels in the
# package must reproduce exactly (same result, same witness, same order).


def reference_max_disjoint(masks, stop_at=None):
    """max_disjoint as a plain DFS that rescans the later masks at every node."""
    ms = sorted(set(masks), key=canon_key)
    best = [[]]

    def dfs(idx, used, cur):
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


def brute_force_transversal(masks):
    """The fewest elements meeting every mask (0 for no masks), or None if
    an empty mask leaves no transversal: every subset of the support in
    order of size."""
    support = 0
    for m in masks:
        support |= m
    elems = [1 << i for i in range(support.bit_length()) if support >> i & 1]
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            T = sum(combo)
            if all(m & T for m in masks):
                return size
    return None


def reference_transversal_number(F):
    """transversal_number as a branch and bound: branch on the elements of
    the smallest uncovered member, prune with a greedy disjoint-member
    packing bound, start from the support as the incumbent."""
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

    nodes = 0

    def dfs(chosen: int, size: int):
        nonlocal nodes
        nodes += 1
        if nodes > _TRANSVERSAL_CAP:
            raise CapacityError("transversal search capped", cap=_TRANSVERSAL_CAP)
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


def reference_find_sunflower(F, pred):
    """find_sunflower asking the predicate about every member pair's core."""
    members = list(F.members) if isinstance(F, SetFamily) else sorted(set(F), key=canon_key)
    if pred.degenerate_small_sets:
        for m in members:
            if m.bit_count() <= pred.bound:
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
        packed = reference_max_disjoint([m & ~core for m in above], stop_at=pred.s)
        if len(packed) >= pred.s:
            chosen = set(packed[: pred.s])
            sets = []
            for m in above:
                if (m & ~core) in chosen:
                    sets.append(m)
                    chosen.discard(m & ~core)
            return SunflowerWitness(tuple(sets), core)
    return None


def _reference_survivors(fam, x, cands, admits, s):
    """The ``(index, mask)`` pairs of ``cands`` whose mask c keeps fam + x + c
    free: a new forbidden sunflower has x and c as petals and core x & c."""
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
        if len(petals) < s - 2 or (s > 3 and find_packing(petals, s - 2) is None):
            out.append((j, c))
    return out


def reference_max_sunflower_free(candidates, pred, budget=2_000_000, symmetry=None):
    """max_sunflower_free with each node's candidates as a list of
    ``(index, mask)`` pairs, each tested against the whole family."""
    members = list(candidates.members)
    best_fam = [[]]
    state = {"nodes": 0, "certified": True}
    admits = [pred.admits_core_size(c) for c in range(candidates.ground.n + 1)]
    roots = list(enumerate(members))
    if pred.degenerate_small_sets:
        roots = [(j, m) for j, m in roots if m.bit_count() > pred.bound]

    def dfs(start, fam, used_prefix, cands):
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
                    continue
                new_prefix = used_prefix + fresh.bit_length()
            rest = _reference_survivors(fam, m, cands[pos + 1:], admits, pred.s)
            fam.append(m)
            dfs(idx + 1, fam, new_prefix, rest)
            fam.pop()

    dfs(0, [], 0, roots)
    return SearchResult(
        optimum=len(best_fam[0]),
        witness=candidates.replace_members(best_fam[0]),
        nodes=state["nodes"],
        certified=state["certified"],
    )


def least_optimal_family(candidates, pred):
    """The lexicographically least largest free subfamily, in member order.

    Depth first over the members in order, keeping the first strictly
    larger family met; each new member is tested against every (s - 1)-subset
    of the family, as oracle_max_sunflower_free does.  No bitsets, no bound.
    """
    members = list(candidates.members)
    best = []

    def creates(fam, new):
        if pred.degenerate_small_sets and new.bit_count() <= pred.bound:
            return True
        for combo in combinations(fam, pred.s - 1):
            core = is_sunflower([*combo, new])
            if core is not None and pred.admits_core_size(core.bit_count()):
                return True
        return False

    def dfs(start, fam):
        nonlocal best
        if len(fam) > len(best):
            best = list(fam)
        for idx in range(start, len(members)):
            if not creates(fam, members[idx]):
                fam.append(members[idx])
                dfs(idx + 1, fam)
                fam.pop()

    dfs(0, [])
    return candidates.replace_members(best)


def reference_frac_log2_bracket(x, steps=48):
    """frac_log2_bracket on Fractions: square, round outward to 2^-192, compare."""

    def round_frac(v, down):
        q, r = divmod(v.numerator << 192, v.denominator)
        if not down and r:
            q += 1
        return Fraction(q, 1 << 192)

    x = Fraction(x)
    e = 0
    y = x
    while y >= 2:
        y /= 2
        e += 1
    while y < 1:
        y *= 2
        e -= 1
    lo_acc = Fraction(e)
    hi_acc = Fraction(e)
    ylo, yhi = y, y
    scale = Fraction(1)
    for _ in range(steps):
        scale /= 2
        ylo = round_frac(ylo * ylo, down=True)
        yhi = round_frac(yhi * yhi, down=False)
        lo_bit = ylo >= 2
        hi_bit = yhi >= 2
        if lo_bit != hi_bit:
            hi_acc += 2 * scale
            return lo_acc, hi_acc
        if lo_bit:
            ylo /= 2
            yhi /= 2
            lo_acc += scale
            hi_acc += scale
    hi_acc += scale
    return lo_acc, hi_acc


def reference_log2_bracket(x, steps=48):
    """frac_log2_bracket as it was before powers of two returned at once:
    the digit loop over integer endpoints on the 2^-192 grid, run for every
    argument."""
    grid = 192
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    p, q = num << max(-e, 0), den << max(e, 0)
    two = 2 << grid
    digits = h = 0
    for i in range(steps):
        if i == 0:
            lo, r = divmod((p * p) << grid, q * q)
            hi = lo + (r > 0)
        else:
            shift = grid + 2 * h
            lo = (lo * lo) >> shift
            hi = -((-hi * hi) >> shift)
        h = int(lo >= two)
        if h != (hi >= two):
            return e + Fraction(digits, 1 << i), e + Fraction(digits + 1, 1 << i)
        digits = 2 * digits + h
    return e + Fraction(digits, 1 << steps), e + Fraction(digits + 1, 1 << steps)


def reference_delta_filter(F, p, t):
    """delta_filter with every anchor test recomputing its matching numbers.

    Returns (family, chosen, removed, rounds) for comparison with the
    package's DeltaFilterResult fields.
    """

    def anchor(m, G):
        for T in sorted(bit_subsets(m, t), key=elements_of):
            rest = m & ~T
            ok = True
            for j in range(rest.bit_count()):
                for extra in bit_subsets(rest, j):
                    E = T | extra
                    petals = [g & ~E for g in G.members if g & E == E]
                    if len(reference_max_disjoint(petals, stop_at=p)) < p:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return T
        return None

    if not F.members:
        return F, (), F, 0
    G = F
    rounds = 0
    while True:
        rounds += 1
        keep = [m for m in G.members if anchor(m, G) is not None]
        if len(keep) == len(G.members):
            break
        G = G.replace_members(keep)
        if not G.members:
            break
    chosen = tuple((m, anchor(m, G)) for m in G.members)
    removed = F.replace_members(set(F.members) - set(G.members))
    return G, chosen, removed, rounds


def submasks_of(mask):
    """Every subset of ``mask``, 0 and ``mask`` included, in descending
    numeric order, from the combinations of its elements."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    subs = {sum(c) for r in range(len(bits) + 1) for c in combinations(bits, r)}
    return sorted(subs, reverse=True)


def reference_link_counts(masks):
    """``family._link_counts`` by the definition: each mask's submasks,
    from ``submasks_of``, counted in turn; the keys in first-visit order."""
    counts = {}
    for m in masks:
        for x in submasks_of(m):
            counts[x] = counts.get(x, 0) + 1
    return counts


def reference_check_spread(F, R):
    """check_spread with the per-key loop: every link in canonical order,
    each tested by cross-multiplying with num^i and den^i."""
    R = Fraction(R)
    size = len(F)
    num, den = R.numerator, R.denominator
    counts = reference_link_counts(F.members)
    for x in sorted(counts, key=canon_key):
        if x == 0:
            continue
        i = x.bit_count()
        # |F(X)| * R^i <= |F|  <=>  |F(X)| * num^i <= |F| * den^i
        if counts[x] * num**i > size * den**i:
            return SpreadVerdict(R=R, ok=False, violation=x, family_size=size)
    return SpreadVerdict(R=R, ok=True, violation=None, family_size=size)


def reference_peel(members, dense):
    """The star peel with every step recounting all submasks from scratch.

    Yields the same ``(core, members left)`` steps as ``pipelines._peel``:
    the core is the largest X with ``dense(X, count, members left)``,
    canonically first among equal sizes, or None when no X is dense.
    """
    members = tuple(members)
    while True:
        counts = reference_link_counts(members)
        best = None
        for x, c in counts.items():
            if not dense(x, c, members):
                continue
            if best is None or x.bit_count() > best.bit_count() or (
                x.bit_count() == best.bit_count() and canon_key(x) < canon_key(best)
            ):
                best = x
        yield best, members
        if best is None:
            return
        members = tuple(m for m in members if m & best != best)


def reference_check_rt_spread(A, r, t):
    """check_rt_spread with each T's candidates drawn from the members through T."""
    r = Fraction(r)
    table = A.table
    for T in A.shadow_upto(t):
        base = table[T]
        cands = set()
        for m in A.family.members:
            if m & T == T:
                cands.update(submasks_of(m & ~T))
        cands.discard(0)
        for S in sorted(cands, key=canon_key):
            i = S.bit_count()
            if table[T | S] * r.numerator**i > base * r.denominator**i:
                return SpreadnessReport(r=r, t=t, ok=False, violation=(T, S), domain=A.kind)
    return SpreadnessReport(r=r, t=t, ok=True, violation=None, domain=A.kind)


def reference_check_rt_spread_scan(A, r, t):
    """check_rt_spread as a scan of the whole table for each T, the
    candidates sorted with ``canon_key``."""
    r = Fraction(r)
    num, den = r.numerator, r.denominator
    table = A.table
    for T in sorted((x for x in table if x.bit_count() <= t), key=canon_key):
        base = table[T]
        cands = [X & ~T for X in table if X & T == T and X != T]
        for S in sorted(cands, key=canon_key):
            i = S.bit_count()
            if table[T | S] * num**i > base * den**i:
                return SpreadnessReport(r=r, t=t, ok=False, violation=(T, S), domain=A.kind)
    return SpreadnessReport(r=r, t=t, ok=True, violation=None, domain=A.kind)


def reference_trace_cover(F, B):
    """trace_cover as a test of every member of F against every member of B."""
    return F.replace_members(m for m in F.members if any(m & b == b for b in B.members))


def reference_superset_sums(F, a, b):
    """z[B] = sum of a^|m| b^(n-|m|) over members m >= B, one mask at a time."""
    n = F.ground.n
    z = [0] * (1 << n)
    for m in F.members:
        z[m] = a ** m.bit_count() * b ** (n - m.bit_count())
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                z[mask] += z[mask | bit]
    return z


def reference_noise_operator(F, p, rho):
    """noise_operator with one Fraction per cell in every coordinate pass."""
    p, rho = Fraction(p), Fraction(rho)
    n = F.ground.n
    ms = F._member_set
    vals = [Fraction(1 if x in ms else 0) for x in range(1 << n)]
    q0 = (1 - rho) * p          # P(y_i = 1 | x_i = 0)
    q1 = rho + (1 - rho) * p    # P(y_i = 1 | x_i = 1)
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                continue
            lo, hi = vals[x], vals[x | bit]
            vals[x] = (1 - q0) * lo + q0 * hi
            vals[x | bit] = (1 - q1) * lo + q1 * hi
    return tuple(vals)


def reference_stability(F, p, rho):
    """Stab_rho(f) through the p-biased Fourier expansion: a coordinate
    butterfly gives the character sums c(S) = sum_x mu_p(x) f(x)
    prod_{i in S} (x_i - p) as integers over c^(2n), and
    Stab = sum_S rho^|S| c(S)^2 / (p(1-p))^|S|."""
    p, rho = Fraction(p), Fraction(rho)
    n = F.ground.n
    a, c = p.numerator, p.denominator
    b = c - a
    v = [0] * (1 << n)
    for m in F.members:
        v[m] = a ** m.bit_count() * b ** (n - m.bit_count())
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            lo, hi = v[mask], v[mask | bit]
            v[mask] = c * (lo + hi)
            v[mask | bit] = b * hi - a * lo
    buckets = [0] * (n + 1)  # the sum of c(S)^2 c^(4n) over the S of each size
    for s, coeff in enumerate(v):
        buckets[s.bit_count()] += coeff * coeff
    return sum((rho**j * Fraction(t * c ** (2 * j), (a * b) ** j * c ** (4 * n))
                for j, t in enumerate(buckets)), Fraction(0))


def reference_hypercontractivity_check(F, p, tau, rho, q):
    """hypercontractivity_check's report, its moment summed one Fraction per
    point over reference_noise_operator's values; no preconditions checked."""
    p, tau, rho = Fraction(p), Fraction(tau), Fraction(rho)
    n = F.ground.n
    gate = frac_log2_bracket(Fraction(q))[0] * _LN2_LO / (16 * q * tau)
    a, c = p.numerator, p.denominator
    b = c - a
    lhs = Fraction(0)
    for x, val in enumerate(reference_noise_operator(F, p, rho)):
        if val:
            j = x.bit_count()
            lhs += Fraction(a**j * b ** (n - j), c**n) * val**q
    return HypercontractivityReport(q, rho, gate, biased_measure(F, p), lhs)


def _restriction_cells(F, a, b, bmask):
    """The A -> weight of cell (A, B) table of one B: sum of a^|m-B| b^(n-|B|-|m-B|)."""
    free = F.ground.n - bmask.bit_count()
    cells = {}
    for m in F.members:
        out = (m & ~bmask).bit_count()
        cells[m & bmask] = cells.get(m & bmask, 0) + a**out * b ** (free - out)
    return cells


def reference_check_global_exhaustive(F, p, tau):
    """check_global(exhaustive=True) as a walk over every B, then every A, in canonical order."""
    p, tau = Fraction(p), Fraction(tau)
    n = F.ground.n
    a, c = p.numerator, p.denominator
    b = c - a
    tn, td = tau.numerator, tau.denominator
    total = sum(a ** m.bit_count() * b ** (n - m.bit_count()) for m in F.members)
    for bmask in sorted(range(1 << n), key=canon_key):
        j = bmask.bit_count()
        cells = _restriction_cells(F, a, b, bmask)
        for amask in sorted(cells, key=canon_key):
            if cells[amask] * (td * c) ** j > tn**j * total:
                return GlobalnessVerdict(tau, p, False, "exhaustive", (amask, bmask), len(F))
    return GlobalnessVerdict(tau, p, True, "exhaustive", None, len(F))


def reference_max_global_restriction(F, p, tau, exhaustive):
    """The (A, B, value) maximizing tau^-|B| mu_p^-B(F(A, B)), first in canonical order.

    ``exhaustive=False`` walks the diagonal A = B cells only.
    """
    p, tau = Fraction(p), Fraction(tau)
    n = F.ground.n
    a, c = p.numerator, p.denominator
    b = c - a
    tn, td = tau.numerator, tau.denominator
    if not exhaustive:
        z = reference_superset_sums(F, a, b)
        best, best_val = 0, Fraction(z[0], c**n)
        for bmask in sorted(range(1 << n), key=canon_key):
            j = bmask.bit_count()
            if z[bmask]:
                val = Fraction(z[bmask] * td**j * c**j, tn**j * a**j * c**n)
                if val > best_val:
                    best, best_val = bmask, val
        return best, best, best_val
    best = (0, 0)
    best_val = Fraction(
        sum(a ** m.bit_count() * b ** (n - m.bit_count()) for m in F.members), c**n
    )
    for bmask in sorted(range(1 << n), key=canon_key):
        j = bmask.bit_count()
        cells = _restriction_cells(F, a, b, bmask)
        for amask in sorted(cells, key=canon_key):
            val = Fraction(cells[amask] * td**j, tn**j * c ** (n - j))
            if val > best_val:
                best, best_val = (amask, bmask), val
    return best[0], best[1], best_val


def reference_mc_hits(F, p, trials, seed):
    """spread_lemma_mc's hit count with one numpy row test per member and block."""
    import numpy as np

    n = F.ground.n
    cols = [[e - 1 for e in elements_of(m)] for m in F.members]
    hits = done = idx = 0
    while done < trials:
        block = min(1024, trials - done)
        if 0 in F._member_set:
            hits += block
        else:
            rng = np.random.Generator(np.random.Philox(key=np.uint64(_block_seed(seed, idx))))
            rows = rng.random((block, n)) < float(p)
            got = np.zeros(block, dtype=bool)
            for cs in cols:
                np.logical_or(got, rows[:, cs].all(axis=1), out=got)
            hits += int(got.sum())
        done += block
        idx += 1
    return hits


def reference_check_tau_homogeneous(F, A, tau):
    """check_tau_homogeneous with a Fraction per X, in canonical order."""
    tau = Fraction(tau)
    fcounts = reference_link_counts(F.members)
    asize, fsize = len(A), len(F)
    worst_x, worst, ok = 0, Fraction(1), True
    for x in sorted(fcounts, key=canon_key):
        if x == 0:
            continue
        ratio = Fraction(fcounts[x] * asize, A.table[x] * fsize) / tau ** x.bit_count()
        if ratio > worst:
            worst_x, worst = x, ratio
            if ratio > 1:
                ok = False
    return HomogeneityVerdict(tau=tau, ok=ok, worst_x=worst_x, worst_ratio=worst, family_size=fsize)


def reference_regularity_identity(A, S, subfamily, h):
    """``domains.regularity_identity_holds`` with one Fraction per shadow
    set: mu(F) against the mean of mu(F(H)) over the h-shadow of A(S)."""
    L = A if S == 0 else A.link_domain(S)
    shadow_hs = L.shadow_layer(h)
    total = Fraction(0)
    for H in shadow_hs:
        cnt = sum(1 for m in subfamily.members if m & H == H)
        total += Fraction(cnt, L.table[H])
    return Fraction(len(subfamily), len(L)) == total / len(shadow_hs)


def reference_min_homogeneity_upper(F, A, bits=_ROOT_BITS):
    """``pipelines._min_homogeneity_upper`` with a Fraction ratio and a
    root for every nonempty X of F's counts."""
    counts = reference_link_counts(F.members)
    scale = 1 << bits
    best = Fraction(0)
    for X, c in counts.items():
        if X == 0:
            continue
        j = X.bit_count()
        ratio = Fraction(c * len(A), A.table[X] * len(F))
        target = ratio * Fraction(scale) ** j
        n_int = -(-target.numerator // target.denominator)
        best = max(best, Fraction(_iroot_ceil(n_int, j), scale))
    return best


# -- the pipeline brackets on Fractions ---------------------------------------
# pipelines.py keeps a bracket as an integer triple (lo, hi, d); these are its
# helpers as they were on Fraction pairs (lo, hi), every step reduced.


def reference_iv_mul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def reference_iv_pow(a, e):
    if a[0] < 0:
        raise PreconditionError("interval power needs a nonnegative lower end")
    return a[0] ** e, a[1] ** e


def reference_ln_bracket(x):
    lo2, hi2 = frac_log2_bracket(x, _REPORT_STEPS)
    prods = (lo2 * _LN2_LO, lo2 * _LN2_HI, hi2 * _LN2_LO, hi2 * _LN2_HI)
    return min(prods), max(prods)


def reference_kernel_scale(s, t, x, *factors):
    if x == 1:
        return Fraction(0), Fraction(0)
    scale = Fraction(2 ** 14 * s)
    out = reference_iv_pow(reference_iv_mul((scale, scale), frac_log2_bracket(x)), t)
    for f in factors:
        out = reference_iv_mul(out, f)
    return out


def reference_record(name, lhs, rhs, hypotheses_met=True, note=""):
    lhs = Fraction(lhs)
    lo, hi = rhs
    verdict = "holds" if lhs <= lo else "fails" if lhs > hi else "unresolved"
    return BoundRecord(name, lhs, lo, hi, verdict, hypotheses_met, note)


def reference_threshold_exceeds(s, q, t, count, j, total):
    """ExtractionThreshold(s, q, t).exceeds(count, j, total) on Fractions:
    the scale max(s q, 2^14 s log2 t), and off the exact path the bracket
    of log2(t) refined, doubling its steps from 48, until the compare
    agrees at both ends."""
    scale, base = Fraction(2 ** 14 * s), Fraction(s * q)

    def satisfies(pred):
        steps = 48
        while True:
            lo, hi = frac_log2_bracket(t, steps)
            if pred(scale * lo):
                return True
            if not pred(scale * hi):
                return False
            steps *= 2

    if t == 1:
        exact = base
    elif t & (t - 1) == 0:
        exact = max(base, scale * (t.bit_length() - 1))
    else:
        exact = None if satisfies(lambda x: x >= base) else base
    if exact is not None:
        return count * exact ** j > total
    if count == 0 or j == 0:
        return count > total
    return satisfies(lambda x: count * x ** j > total)
