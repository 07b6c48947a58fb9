"""Seeded input generators for the benchmark workloads.

Everything here is plain Python on integer bitmasks (bit i is element i+1),
so the generators depend on nothing in sforge and the same seed always gives
the same inputs.  The decompose instances follow the planted-star recipe of
the test suite; the certify families are drawn from seeded random pools.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    """An independent stream per workload, seed and purpose."""
    return random.Random(f"sforge-bench:{workload}:{seed}:{part}")


def mask_of(elements) -> int:
    """Bitmask of 0-based elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def as_sets(masks) -> list[list[int]]:
    """1-based element lists, the form ``SetFamily.from_sets`` takes."""
    return [[e + 1 for e in range(m.bit_length()) if m >> e & 1] for m in masks]


def k_subsets(n: int, k: int) -> list[int]:
    return [mask_of(c) for c in combinations(range(n), k)]


def link_counts(masks) -> dict[int, int]:
    """|F(X)| for every X below some member: the reference submask count."""
    counts: dict[int, int] = {}
    for m in masks:
        x = m
        while True:
            counts[x] = counts.get(x, 0) + 1
            if x == 0:
                break
            x = (x - 1) & m
    return counts


def is_spread(masks, R: Fraction) -> bool:
    """Reference R-spreadness: |F(X)| R^|X| <= |F| for every X."""
    size = len(masks)
    num, den = R.numerator, R.denominator
    return all(
        c * num ** x.bit_count() <= size * den ** x.bit_count()
        for x, c in link_counts(masks).items()
    )


# -- certify ---------------------------------------------------------------


def random_family(rng: random.Random, n: int, size: int) -> list[int]:
    """``size`` distinct subsets of [n], uniformly at random."""
    return rng.sample(range(1 << n), size)


def upward_family(rng: random.Random, n: int, sizes=(3, 4, 4, 5, 5, 5)) -> list[int]:
    """All supersets of random sets of the given sizes: an upward-closed family."""
    gens = [mask_of(rng.sample(range(n), size)) for size in sizes]
    return [m for m in range(1 << n) if any(m & g == g for g in gens)]


def mc_family(family_seed: int, n: int = 20, k: int = 3, size: int = 600) -> list[int]:
    """The Monte Carlo family of one frozen pool entry."""
    rng = random.Random(f"sforge-bench:mc-family:{family_seed}")
    return [mask_of(c) for c in rng.sample(list(combinations(range(n), k)), size)]


def block_product(blocks) -> list[int]:
    """One element from each block; spread parameter = smallest block size."""
    out = [0]
    for b in blocks:
        out = [m | (1 << e) for m in out for e in b]
    return out


def spread_instance(rng: random.Random, i: int):
    """(n, masks, R, X) with the family exactly R-spread and |X| < R.

    Three kinds, as in the test suite: a complete k-uniform family, a block
    product, and a random 3/4 share of the k-sets that passes the reference
    spreadness check (falling back to the complete family).  The kind and
    size follow ``i``, so every seed gets the same mix of shapes; the seed
    picks labels, subsets and X.
    """
    kind, v = i % 3, i // 3
    k = 2 + v % 2
    if kind == 0:
        n = 3 * k + 2 + v % 3
        masks, R = k_subsets(n, k), Fraction(n, k)
    elif kind == 1:
        w, bs = 2 + v % 2, 2 + v % 3
        elems = list(range(w * bs))
        rng.shuffle(elems)
        masks = block_product([elems[j * bs:(j + 1) * bs] for j in range(w)])
        n, R = w * bs, Fraction(bs)
    else:
        n = 3 * k + 1 + v % 3
        R = Fraction(n, 2 * k)
        pool = k_subsets(n, k)
        masks = None
        for _ in range(50):
            cand = rng.sample(pool, max(2, 3 * len(pool) // 4))
            if is_spread(cand, R):
                masks = cand
                break
        if masks is None:
            masks, R = pool, Fraction(n, k)
    xmax = min(-(-R.numerator // R.denominator) - 1, 3, n)
    xsize = rng.randrange(1, xmax + 1) if xmax >= 1 else 0
    X = mask_of(rng.sample(range(n), xsize))
    return n, masks, R, X


# -- decompose -------------------------------------------------------------

# (k, t, n): every uniformity in {2, 3, 4} at both core sizes, with n at or
# above the planted recipe's lower end for the shape and never above 16.
# Fixing the shapes keeps the work per pass steady across seeds.
DECOMPOSE_SHAPES = ((2, 1, 12), (2, 2, 12), (3, 1, 14), (3, 2, 13), (4, 1, 16), (4, 2, 15))


def planted_star(rng: random.Random, n: int, k: int, t: int):
    """A thinned union of full stars inside all k-subsets of [n].

    With t = 2 the star cores form a triangle on three points, so no
    3-sunflower has a core smaller than 2; with t = 1 there are two star
    centres, so there is no 3-matching.  Each star keeps about 85% of its
    members, at most 55 and at least one.  Returns (members, cores).
    """
    pts = rng.sample(range(n), 2 if t == 1 else 3)
    if t == 1:
        cores = [1 << p for p in pts]
    else:
        a, b, c = (1 << p for p in pts)
        cores = [a | b, a | c, b | c]
    layer = k_subsets(n, k)
    chosen: set[int] = set()
    for S in cores:
        star = [m for m in layer if m & S == S]
        keep = [m for m in star if rng.random() < 0.85]
        if len(keep) > 55:
            keep = rng.sample(keep, 55)
        chosen.update(keep or [star[0]])
    return sorted(chosen), cores


def full_star(n: int, k: int, core: int) -> list[int]:
    return [m for m in k_subsets(n, k) if m & core == core]


def chain_tau(n: int, k: int, t: int) -> Fraction:
    """A tau with tau^t < R_c < tau^(t+1), R_c = C(n,k) / C(n-t,k-t).

    On a full star with a t-set core every link ratio equals R_c, so exactly
    the core and its subsets are overdense and the decomposition has one
    part, the planted core, with an empty remainder.
    """
    rc = Fraction(comb(n, k), comb(n - t, k - t))
    lo, hi = Fraction(1), Fraction(rc)
    for _ in range(40):  # tau^(2t+1) = R_c^2, the geometric middle
        mid = (lo + hi) / 2
        if mid ** (2 * t + 1) < rc ** 2:
            lo = mid
        else:
            hi = mid
    tau = Fraction(round(lo * 64), 64)
    if not tau ** t < rc < tau ** (t + 1):
        raise ValueError(f"no chain tau for n={n}, k={k}, t={t}")
    return tau
