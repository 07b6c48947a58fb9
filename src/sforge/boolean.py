"""Biased-measure analysis of set families viewed as Boolean functions.

A family over ground size n doubles as the indicator function
f: {0,1}^n -> {0,1} of its member set.  Everything here is exact:
probabilities and correlation parameters are Fractions, verdicts compare
cross-multiplied integers, and fractional exponents are handled by raising
both sides of an inequality to a common integer power.

A family that stands for an upward-closed function must already be
materialized as one (see :func:`sforge.family.upper_closure`); measures sum
over the listed members only.  The noise operator and stability both run
their coordinate passes on integers and divide once at the end.

Both globalness engines run on packed integers: every restriction cell is a
fixed-width field of one Python int, wide enough that even the largest
possible cell leaves the field's top bit clear.  That bit is a guard: after
setting every guard and subtracting limit + 1 from every field at once, a
field's guard survives exactly when its cell exceeds the limit.  The top
coordinates split the packed indicator into contiguous halves; each leaf
transforms the low 8 coordinates in place, 3^8 cells (exhaustive) or 2^8
(diagonal), with a few shifts, masks and small-scalar multiplies per
coordinate.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, gcd
from typing import NamedTuple

from .errors import CapacityError, PreconditionError, VerificationError
from .exact import _LN2_LO, _as_fraction, frac_log2_bracket
from .family import (
    GroundSet,
    SetFamily,
    elements_of,
    is_upward_closed,
    report,
    restrict,
    upper_closure,
)

MEASURE_CAP = 30
DIAGONAL_CAP = 16
EXHAUSTIVE_CAP = 12
POINTWISE_CAP = 12

def _probability(value, name: str) -> Fraction:
    p = _as_fraction(value, name)
    if not 0 < p < 1:
        raise PreconditionError(
            f"{name} must lie strictly between 0 and 1", **{name: str(p)}
        )
    return p


def biased_measure(F: SetFamily, p) -> Fraction:
    """mu_p(F): each member S contributes p^|S| (1-p)^(n-|S|).

    Term-by-term over the members, so the complement of the family is never
    enumerated and ground sets up to 30 are fine.
    """
    pf = _probability(p, "p")
    n = F.ground.n
    if n > MEASURE_CAP:
        raise CapacityError(f"biased measure capped at n={MEASURE_CAP}, got n={n}")
    a = pf.numerator
    c = pf.denominator
    b = c - a
    by_size = [0] * (n + 1)
    for m in F.members:
        by_size[m.bit_count()] += 1
    num = sum(cnt * a**j * b ** (n - j) for j, cnt in enumerate(by_size) if cnt)
    return Fraction(num, c**n)


def drop_coordinates(F: SetFamily, X: int) -> SetFamily:
    """Reindex the ground set with the coordinates of X deleted.

    Every member must avoid X; use this after a restriction when a measure
    on the surviving coordinates is wanted.
    """
    n = F.ground.n
    if X & ~F.ground.full_mask:
        raise PreconditionError("dropped coordinates outside the ground set")
    keep = [i for i in range(n) if not X >> i & 1]
    if not keep:
        raise PreconditionError("cannot drop every coordinate")
    bad = next((m for m in F.members if m & X), 0)
    if bad:
        raise PreconditionError(
            "member meets the dropped coordinates", member=elements_of(bad & X)
        )
    new_bit = {i + 1: 1 << j for j, i in enumerate(keep)}  # label -> new bit
    return SetFamily(GroundSet(len(keep)), tuple(
        sum(map(new_bit.__getitem__, elements_of(m))) for m in F.members
    ))


# ---------------------------------------------------------------------------
# globalness


class GlobalnessVerdict(NamedTuple):
    """Outcome of a tau-globalness check under mu_p."""

    tau: Fraction
    p: Fraction
    ok: bool
    mode: str  # "exhaustive" or "diagonal"
    violation: tuple[int, int] | None  # first offending (A, B) masks
    family_size: int

    # the violation keeps its element tuples: a verdict's report is spread
    # into error details, which print each value's repr
    _report_optional = ("violation",)
    _report_derived = {"violation": lambda v: v.violation and dict(
        zip("AB", map(elements_of, v.violation)))}


def _weight_vector(F: SetFamily, a: int, b: int) -> list[int]:
    n = F.ground.n
    v = [0] * (1 << n)
    for m in F.members:
        v[m] = a ** m.bit_count() * b ** (n - m.bit_count())
    return v


# Coordinates are split into the top ones, fixed one at a time, and the low
# _BLOCK_DIGITS, which one leaf transforms in place: 3^_BLOCK_DIGITS cells in
# the exhaustive engine, 2^_BLOCK_DIGITS in the diagonal one.  Only one leaf
# and the pending siblings of its ancestors are alive at any time.
_BLOCK_DIGITS = 8


def _repeat(unit: int, width: int, count: int) -> int:
    """``count`` copies of the ``width``-byte pattern ``unit``."""
    return int.from_bytes(unit.to_bytes(width, "little") * count, "little")


@lru_cache(maxsize=4)
def _leaf_masks(
    width: int, low: int, radix: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """For a leaf of radix^low fields of ``width`` bytes: a 1 in every
    field, every field's guard (top) bit, and for each low coordinate i the
    fields whose position modulo radix^(i+1) is below 2^i and, for radix 3,
    below 3^i (those whose ternary digit i is 0)."""
    w = 8 * width

    def runs(run: int, i: int) -> int:
        return _repeat((1 << w * run) - 1, width * radix ** (i + 1), radix ** (low - i - 1))

    ones = _repeat(1, width, radix**low)
    binary = tuple(runs(2**i, i) for i in range(low))
    ternary = tuple(runs(3**i, i) for i in range(low)) if radix == 3 else ()
    return ones, ones << w - 1, binary, ternary


class _Cells(NamedTuple):
    keys: list[int]  # canonical key of each cell of a leaf, less the leaf's key
    width: int  # bytes per field
    ones: int  # a 1 in every field of a leaf
    guard: int  # the top bit of every field of a leaf
    scale: int  # a cell is scale * tau^-|B| mu_p^-B(F(A, B))
    leaves: Iterator[tuple[int, int]]  # (leaf key, packed leaf), key 0 first


def _packed_cells(F: SetFamily, p: Fraction, tau: Fraction, exhaustive: bool) -> _Cells:
    """The restriction cells (A, B) of F as integers, one packed leaf at a time.

    A field has the fewest bytes that keep the largest possible cell below
    its top bit, the guard of :func:`_above`.  A cell is ``scale`` times
    tau^-|B| mu_p^-B(F(A, B)), so it breaks tau-globalness exactly when it
    exceeds cell (0, 0) = scale * mu_p(F), field 0 of the first leaf.  A
    key packs (|B|, B, |A|, A) into one integer whose order is the
    canonical (B, then A) order; decode with :func:`_cell_of`.

    The top coordinates split the packed 2^n-field indicator of F into
    contiguous halves (one mask and one shift).  Exhaustive engine (every
    A <= B): a free coordinate (outside B) takes tn a * (value with it in)
    + tn b * (value with it out), one in B td c * (value with it as in A),
    so the largest cell is max(td c, tn c)^n.  A leaf moves its binary
    positions to ternary ones, then gives each coordinate i its ternary
    digit: free, in B but not A, in A.  Diagonal engine (A = B): with
    S = td c and R = tn a divided by their gcd, a coordinate in B takes
    a S * (value with it in), one outside R b * (value with it out) +
    R a * (value with it in), so the largest cell is max(a S, R c)^n.
    """
    n = F.ground.n
    low = min(n, _BLOCK_DIGITS)
    a, c = p.numerator, p.denominator
    b = c - a
    tn, td = tau.numerator, tau.denominator

    def parts(i: int) -> tuple[int, int]:
        # what coordinate i adds to a key in state B-A and in state A
        out = (1 << 3 * n) + (1 << 2 * n + i)
        return out, out + (1 << n) + (1 << i)

    keys = [0]
    if exhaustive:
        s, fa, fb = td * c, tn * a, tn * b
        top, scale, radix = max(s, tn * c) ** n, (tn * c) ** n, 3
        for i in range(low):
            out, inside = parts(i)
            keys += [k + out for k in keys] + [k + inside for k in keys]

        def split(lo: int, hi: int, i: int):
            out, inside = parts(i)
            return (fa * hi + fb * lo, 0), (s * lo, out), (s * hi, inside)

        def leaf(x: int) -> int:
            for j in reversed(range(low)):  # binary digit j to ternary digit j
                lo = x & binary[j]
                x = lo | (x ^ lo) << w * (3**j - 2**j)
            for i in range(low):  # out and in move up to digits 1 and 2, free fills 0
                lo = x & ternary[i]
                hi = (x ^ lo) >> w * 3**i
                x = fa * hi + fb * lo + (s * x << w * 3**i)
            return x
    else:
        g = gcd(td * c, tn * a)
        S, R = td * c // g, tn * a // g
        rb, ra, aS = R * b, R * a, a * S
        top, scale, radix = max(aS, R * c) ** n, (R * c) ** n, 2
        for i in range(low):
            inside = parts(i)[1]
            keys += [k + inside for k in keys]

        def split(lo: int, hi: int, i: int):
            return (rb * lo + ra * hi, 0), (aS * hi, parts(i)[1])

        def leaf(x: int) -> int:
            for i in range(low):
                lo = x & binary[i]
                up = x ^ lo
                x = rb * lo + ra * (up >> (w << i)) + aS * up
            return x

    width = top.bit_length() // 8 + 1
    w = 8 * width
    ones, guard, binary, ternary = _leaf_masks(width, low, radix)
    flags = bytearray(1 << n)
    for m in F.members:
        flags[m] = 1
    packed = bytearray(len(flags) * width)
    packed[::width] = flags

    def leaves(stack):
        while stack:
            x, k, key = stack.pop()
            if k == low:
                yield key, leaf(x)
                continue
            half = w << k - 1
            stack += [(child, k - 1, key + part)
                      for child, part in reversed(split(x & ((1 << half) - 1), x >> half, k - 1))]
            del x

    stack = [(int.from_bytes(packed, "little"), n, 0)]
    return _Cells(keys, width, ones, guard, scale, leaves(stack))


def _above(x: int, limit: int, cells: _Cells) -> int:
    """The guard bits of the fields of leaf ``x`` whose cell exceeds ``limit``.

    ``limit`` is -1 or a cell, so limit + 1, like every cell, fits below the
    guard bit: subtracting it from each guarded field borrows from no
    neighbour and leaves the guard set exactly where the cell exceeds it.
    """
    return ((x | cells.guard) - (limit + 1) * cells.ones) & cells.guard


def _unpack(x: int, cells: _Cells) -> list[int]:
    width = cells.width
    raw = x.to_bytes(len(cells.keys) * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _cell_of(key: int, n: int) -> tuple[int, int]:
    full = (1 << n) - 1
    return key & full, key >> 2 * n & full


def _diagonal_sufficient(F: SetFamily, p: Fraction, tau: Fraction) -> bool:
    """Whether A = B cells dominate all cells.

    True when 1/(1-p) < tau (adding an element of B outside A costs at most
    a 1/(1-p) factor against a tau allowance) and for upward-closed families
    (F(A, B) is contained in F(B, B) there).
    """
    return 1 < tau * (1 - p) or is_upward_closed(F)


def _use_exhaustive(
    F: SetFamily, p: Fraction, tau: Fraction, exhaustive: bool | None, what: str
) -> tuple[bool, bool | None]:
    """Whether to run the exhaustive engine, after the guards, and the
    ``_diagonal_sufficient`` verdict if choosing needed it (else None).

    ``None`` picks the diagonal engine where it is complete and fits, else
    the exhaustive one where it fits; an explicit choice must fit, and the
    diagonal one must also be complete.
    """
    n = F.ground.n
    sufficient = _diagonal_sufficient(F, p, tau) if not exhaustive and n <= DIAGONAL_CAP else None
    engine = not sufficient if exhaustive is None else bool(exhaustive)
    if exhaustive is None and engine and n > EXHAUSTIVE_CAP:
        raise CapacityError(
            f"{what} needs the diagonal reduction above ground size "
            f"{EXHAUSTIVE_CAP}; it is not valid here", n=n
        )
    if not engine and n > DIAGONAL_CAP:
        raise CapacityError(f"diagonal engine capped at n={DIAGONAL_CAP}, got n={n}")
    if not engine and not sufficient:
        raise PreconditionError(
            "diagonal verdict needs an upward-closed family or 1/(1-p) < tau"
        )
    if engine and n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive engine capped at n={EXHAUSTIVE_CAP}, got n={n}")
    return engine, sufficient


def _parameters(p, tau) -> tuple[Fraction, Fraction]:
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf <= 0:
        raise PreconditionError("tau must be positive", tau=str(tf))
    return pf, tf


def check_global(F: SetFamily, p, tau, exhaustive: bool | None = None) -> GlobalnessVerdict:
    """tau-globalness: mu_p^{-B}(F(A, B)) <= tau^|B| mu_p(F) for all A <= B.

    A violation is reported as the first offending (A, B) in canonical
    order: B first, then A.  Two exact engines.  ``exhaustive=True``
    decides every (A, B) cell through a ternary (3^n) transform of the
    family, computed in leaves of at most 3^8 cells (ground capped at 12).
    ``exhaustive=False`` decides only the diagonal A = B cells through a
    superset sum (ground capped at 16), which is a complete verdict exactly
    when the diagonal dominates; that, in turn, is guaranteed for
    upward-closed families and whenever 1/(1-p) < tau.  The default picks
    the cheapest valid engine.

    Each leaf is one packed integer with a guarded field per cell (see
    :func:`_packed_cells`); one guard test marks its cells above the limit,
    cell (0, 0), and the canonically first of them is read off one flag
    byte per cell.
    """
    pf, tf = _parameters(p, tau)
    exhaustive, _ = _use_exhaustive(F, pf, tf, exhaustive, "globalness")
    cells = _packed_cells(F, pf, tf, exhaustive)
    width = cells.width
    first = limit = None
    for top, x in cells.leaves:
        if limit is None:
            limit = x & ((1 << 8 * width) - 1)  # cell (0, 0), in the first leaf
        hits = _above(x, limit, cells)
        if hits:  # one 0/1 byte per cell: its guard bit
            flags = (hits >> 8 * width - 1).to_bytes(len(cells.keys) * width, "little")[::width]
            key = min(compress(cells.keys, flags)) + top
            first = key if first is None else min(first, key)
    mode = "exhaustive" if exhaustive else "diagonal"
    violation = None if first is None else _cell_of(first, F.ground.n)
    return GlobalnessVerdict(tf, pf, first is None, mode, violation, len(F))


class GlobalRestriction(NamedTuple):
    """Maximizer of tau^{-|B|} mu_p^{-B}(F(A, B)) with its certificate."""

    a: int
    b: int
    value: Fraction
    family: SetFamily  # F(A, B) reindexed onto the surviving coordinates
    verdict: GlobalnessVerdict

    _report_keys = {"a": "A", "b": "B"}
    _report_masks = ("a", "b")
    _report_omit = ("family",)
    _report_derived = {"restricted_size": lambda r: len(r.family)}


def max_global_restriction(F: SetFamily, p, tau, exhaustive: bool | None = None) -> GlobalRestriction:
    """Restriction pair (A, B) maximizing tau^{-|B|} mu_p^{-B}(F(A, B)).

    The engines and their guards are those of :func:`check_global`: the
    exhaustive one takes the largest cell of the ternary transform, the
    diagonal one the largest A = B cell of the superset sum.  Ties go to
    the smallest |B|, then the canonically smallest B, then A.  The
    restricted family is tau-global; that certificate is re-checked and a
    failure raises VerificationError.  Whenever the diagonal dominates
    (upward-closed family, or 1/(1-p) < tau) the exhaustive engine asserts
    that the winning value is already attained with A = B.

    Both read the packed leaves of :func:`check_global`.  A leaf none of
    whose cells reaches the running best fails the guard test and is
    skipped; only the other leaves are unpacked into integers.
    """
    pf, tf = _parameters(p, tau)
    exhaustive, sufficient = _use_exhaustive(F, pf, tf, exhaustive, "restriction search")
    n = F.ground.n
    diag_best: Fraction | None = None
    if sufficient is None:
        sufficient = _diagonal_sufficient(F, pf, tf)
    if sufficient:
        cells = _packed_cells(F, pf, tf, False)
        most, key = _best_cell(cells)
        diag_best = Fraction(most, cells.scale)
        if not exhaustive:
            bmask = _cell_of(key, n)[1]
            return _certified_restriction(F, pf, tf, bmask, bmask, diag_best)

    cells = _packed_cells(F, pf, tf, True)
    best, first = _best_cell(cells)
    best_a, best_b = _cell_of(first, n)
    best_val = Fraction(best, cells.scale)
    if diag_best is not None and best_val != diag_best:
        raise VerificationError(
            "diagonal cells should dominate here but the best pair is off-diagonal",
            best_value=str(best_val),
            best_diagonal=str(diag_best),
        )
    return _certified_restriction(F, pf, tf, best_a, best_b, best_val)


def _best_cell(cells: _Cells) -> tuple[int, int]:
    """The largest cell and the key of the first cell that attains it.

    A leaf with no cell at least the running best is skipped by the guard
    test; only the others are unpacked.
    """
    best, first = -1, 0
    for top, x in cells.leaves:
        if best >= 0 and not _above(x, best - 1, cells):
            continue
        values = _unpack(x, cells)
        most = max(values)
        if most >= best:
            key = min(compress(cells.keys, map(most.__eq__, values))) + top
            if most > best or key < first:
                best, first = most, key
    return best, first


def _certified_restriction(
    F: SetFamily, p: Fraction, tau: Fraction, amask: int, bmask: int, value: Fraction
) -> GlobalRestriction:
    if bmask == F.ground.full_mask:
        raise PreconditionError(
            "restriction by the full ground set leaves no coordinates"
        )
    projected = drop_coordinates(restrict(F, amask, bmask), bmask)
    verdict = check_global(projected, p, tau)
    if not verdict.ok:
        raise VerificationError(
            "maximizing restriction failed its globalness certificate",
            A=elements_of(amask), B=elements_of(bmask),
        )
    return GlobalRestriction(amask, bmask, value, projected, verdict)


# ---------------------------------------------------------------------------
# noise operator and stability


def noise_operator(F: SetFamily, p, rho) -> tuple[Fraction, ...]:
    """Pointwise values of T_rho f over all 2^n inputs, indexed by mask.

    The kernel factorizes per coordinate: y_i copies x_i with probability
    rho and is resampled from the p-biased bit otherwise.  The coordinate
    passes run on integers over the common denominator d = den(rho) den(p),
    and each point becomes one Fraction over d^n at the end.
    """
    pf = _probability(p, "p")
    rf = _as_fraction(rho, "rho")
    if not 0 <= rf <= 1:
        raise PreconditionError("rho must lie in [0, 1]", rho=str(rf))
    n = F.ground.n
    if n > POINTWISE_CAP:
        raise CapacityError(f"pointwise operator capped at n={POINTWISE_CAP}, got n={n}")
    d = rf.denominator * pf.denominator
    q0 = (rf.denominator - rf.numerator) * pf.numerator  # d P(y_i = 1 | x_i = 0)
    q1 = rf.numerator * pf.denominator + q0              # d P(y_i = 1 | x_i = 1)
    vals = _weight_vector(F, 1, 1)  # f itself; after the loop, d^n T_rho f
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                continue
            lo, hi = vals[x], vals[x | bit]
            vals[x] = (d - q0) * lo + q0 * hi
            vals[x | bit] = (d - q1) * lo + q1 * hi
    dn = d**n
    return tuple(Fraction(v, dn) for v in vals)


def stability(F: SetFamily, p, rho) -> Fraction:
    """Stab_rho(f) = <f, T_rho f> under mu_p, exactly.

    Computed through the p-biased character sums
    c(S) = sum_x mu_p(x) f(x) prod_{i in S} (x_i - p), which a coordinate
    butterfly produces as integers; then
    Stab = sum_S rho^|S| c(S)^2 / (p(1-p))^|S|.
    """
    pf = _probability(p, "p")
    rf = _as_fraction(rho, "rho")
    if not 0 <= rf <= 1:
        raise PreconditionError("rho must lie in [0, 1]", rho=str(rf))
    n = F.ground.n
    if n > DIAGONAL_CAP:
        raise CapacityError(f"stability capped at n={DIAGONAL_CAP}, got n={n}")
    a = pf.numerator
    c = pf.denominator
    b = c - a
    v = _weight_vector(F, a, b)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            lo, hi = v[mask], v[mask | bit]
            v[mask] = c * (lo + hi)
            v[mask | bit] = b * hi - a * lo
    # v[S] = c(S) * c^(2n)
    buckets = [0] * (n + 1)
    for s, coeff in enumerate(v):
        if coeff:
            buckets[s.bit_count()] += coeff * coeff
    c4n = c ** (4 * n)
    total = Fraction(0)
    for j, t in enumerate(buckets):
        if t:
            total += rf**j * Fraction(t * c ** (2 * j), (a * b) ** j * c4n)
    return total


# ---------------------------------------------------------------------------
# sharp thresholds


class SharpThresholdReport(NamedTuple):
    p: Fraction
    p_tilde: Fraction
    rho: Fraction
    mu_p: Fraction
    mu_tilde: Fraction
    stab: Fraction
    global_tau: Fraction | None
    upgraded: bool

    _report_keys = {"stab": "stability", "global_tau": "tau"}
    _report_optional = ("global_tau",)


def verify_sharp_threshold(F: SetFamily, p, p_tilde, tau=None) -> SharpThresholdReport:
    """Certify mu_ptilde(f) * Stab_rho(f) >= mu_p(f)^2 for an upward-closed f.

    rho is the correlation p(1 - ptilde) / (ptilde (1 - p)) that couples the
    two product measures.  When ``tau`` is supplied the family must be
    tau-global with ptilde = 2^6 tau p and p < 2^-7 / tau; the single-round
    upgrade mu_ptilde >= mu_p^{3/4} is then certified as well, by comparing
    fourth powers.
    """
    pf = _probability(p, "p")
    ptf = _probability(p_tilde, "p_tilde")
    if pf >= ptf:
        raise PreconditionError(
            "p_tilde must exceed p", p=str(pf), p_tilde=str(ptf)
        )
    if not is_upward_closed(F):
        raise PreconditionError("sharp-threshold bounds need an upward-closed family")
    n = F.ground.n
    if n > DIAGONAL_CAP:
        raise CapacityError(f"sharp-threshold check capped at n={DIAGONAL_CAP}, got n={n}")

    rho = (pf * (1 - ptf)) / (ptf * (1 - pf))
    mu_lo = biased_measure(F, pf)
    mu_hi = biased_measure(F, ptf)
    stab = stability(F, pf, rho)
    if mu_hi * stab < mu_lo * mu_lo:
        raise VerificationError(
            "correlation inequality failed",
            mu_p=str(mu_lo), mu_tilde=str(mu_hi), stability=str(stab),
        )

    upgraded = False
    tf: Fraction | None = None
    if tau is not None:
        tf = _as_fraction(tau, "tau")
        if tf < 1:
            raise PreconditionError("tau must be at least 1", tau=str(tf))
        if ptf != 64 * tf * pf:
            raise PreconditionError(
                "the upgraded bound needs p_tilde = 2^6 tau p",
                p_tilde=str(ptf), expected=str(64 * tf * pf),
            )
        if 128 * tf * pf >= 1:
            raise PreconditionError(
                "the upgraded bound needs p < 2^-7 / tau", p=str(pf), tau=str(tf)
            )
        verdict = check_global(F, pf, tf)
        if not verdict.ok:
            raise PreconditionError(
                "family is not tau-global", **report(verdict)
            )
        if mu_hi**4 < mu_lo**3:
            raise VerificationError(
                "single-round measure upgrade failed",
                mu_p=str(mu_lo), mu_tilde=str(mu_hi),
            )
        upgraded = True
    return SharpThresholdReport(pf, ptf, rho, mu_lo, mu_hi, stab, tf, upgraded)


class UpgradeRound(NamedTuple):
    restriction: int  # mask in the original coordinates
    p_in: Fraction
    measure_in: Fraction
    measure_restricted: Fraction

    _report_keys = {"p_in": "p", "measure_in": "measure"}
    _report_masks = ("restriction",)


class MeasureUpgradeReport(NamedTuple):
    r_mask: int
    rounds: tuple[UpgradeRound, ...]
    final_p: Fraction
    final_measure: Fraction
    final_family: SetFamily

    _report_keys = {"r_mask": "R"}
    _report_masks = ("r_mask",)
    _report_omit = ("final_family",)
    _report_derived = {"final_size": lambda r: len(r.final_family)}


def measure_upgrade(F: SetFamily, p, tau, z: int, m: int) -> MeasureUpgradeReport:
    """Iterated restriction-and-reweighting for an upward-closed family.

    Needs mu_p(F) >= tau^-z, tau >= 2 and p < (2^6 tau)^-m / 2.  Each round
    picks the set S maximizing tau^{-|S|} mu^{-S}(F(S)), restricts to it and
    multiplies p by 2^6 tau.  The accumulated restriction R is certified to
    have size at most 4z with round i contributing at most z (3/4)^i, every
    restricted family is certified tau-global at the round's measure, and
    the final measure is certified to be at least mu_p(F)^((3/4)^m).
    """
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf < 2:
        raise PreconditionError("tau must be at least 2", tau=str(tf))
    if type(z) is not int or z < 1:
        raise PreconditionError(f"z must be a positive integer, got {z!r}")
    if type(m) is not int or m < 1:
        raise PreconditionError(f"m must be a positive integer, got {m!r}")
    if not is_upward_closed(F):
        raise PreconditionError("measure upgrade needs an upward-closed family")
    n = F.ground.n
    if n > DIAGONAL_CAP:
        raise CapacityError(f"measure upgrade capped at n={DIAGONAL_CAP}, got n={n}")
    if 2 * (64 * tf) ** m * pf >= 1:
        raise PreconditionError(
            "p must stay below (2^6 tau)^-m / 2", p=str(pf), tau=str(tf), m=m
        )
    mu0 = biased_measure(F, pf)
    if mu0 * tf**z < 1:
        raise PreconditionError(
            "starting measure below tau^-z", measure=str(mu0), tau=str(tf), z=z
        )

    current = F
    coords = list(range(n))  # original coordinate of each surviving position
    p_i = pf
    mu_i = mu0
    r_mask = 0
    rounds: list[UpgradeRound] = []
    for i in range(m):
        step = max_global_restriction(current, p_i, tf, exhaustive=False)
        smask = step.b
        orig = sum(1 << coords[e - 1] for e in elements_of(smask))
        if smask.bit_count() * 4**i > z * 3**i:
            raise VerificationError(
                "round restriction exceeded its geometric budget",
                round=i, size=smask.bit_count(),
            )
        restricted = step.family
        mu_restricted = biased_measure(restricted, p_i)
        rounds.append(UpgradeRound(orig, p_i, mu_i, mu_restricted))
        r_mask |= orig
        coords = [coords[j] for j in range(len(coords)) if not smask >> j & 1]
        p_next = 64 * tf * p_i
        mu_next = biased_measure(restricted, p_next)
        if mu_next**4 < mu_restricted**3:
            raise VerificationError(
                "single-round upgrade failed", round=i,
                before=str(mu_restricted), after=str(mu_next),
            )
        current, p_i, mu_i = restricted, p_next, mu_next

    if r_mask.bit_count() > 4 * z:
        raise VerificationError(
            "accumulated restriction exceeded 4z", size=r_mask.bit_count(), z=z
        )
    if mu_i ** (4**m) < mu0 ** (3**m):
        raise VerificationError(
            "final measure below the promised power of the starting measure",
            final=str(mu_i), start=str(mu0),
        )
    return MeasureUpgradeReport(r_mask, tuple(rounds), p_i, mu_i, current)


# ---------------------------------------------------------------------------
# hypercontractivity


class HypercontractivityReport(NamedTuple):
    q: int
    rho: Fraction
    rho_gate: Fraction
    mu: Fraction
    lhs: Fraction  # E[(T_rho f)^q]

    _report_keys = {"lhs": "moment"}


def hypercontractivity_check(F: SetFamily, p, tau, rho, q: int) -> HypercontractivityReport:
    """Certify ||T_rho f||_q <= ||f||_2 for a tau-global Boolean f.

    The noise rate must satisfy rho <= ln(q) / (16 tau q); the gate is
    enforced through a certified rational lower bound on ln(q), so a rho at
    the printed gate is always admissible.  q must be an integer above 2
    (fractional q would need irrational pointwise powers).  The norm
    comparison squares both sides: (E[(T_rho f)^q])^2 <= mu_p(f)^q.
    """
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf < 1:
        raise PreconditionError("tau must be at least 1", tau=str(tf))
    rf = _as_fraction(rho, "rho")
    if type(q) is not int or q <= 2:
        raise PreconditionError(f"q must be an integer greater than 2, got {q!r}")
    n = F.ground.n
    if n > POINTWISE_CAP:
        raise CapacityError(
            f"hypercontractivity check capped at n={POINTWISE_CAP}, got n={n}"
        )
    log2_lo, _ = frac_log2_bracket(Fraction(q))
    gate = log2_lo * _LN2_LO / (16 * q * tf)
    if not 0 < rf <= gate:
        raise PreconditionError(
            "rho outside the certified gate", rho=str(rf), rho_gate=str(gate)
        )
    verdict = check_global(F, pf, tf)
    if not verdict.ok:
        raise PreconditionError("family is not tau-global", **report(verdict))

    mu = biased_measure(F, pf)
    # each value of T_rho f is some v / d^n, d = den(rho) den(p); under p = a/c
    # the moment is the integer sum of a^|x| (c-a)^(n-|x|) v^q over c^n d^(nq)
    dn = (rf.denominator * pf.denominator) ** n
    a, c = pf.numerator, pf.denominator
    weight = [a**j * (c - a) ** (n - j) for j in range(n + 1)]
    total = sum(weight[x.bit_count()] * (val.numerator * (dn // val.denominator)) ** q
                for x, val in enumerate(noise_operator(F, pf, rf)))
    lhs = Fraction(total, c**n * dn**q)
    if lhs * lhs > mu**q:
        raise VerificationError(
            "hypercontractive inequality failed",
            moment=str(lhs), mu=str(mu), q=q,
        )
    return HypercontractivityReport(q, rf, gate, mu, lhs)


# ---------------------------------------------------------------------------
# bridges between uniform and biased measures


class UniformBiasedFloor(NamedTuple):
    p: Fraction
    mu: Fraction
    floor: Fraction


def check_uniform_biased_floor(F: SetFamily) -> UniformBiasedFloor:
    """For k-uniform F: mu_{k/n} of the upper closure is at least |F| / (4 C(n, k)).

    The quarter is what survives of the uniform density when the binomial
    layer profile is taken into account.
    """
    k = F.uniformity
    if k is None or k == 0:
        raise PreconditionError("need a nonempty k-uniform family with k >= 1")
    n = F.ground.n
    if k >= n:
        raise PreconditionError("need k < n for a proper biased measure", k=k, n=n)
    p = Fraction(k, n)
    mu = biased_measure(upper_closure(F), p)
    floor = Fraction(len(F), 4 * comb(n, k))
    if mu < floor:
        raise VerificationError(
            "biased measure fell below the uniform-density floor",
            mu=str(mu), floor=str(floor),
        )
    return UniformBiasedFloor(p, mu, floor)


class GlobalRemoval(NamedTuple):
    family: SetFamily
    tau_hat: Fraction
    measure: Fraction
    measure_floor: Fraction

    _report_omit = ("family",)
    _report_derived = {"size": lambda r: len(r.family)}


def remove_elements_global(F: SetFamily, p, tau, X: int) -> GlobalRemoval:
    """Drop all members meeting X from a tau-global family.

    Needs |X| < 1 / (tau p).  The surviving family, still on the full
    ground set, keeps measure at least (1 - |X| p tau) mu_p(F) and is
    tau / (1 - |X| p tau) global; both facts are certified.
    """
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf < 1:
        raise PreconditionError("tau must be at least 1", tau=str(tf))
    if X & ~F.ground.full_mask:
        raise PreconditionError("X outside the ground set", X=elements_of(X))
    shrink = 1 - X.bit_count() * pf * tf
    if shrink <= 0:
        raise PreconditionError(
            "need |X| < 1 / (tau p)", X=elements_of(X), p=str(pf), tau=str(tf)
        )
    verdict = check_global(F, pf, tf)
    if not verdict.ok:
        raise PreconditionError("family is not tau-global", **report(verdict))

    G = restrict(F, 0, X)
    mu_f = biased_measure(F, pf)
    mu_g = biased_measure(G, pf)
    floor = shrink * mu_f
    if mu_g < floor:
        raise VerificationError(
            "removal lost more measure than allowed",
            measure=str(mu_g), floor=str(floor),
        )
    tau_hat = tf / shrink
    out = check_global(G, pf, tau_hat)
    if not out.ok:
        raise VerificationError(
            "removal broke globalness at the adjusted parameter",
            **report(out),
        )
    return GlobalRemoval(G, tau_hat, mu_g, floor)
