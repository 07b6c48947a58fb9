"""R-spreadness: exact certificates, maximal restrictions, and the
probabilistic covering bound checked by Monte Carlo.

Spreadness verdicts are exact: every comparison is done on cross-multiplied
integers, never floats.  The Monte Carlo part reports rational confidence
bounds that are rounded conservatively, so a flagged violation is a real one
regardless of the rounding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt
from typing import Optional, Sequence

from .errors import CapacityError, PreconditionError, VerificationError
from .family import SetFamily, canon_key, elements_of, link, restrict, submasks
from .packing import find_disjoint_representatives as _masks_disjoint_reps
from .sunflowers import SunflowerWitness

_ENUM_CAP = 8_000_000


def _as_fraction(value, name: str) -> Fraction:
    """``value`` as an exact Fraction; floats and non-rationals are refused."""
    if isinstance(value, float):
        raise PreconditionError(
            f"{name} must be exact (int, Fraction, or string), not a float", value=value
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"{name} is not a rational number: {value!r}") from exc


def _link_counts(F: SetFamily) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in F.members:
        for x in submasks(m):
            counts[x] = counts.get(x, 0) + 1
    return counts


@dataclass(frozen=True)
class SpreadVerdict:
    """Outcome of an exhaustive R-spreadness check."""

    R: Fraction
    ok: bool
    violation: Optional[int] = None  # mask X with |F(X)| > R^-|X| |F|
    family_size: int = 0

    def as_report(self) -> dict:
        out = {"R": str(self.R), "ok": self.ok, "family_size": self.family_size}
        if self.violation is not None:
            out["violation"] = list(elements_of(self.violation))
        return out


def check_spread(F: SetFamily, R) -> SpreadVerdict:
    """Exhaustively decide whether F is R-spread.

    The defining inequality |F(X)| <= R^(-|X|) |F| is checked for every X
    with a nonempty link; the first violating X in canonical order is
    reported.  X = empty always holds with equality.
    """
    R = _as_fraction(R, "R")
    if not F.members:
        raise PreconditionError("spreadness of an empty family is undefined")
    if R <= 0:
        raise PreconditionError("spreadness parameter must be positive", R=str(R))
    size = len(F)
    num, den = R.numerator, R.denominator
    counts = _link_counts(F)
    if len(counts) > _ENUM_CAP:
        raise CapacityError("too many distinct subsets", count=len(counts))
    for x in sorted(counts, key=canon_key):
        if x == 0:
            continue
        i = x.bit_count()
        # |F(X)| * R^i <= |F|  <=>  |F(X)| * num^i <= |F| * den^i
        if counts[x] * num**i > size * den**i:
            return SpreadVerdict(R=R, ok=False, violation=x, family_size=size)
    return SpreadVerdict(R=R, ok=True, violation=None, family_size=size)


def max_spread_restriction(F: SetFamily, R) -> int:
    """The X maximizing the scaled link density R^|X| |F(X)|.

    Ties go to the smallest size and then the smallest mask, so an already
    R-spread family returns the empty set.  For the winner, any denser Y
    inside the link would have promoted X | Y above X, hence F(X) is
    R-spread; that consequence is re-checked before returning.
    """
    R = _as_fraction(R, "R")
    if not F.members:
        raise PreconditionError("restriction of an empty family is undefined")
    if R <= 0:
        raise PreconditionError("spreadness parameter must be positive", R=str(R))
    counts = _link_counts(F)
    best = 0
    best_val = Fraction(len(F))
    for x in sorted(counts, key=canon_key):
        if x == 0:
            continue
        i = x.bit_count()
        val = counts[x] * R**i
        if val > best_val:
            # canonical order visits smaller sizes and smaller masks first,
            # so a strict update implements the tie-break for free
            best, best_val = x, val
    verdict = check_spread(link(F, best), R)
    if not verdict.ok:
        raise VerificationError(
            "maximal restriction failed to be R-spread; this contradicts maximality",
            X=elements_of(best), inner_violation=elements_of(verdict.violation),
        )
    return best


@dataclass(frozen=True)
class RemovalCertificate:
    """F with the elements of X excluded, plus the surviving guarantees.

    ``parameter`` is R - |X|: exclusion can only cost |X| worth of
    spreadness.  The size floor (1 - |X|/R)|F| and the new spreadness are
    both re-verified exactly before the certificate is issued.
    """

    family: SetFamily
    parameter: Fraction
    size_floor: Fraction
    covering_floor: int

    def as_report(self) -> dict:
        return {
            "size": len(self.family),
            "parameter": str(self.parameter),
            "size_floor": str(self.size_floor),
            "covering_floor": self.covering_floor,
        }


def remove_elements_spread(F: SetFamily, R, X: int) -> RemovalCertificate:
    """Exclude the elements of X from an R-spread family.

    Certifies, by exact re-check:
      * |F(empty, X)| >= (1 - |X|/R) |F|;
      * F(empty, X) is (R - |X|)-spread;
      * the covering number of F is at least ceil(R) (reported as a floor;
        only computed into the certificate, the caller may verify against
        an exact transversal search).
    """
    R = _as_fraction(R, "R")
    xsize = X.bit_count()
    if Fraction(xsize) >= R:
        raise PreconditionError(
            "can only remove fewer than R elements", X=elements_of(X), R=str(R)
        )
    verdict = check_spread(F, R)
    if not verdict.ok:
        raise PreconditionError(
            "family is not R-spread", R=str(R), violation=elements_of(verdict.violation)
        )
    G = restrict(F, 0, X)
    floor = (1 - Fraction(xsize) / R) * len(F)
    if Fraction(len(G)) < floor:
        raise VerificationError(
            "size floor after exclusion failed; the spreadness certificate was wrong",
            size=len(G), floor=str(floor),
        )
    param = R - xsize
    if G.members and param > 0:
        inner = check_spread(G, param)
        if not inner.ok:
            raise VerificationError(
                "exclusion broke spreadness beyond the certified parameter",
                parameter=str(param), violation=elements_of(inner.violation),
            )
    cover_floor = ceil(R)
    return RemovalCertificate(
        family=G, parameter=param, size_floor=floor, covering_floor=cover_floor
    )


def find_disjoint_representatives(groups: Sequence, forbidden: int = 0) -> list[int] | None:
    """One member per group, pairwise disjoint, avoiding ``forbidden``.

    Accepts SetFamily or plain mask sequences per group; see the packing
    module for the search discipline.  None is an exact absence certificate.
    """
    converted = []
    for g in groups:
        if isinstance(g, SetFamily):
            converted.append(g.members)
        else:
            converted.append(tuple(g))
        if not converted[-1]:
            raise PreconditionError("every group must be nonempty")
    return _masks_disjoint_reps(converted, forbidden=forbidden)


def sunflower_via_spread(F: SetFamily, s: int, R) -> SunflowerWitness | None:
    """Sunflower search through a maximal spread restriction.

    Take the largest X with |F(X)| >= R^(-|X|)|F|; its link is R-spread, and
    s pairwise-disjoint link members turn into petals around the core X.
    Returns None when the restriction eats the whole uniformity or the
    disjoint-representative search certifies absence.
    """
    if s < 2:
        raise PreconditionError("a sunflower needs at least two petals", s=s)
    k = F.uniformity
    if k is None:
        raise PreconditionError("sunflower-via-spread expects a uniform nonempty family")
    X = max_spread_restriction(F, R)
    if X.bit_count() >= k:
        return None
    L = link(F, X)
    reps = _masks_disjoint_reps([L.members] * s, forbidden=X)
    if reps is None:
        return None
    return SunflowerWitness(petals=tuple(X | p for p in reps), core=X)


# ---------------------------------------------------------------------------
# Monte Carlo side


def exact_hit_probability(F: SetFamily, p: Fraction) -> Fraction:
    """P[some member of F lies inside a p-random subset W], exactly.

    Sums over all 2^n subsets, so the ground set is capped at 20 elements.
    """
    n = F.ground.n
    if n > 20:
        raise CapacityError("exact hit probability enumerates 2^n subsets", n=n)
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise PreconditionError("probability out of range", p=str(p))
    members = F.members
    total = Fraction(0)
    q = 1 - p
    # group by popcount to reuse the weight
    weights = [p**j * q ** (n - j) for j in range(n + 1)]
    for w_mask in range(1 << n):
        for m in members:
            if w_mask & m == m:
                total += weights[w_mask.bit_count()]
                break
    return total


def _round_frac(x: Fraction, down: bool, bits: int = 192) -> Fraction:
    scale = 1 << bits
    num = x.numerator * scale
    q, r = divmod(num, x.denominator)
    if not down and r:
        q += 1
    return Fraction(q, scale)


# Certified: 0.693147 < ln 2 < 0.693148.
_LN2_LO = Fraction(693147, 1_000_000)
_LN2_HI = Fraction(693148, 1_000_000)


def frac_log2_bracket(x: Fraction, steps: int = 48) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo <= log2(x) <= hi, via digit extraction.

    Interval endpoints are rounded outward to a fixed 192-bit grid at each
    squaring, so the bracket stays sound and the integers stay small.
    """
    x = Fraction(x)
    if x <= 0:
        raise PreconditionError("log2 argument must be positive", x=str(x))
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
        ylo = _round_frac(ylo * ylo, down=True)
        yhi = _round_frac(yhi * yhi, down=False)
        lo_bit = ylo >= 2
        hi_bit = yhi >= 2
        if lo_bit != hi_bit:
            # endpoints disagree; the bracket cannot be tightened further
            hi_acc += 2 * scale
            return lo_acc, hi_acc
        if lo_bit:
            ylo /= 2
            yhi /= 2
            lo_acc += scale
            hi_acc += scale
    hi_acc += scale  # remaining fractional part is below one more digit
    return lo_acc, hi_acc


def covering_bound_bracket(R: Fraction, delta: Fraction, m: int, mu_norm: int = 1):
    """Rational bracket for 1 - (5/log2(R*delta))^m * mu_norm.

    Returns (lo, hi, vacuous).  The bound is vacuous whenever R*delta <= 32
    (the ratio is then >= 1, with mu_norm >= 1) and meaningless for
    R*delta <= 1; both cases get (None, None, True).
    """
    arg = R * delta
    if arg <= 1:
        return None, None, True
    p2 = arg.numerator
    if arg.denominator == 1 and p2 & (p2 - 1) == 0:
        lg = Fraction(p2.bit_length() - 1)  # arg > 1, so lg >= 1
        lo = hi = 1 - Fraction(5, lg) ** m * mu_norm
        return lo, hi, bool(lo <= 0)
    lg_lo, lg_hi = frac_log2_bracket(arg)
    if lg_lo <= 0:
        return None, None, True
    # bound is decreasing in the ratio, so the ratio's hi gives the bound's lo
    lo = 1 - Fraction(5) ** m / lg_lo**m * mu_norm
    hi = 1 - Fraction(5) ** m / lg_hi**m * mu_norm
    vac = bool(hi <= 0) or arg <= 32
    return lo, hi, vac


def _wilson_bounds(hits: int, trials: int) -> tuple[Fraction, Fraction]:
    """Conservative rational 99% Wilson interval (lower rounded down, upper up).

    z = 2.576 overshoots the exact 99% quantile, which widens the interval;
    the square root is replaced by a rational upper bound for the same
    reason.
    """
    z2 = Fraction(2576, 1000) ** 2
    n = Fraction(trials)
    ph = Fraction(hits, trials)
    center = ph + z2 / (2 * n)
    rad2 = ph * (1 - ph) / n + z2 / (4 * n * n)
    # rational u >= sqrt(rad2)
    a, b = rad2.numerator, rad2.denominator
    u = Fraction(isqrt(a * b) + 1, b)
    denom = 1 + z2 / n
    z = Fraction(2576, 1000)
    low = (center - u * z) / denom
    high = (center + u * z) / denom
    if low < 0:
        low = Fraction(0)
    if high > 1:
        high = Fraction(1)
    return low, high


@dataclass(frozen=True)
class SpreadLemmaEstimate:
    """Monte Carlo verdict for the spread covering bound."""

    R: Fraction
    m: int
    delta: Fraction
    trials: int
    hits: int
    hit_rate: Fraction
    wilson_low: Fraction
    wilson_high: Fraction
    covering_bound_low: Optional[Fraction]
    covering_bound_high: Optional[Fraction]
    vacuous: bool
    violation: bool
    mu_norm: int = 1
    exact_probability: Optional[Fraction] = None

    def as_report(self) -> dict:
        out = {
            "R": str(self.R),
            "m": self.m,
            "delta": str(self.delta),
            "trials": self.trials,
            "hits": self.hits,
            "hit_rate": f"{float(self.hit_rate):.6f}",
            "wilson_low": f"{float(self.wilson_low):.6f}",
            "wilson_high": f"{float(self.wilson_high):.6f}",
            "vacuous": self.vacuous,
            "violation": self.violation,
        }
        if self.covering_bound_low is not None:
            out["covering_bound_low"] = f"{float(self.covering_bound_low):.6f}"
            out["covering_bound_high"] = f"{float(self.covering_bound_high):.6f}"
        if self.exact_probability is not None:
            out["exact_probability"] = str(self.exact_probability)
        return out


_MC_BLOCK = 1024


def _block_seed(seed: int, index: int) -> int:
    h = hashlib.sha256(f"sforge-mc:{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def spread_lemma_mc(
    F: SetFamily,
    R,
    m: int,
    delta,
    trials: int,
    seed: int = 0,
    with_exact: bool = False,
) -> SpreadLemmaEstimate:
    """Estimate P[some member inside an (m*delta)-random W] against the bound.

    Trials are partitioned into fixed 1024-trial blocks with hash-derived
    block seeds, so the hit count is a pure function of (family, parameters,
    seed).  numpy is imported here, its only use in the package, so the
    exact engine and the CLI start without it.
    """
    import numpy as np

    R = _as_fraction(R, "R")
    delta = _as_fraction(delta, "delta")
    if m < 1 or trials < 1:
        raise PreconditionError("m and trials must be positive", m=m, trials=trials)
    p = m * delta
    if p > 1:
        raise PreconditionError("m*delta must be at most 1", p=str(p))
    verdict = check_spread(F, R)
    if not verdict.ok:
        raise PreconditionError(
            "spread lemma requires an R-spread family",
            R=str(R), violation=elements_of(verdict.violation),
        )
    n = F.ground.n
    members = F.members
    pf = float(p)
    col_of: list[list[int]] = []
    for mem in members:
        col_of.append([e - 1 for e in elements_of(mem)])
    zero_member = 0 in F._member_set

    hits = 0
    done = 0
    idx = 0
    while done < trials:
        block = min(_MC_BLOCK, trials - done)
        if zero_member:
            hits += block
            done += block
            idx += 1
            continue
        rng = np.random.Generator(np.random.Philox(key=np.uint64(_block_seed(seed, idx))))
        rows = rng.random((block, n)) < pf
        got = np.zeros(block, dtype=bool)
        for cols in col_of:
            np.logical_or(got, rows[:, cols].all(axis=1), out=got)
        hits += int(got.sum())
        done += block
        idx += 1

    rate = Fraction(hits, trials)
    wlow, whigh = _wilson_bounds(hits, trials)
    blo, bhi, vac = covering_bound_bracket(R, delta, m, mu_norm=1)
    violation = (not vac) and blo is not None and whigh < blo
    exact = None
    if with_exact and n <= 20:
        exact = exact_hit_probability(F, p)
    return SpreadLemmaEstimate(
        R=R, m=m, delta=delta, trials=trials, hits=hits, hit_rate=rate,
        wilson_low=wlow, wilson_high=whigh,
        covering_bound_low=blo, covering_bound_high=bhi,
        vacuous=vac, violation=violation, mu_norm=1, exact_probability=exact,
    )
