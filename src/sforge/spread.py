"""R-spreadness: exact certificates, the element-removal lemma, and the
probabilistic covering bound checked by Monte Carlo.

Spreadness verdicts are exact: every comparison is done on cross-multiplied
integers, never floats.  The Monte Carlo part reports rational confidence
bounds that are rounded conservatively, so a flagged violation is a real one
regardless of the rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, isqrt
from operator import and_
from typing import NamedTuple, Optional

from .errors import CapacityError, PreconditionError, VerificationError
from .exact import _as_fraction, frac_log2_bracket
from .family import SetFamily, _ENUM_CAP, _link_counts, canon_key, elements_of, restrict


class SpreadVerdict(NamedTuple):
    """Outcome of an exhaustive R-spreadness check."""

    R: Fraction
    ok: bool
    violation: Optional[int] = None  # mask X with |F(X)| > R^-|X| |F|
    family_size: int = 0

    _report_masks = ("violation",)
    _report_optional = ("violation",)


def check_spread(F: SetFamily, R) -> SpreadVerdict:
    """Exhaustively decide whether F is R-spread.

    The defining inequality |F(X)| <= R^(-|X|) |F| is checked for every X
    with a nonempty link; the first violating X in canonical order is
    reported.  With R = num/den, |F(X)| num^i > |F| den^i exactly when
    |F(X)| > cap[i] = |F| den^i // num^i: one integer cap per size decides
    every link in one pass, and the pass keeps the canonically least violator.
    """
    R = _as_fraction(R, "R")
    if not F.members:
        raise PreconditionError("spreadness of an empty family is undefined")
    if R <= 0:
        raise PreconditionError("spreadness parameter must be positive", R=str(R))
    size = len(F)
    num, den = R.numerator, R.denominator
    width = max(m.bit_count() for m in F.members)
    if 1 << width > _ENUM_CAP:
        raise CapacityError("too many distinct subsets", widest=width, cap=_ENUM_CAP)
    counts = _link_counts(F.members)
    if len(counts) > _ENUM_CAP:
        raise CapacityError("too many distinct subsets", count=len(counts))
    cap = [size * den**i // num**i for i in range(width + 1)]
    bad = (x for x, c in counts.items() if c > cap[x.bit_count()])
    first = min(bad, key=canon_key, default=None)
    return SpreadVerdict(R=R, ok=first is None, violation=first, family_size=size)


class RemovalCertificate(NamedTuple):
    """F with the elements of X excluded, plus the surviving guarantees.

    ``parameter`` is R - |X|: exclusion can only cost |X| worth of
    spreadness.  The size floor (1 - |X|/R)|F| and the new spreadness are
    both re-verified exactly before the certificate is issued.
    """

    family: SetFamily
    parameter: Fraction
    size_floor: Fraction
    covering_floor: int

    _report_omit = ("family",)
    _report_derived = {"size": lambda r: len(r.family)}


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
    if X & ~F.ground.full_mask:
        raise PreconditionError("X outside the ground set", X=elements_of(X))
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


# ---------------------------------------------------------------------------
# Monte Carlo side


def exact_hit_probability(F: SetFamily, p: Fraction) -> Fraction:
    """P[some member of F lies inside a p-random subset W], exactly.

    Sums over all 2^n subsets, so the ground set is capped at 20 elements.
    """
    n = F.ground.n
    if n > 20:
        raise CapacityError("exact hit probability enumerates 2^n subsets", n=n)
    p = _as_fraction(p, "p")
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


def covering_bound_bracket(R: Fraction, delta: Fraction, m: int, mu_norm: int = 1):
    """Rational bracket for 1 - (5/log2(R*delta))^m * mu_norm.

    Returns (lo, hi, vacuous) for positive R and delta, m >= 1 and
    mu_norm >= 1.  The bound is vacuous whenever R*delta <= 32 (the ratio is
    then >= 1) and meaningless for R*delta <= 1; both cases get
    (None, None, True).
    """
    R, delta = _as_fraction(R, "R"), _as_fraction(delta, "delta")
    if R <= 0 or delta <= 0:
        raise PreconditionError("R and delta must be positive", R=str(R), delta=str(delta))
    if type(m) is not int or type(mu_norm) is not int:
        raise PreconditionError("m and mu_norm must be integers", m=m, mu_norm=mu_norm)
    if m < 1 or mu_norm < 1:
        raise PreconditionError("m and mu_norm must be at least 1", m=m, mu_norm=mu_norm)
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
    exact_probability: Optional[Fraction] = None

    # its own: the rates and bounds are reported as six-decimal floats
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
_MC_SLICE = 64  # blocks per bit-slice


def _block_seed(seed: int, index: int) -> int:
    import hashlib  # here: only a Monte Carlo run needs it

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
    seed).  Each block draws its W from a Philox generator and packs its
    rows into column bytes at once.  Up to 64 blocks (65,536 trials) lie
    side by side in one bit-slice: element j's column becomes one integer
    whose bit t says whether the slice's trial t has j in W, a member lands
    inside W on the trials set in the AND of its columns, and the hits of
    the slice are the bits set in the OR over members.  numpy is imported
    here, its only use in the package, so the exact engine and the CLI
    start without it.
    """
    import numpy as np

    R = _as_fraction(R, "R")
    delta = _as_fraction(delta, "delta")
    if type(trials) is not int or m < 1 or trials < 1:
        raise PreconditionError("m and trials must be positive", m=m, trials=trials)
    blo, bhi, vac = covering_bound_bracket(R, delta, m)
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
    pf = float(p)
    col_of = [[e - 1 for e in elements_of(mem)] for mem in F.members]
    zero_member = 0 in F._member_set

    hits = trials if zero_member else 0  # the empty member lies inside every W
    starts = () if zero_member else range(0, trials, _MC_BLOCK * _MC_SLICE)
    for start in starts:
        stop = min(trials, start + _MC_BLOCK * _MC_SLICE)
        packed = []
        for lo in range(start, stop, _MC_BLOCK):
            key = np.uint64(_block_seed(seed, lo // _MC_BLOCK))
            rng = np.random.Generator(np.random.Philox(key=key))
            rows = rng.random((min(_MC_BLOCK, stop - lo), n)) < pf
            # the same bytes as packing rows along axis 0, several times faster
            packed.append(np.packbits(rows.T.copy(), axis=1, bitorder="little"))
        # bit t of column j's integer is element j+1 of the slice's trial t;
        # padding bits of a short last block are 0, so no member tests true there
        cols = [int.from_bytes(col, "little") for col in np.concatenate(packed, axis=1)]
        got = 0
        for member in col_of:
            got |= reduce(and_, map(cols.__getitem__, member))
        hits += got.bit_count()

    rate = Fraction(hits, trials)
    wlow, whigh = _wilson_bounds(hits, trials)
    violation = (not vac) and blo is not None and whigh < blo
    exact = None
    if with_exact and n <= 20:
        exact = exact_hit_probability(F, p)
    return SpreadLemmaEstimate(
        R=R, m=m, delta=delta, trials=trials, hits=hits, hit_rate=rate,
        wilson_low=wlow, wilson_high=whigh,
        covering_bound_low=blo, covering_bound_high=bhi,
        vacuous=vac, violation=violation, exact_probability=exact,
    )
