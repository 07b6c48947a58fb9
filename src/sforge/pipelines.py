"""Structural decomposition pipelines for sunflower-free families.

Every operation takes an explicit family (usually with an ambient domain),
produces a decomposition or a core family, and checks the claims it is
named after once before returning.  A :class:`Decomposition` or
:class:`SystemSST` runs its ``verify`` when it is built, so every instance,
however it was made, has passed its check.  Nothing here is sampled.  All
certificates are exact integer or rational comparisons; inequalities whose
right-hand side involves a logarithm are reported as three-way verdicts
computed from certified rational brackets, never from floats.

Hard guarantees (facts that follow from the construction at every scale) are
asserted and raise :class:`VerificationError` when violated.  Guarantees that
only hold under large-parameter hypotheses are recorded as
:class:`BoundRecord` entries with a ``hypotheses_met`` flag, so a "fails"
verdict on a desk-scale instance is information rather than an error.

Shared pieces: ``_peel`` takes dense stars off a family, largest core
first; ``_layer_round`` runs it on the top layer of a working family for
``simplify`` and ``peel_high_uniformity``; ``_kernel_scale`` brackets the
kernel scale (2^14 s log2 x)^t that the bound records share, as an integer
triple that ``_record`` alone turns into Fractions; and
``_small_core_sunflower`` is the one search for an s-sunflower whose core
is below t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .domains import (
    Domain,
    _homogeneous_subfamily,
    _require_subfamily,
    _tau_homogeneity,
    check_rt_spread,
    check_tau_homogeneous,
)
from .errors import CapacityError, PreconditionError, VerificationError
from .exact import _LN2_HI, _LN2_LO, _as_fraction, frac_log2_bracket
from .family import (
    SetFamily,
    _ENUM_CAP,
    _link_counts,
    bit_subsets,
    canonical,
    element_lists,
    elements_of,
    family_minus,
    report,
    shadow,
    trace_cover,
)
from .packing import find_packing
from .spread import check_spread
from .sunflowers import CoreMode, CorePredicate, find_sunflower, is_sunflower

__all__ = [
    "BoundRecord",
    "DecompositionPart",
    "Decomposition",
    "ExtractionStep",
    "SimplifyResult",
    "CoverResult",
    "SystemSST",
    "ClusterRound",
    "ClusterResult",
    "PeelResult",
    "DeltaFilterResult",
    "spread_approximation",
    "simplify",
    "down_closed_cover",
    "reduce_intersections",
    "cluster_system",
    "peel_high_uniformity",
    "delta_filter",
]


# -- exact scalar plumbing ---------------------------------------------------

_ROOT_BITS = 48
_REPORT_STEPS = 96  # log2 digits behind _ln_bracket and ExtractionThreshold.bracket


# A bracket is an integer triple (lo, hi, d) with d > 0: the interval
# [lo/d, hi/d].  The helpers multiply numerators and denominators and never
# reduce; a rational pair enters through _bracket, and only _record builds
# Fractions, which reduce to the same rationals the report prints.


def _bracket(pair) -> tuple[int, int, int]:
    """The triple of a rational pair (lo, hi), such as a log2 bracket."""
    (a, b), (c, d) = (x.as_integer_ratio() for x in pair)
    return a * d, c * b, b * d


def _ln_bracket(x) -> tuple[int, int, int]:
    """A certified bracket of ln(x) for rational x > 0."""
    return _iv_mul(_bracket(frac_log2_bracket(x, _REPORT_STEPS)), _bracket((_LN2_LO, _LN2_HI)))


def _iv_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods), a[2] * b[2]


def _iv_pow(a: tuple[int, int, int], e: int) -> tuple[int, int, int]:
    """Interval power for nonnegative intervals and e >= 0."""
    if a[0] < 0:
        raise PreconditionError("interval power needs a nonnegative lower end")
    return a[0] ** e, a[1] ** e, a[2] ** e


def _exactly(x) -> tuple[int, int, int]:
    return x.numerator, x.numerator, x.denominator


def _kernel_scale(s: int, t: int, x, *factors) -> tuple[int, int, int]:
    """A certified bracket of (2^14 s log2 x)^t times the brackets in
    ``factors``; exactly 0 at x = 1, where nothing is multiplied."""
    if x == 1:
        return _exactly(0)
    out = _iv_pow(_iv_mul(_exactly(2 ** 14 * s), _bracket(frac_log2_bracket(x))), t)
    for f in factors:
        out = _iv_mul(out, f)
    return out


class BoundRecord(NamedTuple):
    """One checked inequality, both sides exact.

    ``verdict`` is "holds", "fails", or "unresolved" (the rational bracket
    around the right-hand side is too wide to decide).  ``hypotheses_met``
    says whether the large-parameter hypotheses of the statement behind the
    bound hold for this instance; a failing bound with ``hypotheses_met``
    False is expected behaviour at desk scale.
    """

    name: str
    lhs: Fraction
    rhs_lo: Fraction
    rhs_hi: Fraction
    verdict: str
    hypotheses_met: bool = True
    note: str = ""


def _record(
    name: str,
    lhs,
    rhs: tuple[int, int, int],
    hypotheses_met: bool = True,
    note: str = "",
) -> BoundRecord:
    lhs = Fraction(lhs)
    lo, hi, d = rhs
    n, m = lhs.numerator * d, lhs.denominator
    verdict = "holds" if n <= lo * m else "fails" if n > hi * m else "unresolved"
    return BoundRecord(name, lhs, Fraction(lo, d), Fraction(hi, d), verdict, hypotheses_met, note)


def _iroot_floor(n: int, j: int) -> int:
    """floor(n ** (1/j)) by Newton iteration on integers."""
    if n < 0 or j < 1:
        raise PreconditionError("integer root needs n >= 0 and j >= 1", n=n, j=j)
    if n == 0:
        return 0
    if j == 1:
        return n
    x = 1 << (-(-n.bit_length() // j))  # upper seed
    while True:
        y = ((j - 1) * x + n // x ** (j - 1)) // j
        if y >= x:
            return x
        x = y


def _iroot_ceil(n: int, j: int) -> int:
    r = _iroot_floor(n, j)
    return r if r ** j >= n else r + 1


def _min_homogeneity_upper(
    counts: dict[int, int], A: Domain, bits: int = _ROOT_BITS
) -> Fraction:
    """A certified rational upper bound for the least tau making F
    tau-homogeneous in A, for F given by its ``_link_counts``.

    The exact value is max over nonempty X of ratio(X)^(1/|X|), with
    ratio(X) = |F(X)| |A| / (|A(X)| |F|).  Within one size j the largest
    ratio has the largest root, so only the largest |F(X)| / |A(X)| of
    each size is kept (compared cross-multiplied), and each size takes one
    root, rounded up to a dyadic with ``bits`` fractional bits; the result
    is never below the true minimum.
    """
    table = A.table
    peak: dict[int, tuple[int, int]] = {}  # size j -> (|F(X)|, |A(X)|) of the largest ratio
    for X, c in counts.items():
        j = X.bit_count()
        a = table[X]
        got = peak.get(j)
        if got is None or c * got[1] > got[0] * a:
            peak[j] = (c, a)
    scale = 1 << bits
    best = Fraction(0)
    for j, (c, a) in peak.items():
        if j == 0:
            continue
        target = Fraction(c * len(A), a * counts[0]) * scale**j
        m = _iroot_ceil(-(-target.numerator // target.denominator), j)
        best = max(best, Fraction(m, scale))
    return best


def _peel(
    members: Iterable[int], dense: Callable[[int, int, tuple[int, ...]], bool]
) -> Iterator[tuple[Optional[int], tuple[int, ...]]]:
    """Peel stars off ``members``, the largest dense core first.

    Each step tries the submasks of the members left in descending size,
    canonically first among equals, the empty core last: two sorts keyed in
    C, by value and then stably by size, descending.  The first X with
    ``dense(X, |members left containing X|, members left)`` is the core:
    the step yields ``(core, members left)``, then the core's star leaves.
    The counts of the members left are the old counts less the star's, or
    a fresh count when the star is at least as large as what is left, so
    each step counts the smaller side.  When no core is dense, which
    includes no members being left, the last step yields
    ``(None, members left)``.
    """
    members = tuple(members)
    counts = _link_counts(members)
    order = sorted(sorted(counts), key=int.bit_count, reverse=True)
    while True:
        core = next(
            (x for x in order if x in counts and dense(x, counts[x], members)), None
        )
        yield core, members
        if core is None:
            return
        star = [m for m in members if m & core == core]
        members = tuple(m for m in members if m & core != core)
        if len(star) >= len(members):
            counts = _link_counts(members)
            continue
        for x, c in _link_counts(star).items():
            if counts[x] == c:
                del counts[x]
            else:
                counts[x] -= c


# -- the extraction threshold max(s q, 2^14 s log2 t) ------------------------


class ExtractionThreshold:
    """The density scale max(s*q, 2^14 * s * log2(t)), with exact compares.

    For t = 1 the log term vanishes and the scale is the integer s*q.  For t
    a power of two, log2(t) is an integer and the scale is again exact.  In
    every other case log2(t) is irrational, so any strict comparison of
    count * scale^j against an integer is decidable by refining a rational
    bracket: the two sides can never be equal.
    """

    def __init__(self, s: int, q: int, t: int):
        if s < 2 or q < 1 or t < 1:
            raise PreconditionError(
                "threshold needs s >= 2, q >= 1, t >= 1", s=s, q=q, t=t
            )
        self.s, self.q, self.t = s, q, t
        self._scale = 2 ** 14 * s
        base = Fraction(s * q)
        if t == 1:
            self.exact: Optional[Fraction] = base
            return
        if t & (t - 1) == 0:  # power of two, log2 is an integer
            self.exact = max(base, Fraction(self._scale * (t.bit_length() - 1)))
            return
        irrational_wins = self._scaled_log2_satisfies(
            lambda n, d: n >= s * q * d,
            "threshold branch comparison failed to resolve", s=s, q=q, t=t,
        )
        self.exact = None if irrational_wins else base

    def _scaled_log2_satisfies(
        self, pred: Callable[[int, int], bool], message: str, **detail
    ) -> bool:
        """pred(n, d) for n/d = scale * log2(t), pred monotone in n/d.

        The bracket of log2(t) is refined, doubling its steps, until pred
        agrees at both ends, each end read as an integer numerator n over
        its denominator d.  log2(t) is irrational here, so no compare
        against it is an equality and the refinement ends; past 2^20 steps
        (unreachable) it raises ``message``.
        """
        steps = 48
        while steps <= 1 << 20:
            lo, hi = frac_log2_bracket(self.t, steps)
            if pred(self._scale * lo.numerator, lo.denominator):
                return True
            if not pred(self._scale * hi.numerator, hi.denominator):
                return False
            steps *= 2
        raise VerificationError(message, **detail)

    def exceeds(self, count: int, j: int, total: int) -> bool:
        """Decide count * scale^j > total exactly."""
        if j < 0 or count < 0 or total < 0:
            raise PreconditionError("threshold compare on negative inputs")
        if self.exact is not None:
            a = self.exact
            return count * a.numerator ** j > total * a.denominator ** j
        if count == 0 or j == 0:
            return count > total
        return self._scaled_log2_satisfies(
            lambda n, d: count * n**j > total * d**j,
            "threshold comparison failed to resolve",
            count=count, exponent=j, total=total,
        )

    def bracket(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        lo, hi = frac_log2_bracket(self.t, _REPORT_STEPS)
        return self._scale * lo, self._scale * hi

    def spread_ok(self, masks: Sequence[int]) -> bool:
        """Is the collection spread at this scale (every link sparse enough)?"""
        if not masks:
            raise PreconditionError("spreadness of an empty collection is undefined")
        total = len(masks)
        for x, c in _link_counts(masks).items():
            if x and self.exceeds(c, x.bit_count(), total):
                return False
        return True

    # its own: no record, it reports the bracket it computes
    def as_report(self) -> dict:
        lo, hi = self.bracket()
        return {
            "s": self.s,
            "q": self.q,
            "t": self.t,
            "exact": str(self.exact) if self.exact is not None else None,
            "bracket": [str(lo), str(hi)],
        }


# -- decompositions ----------------------------------------------------------


class DecompositionPart(NamedTuple):
    """One piece (S, F_S): the sets that contained core S, with S removed."""

    core: int
    family: SetFamily

    _report_masks = ("core",)


@dataclass(frozen=True)
class Decomposition:
    """A partition of ``source`` into cored parts plus a remainder.

    Exactly one of ``tau`` (homogeneous parts) and ``spread_r`` (spread
    parts) is set.  ``verify`` checks the partition identity and the
    per-part certificate from scratch; it runs when the decomposition is
    built, so a decomposition that fails it never exists.
    """

    source: SetFamily
    domain: Domain
    parts: tuple[DecompositionPart, ...]
    remainder: SetFamily
    q: object  # depth cutoff: an int for homogeneous runs, a Fraction for cover chains
    tau: Optional[Fraction] = None
    spread_r: Optional[Fraction] = None
    measure_floor: Optional[Fraction] = None
    records: tuple[BoundRecord, ...] = ()
    trace: tuple[dict, ...] = ()

    _report_omit = ("source", "domain")
    _report_optional = ("tau", "spread_r", "measure_floor")
    _report_derived = {"q": lambda d: str(d.q)}

    def __post_init__(self) -> None:
        self.verify()

    def verify(self) -> None:
        if (self.tau is None) == (self.spread_r is None):
            raise PreconditionError(
                "exactly one of tau and spread_r must be set on a decomposition"
            )
        seen = set()
        rebuilt = list(self.remainder.members)
        for core, family in self.parts:
            if not family.members:
                raise VerificationError(
                    "decomposition has an empty part",
                    core=list(elements_of(core)),
                )
            if core in seen:
                raise VerificationError("duplicate core", core=list(elements_of(core)))
            seen.add(core)
            for m in family.members:
                if m & core:
                    raise VerificationError(
                        "part member overlaps its own core",
                        core=list(elements_of(core)),
                        member=list(elements_of(m)),
                    )
                rebuilt.append(m | core)
        if sorted(rebuilt) != sorted(self.source.members):
            raise VerificationError(
                "decomposition does not partition its source",
                rebuilt=len(rebuilt),
                source=len(self.source.members),
            )
        for part in self.parts:
            if self.tau is not None:
                sub = self.domain.link_domain(part.core)
                v = check_tau_homogeneous(part.family, sub, self.tau)
                if not v.ok:
                    raise VerificationError(
                        "part is not tau-homogeneous in its link domain",
                        core=list(elements_of(part.core)),
                        worst_x=list(elements_of(v.worst_x)),
                        worst_ratio=str(v.worst_ratio),
                    )
            else:
                v = check_spread(part.family, self.spread_r)
                if not v.ok:
                    raise VerificationError(
                        "part is not spread at the chain parameter",
                        core=list(elements_of(part.core)),
                        violation=list(elements_of(v.violation)),
                    )
            if self.measure_floor is not None:
                mu = Fraction(
                    len(part.family.members), self.domain.link_count(part.core)
                )
                if mu < self.measure_floor:
                    raise VerificationError(
                        "part measure below the requested floor",
                        core=list(elements_of(part.core)),
                        measure=str(mu),
                        floor=str(self.measure_floor),
                    )


def spread_approximation(
    F: SetFamily, A: Domain, tau, q: int, measure_floor=None
) -> Decomposition:
    """Peel dense cores off F until what is left is homogeneous or negligible.

    Repeatedly find the largest S (canonically first among equals) whose link
    is overdense, mu(F_i(S)) > tau^|S| mu(F_i), both measures relative to the
    ambient domain.  A find with |S| <= q becomes the part (S, F_i(S)) and its
    star leaves the family; a find with |S| > q stops the loop with the rest
    as remainder.  When nothing is overdense the family itself is
    tau-homogeneous and becomes the core-free part (with ``measure_floor``
    set, only if its measure clears the floor; otherwise it is remainder).

    The remainder is certified against tau^-(q+1) |A|, with the floor folded
    in when present.  Building the returned decomposition certifies every
    part homogeneous in its link domain.
    """
    tau = _as_fraction(tau, "tau")
    if tau < 1:
        raise PreconditionError("homogeneity parameter must be at least 1", tau=str(tau))
    if q < 0:
        raise PreconditionError("depth cutoff must be nonnegative", q=q)
    floor = None if measure_floor is None else _as_fraction(measure_floor, "floor")
    if floor is not None and floor <= 0:
        raise PreconditionError("measure floor must be positive", floor=str(floor))
    _require_subfamily(F, A)

    asize = len(A)
    table = A.table
    tn, td = tau.numerator, tau.denominator

    def overdense(S: int, c: int, members: tuple[int, ...]) -> bool:
        # strict, so the empty core (c = |members|, table[0] = |A|) never is
        j = S.bit_count()
        return c * td**j * asize > tn**j * len(members) * table[S]

    parts: list[DecompositionPart] = []
    trace: list[dict] = []
    remainder = F.replace_members(())
    stop = "exhausted"
    for best, members in _peel(F.members, overdense):
        if best is None and not members:
            break
        # with no overdense core left the whole family is the part of core 0
        core = best or 0
        link_members = tuple(m & ~core for m in members if m & core == core)
        mu_link = Fraction(len(link_members), table[core])
        below_floor = floor is not None and mu_link < floor
        if core.bit_count() > q:
            reason, detail = "depth", {"core": list(elements_of(core)), "size": len(members)}
        elif below_floor and core:
            reason = "floor"
            detail = {"core": list(elements_of(core)), "link_measure": str(mu_link)}
        elif below_floor:
            reason, detail = "thin", {"size": len(members)}
        else:
            parts.append(DecompositionPart(core, F.replace_members(link_members)))
            trace.append(
                {"action": "part", "core": list(elements_of(core)), "size": len(link_members)}
            )
            if core:
                continue
            stop = "homogeneous"
            break
        remainder = F.replace_members(members)
        stop = reason
        trace.append({"action": "remainder", "reason": reason, **detail})
        break

    rsize = len(remainder.members)
    cap = Fraction(asize) * tau ** -(q + 1)
    if floor is not None:
        cap = max(cap, floor * asize)
    records = [_record("remainder-size", rsize, _exactly(cap))]
    if floor is not None:
        records.append(
            _record(
                "remainder-display",
                rsize,
                _exactly(Fraction(32) * tau ** -q * asize),
                hypotheses_met=floor <= Fraction(16) * tau ** -q,
                note="stated for the canonical floor 16 tau^-q",
            )
        )
    if Fraction(rsize) > cap:
        raise VerificationError(
            "remainder exceeds its certified cap",
            remainder=rsize,
            cap=str(cap),
            stop=stop,
        )

    return Decomposition(
        source=F,
        domain=A,
        parts=tuple(parts),
        remainder=remainder,
        q=q,
        tau=tau,
        measure_floor=floor,
        records=tuple(records),
        trace=tuple(trace),
    )


# -- uniformity reduction (the working-layer procedure) ----------------------


class ExtractionStep(NamedTuple):
    round_index: int
    core: int
    family: SetFamily

    _report_keys = {"round_index": "round", "family": "link"}
    _report_masks = ("core",)


class SimplifyResult(NamedTuple):
    """Outcome of the top-layer peeling loop.

    ``core_family`` is the final t-uniform family; ``layers`` holds the
    residual top layer of each round, and ``stages`` the family at every
    round boundary (stages[0] is the input).  Extractions list each spread
    block removed on the way, in order.
    """

    core_family: SetFamily
    layers: tuple[SetFamily, ...]
    stages: tuple[SetFamily, ...]
    extractions: tuple[ExtractionStep, ...]
    threshold: dict
    eps: Fraction
    records: tuple[BoundRecord, ...] = ()


def _layer_round(
    cur: SetFamily, top_size: int, i: int, dense: Callable[[int, int, tuple[int, ...]], bool]
) -> tuple[tuple[ExtractionStep, ...], tuple[int, ...], list[int]]:
    """Round ``i`` of peeling the top layer, the members of size ``top_size``.

    ``_peel`` takes dense stars off the layer until no core is dense or the
    densest is a whole member.  Returns the extraction of each star (its
    core and link, in order), the residual layer, and the smaller members
    that the round does not touch.  The stars are checked to be exactly
    the members that left the layer.
    """
    top = [m for m in cur.members if m.bit_count() == top_size]
    steps: list[ExtractionStep] = []
    removed: set[int] = set()
    for best, W in _peel(top, dense):
        if best is None or best.bit_count() == top_size:
            break
        block = [m for m in W if m & best == best]
        steps.append(ExtractionStep(i, best, cur.replace_members(m & ~best for m in block)))
        removed.update(block)
    if set(top) - set(W) != removed:
        raise VerificationError("round blocks do not account for the removed sets")
    return tuple(steps), W, [m for m in cur.members if m.bit_count() < top_size]


def _check_st(s: int, t: int) -> None:
    """Refuse a petal count below 2 or a core size below 1."""
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1", s=s, t=t)


def _small_core_sunflower(F: SetFamily, s: int, t: int):
    """An s-sunflower of F with a core below t, members below t counting as
    degenerate ones, or None."""
    return find_sunflower(
        F, CorePredicate(s, CoreMode.AT_MOST, t - 1, degenerate_small_sets=True)
    )


def simplify(S: SetFamily, A: Domain, s: int, t: int, eps) -> SimplifyResult:
    """Reduce a low-set family to a t-uniform core, layer by layer.

    Members must live in the domain shadow, have size at least t, and carry
    no s-sunflower with core smaller than t (small members count as
    degenerate violations).  Rounds peel the top size layer: blocks whose
    link is overdense at the scale max(s*q, 2^14 s log2 t) are extracted as
    spread pieces and replaced by their cores, and whatever survives the
    round is a residual layer.  The final family is t-uniform and free of
    any s-sunflower, both verified exhaustively.
    """
    eps = _as_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie strictly between 0 and 1", eps=str(eps))
    _check_st(s, t)
    if S.ground.n != A.family.ground.n:
        raise PreconditionError("family and domain live on different ground sets")
    table = A.table
    for m in S.members:
        if m not in table:
            raise PreconditionError(
                "member outside the domain shadow", member=list(elements_of(m))
            )
    if not S.members:
        return SimplifyResult(
            core_family=S,
            layers=(),
            stages=(S,),
            extractions=(),
            threshold=report(ExtractionThreshold(s, max(t, 1), t)),
            eps=eps,
        )
    q = max(m.bit_count() for m in S.members)
    if t > q:
        raise PreconditionError(
            "t exceeds the largest member size", t=t, largest=q
        )
    pre = _small_core_sunflower(S, s, t)
    if pre is not None:
        raise PreconditionError(
            "input family carries an s-sunflower with a small core",
            witness=report(pre),
        )
    return _simplify(S, A, s, t, eps, q)[0]


def _simplify(
    S: SetFamily, A: Domain, s: int, t: int, eps: Fraction, q: int
) -> tuple[SimplifyResult, SetFamily]:
    """The layer loop of ``simplify`` on a family that passed its checks,
    with q its largest member size; also the members of S above no core."""
    thr = ExtractionThreshold(s, q, t)
    r = A.nominal_parameters().get("spread_r")
    eps_r_ok = r is not None and eps * r > Fraction(2 ** 17 * s * q)

    def overdense(x: int, c: int, members: tuple[int, ...]) -> bool:
        # strict, so the empty core (c = |members|) never is
        return thr.exceeds(c, x.bit_count(), len(members))

    cur = S
    stages = [S]
    layers: list[SetFamily] = []
    extractions: list[ExtractionStep] = []
    records: list[BoundRecord] = []

    for i in range(q - t):
        top_size = q - i
        steps, W, carry = _layer_round(cur, top_size, i, overdense)
        for step in steps:
            if not thr.spread_ok(step.family.members):
                raise VerificationError(
                    "extracted block is not spread at the working scale",
                    round=i,
                    core=list(elements_of(step.core)),
                )
        extractions.extend(steps)
        layers.append(cur.replace_members(W))
        rhs = _kernel_scale(s, t, top_size, _iv_pow(_bracket(thr.bracket()), top_size - t))
        records.append(
            _record(
                f"layer-{i}",
                len(W),
                rhs,
                hypotheses_met=t >= 2 and eps_r_ok,
                note=f"residual top layer of round {i}",
            )
        )
        cur = cur.replace_members({step.core for step in steps} | set(carry))
        stages.append(cur)
        w = _small_core_sunflower(cur, s, t)
        if w is not None:
            raise VerificationError(
                "a working stage lost sunflower-freeness",
                stage=f"round-{i}",
                witness=report(w),
            )

    core = cur
    for m in core.members:
        if m.bit_count() != t:
            raise VerificationError(
                "final core family is not t-uniform",
                member=list(elements_of(m)),
                t=t,
            )
    # distinct t-sets meet in fewer than t elements, so every s-sunflower of
    # the t-uniform core family has a core of size at most t-1: the last
    # round's stage check, or with no rounds the input check, ruled them out

    uncovered = family_minus(S, trace_cover(S, core))
    # an empty uncovered family needs no member index, which a fresh domain would build
    lhs_total = len(trace_cover(A.family, uncovered, A.index).members) if uncovered.members else 0
    records.append(
        _record(
            "uncovered-ambient",
            lhs_total,
            _kernel_scale(s, t, t, _exactly(eps / (1 - eps) * A.max_link(t)[1])),
            hypotheses_met=t >= 2 and eps_r_ok,
            note="domain members above inputs missed by the core family",
        )
    )

    return SimplifyResult(
        core_family=core,
        layers=tuple(layers),
        stages=tuple(stages),
        extractions=tuple(extractions),
        threshold=report(thr),
        eps=eps,
        records=tuple(records),
    ), uncovered


# -- covering down-closed instances ------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    """A t-uniform cover of a k-uniform family, with the accounting to match.

    ``mode`` is "direct" when the uniformity was already small enough for
    the layer loop, "chain" when a spread peeling chain ran first.  The
    identity F = F[T] + residue is exact by construction.
    """

    source: SetFamily
    mode: str
    core_family: SetFamily
    residue: SetFamily
    decomposition: Optional[Decomposition]
    reduction: Optional[SimplifyResult]
    records: tuple[BoundRecord, ...] = ()
    trace: tuple[dict, ...] = ()

    _report_omit = ("source", "residue")
    _report_optional = ("decomposition", "reduction")
    _report_derived = {"residue_size": lambda c: len(c.residue)}


def down_closed_cover(F: SetFamily, A: Domain, s: int, t: int, w) -> CoverResult:
    """Cover a sunflower-free k-uniform family by a t-uniform core family.

    ``w`` is the depth budget for the spread chain.  If k <= w the layer
    loop runs directly on F.  Otherwise cores with overproportional links
    are peeled at spreadness R = r/2 (r the domain's nominal spreadness)
    until the chain finds only cores that are too deep (stop "depth"), too
    small to be usable (stop "small-core"), or nothing nonempty at all
    (stop "spread"); the leftovers join the residue.  The collected cores
    then go through the layer loop.  The returned core family is t-uniform
    and s-sunflower-free, and F splits exactly into the covered part and
    the residue.
    """
    w = _as_fraction(w, "w")
    if w <= 0:
        raise PreconditionError("depth budget must be positive", w=str(w))
    _check_st(s, t)
    _require_subfamily(F, A)
    k = A.k
    if t > k:
        raise PreconditionError("t exceeds the domain uniformity", t=t, k=k)
    empty = F.replace_members(())
    if not F.members:
        return CoverResult(
            source=F, mode="direct", core_family=empty, residue=empty,
            decomposition=None, reduction=None,
        )
    pre = _small_core_sunflower(F, s, t)
    if pre is not None:
        raise PreconditionError(
            "family carries an s-sunflower with a small core", witness=report(pre)
        )
    r = _nominal_spread(A)
    eps = Fraction(1, 2)

    # hypotheses of the covering statement, decided by brackets
    log2_r = frac_log2_bracket(r)
    log2_k = frac_log2_bracket(k)
    hyp1 = r >= Fraction(2 ** 18 * s * (t + 1)) * log2_r[1]
    hyp2 = r >= Fraction(2 ** 15 * s) * log2_k[1]
    hyps = bool(hyp1 and hyp2)

    records: list[BoundRecord] = []
    trace: list[dict] = []

    if Fraction(k) <= w:
        # F passed every check simplify would make: it is a nonempty
        # k-uniform subfamily of A, t <= k, with no small-core sunflower
        mode, deco = "direct", None
        red, residue = _simplify(F, A, s, t, eps, k)
        core = red.core_family
    else:
        mode = "chain"
        R = r / 2
        Rn, Rd = R.numerator, R.denominator

        def unspread(S: int, c: int, members: tuple[int, ...]) -> bool:
            j = S.bit_count()
            return S != 0 and c * Rn**j >= len(members) * Rd**j

        parts: list[DecompositionPart] = []
        remainder = empty
        stop_core: Optional[int] = None
        stop_reason = "exhausted"
        for best, members in _peel(F.members, unspread):
            if best is None:
                if members:
                    remainder = F.replace_members(members)
                    stop_reason = "spread"
                    trace.append({"action": "stop", "reason": "spread", "left": len(members)})
                break
            bsize = best.bit_count()
            if Fraction(bsize) > w or bsize < t:
                remainder = F.replace_members(members)
                stop_core = best
                stop_reason = "depth" if Fraction(bsize) > w else "small-core"
                trace.append(
                    {"action": "stop", "reason": stop_reason, "core": list(elements_of(best))}
                )
                break
            link_members = tuple(m & ~best for m in members if m & best == best)
            parts.append(DecompositionPart(best, F.replace_members(link_members)))
            trace.append(
                {"action": "part", "core": list(elements_of(best)), "size": len(link_members)}
            )

        deco = Decomposition(
            source=F,
            domain=A,
            parts=tuple(parts),
            remainder=remainder,
            q=w,
            spread_r=R,
            trace=tuple(trace),
        )

        if stop_reason == "depth" and stop_core is not None and stop_core.bit_count() >= t:
            rt = check_rt_spread(A, r, t)
            if rt.ok:
                j = stop_core.bit_count()
                a_t = A.max_link(t)[1]
                cap = R ** j * r ** (t - j) * a_t
                records.append(_record("residue-chain", len(remainder.members), _exactly(cap)))
                if Fraction(len(remainder.members)) > cap:
                    raise VerificationError(
                        "chain remainder exceeds its certified cap",
                        remainder=len(remainder.members),
                        cap=str(cap),
                    )
            else:
                records.append(
                    _record(
                        "residue-chain",
                        len(remainder.members),
                        _exactly(len(remainder.members)),
                        hypotheses_met=False,
                        note="domain is not (r,t)-spread; chain cap not certified",
                    )
                )

        cores = F.replace_members(p.core for p in parts)
        red = simplify(cores, A, s, t, eps) if cores.members else None
        core = empty if red is None else red.core_family
        residue = family_minus(F, trace_cover(F, core))

    rhs = _kernel_scale(
        s, t, t, _exactly(Fraction(2 ** 19 * s * (t + 1)) / r), _bracket(log2_r),
        _exactly(A.max_link(t)[1]),
    )
    records.append(
        _record(
            "cover-remainder",
            len(residue.members),
            rhs,
            hypotheses_met=hyps,
            note="uncovered members against the covering statement",
        )
    )
    return CoverResult(
        source=F, mode=mode, core_family=core, residue=residue,
        decomposition=deco, reduction=red,
        records=tuple(records), trace=tuple(trace),
    )


def _nominal_spread(A: Domain) -> Fraction:
    """The domain's nominal spreadness r; a domain without one is refused."""
    r = A.nominal_parameters().get("spread_r")
    if r is None:
        raise PreconditionError("domain lacks a nominal spreadness", kind=A.kind)
    return r


# -- intersection systems ----------------------------------------------------


_SYSTEM_CAP = 1_000_000  # s-subsets of cores SystemSST.verify may test
_DEEP_CAP = 1_000_000  # nodes its member-per-block searches may take in all


@dataclass(frozen=True)
class SystemSST:
    """Cored blocks whose mutual intersections are controlled two levels
    below t.

    ``verify`` checks, exhaustively: cores have size at least t, no s of
    them form a sunflower with core of size exactly t-1, and whenever s
    distinct cores form a sunflower with core C of size at most t-2, every
    choice of one member per block meets in at most t-|C|-2 elements.  It
    runs when the system is built, so a system that fails it never exists.
    More than ``_SYSTEM_CAP`` s-subsets of cores, or more than ``_DEEP_CAP``
    nodes of the searches over one member per block, raise ``CapacityError``.
    """

    domain: Domain
    s: int
    t: int
    parts: tuple[DecompositionPart, ...]
    records: tuple[BoundRecord, ...] = ()

    _report_omit = ("domain",)

    def __post_init__(self) -> None:
        self.verify()

    def verify(self) -> None:
        _check_st(self.s, self.t)
        amembers = self.domain.family._member_set
        seen = set()
        for core, family in self.parts:
            c = core.bit_count()
            if not self.t <= c <= self.domain.k:
                raise VerificationError(
                    "core size out of range",
                    core=list(elements_of(core)),
                    t=self.t,
                )
            if core in seen:
                raise VerificationError("duplicate core", core=list(elements_of(core)))
            seen.add(core)
            if not family.members:
                raise VerificationError("empty block", core=list(elements_of(core)))
            for m in family.members:
                if m & core or (m | core) not in amembers:
                    raise VerificationError(
                        "block member does not extend its core inside the domain",
                        core=list(elements_of(core)),
                        member=list(elements_of(m)),
                    )
        cores = [p.core for p in self.parts]
        wit = find_sunflower(cores, CorePredicate(self.s, CoreMode.EXACT, self.t - 1))
        if wit is not None:
            raise VerificationError(
                "cores form a sunflower at the forbidden size",
                witness=report(wit),
            )
        if self.t < 2 or len(cores) < self.s:
            return
        subsets = comb(len(cores), self.s)
        if subsets > _SYSTEM_CAP:
            raise CapacityError(
                "system verification capped", cores=len(cores), s=self.s, subsets=subsets,
                cap=_SYSTEM_CAP,
            )
        fam_of = {p.core: p.family for p in self.parts}
        ground_full = (1 << self.domain.family.ground.n) - 1
        budget = [_DEEP_CAP]
        for chosen in combinations(canonical(cores), self.s):
            C = is_sunflower(list(chosen))
            if C is None or C.bit_count() > self.t - 2:
                continue
            cap = self.t - C.bit_count() - 2
            hit = _deep_intersection([fam_of[c] for c in chosen], ground_full, cap, budget)
            if hit is not None:
                raise VerificationError(
                    "block members intersect beyond the allowance",
                    cores=[list(elements_of(c)) for c in chosen],
                    members=[list(elements_of(m)) for m in hit],
                    allowance=cap,
                )


def _deep_intersection(
    fams: list[SetFamily], start: int, cap: int, budget: list[int]
) -> Optional[tuple[int, ...]]:
    """One member per family with intersection above cap, if any exists.

    Each search node takes one from ``budget[0]``; past zero the search
    raises ``CapacityError``.
    """

    def rec(idx: int, inter: int, acc: list[int]):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("system intersection search capped", cap=_DEEP_CAP)
        if inter.bit_count() <= cap:
            return None
        if idx == len(fams):
            return tuple(acc)
        for m in fams[idx].members:
            got = rec(idx + 1, inter & m, acc + [m])
            if got is not None:
                return got
        return None

    return rec(0, start, [])


def reduce_intersections(
    D: Decomposition, A: Domain, s: int, t: int, alpha
) -> SystemSST:
    """Prune each block of a homogeneous decomposition to members whose
    small prefixes are all dense, yielding a verified intersection system.

    Requires a remainder-free tau decomposition of a family with no
    s-sunflower whose core has size exactly t-1, and alpha in (0, 1/(4k)].
    Each pruned block keeps at least a (1 - 2 alpha k) share of its block
    (``homogeneous_subfamily`` asserts the larger share 1 - 2 alpha k' of
    the link's uniformity k' < k), stays homogeneous at the inflated parameter
    tau'/(1 - 2 alpha k) (tau' a certified upper bound on the block's
    minimal homogeneity), and its shadows at every depth stay dense; all
    three facts are asserted.  Building the result verifies its system
    properties exhaustively.

    Each block F is counted once (``_link_counts``), and the count serves
    the pruning (``homogeneous_subfamily``'s checks) and the bound tau'.
    The pruned block U reuses it when nothing was pruned and is counted
    once otherwise.  U's homogeneity is checked from its count, and its
    h-shadow is read as the count's keys of size h, so the floor that
    ``verify_shadow_bound`` states is checked at every depth without a
    recount.
    """
    alpha = _as_fraction(alpha, "alpha")
    if D.tau is None:
        raise PreconditionError("needs a homogeneous (tau) decomposition")
    if D.remainder.members:
        raise PreconditionError(
            "decomposition must carry an empty remainder",
            remainder=len(D.remainder.members),
        )
    if D.domain.family.members != A.family.members:
        raise PreconditionError("decomposition was built over a different domain")
    k = A.k
    if not (0 < alpha and 4 * k * alpha <= 1):  # no 1/(4k) for k = 0
        raise PreconditionError(
            "alpha must lie in (0, 1/(4k)]", alpha=str(alpha), k=k
        )
    _check_st(s, t)
    wit = find_sunflower(D.source, CorePredicate(s, CoreMode.EXACT, t - 1))
    if wit is not None:
        raise PreconditionError(
            "source family has an s-sunflower at the forbidden core size",
            witness=report(wit),
        )

    shrink = 1 - 2 * alpha * k
    parts_out: list[DecompositionPart] = []
    records: list[BoundRecord] = []
    for part in D.parts:
        sub = A.link_domain(part.core)
        if sub.k < 1:
            raise PreconditionError(
                "a block core exhausts the domain uniformity; nothing to prune",
                core=list(elements_of(part.core)),
            )
        fcounts = _link_counts(part.family.members)
        pruned = _homogeneous_subfamily(part.family, fcounts, sub, D.tau, alpha, t)
        U = pruned.family
        # a lower bound on the kept size, so the floor goes on the left
        records.append(
            _record(
                "retained-floor",
                shrink * len(part.family.members),
                _exactly(len(U.members)),
                note=f"kept-size floor, core={list(elements_of(part.core))}",
            )
        )
        tau_prime = min(_min_homogeneity_upper(fcounts, sub), D.tau)
        tau_hat = tau_prime / shrink
        ucounts = fcounts if U is part.family else _link_counts(U.members)
        hv = _tau_homogeneity(ucounts, sub, tau_hat)
        if not hv.ok:
            raise VerificationError(
                "pruned block is not homogeneous at the inflated parameter",
                core=list(elements_of(part.core)),
                tau_hat=str(tau_hat),
                worst_x=list(elements_of(hv.worst_x)),
            )
        # verify_shadow_bound at every depth h: |shadow_h U| tau_hat^h >=
        # |shadow_h A(core)|, each shadow the size-h keys of a count
        ushadow = Counter(map(int.bit_count, ucounts))
        ashadow = Counter(map(int.bit_count, sub.table))
        for h in range(1, sub.k + 1):
            if ushadow[h] * tau_hat.numerator**h < ashadow[h] * tau_hat.denominator**h:
                raise VerificationError(
                    "pruned block shadow below the homogeneity floor",
                    core=list(elements_of(part.core)),
                    depth=h,
                )
        records.append(
            _record(
                "block-homogeneity",
                hv.worst_ratio,
                _exactly(Fraction(1)),
                note=f"core={list(elements_of(part.core))}, tau_hat={tau_hat}",
            )
        )
        parts_out.append(DecompositionPart(part.core, U))

    return SystemSST(
        domain=A, s=s, t=t, parts=tuple(parts_out), records=tuple(records)
    )


# -- clustering a system into few cores --------------------------------------


class ClusterRound(NamedTuple):
    point: int
    captured: SetFamily
    reduction: SimplifyResult

    _report_masks = ("point",)


class ClusterResult(NamedTuple):
    core_family: SetFamily
    rounds: tuple[ClusterRound, ...]
    final_cores: SetFamily
    lam: Fraction
    eps: Fraction
    records: tuple[BoundRecord, ...] = ()

    _report_keys = {"lam": "lambda"}


def _phi_interval(s: int, t: int) -> tuple[int, int, int]:
    """A certified bracket on the largest t-uniform family free of
    s-sunflowers.

    Exact for t = 1 and s = 2; elsewhere a trivial lower end (improved where
    a computed value is on file) against the general upper estimate.
    """
    if t == 1:
        return _exactly(s - 1)
    if s == 2:
        return _exactly(1)
    _, hi, d = _kernel_scale(s, t, t)
    return (6 if (s, t) == (3, 2) else 1) * d, hi, d


def cluster_system(U: SystemSST, A: Domain, lam) -> ClusterResult:
    """Collapse an intersection system onto a small t-uniform core family.

    Every block must put at least a lambda share of the domain's (t-1)
    shadow into its own shadow; a block that misses this is named in the
    error.  While more than 1/lambda cores remain, the (t-1) set lying in
    the most block shadows captures its blocks, which are reduced to a
    t-uniform family; double counting guarantees each sweep captures at
    least a lambda share.  The last few cores get an exact smallest cover.
    """
    lam = _as_fraction(lam, "lam")
    if not 0 < lam <= 1:
        raise PreconditionError("lambda must lie in (0, 1]", lam=str(lam))
    if U.domain.family.members != A.family.members:
        raise PreconditionError("system was built over a different domain")
    s, t = U.s, U.t
    r = _nominal_spread(A)
    eps = Fraction(2) / (r + 2)

    layer = A.shadow_layer(t - 1)
    layer_size = len(layer)
    shadows: dict[int, set[int]] = {}
    for part in U.parts:
        sh = set(shadow(part.family, t - 1).members)
        if len(sh) * lam.denominator < layer_size * lam.numerator:
            raise PreconditionError(
                "block shadow too thin for this lambda",
                core=list(elements_of(part.core)),
                share=str(Fraction(len(sh), layer_size)),
                lam=str(lam),
            )
        shadows[part.core] = sh

    fam_of = {p.core: p.family for p in U.parts}
    active = canonical(shadows)
    n_start = len(active)
    rounds: list[ClusterRound] = []
    collected: list[SetFamily] = []
    while len(active) * lam.numerator > lam.denominator:
        best_h, best_count = None, -1
        for H in layer:
            c = sum(1 for S in active if H in shadows[S])
            if c > best_count:
                best_h, best_count = H, c
        if best_count * lam.denominator < len(active) * lam.numerator:
            # double counting over the precondition makes this unreachable
            raise VerificationError(
                "no shadow point captures a lambda share", active=len(active)
            )
        captured = [S for S in active if best_h in shadows[S]]
        capfam = A.family.replace_members(captured)
        red = simplify(capfam, A, s, t, eps)
        rounds.append(ClusterRound(best_h, capfam, red))
        collected.append(red.core_family)
        active = [S for S in active if best_h not in shadows[S]]

    final = _smallest_cover(active, t, A)
    collected.append(final)
    out = A.family.replace_members(
        m for fam in collected for m in fam.members
    )

    q = max((p.core.bit_count() for p in U.parts), default=t)
    shadow_count = len(A.shadow_upto(q))
    ln_shadow = _ln_bracket(lam * shadow_count)
    phi = _phi_interval(s, t)
    eps_r_ok = eps * r > Fraction(2 ** 17 * s * q)
    lo, hi, d = _iv_mul(phi, ln_shadow)
    records = [
        _record(
            "cluster-count",
            len(out.members),
            _iv_mul(_exactly(1 / lam), (d + 2 * lo, d + 2 * hi, d)),
            hypotheses_met=eps_r_ok,
            note="total cores against the clustering statement",
        ),
    ]
    if lam * n_start > 1:
        ln_start = _ln_bracket(lam * n_start)
        m_rhs = _iv_mul(_exactly(2 / lam), ln_start)
    else:
        m_rhs = _exactly(0)
    records.append(
        _record("sweep-count", len(rounds), m_rhs, note="capture sweeps used")
    )
    covered_cores = {
        S for S in shadows if any(S & T == T for T in out.members)
    }
    left = sum(len(fam_of[S].members) for S in shadows if S not in covered_cores)
    rem_rhs = _kernel_scale(
        s, t, t, _exactly(Fraction(4) / (lam * r)), ln_shadow, _exactly(A.max_link(t)[1])
    )
    records.append(
        _record(
            "cluster-remainder",
            left,
            rem_rhs,
            hypotheses_met=eps_r_ok,
            note="block mass left uncovered by the core family",
        )
    )
    return ClusterResult(
        core_family=out,
        rounds=tuple(rounds),
        final_cores=final,
        lam=lam,
        eps=eps,
        records=tuple(records),
    )


_COVER_CAP = 100_000  # candidate families _smallest_cover may try


def _smallest_cover(cores: list[int], t: int, A: Domain) -> SetFamily:
    """The smallest t-uniform family covering every core, canonically first.

    Tries the candidate families smallest first and refuses with a
    ``CapacityError`` after ``_COVER_CAP`` of them.
    """
    if not cores:
        return A.family.replace_members(())
    pool = canonical({x for S in cores for x in bit_subsets(S, t)})
    combos = chain.from_iterable(combinations(pool, size) for size in range(1, len(pool) + 1))
    for tried, combo in enumerate(combos):
        if tried == _COVER_CAP:
            raise CapacityError(
                "smallest cover search capped", cores=len(cores), pool=len(pool), cap=_COVER_CAP
            )
        if all(any(S & T == T for T in combo) for S in cores):
            return A.family.replace_members(combo)
    raise VerificationError("no cover exists; a core must be smaller than t")


# -- peeling high uniformity down to roughly 2t ------------------------------


class PeelResult(NamedTuple):
    """Outcome of peeling a k-uniform family down to sizes 2t and 2t+1.

    ``t_layers`` holds the family at every round boundary (first entry is
    the input), ``u_layers`` the small cores set aside per round, and
    ``w_layers`` the residual top layers.  ``cover_counts`` reports, per
    round, how many current members contain one of the small cores; the
    statement's constant for that count is not certified here.
    """

    core_family: SetFamily
    t_layers: tuple[SetFamily, ...]
    u_layers: tuple[SetFamily, ...]
    w_layers: tuple[SetFamily, ...]
    extractions: tuple[ExtractionStep, ...]
    cover_counts: tuple[int, ...]
    records: tuple[BoundRecord, ...] = ()


def peel_high_uniformity(F: SetFamily, s: int, t: int) -> PeelResult:
    """Peel a k-uniform family with no s-sunflower at core size t-1 down to
    members of size 2t and 2t+1.

    Rounds peel the top size layer at spreadness s*k: any block of the
    layer whose link is (s*k)-spread is extracted (largest core first, the
    empty core takes the whole layer), cores above 2t-1 rejoin the family
    and smaller ones are set aside.  The union of all stages and set-aside
    cores is verified free of s-sunflowers at core size t-1, which is what
    makes the peeled family usable in place of the original.
    """
    _check_st(s, t)
    if not F.members:
        raise PreconditionError("peeling needs a nonempty family")
    sizes = {m.bit_count() for m in F.members}
    if len(sizes) != 1:
        raise PreconditionError("peeling needs a uniform family", sizes=sorted(sizes))
    k = sizes.pop()
    if k < 2 * t + 1:
        raise PreconditionError(
            "uniformity must be at least 2t+1", k=k, t=t
        )
    if k > 2 * t + 1 and 1 << k > _ENUM_CAP:  # a round counts every submask of the top layer
        raise CapacityError("peeling counts too many subsets", k=k, cap=_ENUM_CAP)
    wit = find_sunflower(F, CorePredicate(s, CoreMode.EXACT, t - 1))
    if wit is not None:
        raise PreconditionError(
            "family carries an s-sunflower at the forbidden core size",
            witness=report(wit),
        )
    alpha = s * k

    cur = F
    t_layers = [F]
    u_layers: list[SetFamily] = []
    w_layers: list[SetFamily] = []
    extractions: list[ExtractionStep] = []
    records: list[BoundRecord] = []
    for i in range(k - 2 * t - 1):
        top_size = k - i

        def spread_link(x: int, c: int, members: tuple[int, ...]) -> bool:
            # the c link members have size j = top_size - |x|; with c < alpha^j
            # each one is its own spreadness violation
            j = top_size - x.bit_count()
            return j > 0 and c >= alpha**j and check_spread(
                F.replace_members(m & ~x for m in members if m & x == x), alpha
            ).ok

        steps, W, carry = _layer_round(cur, top_size, i, spread_link)
        extractions.extend(steps)
        big = [e.core for e in steps if e.core.bit_count() > 2 * t - 1]
        small = [e.core for e in steps if e.core.bit_count() <= 2 * t - 1]
        w_layers.append(cur.replace_members(W))
        cap = alpha ** top_size
        records.append(_record(f"residual-{i}", len(W), _exactly(cap)))
        if len(W) > cap:
            raise VerificationError(
                "residual layer exceeds its spread cap", round=i, size=len(W)
            )
        u_layers.append(cur.replace_members(small))
        cur = cur.replace_members(set(big) | set(carry))
        t_layers.append(cur)

    for m in cur.members:
        if m.bit_count() not in (2 * t, 2 * t + 1):
            raise VerificationError(
                "peeled member has an unexpected size",
                member=list(elements_of(m)), t=t,
            )
    everything = F.replace_members(
        {m for fam in t_layers for m in fam.members}
        | {m for fam in u_layers for m in fam.members}
    )
    stray = find_sunflower(everything, CorePredicate(s, CoreMode.EXACT, t - 1))
    if stray is not None:
        raise VerificationError(
            "a stage or set-aside core recreated a forbidden sunflower",
            witness=report(stray),
        )
    cover_counts = tuple(
        len(trace_cover(t_layers[i], u_layers[i]).members)
        if u_layers[i].members
        else 0
        for i in range(len(u_layers))
    )
    return PeelResult(
        core_family=cur,
        t_layers=tuple(t_layers),
        u_layers=tuple(u_layers),
        w_layers=tuple(w_layers),
        extractions=tuple(extractions),
        cover_counts=cover_counts,
        records=tuple(records),
    )


# -- the petal-count filter --------------------------------------------------


class DeltaFilterResult(NamedTuple):
    """Greatest subfamily in which every member anchors a rich tail.

    ``chosen`` pairs each surviving member with its anchor, the
    lexicographically least t-subset all of whose proper extensions inside
    the member are cores of p-petal sunflowers of the surviving family.
    """

    family: SetFamily
    chosen: tuple[tuple[int, int], ...]
    removed: SetFamily
    rounds: int

    _report_derived = {"chosen": lambda r: [
        dict(zip(("member", "anchor"), element_lists(pair))) for pair in r.chosen]}


def _delta_anchor(
    m: int, G: SetFamily, p: int, t: int, verdicts: dict[int, bool]
) -> Optional[int]:
    """The lex-least valid t-subset of m, by element tuples, or None;
    ``bit_subsets`` yields the t-subsets in that order.

    ``verdicts`` caches, per core E, whether E has p disjoint petals in G; it
    must only be shared between calls on the same G.
    """
    members = G.members
    for T in bit_subsets(m, t):
        ok = True
        rest = m & ~T
        for j in range(0, rest.bit_count()):
            for extra in bit_subsets(rest, j):
                E = T | extra
                ok = verdicts.get(E)
                if ok is None:
                    petals = [g & ~E for g in members if g & E == E]
                    ok = verdicts[E] = find_packing(petals, p) is not None
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return T
    return None


_ANCHOR_CAP = 100_000  # (T, E) pairs per member delta_filter may test


def delta_filter(F: SetFamily, p: int, t: int) -> DeltaFilterResult:
    """Greatest fixed point of discarding members with no valid anchor.

    A t-subset T of a member m is valid when every E with T <= E < m is the
    core of a sunflower with p petals inside the current family.  Members
    without a valid T are dropped, all at once per round, until nothing
    changes; the scan order cannot influence the result.  The anchor map is
    the last round's, the round that found every member of the fixed point
    anchored.  A member has C(k, t) (2^(k-t) - 1) pairs (T, E) to test; more
    than ``_ANCHOR_CAP`` raise ``CapacityError`` before any search.
    """
    if p < 2:
        raise PreconditionError("petal count must be at least 2", p=p)
    if not F.members:
        return DeltaFilterResult(F, (), F, 0)
    sizes = {m.bit_count() for m in F.members}
    if len(sizes) != 1:
        raise PreconditionError("filter needs a uniform family", sizes=sorted(sizes))
    k = sizes.pop()
    if not 1 <= t <= k:
        raise PreconditionError("anchor size must lie in 1..k", t=t, k=k)
    pairs = comb(k, t) * ((1 << (k - t)) - 1)
    if pairs > _ANCHOR_CAP:
        raise CapacityError("anchor search capped", k=k, t=t, pairs=pairs, cap=_ANCHOR_CAP)

    G = F
    rounds = 0
    while True:
        rounds += 1
        verdicts: dict[int, bool] = {}
        anchors = ((m, _delta_anchor(m, G, p, t, verdicts)) for m in G.members)
        chosen = [(m, T) for m, T in anchors if T is not None]
        if len(chosen) == len(G.members):
            break
        G = G.replace_members(m for m, _ in chosen)
        if not G.members:
            break
    return DeltaFilterResult(
        family=G,
        chosen=tuple(chosen),
        removed=family_minus(F, G),
        rounds=rounds,
    )
