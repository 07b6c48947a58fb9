"""Structural decomposition pipelines for sunflower-free families.

Every operation takes an explicit family (usually with an ambient domain),
produces a decomposition or a core family, and re-verifies the claims it is
named after before returning.  Nothing here is sampled.  All certificates are
exact integer or rational comparisons; inequalities whose right-hand side
involves a logarithm are reported as three-way verdicts computed from
certified rational brackets, never from floats.

Hard guarantees (facts that follow from the construction at every scale) are
asserted and raise :class:`VerificationError` when violated.  Guarantees that
only hold under large-parameter hypotheses are recorded as
:class:`BoundRecord` entries with a ``hypotheses_met`` flag, so a "fails"
verdict on a desk-scale instance is information rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .domains import (
    Domain,
    check_rt_spread,
    check_tau_homogeneous,
    homogeneous_subfamily,
    verify_shadow_bound,
)
from .errors import PreconditionError, VerificationError
from .family import (
    SetFamily,
    bit_subsets,
    canon_key,
    elements_of,
    family_minus,
    shadow,
    submasks,
    trace_cover,
)
from .packing import matching_number
from .spread import _LN2_HI, _LN2_LO, _as_fraction, _link_counts, check_spread, frac_log2_bracket
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


def _ln_bracket(x, steps: int = 96) -> tuple[Fraction, Fraction]:
    """A certified rational bracket of ln(x) for rational x > 0."""
    lo2, hi2 = frac_log2_bracket(x, steps)
    prods = (lo2 * _LN2_LO, lo2 * _LN2_HI, hi2 * _LN2_LO, hi2 * _LN2_HI)
    return min(prods), max(prods)


def _iv_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def _iv_pow(a: tuple[Fraction, Fraction], e: int) -> tuple[Fraction, Fraction]:
    """Interval power for nonnegative intervals and e >= 0."""
    if a[0] < 0:
        raise PreconditionError("interval power needs a nonnegative lower end")
    return a[0] ** e, a[1] ** e


def _exactly(x) -> tuple[Fraction, Fraction]:
    f = Fraction(x)
    return f, f


def _verdict(lhs: Fraction, rhs_lo: Fraction, rhs_hi: Fraction) -> str:
    if lhs <= rhs_lo:
        return "holds"
    if lhs > rhs_hi:
        return "fails"
    return "unresolved"


@dataclass(frozen=True)
class BoundRecord:
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

    def as_report(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs_lo": str(self.rhs_lo),
            "rhs_hi": str(self.rhs_hi),
            "verdict": self.verdict,
            "hypotheses_met": self.hypotheses_met,
            "note": self.note,
        }


def _record(
    name: str,
    lhs,
    rhs: tuple[Fraction, Fraction],
    hypotheses_met: bool = True,
    note: str = "",
) -> BoundRecord:
    lhs = Fraction(lhs)
    lo, hi = rhs
    return BoundRecord(name, lhs, lo, hi, _verdict(lhs, lo, hi), hypotheses_met, note)


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


def _min_homogeneity_upper(F: SetFamily, A: Domain, bits: int = _ROOT_BITS) -> Fraction:
    """A certified rational upper bound for the least tau making F
    tau-homogeneous in A.

    The exact value is max over nonempty X of ratio(X)^(1/|X|); each root is
    rounded up to a dyadic with ``bits`` fractional bits, so the result is
    never below the true minimum.
    """
    table = A.table
    counts = _link_counts(F)
    scale = 1 << bits
    best = Fraction(0)
    for X, c in counts.items():
        if X == 0:
            continue
        j = X.bit_count()
        ratio = Fraction(c * len(A), table[X] * len(F))
        target = ratio * Fraction(scale) ** j
        n_int = -(-target.numerator // target.denominator)
        m = _iroot_ceil(n_int, j)
        cand = Fraction(m, scale)
        if cand > best:
            best = cand
    return best


def _pick_largest(cands: Iterable[int]) -> Optional[int]:
    """Largest-size candidate, canonically first among equals."""
    best = None
    for x in cands:
        if best is None:
            best = x
        elif x.bit_count() > best.bit_count() or (
            x.bit_count() == best.bit_count() and canon_key(x) < canon_key(best)
        ):
            best = x
    return best


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
        self._scale = Fraction(2 ** 14 * s)
        base = Fraction(s * q)
        if t == 1:
            self.exact: Optional[Fraction] = base
            return
        if t & (t - 1) == 0:  # power of two, log2 is an integer
            self.exact = max(base, self._scale * (t.bit_length() - 1))
            return
        steps = 48
        while True:
            lo, hi = frac_log2_bracket(t, steps)
            if self._scale * lo >= base:
                self.exact = None  # irrational branch wins
                return
            if self._scale * hi < base:
                self.exact = base
                return
            steps *= 2
            if steps > 1 << 20:  # unreachable: the bracket collapses to a point
                raise VerificationError(
                    "threshold branch comparison failed to resolve", s=s, q=q, t=t
                )

    def exceeds(self, count: int, j: int, total: int) -> bool:
        """Decide count * scale^j > total exactly."""
        if j < 0 or count < 0 or total < 0:
            raise PreconditionError("threshold compare on negative inputs")
        if self.exact is not None:
            a = self.exact
            return count * a.numerator ** j > total * a.denominator ** j
        if count == 0 or j == 0:
            return count > total
        steps = 48
        while True:
            lo, hi = frac_log2_bracket(self.t, steps)
            if count * (self._scale * lo) ** j > total:
                return True
            if count * (self._scale * hi) ** j <= total:
                return False
            steps *= 2
            if steps > 1 << 20:
                raise VerificationError(
                    "threshold comparison failed to resolve",
                    count=count, exponent=j, total=total,
                )

    def bracket(self, steps: int = 96) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        lo, hi = frac_log2_bracket(self.t, steps)
        return self._scale * lo, self._scale * hi

    def spread_ok(self, masks: Sequence[int]) -> bool:
        """Is the collection spread at this scale (every link sparse enough)?"""
        if not masks:
            raise PreconditionError("spreadness of an empty collection is undefined")
        counts: dict[int, int] = {}
        for m in masks:
            for x in submasks(m):
                counts[x] = counts.get(x, 0) + 1
        total = len(masks)
        for x, c in counts.items():
            if x and self.exceeds(c, x.bit_count(), total):
                return False
        return True

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


@dataclass(frozen=True)
class DecompositionPart:
    """One piece (S, F_S): the sets that contained core S, with S removed."""

    core: int
    family: SetFamily

    def as_report(self) -> dict:
        return {
            "core": list(elements_of(self.core)),
            "family": self.family.as_sets(),
        }


@dataclass(frozen=True)
class Decomposition:
    """A partition of ``source`` into cored parts plus a remainder.

    Exactly one of ``tau`` (homogeneous parts) and ``spread_r`` (spread
    parts) is set; ``verify`` re-checks the partition identity and the
    per-part certificate from scratch.
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

    def cores(self) -> SetFamily:
        return self.source.replace_members(p.core for p in self.parts)

    def verify(self) -> None:
        if (self.tau is None) == (self.spread_r is None):
            raise PreconditionError(
                "exactly one of tau and spread_r must be set on a decomposition"
            )
        seen = set()
        rebuilt = list(self.remainder.members)
        for part in self.parts:
            if not part.family.members:
                raise VerificationError(
                    "decomposition has an empty part",
                    core=list(elements_of(part.core)),
                )
            if part.core in seen:
                raise VerificationError(
                    "duplicate core", core=list(elements_of(part.core))
                )
            seen.add(part.core)
            for m in part.family.members:
                if m & part.core:
                    raise VerificationError(
                        "part member overlaps its own core",
                        core=list(elements_of(part.core)),
                        member=list(elements_of(m)),
                    )
                rebuilt.append(m | part.core)
        if sorted(rebuilt) != sorted(self.source.members):
            raise VerificationError(
                "decomposition does not partition its source",
                rebuilt=len(rebuilt),
                source=len(self.source.members),
            )
        for part in self.parts:
            sub = self.domain if part.core == 0 else self.domain.link_domain(part.core)
            if self.tau is not None:
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

    def as_report(self) -> dict:
        out = {
            "parts": [p.as_report() for p in self.parts],
            "remainder": self.remainder.as_sets(),
            "q": str(self.q),
            "records": [r.as_report() for r in self.records],
            "trace": list(self.trace),
        }
        if self.tau is not None:
            out["tau"] = str(self.tau)
        if self.spread_r is not None:
            out["spread_r"] = str(self.spread_r)
        if self.measure_floor is not None:
            out["measure_floor"] = str(self.measure_floor)
        return out


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
    in when present.  Every part is re-certified homogeneous in its link
    domain before returning.
    """
    tau = _as_fraction(tau, "tau")
    if tau < 1:
        raise PreconditionError("homogeneity parameter must be at least 1", tau=str(tau))
    if q < 0:
        raise PreconditionError("depth cutoff must be nonnegative", q=q)
    floor = None if measure_floor is None else _as_fraction(measure_floor, "floor")
    if floor is not None and floor <= 0:
        raise PreconditionError("measure floor must be positive", floor=str(floor))
    if F.ground.n != A.family.ground.n:
        raise PreconditionError("family and domain live on different ground sets")
    amembers = A.family._member_set
    for m in F.members:
        if m not in amembers:
            raise PreconditionError(
                "family member outside the domain", member=list(elements_of(m))
            )

    asize = len(A)
    parts: list[DecompositionPart] = []
    trace: list[dict] = []
    cur = F
    remainder = F.replace_members(())
    stop = "exhausted"
    while cur.members:
        counts = _link_counts(cur)
        fsize = len(cur.members)
        best = _pick_largest(
            S
            for S, c in counts.items()
            if S != 0
            and c * tau.denominator ** S.bit_count() * asize
            > tau.numerator ** S.bit_count() * fsize * A.table[S]
        )
        if best is None:
            mu = Fraction(fsize, asize)
            if floor is not None and mu < floor:
                remainder = cur
                stop = "thin"
                trace.append({"action": "remainder", "reason": "thin", "size": fsize})
                break
            parts.append(DecompositionPart(0, cur))
            trace.append({"action": "part", "core": [], "size": fsize})
            cur = cur.replace_members(())
            stop = "homogeneous"
            break
        bsize = best.bit_count()
        link_members = tuple(m & ~best for m in cur.members if m & best == best)
        if bsize > q:
            remainder = cur
            stop = "depth"
            trace.append(
                {
                    "action": "remainder",
                    "reason": "depth",
                    "core": list(elements_of(best)),
                    "size": fsize,
                }
            )
            break
        mu_link = Fraction(len(link_members), A.table[best])
        if floor is not None and mu_link < floor:
            remainder = cur
            stop = "floor"
            trace.append(
                {
                    "action": "remainder",
                    "reason": "floor",
                    "core": list(elements_of(best)),
                    "link_measure": str(mu_link),
                }
            )
            break
        parts.append(DecompositionPart(best, cur.replace_members(link_members)))
        trace.append(
            {
                "action": "part",
                "core": list(elements_of(best)),
                "size": len(link_members),
            }
        )
        cur = cur.replace_members(m for m in cur.members if m & best != best)

    records = []
    rsize = len(remainder.members)
    plain_cap = Fraction(asize) * tau ** -(q + 1)
    if floor is None:
        cap = plain_cap
        records.append(_record("remainder-size", rsize, _exactly(cap)))
    else:
        cap = max(plain_cap, floor * asize)
        records.append(_record("remainder-size", rsize, _exactly(cap)))
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

    out = Decomposition(
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
    out.verify()
    return out


# -- uniformity reduction (the working-layer procedure) ----------------------


@dataclass(frozen=True)
class ExtractionStep:
    round_index: int
    core: int
    family: SetFamily

    def as_report(self) -> dict:
        return {
            "round": self.round_index,
            "core": list(elements_of(self.core)),
            "link": self.family.as_sets(),
        }


@dataclass(frozen=True)
class SimplifyResult:
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

    def as_report(self) -> dict:
        return {
            "core_family": self.core_family.as_sets(),
            "layers": [w.as_sets() for w in self.layers],
            "stages": [s.as_sets() for s in self.stages],
            "extractions": [e.as_report() for e in self.extractions],
            "threshold": self.threshold,
            "eps": str(self.eps),
            "records": [r.as_report() for r in self.records],
        }


def _stage_consistency(fam: SetFamily, s: int, t: int, where: str) -> None:
    w = find_sunflower(
        fam, CorePredicate(s, CoreMode.AT_MOST, t - 1, degenerate_small_sets=True)
    )
    if w is not None:
        raise VerificationError(
            "a working stage lost sunflower-freeness",
            stage=where,
            witness=w.as_report(),
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
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1", s=s, t=t)
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
            threshold=ExtractionThreshold(s, max(t, 1), t).as_report(),
            eps=eps,
        )
    q = max(m.bit_count() for m in S.members)
    if t > q:
        raise PreconditionError(
            "t exceeds the largest member size", t=t, largest=q
        )
    pre = find_sunflower(
        S, CorePredicate(s, CoreMode.AT_MOST, t - 1, degenerate_small_sets=True)
    )
    if pre is not None:
        raise PreconditionError(
            "input family carries an s-sunflower with a small core",
            witness=pre.as_report(),
        )

    thr = ExtractionThreshold(s, q, t)
    nominal = A.nominal_parameters()
    eps_r_ok = False
    if "spread_r" in nominal:
        eps_r_ok = eps * nominal["spread_r"] > Fraction(2 ** 17 * s * q)

    cur = S
    stages = [S]
    layers: list[SetFamily] = []
    extractions: list[ExtractionStep] = []
    records: list[BoundRecord] = []

    for i in range(q - t):
        top_size = q - i
        top = [m for m in cur.members if m.bit_count() == top_size]
        carry = [m for m in cur.members if m.bit_count() < top_size]
        W = list(top)
        round_cores: list[int] = []
        block_union: set[int] = set()
        while W:
            counts: dict[int, int] = {}
            for m in W:
                for x in submasks(m):
                    counts[x] = counts.get(x, 0) + 1
            best = _pick_largest(
                x
                for x, c in counts.items()
                if x != 0 and thr.exceeds(c, x.bit_count(), len(W))
            )
            if best is None or best.bit_count() == top_size:
                break
            block = [m for m in W if m & best == best]
            link_members = tuple(m & ~best for m in block)
            if not thr.spread_ok(link_members):
                raise VerificationError(
                    "extracted block is not spread at the working scale",
                    round=i,
                    core=list(elements_of(best)),
                )
            extractions.append(
                ExtractionStep(i, best, cur.replace_members(link_members))
            )
            round_cores.append(best)
            block_union.update(block)
            W = [m for m in W if m & best != best]
        # round partition identity: removed top sets are exactly the blocks
        if set(top) - set(W) != block_union:
            raise VerificationError("round blocks do not account for the removed sets")
        residual = cur.replace_members(W)
        layers.append(residual)
        log_top = frac_log2_bracket(top_size)
        rhs = _iv_mul(
            _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_top), t),
            _iv_pow(thr.bracket(), top_size - t),
        )
        records.append(
            _record(
                f"layer-{i}",
                len(W),
                rhs,
                hypotheses_met=t >= 2 and eps_r_ok,
                note=f"residual top layer of round {i}",
            )
        )
        cur = cur.replace_members(set(round_cores) | set(carry))
        stages.append(cur)
        _stage_consistency(cur, s, t, where=f"round-{i}")

    core = cur
    for m in core.members:
        if m.bit_count() != t:
            raise VerificationError(
                "final core family is not t-uniform",
                member=list(elements_of(m)),
                t=t,
            )
    stray = find_sunflower(core, CorePredicate(s))
    if stray is not None:
        raise VerificationError(
            "final core family contains an s-sunflower", witness=stray.as_report()
        )

    covered = trace_cover(S, core)
    uncovered = family_minus(S, covered)
    lhs_total = len(trace_cover(A.family, uncovered).members)
    if t == 1:
        rhs_total = _exactly(0)
    else:
        log_t = frac_log2_bracket(t)
        rhs_total = _iv_mul(
            _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t),
            _exactly(eps / (1 - eps) * A.max_link(t)[1]),
        )
    records.append(
        _record(
            "uncovered-ambient",
            lhs_total,
            rhs_total,
            hypotheses_met=t >= 2 and eps_r_ok,
            note="domain members above inputs missed by the core family",
        )
    )

    return SimplifyResult(
        core_family=core,
        layers=tuple(layers),
        stages=tuple(stages),
        extractions=tuple(extractions),
        threshold=thr.as_report(),
        eps=eps,
        records=tuple(records),
    )


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

    def as_report(self) -> dict:
        out = {
            "mode": self.mode,
            "core_family": self.core_family.as_sets(),
            "residue_size": len(self.residue.members),
            "records": [r.as_report() for r in self.records],
            "trace": list(self.trace),
        }
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.as_report()
        if self.reduction is not None:
            out["reduction"] = self.reduction.as_report()
        return out


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
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1", s=s, t=t)
    if F.ground.n != A.family.ground.n:
        raise PreconditionError("family and domain live on different ground sets")
    amembers = A.family._member_set
    for m in F.members:
        if m not in amembers:
            raise PreconditionError(
                "family member outside the domain", member=list(elements_of(m))
            )
    k = A.k
    if t > k:
        raise PreconditionError("t exceeds the domain uniformity", t=t, k=k)
    empty = F.replace_members(())
    if not F.members:
        return CoverResult(
            source=F, mode="direct", core_family=empty, residue=empty,
            decomposition=None, reduction=None,
        )
    pre = find_sunflower(
        F, CorePredicate(s, CoreMode.AT_MOST, t - 1, degenerate_small_sets=True)
    )
    if pre is not None:
        raise PreconditionError(
            "family carries an s-sunflower with a small core", witness=pre.as_report()
        )
    nominal = A.nominal_parameters()
    if "spread_r" not in nominal:
        raise PreconditionError(
            "domain lacks a nominal spreadness", kind=A.kind
        )
    r = nominal["spread_r"]
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
        red = simplify(F, A, s, t, eps)
        core = red.core_family
        residue = family_minus(F, trace_cover(F, core))
        records.extend(_cover_remainder_record(residue, A, s, t, r, hyps))
        return CoverResult(
            source=F, mode="direct", core_family=core, residue=residue,
            decomposition=None, reduction=red,
            records=tuple(records), trace=tuple(trace),
        )

    R = r / 2
    cur = F
    parts: list[DecompositionPart] = []
    remainder = empty
    stop_core: Optional[int] = None
    stop_reason = "exhausted"
    while cur.members:
        counts = _link_counts(cur)
        fsize = len(cur.members)
        best = _pick_largest(
            S
            for S, c in counts.items()
            if S != 0
            and c * R.numerator ** S.bit_count() >= fsize * R.denominator ** S.bit_count()
        )
        if best is None:
            remainder = cur
            stop_reason = "spread"
            trace.append({"action": "stop", "reason": "spread", "left": fsize})
            break
        bsize = best.bit_count()
        if Fraction(bsize) > w:
            remainder = cur
            stop_core = best
            stop_reason = "depth"
            trace.append(
                {"action": "stop", "reason": "depth", "core": list(elements_of(best))}
            )
            break
        if bsize < t:
            remainder = cur
            stop_core = best
            stop_reason = "small-core"
            trace.append(
                {
                    "action": "stop",
                    "reason": "small-core",
                    "core": list(elements_of(best)),
                }
            )
            break
        link_members = tuple(m & ~best for m in cur.members if m & best == best)
        parts.append(DecompositionPart(best, cur.replace_members(link_members)))
        trace.append(
            {"action": "part", "core": list(elements_of(best)), "size": len(link_members)}
        )
        cur = cur.replace_members(m for m in cur.members if m & best != best)

    deco = Decomposition(
        source=F,
        domain=A,
        parts=tuple(parts),
        remainder=remainder,
        q=w,
        spread_r=R,
        trace=tuple(trace),
    )
    deco.verify()

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
    if cores.members:
        red = simplify(cores, A, s, t, eps)
        core = red.core_family
    else:
        red = None
        core = empty
    residue = family_minus(F, trace_cover(F, core))
    records.extend(_cover_remainder_record(residue, A, s, t, r, hyps))
    return CoverResult(
        source=F, mode="chain", core_family=core, residue=residue,
        decomposition=deco, reduction=red,
        records=tuple(records), trace=tuple(trace),
    )


def _cover_remainder_record(
    residue: SetFamily, A: Domain, s: int, t: int, r: Fraction, hyps: bool
) -> list[BoundRecord]:
    a_t = A.max_link(t)[1]
    if t == 1:
        rhs = _exactly(0)
    else:
        log_t = frac_log2_bracket(t)
        log2_r = frac_log2_bracket(r)
        rhs = _iv_mul(
            _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t),
            _iv_mul(
                _iv_mul(_exactly(Fraction(2 ** 19 * s * (t + 1), 1) / r), log2_r),
                _exactly(a_t),
            ),
        )
    return [
        _record(
            "cover-remainder",
            len(residue.members),
            rhs,
            hypotheses_met=hyps,
            note="uncovered members against the covering statement",
        )
    ]


# -- intersection systems ----------------------------------------------------


@dataclass(frozen=True)
class SystemSST:
    """Cored blocks whose mutual intersections are controlled two levels
    below t.

    ``verify`` checks, exhaustively: cores have size at least t, no s of
    them form a sunflower with core of size exactly t-1, and whenever s
    distinct cores form a sunflower with core C of size at most t-2, every
    choice of one member per block meets in at most t-|C|-2 elements.
    """

    domain: Domain
    s: int
    t: int
    parts: tuple[DecompositionPart, ...]
    records: tuple[BoundRecord, ...] = ()

    def cores(self) -> SetFamily:
        return self.domain.family.replace_members(p.core for p in self.parts)

    def verify(self) -> None:
        if self.s < 2 or self.t < 1:
            raise PreconditionError("need s >= 2 and t >= 1", s=self.s, t=self.t)
        amembers = self.domain.family._member_set
        seen = set()
        for part in self.parts:
            c = part.core.bit_count()
            if not self.t <= c <= self.domain.k:
                raise VerificationError(
                    "core size out of range",
                    core=list(elements_of(part.core)),
                    t=self.t,
                )
            if part.core in seen:
                raise VerificationError(
                    "duplicate core", core=list(elements_of(part.core))
                )
            seen.add(part.core)
            if not part.family.members:
                raise VerificationError(
                    "empty block", core=list(elements_of(part.core))
                )
            for m in part.family.members:
                if m & part.core or (m | part.core) not in amembers:
                    raise VerificationError(
                        "block member does not extend its core inside the domain",
                        core=list(elements_of(part.core)),
                        member=list(elements_of(m)),
                    )
        cores = [p.core for p in self.parts]
        wit = find_sunflower(cores, CorePredicate(self.s, CoreMode.EXACT, self.t - 1))
        if wit is not None:
            raise VerificationError(
                "cores form a sunflower at the forbidden size",
                witness=wit.as_report(),
            )
        if self.t < 2 or len(cores) < self.s:
            return
        fam_of = {p.core: p.family for p in self.parts}
        ground_full = (1 << self.domain.family.ground.n) - 1
        for chosen in combinations(sorted(cores, key=canon_key), self.s):
            C = is_sunflower(list(chosen))
            if C is None or C.bit_count() > self.t - 2:
                continue
            cap = self.t - C.bit_count() - 2
            hit = _deep_intersection(
                [fam_of[c] for c in chosen], ground_full, cap
            )
            if hit is not None:
                raise VerificationError(
                    "block members intersect beyond the allowance",
                    cores=[list(elements_of(c)) for c in chosen],
                    members=[list(elements_of(m)) for m in hit],
                    allowance=cap,
                )

    def as_report(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "parts": [p.as_report() for p in self.parts],
            "records": [r.as_report() for r in self.records],
        }


def _deep_intersection(
    fams: list[SetFamily], start: int, cap: int
) -> Optional[tuple[int, ...]]:
    """One member per family with intersection above cap, if any exists."""

    def rec(idx: int, inter: int, acc: list[int]):
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
    Each pruned block keeps at least a (1 - 2 alpha k) share of its block,
    stays homogeneous at the inflated parameter tau'/(1 - 2 alpha k) (tau'
    a certified upper bound on the block's minimal homogeneity), and its
    shadows at every depth stay dense; all three facts are asserted.  The
    result's system properties are verified exhaustively.
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
    if not 0 < alpha <= Fraction(1, 4 * k):
        raise PreconditionError(
            "alpha must lie in (0, 1/(4k)]", alpha=str(alpha), k=k
        )
    wit = find_sunflower(D.source, CorePredicate(s, CoreMode.EXACT, t - 1))
    if wit is not None:
        raise PreconditionError(
            "source family has an s-sunflower at the forbidden core size",
            witness=wit.as_report(),
        )
    D.verify()

    shrink = 1 - 2 * alpha * k
    parts_out: list[DecompositionPart] = []
    records: list[BoundRecord] = []
    for part in D.parts:
        sub = A if part.core == 0 else A.link_domain(part.core)
        if sub.k < 1:
            raise PreconditionError(
                "a block core exhausts the domain uniformity; nothing to prune",
                core=list(elements_of(part.core)),
            )
        pruned = homogeneous_subfamily(part.family, sub, D.tau, alpha, t=t)
        U = pruned.family
        # a lower bound on the kept size, so the floor goes on the left
        floor_rec = _record(
            "retained-floor",
            shrink * len(part.family.members),
            _exactly(len(U.members)),
            note=f"kept-size floor, core={list(elements_of(part.core))}",
        )
        if Fraction(len(U.members)) < shrink * len(part.family.members):
            raise VerificationError(
                "pruned block lost too many members",
                core=list(elements_of(part.core)),
                kept=len(U.members),
                floor=str(shrink * len(part.family.members)),
            )
        records.append(floor_rec)
        tau_prime = min(_min_homogeneity_upper(part.family, sub), D.tau)
        tau_hat = tau_prime / shrink
        hv = check_tau_homogeneous(U, sub, tau_hat)
        if not hv.ok:
            raise VerificationError(
                "pruned block is not homogeneous at the inflated parameter",
                core=list(elements_of(part.core)),
                tau_hat=str(tau_hat),
                worst_x=list(elements_of(hv.worst_x)),
            )
        for h in range(1, sub.k + 1):
            if not verify_shadow_bound(U, sub, tau_hat, h):
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

    system = SystemSST(
        domain=A, s=s, t=t, parts=tuple(parts_out), records=tuple(records)
    )
    system.verify()
    return system


# -- clustering a system into few cores --------------------------------------


@dataclass(frozen=True)
class ClusterRound:
    point: int
    captured: SetFamily
    reduction: SimplifyResult

    def as_report(self) -> dict:
        return {
            "point": list(elements_of(self.point)),
            "captured": self.captured.as_sets(),
            "reduction": self.reduction.as_report(),
        }


@dataclass(frozen=True)
class ClusterResult:
    core_family: SetFamily
    rounds: tuple[ClusterRound, ...]
    final_cores: SetFamily
    lam: Fraction
    eps: Fraction
    records: tuple[BoundRecord, ...] = ()

    def as_report(self) -> dict:
        return {
            "core_family": self.core_family.as_sets(),
            "rounds": [r.as_report() for r in self.rounds],
            "final_cores": self.final_cores.as_sets(),
            "lambda": str(self.lam),
            "eps": str(self.eps),
            "records": [r.as_report() for r in self.records],
        }


def _phi_interval(s: int, t: int) -> tuple[Fraction, Fraction]:
    """A certified bracket on the largest t-uniform family free of
    s-sunflowers.

    Exact for t = 1 and s = 2; elsewhere a trivial lower end (improved where
    a computed value is on file) against the general upper estimate.
    """
    if t == 1:
        return _exactly(s - 1)
    if s == 2:
        return _exactly(1)
    lo = Fraction(6) if (s, t) == (3, 2) else Fraction(1)
    log_t = frac_log2_bracket(t)
    hi = (Fraction(2 ** 14 * s) * log_t[1]) ** t
    return lo, hi


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
    U.verify()
    if U.domain.family.members != A.family.members:
        raise PreconditionError("system was built over a different domain")
    s, t = U.s, U.t
    nominal = A.nominal_parameters()
    if "spread_r" not in nominal:
        raise PreconditionError("domain lacks a nominal spreadness", kind=A.kind)
    r = nominal["spread_r"]
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
    active = sorted(shadows, key=canon_key)
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
    phi_ln = _iv_mul(phi, ln_shadow)
    records = [
        _record(
            "cluster-count",
            len(out.members),
            _iv_mul(
                _exactly(1 / lam),
                (1 + 2 * phi_ln[0], 1 + 2 * phi_ln[1]),
            ),
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
    if t == 1:
        rem_rhs = _exactly(0)
    else:
        log_t = frac_log2_bracket(t)
        a_t = A.max_link(t)[1]
        rem_rhs = _iv_mul(
            _iv_mul(_exactly(Fraction(4) / (lam * r)), ln_shadow),
            _iv_mul(_iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t), _exactly(a_t)),
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


def _smallest_cover(cores: list[int], t: int, A: Domain) -> SetFamily:
    """The smallest t-uniform family covering every core, canonically first."""
    if not cores:
        return A.family.replace_members(())
    pool = sorted(
        {x for S in cores for x in bit_subsets(S, t)}, key=canon_key
    )
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            if all(any(S & T == T for T in combo) for S in cores):
                return A.family.replace_members(combo)
    raise VerificationError("no cover exists; a core must be smaller than t")


# -- peeling high uniformity down to roughly 2t ------------------------------


@dataclass(frozen=True)
class PeelResult:
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

    def as_report(self) -> dict:
        return {
            "core_family": self.core_family.as_sets(),
            "t_layers": [f.as_sets() for f in self.t_layers],
            "u_layers": [f.as_sets() for f in self.u_layers],
            "w_layers": [f.as_sets() for f in self.w_layers],
            "extractions": [e.as_report() for e in self.extractions],
            "cover_counts": list(self.cover_counts),
            "records": [r.as_report() for r in self.records],
        }


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
    if s < 2 or t < 1:
        raise PreconditionError("need s >= 2 and t >= 1", s=s, t=t)
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
    wit = find_sunflower(F, CorePredicate(s, CoreMode.EXACT, t - 1))
    if wit is not None:
        raise PreconditionError(
            "family carries an s-sunflower at the forbidden core size",
            witness=wit.as_report(),
        )
    alpha = Fraction(s * k)

    cur = F
    t_layers = [F]
    u_layers: list[SetFamily] = []
    w_layers: list[SetFamily] = []
    extractions: list[ExtractionStep] = []
    records: list[BoundRecord] = []
    for i in range(k - 2 * t - 1):
        top_size = k - i
        top = [m for m in cur.members if m.bit_count() == top_size]
        carry = [m for m in cur.members if m.bit_count() < top_size]
        W = list(top)
        big: list[int] = []
        small: list[int] = []
        while W:
            counts: dict[int, int] = {}
            for m in W:
                for x in submasks(m):
                    counts[x] = counts.get(x, 0) + 1
            best = _pick_largest(
                x
                for x, c in counts.items()
                if x.bit_count() <= top_size - 1
                and check_spread(
                    cur.replace_members(m & ~x for m in W if m & x == x), alpha
                ).ok
            )
            if best is None:
                break
            link_members = tuple(m & ~best for m in W if m & best == best)
            extractions.append(
                ExtractionStep(i, best, cur.replace_members(link_members))
            )
            if best.bit_count() > 2 * t - 1:
                big.append(best)
            else:
                small.append(best)
            W = [m for m in W if m & best != best]
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
            witness=stray.as_report(),
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


@dataclass(frozen=True)
class DeltaFilterResult:
    """Greatest subfamily in which every member anchors a rich tail.

    ``chosen`` pairs each surviving member with its anchor, the
    lexicographically least t-subset all of whose proper extensions inside
    the member are cores of p-petal sunflowers of the surviving family.
    """

    family: SetFamily
    chosen: tuple[tuple[int, int], ...]
    removed: SetFamily
    rounds: int

    def anchor(self, member: int) -> int:
        for m, T in self.chosen:
            if m == member:
                return T
        raise PreconditionError(
            "not a surviving member", member=list(elements_of(member))
        )

    def as_report(self) -> dict:
        return {
            "family": self.family.as_sets(),
            "chosen": [
                {"member": list(elements_of(m)), "anchor": list(elements_of(T))}
                for m, T in self.chosen
            ],
            "removed": self.removed.as_sets(),
            "rounds": self.rounds,
        }


def _delta_anchor(m: int, G: SetFamily, p: int, t: int) -> Optional[int]:
    """The lex-least valid t-subset of m, by element tuples, or None."""
    members = G.members
    for T in sorted(bit_subsets(m, t), key=elements_of):
        ok = True
        rest = m & ~T
        for j in range(0, rest.bit_count()):
            for extra in bit_subsets(rest, j):
                E = T | extra
                petals = [g & ~E for g in members if g & E == E]
                if matching_number(petals, at_least=p) < p:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return T
    return None


def delta_filter(F: SetFamily, p: int, t: int) -> DeltaFilterResult:
    """Greatest fixed point of discarding members with no valid anchor.

    A t-subset T of a member m is valid when every E with T <= E < m is the
    core of a sunflower with p petals inside the current family.  Members
    without a valid T are dropped, all at once per round, until nothing
    changes; the scan order cannot influence the result.  The final anchor
    map is recomputed and re-checked on the fixed point.
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

    G = F
    rounds = 0
    while True:
        rounds += 1
        keep = [m for m in G.members if _delta_anchor(m, G, p, t) is not None]
        if len(keep) == len(G.members):
            break
        G = G.replace_members(keep)
        if not G.members:
            break
    chosen = []
    for m in G.members:
        T = _delta_anchor(m, G, p, t)
        if T is None:
            raise VerificationError(
                "fixed point lost a member on re-check", member=list(elements_of(m))
            )
        chosen.append((m, T))
    return DeltaFilterResult(
        family=G,
        chosen=tuple(chosen),
        removed=family_minus(F, G),
        rounds=rounds,
    )
