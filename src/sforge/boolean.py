"""Biased-measure analysis of set families viewed as Boolean functions.

A family over ground size n doubles as the indicator function
f: {0,1}^n -> {0,1} of its member set.  Everything here is exact:
probabilities and correlation parameters are Fractions, verdicts compare
cross-multiplied integers, and fractional exponents are handled by raising
both sides of an inequality to a common integer power.

A family that stands for an upward-closed function must already be
materialized as one (see :func:`sforge.family.upper_closure`); measures sum
over the listed members only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CapacityError, PreconditionError, VerificationError
from .family import (
    GroundSet,
    SetFamily,
    canon_key,
    elements_of,
    is_upward_closed,
    upper_closure,
)
from .spread import _LN2_LO, _as_fraction, frac_log2_bracket

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
    pos = {1 << i: 1 << j for j, i in enumerate(keep)}
    out = []
    for m in F.members:
        if m & X:
            raise PreconditionError(
                "member meets the dropped coordinates", member=elements_of(m & X)
            )
        mm = 0
        s = m
        while s:
            low = s & -s
            s ^= low
            mm |= pos[low]
        out.append(mm)
    return SetFamily(GroundSet(len(keep)), tuple(out))


# ---------------------------------------------------------------------------
# globalness


@dataclass(frozen=True)
class GlobalnessVerdict:
    """Outcome of a tau-globalness check under mu_p."""

    tau: Fraction
    p: Fraction
    ok: bool
    mode: str  # "exhaustive" or "diagonal"
    violation: tuple[int, int] | None  # first offending (A, B) masks
    family_size: int

    def as_report(self) -> dict:
        rep = {
            "tau": str(self.tau),
            "p": str(self.p),
            "ok": self.ok,
            "mode": self.mode,
            "family_size": self.family_size,
        }
        if self.violation is not None:
            a, b = self.violation
            rep["violation"] = {"A": elements_of(a), "B": elements_of(b)}
        return rep


def _weight_vector(F: SetFamily, a: int, b: int) -> list[int]:
    n = F.ground.n
    v = [0] * (1 << n)
    for m in F.members:
        v[m] = a ** m.bit_count() * b ** (n - m.bit_count())
    return v


def _superset_sums(F: SetFamily, a: int, b: int) -> list[int]:
    # z[B] = sum of a^|m| b^(n-|m|) over members m >= B
    n = F.ground.n
    z = _weight_vector(F, a, b)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                z[mask] += z[mask | bit]
    return z


def _diagonal_sufficient(F: SetFamily, p: Fraction, tau: Fraction) -> bool:
    """Whether A = B cells dominate all cells.

    True when 1/(1-p) < tau (adding an element of B outside A costs at most
    a 1/(1-p) factor against a tau allowance) and for upward-closed families
    (F(A, B) is contained in F(B, B) there).
    """
    if 1 < tau * (1 - p):
        return True
    return is_upward_closed(F)


def check_global(F: SetFamily, p, tau, exhaustive: bool | None = None) -> GlobalnessVerdict:
    """tau-globalness: mu_p^{-B}(F(A, B)) <= tau^|B| mu_p(F) for all A <= B.

    Two exact engines.  ``exhaustive=True`` enumerates every (A, B) pair
    (ground capped at 12).  ``exhaustive=False`` checks only the diagonal
    A = B cells through a superset sum (ground capped at 16), which is a
    complete verdict exactly when the diagonal dominates; that, in turn, is
    guaranteed for upward-closed families and whenever 1/(1-p) < tau.  The
    default picks the cheapest valid engine.
    """
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf <= 0:
        raise PreconditionError("tau must be positive", tau=str(tf))
    n = F.ground.n
    a, c = pf.numerator, pf.denominator
    b = c - a
    tn, td = tf.numerator, tf.denominator

    if exhaustive is None:
        if n <= DIAGONAL_CAP and _diagonal_sufficient(F, pf, tf):
            exhaustive = False
        elif n <= EXHAUSTIVE_CAP:
            exhaustive = True
        else:
            raise CapacityError(
                "globalness needs the diagonal reduction above ground size "
                f"{EXHAUSTIVE_CAP}; it is not valid here", n=n
            )
    elif exhaustive is False:
        if n > DIAGONAL_CAP:
            raise CapacityError(f"diagonal engine capped at n={DIAGONAL_CAP}, got n={n}")
        if not _diagonal_sufficient(F, pf, tf):
            raise PreconditionError(
                "diagonal verdict needs an upward-closed family or 1/(1-p) < tau"
            )
    elif n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive engine capped at n={EXHAUSTIVE_CAP}, got n={n}")

    lhs_scale = [(td * c) ** j for j in range(n + 1)]

    if not exhaustive:
        z = _superset_sums(F, a, b)
        total = z[0]
        rhs_scale = [(tn * a) ** j * total for j in range(n + 1)]
        for bmask in sorted(range(1 << n), key=canon_key):
            j = bmask.bit_count()
            if z[bmask] * lhs_scale[j] > rhs_scale[j]:
                return GlobalnessVerdict(tf, pf, False, "diagonal", (bmask, bmask), len(F))
        return GlobalnessVerdict(tf, pf, True, "diagonal", None, len(F))

    members = F.members
    total = sum(a ** m.bit_count() * b ** (n - m.bit_count()) for m in members)
    rhs_scale = [tn**j * total for j in range(n + 1)]
    apow = [a**j for j in range(n + 1)]
    bpow = [b**j for j in range(n + 1)]
    for bmask in sorted(range(1 << n), key=canon_key):
        j = bmask.bit_count()
        free = n - j
        cells: dict[int, int] = {}
        for m in members:
            out = (m & ~bmask).bit_count()
            w = apow[out] * bpow[free - out]
            cells[m & bmask] = cells.get(m & bmask, 0) + w
        lhs = lhs_scale[j]
        rhs = rhs_scale[j]
        for amask in sorted(cells, key=canon_key):
            if cells[amask] * lhs > rhs:
                return GlobalnessVerdict(tf, pf, False, "exhaustive", (amask, bmask), len(F))
    return GlobalnessVerdict(tf, pf, True, "exhaustive", None, len(F))


@dataclass(frozen=True)
class GlobalRestriction:
    """Maximizer of tau^{-|B|} mu_p^{-B}(F(A, B)) with its certificate."""

    a: int
    b: int
    value: Fraction
    family: SetFamily  # F(A, B) reindexed onto the surviving coordinates
    verdict: GlobalnessVerdict

    def as_report(self) -> dict:
        return {
            "A": elements_of(self.a),
            "B": elements_of(self.b),
            "value": str(self.value),
            "restricted_size": len(self.family),
            "verdict": self.verdict.as_report(),
        }


def max_global_restriction(F: SetFamily, p, tau, exhaustive: bool | None = None) -> GlobalRestriction:
    """Restriction pair (A, B) maximizing tau^{-|B|} mu_p^{-B}(F(A, B)).

    The restricted family is tau-global; that certificate is re-checked and
    a failure raises VerificationError.  Ties go to the smallest |B|, then
    the canonically smallest B, then A.  Whenever the diagonal dominates
    (upward-closed family, or 1/(1-p) < tau) the exhaustive engine asserts
    that the winning value is already attained with A = B.
    """
    pf = _probability(p, "p")
    tf = _as_fraction(tau, "tau")
    if tf <= 0:
        raise PreconditionError("tau must be positive", tau=str(tf))
    n = F.ground.n
    a, c = pf.numerator, pf.denominator
    b = c - a
    tn, td = tf.numerator, tf.denominator
    cn = c**n

    if exhaustive is None:
        if n <= DIAGONAL_CAP and _diagonal_sufficient(F, pf, tf):
            exhaustive = False
        elif n <= EXHAUSTIVE_CAP:
            exhaustive = True
        else:
            raise CapacityError(
                "restriction search needs the diagonal reduction above ground "
                f"size {EXHAUSTIVE_CAP}; it is not valid here", n=n
            )

    diag_best: Fraction | None = None
    if exhaustive is False or _diagonal_sufficient(F, pf, tf):
        z = _superset_sums(F, a, b)
        diag_best = Fraction(z[0], cn)
        diag_pair = 0
        for bmask in sorted(range(1 << n), key=canon_key):
            j = bmask.bit_count()
            if z[bmask] == 0:
                continue
            val = Fraction(z[bmask] * td**j * c**j, tn**j * a**j * cn)
            if val > diag_best:
                diag_best = val
                diag_pair = bmask
        if exhaustive is False:
            best_a = best_b = diag_pair
            best_val = diag_best
            return _certified_restriction(F, pf, tf, best_a, best_b, best_val)

    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive engine capped at n={EXHAUSTIVE_CAP}, got n={n}")
    members = F.members
    apow = [a**j for j in range(n + 1)]
    bpow = [b**j for j in range(n + 1)]
    best_a = best_b = 0
    best_val = Fraction(
        sum(apow[m.bit_count()] * bpow[n - m.bit_count()] for m in members), cn
    )
    for bmask in sorted(range(1 << n), key=canon_key):
        j = bmask.bit_count()
        free = n - j
        cells: dict[int, int] = {}
        for m in members:
            out = (m & ~bmask).bit_count()
            cells[m & bmask] = cells.get(m & bmask, 0) + apow[out] * bpow[free - out]
        # value of a cell is (td/tn)^j * W / c^free
        for amask in sorted(cells, key=canon_key):
            val = Fraction(cells[amask] * td**j, tn**j * c**free)
            if val > best_val:
                best_a, best_b, best_val = amask, bmask, val
    if diag_best is not None and best_val != diag_best:
        raise VerificationError(
            "diagonal cells should dominate here but the best pair is off-diagonal",
            best_value=str(best_val),
            best_diagonal=str(diag_best),
        )
    return _certified_restriction(F, pf, tf, best_a, best_b, best_val)


def _certified_restriction(
    F: SetFamily, p: Fraction, tau: Fraction, amask: int, bmask: int, value: Fraction
) -> GlobalRestriction:
    picked = F.replace_members(
        m & ~bmask for m in F.members if m & bmask == amask
    )
    if bmask == F.ground.full_mask:
        raise PreconditionError(
            "restriction by the full ground set leaves no coordinates"
        )
    projected = drop_coordinates(picked, bmask)
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
    rho and is resampled from the p-biased bit otherwise.
    """
    pf = _probability(p, "p")
    rf = _as_fraction(rho, "rho")
    if not 0 <= rf <= 1:
        raise PreconditionError("rho must lie in [0, 1]", rho=str(rf))
    n = F.ground.n
    if n > POINTWISE_CAP:
        raise CapacityError(f"pointwise operator capped at n={POINTWISE_CAP}, got n={n}")
    ms = F._member_set
    vals = [Fraction(1 if x in ms else 0) for x in range(1 << n)]
    q0 = (1 - rf) * pf          # P(y_i = 1 | x_i = 0)
    q1 = rf + (1 - rf) * pf     # P(y_i = 1 | x_i = 1)
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                continue
            lo, hi = vals[x], vals[x | bit]
            vals[x] = (1 - q0) * lo + q0 * hi
            vals[x | bit] = (1 - q1) * lo + q1 * hi
    return tuple(vals)


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


@dataclass(frozen=True)
class SharpThresholdReport:
    p: Fraction
    p_tilde: Fraction
    rho: Fraction
    mu_p: Fraction
    mu_tilde: Fraction
    stab: Fraction
    global_tau: Fraction | None
    upgraded: bool

    def as_report(self) -> dict:
        rep = {
            "p": str(self.p),
            "p_tilde": str(self.p_tilde),
            "rho": str(self.rho),
            "mu_p": str(self.mu_p),
            "mu_tilde": str(self.mu_tilde),
            "stability": str(self.stab),
            "upgraded": self.upgraded,
        }
        if self.global_tau is not None:
            rep["tau"] = str(self.global_tau)
        return rep


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
                "family is not tau-global", **verdict.as_report()
            )
        if mu_hi**4 < mu_lo**3:
            raise VerificationError(
                "single-round measure upgrade failed",
                mu_p=str(mu_lo), mu_tilde=str(mu_hi),
            )
        upgraded = True
    return SharpThresholdReport(pf, ptf, rho, mu_lo, mu_hi, stab, tf, upgraded)


@dataclass(frozen=True)
class UpgradeRound:
    restriction: int  # mask in the original coordinates
    p_in: Fraction
    measure_in: Fraction
    measure_restricted: Fraction

    def as_report(self) -> dict:
        return {
            "restriction": elements_of(self.restriction),
            "p": str(self.p_in),
            "measure": str(self.measure_in),
            "measure_restricted": str(self.measure_restricted),
        }


@dataclass(frozen=True)
class MeasureUpgradeReport:
    r_mask: int
    rounds: tuple[UpgradeRound, ...]
    final_p: Fraction
    final_measure: Fraction
    final_family: SetFamily

    def as_report(self) -> dict:
        return {
            "R": elements_of(self.r_mask),
            "rounds": [r.as_report() for r in self.rounds],
            "final_p": str(self.final_p),
            "final_measure": str(self.final_measure),
            "final_size": len(self.final_family),
        }


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
    if not isinstance(z, int) or z < 1:
        raise PreconditionError(f"z must be a positive integer, got {z!r}")
    if not isinstance(m, int) or m < 1:
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
        orig = 0
        s = smask
        while s:
            low = s & -s
            s ^= low
            orig |= 1 << coords[low.bit_length() - 1]
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


@dataclass(frozen=True)
class HypercontractivityReport:
    q: int
    rho: Fraction
    rho_gate: Fraction
    mu: Fraction
    lhs: Fraction  # E[(T_rho f)^q]

    def as_report(self) -> dict:
        return {
            "q": self.q,
            "rho": str(self.rho),
            "rho_gate": str(self.rho_gate),
            "mu": str(self.mu),
            "moment": str(self.lhs),
        }


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
    if not isinstance(q, int) or q <= 2:
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
        raise PreconditionError("family is not tau-global", **verdict.as_report())

    mu = biased_measure(F, pf)
    tf_vals = noise_operator(F, pf, rf)
    a, c = pf.numerator, pf.denominator
    b = c - a
    lhs = Fraction(0)
    for x, val in enumerate(tf_vals):
        if val:
            j = x.bit_count()
            lhs += Fraction(a**j * b ** (n - j), c**n) * val**q
    if lhs * lhs > mu**q:
        raise VerificationError(
            "hypercontractive inequality failed",
            moment=str(lhs), mu=str(mu), q=q,
        )
    return HypercontractivityReport(q, rf, gate, mu, lhs)


# ---------------------------------------------------------------------------
# bridges between uniform and biased measures


@dataclass(frozen=True)
class UniformBiasedFloor:
    p: Fraction
    mu: Fraction
    floor: Fraction

    def as_report(self) -> dict:
        return {"p": str(self.p), "mu": str(self.mu), "floor": str(self.floor)}


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


@dataclass(frozen=True)
class GlobalRemoval:
    family: SetFamily
    tau_hat: Fraction
    measure: Fraction
    measure_floor: Fraction

    def as_report(self) -> dict:
        return {
            "size": len(self.family),
            "tau_hat": str(self.tau_hat),
            "measure": str(self.measure),
            "measure_floor": str(self.measure_floor),
        }


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
        raise PreconditionError("family is not tau-global", **verdict.as_report())

    G = F.replace_members(m for m in F.members if not m & X)
    mu_f = biased_measure(F, pf)
    mu_g = biased_measure(G, pf) if G.members else Fraction(0)
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
            **out.as_report(),
        )
    return GlobalRemoval(G, tau_hat, mu_g, floor)
