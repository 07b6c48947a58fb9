"""Closed-form size bounds, extremal constructions, instance verification.

Every formula here evaluates over exact rationals.  Scale factors living
inside logarithms are bracketed from above first, so a reported number is
always a legitimate upper estimate.  Formulas built around constants that
only come with growth guarantees (the double-exponential uniformity costs)
refuse to produce a number and surface a symbolic token instead.

Each formula is a plain function of its parameters.  The terms several
formulas share (the log2 brackets of n/k and t, the kernel optimum and its
general estimate, C(n-t, k-t)) are module functions; the one costly term,
``frac_log2_bracket``, keeps its own process-wide cache.  Each value is
built from integer numerators and denominators and made a ``Fraction``
once, at the end.

``verify_instance`` ties the pieces together: exact optimum by search,
skeleton-based constructions from below, every registered bound from above,
and a table that flags any ordering violation.  It builds each construction
once and checks each family once: on a binomial domain the skeleton lift of
``example_23`` and ``fstar_family`` is one family, made and verified once
for both of their rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import CapacityError, PreconditionError, VerificationError
from .exact import frac_log2_bracket
from .family import MEMBER_CAP, GroundSet, SetFamily, bit_subsets, report, trace_cover
from .sunflowers import (
    CoreMode,
    CorePredicate,
    family_is_free,
    find_sunflower,
    max_sunflower_free,
    phi_exact,
    product_kernel,
)

if TYPE_CHECKING:  # annotations only: ``bounds eval`` never loads domains.py
    from .domains import Domain

__all__ = [
    "BoundFormula",
    "bound_rhs",
    "bound_names",
    "example_23",
    "fstar_family",
    "verify_instance",
]


class BoundFormula(NamedTuple):
    """One evaluated upper-bound expression.

    ``value`` is the exact (possibly upper-rounded) rational, or None when
    the expression keeps an unpinned constant; ``symbolic`` then carries the
    shape.  ``hypotheses_met`` records whether the guarantee behind the
    formula actually applies at these parameters; a False flag demotes the
    number to a reported observation.  ``phi_source`` says where any kernel
    optimum inside the formula came from ("exact" or "upper-estimate").
    """

    name: str
    params: dict
    value: Fraction | None
    symbolic: str = ""
    hypotheses_met: bool = True
    phi_source: str = ""
    note: str = ""

    _report_derived = {"params": lambda b: {k: str(v) for k, v in b.params.items()}}

    @property
    def comparable(self) -> bool:
        return self.value is not None


# -- the shared terms ----------------------------------------------------------


@lru_cache(maxsize=64)
def _phi_certified(s: int, t: int) -> int | None:
    """The largest sunflower-free t-uniform family size where the certified
    search reaches it, else None."""
    if t == 1:
        return s - 1
    if s == 2:
        return 1
    if t == 2 and s <= 4:
        support = t * ((s - 1) ** t + 1)
        for _ in range(6):
            res = phi_exact(s, t, support)
            if res.unconditional:
                return res.value
            support = t * (res.value + 1)
    return None


def _log2_hi(num: int, den: int) -> tuple[int, int]:
    """Upper rational estimate of log2(num/den), exact at integral powers
    of two."""
    x = Fraction(num, den)
    p = x.numerator
    if x.denominator == 1 and p & (p - 1) == 0:
        return p.bit_length() - 1, 1
    hi = frac_log2_bracket(x)[1]
    return hi.numerator, hi.denominator


def _phi_cap(s: int, t: int) -> tuple[int, int]:
    """The kernel optimum's general estimate: s - 1 at depth one, else the
    scale (2^14 * s * log2 t)^t."""
    if t == 1:
        return s - 1, 1
    a, b = _log2_hi(t, 1)
    return (2 ** 14 * s * a) ** t, b ** t


def _phi(s: int, t: int) -> tuple[int, int, str]:
    """The kernel optimum, exact where the certified search reaches it,
    otherwise the general estimate, with its source."""
    exact = _phi_certified(s, t)
    if exact is not None:
        return exact, 1, "exact"
    return (*_phi_cap(s, t), "upper-estimate")


def _need(params: dict, *names: str) -> dict:
    out = {}
    for nm in names:
        if nm not in params:
            raise PreconditionError(f"bound formula needs parameter {nm!r}")
        v = params[nm]
        if type(v) is not int or v < 0:
            raise PreconditionError(f"parameter {nm!r} must be a nonnegative int")
        out[nm] = v
    return out


def _check_nkst(n: int, k: int, s: int, t: int) -> None:
    if not (2 <= s and 1 <= t <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= t <= k <= n")


# -- the formula table -------------------------------------------------------
# Each evaluator takes the row's parameters in order and returns the
# ``BoundFormula`` fields past name and params.


def _erdos_rado(s: int, k: int) -> dict:
    if s < 2:
        raise PreconditionError("need s >= 2")
    return dict(value=Fraction(factorial(k) * (s - 1) ** k),
                note="any k-uniform family above this carries an s-sunflower")


def _phi_cap_row(s: int, t: int) -> dict:
    if t < 1 or s < 2:
        raise PreconditionError("need s >= 2 and t >= 1")
    return dict(value=Fraction(*_phi_cap(s, t)),
                note="kernel optimum, exact at depth one" if t == 1
                else "kernel optimum estimate, upper-rounded at the log")


def _erdos_matching(n: int, k: int, s: int) -> dict:
    if not (2 <= s and 1 <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= k <= n")
    clique = comb(k * s - 1, k)
    # the k-sets meeting a fixed (s-1)-set: all of them once s - 1 >= n
    cover = comb(n, k) - comb(max(n - s + 1, 0), k)
    return dict(
        value=Fraction(max(clique, cover)),
        hypotheses_met=(k <= 2),
        note="largest family with no s pairwise disjoint members"
        + ("" if k <= 2 else "; beyond pairs the maximum is not certified here"),
    )


def _lead_plus_error(const: int, power: int, note: str,
                     n: int, k: int, s: int, t: int) -> dict:
    """phi(s,t)*C(n-t,k-t) plus, past depth one, the large-n error term
    phi_cap * const * s^2 t^2 * (k/n) * log2(n/k)^power * C(n-t,k-t)."""
    phi_num, phi_den, src = _phi(s, t)
    lead = comb(n - t, k - t)
    num, den = phi_num * lead, phi_den
    if t > 1 and const:
        cap_num, cap_den = _phi_cap(s, t)
        log_num, log_den = _log2_hi(n, k)
        err_num = cap_num * const * s * s * t * t * k * log_num ** power * lead
        err_den = cap_den * n * log_den ** power
        num, den = num * err_den + err_num * den, den * err_den
    return dict(value=Fraction(num, den), hypotheses_met=False,
                phi_source=src, note=note)


def _symbolic(shape: str, note: str, *params: int) -> dict:
    return dict(value=None, symbolic=shape, hypotheses_met=False, note=note)


def _downclosed_cover(n: int, k: int, s: int, t: int) -> dict:
    if t == 1:
        return dict(value=Fraction(0), hypotheses_met=False,
                    note="cover residue estimate, vacuous at depth one")
    # phi_cap * 2^19 s (t+1) / r * log2(r) * C(n-t,k-t) at r = n/k
    cap_num, cap_den = _phi_cap(s, t)
    log_num, log_den = _log2_hi(n, k)
    return dict(
        value=Fraction(
            cap_num * 2 ** 19 * s * (t + 1) * k * log_num * comb(n - t, k - t),
            cap_den * n * log_den,
        ),
        hypotheses_met=False,
        note="bound on the part a small-set cover may leave uncovered",
    )


class _Formula(NamedTuple):
    """A formula's parameter names, its evaluator (taking them in order),
    and the core sizes a family must avoid for it to bound the family's
    size, given (k, t); None where the formula bounds something else.
    Every formula on (n, k, s, t) needs s >= 2 and 1 <= t <= k <= n."""

    params: tuple[str, ...]
    evaluate: Callable[..., dict]
    avoids: Callable[[int, int], range | None] | None


_NKST = ("n", "k", "s", "t")
_FORMULAS = {
    "erdos-rado": _Formula(("s", "k"), _erdos_rado, lambda k, t: range(k)),
    "phi-cap": _Formula(("s", "t"), _phi_cap_row,
                        lambda k, t: range(t) if k == t else None),
    "erdos-matching": _Formula(("n", "k", "s"), _erdos_matching,
                               lambda k, t: range(1) if k == 2 else None),
    "large-n-main": _Formula(_NKST, partial(
        _lead_plus_error, 2 ** 17, 1,
        "needs a ground set past an unspecified threshold n0(s, t)",
    ), lambda k, t: range(t)),
    "large-n-main-alt": _Formula(_NKST, partial(
        _lead_plus_error, 2 ** 5, 2,
        "variant with the squared log in the error term; "
        "needs a ground set past an unspecified threshold",
    ), lambda k, t: range(t)),
    "frankl-furedi": _Formula(_NKST, partial(
        _lead_plus_error, 0, 1,
        "leading term alone, valid only past an unspecified threshold",
    ), lambda k, t: range(t)),
    "small-k-main": _Formula(_NKST, partial(
        _symbolic, "phi(s,t)*C(n-t,k-t) + k*c(s,k)/(n-k)*C(n,k-t)",
        "the constant c(s,k) comes with growth guarantees only",
    ), lambda k, t: range(t)),
    "delta-method-bound": _Formula(_NKST, partial(
        _symbolic, "C_k * n^(k-t) * s^t",
        "the uniformity constant C_k is double-exponential and unpinned",
    ), lambda k, t: range(t)),
    "double-exp-uniform": _Formula(("s", "k"), partial(
        _symbolic, "s^(2^k) * 2^(2^(C*k))",
        "growth envelope for c(s,k); the inner constant C is unspecified",
    ), None),
    "downclosed-cover-bound": _Formula(_NKST, _downclosed_cover, None),
}


def bound_names() -> list[str]:
    return sorted(_FORMULAS)


def bound_rhs(name: str, params: dict) -> BoundFormula:
    """Evaluate the named upper-bound formula at the given parameters.

    Parameters the formula does not take are ignored.  At s = 4, t = 2 the
    rows holding phi(s, t) (large-n-main, -alt, frankl-furedi) run two exact
    ``phi_exact`` searches, about 60 s the first time in a process.
    """
    try:
        row = _FORMULAS[name]
    except KeyError:
        raise PreconditionError(
            f"unknown bound name {name!r}", known=sorted(_FORMULAS)
        ) from None
    p = _need(params, *row.params)
    if row.params == _NKST:
        _check_nkst(*p.values())
    return BoundFormula(name, p, **row.evaluate(*p.values()))


def _bounds_family_size(row: _Formula, k: int, t: int, admits: list[bool]) -> bool:
    """Whether the row's formula bounds the size of every family free of
    the predicate whose ``admits_core_size(c)`` is ``admits[c]``.

    Soundness direction: a formula proved for families avoiding a fixed set
    of core sizes transfers to any predicate that forbids at least those
    sizes, since the legal families only shrink.
    """
    sizes = row.avoids(k, t) if row.avoids else None
    return sizes is not None and all(admits[c] for c in sizes)


# -- extremal constructions --------------------------------------------------


def _check_skeleton(T: SetFamily, s: int) -> None:
    wit = find_sunflower(T, CorePredicate(s, CoreMode.ANY))
    if wit is not None:
        raise PreconditionError(
            "skeleton carries an s-sunflower", witness=report(wit)
        )


def _check_lift_size(out: SetFamily, n: int, k: int, t: int, T: SetFamily) -> None:
    """``example_23``'s counting identity and closed-form size floor."""
    expected = len(T) * comb(n - T.support().bit_count(), k - t)
    if len(out.members) != expected:
        raise VerificationError(
            "construction size disagrees with the counting identity",
            got=len(out.members),
            expected=expected,
        )
    floor = Fraction(len(T) * comb(n - t, k - t))
    if k > t:
        floor -= Fraction(t * len(T) ** 2 * (k - t), n - t) * comb(n - t, k - t)
    if Fraction(len(out.members)) < floor:
        raise VerificationError(
            "construction fell below its closed-form size floor",
            size=len(out.members), floor=str(floor),
        )


def _forbidden(bad) -> VerificationError:
    return VerificationError(
        "construction carries a forbidden sunflower", witness=report(bad)
    )


def example_23(n: int, k: int, s: int, t: int, T: SetFamily) -> SetFamily:
    """All k-subsets of [n] whose intersection with the skeleton support is
    itself a skeleton member.

    When the t-uniform skeleton ``T`` is free of s-petal sunflowers, the
    result carries no s-sunflower with a core smaller than t; that is
    re-verified by exhaustion before returning, along with the exact size
    identity |result| = |T| * C(n - |supp T|, k - t) and the closed-form
    size floor with |T| standing in for the kernel optimum.  Refuses with
    ``CapacityError`` when there are more k-subsets of [n] to enumerate than
    a domain may hold.
    """
    _check_nkst(n, k, s, t)
    if n > 64:
        raise CapacityError("ground sets top out at 64 elements", n=n)
    if not T.members:
        return SetFamily(GroundSet(n), ())
    if T.uniformity != t:
        raise PreconditionError(
            "skeleton must be t-uniform", t=t, got=T.uniformity
        )
    supp = T.support()
    if supp.bit_length() > n:
        raise PreconditionError("skeleton support exceeds the ground set", n=n)
    _check_skeleton(T, s)

    if comb(n, k) > MEMBER_CAP:
        raise CapacityError("too many k-subsets to enumerate", size=comb(n, k))
    ground = GroundSet(n)
    out = SetFamily(ground, tuple(m for m in bit_subsets(ground.full_mask, k) if (m & supp) in T))
    _check_lift_size(out, n, k, t, T)
    bad = find_sunflower(out, CorePredicate(s, CoreMode.EXACT, t - 1))
    if bad is not None:
        raise _forbidden(bad)
    return out


def fstar_family(A: Domain, T_star: SetFamily, s: int) -> SetFamily:
    """Domain members whose intersection with the skeleton support is a
    skeleton member: the union over T of the (T, supp)-restriction joined
    back with T.

    Requires the skeleton to sit inside the domain's depth-t shadow and to
    be free of s-sunflowers.  Verifies by exhaustion that the result has no
    s-sunflower with core size below t, and, when the domain advertises a
    nominal spread parameter r, that the gap to the full trace stays within
    t * |skeleton|^2 / r times the largest depth-t link.
    """
    if s < 2:
        raise PreconditionError("need at least 2 petals", s=s)
    if not T_star.members:
        return A.family.replace_members(())
    t = T_star.uniformity
    if t is None or t < 1 or t > A.k:
        raise PreconditionError(
            "skeleton must be uniform of a size between 1 and the domain "
            "uniformity", got=t,
        )
    if T_star.ground.n != A.ground_bits:
        raise PreconditionError(
            "skeleton and domain live on different ground sets",
            skeleton=T_star.ground.n, domain=A.ground_bits,
        )
    for T in T_star.members:
        if T not in A.table:
            raise PreconditionError(
                "skeleton set misses the domain shadow", member=T
            )
    _check_skeleton(T_star, s)
    supp = T_star.support()
    out = A.family.replace_members(m for m in A.family.members if (m & supp) in T_star)
    bad = find_sunflower(out, CorePredicate(s, CoreMode.AT_MOST, t - 1))
    if bad is not None:
        raise _forbidden(bad)
    spread_r = A.nominal_parameters().get("spread_r")
    if spread_r is not None and t < A.k:
        gap = len(trace_cover(A.family, T_star, A.index).members) - len(out.members)
        cap = (
            Fraction(t * len(T_star.members) ** 2)
            / Fraction(spread_r) * A.max_link(t)[1]
        )
        if Fraction(gap) > cap:
            raise VerificationError(
                "trace gap exceeds the skeleton-squared estimate",
                gap=gap, cap=str(cap),
            )
    return out


# -- end-to-end instance verification ----------------------------------------

def verify_instance(
    A: Domain,
    s: int,
    t: int,
    pred: CorePredicate | None = None,
    budget: int = 2_000_000,
) -> dict:
    """Search the exact optimum, build skeleton constructions, evaluate
    every registered bound, and cross-check the ordering.

    The result is a JSON-ready report.  Construction sizes are only admitted
    after an explicit legality check against ``pred``; bounds join the
    sandwich only when they apply to this predicate, produce a number, and
    have their hypotheses met.  Any ordering violation lands in
    ``violations`` rather than raising.  Exhausting the search budget
    downgrades the report to bounds-only.

    Each construction is built once and each family checked once: on a
    binomial domain the ``skeleton-lift`` and ``domain-skeleton`` rows share
    one family.  ``fstar_family`` builds and checks it; its check of cores
    below t covers ``example_23``'s of cores of exactly t - 1, and
    ``example_23``'s size identity and floor are checked on it as well.
    """
    if not (2 <= s and 1 <= t <= A.k):
        raise PreconditionError("need s >= 2 and 1 <= t <= domain uniformity")
    if pred is None:
        pred = CorePredicate(s, CoreMode.AT_MOST, t - 1)
    if pred.s != s:
        raise PreconditionError("predicate petal count must match s",
                               s=s, pred=pred.describe())
    n = A.ground_bits
    k = A.k

    search = max_sunflower_free(
        A.family, pred, budget=budget,
        symmetry="full" if A.kind == "binomial" else None,
    )
    optimum = search.optimum if search.certified else None

    constructions = []  # (kind, size, legal)
    kernel = None
    if t * (s - 1) <= n:
        kernel = SetFamily(GroundSet(n), product_kernel(s, t).members)
    kinds = []
    if kernel is not None and A.kind == "binomial":
        kinds.append("skeleton-lift")
    if kernel is not None and all(T in A.table for T in kernel.members):
        kinds.append("domain-skeleton")
    if kinds:
        # on a binomial domain example_23 and fstar_family build the same
        # family, all k-subsets: it is built and checked once for both rows,
        # example_23's counts included
        lift = fstar_family(A, kernel, s)
        if A.kind == "binomial":
            _check_lift_size(lift, n, k, t, kernel)
        # the lift has passed the check for cores below t
        legal = pred == CorePredicate(s, CoreMode.AT_MOST, t - 1) or family_is_free(lift, pred)
        constructions += [(kind, len(lift.members), legal) for kind in kinds]
    if A.family.members:
        single = A.family.replace_members(A.family.members[:1])
        constructions.append(("single-member", 1, family_is_free(single, pred)))
    best_size = max((size for _, size, legal in constructions if legal), default=None)

    nkst = {"n": n, "k": k, "s": s, "t": t}
    # an s-sunflower of k-sets has a core of at most k - 1 elements
    admits = [pred.admits_core_size(c) for c in range(k)]
    rows = [(bound_rhs(name, nkst), _bounds_family_size(_FORMULAS[name], k, t, admits))
            for name in bound_names()]

    violations = []
    if best_size is not None and optimum is not None and best_size > optimum:
        violations.append(
            f"construction size {best_size} exceeds the optimum {optimum}"
        )
    for formula, applicable in rows:
        if not (applicable and formula.comparable and formula.hypotheses_met):
            continue
        if optimum is not None and Fraction(optimum) > formula.value:
            violations.append(
                f"optimum {optimum} exceeds bound {formula.name} = {formula.value}"
            )
        elif optimum is None and best_size is not None \
                and Fraction(best_size) > formula.value:
            violations.append(
                f"construction {best_size} exceeds bound "
                f"{formula.name} = {formula.value}"
            )

    return {
        "schema": 1,
        "domain": A.as_json_obj(),
        "s": s,
        "t": t,
        "pred": pred.describe(),
        "optimum": optimum,
        "optimum_certified": search.certified,
        "search_nodes": search.nodes,
        "witness": search.witness.as_sets() if optimum is not None else None,
        "construction": best_size,
        "constructions": [
            {"kind": kind, "size": size, "legal": legal}
            for kind, size, legal in constructions
        ],
        "bounds": [
            dict(report(formula), applicable=applicable)
            for formula, applicable in rows
        ],
        "violations": violations,
    }
