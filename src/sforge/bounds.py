"""Closed-form size bounds, extremal constructions, instance verification.

Every formula here evaluates over exact rationals.  Scale factors living
inside logarithms are bracketed from above first, so a reported number is
always a legitimate upper estimate.  Formulas built around constants that
only come with growth guarantees (the double-exponential uniformity costs)
refuse to produce a number and surface a symbolic token instead.

``verify_instance`` ties the pieces together: exact optimum by search,
skeleton-based constructions from below, every registered bound from above,
and a table that flags any ordering violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .domains import Domain
from .errors import CapacityError, PreconditionError, VerificationError
from .family import GroundSet, SetFamily, canon_key, trace_cover
from .spread import frac_log2_bracket
from .sunflowers import (
    CoreMode,
    CorePredicate,
    find_sunflower,
    max_sunflower_free,
    phi_exact,
    product_kernel,
)

__all__ = [
    "BoundFormula",
    "bound_rhs",
    "bound_names",
    "example_23",
    "fstar_family",
    "verify_instance",
]


@dataclass(frozen=True)
class BoundFormula:
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

    @property
    def comparable(self) -> bool:
        return self.value is not None

    def as_report(self) -> dict:
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "value": None if self.value is None else str(self.value),
            "symbolic": self.symbolic,
            "hypotheses_met": self.hypotheses_met,
            "phi_source": self.phi_source,
            "note": self.note,
        }


# -- kernel optimum lookups --------------------------------------------------


@lru_cache(maxsize=None)
def _phi_with_provenance(s: int, t: int) -> tuple[Fraction, str]:
    """The largest sunflower-free t-uniform family size, exact where the
    certified search reaches it, otherwise the general upper estimate."""
    if t == 1:
        return Fraction(s - 1), "exact"
    if s == 2:
        return Fraction(1), "exact"
    if t == 2 and s <= 4:
        support = t * ((s - 1) ** t + 1)
        for _ in range(6):
            res = phi_exact(s, t, support)
            if res.unconditional:
                return Fraction(res.value), "exact"
            support = t * (res.value + 1)
    return _phi_cap(s, t), "upper-estimate"


def _log2_hi(x) -> Fraction:
    """Upper rational estimate of log2, exact at integral powers of two."""
    x = Fraction(x)
    if x.denominator == 1 and x.numerator & (x.numerator - 1) == 0:
        return Fraction(x.numerator.bit_length() - 1)
    return frac_log2_bracket(x)[1]


def _phi_cap(s: int, t: int) -> Fraction:
    if t == 1:
        return Fraction(s - 1)
    return (Fraction(2 ** 14 * s) * _log2_hi(t)) ** t


def _need(params: dict, *names: str) -> list:
    out = []
    for nm in names:
        if nm not in params:
            raise PreconditionError(f"bound formula needs parameter {nm!r}")
        v = params[nm]
        if type(v) is not int or v < 0:
            raise PreconditionError(f"parameter {nm!r} must be a nonnegative int")
        out.append(v)
    return out


# -- the formula registry ----------------------------------------------------


def _erdos_rado(p: dict) -> BoundFormula:
    s, k = _need(p, "s", "k")
    if s < 2:
        raise PreconditionError("need s >= 2")
    return BoundFormula(
        "erdos-rado", {"s": s, "k": k},
        Fraction(factorial(k) * (s - 1) ** k),
        note="any k-uniform family above this carries an s-sunflower",
    )


def _phi_cap_formula(p: dict) -> BoundFormula:
    s, t = _need(p, "s", "t")
    if t < 1 or s < 2:
        raise PreconditionError("need s >= 2 and t >= 1")
    if t == 1:
        return BoundFormula("phi-cap", {"s": s, "t": t}, Fraction(s - 1),
                            note="kernel optimum, exact at depth one")
    return BoundFormula(
        "phi-cap", {"s": s, "t": t}, _phi_cap(s, t),
        note="kernel optimum estimate, upper-rounded at the log",
    )


def _erdos_matching(p: dict) -> BoundFormula:
    n, k, s = _need(p, "n", "k", "s")
    if not (2 <= s and 1 <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= k <= n")
    clique = comb(k * s - 1, k)
    cover = comb(n, k) - comb(n - s + 1, k)
    return BoundFormula(
        "erdos-matching", {"n": n, "k": k, "s": s},
        Fraction(max(clique, cover)),
        hypotheses_met=(k <= 2),
        note="largest family with no s pairwise disjoint members"
        + ("" if k <= 2 else "; beyond pairs the maximum is not certified here"),
    )


def _lead_term(n: int, k: int, s: int, t: int) -> tuple[Fraction, str]:
    if not (2 <= s and 1 <= t <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= t <= k <= n")
    phi, src = _phi_with_provenance(s, t)
    return phi * comb(n - t, k - t), src


def _large_n_main(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    lead, src = _lead_term(n, k, s, t)
    if t == 1:
        extra = Fraction(0)
    else:
        scale = (Fraction(2 ** 14 * s) * _log2_hi(t)) ** t
        extra = (
            scale * 2 ** 17 * s * s * t * t
            * Fraction(k, n) * _log2_hi(Fraction(n, k))
            * comb(n - t, k - t)
        )
    return BoundFormula(
        "large-n-main", {"n": n, "k": k, "s": s, "t": t}, lead + extra,
        hypotheses_met=False, phi_source=src,
        note="needs a ground set past an unspecified threshold n0(s, t)",
    )


def _large_n_main_alt(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    lead, src = _lead_term(n, k, s, t)
    if t == 1:
        extra = Fraction(0)
    else:
        scale = (Fraction(2 ** 14 * s) * _log2_hi(t)) ** t
        extra = (
            scale * 2 ** 5 * s * s * t * t
            * Fraction(k, n) * _log2_hi(Fraction(n, k)) ** 2
            * comb(n - t, k - t)
        )
    return BoundFormula(
        "large-n-main-alt", {"n": n, "k": k, "s": s, "t": t}, lead + extra,
        hypotheses_met=False, phi_source=src,
        note="variant with the squared log in the error term; "
        "needs a ground set past an unspecified threshold",
    )


def _frankl_furedi(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    lead, src = _lead_term(n, k, s, t)
    return BoundFormula(
        "frankl-furedi", {"n": n, "k": k, "s": s, "t": t}, lead,
        hypotheses_met=False, phi_source=src,
        note="leading term alone, valid only past an unspecified threshold",
    )


def _small_k_main(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    _lead_term(n, k, s, t)
    return BoundFormula(
        "small-k-main", {"n": n, "k": k, "s": s, "t": t}, None,
        symbolic="phi(s,t)*C(n-t,k-t) + k*c(s,k)/(n-k)*C(n,k-t)",
        hypotheses_met=False,
        note="the constant c(s,k) comes with growth guarantees only",
    )


def _delta_method(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    if not (2 <= s and 1 <= t <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= t <= k <= n")
    return BoundFormula(
        "delta-method-bound", {"n": n, "k": k, "s": s, "t": t}, None,
        symbolic="C_k * n^(k-t) * s^t",
        hypotheses_met=False,
        note="the uniformity constant C_k is double-exponential and unpinned",
    )


def _double_exp_uniform(p: dict) -> BoundFormula:
    s, k = _need(p, "s", "k")
    return BoundFormula(
        "double-exp-uniform", {"s": s, "k": k}, None,
        symbolic="s^(2^k) * 2^(2^(C*k))",
        hypotheses_met=False,
        note="growth envelope for c(s,k); the inner constant C is unspecified",
    )


def _downclosed_cover(p: dict) -> BoundFormula:
    n, k, s, t = _need(p, "n", "k", "s", "t")
    if not (2 <= s and 1 <= t <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= t <= k <= n")
    if t == 1:
        val = Fraction(0)
        note = "cover residue estimate, vacuous at depth one"
    else:
        r = Fraction(n, k)
        val = (
            (Fraction(2 ** 14 * s) * _log2_hi(t)) ** t
            * Fraction(2 ** 19 * s * (t + 1), 1) / r
            * _log2_hi(r)
            * comb(n - t, k - t)
        )
        note = "bound on the part a small-set cover may leave uncovered"
    return BoundFormula(
        "downclosed-cover-bound", {"n": n, "k": k, "s": s, "t": t}, val,
        hypotheses_met=False, note=note,
    )


_REGISTRY = {
    "erdos-rado": _erdos_rado,
    "phi-cap": _phi_cap_formula,
    "erdos-matching": _erdos_matching,
    "large-n-main": _large_n_main,
    "large-n-main-alt": _large_n_main_alt,
    "frankl-furedi": _frankl_furedi,
    "small-k-main": _small_k_main,
    "delta-method-bound": _delta_method,
    "double-exp-uniform": _double_exp_uniform,
    "downclosed-cover-bound": _downclosed_cover,
}


def bound_names() -> list[str]:
    return sorted(_REGISTRY)


def bound_rhs(name: str, params: dict) -> BoundFormula:
    """Evaluate the named upper-bound formula at the given parameters."""
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise PreconditionError(
            f"unknown bound name {name!r}", known=sorted(_REGISTRY)
        ) from None
    return fn(dict(params))


def _bounds_family_size(name: str, k: int, t: int, pred: CorePredicate) -> bool:
    """Whether the named formula bounds the size of every pred-free family.

    Soundness direction: a formula proved for families avoiding a fixed set
    of core sizes transfers to any predicate that forbids at least those
    sizes, since the legal families only shrink.
    """
    if name == "erdos-rado":
        return all(pred.admits_core_size(c) for c in range(k))
    if name == "erdos-matching":
        return k == 2 and pred.admits_core_size(0)
    if name == "phi-cap":
        return k == t and all(pred.admits_core_size(c) for c in range(t))
    if name in ("large-n-main", "large-n-main-alt", "frankl-furedi",
                "small-k-main", "delta-method-bound"):
        return all(pred.admits_core_size(c) for c in range(t))
    return False  # residue estimates and growth envelopes bound other things


# -- extremal constructions --------------------------------------------------


def _masks_sorted(masks) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=canon_key))


def example_23(n: int, k: int, s: int, t: int, T: SetFamily) -> SetFamily:
    """All k-subsets of [n] whose intersection with the skeleton support is
    itself a skeleton member.

    When the t-uniform skeleton ``T`` is free of s-petal sunflowers, the
    result carries no s-sunflower with a core smaller than t; that is
    re-verified by exhaustion before returning, along with the exact size
    identity |result| = |T| * C(n - |supp T|, k - t) and the closed-form
    size floor with |T| standing in for the kernel optimum.
    """
    if not (2 <= s and 1 <= t <= k <= n):
        raise PreconditionError("need s >= 2 and 1 <= t <= k <= n")
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
    wit = find_sunflower(T, CorePredicate(s, CoreMode.ANY))
    if wit is not None:
        raise PreconditionError(
            "skeleton carries an s-sunflower", witness=wit.as_report()
        )

    masks = []
    for combo in combinations(range(n), k):
        m = 0
        for c in combo:
            m |= 1 << c
        if (m & supp) in T:
            masks.append(m)
    out = SetFamily(GroundSet(n), _masks_sorted(masks))

    sigma = supp.bit_count()
    if len(out.members) != len(T) * comb(n - sigma, k - t):
        raise VerificationError(
            "construction size disagrees with the counting identity",
            got=len(out.members),
            expected=len(T) * comb(n - sigma, k - t),
        )
    floor = Fraction(len(T) * comb(n - t, k - t))
    if k > t:
        floor -= Fraction(t * len(T) ** 2 * (k - t), n - t) * comb(n - t, k - t)
    if Fraction(len(out.members)) < floor:
        raise VerificationError(
            "construction fell below its closed-form size floor",
            size=len(out.members), floor=str(floor),
        )
    bad = find_sunflower(out, CorePredicate(s, CoreMode.EXACT, t - 1))
    if bad is not None:
        raise VerificationError(
            "construction carries a forbidden sunflower",
            witness=bad.as_report(),
        )
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
        if A.link_count(T) < 1:
            raise PreconditionError(
                "skeleton set misses the domain shadow", member=T
            )
    wit = find_sunflower(T_star, CorePredicate(s, CoreMode.ANY))
    if wit is not None:
        raise PreconditionError(
            "skeleton carries an s-sunflower", witness=wit.as_report()
        )

    supp = T_star.support()
    out = A.family.replace_members(
        m for m in A.family.members if (m & supp) in T_star
    )

    bad = find_sunflower(out, CorePredicate(s, CoreMode.AT_MOST, t - 1))
    if bad is not None:
        raise VerificationError(
            "construction carries a forbidden sunflower",
            witness=bad.as_report(),
        )
    spread_r = A.nominal_parameters().get("spread_r")
    if spread_r is not None and t < A.k:
        gap = len(trace_cover(A.family, T_star).members) - len(out.members)
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

_ALL_PARAM_NAMES = ("n", "k", "s", "t")


def _formula_params(name: str, n: int, k: int, s: int, t: int) -> dict:
    if name in ("erdos-rado", "double-exp-uniform"):
        return {"s": s, "k": k}
    if name == "phi-cap":
        return {"s": s, "t": t}
    if name == "erdos-matching":
        return {"n": n, "k": k, "s": s}
    return {"n": n, "k": k, "s": s, "t": t}


def _legal(F: SetFamily, pred: CorePredicate) -> bool:
    return find_sunflower(F, pred) is None


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

    constructions = []
    kernel = None
    if t * (s - 1) <= n:
        kernel = SetFamily.from_sets(n, product_kernel(s, t).as_sets())
    if kernel is not None and A.kind == "binomial":
        built = example_23(n, k, s, t, kernel)
        constructions.append(
            ("skeleton-lift", built if _legal(built, pred) else None,
             len(built.members))
        )
    if kernel is not None and all(A.link_count(T) >= 1 for T in kernel.members):
        built = fstar_family(A, kernel, s)
        constructions.append(
            ("domain-skeleton", built if _legal(built, pred) else None,
             len(built.members))
        )
    if A.family.members:
        single = A.family.replace_members([A.family.members[0]])
        constructions.append(
            ("single-member", single if _legal(single, pred) else None, 1)
        )

    best_size = None
    for _, fam_ok, size in constructions:
        if fam_ok is not None and (best_size is None or size > best_size):
            best_size = size

    rows = []
    for name in bound_names():
        params = _formula_params(name, n, k, s, t)
        formula = bound_rhs(name, params)
        applicable = _bounds_family_size(name, k, t, pred)
        rows.append((formula, applicable))

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
            {"kind": kind, "size": size, "legal": fam_ok is not None}
            for kind, fam_ok, size in constructions
        ],
        "bounds": [
            dict(formula.as_report(), applicable=applicable)
            for formula, applicable in rows
        ],
        "violations": violations,
    }
