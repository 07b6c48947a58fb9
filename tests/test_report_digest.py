"""Byte pins on the report of every record class, built by ``family.report``.

Each record class whose report the encoder builds is reached from seeded
calls to public functions, with each optional key once present and once
absent.  Every report is serialized canonically and the whole sequence
hashed, so a change to a key, a conversion or a left-out field shows
here.  A witness or globalness report is also an error detail, printed by
its ``repr``, so for those records the ``repr`` is hashed as well: it pins
key order and the tuples of a globalness violation.  The digests were
recorded with the records' hand-written ``as_report`` methods, before the
encoder replaced them.
"""

import dataclasses
import hashlib
import importlib
import random
from fractions import Fraction

from sforge.boolean import (
    check_global,
    check_uniform_biased_floor,
    hypercontractivity_check,
    max_global_restriction,
    measure_upgrade,
    remove_elements_global,
    verify_sharp_threshold,
)
from sforge.bounds import bound_rhs
from sforge.domains import (
    Domain,
    check_assumptions,
    check_rt_spread,
    check_tau_homogeneous,
    homogeneous_subfamily,
    remove_elements_homogeneous,
)
from sforge.family import SetFamily, upper_closure
from sforge.pipelines import (
    DecompositionPart,
    SystemSST,
    cluster_system,
    delta_filter,
    down_closed_cover,
    peel_high_uniformity,
    reduce_intersections,
    simplify,
    spread_approximation,
)
from sforge.scenario import canonical_report_bytes
from sforge.spread import check_spread, remove_elements_spread
from sforge.sunflowers import (
    CoreMode,
    CorePredicate,
    find_sunflower,
    max_sunflower_free,
    phi_exact,
)

from support import planted_instance
from test_records import MODULES, records

try:
    from sforge.family import report
except ImportError:  # before the encoder every record built its own report
    from operator import methodcaller

    report = methodcaller("as_report")

HALF = Fraction(1, 2)
# the records whose report is an error detail, printed by its repr
REPR_PINNED = {"SunflowerWitness", "DegenerateWitness", "GlobalnessVerdict"}
# records that are no report: inputs, the operation table, a run's result
NOT_REPORTS = {"family.GroundSet", "family.SetFamily", "sunflowers.CorePredicate",
               "domains.Domain", "scenario.Op", "scenario.Param", "scenario.ScenarioResult"}


def fam(n, sets):
    return SetFamily.from_sets(n, sets)


def cube(n):
    return fam(n, [[]]).replace_members(range(1 << n))


def _sunflower_cases():
    rng = random.Random(31)
    for _ in range(6):
        F = fam(7, [rng.sample(range(1, 8), 3) for _ in range(9)])
        yield find_sunflower(F, CorePredicate(3))
        yield max_sunflower_free(F, CorePredicate(3, CoreMode.AT_MOST, 1), budget=5_000)
    yield find_sunflower(fam(5, [[1], [2, 3], [4, 5]]),
                         CorePredicate(3, CoreMode.AT_MOST, 1, True))
    yield phi_exact(3, 1, 3)  # unconditional
    yield phi_exact(3, 2, 4)  # support-restricted


def _boolean_cases():
    dictator = upper_closure(fam(4, [[1]]))
    majority = fam(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
    for F, p, tau in ((dictator, Fraction(1, 8), 2), (majority, HALF, 1),
                      (dictator, HALF, Fraction(3, 2)), (cube(3), Fraction(1, 4), 2)):
        yield check_global(F, p, tau, exhaustive=True)
        yield check_global(F, p, tau, exhaustive=False)
    yield check_global(fam(3, [[1]]), HALF, Fraction(3, 2), exhaustive=True)
    yield check_global(fam(3, [[2], [1, 3]]), HALF, Fraction(3, 2), exhaustive=True)
    yield max_global_restriction(dictator, Fraction(1, 8), 2)
    yield max_global_restriction(majority, Fraction(1, 4), 2, exhaustive=True)
    yield verify_sharp_threshold(cube(3), Fraction(1, 512), Fraction(1, 4))
    yield verify_sharp_threshold(cube(3), Fraction(1, 512), Fraction(1, 4), tau=2)
    yield measure_upgrade(dictator, Fraction(1, 512), 2, z=9, m=1)
    yield hypercontractivity_check(dictator, Fraction(1, 4), 4, Fraction(1, 200), 4)
    yield check_uniform_biased_floor(fam(4, [[1, 2], [1, 3], [2, 4]]))
    yield remove_elements_global(cube(3), Fraction(1, 4), 2, 0b100)


def _domain_cases():
    b62, b83 = Domain.binomial(6, 2), Domain.binomial(8, 3)
    yield check_rt_spread(Domain.binomial(4, 2), 3, 1)  # violation
    yield check_rt_spread(b62, 2, 1)
    star = b83.family.replace_members(m for m in b83.family.members if m & 1)
    yield check_tau_homogeneous(star, b83, 3)
    yield check_tau_homogeneous(b83.family, b83, 1)
    b12 = Domain.binomial(12, 3)
    lone = 0b111000
    F = b12.family.replace_members(
        [m for m in b12.family.members if m & 1 and not m & lone] + [lone])
    yield homogeneous_subfamily(F, b12, 4, Fraction(1, 6))
    yield remove_elements_homogeneous(b62.family, b62, 1, 2, 0b100000)
    faces = fam(4, [[1, 2, 3], [3, 4]])
    yield check_assumptions(Domain.binomial(8, 2), 2, 2, 4, 2)  # all hold
    yield check_assumptions(Domain.binomial(8, 2), 2, 0, 4, 2)  # density
    yield check_assumptions(Domain.complex_layer(faces, 2), 2, 1, 1, 1)  # regularity
    yield check_assumptions(b62, 1, 1, 1, 4)  # spread
    yield check_assumptions(Domain.binomial(14, 4), 2, 2, Fraction(7, 2), Fraction(7, 4))


def _spread_cases():
    yield check_spread(Domain.binomial(6, 2).family, 2)
    yield check_spread(fam(4, [[1, 2], [1, 3], [1, 4]]), 2)  # violation
    yield remove_elements_spread(Domain.binomial(6, 2).family, 3, 0b1)


def _bound_cases():
    yield bound_rhs("erdos-matching", {"n": 8, "k": 2, "s": 3, "t": 1})
    yield bound_rhs("double-exp-uniform", {"s": 3, "k": 2})  # symbolic


def _pipeline_cases():
    for seed in range(4):
        A, F, _, s, t, w = planted_instance(seed)
        yield spread_approximation(F, A, Fraction(2), t)
        yield spread_approximation(F, A, Fraction(2), t, measure_floor=Fraction(1, 64))
        yield down_closed_cover(F, A, s, t, w)  # chain
        yield down_closed_cover(F, A, s, t, Fraction(A.k))  # direct
        yield simplify(F, A, s, t, Fraction(1, 3))
        if A.k > 2 * t:
            yield peel_high_uniformity(F, s, t)
        yield delta_filter(F, s, t)
    yield peel_high_uniformity(fam(12, [[1, 2, 3, x] for x in range(4, 13)]), 2, 1)
    A = Domain.binomial(8, 3)
    yield down_closed_cover(A.family.replace_members(()), A, 3, 2, Fraction(5, 2))
    D = spread_approximation(A.family.replace_members(
        m for m in A.family.members if m & 0b11 == 0b11), A, Fraction(3), 2)
    yield reduce_intersections(D, A, 3, 2, Fraction(1, 12))
    U = SystemSST(domain=A, s=3, t=2, parts=(
        DecompositionPart(0b11, fam(8, [[6], [7], [8]])),
        DecompositionPart(0b101, fam(8, [[5], [7], [8]])),
        DecompositionPart(0b11000, fam(8, [[1], [2], [3]])),
        DecompositionPart(0b101000, fam(8, [[1], [2], [3]])),
    ))
    yield cluster_system(U, A, Fraction(1, 3))


CASES = (_sunflower_cases, _boolean_cases, _domain_cases, _spread_cases, _bound_cases,
         _pipeline_cases)


def instances():
    return [x for cases in CASES for x in cases() if x is not None]


def report_digest(xs) -> str:
    h = hashlib.sha256()
    for x in xs:
        h.update(canonical_report_bytes(report(x)))
        if type(x).__name__ in REPR_PINNED:
            h.update(repr(report(x)).encode())
    return h.hexdigest()


def reached(value, out: set) -> set:
    """The qualified class names of ``value`` and of the records inside it."""
    cls = type(value)
    fields = getattr(cls, "_fields", None) or getattr(cls, "__dataclass_fields__", None)
    if fields is not None:
        out.add(f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}")
        for f in fields:
            reached(getattr(value, f), out)
    elif cls in (list, tuple):
        for v in value:
            reached(v, out)
    return out


def test_reports_match_their_digest():
    want = "24ba61630494411fae54bcf18d34891098f2431de645e5f751f5d32290b01a52"
    assert report_digest(instances()) == want


def test_every_report_record_is_pinned_or_builds_its_own():
    pinned = set()
    for x in instances():
        reached(x, pinned)
    classes = dict(records())
    for mod in MODULES:
        for name, cls in vars(importlib.import_module(f"sforge.{mod}")).items():
            if dataclasses.is_dataclass(cls) and cls.__module__ == f"sforge.{mod}":
                classes[f"{mod}.{name}"] = cls
    own = {name for name, cls in classes.items()
           if vars(cls).get("as_report") not in (None, report)}
    assert set(classes) - NOT_REPORTS - own <= pinned
