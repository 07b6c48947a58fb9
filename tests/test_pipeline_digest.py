"""Byte pins on the decomposition pipelines.

Every pipeline operation (``approx``, ``simplify``, ``cover``, ``reduce``,
``cluster``, ``peel``, ``delta``) runs on fixed and seeded instances from
``support``; each report (or, for a refused call, the error's canonical
report) is serialized canonically and the whole sequence hashed.  The cases
reach each stop of ``spread_approximation`` (homogeneous, depth, floor,
thin), run ``down_closed_cover`` in direct and chain mode at t = 1, 2 and 3
(2 is a power of two whose log2 bracket is not a point), and include a
family carrying a small-core sunflower and a domain with no nominal
spreadness.  Any change to a part, a record, a trace entry or an error
message shows here.
"""

import hashlib
from fractions import Fraction

from sforge.domains import Domain
from sforge.errors import SforgeError
from sforge.family import SetFamily, report
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

from support import planted_instance, simplify_fixtures

HALF = Fraction(1, 2)


def mask(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def star_of(A, *cores):
    return A.family.replace_members(
        m for m in A.family.members if any(m & c == c for c in cores)
    )


def _report(fn) -> bytes:
    try:
        return canonical_report_bytes(report(fn()))
    except SforgeError as exc:
        return canonical_report_bytes(exc.as_report())


def _approx_cases():
    b7, b8, b10 = Domain.binomial(7, 3), Domain.binomial(8, 2), Domain.binomial(10, 3)
    two_stars = star_of(b10, mask(1, 2), mask(3, 4))
    yield lambda: spread_approximation(b7.family, b7, Fraction(2), 2)  # homogeneous
    yield lambda: spread_approximation(two_stars, b10, Fraction(2), 2)  # depth
    yield lambda: spread_approximation(two_stars, b10, Fraction(5, 2), 2)
    yield lambda: spread_approximation(  # floor
        SetFamily.from_sets(8, [[1, 2]]), b8, Fraction(1), 2, measure_floor=Fraction(2))
    yield lambda: spread_approximation(  # thin
        SetFamily.from_sets(8, [[1, 2], [3, 4]]), b8, Fraction(6), 2,
        measure_floor=Fraction(1, 4))
    yield lambda: spread_approximation(two_stars, b10, Fraction(2), 2, measure_floor=HALF)
    yield lambda: spread_approximation(b8.family.replace_members(()), b8, Fraction(2), 1)
    yield lambda: spread_approximation(SetFamily.from_sets(10, [[1, 2]]), b10, Fraction(2), 2)
    yield lambda: spread_approximation(two_stars, b10, Fraction(1, 2), 2)
    for seed in range(4):
        A, F, _, _, t, _ = planted_instance(seed)
        for tau in (Fraction(2), Fraction(7, 2)):
            yield lambda A=A, F=F, tau=tau, t=t: spread_approximation(F, A, tau, t)
            yield lambda A=A, F=F, tau=tau, t=t: spread_approximation(
                F, A, tau, t, measure_floor=Fraction(1, 64))


def _cover_cases():
    for seed in range(6):
        A, F, _, s, t, w = planted_instance(seed)
        for depth in sorted({w, Fraction(2 * t + 1, 2), Fraction(A.k)}):  # chain and direct
            yield lambda A=A, F=F, s=s, t=t, depth=depth: down_closed_cover(F, A, s, t, depth)
    b16, b12 = Domain.binomial(16, 4), Domain.binomial(12, 4)
    triangle = (mask(1, 2), mask(1, 3), mask(2, 3))
    yield lambda: down_closed_cover(star_of(b16, *triangle), b16, 3, 2, Fraction(5, 2))
    yield lambda: down_closed_cover(star_of(b12, *triangle), b12, 3, 2, Fraction(5, 2))
    b17 = Domain.binomial(17, 2)
    yield lambda: down_closed_cover(star_of(b17, mask(1)), b17, 2, 1, Fraction(2))
    # t = 3: the stars of the four triples of {1,2,3,4} meet pairwise in at
    # least two of those points, so no 3-sunflower has a core below 3
    b10 = Domain.binomial(10, 4)
    triples = (mask(1, 2, 3), mask(1, 2, 4), mask(1, 3, 4), mask(2, 3, 4))
    for F in (star_of(b10, triples[0]), star_of(b10, *triples)):
        for w in (Fraction(7, 2), Fraction(4)):
            yield lambda F=F, w=w: down_closed_cover(F, b10, 3, 3, w)
    b9 = Domain.binomial(9, 3)
    matching = SetFamily.from_sets(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    yield lambda: down_closed_cover(matching, b9, 3, 1, Fraction(3, 2))  # small-core sunflower
    yield lambda: down_closed_cover(matching, b9, 3, 1, Fraction(3))
    yield lambda: down_closed_cover(b9.family.replace_members(()), b9, 3, 2, Fraction(5, 2))
    yield lambda: down_closed_cover(matching, b9, 3, 4, Fraction(2))
    faces = SetFamily.from_sets(6, [[1, 2, 3, 4], [3, 4, 5, 6]])
    layer = Domain.complex_layer(faces, 2)  # no nominal spread_r
    edge = layer.family.replace_members([mask(1, 2)])
    yield lambda: down_closed_cover(edge, layer, 2, 1, Fraction(3, 2))
    yield lambda: down_closed_cover(edge, layer, 2, 1, Fraction(2))


def _simplify_cases():
    for A, F, s, t in simplify_fixtures():
        yield lambda A=A, F=F, s=s, t=t: simplify(F, A, s, t, HALF)
    b17 = Domain.binomial(17, 2)
    yield lambda: simplify(star_of(b17, mask(1)), b17, 2, 1, HALF)
    for seed in range(4):
        A, F, _, s, t, _ = planted_instance(seed)
        yield lambda A=A, F=F, s=s, t=t: simplify(F, A, s, t, Fraction(1, 3))
    b10 = Domain.binomial(10, 4)
    F = SetFamily.from_sets(10, [[1, 2, 3], [1, 2, 3, 5], [1, 2, 4, 6], [1, 2, 3, 7]])
    yield lambda: simplify(F, b10, 3, 3, HALF)
    b8 = Domain.binomial(8, 3)
    yield lambda: simplify(SetFamily.from_sets(8, [[3], [1, 2, 4]]), b8, 3, 2, HALF)
    yield lambda: simplify(SetFamily.from_sets(8, [[1, 2], [3, 4]]), b8, 2, 1, HALF)
    yield lambda: simplify(SetFamily.from_sets(8, [[1, 2]]), b8, 2, 3, HALF)
    yield lambda: simplify(SetFamily.from_sets(8, [[1, 2, 3, 4]]), b8, 2, 1, HALF)
    yield lambda: simplify(SetFamily.from_sets(8, [[1, 2]]), b8, 2, 1, Fraction(1))
    faces = SetFamily.from_sets(6, [[1, 2, 3, 4], [3, 4, 5, 6]])
    layer = Domain.complex_layer(faces, 2)
    yield lambda: simplify(SetFamily.from_sets(6, [[1, 2], [3, 4, 5]]), layer, 2, 2, HALF)


def _full_star_chain(n, k, t, tau):
    A = Domain.binomial(n, k)
    core = mask(*range(1, t + 1))
    D = spread_approximation(star_of(A, core), A, tau, t)
    U = reduce_intersections(D, A, 3, t, Fraction(1, 4 * k))
    return A, D, U


def _reduce_and_cluster_cases():
    for n, k, t, tau in ((8, 3, 2, Fraction(3)), (12, 4, 2, Fraction(3)),
                         (9, 3, 1, Fraction(2)), (9, 5, 3, Fraction(2))):
        yield lambda n=n, k=k, t=t, tau=tau: _full_star_chain(n, k, t, tau)[2]
        for lam in (HALF, Fraction(1, 3)):
            yield lambda n=n, k=k, t=t, tau=tau, lam=lam: cluster_system(
                _full_star_chain(n, k, t, tau)[2], Domain.binomial(n, k), lam)
    A = Domain.binomial(8, 3)
    U = SystemSST(domain=A, s=3, t=2, parts=(
        DecompositionPart(mask(1, 2), SetFamily.from_sets(8, [[6], [7], [8]])),
        DecompositionPart(mask(1, 3), SetFamily.from_sets(8, [[5], [7], [8]])),
        DecompositionPart(mask(4, 5), SetFamily.from_sets(8, [[1], [2], [3]])),
        DecompositionPart(mask(4, 6), SetFamily.from_sets(8, [[1], [2], [3]])),
    ))
    for lam in (Fraction(1, 3), Fraction(1, 4), Fraction(1)):
        yield lambda lam=lam: cluster_system(U, A, lam)
    U1 = SystemSST(domain=A, s=2, t=1, parts=(
        DecompositionPart(mask(1, 2), SetFamily.from_sets(8, [[4], [5]])),
        DecompositionPart(mask(1, 3), SetFamily.from_sets(8, [[6], [7]])),
    ))
    yield lambda: cluster_system(U1, A, HALF)
    thin = SystemSST(domain=A, s=3, t=2, parts=(
        DecompositionPart(mask(1, 2), SetFamily.from_sets(8, [[6]])),))
    yield lambda: cluster_system(thin, A, Fraction(1, 3))
    faces = SetFamily.from_sets(6, [[1, 2, 3, 4], [3, 4, 5, 6]])
    layer = Domain.complex_layer(faces, 2)  # no nominal spread_r
    yield lambda: cluster_system(SystemSST(domain=layer, s=3, t=2, parts=()), layer, HALF)
    b10 = Domain.binomial(10, 3)
    two_stars = star_of(b10, mask(1, 2), mask(3, 4))
    D = spread_approximation(two_stars, b10, Fraction(2), 2)
    yield lambda: reduce_intersections(D, b10, 3, 2, Fraction(1, 12))  # has a remainder
    D = spread_approximation(two_stars, b10, Fraction(5, 2), 2)
    yield lambda: reduce_intersections(D, b10, 3, 2, Fraction(1, 12))
    yield lambda: reduce_intersections(D, b10, 3, 2, HALF)


def _peel_and_delta_cases():
    for seed in range(6):
        A, F, _, s, t, _ = planted_instance(seed)
        yield lambda F=F, s=s, t=t: peel_high_uniformity(F, s, t)
        yield lambda F=F, s=s, t=t: delta_filter(F, s, t)
        yield lambda F=F, t=t: delta_filter(F, 2, t)
    two_stars = SetFamily.from_sets(
        32, [[1, 2, 3, x] for x in range(4, 17)] + [[17, 18, 19, y] for y in range(20, 33)]
        + [[1, 4, 17, 20]])
    yield lambda: peel_high_uniformity(two_stars, 3, 1)
    yield lambda: peel_high_uniformity(
        SetFamily.from_sets(12, [[1, 2, 3, x] for x in range(4, 13)]), 2, 1)
    yield lambda: peel_high_uniformity(
        SetFamily.from_sets(8, [[1, 2, 3, 4], [1, 2, 3, 5], [2, 3, 4, 5]]), 2, 1)
    yield lambda: peel_high_uniformity(
        SetFamily.from_sets(14, [[1, 2, 3, 4, x, y] for x in range(5, 15)
                                 for y in range(x + 1, 15)]), 3, 2)
    yield lambda: peel_high_uniformity(SetFamily.from_sets(9, [[1, 2, 3], [4, 5, 6]]), 2, 1)
    yield lambda: peel_high_uniformity(SetFamily.from_sets(6, [[1, 2], [3, 4, 5]]), 2, 1)
    yield lambda: delta_filter(SetFamily.from_sets(8, [[1, 2, 3], [1, 2, 4], [1, 2, 5],
                                                       [1, 3, 4], [5, 6, 7]]), 2, 2)
    yield lambda: delta_filter(SetFamily.from_sets(8, [[1, 2], [3]]), 2, 1)


def pipeline_digest() -> str:
    h = hashlib.sha256()
    for cases in (_approx_cases, _cover_cases, _simplify_cases,
                  _reduce_and_cluster_cases, _peel_and_delta_cases):
        for fn in cases():
            h.update(_report(fn))
    return h.hexdigest()


def test_pipeline_reports_match_their_digest():
    assert pipeline_digest() == "7ad34980a1461d1574d46747a479ae898d9c4aa9650e67c9dd60d908c91c9cc6"
