"""Byte pins on the bound formulas and on ``verify_instance``.

Every formula is evaluated over a fixed grid of ``(n, k, s, t)`` plus a few
malformed parameter sets; each report (or, for a refused evaluation, the
error's canonical report) is serialized canonically and the whole sequence
hashed.  The digests were computed before the formulas moved into one
table, so any change to a value, a note, a parameter set or an error
message shows here.

Left out of the grid: ``s = 4, t = 2``, whose kernel optimum takes two
exact searches of about 30 s each, and ``erdos-matching`` with
``s - 1 > n``, which raised a bare ``ValueError`` before the cover term
was clamped (``test_cli`` covers that case).
"""

import hashlib
from itertools import product

from sforge.bounds import bound_names, bound_rhs, verify_instance
from sforge.domains import Domain
from sforge.errors import SforgeError
from sforge.family import report
from sforge.scenario import canonical_report_bytes

GRID_N = (0, 1, 2, 3, 5, 8, 16)
GRID_K = (0, 1, 2, 3, 4)
GRID_S = (1, 2, 3, 4, 5)
GRID_T = (0, 1, 2, 3)
MALFORMED = (
    {},
    {"n": 6, "k": 2, "s": 3},
    {"n": 6, "k": 2.5, "s": 3, "t": 1},
    {"n": 6, "k": 2, "s": True, "t": 1},
    {"n": -1, "k": -1, "s": -1, "t": -1},
    {"n": 6, "k": 2, "s": 3, "t": 1, "extra": "ignored"},
)


def _report(fn) -> bytes:
    try:
        return canonical_report_bytes(fn())
    except SforgeError as exc:
        return canonical_report_bytes(exc.as_report())


def _bound_params():
    for n, k, s, t in product(GRID_N, GRID_K, GRID_S, GRID_T):
        if (s, t) != (4, 2):
            yield {"n": n, "k": k, "s": s, "t": t}
    yield from MALFORMED


def bound_digest() -> str:
    h = hashlib.sha256()
    for name in bound_names() + ["no-such-bound"]:
        for p in _bound_params():
            if name == "erdos-matching" and p.get("s", 0) - 1 > p.get("n", 0) >= p.get("k", 0) >= 1:
                continue
            h.update(_report(lambda: report(bound_rhs(name, p))))
    return h.hexdigest()


def verify_digest() -> str:
    h = hashlib.sha256()
    domains = [Domain.binomial(n, k)
               for n, k in ((4, 1), (4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3))]
    domains += [Domain.sequences(3, 2), Domain.kpartite_product(3, (2, 1))]
    for A, s in product(domains, (2, 3, 4, 5)):
        for t in range(1, A.k + 1):
            if (s, t) != (4, 2):
                h.update(_report(lambda: verify_instance(A, s, t)))
    return h.hexdigest()


def test_bound_reports_match_their_digest():
    assert bound_digest() == "f5a65d92e13144f4246b5bf7c3619268013615ee271f79d0bc2dfdf0d56f85c4"


def test_verify_reports_match_their_digest():
    assert verify_digest() == "ecb9bbcd601864cfa24c7dd77f4f8316148de2f41245a217ec25f0eca7020fa3"
