"""The twelve acceptance checks, one test per criterion.

Each test prints a checklist line on the way out (visible under ``pytest -s``
or in the failure log); under plain pytest the test names carry the same
pass/fail information, one line per criterion.  Stated runtime budgets are
asserted inside the tests that have one.
"""

import functools
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from click.testing import CliRunner

from sforge.boolean import (
    biased_measure,
    check_global,
    check_uniform_biased_floor,
    noise_operator,
    verify_sharp_threshold,
)
from sforge.bounds import bound_rhs, verify_instance
from sforge.cli import main
from sforge.domains import Domain, check_rt_spread
from sforge.family import GroundSet, SetFamily, family_minus, trace_cover
from sforge.pipelines import down_closed_cover, simplify
from sforge.scenario import run_scenario
from sforge.spread import check_spread, remove_elements_spread, spread_lemma_mc
from sforge.sunflowers import (
    CoreMode,
    CorePredicate,
    find_sunflower,
    oracle_max_sunflower_free,
    phi_exact,
    product_kernel,
)
from support import (
    mc_instance,
    no_small_transversal,
    oracle_simplify_trace,
    planted_instance,
    seeded_spread_instance,
    simplify_fixtures,
)


def checklist(number):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d}: FAIL")
                raise
            print(f"criterion {number:02d}: PASS")

        return wrapper

    return deco


def upward_family(n: int, floor: int) -> SetFamily:
    return SetFamily(GroundSet(n), tuple(m for m in range(1 << n) if m.bit_count() >= floor))


def dictator(n: int) -> SetFamily:
    return SetFamily(GroundSet(n), tuple(m for m in range(1 << n) if m & 1))


@checklist(1)
def test_criterion_01_phi_trivia():
    start = time.monotonic()
    for s in range(2, 7):
        res = phi_exact(s, 1, 2 * s)
        assert res.value == s - 1
        assert res.unconditional
    for t in range(1, 5):
        res = phi_exact(2, t, 2 * t + 2)
        assert res.value == 1
        assert res.unconditional
    assert time.monotonic() - start < 1.0


@checklist(2)
def test_criterion_02_phi_three_two_sandwich():
    start = time.monotonic()
    runner = CliRunner()
    values = []
    for seed in range(5):
        result = runner.invoke(
            main,
            ["--seed", str(seed), "sunflower", "phi",
             "--petals", "3", "--core-size", "2", "--support", "14"],
        )
        assert result.exit_code == 0, result.output
        rep = json.loads(result.output)
        assert rep["unconditional"] is True
        values.append(rep["value"])
    assert len(set(values)) == 1
    lower = len(product_kernel(3, 2).members)
    upper = bound_rhs("erdos-rado", {"k": 2, "s": 3}).value
    assert lower == 4 and upper == 8
    assert lower <= values[0] <= upper
    assert time.monotonic() - start < 600


@checklist(3)
def test_criterion_03_domain_spreadness_ground_truth():
    start = time.monotonic()
    for n in range(1, 11):
        for k in range(1, min(4, n) + 1):
            A = Domain.binomial(n, k)
            for t in range(1, k + 1):
                assert check_rt_spread(A, Fraction(n, k), t).ok, (n, k, t)
    for n in range(2, 7):
        A = Domain.permutations(n)
        for t in (1, 2):
            if t <= n:
                assert check_rt_spread(A, Fraction(n, 4), t).ok, (n, t)
    assert time.monotonic() - start < 120


@checklist(4)
def test_criterion_04_expectation_identity_singletons():
    # mu(F) must equal the expectation of mu(F(H)) over a random h-subset H
    # of a random member, weighted by link size, exactly in rationals
    targets = [
        Domain.binomial(8, 3),
        Domain.sequences(4, 2),
        Domain.kpartite_product(4, [2, 2]),
    ]
    for A in targets:
        N = len(A.family.members)
        k = A.k
        n = A.family.ground.n
        for h in range(0, min(2, k) + 1):
            weight_denom = N * comb(k, h)
            for S in A.family.members:
                elements = [i for i in range(n) if S >> i & 1]
                rhs = Fraction(0)
                for T_elems in combinations(elements, h):
                    T = 0
                    for e in T_elems:
                        T |= 1 << e
                    link_size = A.link_count(T)
                    sub = A.link_domain(T)
                    inside = 1 if (S & ~T) in set(sub.family.members) else 0
                    rhs += Fraction(link_size, weight_denom) * Fraction(inside, link_size)
                assert rhs == Fraction(1, N), (A.kind, h, S)


@checklist(5)
def test_criterion_05_removal_certificates():
    for seed in range(500):
        F, R, X = seeded_spread_instance(seed)
        cert = remove_elements_spread(F, R, X)
        assert check_spread(cert.family, cert.parameter).ok
        assert len(cert.family.members) >= cert.size_floor
        assert no_small_transversal(F, cert.covering_floor - 1)


@checklist(6)
def test_criterion_06_spread_lemma_monte_carlo():
    start = time.monotonic()
    for i in range(20):
        F, R, delta = mc_instance(i)
        est = spread_lemma_mc(F, R, 1, delta, 100_000, seed=500 + i)
        assert not est.vacuous, i
        assert not est.violation, i
        assert est.wilson_low > est.covering_bound_high, i
    assert time.monotonic() - start < 300


@checklist(7)
def test_criterion_07_boolean_identities():
    for seed in range(200):
        rng = random.Random(4600 + seed)
        n = rng.randrange(4, 13)
        k = rng.randrange(1, min(4, n - 1) + 1)
        pool = list(combinations(range(1, n + 1), k))
        F = SetFamily.from_sets(n, rng.sample(pool, rng.randrange(1, len(pool) + 1)))
        report = check_uniform_biased_floor(F)
        assert report.mu >= report.floor

    cases = []
    for F in (dictator(8), upward_family(9, 5), upward_family(8, 3)):
        for denom in (16, 11, 9, 8, 7, 5, 3):
            cases.append((F, Fraction(1, denom), Fraction(2, denom)))
    assert len(cases) >= 20
    for F, p, p_tilde in cases[:20]:
        rep = verify_sharp_threshold(F, p, p_tilde)
        assert rep.mu_tilde * rep.stab >= rep.mu_p**2

    for F in (
        SetFamily.from_sets(6, [[1, 2], [1, 3], [1, 4], [1, 5]]),
        SetFamily.from_sets(6, [[1, 2, 3], [1, 4, 5], [2, 4, 6]]),
        SetFamily.from_sets(5, [[1], [2, 3], [1, 4, 5]]),
    ):
        p = Fraction(1, 3)
        mu = biased_measure(F, p)
        frozen = noise_operator(F, p, 0)
        assert all(value == mu for value in frozen)
        copied = noise_operator(F, p, 1)
        members = set(F.members)
        assert all(
            value == (1 if x in members else 0) for x, value in enumerate(copied)
        )


@checklist(8)
def test_criterion_08_single_round_upgrade():
    # the tau-global premise is empty for these families at these parameters
    # (the n=8 verdicts document it), so the displayed conclusion is asserted
    # directly; mu_up >= mu^(3/4) is compared through fourth powers to stay
    # inside rational arithmetic
    for tau in (1, 2, 4):
        for F in (dictator(8), upward_family(8, 2)):
            assert not check_global(F, Fraction(1, 2**15), tau).ok
    for n in (8, 12, 16):
        for F in (dictator(n), upward_family(n, 2)):
            for tau in (1, 2, 4):
                grid = (Fraction(1, 2**15), Fraction(1, 2**12), Fraction(1, 512 * tau))
                for p in grid:
                    assert 128 * tau * p < 1
                    mu = biased_measure(F, p)
                    mu_up = biased_measure(F, 64 * tau * p)
                    assert mu_up**4 >= mu**3, (n, tau, p)


@checklist(9)
def test_criterion_09_pipeline_recovery():
    nonempty = 0
    for seed in range(50):
        A, F, cores, s, t, w = planted_instance(seed)
        cov = down_closed_cover(F, A, s, t, w)
        assert find_sunflower(cov.core_family, CorePredicate(s)) is None
        covered = trace_cover(F, cov.core_family)
        assert len(covered.members) >= len(F.members) - len(cov.residue.members)
        assert len(covered.members) + len(cov.residue.members) == len(F.members)
        assert set(family_minus(F, covered).members) == set(cov.residue.members)
        if cov.decomposition is not None:
            cov.decomposition.verify()
        if cov.core_family.members:
            nonempty += 1
    assert nonempty >= 1


@checklist(10)
def test_criterion_10_layer_loop_conformance():
    runs = []
    for A, F, s, t in simplify_fixtures():
        res = simplify(F, A, s, t, Fraction(1, 2))
        trace, stages, layers = oracle_simplify_trace(F, s, t)
        assert [(e.round_index, e.core) for e in res.extractions] == trace
        assert [frozenset(x.members) for x in res.stages] == stages
        assert [frozenset(x.members) for x in res.layers] == layers
        runs.append(res)
    big = Domain.binomial(17, 2)
    star = big.family.replace_members(m for m in big.family.members if m & 1)
    runs.append(simplify(star, big, 2, 1, Fraction(1, 2)))
    for res in runs:
        layer_records = [r for r in res.records if r.name.startswith("layer-")]
        assert len(layer_records) == len(res.layers)
        for record in layer_records:
            assert record.verdict == "holds"


FROZEN_OPTIMA = {
    (5, 2, 1): 4, (5, 2, 2): 1, (5, 3, 1): 10, (5, 3, 2): 5,
    (6, 2, 1): 5, (6, 2, 2): 1, (6, 3, 1): 10, (6, 3, 2): 6,
    (7, 2, 1): 6, (7, 2, 2): 1, (7, 3, 1): 11, (7, 3, 2): 6,
}


@checklist(11)
def test_criterion_11_extremal_sandwich():
    start = time.monotonic()
    for n in (5, 6, 7):
        A = Domain.binomial(n, 2)
        for s in (2, 3):
            for t in (1, 2):
                rep = verify_instance(A, s, t)
                assert rep["violations"] == []
                assert rep["optimum_certified"] is True
                assert rep["optimum"] == FROZEN_OPTIMA[(n, s, t)]
                pred = CorePredicate(s, CoreMode.AT_MOST, t - 1)
                assert oracle_max_sunflower_free(A.family, pred) == rep["optimum"]
                assert rep["construction"] <= rep["optimum"]
                for row in rep["bounds"]:
                    usable = (
                        row["applicable"]
                        and row["hypotheses_met"]
                        and row["value"] is not None
                    )
                    if usable:
                        assert rep["optimum"] <= Fraction(row["value"])
    assert time.monotonic() - start < 1800


ACCEPTANCE_SCENARIO = {
    "schema": 1,
    "seed": 42,
    "steps": [
        {"op": "product-kernel", "name": "T", "petals": 3, "core-size": 2},
        {"op": "domain", "name": "A", "kind": "binomial", "n": 10, "k": 4},
        {"op": "example-23", "name": "F", "n": 10, "k": 4, "petals": 3,
         "core-size": 2, "skeleton": "T"},
        {"op": "cover", "name": "C", "family": "F", "domain": "A",
         "petals": 3, "core-size": 2, "w": "5/2"},
        {"op": "assert-free", "family": "F", "petals": 3, "mode": "at-most",
         "core-bound": 1},
        {"op": "family", "name": "B", "n": 8,
         "sets": [[1, 2], [3, 4], [5, 6], [7, 8]]},
        {"op": "mc", "family": "B", "R": 2, "m": 4, "delta": "1/8",
         "trials": 8192},
        {"op": "phi", "petals": 3, "core-size": 2, "support": 14},
        {"op": "domain", "name": "V", "kind": "binomial", "n": 5, "k": 2},
        {"op": "verify-instance", "domain": "V", "petals": 3, "core-size": 1},
        {"op": "bound", "bound": "erdos-rado", "params": {"k": 2, "s": 3}},
    ],
}


@checklist(12)
def test_criterion_12_byte_determinism():
    payloads = []
    for _ in range(3):
        result = run_scenario(ACCEPTANCE_SCENARIO)
        assert result.exit_code == 0
        payloads.append(result.canonical_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    again = run_scenario(ACCEPTANCE_SCENARIO)
    assert again.canonical_bytes() == payloads[0]
