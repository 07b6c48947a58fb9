"""The four benchmark workloads: their jobs and the checks on every answer.

A job is one call (or one short chain of calls) into sforge's public API.
``run`` returns whatever sforge returned; ``check`` looks at it afterwards,
outside the timed region, and returns an error message or None.  Expected
values are frozen in ``frozen.json`` (cross-checked by ``freeze.py``) or
recomputed by small reference code here and in ``gen.py``; witnesses and
decompositions are re-checked with sforge's oracles and ``verify`` methods.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FROZEN_PATH = BENCH_DIR / "frozen.json"
SCENARIO = "bench/scenarios/acceptance.json"  # relative to the checkout root


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    certified: Optional[Callable[[Any], bool]] = None  # set on searches


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _expect(cond: bool, message: str) -> Optional[str]:
    return None if cond else message


# -- extremal ----------------------------------------------------------------

# the node budget of the one search that is not expected to certify
EXTREMAL_BUDGET = 1_000
# verify_instance (n, k, s, t): the acceptance-11 grid, then the certified
# top of the k = 2 ladder
EXTREMAL_GRID = tuple((n, 2, s, t) for n in (5, 6, 7) for s in (2, 3) for t in (1, 2))
EXTREMAL_LADDER = ((8, 2, 3, 1),)


def _free_error(members, pred) -> Optional[str]:
    """Re-check a witness family with find_sunflower and, when it is small
    enough, the every-s-subset oracle."""
    from sforge.sunflowers import brute_force_find, find_sunflower

    members = list(members)
    if find_sunflower(members, pred) is not None:
        return "witness carries a forbidden sunflower (find_sunflower)"
    if len(members) <= 25 and brute_force_find(members, pred) is not None:
        return "witness carries a forbidden sunflower (brute_force_find)"
    return None


def _verify_job(A, n: int, k: int, s: int, t: int, expected: int) -> Job:
    from sforge import bounds
    from sforge.family import SetFamily
    from sforge.sunflowers import CoreMode, CorePredicate

    pred = CorePredicate(s, CoreMode.AT_MOST, t - 1)

    def check(rep) -> Optional[str]:
        if not rep["optimum_certified"]:
            return "search did not certify"
        if rep["optimum"] != expected:
            return f"optimum {rep['optimum']} != frozen {expected}"
        if rep["violations"]:
            return f"violations: {rep['violations']}"
        if rep["construction"] is not None and rep["construction"] > rep["optimum"]:
            return "construction exceeds the optimum"
        witness = SetFamily.from_sets(n, rep["witness"]).members
        if len(witness) != expected:
            return "witness size differs from the optimum"
        return _free_error(witness, pred)

    return Job(
        f"verify_instance(binomial({n},{k}),s={s},t={t})",
        lambda: bounds.verify_instance(A, s, t),
        check,
        certified=lambda rep: bool(rep["optimum_certified"]),
    )


def _search_job(label: str, candidates, pred, expected: Optional[int],
                budget: int = 2_000_000, symmetry: Optional[str] = None) -> Job:
    from sforge import sunflowers

    def check(res) -> Optional[str]:
        if len(res.witness.members) != res.optimum:
            return "witness size differs from the optimum"
        if res.nodes > budget + 1:
            return f"search visited {res.nodes} nodes on a budget of {budget}"
        if expected is not None:
            if not res.certified:
                return "search did not certify"
            if res.optimum != expected:
                return f"optimum {res.optimum} != frozen {expected}"
        return _free_error(res.witness.members, pred)

    return Job(
        label,
        lambda: sunflowers.max_sunflower_free(candidates, pred, budget=budget, symmetry=symmetry),
        check,
        certified=lambda res: bool(res.certified),
    )


def _phi_job(s: int, t: int, support: int, expected: int) -> Job:
    from sforge import sunflowers
    from sforge.sunflowers import CoreMode, CorePredicate

    def check(res) -> Optional[str]:
        if not (res.certified and res.unconditional):
            return "phi search not certified unconditionally"
        if res.value != expected:
            return f"phi {res.value} != frozen {expected}"
        if len(res.witness.members) != expected:
            return "witness size differs from the value"
        return _free_error(res.witness.members, CorePredicate(s, CoreMode.ANY))

    return Job(
        f"phi_exact({s},{t},{support})",
        lambda: sunflowers.phi_exact(s, t, support),
        check,
        certified=lambda res: bool(res.certified),
    )


def extremal_jobs(seed: int, frozen: dict, small: bool = False) -> list[Job]:
    """The ladder of exact extremal searches; the seed fixes the job order."""
    from sforge.domains import Domain
    from sforge.sunflowers import CoreMode, CorePredicate

    optima = frozen["extremal"]
    doms = {}

    def dom(n, k):
        if (n, k) not in doms:
            doms[(n, k)] = Domain.binomial(n, k)
        return doms[(n, k)]

    jobs = [_verify_job(dom(n, k), n, k, s, t, optima[f"verify_instance:{n},{k},{s},{t}"])
            for n, k, s, t in EXTREMAL_GRID + (() if small else EXTREMAL_LADDER)]
    if small:
        jobs.append(_search_job(
            "max_sunflower_free(binomial(7,3),s=3,core<=1,budget=200)",
            dom(7, 3).family, CorePredicate(3, CoreMode.AT_MOST, 1), None, budget=200,
        ))
    else:
        jobs.append(_search_job(
            "max_sunflower_free(binomial(7,2),s=3,core<=0)",
            dom(7, 2).family, CorePredicate(3, CoreMode.AT_MOST, 0),
            optima["max_sunflower_free:7,2,3,at-most-0"],
        ))
        jobs.append(_search_job(
            "max_sunflower_free(binomial(6,3),s=3,any,full)",
            dom(6, 3).family, CorePredicate(3, CoreMode.ANY),
            optima["max_sunflower_free:6,3,3,any,full"], symmetry="full",
        ))
        jobs.append(_phi_job(3, 2, 14, optima["phi_exact:3,2,14"]))
        jobs.append(_search_job(
            f"max_sunflower_free(binomial(7,3),s=3,core<=1,budget={EXTREMAL_BUDGET})",
            dom(7, 3).family, CorePredicate(3, CoreMode.AT_MOST, 1), None,
            budget=EXTREMAL_BUDGET,
        ))
    gen.rng_for("extremal", seed, "order").shuffle(jobs)
    return jobs


# -- certify -----------------------------------------------------------------

GLOBAL_P, GLOBAL_TAU = Fraction(1, 4), Fraction(2)  # 1/(1-p) < tau
DIAGONAL_PARAMS = ((Fraction(1, 4), Fraction(2)), (Fraction(1, 2), Fraction(3, 2)),
                   (Fraction(1, 8), Fraction(4)), (Fraction(1, 3), Fraction(2)))
MC_R, MC_M, MC_DELTA, MC_TRIALS = Fraction(4), 2, Fraction(1, 8), 65_536


def diagonal_reference(masks, n: int, p: Fraction, tau: Fraction) -> Optional[int]:
    """First B in canonical order with mu_p^{-B}(F(B,B)) > tau^|B| mu_p(F).

    With weights w(m) = a^|m| b^(n-|m|) (p = a/c, b = c - a) and
    z[B] = sum of w(m) over members m >= B, the B-cell condition reads
    z[B] (td c)^|B| <= (tn a)^|B| z[empty].  The superset sums use a numpy
    zeta transform; the comparison is in Python integers.  Returns None when
    every B passes.
    """
    import numpy as np

    a, c = p.numerator, p.denominator
    b = c - a
    if len(masks) * max(a, b) ** n >= 2 ** 62:
        raise ValueError("superset sums would overflow int64")
    size = np.array([m.bit_count() for m in range(1 << n)], dtype=np.int64)
    z = np.zeros(1 << n, dtype=np.int64)
    idx = np.array(masks, dtype=np.int64)
    z[idx] = a ** size[idx] * b ** (n - size[idx])
    for i in range(n):
        v = z.reshape(-1, 2, 1 << i)
        v[:, 0, :] += v[:, 1, :]
    zl = z.tolist()
    total = zl[0]
    tn, td = tau.numerator, tau.denominator
    lhs = [(td * c) ** j for j in range(n + 1)]
    rhs = [(tn * a) ** j * total for j in range(n + 1)]
    for B in sorted(range(1 << n), key=lambda x: (x.bit_count(), x)):
        j = B.bit_count()
        if zl[B] * lhs[j] > rhs[j]:
            return B
    return None


def _global_job(label, F, p, tau, exhaustive: bool) -> Job:
    from sforge import boolean

    reference = []  # computed at the first check, then reused

    def check(v) -> Optional[str]:
        if v.mode != ("exhaustive" if exhaustive else "diagonal"):
            return f"engine {v.mode} ran instead"
        if not reference:
            reference.append(diagonal_reference(list(F.members), F.ground.n, p, tau))
        first = reference[0]
        if v.ok != (first is None):
            return f"verdict ok={v.ok} but the reference says {first is None}"
        if not exhaustive and v.violation is not None and v.violation != (first, first):
            return "diagonal violation is not the canonically first one"
        return None

    return Job(label, lambda: boolean.check_global(F, p, tau, exhaustive=exhaustive), check)


def _mc_job(entry: dict) -> Job:
    from sforge import spread
    from sforge.family import SetFamily

    F = SetFamily.from_sets(20, gen.as_sets(gen.mc_family(entry["family_seed"])))

    def check(est) -> Optional[str]:
        if est.trials != MC_TRIALS:
            return "trial count changed"
        return _expect(est.hits == entry["hits"],
                       f"hits {est.hits} != frozen {entry['hits']}")

    return Job(
        f"spread_lemma_mc(family={entry['family_seed']},seed={entry['mc_seed']})",
        lambda: spread.spread_lemma_mc(F, MC_R, MC_M, MC_DELTA, MC_TRIALS, seed=entry["mc_seed"]),
        check,
    )


def _spread_jobs(i: int, n: int, masks, R: Fraction, X: int) -> list[Job]:
    from sforge import spread
    from sforge.family import SetFamily

    F = SetFamily.from_sets(n, gen.as_sets(masks))
    kept = sorted(m for m in masks if m & X == 0)
    param = R - X.bit_count()

    def check_removal(cert) -> Optional[str]:
        if sorted(cert.family.members) != kept:
            return "removal kept the wrong members"
        if cert.parameter != param:
            return f"parameter {cert.parameter} != {param}"
        if cert.covering_floor != -(-R.numerator // R.denominator):
            return "covering floor is not ceil(R)"
        if kept and param > 0 and not gen.is_spread(kept, param):
            return "removed family is not spread at the certified parameter"
        return None

    return [
        Job(f"check_spread(instance {i})", lambda: spread.check_spread(F, R),
            lambda v: _expect(v.ok, "spread family reported not spread")),
        Job(f"remove_elements_spread(instance {i})",
            lambda: spread.remove_elements_spread(F, R, X), check_removal),
    ]


def _rt_job(A, n: int, k: int, t: int, violated: bool) -> Job:
    from sforge import domains

    # r = n/k is the ground truth for binomial domains; just above
    # (n-t)/(k-t) a singleton S beside a t-set T breaks it
    r = Fraction(n - t, k - t) + Fraction(1, 2) if violated else Fraction(n, k)

    def check(rep) -> Optional[str]:
        if rep.ok == violated:
            return f"verdict ok={rep.ok}, expected {not violated}"
        if violated:
            T, S = rep.violation
            u = (T | S).bit_count()
            i = S.bit_count()
            big = comb(n - u, k - u) * r.numerator ** i
            if not big > comb(n - T.bit_count(), k - T.bit_count()) * r.denominator ** i:
                return "reported (T, S) is not a violation"
        return None

    return Job(f"check_rt_spread(binomial({n},{k}),r={r},t={t})",
               lambda: domains.check_rt_spread(A, r, t), check)


def _homogeneity_job(A, n: int, k: int, members, tau: Fraction) -> Job:
    from sforge import domains
    from sforge.family import SetFamily

    F = SetFamily.from_sets(n, gen.as_sets(members))
    reference = []  # computed at the first check, then reused

    def check(v) -> Optional[str]:
        if not reference:
            worst = Fraction(1)
            for x, c in gen.link_counts(members).items():
                i = x.bit_count()
                if i:
                    ratio = Fraction(c * comb(n, k), comb(n - i, k - i) * len(members))
                    worst = max(worst, ratio / tau ** i)
            reference.append(worst)
        worst = reference[0]
        if v.worst_ratio != worst:
            return f"worst ratio {v.worst_ratio} != reference {worst}"
        return _expect(v.ok == (worst <= 1), "verdict disagrees with the worst ratio")

    return Job(f"check_tau_homogeneous(binomial({n},{k}),|F|={len(members)},tau={tau})",
               lambda: domains.check_tau_homogeneous(F, A, tau), check)


def certify_jobs(seed: int, frozen: dict, small: bool = False) -> list[Job]:
    from sforge.domains import Domain
    from sforge.family import SetFamily

    rng = gen.rng_for("certify", seed)
    jobs = []
    n_glob = 8 if small else 12
    binom = Domain.binomial(n_glob, n_glob // 2).family
    rand = SetFamily.from_sets(
        n_glob, gen.as_sets(gen.random_family(rng, n_glob, 3172 * (1 << n_glob) // 4096)))
    jobs.append(_global_job(f"check_global(binomial({n_glob},{n_glob // 2}),exhaustive)",
                            binom, GLOBAL_P, GLOBAL_TAU, True))
    jobs.append(_global_job(f"check_global(random n={n_glob} |F|={len(rand)},exhaustive)",
                            rand, GLOBAL_P, GLOBAL_TAU, True))
    n_up = 10 if small else 16
    up = SetFamily.from_sets(n_up, gen.as_sets(gen.upward_family(rng, n_up)))
    for p, tau in DIAGONAL_PARAMS[: 1 if small else None]:
        jobs.append(_global_job(f"check_global(upward n={n_up},p={p},tau={tau},diagonal)",
                                up, p, tau, False))
    pool = frozen["mc"]
    for entry in rng.sample(pool, 1 if small else 4):
        jobs.append(_mc_job(entry))
    for i in range(2 if small else 16):
        jobs.extend(_spread_jobs(i, *gen.spread_instance(rng, i)))
    shapes = ((8, 3, 1),) if small else ((16, 4, 2), (14, 5, 2), (12, 3, 3), (15, 4, 1))
    for n, k, t in shapes:
        A = Domain.binomial(n, k)
        jobs.append(_rt_job(A, n, k, t, violated=False))
        jobs.append(_rt_job(A, n, k, min(t, k - 1), violated=True))
    for n, k in ((8, 3),) if small else ((12, 4), (14, 3), (13, 5)):
        A = Domain.binomial(n, k)
        members = rng.sample(A.family.members, len(A.family.members) // 2)
        jobs.append(_homogeneity_job(A, n, k, members, Fraction(2)))
        jobs.append(_homogeneity_job(A, n, k, members, Fraction(11, 10)))
    return jobs


# -- decompose -----------------------------------------------------------------


def _partition_error(F_members, core_members, residue_members) -> Optional[str]:
    covered = {m for m in F_members if any(m & T == T for T in core_members)}
    if covered & set(residue_members):
        return "residue overlaps the covered part"
    if covered | set(residue_members) != set(F_members):
        return "covered part and residue do not partition the family"
    return None


def _decompose_instance(i: int, A, n: int, k: int, t: int, members, cores) -> list[Job]:
    from sforge import pipelines
    from sforge.family import SetFamily
    from sforge.sunflowers import CoreMode, CorePredicate, find_sunflower

    s = 3
    F = SetFamily.from_sets(n, gen.as_sets(members))
    free_any = CorePredicate(s)
    tag = f"#{i} n={n},k={k},t={t}"
    jobs = []

    def cover_check(res) -> Optional[str]:
        if res.decomposition is not None:
            res.decomposition.verify()
        if any(m.bit_count() != t for m in res.core_family.members):
            return "core family is not t-uniform"
        if find_sunflower(res.core_family, free_any) is not None:
            return "core family carries a sunflower"
        return _partition_error(F.members, res.core_family.members, res.residue.members)

    for w in (Fraction(2 * t + 1, 2), Fraction(k)):
        jobs.append(Job(f"down_closed_cover({tag},w={w})",
                        lambda w=w: pipelines.down_closed_cover(F, A, s, t, w), cover_check))

    def simplify_check(res) -> Optional[str]:
        if any(m.bit_count() != t for m in res.core_family.members):
            return "simplified family is not t-uniform"
        return _expect(find_sunflower(res.core_family, free_any) is None,
                       "simplified family carries a sunflower")

    jobs.append(Job(f"simplify({tag})", lambda: pipelines.simplify(F, A, s, t, Fraction(1, 2)),
                    simplify_check))
    if k >= 2 * t + 1:
        def peel_check(res) -> Optional[str]:
            if any(m.bit_count() > 2 * t + 1 for m in res.core_family.members):
                return "peeled family has members above 2t+1"
            pred = CorePredicate(s, CoreMode.EXACT, t - 1)
            return _expect(find_sunflower(res.core_family, pred) is None,
                           "peeled family carries a sunflower at core size t-1")

        jobs.append(Job(f"peel_high_uniformity({tag})",
                        lambda: pipelines.peel_high_uniformity(F, s, t), peel_check))

    def delta_check(res) -> Optional[str]:
        kept, removed = set(res.family.members), set(res.removed.members)
        if kept & removed or kept | removed != set(F.members):
            return "kept and removed members do not partition the family"
        if sorted(m for m, _ in res.chosen) != sorted(kept):
            return "anchor map does not cover the kept family"
        if any(T & ~m or T.bit_count() != t for m, T in res.chosen):
            return "an anchor is not a t-subset of its member"
        return _expect(res.rounds >= 1, "no rounds reported")

    jobs.append(Job(f"delta_filter({tag})", lambda: pipelines.delta_filter(F, s, t),
                    delta_check))

    if k > t:
        core = cores[0]
        star = SetFamily.from_sets(n, gen.as_sets(gen.full_star(n, k, core)))
        tau = gen.chain_tau(n, k, t)
        link = sorted(m & ~core for m in star.members)

        def chain():
            D = pipelines.spread_approximation(star, A, tau, t)
            U = pipelines.reduce_intersections(D, A, s, t, Fraction(1, 4 * k))
            return D, U, pipelines.cluster_system(U, A, Fraction(1, 2))

        def chain_check(out) -> Optional[str]:
            D, U, C = out
            D.verify()
            U.verify()
            if D.remainder.members:
                return "full star left a remainder"
            if [p.core for p in D.parts] != [core]:
                return "decomposition did not find the planted core alone"
            if sorted(D.parts[0].family.members) != link:
                return "the part is not the link of the planted core"
            return _expect(C.core_family.members == (core,),
                           "clustering did not return the planted core")

        jobs.append(Job(f"approx>reduce>cluster(full star {tag},tau={tau})", chain, chain_check))
    return jobs


def decompose_jobs(seed: int, frozen: dict, small: bool = False) -> list[Job]:
    from sforge.domains import Domain

    rng = gen.rng_for("decompose", seed)
    doms = {}
    jobs = []
    shapes = gen.DECOMPOSE_SHAPES[:2] if small else gen.DECOMPOSE_SHAPES * 5
    for i, (k, t, n) in enumerate(shapes):
        if (n, k) not in doms:
            doms[(n, k)] = Domain.binomial(n, k)
        members, cores = gen.planted_star(rng, n, k, t)
        jobs.extend(_decompose_instance(i, doms[(n, k)], n, k, t, members, cores))
    return jobs


# -- cli -----------------------------------------------------------------------

_STAR = '{"n":6,"sets":[[1,2],[1,3],[1,4],[1,5]]}'
_PAIRS5 = '{"n":5,"sets":[[1,2],[1,3],[1,4],[1,5],[2,3],[2,4],[2,5],[3,4],[3,5],[4,5]]}'
_BLOCKS = '{"n":8,"sets":[[1,2],[3,4],[5,6],[7,8]]}'
_STAR12 = json.dumps({"n": 12, "sets": [[1, 2, a, b] for a in range(3, 13)
                                        for b in range(a + 1, 13)]}, separators=(",", ":"))
_B12_4 = '{"kind":"binomial","n":12,"k":4}'

# One request per command group, plus the scenario runner.  Each request
# is a child process of about 200 ms, nearly all of it interpreter start and
# imports, and on a shared machine one such call can be 1.5x slower than
# the next.  Nine requests get about a dozen calls each in a 25-second run,
# enough for the fastest to be steady; one per command would get two.
CLI_REQUESTS: tuple[tuple[str, ...], ...] = (
    ("family", "shadow", _STAR, "--depth", "1"),
    ("sunflower", "max-free", _PAIRS5, "--petals", "3"),
    ("--seed", "11", "spread", "mc", _BLOCKS, "-R", "2", "--m", "4", "--delta", "1/8",
     "--trials", "2048"),
    ("domains", "check", '{"kind":"permutations","n":4}', "-r", "1", "--core-size", "1"),
    ("boolean", "global", _STAR, "--p", "1/4", "--tau", "4"),
    ("pipeline", "cover", _STAR12, "--domain", _B12_4, "--petals", "3",
     "--core-size", "2", "--w", "5/2"),
    ("bounds", "eval", "--name", "erdos-rado", "--params", '{"k":2,"s":3}'),
    ("--format", "csv", "verify", "--domain", '{"kind":"binomial","n":6,"k":2}',
     "--petals", "3", "--core-size", "2"),
    ("run", SCENARIO),
)


def request_key(args) -> str:
    return hashlib.sha256("\0".join(args).encode()).hexdigest()[:16]


def cli_launcher() -> tuple[list[str], str]:
    """The command prefix for one request, and which path it is.

    The installed ``sforge`` entry point when there is one, else the module
    through the interpreter; either way ``src`` leads PYTHONPATH, so the
    checkout's code is the code that runs.
    """
    import shutil

    exe = shutil.which("sforge")
    if exe:
        return [exe], "entry-point"
    return [sys.executable, "-c", "from sforge.cli import main; main()"], "python -c"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SFORGE_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: list[str], env: dict) -> ChildResult:
    """Run one child to completion and collect its own peak memory."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err, usage.ru_maxrss)


def cli_jobs(seed: int, frozen: dict, small: bool = False) -> list[Job]:
    prefix, _ = cli_launcher()
    env = child_env()
    expected = frozen["cli"]
    requests = list(CLI_REQUESTS[:2] if small else CLI_REQUESTS)
    gen.rng_for("cli", seed, "order").shuffle(requests)
    jobs = []
    for args in requests:
        want = expected[request_key(args)]

        def check(res, want=want) -> Optional[str]:
            if res.code != 0:
                return f"exit code {res.code}: {res.stderr.decode(errors='replace')[-200:]}"
            digest = hashlib.sha256(res.stdout).hexdigest()
            return _expect(digest == want, f"stdout sha256 {digest[:12]} != frozen {want[:12]}")

        jobs.append(Job("sforge " + " ".join(a if len(a) < 40 else a[:37] + "..." for a in args),
                        lambda args=args: run_child(prefix + list(args), env), check))
    return jobs


WORKLOADS = {
    "extremal": extremal_jobs,
    "certify": certify_jobs,
    "decompose": decompose_jobs,
    "cli": cli_jobs,
}


def corrupt(result):
    """A deliberately wrong copy of one job's answer, or None when this kind
    of answer has no corruption defined.  The smoke run feeds it to the
    job's check, which must flag it."""
    import dataclasses

    if isinstance(result, dict) and "optimum" in result:  # verify_instance
        return dict(result, optimum=result["optimum"] + 1)
    if hasattr(result, "hits"):  # spread_lemma_mc
        return dataclasses.replace(result, hits=result.hits + 1)
    if hasattr(result, "residue"):  # down_closed_cover
        return dataclasses.replace(result, core_family=result.core_family.replace_members(()))
    if isinstance(result, ChildResult):
        return dataclasses.replace(result, stdout=result.stdout + b" ")
    return None
