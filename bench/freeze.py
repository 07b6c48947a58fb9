"""Recompute the frozen answers in ``frozen.json``.

    python3 bench/freeze.py            # writes bench/frozen.json

The benchmark compares every answer with these values, so they are
computed once from a known-good tree and checked in.  Extremal optima are
cross-checked here against ``oracle_max_sunflower_free`` wherever that
oracle finishes in reasonable time (the 5..7-point grid and the two small
searches); a disagreement aborts without writing anything.  Monte Carlo hit
counts and CLI output digests are recorded as the tree produces them:
no report byte may change without re-freezing on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from sforge.bounds import verify_instance  # noqa: E402
from sforge.domains import Domain  # noqa: E402
from sforge.family import GroundSet, SetFamily  # noqa: E402
from sforge.spread import spread_lemma_mc  # noqa: E402
from sforge.sunflowers import (  # noqa: E402
    CoreMode,
    CorePredicate,
    max_sunflower_free,
    oracle_max_sunflower_free,
    phi_exact,
)

MC_POOL = 16


def extremal() -> dict:
    out = {}
    for n, k, s, t in workloads.EXTREMAL_GRID + workloads.EXTREMAL_LADDER:
        A = Domain.binomial(n, k)
        rep = verify_instance(A, s, t)
        if not rep["optimum_certified"]:
            sys.exit(f"verify_instance({n},{k},{s},{t}) did not certify")
        if n <= 7 and k == 2:
            oracle = oracle_max_sunflower_free(A.family, CorePredicate(s, CoreMode.AT_MOST, t - 1))
            if oracle != rep["optimum"]:
                sys.exit(f"oracle {oracle} != search {rep['optimum']} at {(n, k, s, t)}")
        out[f"verify_instance:{n},{k},{s},{t}"] = rep["optimum"]
    searches = {
        "max_sunflower_free:7,2,3,at-most-0": (Domain.binomial(7, 2).family,
                                               CorePredicate(3, CoreMode.AT_MOST, 0), None),
        "max_sunflower_free:6,3,3,any,full": (Domain.binomial(6, 3).family,
                                              CorePredicate(3, CoreMode.ANY), "full"),
    }
    for key, (fam, pred, sym) in searches.items():
        res = max_sunflower_free(fam, pred, symmetry=sym)
        if not res.certified:
            sys.exit(f"{key} did not certify")
        oracle = oracle_max_sunflower_free(fam, pred)
        if oracle != res.optimum:
            sys.exit(f"oracle {oracle} != search {res.optimum} at {key}")
        out[key] = res.optimum
    phi = phi_exact(3, 2, 14)
    if not (phi.certified and phi.unconditional):
        sys.exit("phi_exact(3,2,14) did not certify")
    out["phi_exact:3,2,14"] = phi.value
    return out


def mc() -> list:
    pool = []
    for i in range(MC_POOL):
        F = SetFamily(GroundSet(20), tuple(gen.mc_family(i)))
        est = spread_lemma_mc(F, workloads.MC_R, workloads.MC_M, workloads.MC_DELTA,
                              workloads.MC_TRIALS, seed=1000 + i)
        pool.append({"family_seed": i, "mc_seed": 1000 + i, "hits": est.hits})
    return pool


def cli() -> dict:
    prefix, _ = workloads.cli_launcher()
    env = workloads.child_env()
    out = {}
    for args in workloads.CLI_REQUESTS:
        res = workloads.run_child(prefix + list(args), env)
        if res.code != 0:
            sys.exit(f"request {args[:3]} exited {res.code}: {res.stderr.decode()[-300:]}")
        out[workloads.request_key(args)] = hashlib.sha256(res.stdout).hexdigest()
    return out


def main() -> None:
    frozen = {"extremal": extremal(), "mc": mc(), "cli": cli()}
    with open(BENCH / "frozen.json", "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {BENCH / 'frozen.json'}")


if __name__ == "__main__":
    main()
