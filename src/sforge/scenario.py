"""The operation table and the seeded scenario runner.

``OPERATIONS`` is the one place an operation is declared.  Each entry names
its scenario op, its CLI command (``"group command"``, or None), its
parameters, the function that does the work, how the report is read off
the result and, for constructive ops, which value a ``name`` binds.  Each
parameter is declared once: its scenario key, its kind, its default and,
where it differs from ``--key``, its CLI spelling.  ``coerce`` checks and
converts values of every scalar kind for both front ends, so a scenario
step and a command line reject the same malformed value with the same
ParseError message, naming the step key or the option.  ``sforge.cli``
generates its commands from this table.

A scenario is a JSON file with a schema tag, a seed, and an ordered list of
steps.  Each step names an op and gives its parameters as keys; a family,
domain, decomposition or system parameter names the handle an earlier step
bound.  The runner executes the steps in order and accumulates one report
entry per step.  Reports are canonical: keys sorted, no whitespace, one
trailing newline.  Randomized steps draw their seed from a hash of the
scenario seed and the step index, so inserting a step never shifts the
randomness of the ones before it.

A step with ``"assert": true`` promotes its check into an invariant: a
failed verdict stops the run with a verification error.  Errors from the
operation itself (bad input, capacity, a violated precondition) stop the
run the same way, and the exit code of the result mirrors the error class.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Callable

from .boolean import (
    biased_measure,
    check_global,
    check_uniform_biased_floor,
    hypercontractivity_check,
    max_global_restriction,
    measure_upgrade,
    stability,
    verify_sharp_threshold,
)
from .bounds import bound_names, bound_rhs, example_23, fstar_family, verify_instance
from .domains import Domain, check_rt_spread, check_tau_homogeneous, domain_from_json_obj
from .errors import ParseError, SforgeError, VerificationError
from .family import (
    SetFamily,
    family_from_json_obj,
    family_to_hex,
    family_to_json_obj,
    shadow,
    transversal_number,
    upper_closure,
)
from .pipelines import (
    Decomposition,
    SystemSST,
    cluster_system,
    delta_filter,
    down_closed_cover,
    peel_high_uniformity,
    reduce_intersections,
    simplify,
    spread_approximation,
)
from .spread import check_spread, covering_bound_bracket, spread_lemma_mc
from .sunflowers import (
    CoreMode,
    CorePredicate,
    find_sunflower,
    max_sunflower_free,
    phi_exact,
    product_kernel,
)

SCHEMA = 1


def canonical_report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


@dataclass(frozen=True)
class ScenarioResult:
    report: dict
    exit_code: int

    def canonical_bytes(self) -> bytes:
        return canonical_report_bytes(self.report)


# ---------------------------------------------------------------------------
# parameters


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One parameter of an operation.

    ``kind`` is "int", "frac", "flag", "str", "object" (a JSON object),
    "raw" (any JSON value), a dict of choices (name -> value), "seed" (the
    step seed, or ``--seed`` on the CLI), "spec" (the step's own keys), or
    a type: a handle bound by an earlier step, and on the CLI a family
    (SetFamily) or domain (Domain) loaded from a path or inline JSON.
    ``cli`` is the space-separated CLI spelling when it is not ``--key``:
    a word without a dash is a positional argument and "" keeps the parameter
    off the CLI, where it takes its default.  A default is written as a
    value a step or the command line could give, and is checked like one.
    """

    key: str
    kind: object = "int"
    default: object = REQUIRED
    cli: str | None = None


def coerce(kind, value, label: str, text: bool = False):
    """Check one parameter value against its kind and convert it.

    ``text`` marks a command-line string, which may spell an integer or a
    JSON object; a scenario value must already be one.
    """
    if kind == "int":
        if text:
            try:
                return int(value)
            except ValueError:
                pass
        elif type(value) is int:
            return value
        raise ParseError(f"{label} must be an integer")
    if kind == "frac":
        if type(value) not in (int, str):
            raise ParseError(f"{label} must be a number or 'a/b' string")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{label} is not a valid fraction: {value!r}")
    if kind == "flag":
        if type(value) is not bool:
            raise ParseError(f"{label} must be a boolean")
        return value
    if kind == "str":
        if type(value) is not str:
            raise ParseError(f"{label} must be a string")
        return value
    if kind == "object":
        if text:
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{label} is not valid JSON: {exc}")
        if not isinstance(value, dict):
            raise ParseError(f"{label} must be an object")
        return value
    if isinstance(kind, dict):
        if type(value) is not str or value not in kind:
            raise ParseError(f"{label} must be one of {', '.join(sorted(kind))}")
        return kind[value]
    return value


_MODES = {"any": CoreMode.ANY, "exact": CoreMode.EXACT, "at-most": CoreMode.AT_MOST}

FAMILY = Param("family", SetFamily, cli="SRC")
DOMAIN = Param("domain", Domain)
PETALS = Param("petals")
CORE = Param("core-size")
PRED = (
    PETALS,
    Param("mode", _MODES, "any"),
    Param("core-bound", "int", None),
    Param("degenerate-small", "flag", False),
)
RATIO = Param("R", "frac", cli="-R --ratio")
P, TAU, RHO = Param("p", "frac"), Param("tau", "frac"), Param("rho", "frac")


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` takes the parameter values in order.

    ``report`` reads the report off the result (None: the result is the
    report); ``bind`` picks the value a step's ``name`` binds, which
    ``named`` makes mandatory; ``csv`` renders the report for
    ``--format csv``.
    """

    op: str | None
    cmd: str | None
    params: tuple[Param, ...]
    run: Callable
    report: Callable | None = methodcaller("as_report")
    bind: Callable | None = None
    named: bool = False
    csv: Callable | None = None


def _same(x):
    return x


def _summary(F: SetFamily) -> dict:
    out = {"size": len(F.members), "ground": F.ground.n}
    if F.uniformity is not None:
        out["uniformity"] = F.uniformity
    return out


def _info(F: SetFamily) -> dict:
    return {**_summary(F), "support": F.support().bit_count()}


def _show(F: SetFamily, to: str):
    return family_to_hex(F) if to == "hex" else family_to_json_obj(F)


def _closure(F: SetFamily) -> dict:
    return {"size": len(upper_closure(F).members), "ground": F.ground.n}


def _transversal(F: SetFamily) -> dict:
    value, cover_mask = transversal_number(F)
    elems = [i + 1 for i in range(F.ground.n) if cover_mask >> i & 1]
    return {"value": value, "transversal": elems}


def _family(A, n, sets) -> SetFamily:
    if A is not None:
        return A.family
    return family_from_json_obj({"n": n, "sets": sets})


def _find(F: SetFamily, s, mode, bound, degenerate) -> dict:
    pred = CorePredicate(s, mode, bound, degenerate)
    wit = find_sunflower(F, pred)
    report = {"pred": pred.describe(), "found": wit is not None}
    if wit is not None:
        report["witness"] = wit.as_report()
    return report


def _assert_free(*args) -> dict:
    report = _find(*args)
    if report["found"]:
        raise VerificationError(
            "family contains a forbidden sunflower",
            pred=report["pred"], witness=report["witness"],
        )
    return report


def _max_free(F: SetFamily, s, mode, bound, degenerate, budget, symmetry):
    return max_sunflower_free(F, CorePredicate(s, mode, bound, degenerate), budget, symmetry)


def _bracket(R, delta, m, mu_norm) -> dict:
    lo, hi, vacuous = covering_bound_bracket(R, delta, m, mu_norm)
    return {
        "low": None if lo is None else str(lo),
        "high": None if hi is None else str(hi),
        "vacuous": vacuous,
    }


def _domain_summary(A: Domain) -> dict:
    # "ground" is the bit length of the ground's bit count, not the ground
    # size; the frozen `sforge run` digest in bench/frozen.json pins it
    return {"kind": A.kind, "k": A.k, "size": len(A.family.members),
            "ground": A.ground_bits.bit_length()}


def _domain_build(A: Domain) -> dict:
    return {
        "domain": A.as_json_obj(),
        "k": A.k,
        "size": len(A.family.members),
        "nominal": {k: str(v) for k, v in sorted(A.nominal_parameters().items())},
    }


def _measure(F: SetFamily, p) -> dict:
    return {"p": str(p), "value": str(biased_measure(F, p))}


def _stability(F: SetFamily, p, rho) -> dict:
    return {"p": str(p), "rho": str(rho), "value": str(stability(F, p, rho))}


def _chain(F, A, tau, q, s, t, alpha, lam=None) -> dict:
    """Decompose, prune each block to a verified intersection system, and
    with ``--lam`` cluster the cores."""
    D = spread_approximation(F, A, tau, q)
    U = reduce_intersections(D, A, s, t, alpha)
    out = {"decomposition": D.as_report(), "system": U.as_report()}
    if lam is not None:
        out["clusters"] = cluster_system(U, A, lam).as_report()
    return out


def _verify(A, s, t, mode, bound, degenerate, budget) -> dict:
    """Cross-check constructions, exact search, and bound formulas."""
    pred = None
    if mode is not None or bound is not None:
        pred = CorePredicate(s, CoreMode.ANY if mode is None else mode, bound, degenerate)
    return verify_instance(A, s, t, pred=pred, budget=budget)


def _verify_csv(rep: dict) -> str:
    lines = ["row,name,value,applicable,hypotheses"]
    opt = "" if rep["optimum"] is None else str(rep["optimum"])
    lines.append(f"optimum,search,{opt},{str(rep['optimum_certified']).lower()},")
    for c in rep["constructions"]:
        lines.append(f"construction,{c['kind']},{c['size']},{str(c['legal']).lower()},")
    for b in rep["bounds"]:
        value = b["value"] if b["value"] is not None else b["symbolic"]
        lines.append(
            f"bound,{b['name']},\"{value}\",{str(b['applicable']).lower()},"
            f"{str(b['hypotheses_met']).lower()}"
        )
    return "\n".join(lines) + "\n"


SPEC = Param("domain", Domain, cli="SPEC")
SKELETON = Param("skeleton", SetFamily)
BUDGET = Param("budget", "int", 2_000_000)
CHAIN = (FAMILY, DOMAIN, TAU, Param("q"), PETALS, CORE, Param("alpha", "frac"))

OPERATIONS: tuple[Op, ...] = (
    # families
    Op(None, "family info", (FAMILY,), _info, report=None),
    Op(None, "family show", (FAMILY, Param("to", {"json": "json", "hex": "hex"}, "json")), _show,
       report=None),
    Op(None, "family shadow", (FAMILY, Param("depth")),
       lambda F, h: family_to_json_obj(shadow(F, h)), report=None),
    Op(None, "family closure", (FAMILY,), _closure, report=None),
    Op(None, "family transversal", (FAMILY,), _transversal, report=None),
    Op("family", None,
       (Param("domain", Domain, None), Param("n", "raw", None), Param("sets", "raw", None)),
       _family, report=_summary, bind=_same, named=True),
    Op("example-23", None, (SKELETON, Param("n"), Param("k"), PETALS, CORE),
       lambda T, n, k, s, t: example_23(n, k, s, t, T), report=_summary, bind=_same),
    Op("fstar", None, (DOMAIN, SKELETON, PETALS), fstar_family, report=_summary, bind=_same),
    # sunflowers
    Op("find", "sunflower find", (FAMILY, *PRED), _find, report=None),
    Op("assert-free", None, (FAMILY, *PRED), _assert_free, report=None),
    Op("max-free", "sunflower max-free",
       (FAMILY, *PRED, BUDGET, Param("symmetry", {"full": "full"}, None)), _max_free),
    Op("phi", "sunflower phi",
       (PETALS, CORE, Param("support"), Param("budget", "int", 50_000_000)), phi_exact),
    Op("product-kernel", None, (PETALS, CORE), product_kernel,
       report=_summary, bind=_same, named=True),
    Op(None, "sunflower kernel", (PETALS, CORE),
       lambda s, t: family_to_json_obj(product_kernel(s, t)), report=None),
    # spreadness
    Op("spread-check", "spread check", (FAMILY, RATIO), check_spread),
    Op("mc", "spread mc",
       (FAMILY, RATIO, Param("m"), Param("delta", "frac"), Param("trials"),
        Param("seed", "seed", cli=""), Param("with-exact", "flag", False)), spread_lemma_mc),
    Op(None, "spread bracket",
       (RATIO, Param("delta", "frac"), Param("m"), Param("mu-norm", "int", 1)), _bracket,
       report=None),
    # domains
    Op("domain", None, (Param("spec", "spec"),), domain_from_json_obj,
       report=_domain_summary, bind=_same, named=True),
    Op(None, "domains build", (SPEC,), _domain_build, report=None),
    Op("rt-spread", "domains check", (SPEC, Param("r", "frac", cli="-r --ratio"), CORE),
       check_rt_spread),
    Op("homogeneous", "domains homogeneous", (FAMILY, DOMAIN, TAU), check_tau_homogeneous),
    # biased measures
    Op("measure", "boolean measure", (FAMILY, P), _measure, report=None),
    Op("global", "boolean global", (FAMILY, P, TAU), check_global),
    Op("max-global", None, (FAMILY, P, TAU), max_global_restriction),
    Op("stability", "boolean stab", (FAMILY, P, RHO), _stability, report=None),
    Op("threshold", "boolean threshold",
       (FAMILY, P, Param("p-tilde", "frac"), Param("tau", "frac", None)), verify_sharp_threshold),
    Op("upgrade", "boolean upgrade", (FAMILY, P, TAU, Param("z"), Param("m")), measure_upgrade),
    Op("hyper", "boolean hyper", (FAMILY, P, TAU, RHO, Param("q")), hypercontractivity_check),
    Op("uniform-floor", None, (FAMILY,), check_uniform_biased_floor),
    # pipelines
    Op("approx", "pipeline approx",
       (FAMILY, DOMAIN, TAU, Param("q"), Param("floor", "frac", None)), spread_approximation,
       bind=_same),
    Op("simplify", "pipeline simplify", (FAMILY, DOMAIN, PETALS, CORE, Param("eps", "frac")),
       simplify, bind=lambda res: res.core_family),
    Op("cover", "pipeline cover", (FAMILY, DOMAIN, PETALS, CORE, Param("w", "frac")),
       down_closed_cover, bind=lambda res: res.core_family),
    Op("reduce", None,
       (Param("decomposition", Decomposition), DOMAIN, PETALS, CORE, Param("alpha", "frac")),
       reduce_intersections, bind=_same),
    Op(None, "pipeline reduce", CHAIN, _chain, report=None),
    Op("cluster", None, (Param("system", SystemSST), DOMAIN, Param("lam", "frac")),
       cluster_system),
    Op(None, "pipeline cluster", (*CHAIN, Param("lam", "frac")), _chain, report=None),
    Op("peel", "pipeline peel", (FAMILY, PETALS, CORE), peel_high_uniformity),
    Op("delta", "pipeline delta", (FAMILY, PETALS, CORE), delta_filter,
       bind=lambda res: res.family),
    # bounds: the scenario names the formula `bound` and lets `params`
    # default to {}; the CLI spells them --name and a required --params
    Op(None, "bounds list", (), lambda: {"names": bound_names()}, report=None),
    Op("bound", None, (Param("bound", "str"), Param("params", "object", {})), bound_rhs),
    Op(None, "bounds eval", (Param("name", "str"), Param("params", "object")), bound_rhs),
    Op("verify-instance", "verify",
       (DOMAIN, PETALS, CORE, Param("mode", _MODES, None), Param("core-bound", "int", None),
        Param("degenerate-small", "flag", False, cli=""), BUDGET),
       _verify, report=None, csv=_verify_csv),
)


# ---------------------------------------------------------------------------
# the runner


def _name(step: dict, required: bool) -> str | None:
    name = step.get("name")
    if name is None:
        if required:
            raise ParseError("step needs a 'name' to bind its result", op=step.get("op"))
        return None
    if not isinstance(name, str) or not name:
        raise ParseError("step key 'name' must be a non-empty string", op=step.get("op"))
    return name


def _step_value(p: Param, step: dict, handles: dict, seed: int):
    if p.kind == "seed":
        return seed
    if p.kind == "spec":
        return {k: v for k, v in step.items() if k not in ("op", "name", "assert")}
    label = f"step key {p.key!r}"
    if p.key not in step:
        if p.default is REQUIRED:
            raise ParseError(f"step is missing required key {p.key!r}")
        return None if p.default is None else coerce(p.kind, p.default, label)
    value = step[p.key]
    if not isinstance(p.kind, type):
        return coerce(p.kind, value, label)
    if not isinstance(value, str):
        raise ParseError(f"{label} must name a handle")
    ref = value[1:] if value.startswith("@") else value
    if ref not in handles:
        raise ParseError(f"unknown handle {ref!r}")
    if not isinstance(handles[ref], p.kind):
        got = type(handles[ref]).__name__
        raise ParseError(f"handle {ref!r} is a {got}, not a {p.kind.__name__}")
    return handles[ref]


def _run_step(entry: Op, step: dict, handles: dict, seed: int):
    """One step: (report, name to bind or None, value to bind or None)."""
    name = _name(step, entry.named) if entry.bind else None
    try:
        args = [_step_value(p, step, handles, seed) for p in entry.params]
    except ParseError as exc:
        exc.details.setdefault("op", step.get("op"))
        raise
    result = entry.run(*args)
    report = entry.report(result) if entry.report else result
    return report, name, entry.bind(result) if entry.bind else None


_OPS = {e.op: functools.partial(_run_step, e) for e in OPERATIONS if e.op}


def step_seed(scenario_seed: int, index: int) -> int:
    """Per-step seed, independent of every other step's."""
    digest = hashlib.sha256(f"sforge-scenario:{scenario_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_scenario(source) -> dict:
    """Parse and structurally validate a scenario from a path or a dict."""
    if isinstance(source, dict):
        obj = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read scenario: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"scenario is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError("scenario must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"scenario schema must be {SCHEMA}", found=obj.get("schema"))
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError("scenario seed must be an integer")
    steps = obj.get("steps", [])
    if not isinstance(steps, list):
        raise ParseError("scenario steps must be a list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ParseError(f"step {i} is not an object")
        op = step.get("op")
        if op not in _OPS:
            raise ParseError(f"step {i} has unknown op {op!r}")
    return {"schema": SCHEMA, "seed": seed, "steps": steps}


def run_scenario(source) -> ScenarioResult:
    """Execute a scenario and return its report with the process exit code.

    The run stops at the first failing step; the report still carries every
    completed entry plus the error entry, so a failed run is as inspectable
    as a clean one.
    """
    scenario = load_scenario(source)
    handles: dict[str, object] = {}
    entries = []
    exit_code = 0
    for i, step in enumerate(scenario["steps"]):
        op = step["op"]
        try:
            report, name, value = _OPS[op](step, handles, step_seed(scenario["seed"], i))
            if step.get("assert") and _report_failed(report):
                raise VerificationError("asserted check failed", op=op, step=i)
        except SforgeError as exc:
            entries.append({"step": i, "op": op, "error": exc.as_report()})
            exit_code = exc.exit_code
            break
        entry = {"step": i, "op": op, "report": report}
        if name is not None and value is not None:
            handles[name] = value
            entry["handle"] = name
        entries.append(entry)
    report = {"schema": SCHEMA, "seed": scenario["seed"], "steps": entries}
    return ScenarioResult(report, exit_code)


def _report_failed(report: dict) -> bool:
    if report.get("ok") is False:
        return True
    if report.get("violation") is True:
        return True
    if report.get("found") is True:
        return True
    if report.get("violations"):
        return True
    return False
