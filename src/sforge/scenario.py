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
import importlib
import json
from operator import attrgetter
from typing import Callable, NamedTuple

from .errors import ParseError, SforgeError, VerificationError
from .family import (
    MAX_GROUND,
    SetFamily,
    family_from_json_obj,
    family_to_hex,
    family_to_json_obj,
    read_source,
    report,
    shadow,
    transversal_number,
    upper_closure,
)

SCHEMA = 1


def canonical_report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


class ScenarioResult(NamedTuple):
    report: dict
    exit_code: int

    def canonical_bytes(self) -> bytes:
        return canonical_report_bytes(self.report)


# ---------------------------------------------------------------------------
# parameters


REQUIRED = object()


def resolve(ref):
    """The object a ``"module:attr"`` reference names inside the package,
    imported now; any other value is returned as it is.  Nothing is cached,
    so a call sees the module attribute as it is at that moment."""
    if not (isinstance(ref, str) and ":" in ref):
        return ref
    module, attr = ref.split(":")
    return getattr(importlib.import_module("." + module, __package__), attr)


class Param(NamedTuple):
    """One parameter of an operation.

    ``kind`` is "int", "frac", "flag", "str", "object" (a JSON object),
    "elements" (a JSON array of distinct elements, taken as their mask),
    "raw" (any JSON value), a dict of choices (name -> value), "seed" (the
    step seed, or ``--seed`` on the CLI), "spec" (the step's own keys), or
    a class named ``"module:Class"``: a handle bound by an earlier step, and
    on the CLI a family or domain loaded from a path or inline JSON.
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

    ``text`` marks a command-line string, which may spell an integer, a
    JSON object or a JSON array; a scenario value must already be one.
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
        from fractions import Fraction  # here: commands without one never load it

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
    if kind in ("object", "elements") and text:
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{label} is not valid JSON: {exc}")
    if kind == "object":
        if not isinstance(value, dict):
            raise ParseError(f"{label} must be an object")
        return value
    if kind == "elements":
        if not isinstance(value, list):
            raise ParseError(f"{label} must be an array of elements")
        mask = 0
        for e in value:
            if type(e) is not int or not 1 <= e <= MAX_GROUND:
                raise ParseError(f"{label} must hold integers in 1..{MAX_GROUND}", element=e)
            if mask >> (e - 1) & 1:
                raise ParseError(f"{label} repeats element {e}")
            mask |= 1 << (e - 1)
        return mask
    if isinstance(kind, dict):
        if type(value) is not str or value not in kind:
            raise ParseError(f"{label} must be one of {', '.join(sorted(kind))}")
        return kind[value]
    return value


_MODES = {"any": "ANY", "exact": "EXACT", "at-most": "AT_MOST"}  # CoreMode names

FAMILY = Param("family", "family:SetFamily", cli="SRC")
DOMAIN = Param("domain", "domains:Domain")
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


class Op(NamedTuple):
    """One operation: ``run`` takes the parameter values in order.

    ``run`` is a function or the ``"module:attr"`` name of one, imported
    when the operation runs.  ``report`` reads the report off the result
    (by default ``family.report``); ``bind`` picks the value a step's
    ``name`` binds, which ``named`` makes mandatory; ``csv`` renders the
    report for ``--format csv``.
    """

    op: str | None
    cmd: str | None
    params: tuple[Param, ...]
    run: Callable | str
    report: Callable = report
    bind: Callable | None = None
    named: bool = False
    csv: Callable | None = None


def _same(x):
    return x


_surviving = attrgetter("family")


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


def _pred(s, mode, bound, degenerate):
    from .sunflowers import CoreMode, CorePredicate
    return CorePredicate(s, CoreMode[mode], bound, degenerate)


def _find(F: SetFamily, s, mode, bound, degenerate) -> dict:
    from .sunflowers import find_sunflower
    pred = _pred(s, mode, bound, degenerate)
    wit = find_sunflower(F, pred)
    out = {"pred": pred.describe(), "found": wit is not None}
    if wit is not None:
        out["witness"] = report(wit)
    return out


def _assert_free(*args) -> dict:
    out = _find(*args)
    if out["found"]:
        raise VerificationError(
            "family contains a forbidden sunflower",
            pred=out["pred"], witness=out["witness"],
        )
    return out


def _max_free(F: SetFamily, s, mode, bound, degenerate, budget, symmetry):
    from .sunflowers import max_sunflower_free
    return max_sunflower_free(F, _pred(s, mode, bound, degenerate), budget, symmetry)


def _bracket(bracket) -> dict:
    return report(dict(zip(("low", "high", "vacuous"), bracket)))


def _domain_summary(A) -> dict:
    # "ground" is the bit length of the ground's bit count, not the ground
    # size; the frozen `sforge run` digest in bench/frozen.json pins it
    return {"kind": A.kind, "k": A.k, "size": len(A.family.members),
            "ground": A.ground_bits.bit_length()}


def _domain_build(A) -> dict:
    return {"domain": A.as_json_obj(), "k": A.k, "size": len(A.family.members),
            "nominal": A.nominal_parameters()}


def _measure(F: SetFamily, p) -> dict:
    from .boolean import biased_measure
    return {"p": p, "value": biased_measure(F, p)}


def _stability(F: SetFamily, p, rho) -> dict:
    from .boolean import stability
    return {"p": p, "rho": rho, "value": stability(F, p, rho)}


def _chain(F, A, tau, q, s, t, alpha, lam=None) -> dict:
    """Decompose, prune each block to a verified intersection system, and
    with ``--lam`` cluster the cores."""
    from .pipelines import cluster_system, reduce_intersections, spread_approximation
    D = spread_approximation(F, A, tau, q)
    U = reduce_intersections(D, A, s, t, alpha)
    out = {"decomposition": D, "system": U}
    if lam is not None:
        out["clusters"] = cluster_system(U, A, lam)
    return out


def _verify(A, s, t, mode, bound, degenerate, budget) -> dict:
    """Cross-check constructions, exact search, and bound formulas."""
    from .bounds import verify_instance
    pred = None
    if mode is not None or bound is not None:
        pred = _pred(s, "ANY" if mode is None else mode, bound, degenerate)
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


SPEC = Param("domain", "domains:Domain", cli="SPEC")
DOMAIN_R = Param("r", "frac", cli="-r --ratio")
EXCLUDE = Param("exclude", "elements")
SKELETON = Param("skeleton", "family:SetFamily")
BUDGET = Param("budget", "int", 2_000_000)
CHAIN = (FAMILY, DOMAIN, TAU, Param("q"), PETALS, CORE, Param("alpha", "frac"))

OPERATIONS: tuple[Op, ...] = (
    # families
    Op(None, "family info", (FAMILY,), _info),
    Op(None, "family show", (FAMILY, Param("to", {"json": "json", "hex": "hex"}, "json")), _show),
    Op(None, "family shadow", (FAMILY, Param("depth")), shadow, report=family_to_json_obj),
    Op(None, "family closure", (FAMILY,), _closure),
    Op(None, "family transversal", (FAMILY,), _transversal),
    Op("family", None,
       (Param("domain", "domains:Domain", None), Param("n", "raw", None),
        Param("sets", "raw", None)),
       _family, report=_summary, bind=_same, named=True),
    Op("example-23", None, (Param("n"), Param("k"), PETALS, CORE, SKELETON), "bounds:example_23",
       report=_summary, bind=_same),
    Op("fstar", None, (DOMAIN, SKELETON, PETALS), "bounds:fstar_family", report=_summary,
       bind=_same),
    # sunflowers
    Op("find", "sunflower find", (FAMILY, *PRED), _find),
    Op("assert-free", None, (FAMILY, *PRED), _assert_free),
    Op("max-free", "sunflower max-free",
       (FAMILY, *PRED, BUDGET, Param("symmetry", {"full": "full"}, None)), _max_free),
    Op("phi", "sunflower phi",
       (PETALS, CORE, Param("support"), Param("budget", "int", 50_000_000)),
       "sunflowers:phi_exact"),
    Op("product-kernel", None, (PETALS, CORE), "sunflowers:product_kernel",
       report=_summary, bind=_same, named=True),
    Op(None, "sunflower kernel", (PETALS, CORE), "sunflowers:product_kernel",
       report=family_to_json_obj),
    # spreadness
    Op("spread-check", "spread check", (FAMILY, RATIO), "spread:check_spread"),
    Op("mc", "spread mc",
       (FAMILY, RATIO, Param("m"), Param("delta", "frac"), Param("trials"),
        Param("seed", "seed", cli=""), Param("with-exact", "flag", False)),
       "spread:spread_lemma_mc"),
    Op("spread-remove", "spread remove", (FAMILY, RATIO, EXCLUDE), "spread:remove_elements_spread",
       bind=_surviving),
    Op(None, "spread bracket",
       (RATIO, Param("delta", "frac"), Param("m"), Param("mu-norm", "int", 1)),
       "spread:covering_bound_bracket", report=_bracket),
    # domains
    Op("domain", None, (Param("spec", "spec"),), "domains:domain_from_json_obj",
       report=_domain_summary, bind=_same, named=True),
    Op(None, "domains build", (SPEC,), _domain_build),
    Op("rt-spread", "domains check", (SPEC, DOMAIN_R, CORE), "domains:check_rt_spread"),
    Op("homogeneous", "domains homogeneous", (FAMILY, DOMAIN, TAU),
       "domains:check_tau_homogeneous"),
    Op("homogeneous-remove", "domains remove", (FAMILY, DOMAIN, TAU, DOMAIN_R, EXCLUDE),
       "domains:remove_elements_homogeneous", bind=_surviving),
    Op("homogeneous-prune", "domains prune",
       (FAMILY, DOMAIN, TAU, Param("alpha", "frac"), Param("t", "int", None)),
       "domains:homogeneous_subfamily", bind=_surviving),
    Op("shadow-bound", "domains shadow-bound", (FAMILY, DOMAIN, TAU, Param("h")),
       "domains:verify_shadow_bound", report=lambda ok: {"ok": ok}),
    Op("assumptions", "domains assumptions",
       (SPEC, Param("q"), Param("eta", "frac"), Param("mu", "frac"), DOMAIN_R),
       "domains:check_assumptions"),
    # biased measures
    Op("measure", "boolean measure", (FAMILY, P), _measure),
    Op("global", "boolean global", (FAMILY, P, TAU), "boolean:check_global"),
    Op("max-global", None, (FAMILY, P, TAU), "boolean:max_global_restriction"),
    Op("global-remove", "boolean remove", (FAMILY, P, TAU, EXCLUDE),
       "boolean:remove_elements_global", bind=_surviving),
    Op("stability", "boolean stab", (FAMILY, P, RHO), _stability),
    Op("threshold", "boolean threshold",
       (FAMILY, P, Param("p-tilde", "frac"), Param("tau", "frac", None)),
       "boolean:verify_sharp_threshold"),
    Op("upgrade", "boolean upgrade", (FAMILY, P, TAU, Param("z"), Param("m")),
       "boolean:measure_upgrade"),
    Op("hyper", "boolean hyper", (FAMILY, P, TAU, RHO, Param("q")),
       "boolean:hypercontractivity_check"),
    Op("uniform-floor", None, (FAMILY,), "boolean:check_uniform_biased_floor"),
    # pipelines
    Op("approx", "pipeline approx",
       (FAMILY, DOMAIN, TAU, Param("q"), Param("floor", "frac", None)),
       "pipelines:spread_approximation", bind=_same),
    Op("simplify", "pipeline simplify", (FAMILY, DOMAIN, PETALS, CORE, Param("eps", "frac")),
       "pipelines:simplify", bind=lambda res: res.core_family),
    Op("cover", "pipeline cover", (FAMILY, DOMAIN, PETALS, CORE, Param("w", "frac")),
       "pipelines:down_closed_cover", bind=lambda res: res.core_family),
    Op("reduce", None,
       (Param("decomposition", "pipelines:Decomposition"), DOMAIN, PETALS, CORE,
        Param("alpha", "frac")),
       "pipelines:reduce_intersections", bind=_same),
    Op(None, "pipeline reduce", CHAIN, _chain),
    Op("cluster", None, (Param("system", "pipelines:SystemSST"), DOMAIN, Param("lam", "frac")),
       "pipelines:cluster_system"),
    Op(None, "pipeline cluster", (*CHAIN, Param("lam", "frac")), _chain),
    Op("peel", "pipeline peel", (FAMILY, PETALS, CORE), "pipelines:peel_high_uniformity"),
    Op("delta", "pipeline delta", (FAMILY, PETALS, CORE), "pipelines:delta_filter",
       bind=_surviving),
    # bounds: the scenario names the formula `bound` and lets `params`
    # default to {}; the CLI spells them --name and a required --params
    Op(None, "bounds list", (), "bounds:bound_names", report=lambda names: {"names": names}),
    Op("bound", None, (Param("bound", "str"), Param("params", "object", {})), "bounds:bound_rhs"),
    Op(None, "bounds eval", (Param("name", "str"), Param("params", "object")), "bounds:bound_rhs"),
    Op("verify-instance", "verify",
       (DOMAIN, PETALS, CORE, Param("mode", _MODES, None), Param("core-bound", "int", None),
        Param("degenerate-small", "flag", False, cli=""), BUDGET),
       _verify, csv=_verify_csv),
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
    cls = resolve(p.kind)
    if not isinstance(cls, type):
        return coerce(p.kind, value, label)
    if not isinstance(value, str):
        raise ParseError(f"{label} must name a handle")
    ref = value[1:] if value.startswith("@") else value
    if ref not in handles:
        raise ParseError(f"unknown handle {ref!r}")
    if not isinstance(handles[ref], cls):
        got = type(handles[ref]).__name__
        raise ParseError(f"handle {ref!r} is a {got}, not a {cls.__name__}")
    return handles[ref]


def _run_step(entry: Op, step: dict, handles: dict, seed: int):
    """One step: (report, name to bind or None, value to bind or None)."""
    name = _name(step, entry.named) if entry.bind else None
    try:
        args = [_step_value(p, step, handles, seed) for p in entry.params]
    except ParseError as exc:
        exc.details.setdefault("op", step.get("op"))
        raise
    result = resolve(entry.run)(*args)
    return entry.report(result), name, entry.bind(result) if entry.bind else None


_OPS = {e.op: functools.partial(_run_step, e) for e in OPERATIONS if e.op}


def step_seed(scenario_seed: int, index: int) -> int:
    """Per-step seed, independent of every other step's."""
    import hashlib  # here: only a scenario run needs it
    digest = hashlib.sha256(f"sforge-scenario:{scenario_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_scenario(source) -> dict:
    """Parse and structurally validate a scenario from a dict or from
    ``family.read_source`` (a path, inline JSON or ``-`` for stdin)."""
    if isinstance(source, dict):
        obj = source
    else:
        obj = coerce("object", read_source(source, "scenario"), "scenario", text=True)
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"scenario schema must be {SCHEMA}", found=obj.get("schema"))
    seed = obj.get("seed", 0)
    if type(seed) is not int:
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
    if report.get("all_ok") is False:
        return True
    if report.get("violation") is True:
        return True
    if report.get("found") is True:
        return True
    if report.get("violations"):
        return True
    return False
