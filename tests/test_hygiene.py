"""Static checks on the package source: no unused module-level imports, no
unused module-level names, no click, front ends that import no engine
module at load time, and one canonical sort.

Every ``src/sforge/*.py`` is parsed with ``ast``.  A name bound by a
module-level ``import`` or ``from ... import`` must be used somewhere in
the module, or be exported through ``__all__``.  Every other name bound at
module level by a ``def``, ``class`` or assignment, dunders aside, must be
read by its own module, imported from it or read as an attribute of it by
another module of the package, or named by a ``"module:attr"`` string, as
the operation table names the function an operation runs; a method or a
foreign name that merely shares the spelling does not count.  So each
public function is reachable from the CLI and the scenario runner, or
serves one that is; only the brute-force oracles in ``ORACLES``, which
exist for the tests, are exempt.  No module imports ``click``, and
``cli.py`` and ``scenario.py`` import the engine modules only inside
functions, so ``sforge --help`` and every command load only what they run.
Canonical order is ``family.canonical`` (two sorts keyed in C); no module
sorts with ``key=canon_key`` itself.
Threshold packing searches ("are there p disjoint masks?") go through
``packing.find_packing``, which runs the transversal pre-check first; no
other module calls ``max_disjoint`` with ``stop_at`` or ``matching_number``
with ``at_least``.  The h-subsets of a set come from ``family.bit_subsets``;
no other module calls ``combinations(range(...), ...)``, and no ``sorted``
wraps a ``bit_subsets`` call, which already yields the lexicographic order
of element lists.  A certificate's
``verify`` runs when its object is built: no code calls ``.verify()``
except a ``__post_init__``.  In ``pipelines.py`` the kernel scale
``2 ** 14`` is built only by ``_kernel_scale`` and ``ExtractionThreshold``,
and its bracket helpers, which work on integer triples (lo, hi, d), never
name ``Fraction``: ``_record`` is the one place a bracket becomes Fractions.
Every ``lru_cache`` has a finite ``maxsize``, and no function is wrapped in
the unbounded ``functools.cache``, so no memo grows with the inputs a
long-lived process sees.  No module tests for an integer with
``isinstance(x, int)``, which admits ``True`` as 1; ``type(x) is not int``
refuses it.  ``Domain.link_domain(0)`` is the domain itself, so no
conditional expression chooses between a value and its ``.link_domain(...)``.
Only ``spread.spread_lemma_mc`` imports numpy, so every other kernel runs on
exact Python integers.  Records are ``NamedTuple``s or slotted classes, which
build no generated code at import: only the five classes in ``DATACLASSES``
carry ``@dataclass``, and no code calls ``._replace`` or ``._make``, which
build a tuple past a validating subclass's ``__new__``.  No module-level
import loads a package module for names read only in annotations: such an
import goes under ``if TYPE_CHECKING:``, so no command compiles a module it
never runs.  Reports come from one encoder, ``family.report``: only the
classes in ``OWN_REPORTS`` define ``as_report``, by a method or by a
class-level assignment, each with a one-line comment above it giving its
reason, and every operation reads its report with a function.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sforge"
MODULES = sorted(SRC.glob("*.py"))
ENGINE = {"boolean", "bounds", "domains", "exact", "packing", "pipelines", "spread",
          "sunflowers"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


ORACLES = {"oracle_max_sunflower_free", "brute_force_find"}


def unused_names(sources: dict[str, str], allowed=frozenset()) -> list[str]:
    """Module-level names, dunders and ``allowed`` aside, that nothing uses.

    A name ``x`` defined in module ``m`` is used when ``m`` itself reads
    ``x``, when some module imports ``x`` from ``m`` or reads it as an
    attribute of the module object ``m``, or when a ``"m:x"`` string names
    it.  A read of an unrelated ``x`` (a method ``obj.x``, an ``x`` of
    another module) does not count.
    """
    modules = {name.removesuffix(".py") for name in sources}

    def module_of(dotted: str | None) -> str | None:
        name = (dotted or "").removeprefix("sforge").lstrip(".")
        return name if name in modules else None

    defined: list[tuple[str, int, str]] = []
    used: set[tuple[str, str]] = set()
    for module, source in sources.items():
        module = module.removesuffix(".py")
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.extend(
                (module, node.lineno, name)
                for name in names
                if not (name.startswith("__") and name.endswith("__"))
            )
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if module_of(alias.name):
                        aliases[alias.asname or alias.name] = module_of(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source_module = module_of(node.module)
                for alias in node.names:
                    if source_module:
                        used.add((source_module, alias.name))
                    elif module_of(alias.name) and node.module in (None, "sforge"):
                        aliases[alias.asname or alias.name] = module_of(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                ref = re.fullmatch(r"(\w+):(\w+)", node.value)
                if ref and ref[1] in modules:
                    used.add((ref[1], ref[2]))
    return [
        f"{module}.py line {line}: {name}"
        for module, line, name in defined
        if (module, name) not in used and name not in allowed
    ]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Iterable, Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Sequence[int]):\n"
        "    return os.sep\n"
    )
    assert unused_imports(src) == ["line 2: system", "line 3: Iterable"]


def test_every_module_level_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unused_names(sources, ORACLES) == []


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": (
            "_CAP = 3\n"
            "_DEAD = (1, 2)\n"
            "__all__ = ['f']\n"
            "def _helper():\n"
            "    return _CAP\n"
            "def _orphan():\n"
            "    pass\n"
            "class _Shared:\n"
            "    pass\n"
            "def f():\n"
            "    return _helper()\n"
        ),
        "b.py": (
            "from .a import _Shared, f\n"
            "import a\n"
            "_unused_too: int = 0\n"
            "def g():\n"
            "    return a._orphan, _Shared, f\n"
        ),
    }
    assert unused_names(sources, {"g"}) == [
        "a.py line 2: _DEAD",
        "b.py line 3: _unused_too",
    ]


def test_checker_flags_an_unused_public_name():
    sources = {
        "engine.py": (
            "LIMIT = 4\n"
            "def run(x):\n"
            "    return x < LIMIT\n"
            "def superseded(x):\n"
            "    return x < 4\n"
            "def oracle(x):\n"
            "    return x < 4\n"
        ),
        "table.py": (
            "OPS = ('engine:run', 'nosuch:superseded', 'engine: superseded')\n"
            "def main():\n"
            "    return OPS\n"
            "main()\n"
        ),
    }
    assert unused_names(sources, {"oracle"}) == ["engine.py line 4: superseded"]


def test_checker_ignores_a_colliding_method_or_foreign_name():
    sources = {
        "family.py": (
            "def join(F, B):\n"
            "    return F | B\n"
            "def shadow_upto(F, h):\n"
            "    return F\n"
            "def trace(F):\n"
            "    return F\n"
            "class Family:\n"
            "    def shadow_upto(self, h):\n"
            "        return self\n"
        ),
        "other.py": (
            "def join(xs):\n"
            "    return xs\n"
            "def shadow_upto():\n"
            "    return join([])\n"
        ),
        "cli.py": (
            "from .family import Family\n"
            "from . import family as fam\n"
            "from .other import shadow_upto\n"
            "def main(names):\n"
            "    return ','.join(names), Family().shadow_upto(2), fam.trace(0), shadow_upto()\n"
            "main([])\n"
        ),
    }
    assert unused_names(sources) == ["family.py line 1: join", "family.py line 3: shadow_upto"]


def imported_modules(nodes) -> set[str]:
    """Modules that the import statements among ``nodes`` load, named
    without a leading ``sforge.`` or ``.``."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else []
            if node.module in (None, "sforge"):  # from . import x, from sforge import x
                names += [alias.name for alias in node.names]
        else:
            continue
        out.update(n.removeprefix("sforge").lstrip(".") for n in names)
    out.discard("")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_click(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert {m.split(".")[0] for m in imported_modules(ast.walk(tree))} & {"click"} == set()


@pytest.mark.parametrize("name", ["cli.py", "scenario.py"])
def test_front_ends_import_no_engine_module_at_load_time(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert imported_modules(tree.body) & ENGINE == set()


def test_import_checker_names_the_loaded_modules():
    tree = ast.parse(
        "import click.testing, json\n"
        "from . import boolean\n"
        "from .spread import check_spread\n"
        "from sforge import bounds\n"
        "from sforge.domains import Domain\n"
        "def f():\n"
        "    from .pipelines import simplify\n"
    )
    assert imported_modules(tree.body) == {
        "click.testing", "json", "boolean", "spread", "bounds", "domains"}
    assert "pipelines" in imported_modules(ast.walk(tree))


def canon_key_sorts(source: str) -> list[str]:
    """The lines of ``sorted(...)`` or ``.sort(...)`` calls keyed by ``canon_key``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not (isinstance(fn, ast.Name) and fn.id == "sorted"
                or isinstance(fn, ast.Attribute) and fn.attr == "sort"):
            continue
        for kw in node.keywords:
            key = kw.value
            if kw.arg == "key" and (isinstance(key, ast.Name) and key.id == "canon_key"
                                    or isinstance(key, ast.Attribute) and key.attr == "canon_key"):
                out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_canonical_order_comes_from_family_canonical(path):
    assert canon_key_sorts(path.read_text(encoding="utf-8")) == []


def test_canon_key_sort_checker_flags_the_old_sorts():
    src = (
        "from . import family\n"
        "from .family import canon_key, elements_of\n"
        "def f(table, cands, masks):\n"
        "    for S in sorted(cands, key=canon_key):\n"
        "        pass\n"
        "    ms = sorted(set(masks), key=family.canon_key)\n"
        "    cands.sort(reverse=True, key=canon_key)\n"
        "    best = min(masks, key=canon_key)\n"
        "    return sorted(table, key=elements_of), sorted(sorted(ms), key=int.bit_count)\n"
    )
    assert canon_key_sorts(src) == ["line 4", "line 6", "line 7"]


THRESHOLD_ARGS = {"max_disjoint": "stop_at", "matching_number": "at_least"}


def threshold_packings(source: str) -> list[str]:
    """The lines of ``max_disjoint`` calls given ``stop_at`` and
    ``matching_number`` calls given ``at_least``, by keyword or position."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
        if name in THRESHOLD_ARGS and (
            len(node.args) > 1 or any(kw.arg == THRESHOLD_ARGS[name] for kw in node.keywords)
        ):
            out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "packing.py"],
                         ids=lambda p: p.name)
def test_threshold_packings_go_through_find_packing(path):
    assert threshold_packings(path.read_text(encoding="utf-8")) == []


def test_threshold_packing_checker_flags_the_direct_searches():
    src = (
        "from . import packing\n"
        "from .packing import matching_number, max_disjoint\n"
        "def f(petals, pred, s, p):\n"
        "    packed = max_disjoint(petals, stop_at=pred.s)\n"
        "    if len(petals) < s - 2 or (s > 3 and len(max_disjoint(petals, stop_at=s - 2)) < s - 2):\n"
        "        pass\n"
        "    ok = matching_number(petals, at_least=p) >= p\n"
        "    best = max_disjoint(petals), matching_number(petals), packing.max_disjoint(petals, 3)\n"
        "    return packed, ok, best\n"
    )
    assert threshold_packings(src) == ["line 4", "line 5", "line 7", "line 8"]


def range_combinations(source: str) -> list[str]:
    """The lines of ``combinations(range(...), ...)`` calls: the k-subsets
    of [n] written out by hand instead of taken from ``family.bit_subsets``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        fn, first = node.func, node.args[0]
        name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
        if name == "combinations" and isinstance(first, ast.Call) \
                and isinstance(first.func, ast.Name) and first.func.id == "range":
            out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "family.py"],
                         ids=lambda p: p.name)
def test_subsets_of_a_range_come_from_bit_subsets(path):
    assert range_combinations(path.read_text(encoding="utf-8")) == []


def test_range_combination_checker_flags_the_hand_rolled_subsets():
    src = (
        "import itertools\n"
        "from itertools import combinations\n"
        "def f(n, k, members, bits):\n"
        "    a = [sum(1 << c for c in combo) for combo in combinations(range(n), k)]\n"
        "    b = list(itertools.combinations(range(1, n + 1), k))\n"
        "    c = combinations(members, 2), combinations(bits, k), range(len(combinations))\n"
        "    return a, b, c, combinations(list(range(n)), k)\n"
    )
    assert range_combinations(src) == ["line 4", "line 5"]


def verify_calls(source: str) -> list[str]:
    """The ``.verify()`` calls outside a ``__post_init__``, with the
    function they sit in."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "verify" and owner != "__post_init__":
                out.append(f"line {child.lineno}: {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_certificates_verify_only_when_built(path):
    assert verify_calls(path.read_text(encoding="utf-8")) == []


def test_verify_call_checker_flags_a_repeated_check():
    src = (
        "class Decomposition:\n"
        "    def __post_init__(self):\n"
        "        self.verify()\n"
        "    def verify(self):\n"
        "        return verify_instance(self)\n"
        "def reduce_intersections(D, A):\n"
        "    wit = find_sunflower(D.source)\n"
        "    D.verify()\n"
        "    def inner():\n"
        "        return D.parts[0].verify()\n"
        "    return [D.verify] + [inner()]\n"
        "Decomposition().verify()\n"
    )
    assert verify_calls(src) == ["line 8: reduce_intersections", "line 10: inner", "line 12: <module>"]


def sorted_bit_subsets(source: str) -> list[str]:
    """The lines of ``sorted(...)`` calls with a ``bit_subsets(...)`` call
    inside their arguments."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"):
            continue
        for inner in ast.walk(node):
            fn = inner.func if isinstance(inner, ast.Call) else None
            name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if name == "bit_subsets":
                out.append(node.lineno)
                break
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_bit_subsets_are_not_sorted_again(path):
    assert sorted_bit_subsets(path.read_text(encoding="utf-8")) == []


def test_sorted_bit_subsets_checker_flags_the_resorts():
    src = (
        "from . import family\n"
        "from .family import bit_subsets, elements_of\n"
        "def f(m, t, masks):\n"
        "    for T in sorted(bit_subsets(m, t), key=elements_of):\n"
        "        pass\n"
        "    a = sorted(x | 1 for x in family.bit_subsets(m, 2))\n"
        "    b = list(bit_subsets(m, t)), sorted(masks), sorted(masks, key=elements_of)\n"
        "    return a, b, [sorted(elements_of(T)) for T in bit_subsets(m, t)]\n"
    )
    assert sorted_bit_subsets(src) == ["line 4", "line 6"]


SCALE_OWNERS = {"_kernel_scale", "ExtractionThreshold"}


def scale_builds(source: str) -> list[str]:
    """The lines of ``2 ** 14`` expressions outside the module-level
    definitions named in ``SCALE_OWNERS``, with the definition they sit in."""
    out = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        if owner in SCALE_OWNERS:
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Pow) \
                    and isinstance(inner.left, ast.Constant) and inner.left.value == 2 \
                    and isinstance(inner.right, ast.Constant) and inner.right.value == 14:
                out.append(f"line {inner.lineno}: {owner}")
    return out


def test_the_kernel_scale_is_built_by_its_helper():
    assert scale_builds((SRC / "pipelines.py").read_text(encoding="utf-8")) == []


def test_scale_build_checker_flags_the_copies():
    # the shape of pipelines.py before the helper: six builds of 2 ** 14
    src = (
        "class ExtractionThreshold:\n"
        "    def __init__(self, s, q, t):\n"
        "        self._scale = Fraction(2 ** 14 * s)\n"
        "def simplify(S, A, s, t, eps, log_top, log_t):\n"
        "    rhs = _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_top), t)\n"
        "    if t > 1:\n"
        "        rhs = _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t)\n"
        "def _cover_remainder_record(s, t, log_t):\n"
        "    return _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t)\n"
        "def _phi_interval(s, t, log_t):\n"
        "    return (Fraction(2**14 * s) * log_t[1]) ** t\n"
        "def cluster_system(s, t, log_t):\n"
        "    return _iv_pow(_iv_mul(_exactly(2 ** 14 * s), log_t), t), 2 ** 17, 3 ** 14, 2 * 14\n"
        "def _kernel_scale(s, t, x):\n"
        "    return _iv_pow(_iv_mul(_exactly(2 ** 14 * s), frac_log2_bracket(x)), t)\n"
    )
    assert scale_builds(src) == [
        "line 5: simplify", "line 7: simplify", "line 9: _cover_remainder_record",
        "line 11: _phi_interval", "line 13: cluster_system",
    ]


INTEGER_BRACKETS = {
    "_bracket", "_exactly", "_iv_mul", "_iv_pow", "_ln_bracket", "_kernel_scale", "_phi_interval",
}


def fraction_in_brackets(source: str) -> list[str]:
    """The lines where a module-level function named in ``INTEGER_BRACKETS``
    names ``Fraction``, in its body or its annotations, with the function."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in INTEGER_BRACKETS:
            out.update(
                (inner.lineno, node.name)
                for inner in ast.walk(node)
                if isinstance(inner, ast.Name) and inner.id == "Fraction"
                or isinstance(inner, ast.Attribute) and inner.attr == "Fraction"
            )
    return [f"line {line}: {name}" for line, name in sorted(out)]


def test_pipeline_brackets_stay_integer():
    assert fraction_in_brackets((SRC / "pipelines.py").read_text(encoding="utf-8")) == []


def test_integer_bracket_checker_flags_the_fraction_helpers():
    # the Fraction-pair helpers that the integer triples replaced
    src = (
        "def _iv_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):\n"
        "    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])\n"
        "    return min(prods), max(prods)\n"
        "def _exactly(x):\n"
        "    f = fractions.Fraction(x)\n"
        "    return f, f\n"
        "def _iv_pow(a, e):\n"
        "    return a[0] ** e, a[1] ** e, a[2] ** e\n"
        "def _record(name, lhs, rhs):\n"
        "    return Fraction(rhs[0], rhs[2]), Fraction(rhs[1], rhs[2])\n"
    )
    assert fraction_in_brackets(src) == ["line 1: _iv_mul", "line 5: _exactly"]


def unbounded_caches(source: str) -> list[str]:
    """The functions decorated with ``cache``, with a bare ``lru_cache``, or
    with an ``lru_cache`` whose maxsize is None or left at its default."""
    def name(node):
        return node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None

    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            fn = name(call.func if call else deco)
            if fn == "cache":
                out.append(f"line {deco.lineno}: {node.name}")
            elif fn == "lru_cache":
                size = None
                if call and call.args:
                    size = call.args[0]
                elif call:
                    size = next((kw.value for kw in call.keywords if kw.arg == "maxsize"), None)
                if size is None or isinstance(size, ast.Constant) and size.value is None:
                    out.append(f"line {deco.lineno}: {node.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def test_unbounded_cache_checker_flags_the_open_memos():
    src = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(x):\n"
        "    return x\n"
        "@functools.lru_cache\n"
        "def b(x):\n"
        "    return x\n"
        "@lru_cache()\n"
        "def c(x):\n"
        "    return x\n"
        "@cache\n"
        "def d(x):\n"
        "    return x\n"
        "@functools.lru_cache(None, typed=True)\n"
        "def e(x):\n"
        "    return x\n"
        "@lru_cache(maxsize=4096)\n"
        "def f(x):\n"
        "    return x\n"
        "@functools.lru_cache(64)\n"
        "def g(x):\n"
        "    return x\n"
        "class K:\n"
        "    @cached_property\n"
        "    def h(self):\n"
        "        return 1\n"
    )
    assert unbounded_caches(src) == [
        "line 3: a", "line 6: b", "line 9: c", "line 12: d", "line 15: e"]


def int_isinstance_checks(source: str) -> list[str]:
    """The lines of ``isinstance`` calls whose type argument is ``int`` or a
    tuple holding ``int``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kind = node.args[1]
        kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
            out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integers_are_not_tested_with_isinstance(path):
    assert int_isinstance_checks(path.read_text(encoding="utf-8")) == []


def test_int_isinstance_checker_flags_the_bool_admitting_tests():
    # the count checks of boolean.py and the seed check of scenario.py before
    # they became type(x) is not int, and what the checker lets through
    src = (
        "def measure_upgrade(F, p, tau, z, m):\n"
        "    if not isinstance(z, int) or z < 1:\n"
        "        raise PreconditionError('z')\n"
        "    if not isinstance(m, int) or m < 1:\n"
        "        raise PreconditionError('m')\n"
        "def hypercontractivity_check(F, p, tau, rho, q):\n"
        "    if not isinstance(q, int) or q <= 2:\n"
        "        raise PreconditionError('q')\n"
        "def load_scenario(seed, v, steps):\n"
        "    if isinstance(seed, bool) or not isinstance(seed, int):\n"
        "        raise ParseError('seed')\n"
        "    ok = type(seed) is not int, isinstance(v, (Fraction, int)), isinstance(v, bool)\n"
        "    return ok, isinstance(steps, list), isinstance(v, float)\n"
    )
    assert int_isinstance_checks(src) == ["line 2", "line 4", "line 7", "line 10", "line 12"]


def empty_link_choices(source: str) -> list[str]:
    """The lines of conditional expressions whose one branch is a value and
    the other that value's ``.link_domain(...)``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.IfExp) and any(
            isinstance(link, ast.Call) and isinstance(link.func, ast.Attribute)
            and link.func.attr == "link_domain" and ast.dump(link.func.value) == ast.dump(value)
            for value, link in ((node.body, node.orelse), (node.orelse, node.body))
        ):
            out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_empty_link_is_not_special_cased(path):
    assert empty_link_choices(path.read_text(encoding="utf-8")) == []


def test_empty_link_checker_flags_the_hand_made_choices():
    # the four choices of domains.py and pipelines.py before link_domain(0)
    # returned the domain, one turned round, and what the checker lets through
    src = (
        "def f(A, S, self, part, shadow_q, B):\n"
        "    L = A if S == 0 else A.link_domain(S)\n"
        "    links = {S: A if S == 0 else A.link_domain(S) for S in shadow_q}\n"
        "    sub = self.domain if part.core == 0 else self.domain.link_domain(part.core)\n"
        "    M = A.link_domain(S) if S else A\n"
        "    ok = A.link_domain(S), B if S else A.link_domain(S), A if S else B\n"
        "    return L, links, sub, M, ok, A.link_domain(0) if S else A.link_domain(S)\n"
    )
    assert empty_link_choices(src) == ["line 2", "line 3", "line 4", "line 5"]


NUMPY_OWNERS = {"spread.py": {"spread_lemma_mc"}}


def numpy_imports(source: str) -> list[str]:
    """The imports of numpy, each as ``line N: f`` with ``f`` the innermost
    function around it, or ``<module>`` at module level."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if any(m.split(".")[0] == "numpy" for m in imported_modules([child])):
                out.append(f"line {child.lineno}: {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_monte_carlo_estimator_imports_numpy(path):
    owners = {entry.split(": ", 1)[1] for entry in numpy_imports(path.read_text(encoding="utf-8"))}
    assert owners <= NUMPY_OWNERS.get(path.name, set())


def test_numpy_import_checker_flags_every_import_and_its_function():
    src = (
        "import numpy as np\n"
        "def spread_lemma_mc(F):\n"
        "    import numpy as np\n"
        "    def draw():\n"
        "        from numpy.random import Generator\n"
        "        return Generator\n"
        "    return np, draw\n"
        "class K:\n"
        "    def f(self):\n"
        "        if self:\n"
        "            from numpy import uint64\n"
        "        import numpyro, json\n"
        "        from . import boolean\n"
        "        return uint64, numpyro, json, boolean\n"
    )
    assert numpy_imports(src) == [
        "line 1: <module>", "line 3: spread_lemma_mc", "line 5: draw", "line 11: f"]


# the records kept as dataclasses: Domain keeps a cached ``index`` (a tuple
# method name) and an uncompared field; Decomposition and SystemSST validate
# and the tests ``dataclasses.replace`` them; the benchmark's smoke run
# ``dataclasses.replace``s CoverResult and SpreadLemmaEstimate
DATACLASSES = {
    "domains.py": {"Domain"},
    "pipelines.py": {"Decomposition", "SystemSST", "CoverResult"},
    "spread.py": {"SpreadLemmaEstimate"},
}


def record_checks(source: str) -> tuple[set[str], list[str]]:
    """The classes decorated with ``dataclass`` in any spelling, and the
    ``._replace`` and ``._make`` calls, each as ``line N: name``."""
    classes, calls = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                fn = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
                    classes.add(node.name)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("_replace", "_make"):
            calls.append(f"line {node.lineno}: {node.func.attr}")
    return classes, calls


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_named_records_are_dataclasses(path):
    classes, calls = record_checks(path.read_text(encoding="utf-8"))
    assert classes == DATACLASSES.get(path.name, set())
    assert calls == []


def test_record_checker_flags_dataclasses_and_tuple_rebuilds():
    src = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    x: int\n"
        "class C(NamedTuple):\n"
        "    x: int\n"
        "def f(c, make):\n"
        "    return c._replace(x=1), C._make([2]), c.replace('a', 'b'), make(c)\n"
    )
    assert record_checks(src) == ({"A", "B"}, ["line 13: _replace", "line 13: _make"])


def annotation_only_imports(source: str) -> list[str]:
    """The module-level ``from .m import ...`` statements all of whose names
    are read only inside annotations, as ``line N: m``."""
    tree = ast.parse(source)
    in_annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                            args.vararg, args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        in_annotations.update(id(n) for note in notes if note for n in ast.walk(note))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in in_annotations}
    return [f"line {node.lineno}: {node.module}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level
            and not any((a.asname or a.name) in read for a in node.names)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_is_loaded_for_annotations_only(path):
    assert annotation_only_imports(path.read_text(encoding="utf-8")) == []


def test_annotation_import_checker_flags_the_type_only_modules():
    src = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "from .domains import Domain\n"
        "from .family import SetFamily, canonical\n"
        "from .spread import SpreadVerdict as V\n"
        "if TYPE_CHECKING:\n"
        "    from .pipelines import Decomposition\n"
        "def f(A: Domain, *rest: V, D: Decomposition = None) -> SetFamily:\n"
        "    x: V = canonical(rest)\n"
        "    return x\n"
    )
    assert annotation_only_imports(src) == ["line 3: domains", "line 5: spread"]


# the classes whose report has a shape the encoder does not build
OWN_REPORTS = {
    "errors.py": {"SforgeError"},
    "pipelines.py": {"ExtractionThreshold"},
    "spread.py": {"SpreadLemmaEstimate"},
}


def own_reports(source: str) -> tuple[set[str], list[str]]:
    """The classes that define ``as_report``, by a method or by a class-level
    assignment such as the alias ``as_report = report``, and those of them
    with no comment on the line above the definition, as ``line N: Class``."""
    lines = source.splitlines()
    classes, bare = set(), []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "as_report":
                first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
            elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "as_report" for t in item.targets):
                first = item.lineno
            else:
                continue
            classes.add(node.name)
            if not lines[first - 2].strip().startswith("#"):
                bare.append(f"line {item.lineno}: {node.name}")
    return classes, bare


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_named_classes_build_their_own_report(path):
    classes, bare = own_reports(path.read_text(encoding="utf-8"))
    assert classes == OWN_REPORTS.get(path.name, set())
    assert bare == []


def test_own_report_checker_flags_a_hand_built_record_report():
    # sunflowers.SearchResult before the encoder, and a commented method
    src = (
        "class SearchResult(NamedTuple):\n"
        "    optimum: int\n"
        "    witness: SetFamily\n"
        "    nodes: int\n"
        "    certified: bool\n"
        "\n"
        "    def as_report(self) -> dict:\n"
        "        return {\n"
        "            \"optimum\": self.optimum,\n"
        "            \"witness\": self.witness.as_sets(),\n"
        "            \"nodes\": self.nodes,\n"
        "            \"certified\": self.certified,\n"
        "        }\n"
        "class Odd:\n"
        "    # its own: the reason\n"
        "    def as_report(self) -> dict:\n"
        "        return {}\n"
        "    as_report_too = as_report\n"
    )
    assert own_reports(src) == ({"SearchResult", "Odd"}, ["line 7: SearchResult"])


def test_own_report_checker_flags_an_alias_of_the_encoder():
    # pipelines.SimplifyResult when the pinned digest read results by a method
    src = (
        "class SimplifyResult(NamedTuple):\n"
        "    core_family: SetFamily\n"
        "    eps: Fraction\n"
        "    records: tuple[BoundRecord, ...] = ()\n"
        "\n"
        "    as_report = report  # a method too: the pinned pipeline digest reads results by it\n"
    )
    classes, bare = own_reports(src)
    assert classes == {"SimplifyResult"}
    assert classes - OWN_REPORTS["pipelines.py"]
    assert bare == ["line 6: SimplifyResult"]


def test_every_operation_reads_its_report_with_a_function():
    from sforge.scenario import OPERATIONS

    assert all(callable(entry.report) for entry in OPERATIONS)
