"""The benchmark's smoke mode and its tracer as tests.

``bench/run.py --smoke`` runs every workload at its smallest size, checks
each answer and shows that each checker flags a corrupted one, so a kernel
change that breaks an answer the benchmark checks fails here too.  It
writes no files.  The smoke mode runs untraced, so the tracer's patch list
(sforge functions named by string) is checked here on its own: a renamed or
deleted traced function fails this file, not only a traced benchmark run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

# every module install_tracer patches, so the bindings are read before it
from sforge import boolean, bounds, domains, family, packing, pipelines, spread, sunflowers  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"


def load_bench_module(stem: str):
    """``bench/<stem>.py`` as the module ``bench_<stem>``, registered in
    ``sys.modules`` before it runs (its dataclasses look themselves up
    there) and removed again by the caller."""
    name = f"bench_{stem}"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    run, tracer = load_bench_module("run"), load_bench_module("tracer")
    yield run, tracer.Tracer
    del sys.modules["bench_run"], sys.modules["bench_tracer"]


def sforge_bindings() -> dict:
    """Every name bound in an sforge module or in a class it defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sforge" or mod_name.startswith("sforge.")):
            continue
        out[mod_name] = dict(vars(mod))
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod_name:
                out[f"{mod_name}.{key}"] = dict(vars(value))
    return out


def install_and_uninstall(run, Tracer) -> int:
    """Install the benchmark's tracer, count one traced call, uninstall it,
    and check that every sforge binding is the original object again;
    returns the number of bindings patched."""
    before = sforge_bindings()
    tracer = Tracer()
    try:
        run.install_tracer(tracer)
        patched = len(tracer._restore)
        packing.max_disjoint([0b1, 0b10], stop_at=1)
        assert tracer.calls("packing.max_disjoint") == 1
    finally:
        tracer.uninstall()
    after = sforge_bindings()
    assert after.keys() == before.keys()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        for key, value in names.items():
            assert after[owner][key] is value, f"{owner}.{key} not restored"
    return patched


def test_the_tracer_finds_and_restores_every_name_it_patches(bench):
    assert install_and_uninstall(*bench) >= 21  # 21 traced names, some bound twice


@pytest.mark.parametrize("owner, name", [
    (packing, "max_disjoint"), (bounds, "bound_rhs"), (domains.Domain, "binomial"),
])
def test_a_deleted_traced_name_fails_the_tracer_check(bench, monkeypatch, owner, name):
    monkeypatch.delattr(owner, name)
    with pytest.raises((AttributeError, KeyError)):
        install_and_uninstall(*bench)
