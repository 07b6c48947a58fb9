"""Run the mutants of ``tests/mutants.json`` against copies of ``src/``.

Each mutant names a file of ``src/sforge``, an exact text that occurs once
in it, its replacement, and the tests that must fail with the replacement
in place.  For each mutant this script copies ``src/`` to a temporary
directory, applies that one replacement with plain string replacement,
runs only the mutant's tests against the copy (``pytest -x``) and prints
``killed`` when they fail and ``survived`` when they pass.  It exits 1 if
any mutant is not killed.  It is not part of the tier-1 suite, where
``tests/test_mutants.py`` checks only that every old text still occurs once.

    python tests/run_mutants.py           # every mutant
    python tests/run_mutants.py ID ...    # the named ones
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = ROOT / "tests" / "mutants.json"


def run(mutant: dict) -> str:
    """``killed``, ``survived``, or why the mutant's tests could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "sforge" / mutant["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "stale: the old text does not occur exactly once"
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant["tests"]],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
    return {0: "survived", 1: "killed"}.get(proc.returncode,
                                            f"error: pytest exit {proc.returncode}")


def main(ids: list[str]) -> int:
    mutants = json.loads(REGISTRY.read_text(encoding="utf-8"))
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    left = 0
    for mutant in mutants:
        if ids and mutant["id"] not in ids:
            continue
        status = run(mutant)
        left += status != "killed"
        print(f"{status:<9} {mutant['id']}", flush=True)
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
