"""The mutant registry, ``mutants.json``, stays in step with the source.

Each mutant's old text occurs exactly once in its file under ``src/sforge``,
its replacement differs, and every test it names exists, so a rewrite of
the code or of a test cannot leave a mutant silently inapplicable.
``run_mutants.py`` applies the mutants and runs their tests.
"""

import json
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sforge"
MUTANTS = json.loads((TESTS / "mutants.json").read_text(encoding="utf-8"))


def test_mutant_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_a_mutant_still_applies_exactly_once(mutant):
    assert (SRC / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        path, *names = test.split("::")
        source = (TESTS.parent / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), test
