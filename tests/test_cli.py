"""End-to-end tests of the command line front end.

Everything runs in-process through ``support.run_cli``; byte-level
determinism checks write reports to files with --out and compare on disk.
"""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import sforge
from sforge.family import SetFamily, family_from_hex, load_family, report
from sforge.scenario import OPERATIONS, canonical_report_bytes, resolve, run_scenario
from sforge.sunflowers import CoreMode, CorePredicate, max_sunflower_free
from support import run_cli


def invoke(*args, expect=0):
    result = run_cli(args)
    if expect is not None:
        assert result.exit_code == expect, result.output + result.stderr
    return result


def report_of(result) -> dict:
    return json.loads(result.output)


def error_of(result) -> dict:
    """The one canonical JSON error line a failing command writes to stderr."""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


TRIPLES = json.dumps({"n": 6, "sets": [[1, 2, 3], [1, 4, 5], [2, 4, 6]]})
STAR = json.dumps({"n": 6, "sets": [[1, 2], [1, 3], [1, 4], [1, 5]]})
BLOCKS = json.dumps({"n": 8, "sets": [[1, 2], [3, 4], [5, 6], [7, 8]]})
PLANTED = json.dumps({"n": 8, "sets": [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6]]})
BINOM_12_4 = json.dumps({"kind": "binomial", "n": 12, "k": 4})
STAR12 = json.dumps(
    {"n": 12, "sets": [sorted({1, 2} | set(c)) for c in combinations(range(3, 13), 2)]}
)
DICTATOR = json.dumps({"n": 3, "sets": [[1], [1, 2], [1, 3], [1, 2, 3]]})


@pytest.fixture
def star12(tmp_path):
    path = tmp_path / "star12.json"
    path.write_text(STAR12)
    return str(path)


class TestFamilyCommands:
    def test_info(self):
        rep = report_of(invoke("family", "info", TRIPLES))
        assert rep == {"size": 3, "ground": 6, "support": 6, "uniformity": 3}

    def test_show_hex_roundtrip(self):
        result = invoke("family", "show", TRIPLES, "--to", "hex")
        F = family_from_hex(result.output)
        assert F.as_sets() == [[1, 2, 3], [1, 4, 5], [2, 4, 6]]

    def test_show_json_is_canonical(self):
        result = invoke("family", "show", TRIPLES)
        assert result.output == '{"n":6,"sets":[[1,2,3],[1,4,5],[2,4,6]]}\n'

    def test_shadow(self):
        rep = report_of(invoke("family", "shadow", STAR, "--depth", 1))
        assert rep["sets"] == [[1], [2], [3], [4], [5]]

    def test_transversal_of_star(self):
        rep = report_of(invoke("family", "transversal", STAR))
        assert rep == {"value": 1, "transversal": [1]}

    def test_closure_counts_supersets(self):
        rep = report_of(invoke("family", "closure", json.dumps({"n": 3, "sets": [[1]]})))
        assert rep["size"] == 4

    def test_stdin_input(self):
        result = run_cli(["family", "info", "-"], stdin=STAR)
        assert result.exit_code == 0
        assert report_of(result)["size"] == 4

    def test_unparseable_family_exits_2(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a family")
        invoke("family", "info", str(path), expect=2)

    def test_missing_file_exits_2(self):
        invoke("family", "info", "/nonexistent/fam.json", expect=2)

    @pytest.mark.parametrize("text", [
        '{"n":5,"sets":[[1,2],[1,true]]}',
        '{"n":true,"sets":[[1]]}',
    ])
    def test_json_booleans_exit_2(self, text):
        assert error_of(invoke("family", "info", text, expect=2))["error"] == "ParseError"


class TestSunflowerCommands:
    def test_find_reports_witness(self):
        rep = report_of(invoke("sunflower", "find", PLANTED, "--petals", 3))
        assert rep["found"] is True
        assert rep["witness"]["core"] == [1]

    def test_find_none(self):
        rep = report_of(invoke("sunflower", "find", TRIPLES, "--petals", 3))
        assert rep == {"found": False, "pred": "3 petals, any core"}

    def test_max_free_on_all_pairs(self):
        # K4 has six edges; five of them force a vertex of degree three,
        # which is a 3-sunflower, and a 4-cycle avoids one.
        pairs = json.dumps({"n": 4, "sets": [list(c) for c in combinations(range(1, 5), 2)]})
        rep = report_of(invoke("sunflower", "max-free", pairs, "--petals", 3))
        assert rep["optimum"] == 4
        assert rep["certified"] is True

    def test_phi_small(self):
        rep = report_of(invoke("sunflower", "phi", "--petals", 4, "--core-size", 1, "--support", 8))
        assert rep["value"] == 3

    def test_phi_capacity_gate_exits_3(self):
        invoke("sunflower", "phi", "--petals", 3, "--core-size", 4, "--support", 20, expect=3)

    def test_kernel(self):
        rep = report_of(invoke("sunflower", "kernel", "--petals", 3, "--core-size", 2))
        assert rep == {"n": 4, "sets": [[1, 3], [2, 3], [1, 4], [2, 4]]}


class TestSpreadCommands:
    def test_check_ok(self):
        rep = report_of(invoke("spread", "check", BLOCKS, "-R", 2))
        assert rep["ok"] is True

    def test_check_violation(self):
        rep = report_of(invoke("spread", "check", STAR, "-R", 3))
        assert rep["ok"] is False
        assert rep["violation"] == [1]

    def test_bracket(self):
        rep = report_of(invoke("spread", "bracket", "-R", 4096, "--delta", "1/16", "--m", 8))
        assert rep["vacuous"] is False
        assert 0 < Fraction(rep["low"]) <= Fraction(rep["high"])

    def test_mc_runs(self):
        rep = report_of(
            invoke("spread", "mc", BLOCKS, "-R", 2, "--m", 4, "--delta", "1/8", "--trials", 2048)
        )
        assert rep["trials"] == 2048
        assert 0 <= rep["hits"] <= 2048

    @pytest.mark.parametrize("trials", [2048, 4096])
    def test_mc_bytes_same_seed(self, tmp_path, trials):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--seed", 11, "spread", "mc", BLOCKS, "-R", 2, "--m", 4, "--delta", "1/8",
                "--trials", trials]
        invoke("--out", out1, *args)
        invoke("--out", out2, *args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_rejects_unspread_family(self):
        invoke("spread", "mc", STAR, "-R", 3, "--m", 4, "--delta", "1/8", "--trials", 64, expect=1)


class TestDomainsCommands:
    def test_build_binomial(self):
        rep = report_of(invoke("domains", "build", '{"kind":"binomial","n":8,"k":3}'))
        assert rep["size"] == 56
        assert rep["nominal"]["spread_r"] == "8/3"

    def test_build_unknown_kind_exits_2(self):
        invoke("domains", "build", '{"kind":"mystery"}', expect=2)

    @pytest.mark.parametrize("spec", [
        '{"kind":"binomial","n":[1],"k":2}',
        '{"kind":"binomial","n":true,"k":1}',
        '{"kind":"sequences","n":3,"k":"2"}',
        '{"kind":"kpartite_product","n":3,"parts":[1,true]}',
        '{"kind":"permutations","n":3.0}',
        '{"kind":"complex_layer","maximal_faces":[[1,2,3]],"k":false}',
        '{"kind":"complex_layer","maximal_faces":[[1,"2"]],"k":1}',
        '{"kind":"complex_layer","maximal_faces":7,"k":1}',
    ])
    def test_build_non_integer_params_exit_2(self, spec):
        assert error_of(invoke("domains", "build", spec, expect=2))["error"] == "ParseError"

    def test_check_rt_spread(self):
        rep = report_of(
            invoke("domains", "check", '{"kind":"permutations","n":4}', "-r", 1, "--core-size", 1)
        )
        assert rep["ok"] is True

    def test_homogeneous(self):
        rep = report_of(
            invoke("domains", "homogeneous", TRIPLES, "--domain", '{"kind":"binomial","n":6,"k":3}',
                   "--tau", 6)
        )
        assert "ok" in rep


class TestBooleanCommands:
    def test_measure(self):
        rep = report_of(invoke("boolean", "measure", json.dumps({"n": 2, "sets": [[1, 2]]}), "--p", "1/2"))
        assert rep == {"p": "1/2", "value": "1/4"}

    def test_global(self):
        rep = report_of(invoke("boolean", "global", STAR, "--p", "1/4", "--tau", 4))
        assert "ok" in rep

    def test_stab_at_rho_one_is_measure(self):
        measure = report_of(invoke("boolean", "measure", STAR, "--p", "1/4"))["value"]
        rep = report_of(invoke("boolean", "stab", STAR, "--p", "1/4", "--rho", 1))
        assert rep["value"] == measure

    def test_threshold(self):
        # the command raises on a failed correlation inequality, so a report
        # means the certificate went through
        rep = report_of(invoke("boolean", "threshold", DICTATOR, "--p", "1/8", "--p-tilde", "1/4"))
        assert rep["mu_p"] == "1/8"
        assert rep["mu_tilde"] == "1/4"
        assert rep["upgraded"] is False

    def test_upgrade(self):
        rep = report_of(
            invoke("boolean", "upgrade", DICTATOR, "--p", "1/512", "--tau", 2, "--z", 9, "--m", 1)
        )
        assert "rounds" in rep

    def test_hyper(self):
        rep = report_of(
            invoke("boolean", "hyper", STAR, "--p", "1/4", "--tau", 4, "--rho", "1/200", "--q", 4)
        )
        assert Fraction(rep["rho"]) <= Fraction(rep["rho_gate"])
        assert "moment" in rep


class TestPipelineCommands:
    def test_cover(self, star12):
        rep = report_of(
            invoke("pipeline", "cover", star12, "--domain", BINOM_12_4,
                   "--petals", 3, "--core-size", 2, "--w", "5/2")
        )
        assert rep["core_family"] == [[1, 2]]
        assert rep["residue_size"] == 0

    def test_approx(self, star12):
        rep = report_of(
            invoke("pipeline", "approx", star12, "--domain", BINOM_12_4, "--tau", 3, "--q", 2)
        )
        assert [part["core"] for part in rep["parts"]] == [[1, 2]]

    def test_simplify(self, star12):
        rep = report_of(
            invoke("pipeline", "simplify", star12, "--domain", BINOM_12_4,
                   "--petals", 3, "--core-size", 2, "--eps", "1/2")
        )
        assert "threshold" in rep

    def test_reduce_chain(self, star12):
        rep = report_of(
            invoke("pipeline", "reduce", star12, "--domain", BINOM_12_4, "--tau", 3, "--q", 2,
                   "--petals", 3, "--core-size", 2, "--alpha", "1/16")
        )
        assert set(rep) == {"decomposition", "system"}

    def test_cluster_chain(self, star12):
        rep = report_of(
            invoke("pipeline", "cluster", star12, "--domain", BINOM_12_4, "--tau", 3, "--q", 2,
                   "--petals", 3, "--core-size", 2, "--alpha", "1/16", "--lam", "1/2")
        )
        assert rep["clusters"]["final_cores"] == [[1, 2]]

    def test_peel(self, star12):
        rep = report_of(invoke("pipeline", "peel", star12, "--petals", 3, "--core-size", 1))
        assert "u_layers" in rep

    def test_delta(self):
        rep = report_of(invoke("pipeline", "delta", STAR, "--petals", 3, "--core-size", 1))
        assert rep["rounds"] == 1
        assert rep["removed"] == []

    @pytest.mark.parametrize("t", [1, 20])
    def test_delta_on_a_wide_member_exits_3(self, t):
        # one 40-element member has C(40, t) (2^(40-t) - 1) anchor tests to run;
        # t = 20 would first list all C(40, 20) anchors
        wide = json.dumps({"n": 40, "sets": [list(range(1, 41))]})
        err = error_of(invoke("pipeline", "delta", wide, "--petals", 2, "--core-size", t, expect=3))
        assert err["error"] == "CapacityError" and err["details"]["k"] == "40"


class TestBoundsCommands:
    def test_list(self):
        rep = report_of(invoke("bounds", "list"))
        assert "erdos-rado" in rep["names"]
        assert len(rep["names"]) == 10

    def test_eval(self):
        rep = report_of(invoke("bounds", "eval", "--name", "erdos-rado", "--params", '{"k":2,"s":3}'))
        assert rep["value"] == "8"

    def test_eval_symbolic(self):
        rep = report_of(
            invoke("bounds", "eval", "--name", "small-k-main",
                   "--params", '{"n":20,"k":3,"s":3,"t":2}')
        )
        assert rep["value"] is None
        assert rep["symbolic"]

    def test_unknown_name_exits_1(self):
        invoke("bounds", "eval", "--name", "nope", "--params", "{}", expect=1)

    def test_bad_params_json_exits_2(self):
        invoke("bounds", "eval", "--name", "erdos-rado", "--params", "not json", expect=2)

    def test_erdos_matching_with_more_petals_than_elements(self):
        # once s - 1 >= n, a fixed (s - 1)-set meets every k-set: the cover term is C(n, k)
        rep = report_of(invoke("bounds", "eval", "--name", "erdos-matching",
                               "--params", '{"n":1,"k":1,"s":3}'))
        assert rep["value"] == "2"
        rep = report_of(invoke("bounds", "eval", "--name", "erdos-matching",
                               "--params", '{"n":3,"k":3,"s":5}'))
        assert rep["value"] == "364"

    @pytest.mark.parametrize("params", ['{"s":1,"k":3}', '{"s":true,"k":3}', '{"s":3,"k":false}'])
    def test_erdos_rado_bad_params_exit_1(self, params):
        result = invoke("bounds", "eval", "--name", "erdos-rado", "--params", params, expect=1)
        assert result.stdout == ""
        assert error_of(result)["error"] == "PreconditionError"


class TestVerifyCommand:
    DOMAIN = '{"kind":"binomial","n":5,"k":2}'

    def test_json_report(self):
        rep = report_of(invoke("verify", "--domain", self.DOMAIN, "--petals", 3, "--core-size", 1))
        assert rep["optimum"] == 10
        assert rep["optimum_certified"] is True
        assert rep["violations"] == []

    def test_csv_table(self):
        result = invoke("--format", "csv", "verify", "--domain", self.DOMAIN,
                        "--petals", 3, "--core-size", 1)
        lines = result.output.splitlines()
        assert lines[0] == "row,name,value,applicable,hypotheses"
        assert "optimum,search,10,true," in lines
        assert any(line.startswith("bound,erdos-matching,") for line in lines)

    def test_more_petals_than_elements(self):
        rep = report_of(invoke("verify", "--domain", '{"kind":"binomial","n":3,"k":1}',
                               "--petals", 5, "--core-size", 1))
        assert rep["optimum"] == 3
        assert rep["violations"] == []

    def test_csv_elsewhere_exits_2(self):
        invoke("--format", "csv", "family", "info", STAR, expect=2)

    def test_pred_override(self):
        rep = report_of(
            invoke("verify", "--domain", self.DOMAIN, "--petals", 2, "--core-size", 1,
                   "--mode", "any")
        )
        assert rep["optimum"] == 1


class TestRunCommand:
    def write(self, tmp_path, obj):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_empty_scenario(self, tmp_path):
        path = self.write(tmp_path, {"schema": 1})
        result = invoke("run", path)
        assert result.output == '{"schema":1,"seed":0,"steps":[]}\n'

    def test_construction_cover_chain(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "seed": 7,
            "steps": [
                {"op": "product-kernel", "name": "T", "petals": 3, "core-size": 2},
                {"op": "domain", "name": "A", "kind": "binomial", "n": 10, "k": 4},
                {"op": "example-23", "name": "F", "n": 10, "k": 4, "petals": 3,
                 "core-size": 2, "skeleton": "T"},
                {"op": "cover", "name": "C", "family": "F", "domain": "A",
                 "petals": 3, "core-size": 2, "w": "5/2"},
                {"op": "assert-free", "family": "F", "petals": 3,
                 "mode": "at-most", "core-bound": 1},
            ],
        })
        rep = report_of(invoke("run", path))
        assert [e["op"] for e in rep["steps"]] == [
            "product-kernel", "domain", "example-23", "cover", "assert-free"]
        assert rep["steps"][2]["report"]["size"] == 60
        assert rep["steps"][4]["report"]["found"] is False

    def test_planted_sunflower_fails_with_witness(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "steps": [
                {"op": "family", "name": "G", "n": 8,
                 "sets": [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6]]},
                {"op": "assert-free", "family": "G", "petals": 3},
            ],
        })
        result = invoke("run", path, expect=1)
        rep = report_of(result)
        error = rep["steps"][-1]["error"]
        assert error["error"] == "VerificationError"
        assert "witness" in error["details"]

    def test_report_bytes_identical_across_runs(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "seed": 5,
            "steps": [
                {"op": "family", "name": "F", "n": 8,
                 "sets": [[1, 2], [3, 4], [5, 6], [7, 8]]},
                {"op": "mc", "family": "F", "R": 2, "m": 4, "delta": "1/8", "trials": 4096},
            ],
        })
        payloads = []
        for i in range(3):
            out = tmp_path / f"run{i}.bin"
            invoke("--out", out, "run", path)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_bad_schema_exits_2(self, tmp_path):
        path = self.write(tmp_path, {"schema": 2})
        invoke("run", path, expect=2)

    def test_unknown_op_exits_2(self, tmp_path):
        path = self.write(tmp_path, {"schema": 1, "steps": [{"op": "launch"}]})
        invoke("run", path, expect=2)

    def test_capacity_error_inside_scenario(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "steps": [{"op": "phi", "petals": 3, "core-size": 4, "support": 20}],
        })
        result = invoke("run", path, expect=3)
        rep = report_of(result)
        assert rep["steps"][0]["error"]["error"] == "CapacityError"

    def test_oversized_skeleton_lift_exits_3_at_once(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "steps": [
                {"op": "product-kernel", "name": "T", "petals": 3, "core-size": 2},
                {"op": "example-23", "name": "F", "n": 40, "k": 20, "petals": 3,
                 "core-size": 2, "skeleton": "T"},
            ],
        })
        start = time.perf_counter()
        result = invoke("run", path, expect=3)
        assert time.perf_counter() - start < 1
        assert report_of(result)["steps"][1]["error"]["error"] == "CapacityError"

    def test_assert_flag_promotes_check(self, tmp_path):
        path = self.write(tmp_path, {
            "schema": 1,
            "steps": [
                {"op": "family", "name": "S", "n": 6,
                 "sets": [[1, 2], [1, 3], [1, 4], [1, 5]]},
                {"op": "spread-check", "family": "S", "R": 3, "assert": True},
            ],
        })
        result = invoke("run", path, expect=1)
        rep = report_of(result)
        assert rep["steps"][-1]["error"]["message"] == "asserted check failed"


@pytest.mark.parametrize("args", [
    ["sunflower", "max-free", TRIPLES, "--petals", "abc"],
    ["sunflower", "phi", "--petals", "3.5", "--core-size", 1, "--support", 8],
    ["spread", "check", STAR, "-R", "1/0"],
    ["spread", "check", STAR, "--ratio", "two"],
    ["boolean", "measure", STAR, "--p", "1/2/3"],
    ["--seed", "abc", "family", "info", STAR],
    ["sunflower", "find", TRIPLES, "--petals", 3, "--mode", "some"],
])
def test_malformed_option_exit_2(args):
    result = invoke(*args, expect=2)
    assert result.stdout == ""
    assert error_of(result)["error"] == "ParseError"


MC = ["spread", "mc", BLOCKS, "-R", 2, "--m", 4, "--trials", 16]


@pytest.mark.parametrize("args", [
    ["family", "nosuch", STAR],  # unknown command of a group
    ["nosuch", "info", STAR],  # unknown group
    [*MC, "--del", "1/8"],  # unknown option; no prefix of --delta is taken for it
    ["family", "info"],  # missing argument
    ["spread", "check", STAR],  # missing required option
    ["family", "shadow", STAR, "--depth"],  # option with no value
    ["--format", "xml", "family", "info", STAR],  # bad --format choice
    ["family", "info", STAR, "extra"],  # extra positional argument
    [*MC, "--delta", "1/8", "--with-exact=yes"],  # value given to a flag
    [],  # no command at all
    ["family"],  # a group without a command
], ids=["unknown-command", "unknown-group", "unknown-option", "missing-argument",
        "missing-option", "option-without-value", "bad-format", "extra-argument",
        "flag-with-value", "no-command", "group-only"])
def test_usage_error_exits_2_with_one_json_line(args):
    result = invoke(*args, expect=2)
    assert result.stdout == ""
    assert error_of(result)["error"] == "ParseError"


@pytest.mark.parametrize("args", [
    [*MC, "--delta", "-1/8"],
    [*MC, "--delta", 0],
    ["spread", "bracket", "-R", 0, "--delta", "1/16", "--m", 8],
    ["spread", "bracket", "-R", -4096, "--delta", "1/16", "--m", 8],
    ["spread", "bracket", "-R", 4096, "--delta", "-1/16", "--m", 8],
    ["spread", "bracket", "-R", 64, "--delta", 1, "--m", 1, "--mu-norm", -3],
    ["spread", "bracket", "-R", 64, "--delta", 1, "--m", 1, "--mu-norm", 0],
    ["spread", "bracket", "-R", 9, "--delta", 4, "--m", -2],
    ["spread", "bracket", "-R", 4096, "--delta", "1/16", "--m", 0],
])
def test_non_positive_spread_parameters_exit_1(args):
    result = invoke(*args, expect=1)
    assert result.stdout == ""
    assert error_of(result)["error"] == "PreconditionError"


@pytest.mark.parametrize("delta", ["-1/8", 0])
def test_non_positive_delta_fails_the_mc_step(delta):
    result = run_scenario({"schema": 1, "steps": [
        {"op": "family", "name": "F", **json.loads(BLOCKS)},
        {"op": "mc", "family": "F", "R": 2, "m": 4, "delta": delta, "trials": 16},
    ]})
    assert result.exit_code == 1
    assert result.report["steps"][-1]["error"]["error"] == "PreconditionError"


def test_option_value_after_an_equals_sign():
    assert invoke("family", "show", TRIPLES, "--to=hex").output == invoke(
        "family", "show", "--to", "hex", TRIPLES).output


@pytest.mark.parametrize("args,shown", [
    (["--help"], ["--seed INTEGER", "--format json|csv", "family", "verify", "run"]),
    (["spread", "--help"], ["bracket", "mc", "Spreadness checks and the random-cover estimate."]),
    (["spread", "mc", "SRC", "--help"],
     ["usage: sforge spread mc [options] SRC", "-R, --ratio FRACTION", "required",
      "--with-exact", "Estimate P[some member inside an (m*delta)-random W]"]),
    (["sunflower", "max-free", "--help"], ["--mode any|exact|at-most", "default: any"]),
])
def test_help_at_each_level(args, shown):
    result = invoke(*args)
    assert result.stderr == ""
    for text in shown:
        assert text in result.output, text


def test_every_table_reference_resolves():
    runs = {e.run for e in OPERATIONS if isinstance(e.run, str)}
    kinds = {p.kind for e in OPERATIONS for p in e.params
             if isinstance(p.kind, str) and ":" in p.kind}
    assert len(runs) > 20 and kinds == {"family:SetFamily", "domains:Domain",
                                        "pipelines:Decomposition", "pipelines:SystemSST"}
    for ref in runs:
        assert callable(resolve(ref)), ref
    for ref in kinds:
        assert isinstance(resolve(ref), type), ref


def test_a_step_sees_a_patched_module_attribute(monkeypatch):
    # the benchmark's tracer patches module attributes; the table must not
    # hold on to the function it resolved before
    from sforge import spread

    scenario = {"schema": 1, "steps": [{"op": "family", "name": "F", **json.loads(BLOCKS)},
                                       {"op": "spread-check", "family": "F", "R": 2}]}
    run_scenario(scenario)
    calls = []
    original = spread.check_spread
    monkeypatch.setattr(spread, "check_spread", lambda *a: calls.append(a) or original(*a))
    assert run_scenario(scenario).exit_code == 0
    assert len(calls) == 1


def test_frozen_benchmark_cli_digests(monkeypatch):
    # bench/frozen.json pins the sha256 of the stdout of each request of the
    # benchmark's cli workload; the requests run here in-process
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.chdir(bench.parent)
    workloads = importlib.import_module("workloads")
    frozen = workloads.load_frozen()["cli"]
    assert len(workloads.CLI_REQUESTS) == len(frozen) == 9
    for args in workloads.CLI_REQUESTS:
        result = run_cli(args)
        assert result.exit_code == 0, (args, result.stderr)
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == frozen[workloads.request_key(args)], args


B52 = '{"kind":"binomial","n":5,"k":2}'
B63 = '{"kind":"binomial","n":6,"k":3}'
B82 = '{"kind":"binomial","n":8,"k":2}'
PAIRS4 = json.dumps({"n": 4, "sets": [list(c) for c in combinations(range(1, 5), 2)]})
TRIPLES6 = json.dumps({"n": 6, "sets": [list(c) for c in combinations(range(1, 7), 3)]})
STAR63 = json.dumps({"n": 6, "sets": [[1, a, b] for a, b in combinations(range(2, 7), 2)]})
UP12 = json.dumps({"n": 3, "sets": [[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3]]})

# (command line, scenario step, family bound as "family", domain bound as "domain")
PARITY = [
    (["sunflower", "find", PLANTED, "--petals", 3], {"op": "find", "petals": 3}, PLANTED, None),
    (["sunflower", "max-free", PAIRS4, "--petals", 3, "--mode", "at-most", "--core-bound", 1],
     {"op": "max-free", "petals": 3, "mode": "at-most", "core-bound": 1}, PAIRS4, None),
    (["sunflower", "phi", "--petals", 4, "--core-size", 1, "--support", 8],
     {"op": "phi", "petals": 4, "core-size": 1, "support": 8}, None, None),
    (["spread", "check", STAR, "-R", 3], {"op": "spread-check", "R": 3}, STAR, None),
    (["spread", "remove", BLOCKS, "-R", 2, "--exclude", "[1]"],
     {"op": "spread-remove", "R": 2, "exclude": [1]}, BLOCKS, None),
    (["domains", "check", '{"kind":"permutations","n":4}', "-r", 1, "--core-size", 1],
     {"op": "rt-spread", "r": 1, "core-size": 1}, None, '{"kind":"permutations","n":4}'),
    (["domains", "homogeneous", TRIPLES, "--domain", '{"kind":"binomial","n":6,"k":3}', "--tau", 6],
     {"op": "homogeneous", "tau": 6}, TRIPLES, '{"kind":"binomial","n":6,"k":3}'),
    (["domains", "remove", TRIPLES6, "--domain", B63, "--tau", 1, "-r", 2, "--exclude", "[6]"],
     {"op": "homogeneous-remove", "tau": 1, "r": 2, "exclude": [6]}, TRIPLES6, B63),
    (["domains", "prune", STAR63, "--domain", B63, "--tau", 2, "--alpha", "1/6", "--t", 2],
     {"op": "homogeneous-prune", "tau": 2, "alpha": "1/6", "t": 2}, STAR63, B63),
    (["domains", "shadow-bound", STAR63, "--domain", B63, "--tau", 2, "--h", 2],
     {"op": "shadow-bound", "tau": 2, "h": 2}, STAR63, B63),
    (["domains", "assumptions", B82, "--q", 2, "--eta", 2, "--mu", 4, "-r", 2],
     {"op": "assumptions", "q": 2, "eta": 2, "mu": 4, "r": 2}, None, B82),
    (["boolean", "measure", STAR, "--p", "1/4"], {"op": "measure", "p": "1/4"}, STAR, None),
    (["boolean", "global", STAR, "--p", "1/4", "--tau", 4],
     {"op": "global", "p": "1/4", "tau": 4}, STAR, None),
    (["boolean", "remove", UP12, "--p", "1/4", "--tau", 3, "--exclude", "[3]"],
     {"op": "global-remove", "p": "1/4", "tau": 3, "exclude": [3]}, UP12, None),
    (["boolean", "stab", STAR, "--p", "1/4", "--rho", "1/2"],
     {"op": "stability", "p": "1/4", "rho": "1/2"}, STAR, None),
    (["boolean", "threshold", DICTATOR, "--p", "1/8", "--p-tilde", "1/4"],
     {"op": "threshold", "p": "1/8", "p-tilde": "1/4"}, DICTATOR, None),
    (["boolean", "upgrade", DICTATOR, "--p", "1/512", "--tau", 2, "--z", 9, "--m", 1],
     {"op": "upgrade", "p": "1/512", "tau": 2, "z": 9, "m": 1}, DICTATOR, None),
    (["boolean", "hyper", STAR, "--p", "1/4", "--tau", 4, "--rho", "1/200", "--q", 4],
     {"op": "hyper", "p": "1/4", "tau": 4, "rho": "1/200", "q": 4}, STAR, None),
    (["pipeline", "approx", STAR12, "--domain", BINOM_12_4, "--tau", 3, "--q", 2],
     {"op": "approx", "tau": 3, "q": 2}, STAR12, BINOM_12_4),
    (["pipeline", "simplify", STAR12, "--domain", BINOM_12_4, "--petals", 3, "--core-size", 2,
      "--eps", "1/2"],
     {"op": "simplify", "petals": 3, "core-size": 2, "eps": "1/2"}, STAR12, BINOM_12_4),
    (["pipeline", "cover", STAR12, "--domain", BINOM_12_4, "--petals", 3, "--core-size", 2,
      "--w", "5/2"],
     {"op": "cover", "petals": 3, "core-size": 2, "w": "5/2"}, STAR12, BINOM_12_4),
    (["pipeline", "peel", STAR12, "--petals", 3, "--core-size", 1],
     {"op": "peel", "petals": 3, "core-size": 1}, STAR12, None),
    (["pipeline", "delta", STAR, "--petals", 3, "--core-size", 1],
     {"op": "delta", "petals": 3, "core-size": 1}, STAR, None),
    (["bounds", "eval", "--name", "erdos-rado", "--params", '{"k":2,"s":3}'],
     {"op": "bound", "bound": "erdos-rado", "params": {"k": 2, "s": 3}}, None, None),
    (["verify", "--domain", B52, "--petals", 3, "--core-size", 1],
     {"op": "verify-instance", "petals": 3, "core-size": 1}, None, B52),
]


@pytest.mark.parametrize("args,step,family,domain", PARITY, ids=[c[1]["op"] for c in PARITY])
def test_cli_matches_scenario_step(args, step, family, domain):
    steps = []
    if family is not None:
        steps.append({"op": "family", "name": "F", **json.loads(family)})
        step = {**step, "family": "F"}
    if domain is not None:
        steps.append({"op": "domain", "name": "A", **json.loads(domain)})
        step = {**step, "domain": "A"}
    result = run_scenario({"schema": 1, "steps": steps + [step]})
    assert result.exit_code == 0, result.report
    expected = canonical_report_bytes(result.report["steps"][-1]["report"])
    assert invoke(*args).stdout_bytes == expected


def test_a_removal_step_binds_the_surviving_family():
    result = run_scenario({"schema": 1, "steps": [
        {"op": "family", "name": "F", **json.loads(BLOCKS)},
        {"op": "spread-remove", "name": "G", "family": "F", "R": 2, "exclude": [3]},
        {"op": "spread-check", "family": "G", "R": 1},
    ]})
    assert result.exit_code == 0, result.report
    assert result.report["steps"][1]["handle"] == "G"
    assert result.report["steps"][2]["report"]["family_size"] == 3


def test_prune_drops_the_member_owning_sparse_prefixes_and_binds_the_rest():
    # a star on 1 inside binomial(12,3), plus {4,5,6}, whose points are sparse
    star = [[1, a, b] for a, b in combinations(range(2, 13), 2) if not {a, b} & {4, 5, 6}]
    result = run_scenario({"schema": 1, "steps": [
        {"op": "family", "name": "F", "n": 12, "sets": star + [[4, 5, 6]]},
        {"op": "domain", "name": "A", "kind": "binomial", "n": 12, "k": 3},
        {"op": "homogeneous-prune", "name": "G", "family": "F", "domain": "A", "tau": 4,
         "alpha": "1/6"},
        {"op": "shadow-bound", "family": "G", "domain": "A", "tau": 4, "h": 1},
    ]})
    assert result.exit_code == 0, result.report
    prune = result.report["steps"][2]["report"]
    assert prune["removed"] == 1 and prune["size"] == len(star)
    assert prune["sparse_prefixes"] == [[4], [5], [6]]
    assert result.report["steps"][3]["report"] == {"ok": True}


def test_an_asserted_assumption_battery_fails_on_a_broken_assumption():
    result = run_scenario({"schema": 1, "steps": [
        {"op": "domain", "name": "A", **json.loads(B82)},
        {"op": "assumptions", "domain": "A", "q": 2, "eta": 0, "mu": 4, "r": 2, "assert": True},
    ]})
    assert result.exit_code == 1
    assert result.report["steps"][-1]["error"]["error"] == "VerificationError"


REMOVALS = [
    (["spread", "remove", BLOCKS, "-R", 2], {"op": "spread-remove", "R": 2}),
    (["domains", "remove", TRIPLES6, "--domain", B63, "--tau", 1, "-r", 2],
     {"op": "homogeneous-remove", "tau": 1, "r": 2}),
    (["boolean", "remove", UP12, "--p", "1/4", "--tau", 3],
     {"op": "global-remove", "p": "1/4", "tau": 3}),
]
BAD_EXCLUDE = [[True], [0], [65], [1, 1], [1.5], ["1"], {"1": 1}, 1]


@pytest.mark.parametrize("args,step", REMOVALS, ids=[r[1]["op"] for r in REMOVALS])
@pytest.mark.parametrize("bad", BAD_EXCLUDE + ["[1,", ""], ids=repr)
def test_malformed_exclude_exits_2(args, step, bad):
    text = bad if isinstance(bad, str) else json.dumps(bad)
    result = invoke(*args, "--exclude", text, expect=2)
    assert result.stdout == ""
    assert error_of(result)["error"] == "ParseError"
    if not isinstance(bad, str):
        steps = [{"op": "family", "name": "F", **json.loads(args[2])},
                 {"op": "domain", "name": "A", **json.loads(B63)},
                 {**step, "family": "F", "domain": "A", "exclude": bad}]
        report = run_scenario({"schema": 1, "steps": steps})
        assert report.exit_code == 2
        assert report.report["steps"][-1]["error"]["error"] == "ParseError"


@pytest.mark.parametrize("args", [r[0] for r in REMOVALS], ids=[r[1]["op"] for r in REMOVALS])
def test_an_element_outside_the_ground_exits_1(args):
    result = invoke(*args, "--exclude", "[1,64]", expect=1)
    assert "outside the ground" in error_of(result)["message"]


def test_an_oversized_assumption_battery_exits_3_at_once():
    start = time.perf_counter()
    result = invoke("domains", "assumptions", '{"kind":"binomial","n":20,"k":4}',
                    "--q", 3, "--eta", 1, "--mu", 4, "-r", 2, expect=3)
    assert time.perf_counter() - start < 1
    assert error_of(result)["error"] == "CapacityError"


def test_a_hopeless_packing_exits_3():
    # the edges of K_15 hold no 8 disjoint ones, and 14 vertices meet them all
    k15 = json.dumps({"n": 15, "sets": [list(c) for c in combinations(range(1, 16), 2)]})
    result = invoke("sunflower", "find", k15, "--petals", 8, expect=3)
    assert error_of(result)["error"] == "CapacityError"


def test_a_search_deeper_than_the_depth_cap_exits_3():
    deep = json.dumps({"n": 64, "sets": [[1, a, b] for a, b in combinations(range(2, 65), 2)]})
    result = invoke("sunflower", "max-free", deep, "--petals", 2, "--mode", "at-most",
                    "--core-bound", 0, expect=3)
    assert error_of(result)["error"] == "CapacityError"


def test_a_quadratic_s2_search_exits_3_at_once():
    # the 6,435 7-subsets of [15] pairwise meet in at most 6 elements; an
    # s = 2 search without symmetry would test every pair
    sevens = json.dumps({"n": 15, "sets": [list(c) for c in combinations(range(1, 16), 7)]})
    start = time.perf_counter()
    result = invoke("sunflower", "max-free", sevens, "--petals", 2, "--mode", "at-most",
                    "--core-bound", 6, expect=3)
    assert time.perf_counter() - start < 10
    assert result.stdout == ""
    assert error_of(result)["error"] == "CapacityError"


def test_a_deep_search_reports_the_same_from_the_api_the_command_and_a_run(tmp_path):
    # 891 members that all hold 1: free together, one search level each
    sets = [[1, a, b] for a, b in combinations(range(2, 65), 2)][:891]
    res = max_sunflower_free(SetFamily.from_sets(64, sets), CorePredicate(2, CoreMode.AT_MOST, 0))
    assert (res.optimum, res.certified) == (891, True)
    want = canonical_report_bytes(report(res))
    deep = json.dumps({"n": 64, "sets": sets})
    got = invoke("sunflower", "max-free", deep, "--petals", 2, "--mode", "at-most",
                 "--core-bound", 0)
    assert got.stdout_bytes == want
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"schema": 1, "steps": [
        {"op": "family", "name": "F", "n": 64, "sets": sets},
        {"op": "max-free", "family": "F", "petals": 2, "mode": "at-most", "core-bound": 0},
    ]}))
    step = report_of(invoke("run", path))["steps"][-1]["report"]
    assert canonical_report_bytes(step) == want


def test_a_negative_search_budget_exits_1_with_one_json_line():
    result = invoke("sunflower", "max-free", TRIPLES, "--petals", 3, "--budget", -5, expect=1)
    assert result.stdout == ""
    assert error_of(result)["error"] == "PreconditionError"


def test_verify_on_a_domain_missing_the_kernel_reports():
    result = invoke("verify", "--domain", '{"kind":"sequences","n":3,"k":2}',
                    "--petals", 2, "--core-size", 2)
    assert report_of(result)["optimum"] == 1


ENGINE = {"sforge." + m for m in
          ("boolean", "bounds", "domains", "exact", "pipelines", "spread", "sunflowers",
           "packing")}


def modules_after(code: str) -> set:
    """The modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(sforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nimport sys; sys.stderr.write(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return set(out.stderr.split())


def test_cli_import_leaves_numpy_out():
    # and every engine module and click: a command imports what it runs
    assert modules_after("import sforge.cli") & (ENGINE | {"click", "numpy"}) == set()


def test_front_end_and_kernel_load_no_dataclasses_inspect_or_fractions():
    # their records are NamedTuples or slotted classes, only --help reads a
    # docstring, and only a fraction-valued parameter builds a Fraction
    loaded = modules_after("import sforge.cli, sforge.family, sforge.sunflowers")
    assert loaded & {"dataclasses", "inspect", "fractions"} == set()


def test_boolean_and_bounds_imports_leave_domains_spread_and_dataclasses_out():
    # bounds names Domain in annotations only and both take their log2
    # brackets from exact.py, so `boolean global` and `bounds eval` compile
    # neither domains.py nor spread.py, and load no dataclasses
    loaded = modules_after("import sforge.boolean, sforge.bounds")
    assert loaded & {"sforge.domains", "sforge.spread", "dataclasses", "inspect"} == set()


def test_domains_import_leaves_spread_out():
    # the link counts live in family.py, and only the homogeneous removal
    # checks spreadness, so `domains check` and `verify` never compile spread.py
    assert "sforge.spread" not in modules_after("import sforge.domains")


def test_bounds_import_leaves_hashlib_out():
    # only the Monte Carlo block seeds and the scenario step seeds hash
    assert "hashlib" not in modules_after("import sforge.bounds")


def test_group_help_imports_no_engine_module():
    code = "import sforge.cli\ntry:\n    sforge.cli.main(['spread', '--help'])\n"
    code += "except SystemExit:\n    pass"
    assert modules_after(code) & ENGINE == set()


def test_scenario_and_family_paths_may_be_path_objects(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": 1, "steps": [{"op": "family", "name": "F", "n": 3,
                                                          "sets": [[1, 2], [2, 3]]}]}))
    assert run_scenario(path) == run_scenario(str(path))
    assert run_scenario(path).exit_code == 0
    (tmp_path / "f.json").write_text(TRIPLES)
    assert load_family(tmp_path / "f.json") == load_family(TRIPLES)


def test_readme_scenario_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert report_of(invoke("run", path))["steps"][-1]["op"] == "mc"


def test_a_negative_shadow_depth_exits_1_with_one_json_line():
    b42 = '{"kind":"binomial","n":4,"k":2}'
    result = invoke("domains", "shadow-bound", PAIRS4, "--domain", b42, "--tau", 4, "--h", -1,
                    expect=1)
    assert result.stdout == ""
    assert error_of(result)["error"] == "PreconditionError"
    report = run_scenario({"schema": 1, "steps": [
        {"op": "family", "name": "F", **json.loads(PAIRS4)},
        {"op": "domain", "name": "A", "kind": "binomial", "n": 4, "k": 2},
        {"op": "shadow-bound", "family": "F", "domain": "A", "tau": 4, "h": -1},
    ]})
    assert report.exit_code == 1
    assert report.report["steps"][-1]["error"]["error"] == "PreconditionError"


def test_a_hopeless_transversal_search_exits_3():
    # a transversal of the edges of K_18 takes 17 points, found past the node cap
    k18 = json.dumps({"n": 18, "sets": [list(c) for c in combinations(range(1, 19), 2)]})
    result = invoke("family", "transversal", k18, expect=3)
    assert error_of(result)["error"] == "CapacityError"


def test_an_oversized_product_kernel_exits_3_at_once():
    # 4^12 members, about 16.7 million
    start = time.perf_counter()
    result = invoke("sunflower", "kernel", "--petals", 5, "--core-size", 12, expect=3)
    assert time.perf_counter() - start < 1
    assert error_of(result)["error"] == "CapacityError"


def test_a_large_product_kernel_builds_at_once():
    # 2^16 members, free by construction
    start = time.perf_counter()
    result = invoke("sunflower", "kernel", "--petals", 3, "--core-size", 16)
    assert time.perf_counter() - start < 10
    assert len(report_of(result)["sets"]) == 65_536


def test_an_oversized_phi_universe_exits_3_at_once():
    start = time.perf_counter()
    result = invoke("sunflower", "phi", "--petals", 2, "--core-size", 4, "--support", 64, expect=3)
    assert time.perf_counter() - start < 1
    assert error_of(result)["error"] == "CapacityError"


def test_a_cover_of_a_family_with_a_small_core_sunflower_is_refused():
    # direct mode (k = 3 <= w); the error is down_closed_cover's own, not simplify's
    matching = json.dumps({"n": 9, "sets": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
    domain = json.dumps({"kind": "binomial", "n": 9, "k": 3})
    result = invoke("pipeline", "cover", matching, "--domain", domain,
                    "--petals", 3, "--core-size", 1, "--w", 3, expect=1)
    assert result.stdout_bytes == b""
    assert result.stderr == (
        '{"details":{"witness":"{\'core\': [], \'sets\': [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}"},'
        '"error":"PreconditionError","message":"family carries an s-sunflower with a small core"}\n'
    )


# one member or face whose subsets alone pass a counting cap: 2^28 subsets
# against _ENUM_CAP, or C(30, 15) of size 15 against MEMBER_CAP
ONE_28 = json.dumps({"n": 28, "sets": [list(range(1, 29))]})
ONE_30 = json.dumps({"n": 30, "sets": [list(range(1, 31))]})
FACE_30 = {"kind": "complex_layer", "maximal_faces": [list(range(1, 31))], "n": 30}
ALL_28 = '{"kind":"binomial","n":28,"k":28}'
OVERSIZED = {
    "spread-check": ("spread", "check", ONE_28, "-R", 2),
    "spread-remove": ("spread", "remove", ONE_28, "-R", 2, "--exclude", "[1]"),
    "peel": ("pipeline", "peel", ONE_28, "--petals", 2, "--core-size", 1),
    "shadow": ("family", "shadow", ONE_30, "--depth", 15),
    "complex-layer": ("domains", "build", json.dumps({**FACE_30, "k": 15})),
    "rt-spread": ("domains", "check", '{"kind":"binomial","n":25,"k":24}', "-r", 2,
                  "--core-size", 1),
    # a subfamily of binomial(28, 28), counted only once the domain's table may be
    "homogeneous": ("domains", "homogeneous", ONE_28, "--domain", ALL_28, "--tau", 2),
    "shadow-bound": ("domains", "shadow-bound", ONE_28, "--domain", ALL_28, "--tau", 2,
                     "--h", 14),
    "cover": ("pipeline", "cover", ONE_28, "--domain", ALL_28, "--petals", 2, "--core-size", 1,
              "--w", 1),
    "prune": ("domains", "prune", ONE_28, "--domain", ALL_28, "--tau", 2, "--alpha", "1/200"),
}


def run_capped_child(args):
    """``sforge`` in a child process whose address space is capped at 1 GB,
    stopped after 10 s: (the finished process, its wall time)."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(sforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sforge.cli", *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=10, preexec_fn=cap)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_a_member_with_too_many_subsets_exits_3_at_once(case):
    proc, seconds = run_capped_child(OVERSIZED[case])
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert seconds < 2
    assert proc.stdout == ""
    assert error_of(proc)["error"] == "CapacityError"


@pytest.mark.parametrize("args, key", [
    (("spread", "check", json.dumps({"n": 16, "sets": [list(range(1, 17))]}), "-R", 1), "ok"),
    (("pipeline", "peel", json.dumps({"n": 12, "sets": [list(range(1, 13))]}),
      "--petals", 2, "--core-size", 1), "core_family"),
    (("family", "shadow", ONE_30, "--depth", 3), "sets"),
    (("domains", "build", json.dumps({**FACE_30, "k": 3})), "size"),
    (("domains", "check", '{"kind":"binomial","n":12,"k":11}', "-r", 2, "--core-size", 1),
     "ok"),
    (("domains", "prune", json.dumps({"n": 12, "sets": [list(range(1, 13))]}), "--domain",
      '{"kind":"binomial","n":12,"k":12}', "--tau", 2, "--alpha", "1/24", "--t", 2), "size"),
], ids=["spread-check", "peel", "shadow", "complex-layer", "rt-spread", "prune"])
def test_a_wide_member_inside_the_caps_gets_an_answer(args, key):
    assert key in report_of(invoke(*args))


FULL_STAR = json.dumps({"n": 6, "sets": [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6]]})


@pytest.mark.parametrize("extra", [(), ("--lam", "1/2")], ids=["reduce", "cluster"])
def test_a_chain_at_core_size_0_refuses_the_users_t(extra):
    # not the "core-size bound" of the t - 1 predicate built after the check
    result = invoke("pipeline", "cluster" if extra else "reduce", FULL_STAR,
                    "--domain", '{"kind":"binomial","n":6,"k":2}', "--tau", 2, "--q", 1,
                    "--petals", 3, "--core-size", 0, "--alpha", "1/8", *extra, expect=1)
    assert error_of(result) == {"details": {"s": "3", "t": "0"}, "error": "PreconditionError",
                                "message": "need s >= 2 and t >= 1"}


def test_a_family_step_given_a_domain_binds_its_members():
    result = run_scenario({"schema": 1, "steps": [
        {"op": "domain", "name": "A", "kind": "binomial", "n": 4, "k": 2},
        {"op": "family", "name": "F", "domain": "A"},
        {"op": "find", "family": "F", "petals": 3},
    ]})
    assert result.exit_code == 0
    assert result.report["steps"][1] == {
        "step": 1, "op": "family", "handle": "F",
        "report": {"size": 6, "ground": 4, "uniformity": 2}}
    assert result.report["steps"][2]["report"]["found"] is True


def test_an_asserted_find_that_finds_a_sunflower_stops_the_run():
    result = run_scenario({"schema": 1, "steps": [
        {"op": "family", "name": "F", "n": 6, "sets": [[1, 2], [3, 4], [5, 6]]},
        {"op": "find", "family": "F", "petals": 3, "assert": True},
        {"op": "find", "family": "F", "petals": 2},
    ]})
    assert result.exit_code == 1
    assert result.report["steps"][1:] == [{"step": 1, "op": "find", "error": {
        "error": "VerificationError", "message": "asserted check failed",
        "details": {"op": "'find'", "step": "1"}}}]


def test_a_double_dash_ends_the_options(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-f.json").write_text(TRIPLES)
    assert "no such option -f.json" in error_of(invoke("family", "info", "-f.json",
                                                       expect=2))["message"]
    rep = report_of(invoke("family", "info", "--", "-f.json"))
    assert rep == {"size": 3, "ground": 6, "support": 6, "uniformity": 3}
