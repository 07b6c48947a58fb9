"""End-to-end tests of the command line front end.

Everything runs through click's CliRunner; byte-level determinism checks
write reports to files with --out and compare on disk.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

import sforge
from sforge.cli import main
from sforge.family import family_from_hex
from sforge.scenario import canonical_report_bytes, run_scenario


runner = CliRunner()


def invoke(*args, env=None, expect=0):
    result = runner.invoke(main, [str(a) for a in args], env=env)
    if expect is not None:
        assert result.exit_code == expect, result.output + str(result.exception)
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
        result = runner.invoke(main, ["family", "info", "-"], input=STAR)
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

    def test_mc_bytes_repeatable(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"mc{i}.json"
            invoke(
                "--seed", 11, "--out", out,
                "spread", "mc", BLOCKS, "-R", 2, "--m", 4, "--delta", "1/8", "--trials", 4096,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mc_bytes_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--seed", 11, "spread", "mc", BLOCKS, "-R", 2, "--m", 4, "--delta", "1/8", "--trials", 2048]
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


B52 = '{"kind":"binomial","n":5,"k":2}'
PAIRS4 = json.dumps({"n": 4, "sets": [list(c) for c in combinations(range(1, 5), 2)]})

# (command line, scenario step, family bound as "family", domain bound as "domain")
PARITY = [
    (["sunflower", "find", PLANTED, "--petals", 3], {"op": "find", "petals": 3}, PLANTED, None),
    (["sunflower", "max-free", PAIRS4, "--petals", 3, "--mode", "at-most", "--core-bound", 1],
     {"op": "max-free", "petals": 3, "mode": "at-most", "core-bound": 1}, PAIRS4, None),
    (["sunflower", "phi", "--petals", 4, "--core-size", 1, "--support", 8],
     {"op": "phi", "petals": 4, "core-size": 1, "support": 8}, None, None),
    (["spread", "check", STAR, "-R", 3], {"op": "spread-check", "R": 3}, STAR, None),
    (["domains", "check", '{"kind":"permutations","n":4}', "-r", 1, "--core-size", 1],
     {"op": "rt-spread", "r": 1, "core-size": 1}, None, '{"kind":"permutations","n":4}'),
    (["domains", "homogeneous", TRIPLES, "--domain", '{"kind":"binomial","n":6,"k":3}', "--tau", 6],
     {"op": "homogeneous", "tau": 6}, TRIPLES, '{"kind":"binomial","n":6,"k":3}'),
    (["boolean", "measure", STAR, "--p", "1/4"], {"op": "measure", "p": "1/4"}, STAR, None),
    (["boolean", "global", STAR, "--p", "1/4", "--tau", 4],
     {"op": "global", "p": "1/4", "tau": 4}, STAR, None),
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


def test_cli_import_leaves_numpy_out():
    src = str(Path(sforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, sforge.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_readme_scenario_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert report_of(invoke("run", path))["steps"][-1]["op"] == "mc"
