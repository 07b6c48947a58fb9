"""Random command lines for every CLI command, built from the parameter
kinds of its operation, and random one-step scenarios for ``sforge run``.

Whatever the words, a command exits with 0, 1, 2 or 3, lets no exception
out of ``main`` and writes at most one line to stderr, a JSON error.
Values are sometimes malformed on purpose (a bad fraction, a repeated
element, an unknown choice), so every exit code is reached.  Inputs stay
small: families on at most 5 elements with at most 6 members, domains on at
most 5 bits, counts up to 6.  Bound rows at s = 4, t = 2 run an exact
kernel search of about a minute, so neither ``bounds eval`` nor ``verify``
is given that pair.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sforge.bounds import bound_names
from sforge.domains import domain_from_json_obj
from sforge.errors import SforgeError
from sforge.scenario import OPERATIONS, REQUIRED
from support import run_cli

COMMANDS = {e.cmd: e for e in OPERATIONS if e.cmd}
STEPS = [e for e in OPERATIONS if e.op]
FRACTIONS = ["0", "1", "2", "3", "1/2", "3/2", "1/4", "1/8", "1/64", "-1", "x", "1/0"]
SMALL = st.integers(-1, 6)
DOMAINS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("binomial"), "n": st.integers(1, 5),
                           "k": st.integers(0, 5)}),
    st.fixed_dictionaries({"kind": st.just("sequences"), "n": st.integers(1, 2),
                           "k": st.integers(1, 2)}),
    st.fixed_dictionaries({"kind": st.just("kpartite_product"), "n": st.integers(1, 2),
                           "parts": st.lists(st.integers(0, 2), max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("permutations"), "n": st.integers(1, 2)}),
    st.fixed_dictionaries({"kind": st.just("complex_layer"),
                           "maximal_faces": st.lists(st.lists(st.integers(1, 5), max_size=3),
                                                     max_size=3),
                           "k": st.integers(0, 3)}),
)


def _sets(mask_list, n):
    return [[i + 1 for i in range(n) if m >> i & 1] for m in mask_list]


@st.composite
def families(draw, domain=None):
    """A family as inline JSON; with a domain, half the time one of its
    subfamilies, so the commands that need one get past their checks."""
    if domain is not None and draw(st.booleans()):
        try:
            A = domain_from_json_obj(domain).family
        except SforgeError:
            A = None
        if A is not None and A.members:
            sets = draw(st.lists(st.sampled_from(A.as_sets()), max_size=6))
            return json.dumps({"n": A.ground.n, "sets": sets})
    n = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return json.dumps({"n": n, "sets": _sets(masks, n)})


def _away_from_4_2(d: dict) -> dict:
    return {**d, "t": 1} if (d.get("s"), d.get("t")) == (4, 2) else d


# n, k, s, t of a bound row, each left out at times
BOUND_PARAMS = st.fixed_dictionaries(
    {}, optional={"n": SMALL, "k": SMALL, "s": SMALL, "t": st.integers(-1, 3)}
).map(_away_from_4_2)


def text_value(draw, p, domain):
    """One command-line word for parameter ``p``."""
    kind = p.kind
    if kind == "int":
        return str(draw(SMALL))
    if kind == "frac":
        return draw(st.sampled_from(FRACTIONS))
    if isinstance(kind, dict):
        return draw(st.sampled_from([*kind, "nope"]))
    if kind == "str":
        return draw(st.sampled_from([*bound_names(), "no-such-bound"]))
    if kind == "object":
        return draw(BOUND_PARAMS.map(json.dumps) | st.just("{"))
    if kind == "elements":
        return json.dumps(draw(st.lists(st.integers(0, 6), max_size=3)))
    if kind == "family:SetFamily":
        return draw(families(domain))
    if kind == "domains:Domain":
        return json.dumps(domain)
    raise AssertionError(f"no strategy for kind {kind!r}")


@st.composite
def command_lines(draw, cmd):
    """``cmd``'s words and, for each of its parameters, a spelling and a
    value; a parameter with a default is given only at times."""
    params = COMMANDS[cmd].params
    domain = draw(DOMAINS)
    positional, options = [], []
    for p in params:
        spelled = ("--" + p.key if p.cli is None else p.cli).split()
        if not spelled or p.default is not REQUIRED and not draw(st.booleans()):
            continue
        if spelled[0][0] != "-":
            positional.append(text_value(draw, p, domain))
        elif p.kind == "flag":
            options.append(spelled[0])
        else:
            options += [draw(st.sampled_from(spelled)), text_value(draw, p, domain)]
    words = [*cmd.split(), *positional, *options]
    if "--petals" in words and "--core-size" in words:
        t_at = words.index("--core-size") + 1
        if (words[words.index("--petals") + 1], words[t_at]) == ("4", "2"):
            words[t_at] = "1"
    front = draw(st.sampled_from([[], ["--seed", "3"], ["--format", "csv"]]))
    return front + words


def step_value(draw, p):
    """One scenario value for parameter ``p``, as JSON gives it."""
    kind = p.kind
    if kind == "int":
        return draw(SMALL)
    if kind == "frac":
        return draw(st.sampled_from([0, 1, 2, "1/2", "3/2", "1/4", "x", 0.5]))
    if kind == "flag":
        return draw(st.booleans())
    if isinstance(kind, dict):
        return draw(st.sampled_from([*kind, "nope"]))
    if kind == "str":
        return draw(st.sampled_from([*bound_names(), "no-such-bound"]))
    if kind == "object":
        return draw(BOUND_PARAMS)
    if kind == "elements":
        return draw(st.lists(st.integers(0, 6), max_size=3))
    if kind == "raw":
        return draw(st.one_of(st.integers(1, 5), st.lists(st.lists(st.integers(1, 5),
                                                                   max_size=3), max_size=6)))
    return draw(st.sampled_from(["F", "@F", 7]))  # a handle no earlier step bound


@st.composite
def scenarios(draw):
    entry = draw(st.sampled_from(STEPS))
    step = {"op": entry.op}
    for p in entry.params:
        if p.kind == "seed" or p.default is not REQUIRED and not draw(st.booleans()):
            continue
        if p.kind == "spec":
            step.update(draw(DOMAINS))
        else:
            step[p.key] = step_value(draw, p)
    if draw(st.booleans()):
        step["name"] = "G"
    if draw(st.booleans()):
        step["assert"] = True
    if (step.get("petals"), step.get("core-size")) == (4, 2):
        step["core-size"] = 1
    return {"schema": 1, "seed": draw(st.integers(0, 9)), "steps": [step]}


def check(args):
    res = run_cli(args)
    assert res.exit_code in (0, 1, 2, 3), (args, res.exit_code)
    assert res.stderr.count("\n") <= 1, (args, res.stderr)
    if res.stderr:
        assert res.stderr.endswith("\n") and "error" in json.loads(res.stderr), args
    else:
        assert res.stdout, args


FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_a_random_command_line_exits_cleanly(cmd):
    @FUZZ
    @given(command_lines(cmd))
    def run(args):
        check(args)

    run()


@FUZZ
@given(scenarios())
def test_a_random_one_step_scenario_exits_cleanly(scenario):
    check(["run", json.dumps(scenario)])


# the layer of the empty set: a domain of uniformity 0
LAYER0 = json.dumps({"kind": "complex_layer", "maximal_faces": [[1]], "k": 0})


@pytest.mark.parametrize("args, code", [
    (["sunflower", "find", '{"n":2,"sets":[[1],[2]]}', "--petals", "2", "--degenerate-small"], 1),
    (["sunflower", "max-free", '{"n":1,"sets":[[1],[]]}', "--petals", "3", "--degenerate-small"], 1),
    (["domains", "prune", '{"n":1,"sets":[[]]}', "--domain", LAYER0, "--tau", "1",
      "--alpha", "1/2", "--t", "1"], 0),
    (["pipeline", "reduce", '{"n":1,"sets":[[]]}', "--domain", LAYER0, "--tau", "1", "--q", "0",
      "--petals", "2", "--core-size", "1", "--alpha", "1"], 1),
    (["domains", "assumptions", LAYER0, "--q", "0", "--eta", "1", "--mu", "1", "--ratio", "1"], 0),
], ids=["find-degenerate-any", "max-free-degenerate-any", "prune-uniformity-0",
        "reduce-uniformity-0", "assumptions-uniformity-0"])
def test_the_inputs_that_raised_exit_cleanly(args, code):
    # the degenerate small-set reading without an AT_MOST bound compared sizes
    # with None; a domain of uniformity 0 made the alpha gates build 1/(2k)
    # and 1/(4k), and the shadow-ratio floor divide by mu k
    assert run_cli(args).exit_code == code
    check(args)


def test_the_core_size_0_chain_the_fuzz_found_refuses_the_users_t():
    # it named the "core-size bound" of the t - 1 predicate built before any check
    args = ["pipeline", "cluster", '{"n":1,"sets":[[1]]}', "--domain",
            '{"kind":"binomial","n":1,"k":1}', "--tau", "1", "--q", "0", "--petals", "2",
            "--core-size", "0", "--alpha", "1/4", "--lam", "1"]
    res = run_cli(args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["message"] == "need s >= 2 and t >= 1"
    check(args)
