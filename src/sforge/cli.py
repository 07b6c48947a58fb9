"""Command line front end, generated from the operation table.

Every command but ``run`` is an entry of ``sforge.scenario.OPERATIONS``
whose ``cmd`` names it: its options, arguments and help come from the
entry, it imports only the module the entry names, and it computes the same
report as the matching scenario step.  Families and domains are passed as a
file path, inline JSON, or ``-`` for stdin.  All reports are canonical
JSON: sorted keys, no whitespace, one trailing newline.  ``verify`` can
render a CSV table instead.

Global flags sit in front of the subcommand: ``sforge --seed 5 spread mc``.
An option is spelled in full, as ``--key value`` or ``--key=value``; its
value is the next word even when that starts with a dash.  Exit codes: 0
clean, 1 failed verification or violated contract, 2 unparseable input or
a usage error, 3 over the supported problem size.  Every failure writes one
canonical JSON error line to stderr.
"""

from __future__ import annotations

import sys

from .errors import ParseError, SforgeError
from .family import load_family, read_source
from .scenario import (
    OPERATIONS,
    REQUIRED,
    Op,
    Param,
    canonical_report_bytes,
    coerce,
    resolve,
    run_scenario,
)

_ABOUT = {
    "sforge": "Exact tooling for sunflower-free set families.",
    "family": "Core set-family operations.",
    "sunflower": "Find witnesses and search for extremal sizes.",
    "spread": "Spreadness checks and the random-cover estimate.",
    "domains": "Structured ambient domains.",
    "boolean": "Biased-measure analysis of the indicator function.",
    "pipeline": "Decomposition and peeling pipelines.",
    "bounds": "Closed-form upper-bound formulas.",
}
_GLOBALS = (Param("seed", "int", 0), Param("format", {"json": "json", "csv": "csv"}, "json"),
            Param("out", "str", None))
_METAVARS = {"int": "INTEGER", "frac": "FRACTION", "str": "TEXT", "object": "JSON",
             "elements": "JSON"}

_RUN = Op(None, "run", (Param("path", "str", cli="PATH"),), run_scenario,
          report=lambda result: result.canonical_bytes().decode())
_TREE: dict = {"run": _RUN}  # command word -> entry, or a group's dict of them
for _entry in OPERATIONS:
    if _entry.cmd:
        *_group, _name = _entry.cmd.split()
        (_TREE.setdefault(_group[0], {}) if _group else _TREE)[_name] = _entry


class _Help(Exception):
    """``--help`` was given where an option could be."""


def _spellings(p: Param) -> list[str]:
    """Dashed option names, one positional metavar, or none (off the CLI)."""
    return ("--" + p.key if p.cli is None else p.cli).split()


def _parse(params, args: list[str], cmd: str, seed=None, nested=False) -> tuple[list, list]:
    """The value of each of ``params``, given in ``args`` or its default,
    and the words left over.  A nested parse stops at the first word, which
    names a subcommand, and leaves the rest of ``args`` to it."""
    names = [_spellings(p) for p in params]
    options = {s: i for i, spelled in enumerate(names) for s in spelled if s[0] == "-"}
    slots = [i for i, spelled in enumerate(names) if spelled and spelled[0][0] != "-"]
    raw, words = {}, []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            words.extend(rest)
        elif arg[:1] != "-" or arg == "-":
            words.append(arg)
            if nested:
                words.extend(rest)
        elif arg == "--help":
            raise _Help
        else:
            name, eq, value = arg.partition("=")
            if name not in options:
                raise ParseError(f"no such option {name}", command=cmd)
            if params[options[name]].kind == "flag":
                if eq:
                    raise ParseError(f"option {name} takes no value", command=cmd)
                value = True
            elif not eq and (value := next(rest, None)) is None:
                raise ParseError(f"option {name} needs a value", command=cmd)
            raw[options[name]] = value
    if not nested and len(words) > len(slots):
        raise ParseError(f"unexpected extra argument {words[len(slots)]!r}", command=cmd)
    raw.update(zip(slots, words))
    values = []
    for i, p in enumerate(params):
        value, label = raw.get(i), "option " + " ".join(names[i][-1:])
        if p.kind == "seed":
            values.append(seed)
        elif value is None and p.default is REQUIRED:
            what = "argument" if i in slots else "option"
            raise ParseError(f"missing {what} {names[i][-1]}", command=cmd)
        elif value is None:
            values.append(None if p.default is None else coerce(p.kind, p.default, label))
        elif p.kind == "family:SetFamily":
            values.append(load_family(value))
        elif p.kind == "domains:Domain":
            spec = coerce("object", read_source(value, "domain"), "domain", text=True)
            values.append(resolve("domains:domain_from_json_obj")(spec))
        else:
            values.append(coerce(p.kind, value, label, text=True))
    return values, words[len(slots):]


def _help(cmd: str, node) -> str:
    """Usage, description, options and commands of one level, from the table."""
    import inspect  # here: only --help reads a docstring

    group = isinstance(node, dict)
    params = (_GLOBALS if cmd == "sforge" else ()) if group else node.params
    about = _ABOUT[cmd.split()[-1]] if group else inspect.getdoc(resolve(node.run)) or ""
    usage = ["COMMAND ..."] if group else [p.cli for p in params if p.cli and p.cli[0] != "-"]
    rows = [("--help", "")]
    for p in params:
        spelled = [s for s in _spellings(p) if s[0] == "-"]
        if not spelled:
            continue
        kind = "|".join(p.kind) if isinstance(p.kind, dict) else _METAVARS.get(p.kind, "TEXT")
        note = "required" if p.default is REQUIRED else (
            "" if p.default is None or p.default is False else f"default: {p.default}")
        rows.append((", ".join(spelled) + ("" if p.kind == "flag" else " " + kind), note))
    lines = [" ".join(["usage:", cmd, "[options]", *usage]), "", about, "", "options:"]
    lines += [f"  {left:<28}{right}" for left, right in rows]
    if group:
        lines.append("commands:")
        lines += [f"  {name:<28}" + (_ABOUT[name] if isinstance(node[name], dict) else "")
                  for name in sorted(node)]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _dispatch(args: list[str]) -> tuple[bytes, int, str | None]:
    """The bytes a command line writes, its exit code and its ``--out``."""
    cmd, node = "sforge", _TREE
    try:
        (seed, fmt, out), words = _parse(_GLOBALS, args, cmd, nested=True)
        while isinstance(node, dict):
            if not words or words[0] not in node:
                raise ParseError(f"no such command {words[0]!r}" if words else "missing command",
                                 command=cmd)
            cmd, node = f"{cmd} {words[0]}", node[words[0]]
            values, words = _parse(getattr(node, "params", ()), words[1:], cmd, seed,
                                   nested=isinstance(node, dict))
    except _Help:
        return _help(cmd, node).encode(), 0, None
    result = resolve(node.run)(*values)
    report = node.report(result)
    if isinstance(report, str):  # hex text, or a scenario run's report
        return report.encode(), getattr(result, "exit_code", 0), out
    if fmt == "csv" and node.csv is None:
        raise ParseError("csv output is only available for the verify command")
    data = node.csv(report).encode() if fmt == "csv" else canonical_report_bytes(report)
    return data, 1 if report.get("violations") else 0, out


def main(argv: list[str] | None = None) -> None:
    """Run one command line (``sys.argv[1:]`` by default) and exit with its
    code; a failure is written as one JSON line to stderr."""
    try:
        data, code, out = _dispatch(sys.argv[1:] if argv is None else list(argv))
        if out is None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            try:
                with open(out, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                raise ParseError(f"cannot write report: {exc}")
    except SforgeError as exc:
        sys.stderr.write(canonical_report_bytes(exc.as_report()).decode())
        code = exc.exit_code
    sys.exit(code)


if __name__ == "__main__":
    main()
