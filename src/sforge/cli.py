"""Command line front end, generated from the operation table.

Every command but ``run`` is an entry of ``sforge.scenario.OPERATIONS``
whose ``cmd`` names it: its options and arguments come from the entry's
parameters, and a command computes the same report as the matching scenario
step.  Families are passed as file paths (JSON or hex mask format, sniffed
by content), inline JSON strings, or ``-`` for stdin.  Domains are passed as
inline JSON or a path to a JSON file.  All reports are canonical JSON:
sorted keys, no whitespace, one trailing newline, so byte comparison of two
runs is meaningful.  ``verify`` can render a CSV table instead.

Global flags sit in front of the subcommand: ``sforge --seed 5 spread mc``.
Process exit codes: 0 clean, 1 failed verification or violated contract,
2 unparseable input, 3 over the supported problem size.  Every failure
writes one canonical JSON error line to stderr.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .domains import Domain, domain_from_json_obj
from .errors import ParseError, SforgeError
from .family import SetFamily, load_family
from .scenario import (
    OPERATIONS,
    REQUIRED,
    Op,
    Param,
    canonical_report_bytes,
    coerce,
    run_scenario,
)

_GROUPS = {
    "family": "Core set-family operations.",
    "sunflower": "Find witnesses and search for extremal sizes.",
    "spread": "Spreadness checks and the random-cover estimate.",
    "domains": "Structured ambient domains.",
    "boolean": "Biased-measure analysis of the indicator function.",
    "pipeline": "Decomposition and peeling pipelines.",
    "bounds": "Closed-form upper-bound formulas.",
}


def _load_domain(src: str) -> Domain:
    if src.lstrip().startswith("{"):
        text = src
    else:
        try:
            with open(src, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read domain: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"domain is not valid JSON: {exc}")
    return domain_from_json_obj(obj)


def _write(ctx: click.Context, data: bytes) -> None:
    out = ctx.obj.get("out")
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        click.echo(data.decode(), nl=False)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SforgeError as exc:
            line = json.dumps(exc.as_report(), sort_keys=True, separators=(",", ":"))
            click.echo(line, err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
@click.option("--seed", default="0", show_default=True, help="Seed for randomized work.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@click.pass_context
@_guarded
def main(ctx, seed, fmt, out):
    """Exact tooling for sunflower-free set families."""
    ctx.obj = {"seed": coerce("int", seed, "option --seed", text=True), "format": fmt, "out": out}


_METAVARS = {"int": "INTEGER", "frac": "FRACTION", "str": "TEXT", "object": "JSON"}


def _option(p: Param, decls: list[str], name: str) -> click.Option:
    if p.kind == "flag":
        return click.Option([*decls, name], is_flag=True)
    shown = None if p.default in (REQUIRED, None) else f"[default: {p.default}]"
    metavar = "[" + "|".join(p.kind) + "]" if isinstance(p.kind, dict) else _METAVARS.get(p.kind)
    return click.Option([*decls, name], required=p.default is REQUIRED, metavar=metavar, help=shown)


def _value(p: Param, raw, spelling: str, ctx: click.Context):
    if p.kind == "seed":
        return ctx.obj["seed"]
    label = f"option {spelling}"
    if raw is None:
        return None if p.default is None else coerce(p.kind, p.default, label)
    if p.kind is SetFamily:
        return load_family(raw)
    if p.kind is Domain:
        return _load_domain(raw)
    return coerce(p.kind, raw, label, text=True)


def _command(name: str, entry: Op) -> click.Command:
    params, spellings = [], []
    for i, p in enumerate(entry.params):
        decls = ("--" + p.key if p.cli is None else p.cli).split()
        spellings.append(decls[-1] if decls else "")
        if not decls:
            continue
        if not decls[0].startswith("-"):
            params.append(click.Argument([f"p{i}"], metavar=decls[0]))
        else:
            params.append(_option(p, decls, f"p{i}"))

    @_guarded
    def callback(**given):
        ctx = click.get_current_context()
        args = [_value(p, given.get(f"p{i}"), spellings[i], ctx)
                for i, p in enumerate(entry.params)]
        result = entry.run(*args)
        report = entry.report(result) if entry.report else result
        if isinstance(report, str):
            return _write(ctx, report.encode())
        if ctx.obj["format"] == "csv":
            if entry.csv is None:
                raise ParseError("csv output is only available for the verify command")
            data = entry.csv(report).encode()
        else:
            data = canonical_report_bytes(report)
        _write(ctx, data)
        if report.get("violations"):
            sys.exit(1)

    return click.Command(name, params=params, callback=callback, help=entry.run.__doc__)


for _group, _help in _GROUPS.items():
    main.add_command(click.Group(_group, help=_help))
for _entry in OPERATIONS:
    if _entry.cmd:
        *_parent, _name = _entry.cmd.split()
        (main.commands[_parent[0]] if _parent else main).add_command(_command(_name, _entry))


@main.command("run")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guarded
def run_cmd(ctx, path):
    """Execute a scenario file and emit its canonical report."""
    result = run_scenario(path)
    _write(ctx, result.canonical_bytes())
    if result.exit_code:
        sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
