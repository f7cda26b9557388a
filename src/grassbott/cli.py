"""Command-line front end.

Each subcommand is one row of ``_COMMANDS``: its help text, whether it
takes ``--grass``, its arguments and its handler.  :func:`build_parser`
builds the subparsers from the rows.  :func:`run` attaches the store,
builds the Grassmannian context once for a row that takes ``--grass``,
and calls ``handler(args, ctx)``.  A handler returns the JSON records,
printed one per line under ``--format json``, and the lines printed
under ``--format table``; ``check`` and ``crossval`` return their exit
code third.

Exit codes: 0 on success or a passing check, 1 when a check found
witnesses or a cross-validation found mismatches, 2 on usage or parse
errors, 141 when the reader of stdout went away (broken pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import bott, cache, koszul, schur, screens, theorems
from . import expr as ex
from .errors import DomainError, GrassbottError, ParseError, StructureError
from .weights import BlockWeight, GrassContext


def _parse_grass(text: str) -> GrassContext:
    try:
        k, n = (int(x) for x in text.split(","))
    except ValueError:
        raise StructureError(f"--grass expects k,n, got {text!r}") from None
    return GrassContext(k, n)


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise StructureError(f"expected a comma-separated integer list, got {text!r}") from None


def _decomposition(d):
    data = d.to_json()
    return [data], [f"{w}  x{m}" for w, m in data["weights"].items()]


def _rank(args, ctx):
    rank = schur.evaluate(ex.parse_expr(args.expr, ctx), ctx).rank()
    return [{"rank": str(rank)}], [f"rank: {rank}"]


def _dual(args, ctx):
    return _decomposition(schur.evaluate(ex.Dual(ex.parse_expr(args.expr, ctx)), ctx))


def _decompose(args, ctx):
    return _decomposition(schur.evaluate(ex.parse_expr(args.expr, ctx), ctx))


def _bott(args, ctx):
    profile = bott.cohomology(ex.parse_expr(args.expr, ctx), ctx)
    lines = [f"H^{p} = {d}" for p, d in sorted(profile.items())] or ["(zero)"]
    return [bott.profile_to_json(profile)], lines


def _koszul(args, ctx):
    table = koszul.build_table(ex.parse_expr(args.E, ctx), ex.parse_expr(args.F, ctx), ctx)
    verdict = koszul.analyze(table, koszul.TargetKind(args.target), args.degree)
    if not args.dump_table:
        return [verdict.to_json()], [f"verdict: {verdict.to_json()}"]
    lines = [f"cell q={q} p={p}: {d}" for q, p, d in table.nonzero_cells()]
    lines.append(f"verdict: {verdict.kind} {verdict.to_json()}")
    return [{"table": table.to_json(), "verdict": verdict.to_json()}], lines


def _euler(args, ctx):
    chi = koszul.euler_restriction(ex.parse_expr(args.E, ctx), ex.parse_expr(args.F, ctx), ctx)
    return [{"euler": str(chi)}], [f"chi: {chi}"]


def _hilbert(args, ctx):
    f = ex.parse_expr(args.F, ctx)
    try:
        lo, hi = (int(x) for x in args.range.split(".."))
    except ValueError:
        raise StructureError(f"--range expects LO..HI, got {args.range!r}") from None
    values = koszul.hilbert_series(f, ctx, lo, hi)
    return (
        [{"values": [{"r": r, "chi": str(c)} for r, c in values]}],
        [f"r={r}: chi={c}" for r, c in values],
    )


def _check(args, ctx):
    if args.theorem == "thm3":
        report = theorems.check_theorem3(ctx, ex.parse_expr_list(args.F, ctx))
    elif args.theorem == "thm1":
        report = theorems.check_theorem1(ctx, ex.parse_expr(args.F, ctx))
    else:
        report = theorems.check_theorem2(ctx, ex.parse_expr(args.F, ctx))
    lines = [
        f"theorem {report.theorem} on Gr({ctx.k},{ctx.n}), F = {report.f_text}",
        f"verdict: {report.verdict}",
        f"ambient projective dimension: {report.ambient_dim}",
    ]
    if report.projectively_normal is not None:
        lines.append(f"projectively normal: {report.projectively_normal}")
    if report.connected_h0 is not None:
        lines.append(f"h0(O_X): {report.connected_h0}")
    for w in report.witnesses:
        lines.append(f"witness [{w.group}] {w.place()}: dim {w.dim}")
    lines += [f"note: {note}" for note in report.notes]
    return [report.to_json()], lines, 1 if report.witnesses else 0


def _screen(args, ctx):
    weights: list[BlockWeight] = []
    for e in ex.parse_expr_list(args.F, ctx):
        d = schur.evaluate(e, ctx)
        for w, m in sorted(d.items(), key=lambda t: t[0].canonical()):
            weights.extend([w] * m)
    data = screens.screen(ctx, weights).to_json()
    return [data], [f"{key}: {value}" for key, value in sorted(data.items())]


def _enumerate(args, ctx):
    families = screens.enumerate_lemma54(args.k)
    return (
        [fam.to_json() for fam in families],
        [f"{fam.family}: beta={fam.beta} n in [{fam.n_min},{fam.n_max}]" for fam in families],
    )


def _crossval(args, ctx):
    report = theorems.cross_validate(ctx, _parse_int_list(args.beta))
    lines = [f"match: {m}" for m in report.matches]
    lines += [f"MISMATCH: {m}" for m in report.mismatches]
    lines.append(f"consistent: {report.consistent}")
    return [report.to_json()], lines, 0 if report.consistent else 1


_REQUIRED = dict(required=True)
_EXPR = (("expr", {}),)

# name: help, takes --grass, arguments as (flag, add_argument keywords),
# handler; every command also takes --format and --no-cache
_COMMANDS = {
    "rank": ("rank of a bundle expression", True, _EXPR, _rank),
    "dual": ("decomposition of the dual bundle", True, _EXPR, _dual),
    "decompose": ("irreducible decomposition", True, _EXPR, _decompose),
    "bott": ("cohomology profile", True, _EXPR, _bott),
    "koszul": ("spectral-sequence verdict for the zero locus", True, (
        ("--E", dict(required=True, help="coefficient bundle expression")),
        ("--F", dict(required=True, help="section bundle expression")),
        ("--target", dict(choices=("restriction", "ideal"), required=True)),
        ("--degree", dict(type=int, required=True)),
        ("--dump-table", dict(action="store_true", help="print the full table")),
    ), _koszul),
    "euler": ("Euler characteristic of E restricted to X", True, (
        ("--E", _REQUIRED), ("--F", _REQUIRED),
    ), _euler),
    "hilbert": ("chi(O_X(r)) over a twist range", True, (
        ("--F", _REQUIRED),
        ("--range", dict(required=True, metavar="LO..HI")),
    ), _hilbert),
    "check": ("run a theorem scan", True, (
        ("theorem", dict(choices=("thm1", "thm2", "thm3"))),
        ("--F", dict(required=True, help="expression (thm3: comma-separated list)")),
    ), _check),
    "screen": ("Fano / dimension / exclusion screens", True, (
        ("--F", dict(required=True, help="comma-separated summand expressions")),
    ), _screen),
    "enumerate": ("candidate enumeration", False, (
        ("--lemma54", dict(action="store_true", required=True)),
        ("--k", dict(type=int, required=True)),
    ), _enumerate),
    "crossval": ("cross-validate scans against witnesses", True, (
        ("--beta", dict(required=True, metavar="B1,B2,...")),
    ), _crossval),
}
_NAMES = tuple(_COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``command``'s
    alone: a process parses one command line, and building the other ten
    subparsers was half of the parser's cost."""
    parser = argparse.ArgumentParser(
        prog="grassbott",
        description="Exact cohomology of homogeneous bundles on Grassmannians",
    )
    # The top-level usage line, which an "unrecognized arguments" error
    # prints, names every command in either build.  The full build leaves
    # the metavar unset, because it also names the argument in the
    # "invalid choice" and "required" errors.
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, grass, arguments, _) in _COMMANDS.items():
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if grass:
            p.add_argument("--grass", metavar="K,N", help="Grassmannian context k,n")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output format"
        )
        p.add_argument("--no-cache", action="store_true", help="skip the persistent cache")
    return parser


def run(args) -> int:
    schur.set_store(None if args.no_cache else cache.Store())
    _, grass, _, handler = _COMMANDS[args.command]
    ctx = None
    if grass:
        if not args.grass:
            raise StructureError("this command needs --grass k,n")
        ctx = _parse_grass(args.grass)
    records, lines, *code = handler(args, ctx)
    if args.format == "json":
        lines = [json.dumps(record, sort_keys=True) for record in records]
    for line in lines:
        print(line)
    return code[0] if code else 0


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _NAMES else None
    with warnings.catch_warnings():
        # library warnings reach the user as one line, without the
        # Python source location
        warnings.showwarning = _print_warning
        try:
            try:
                return run(build_parser(command).parse_args(argv))
            finally:
                # a reader that went away shows here, not at exit; this
                # also flushes the text of --help, before argparse's
                # SystemExit leaves main.  stdout is None when the
                # process started with it closed.
                if sys.stdout is not None:
                    sys.stdout.flush()
        except BrokenPipeError:
            # Stop as quietly as a process killed by SIGPIPE, with its exit
            # status; stdout goes to devnull so the flush at exit cannot
            # raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        except (ParseError, StructureError, DomainError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except GrassbottError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
