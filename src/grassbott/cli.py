"""Command-line front end.

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


_REQUIRED = dict(required=True)
_EXPR = (("expr", {}),)

# name, help, takes --grass, arguments as (flag, add_argument keywords);
# every command also takes --format and --no-cache
_COMMANDS = (
    ("rank", "rank of a bundle expression", True, _EXPR),
    ("dual", "decomposition of the dual bundle", True, _EXPR),
    ("decompose", "irreducible decomposition", True, _EXPR),
    ("bott", "cohomology profile", True, _EXPR),
    ("koszul", "spectral-sequence verdict for the zero locus", True, (
        ("--E", dict(required=True, help="coefficient bundle expression")),
        ("--F", dict(required=True, help="section bundle expression")),
        ("--target", dict(choices=("restriction", "ideal"), required=True)),
        ("--degree", dict(type=int, required=True)),
        ("--dump-table", dict(action="store_true", help="print the full table")),
    )),
    ("euler", "Euler characteristic of E restricted to X", True, (
        ("--E", _REQUIRED), ("--F", _REQUIRED),
    )),
    ("hilbert", "chi(O_X(r)) over a twist range", True, (
        ("--F", _REQUIRED),
        ("--range", dict(required=True, metavar="LO..HI")),
    )),
    ("check", "run a theorem scan", True, (
        ("theorem", dict(choices=("thm1", "thm2", "thm3"))),
        ("--F", dict(required=True, help="expression (thm3: comma-separated list)")),
    )),
    ("screen", "Fano / dimension / exclusion screens", True, (
        ("--F", dict(required=True, help="comma-separated summand expressions")),
    )),
    ("enumerate", "candidate enumeration", False, (
        ("--lemma54", dict(action="store_true", required=True)),
        ("--k", dict(type=int, required=True)),
    )),
    ("crossval", "cross-validate scans against witnesses", True, (
        ("--beta", dict(required=True, metavar="B1,B2,...")),
    )),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


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
    for name, help_text, grass, arguments in _COMMANDS:
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


def _need_grass(args) -> GrassContext:
    if not getattr(args, "grass", None):
        raise StructureError("this command needs --grass k,n")
    return _parse_grass(args.grass)


def _emit(args, data, table_lines) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _decomposition_lines(d) -> list:
    return [f"{w.canonical()}  x{m}" for w, m in sorted(d.items(), key=lambda t: t[0].canonical())]


def _profile_lines(profile) -> list:
    if not profile:
        return ["(zero)"]
    return [f"H^{p} = {d}" for p, d in sorted(profile.items())]


def _report_lines(report) -> list:
    lines = [
        f"theorem {report.theorem} on Gr({report.ctx.k},{report.ctx.n}), F = {report.f_text}",
        f"verdict: {report.verdict}",
        f"ambient projective dimension: {report.ambient_dim}",
    ]
    if report.projectively_normal is not None:
        lines.append(f"projectively normal: {report.projectively_normal}")
    if report.connected_h0 is not None:
        lines.append(f"h0(O_X): {report.connected_h0}")
    for w in report.witnesses:
        where = f"p={w.p}" + (f", r={w.r}" if w.r is not None else "")
        lines.append(f"witness [{w.group}] {where}: dim {w.dim}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines


def run(args) -> int:
    if not args.no_cache:
        schur.set_store(cache.Store())
    else:
        schur.set_store(None)

    if args.command == "rank":
        ctx = _need_grass(args)
        d = schur.evaluate(ex.parse_expr(args.expr, ctx), ctx)
        _emit(args, {"rank": str(d.rank())}, [f"rank: {d.rank()}"])
        return 0

    if args.command == "dual":
        ctx = _need_grass(args)
        d = schur.evaluate(ex.Dual(ex.parse_expr(args.expr, ctx)), ctx)
        _emit(args, d.to_json(), _decomposition_lines(d))
        return 0

    if args.command == "decompose":
        ctx = _need_grass(args)
        d = schur.evaluate(ex.parse_expr(args.expr, ctx), ctx)
        _emit(args, d.to_json(), _decomposition_lines(d))
        return 0

    if args.command == "bott":
        ctx = _need_grass(args)
        profile = bott.cohomology(ex.parse_expr(args.expr, ctx), ctx)
        _emit(args, bott.profile_to_json(profile), _profile_lines(profile))
        return 0

    if args.command == "koszul":
        ctx = _need_grass(args)
        e = ex.parse_expr(args.E, ctx)
        f = ex.parse_expr(args.F, ctx)
        table = koszul.build_table(e, f, ctx)
        kind = (
            koszul.TargetKind.RESTRICTION
            if args.target == "restriction"
            else koszul.TargetKind.IDEAL
        )
        verdict = koszul.analyze(table, kind, args.degree)
        if args.dump_table:
            data = {"table": table.to_json(), "verdict": verdict.to_json()}
            lines = [f"cell q={q} p={p}: {d}" for q, p, d in table.nonzero_cells()]
            lines.append(f"verdict: {verdict.kind} {verdict.to_json()}")
            _emit(args, data, lines)
        else:
            _emit(args, verdict.to_json(), [f"verdict: {verdict.to_json()}"])
        return 0

    if args.command == "euler":
        ctx = _need_grass(args)
        e = ex.parse_expr(args.E, ctx)
        f = ex.parse_expr(args.F, ctx)
        chi = koszul.euler_restriction(e, f, ctx)
        _emit(args, {"euler": str(chi)}, [f"chi: {chi}"])
        return 0

    if args.command == "hilbert":
        ctx = _need_grass(args)
        f = ex.parse_expr(args.F, ctx)
        try:
            lo, hi = (int(x) for x in args.range.split(".."))
        except ValueError:
            raise StructureError(f"--range expects LO..HI, got {args.range!r}") from None
        values = koszul.hilbert_series(f, ctx, lo, hi)
        _emit(
            args,
            {"values": [{"r": r, "chi": str(c)} for r, c in values]},
            [f"r={r}: chi={c}" for r, c in values],
        )
        return 0

    if args.command == "check":
        ctx = _need_grass(args)
        if args.theorem == "thm3":
            exprs = [ex.parse_expr(t, ctx) for t in ex.split_expr_list(args.F)]
            report = theorems.check_theorem3(ctx, exprs)
        else:
            f = ex.parse_expr(args.F, ctx)
            if args.theorem == "thm1":
                report = theorems.check_theorem1(ctx, f)
            else:
                report = theorems.check_theorem2(ctx, f)
        _emit(args, report.to_json(), _report_lines(report))
        return 1 if report.witnesses else 0

    if args.command == "screen":
        ctx = _need_grass(args)
        weights: list[BlockWeight] = []
        for text in ex.split_expr_list(args.F):
            d = schur.evaluate(ex.parse_expr(text, ctx), ctx)
            for w, m in sorted(d.items(), key=lambda t: t[0].canonical()):
                weights.extend([w] * m)
        report = screens.screen(ctx, weights)
        data = report.to_json()
        _emit(args, data, [f"{key}: {value}" for key, value in sorted(data.items())])
        return 0

    if args.command == "enumerate":
        families = screens.enumerate_lemma54(args.k)
        if args.format == "json":
            for fam in families:
                print(json.dumps(fam.to_json(), sort_keys=True))
        else:
            for fam in families:
                print(
                    f"{fam.family}: beta={fam.beta} n in [{fam.n_min},{fam.n_max}]"
                )
        return 0

    if args.command == "crossval":
        ctx = _need_grass(args)
        beta = _parse_int_list(args.beta)
        report = theorems.cross_validate(ctx, beta)
        lines = [f"match: {m}" for m in report.matches]
        lines += [f"MISMATCH: {m}" for m in report.mismatches]
        lines.append(f"consistent: {report.consistent}")
        _emit(args, report.to_json(), lines)
        return 0 if report.consistent else 1

    raise StructureError(f"unknown command {args.command!r}")


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _NAMES else None
    args = build_parser(command).parse_args(argv)
    with warnings.catch_warnings():
        # library warnings reach the user as one line, without the
        # Python source location
        warnings.showwarning = _print_warning
        try:
            code = run(args)
            sys.stdout.flush()  # a reader that went away shows here, not at exit
            return code
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
