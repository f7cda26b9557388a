"""Command-line front end.

Exit codes: 0 on success or a passing check, 1 when a check found
witnesses or a cross-validation found mismatches, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
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


def _common_flags(parser: argparse.ArgumentParser, grass: bool = True) -> None:
    if grass:
        parser.add_argument("--grass", metavar="K,N", help="Grassmannian context k,n")
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="skip the persistent cache"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassbott",
        description="Exact cohomology of homogeneous bundles on Grassmannians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of a bundle expression")
    p.add_argument("expr")
    _common_flags(p)

    p = sub.add_parser("dual", help="decomposition of the dual bundle")
    p.add_argument("expr")
    _common_flags(p)

    p = sub.add_parser("decompose", help="irreducible decomposition")
    p.add_argument("expr")
    _common_flags(p)

    p = sub.add_parser("bott", help="cohomology profile")
    p.add_argument("expr")
    _common_flags(p)

    p = sub.add_parser("koszul", help="spectral-sequence verdict for the zero locus")
    p.add_argument("--E", required=True, help="coefficient bundle expression")
    p.add_argument("--F", required=True, help="section bundle expression")
    p.add_argument("--target", choices=("restriction", "ideal"), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--dump-table", action="store_true", help="print the full table")
    _common_flags(p)

    p = sub.add_parser("euler", help="Euler characteristic of E restricted to X")
    p.add_argument("--E", required=True)
    p.add_argument("--F", required=True)
    _common_flags(p)

    p = sub.add_parser("hilbert", help="chi(O_X(r)) over a twist range")
    p.add_argument("--F", required=True)
    p.add_argument("--range", required=True, metavar="LO..HI")
    _common_flags(p)

    p = sub.add_parser("check", help="run a theorem scan")
    p.add_argument("theorem", choices=("thm1", "thm2", "thm3"))
    p.add_argument("--F", required=True, help="expression (thm3: comma-separated list)")
    _common_flags(p)

    p = sub.add_parser("screen", help="Fano / dimension / exclusion screens")
    p.add_argument("--F", required=True, help="comma-separated summand expressions")
    _common_flags(p)

    p = sub.add_parser("enumerate", help="candidate enumeration")
    p.add_argument("--lemma54", action="store_true", required=True)
    p.add_argument("--k", type=int, required=True)
    _common_flags(p, grass=False)

    p = sub.add_parser("crossval", help="cross-validate scans against witnesses")
    p.add_argument("--beta", required=True, metavar="B1,B2,...")
    _common_flags(p)

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
            for w, m in d.items():
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
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # library warnings reach the user as one line, without the
        # Python source location
        warnings.showwarning = _print_warning
        try:
            return run(args)
        except (ParseError, StructureError, DomainError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except GrassbottError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
