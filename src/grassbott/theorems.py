"""End-to-end machine checks of the projective-normality and
deformation-rigidity scans, plus cross-validation against the
inequality-system witnesses.

The first scan checks H^p(Gr, (wedge^p F*)(r)) = 0 for p >= 1 and every
r >= 0; twists are truncated at r = p * b_max, where b_max is the
largest k-block entry over the summands of F.  Every entry of a weight
of wedge^p F lies in [0, p * b_max], so for r >= p * b_max the twisted
dual weight is dominant as a full vector and only degree zero can
survive; the margin property test exercises this bound.

wedge^p F* is decomposed once per p, and each summand is walked along
its twists on plain entry tuples, with Bott's theorem applied as
:func:`grassbott.dims.straighten` (the degree is its length) and
:func:`grassbott.dims.sl_dim` (only for the groups a scan keeps).
Twisting by r adds r to every entry of the k-block.  Within a block
the rho-shifted entries are strictly decreasing, so the Bott degree is
the number of pairs (i, j) with a_i + r < b_j, a for the shifted
k-block and b for the shifted (n-k)-block, and it never increases with
r.  A summand therefore stops its walk at the first twist whose degree
is below p, and only the summands that meet H^p are turned into
twisted weights.

The second scan checks H^p(Gr, F (x) wedge^p F*) = 0 for p >= 1 and
H^{p+1}(Gr, Theta (x) wedge^p F*) = 0 for p >= 0.  These groups are the
q = p cells of the Koszul tables of E = F and E = Theta, so the scan
reads them from :func:`grassbott.koszul.build_table`, the memoized
tables that ``koszul``/``euler`` use; only a nonzero group's column is
decomposed, for the summands that carry it.

A check refuses rank F > dim Gr before any scan, with a DomainError:
the zero locus of a general section is then empty.

A scan returns its witnesses, the nonzero groups, in (p, r) order; a
group that vanishes leaves no record.
"""

from __future__ import annotations

import warnings

from . import expr as ex
from .bott import bott_irreducible
from .dims import sl_dim, straighten
from .errors import DomainError, StructureError
from .koszul import KoszulTable, TargetKind, _column_expr, analyze, build_table
from .parallel import parallel_map
from .record import Record
from .schur import evaluate
from .screens import (
    ScreenReport,
    find_witnesses_41,
    find_witnesses_5,
    screen,
    wedge_index,
)
from .weights import BlockWeight, GrassContext, is_globally_generated, twist


class ScanWitness(Record):
    """A nonvanishing group found by a scan."""

    __slots__ = ("group", "p", "r", "dim", "weights")

    def __init__(
        self,
        group: str,  # "thm1" | "5.1a" | "5.1b"
        p: int,
        r: int | None,
        dim: int,
        weights: tuple = (),
    ):
        self.group = group
        self.p = p
        self.r = r
        self.dim = dim
        self.weights = weights

    def to_json(self) -> dict:
        data = {"group": self.group, "p": self.p, "dim": str(self.dim)}
        if self.r is not None:
            data["r"] = self.r
        if self.weights:
            data["weights"] = [w.canonical() for w in self.weights]
        return data


class TheoremReport(Record):
    __slots__ = (
        "ctx",
        "theorem",
        "f_text",
        "verdict",
        "screen",
        "witnesses",
        "projectively_normal",
        "connected_h0",
        "notes",
    )

    def __init__(
        self,
        ctx: GrassContext,
        theorem: str,
        f_text: str,
        verdict: str,  # "pass" | "fail" | "not-applicable"
        screen: ScreenReport,
        witnesses: list | None = None,
        projectively_normal: bool | None = None,
        connected_h0: str | None = None,
        notes: list | None = None,
    ):
        self.ctx = ctx
        self.theorem = theorem
        self.f_text = f_text
        self.verdict = verdict
        self.screen = screen
        self.witnesses = [] if witnesses is None else witnesses
        self.projectively_normal = projectively_normal
        self.connected_h0 = connected_h0
        self.notes = [] if notes is None else notes

    @property
    def ambient_dim(self) -> int:
        return self.ctx.plucker_ambient_dim

    def to_json(self) -> dict:
        data = {
            "instance": {"grass": str(self.ctx), "F": self.f_text},
            "theorem": self.theorem,
            "verdict": self.verdict,
            "ambient_N": self.ambient_dim,
            "witnesses": [w.to_json() for w in self.witnesses],
        }
        if self.projectively_normal is not None:
            data["projectively_normal"] = self.projectively_normal
        if self.connected_h0 is not None:
            data["connected_components_h0"] = self.connected_h0
        if self.notes:
            data["notes"] = self.notes
        return data


def _summand_weights(ctx: GrassContext, f: ex.Expr) -> list[BlockWeight]:
    fd = evaluate(f, ctx)
    out = []
    for w, m in fd.items():
        if any(w.second):
            raise StructureError(
                f"theorem checks expect k-block weights, summand {w} has a "
                "nonzero second block"
            )
        if not is_globally_generated(w):
            raise StructureError(f"summand {w} is not globally generated")
        out.extend([w] * m)
    if not out:
        raise StructureError("F has rank zero")
    return out


def _group_witness(table: KoszulTable, group: str, p: int, degree: int):
    """The witness for a nonzero cell (p, degree) of ``table`` with the
    summands of column p that carry it, or None when the cell is zero;
    only a nonzero cell's column is decomposed."""
    dim = table.cell(p, degree)
    if not dim:
        return None
    column = evaluate(_column_expr(table.e, table.f, p), table.ctx)
    contributing = [w for w, _ in column.items() if degree in bott_irreducible(w)]
    return ScanWitness(
        group, p, None, dim, tuple(sorted(contributing, key=BlockWeight.canonical))
    )


def scan_normality(ctx: GrassContext, f: ex.Expr) -> list:
    """Witnesses of H^p((wedge^p F*)(r)) != 0 over p in [1, rank F],
    r in [0, p*b_max], in (p, r) order."""
    b_max = max(w.first[0] for w in _summand_weights(ctx, f))
    rank_f = evaluate(f, ctx).rank()

    def scan_p(p: int) -> list:
        # r -> [dim, contributing summands], for the twists with H^p != 0
        hits = {}
        for w, m in evaluate(ex.Wedge(p, ex.Dual(f)), ctx).items():
            for r in range(0, p * b_max + 1):
                found = straighten(tuple(x + r for x in w.first) + w.second)
                if found is None:
                    continue
                degree, dominant = found
                if degree < p:
                    break
                if degree == p:
                    hit = hits.setdefault(r, [0, []])
                    hit[0] += m * sl_dim(dominant)
                    hit[1].append(w)
        return [
            ScanWitness(
                "thm1",
                p,
                r,
                dim,
                tuple(sorted((twist(w, r) for w in contrib), key=BlockWeight.canonical)),
            )
            for r, (dim, contrib) in sorted(hits.items())
        ]

    return [w for ws in parallel_map(scan_p, range(1, rank_f + 1)) for w in ws]


def scan_deformation(ctx: GrassContext, f: ex.Expr) -> list:
    """Witnesses of the two vanishing families behind the deformation
    theorem, in p order with 5.1a before 5.1b."""
    own, theta = build_table(f, f, ctx), build_table(ex.THETA, f, ctx)
    found = []
    for p in range(own.rank_f + 1):
        if p >= 1:
            found.append(_group_witness(own, "5.1a", p, p))
        found.append(_group_witness(theta, "5.1b", p, p + 1))
    return [w for w in found if w is not None]


def _sort_witnesses(witnesses) -> list:
    return sorted(
        witnesses,
        key=lambda w: (w.group, w.p, -1 if w.r is None else w.r, w.weights),
    )


def _verdict(screen_rep: ScreenReport, witnesses) -> str:
    if not (screen_rep.is_fano and screen_rep.positive_dimension):
        return "not-applicable"
    return "pass" if not witnesses else "fail"


def _normality_verdict(ctx, f, witnesses) -> tuple[bool | None, list]:
    """Projective normality via the ideal-sheaf target: sound in both
    directions, with None when differentials leave the question open."""
    notes = []
    twists = sorted({w.r for w in witnesses if w.group == "thm1" and w.r >= 1})
    if not twists:
        return True, notes
    undecided = False
    for r in twists:
        verdict = analyze(build_table(ex.Line(r), f, ctx), TargetKind.IDEAL, 1)
        if verdict.kind == "exact":
            notes.append(f"H^1 of the twisted ideal sheaf at r={r} is {verdict.dim}")
            return False, notes
        if verdict.kind == "bounds":
            undecided = True
            notes.append(
                f"normality at r={r} undecided: bounds [{verdict.lo},{verdict.hi}]"
            )
    return (None, notes) if undecided else (True, notes)


def _connected_h0(ctx, f) -> tuple[str | None, list]:
    notes = []
    verdict = analyze(build_table(ex.Line(0), f, ctx), TargetKind.RESTRICTION, 0)
    if verdict.kind == "vanishes":
        return "0", notes
    if verdict.kind == "exact":
        return str(verdict.dim), notes
    notes.append(
        f"h0(O_X) undetermined: bounds [{verdict.lo},{verdict.hi}] "
        "with live differentials"
    )
    return None, notes


def _report(ctx: GrassContext, theorem: str, f: ex.Expr, scans) -> TheoremReport:
    """Screen F, run the scans on it and collect their sorted witnesses
    into a report with its verdict."""
    screen_rep = screen(ctx, _summand_weights(ctx, f))
    if screen_rep.rank_f > ctx.dimension:
        raise DomainError(
            f"rank F = {screen_rep.rank_f} > dim Gr({ctx}) = {ctx.dimension}: "
            "the zero locus of a general section is empty"
        )
    witnesses = _sort_witnesses([w for scan in scans for w in scan(ctx, f)])
    return TheoremReport(
        ctx=ctx,
        theorem=theorem,
        f_text=ex.to_text(f),
        verdict=_verdict(screen_rep, witnesses),
        screen=screen_rep,
        witnesses=witnesses,
    )


def check_theorem1(ctx: GrassContext, f: ex.Expr) -> TheoremReport:
    """Scan the projective-normality criterion for F (a globally
    generated sum of one irreducible bundle and line bundles)."""
    report = _report(ctx, "1", f, (scan_normality,))
    non_lines = [w for w in report.screen.summands if len(set(w.first)) > 1]
    if len(non_lines) > 1:
        report.notes.append(
            "F has more than one non-line-bundle summand; scan is exploratory"
        )
    normal, n_notes = _normality_verdict(ctx, f, report.witnesses)
    report.projectively_normal = normal
    report.notes.extend(n_notes)
    if report.screen.dim_x > 0:
        h0, h_notes = _connected_h0(ctx, f)
        report.connected_h0 = h0
        report.notes.extend(h_notes)
    return report


def check_theorem2(ctx: GrassContext, f: ex.Expr) -> TheoremReport:
    """Scan the deformation criterion for F."""
    return _report(ctx, "2", f, (scan_deformation,))


def check_theorem3(ctx: GrassContext, summands) -> TheoremReport:
    """Run both scans on a fully reducible F given as a list of
    expressions.  The Picard-group hypothesis is the caller's
    declaration and is not verified here."""
    exprs = list(summands)
    if not exprs:
        raise StructureError("need at least one summand")
    f = exprs[0]
    for nxt in exprs[1:]:
        f = ex.DirectSum(f, nxt)
    report = _report(ctx, "3", f, (scan_normality, scan_deformation))
    if report.screen.dim_x != 4:
        warnings.warn(
            f"dim X = {report.screen.dim_x}, the four-fold statement is stated "
            "for dim X = 4",
            stacklevel=2,
        )
    return report


# ---------------------------------------------------------------------------
# Cross-validation of scans against the condition systems
# ---------------------------------------------------------------------------


class CrossReport(Record):
    __slots__ = ("ctx", "beta", "matches", "mismatches")

    def __init__(
        self,
        ctx: GrassContext,
        beta: tuple,
        matches: list | None = None,
        mismatches: list | None = None,
    ):
        self.ctx = ctx
        self.beta = beta
        self.matches = [] if matches is None else matches
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "grass": str(self.ctx),
            "beta": list(self.beta),
            "matches": self.matches,
            "mismatches": self.mismatches,
            "consistent": self.consistent,
        }


def cross_validate(ctx: GrassContext, beta) -> CrossReport:
    """Compare every full-scan failure with the condition-system
    witnesses and vice versa; mismatches are reported verbatim, never
    resolved."""
    if not isinstance(beta, BlockWeight):
        beta = BlockWeight.from_first(ctx, tuple(beta))
    f = ex.Irr(beta)
    report = CrossReport(ctx, beta.first)
    k, n = ctx.k, ctx.n

    thm1_failures = scan_normality(ctx, f)
    def_failures = scan_deformation(ctx, f)
    fail_a = [w for w in def_failures if w.group == "5.1a"]
    fail_b = [w for w in def_failures if w.group == "5.1b"]

    if k == 1:
        for w in thm1_failures + fail_a + fail_b:
            report.mismatches.append(
                f"scan failure {w.group} at p={w.p}"
                + (f", r={w.r}" if w.r is not None else "")
                + ": no condition system applies for k=1 (hypersurface case)"
            )
        return report

    # one search per system; the displayed witnesses are those that also
    # meet the Fano-range line
    found41 = find_witnesses_41(ctx, beta)
    found_a = find_witnesses_5(ctx, beta, "a")
    found_b = find_witnesses_5(ctx, beta, "b") + find_witnesses_5(ctx, beta, "b'")

    def key(w) -> tuple:
        # the scan group a witness predicts: the wedge index p it probes
        # and, for system 4.1, the twist r (None for the other systems,
        # as for the 5.1 scan groups)
        return wedge_index(ctx, w.system, w.s), w.r

    # per pairing: scan failures and found witnesses, then the texts for
    # a match, an unmatched failure, the witness that misses only the
    # Fano-range line shown with it, and a displayed witness without a
    # failure
    rows = (
        (
            thm1_failures,
            found41,
            lambda fw: f"thm1 failure (p={fw.p}, r={fw.r}) <-> system 4.1",
            lambda fw: f"scan failure thm1 (p={fw.p}, r={fw.r}, dim={fw.dim}) has no "
            "system-4.1 witness as displayed",
            lambda w: f"; weight {w.weight} satisfies the chain except the Fano-range "
            f"line b_1 <= n-1 = {n - 1}",
            lambda w: f"system-4.1 witness (s={w.s}, r={w.r}, weight={w.weight}) "
            "has no matching scan failure",
        ),
        (
            fail_a,
            found_a,
            lambda fw: f"5.1a failure (p={fw.p}) <-> system a",
            lambda fw: f"scan failure 5.1a (p={fw.p}, dim={fw.dim}) has no system-a "
            "witness as displayed",
            lambda w: f"; weight {w.weight} satisfies the chain except the Fano-range "
            "line",
            lambda w: f"system-a witness (s={w.s}, weight={w.weight}) has no matching "
            "5.1a scan failure",
        ),
        (
            fail_b,
            found_b,
            lambda fw: f"5.1b failure (wedge p={fw.p}) <-> system b/b'",
            lambda fw: f"scan failure 5.1b (wedge p={fw.p}, dim={fw.dim}) has no "
            "system-b/b' witness as displayed",
            lambda w: f"; weight {w.weight} satisfies system {w.system} except the "
            "Fano-range line",
            lambda w: f"system-{w.system} witness (s={w.s}, weight={w.weight}) has no "
            "matching 5.1b scan failure",
        ),
    )
    for failures, found, matched, unmatched, probed, orphan in rows:
        strict = [w for w in found if w.fano_line]
        for fw in failures:
            if any(key(w) == (fw.p, fw.r) for w in strict):
                report.matches.append(matched(fw))
                continue
            probe = next((w for w in found if key(w) == (fw.p, fw.r)), None)
            report.mismatches.append(unmatched(fw) + (probed(probe) if probe else ""))
        failed = {(fw.p, fw.r) for fw in failures}
        report.mismatches.extend(orphan(w) for w in strict if key(w) not in failed)
    return report
