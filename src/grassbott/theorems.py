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
its twists on plain entry tuples.  Twisting by r adds r to every entry
of the k-block.  Within a block the rho-shifted entries are strictly
decreasing, so the Bott degree is the number of pairs (i, j) with
a_i + r < b_j, a for the shifted k-block and b for the shifted
(n-k)-block, and it never increases with r.  A summand therefore stops
its walk at the first twist whose degree is below p, and only the
summands that meet H^p are turned into twisted weights.

The second scan checks H^p(Gr, F (x) wedge^p F*) = 0 for p >= 1 and
H^{p+1}(Gr, Theta (x) wedge^p F*) = 0 for p >= 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import expr as ex
from .bott import bott_degree, bott_dim
from .errors import StructureError
from .koszul import TargetKind, analyze, build_table
from .parallel import parallel_map
from .schur import evaluate
from .screens import (
    ScreenReport,
    find_witnesses_41,
    find_witnesses_5,
    screen,
)
from .weights import BlockWeight, GrassContext, is_globally_generated, twist


@dataclass
class CheckEntry:
    """One scanned cohomology group."""

    group: str
    p: int
    r: int | None
    dim: int

    @property
    def passed(self) -> bool:
        return self.dim == 0


@dataclass
class ScanWitness:
    """A nonvanishing group found by a scan."""

    group: str  # "thm1" | "5.1a" | "5.1b"
    p: int
    r: int | None
    dim: int
    weights: tuple = ()

    def to_json(self) -> dict:
        data = {"group": self.group, "p": self.p, "dim": str(self.dim)}
        if self.r is not None:
            data["r"] = self.r
        if self.weights:
            data["weights"] = [w.canonical() for w in self.weights]
        return data


@dataclass
class TheoremReport:
    ctx: GrassContext
    theorem: str
    f_text: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    screen: ScreenReport
    checks: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    projectively_normal: bool | None = None
    connected_h0: str | None = None
    notes: list = field(default_factory=list)

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


def _b_max(weights) -> int:
    return max(w.first[0] for w in weights)


def _group_profile(ctx: GrassContext, e: ex.Expr, degree: int):
    """Dimension of H^degree together with the contributing summands."""
    dim = 0
    contributing = []
    for w, m in evaluate(e, ctx).items():
        found = bott_degree(w.first + w.second)
        if found is not None and found[0] == degree:
            dim += m * bott_dim(found[1])
            contributing.append(w)
    return dim, tuple(sorted(contributing, key=lambda w: w.canonical()))


def _wedge_dual(f: ex.Expr, p: int) -> ex.Expr:
    return ex.Wedge(p, ex.Dual(f))


def scan_normality(ctx: GrassContext, f: ex.Expr):
    """Scan H^p((wedge^p F*)(r)) over p in [1, rank F], r in [0, p*b_max]."""
    weights = _summand_weights(ctx, f)
    rank_f = evaluate(f, ctx).rank()
    b_max = _b_max(weights)

    def scan_p(p: int):
        twists = range(0, p * b_max + 1)
        dims = [0] * len(twists)
        contrib = [[] for _ in twists]
        for w, m in evaluate(_wedge_dual(f, p), ctx).items():
            for r in twists:
                found = bott_degree(tuple(x + r for x in w.first) + w.second)
                if found is None:
                    continue
                degree, alpha = found
                if degree < p:
                    break
                if degree == p:
                    dims[r] += m * bott_dim(alpha)
                    contrib[r].append(w)
        checks, witnesses = [], []
        for r in twists:
            checks.append(CheckEntry(f"H^{p}((wedge^{p} F*)({r}))", p, r, dims[r]))
            if dims[r]:
                twisted = tuple(
                    sorted((twist(w, r) for w in contrib[r]), key=BlockWeight.canonical)
                )
                witnesses.append(ScanWitness("thm1", p, r, dims[r], twisted))
        return checks, witnesses

    results = parallel_map(scan_p, range(1, rank_f + 1))
    checks = [c for cs, _ in results for c in cs]
    witnesses = [w for _, ws in results for w in ws]
    return checks, witnesses


def scan_deformation(ctx: GrassContext, f: ex.Expr):
    """Scan the two vanishing families behind the deformation theorem."""
    rank_f = evaluate(f, ctx).rank()

    def scan_p(p: int):
        checks, witnesses = [], []
        if p >= 1:
            e = ex.Tensor(f, _wedge_dual(f, p))
            dim, contrib = _group_profile(ctx, e, p)
            checks.append(CheckEntry(f"H^{p}(F (x) wedge^{p} F*)", p, None, dim))
            if dim:
                witnesses.append(ScanWitness("5.1a", p, None, dim, contrib))
        e = ex.Tensor(ex.THETA, _wedge_dual(f, p))
        dim, contrib = _group_profile(ctx, e, p + 1)
        checks.append(CheckEntry(f"H^{p + 1}(Theta (x) wedge^{p} F*)", p, None, dim))
        if dim:
            witnesses.append(ScanWitness("5.1b", p, None, dim, contrib))
        return checks, witnesses

    results = parallel_map(scan_p, range(0, rank_f + 1))
    checks = [c for cs, _ in results for c in cs]
    witnesses = [w for _, ws in results for w in ws]
    return checks, witnesses


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


def check_theorem1(ctx: GrassContext, f: ex.Expr) -> TheoremReport:
    """Scan the projective-normality criterion for F (a globally
    generated sum of one irreducible bundle and line bundles)."""
    weights = _summand_weights(ctx, f)
    screen_rep = screen(ctx, weights)
    non_lines = [w for w in weights if len(set(w.first)) > 1]
    notes = []
    if len(non_lines) > 1:
        notes.append(
            "F has more than one non-line-bundle summand; scan is exploratory"
        )
    checks, witnesses = scan_normality(ctx, f)
    witnesses = _sort_witnesses(witnesses)
    report = TheoremReport(
        ctx=ctx,
        theorem="1",
        f_text=ex.to_text(f),
        verdict=_verdict(screen_rep, witnesses),
        screen=screen_rep,
        checks=checks,
        witnesses=witnesses,
        notes=notes,
    )
    normal, n_notes = _normality_verdict(ctx, f, witnesses)
    report.projectively_normal = normal
    report.notes.extend(n_notes)
    if screen_rep.dim_x > 0:
        h0, h_notes = _connected_h0(ctx, f)
        report.connected_h0 = h0
        report.notes.extend(h_notes)
    return report


def check_theorem2(ctx: GrassContext, f: ex.Expr) -> TheoremReport:
    """Scan the deformation criterion for F."""
    weights = _summand_weights(ctx, f)
    screen_rep = screen(ctx, weights)
    checks, witnesses = scan_deformation(ctx, f)
    witnesses = _sort_witnesses(witnesses)
    return TheoremReport(
        ctx=ctx,
        theorem="2",
        f_text=ex.to_text(f),
        verdict=_verdict(screen_rep, witnesses),
        screen=screen_rep,
        checks=checks,
        witnesses=witnesses,
    )


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
    weights = _summand_weights(ctx, f)
    screen_rep = screen(ctx, weights)
    if screen_rep.dim_x != 4:
        warnings.warn(
            f"dim X = {screen_rep.dim_x}, the four-fold statement is stated "
            "for dim X = 4",
            stacklevel=2,
        )
    checks1, wit1 = scan_normality(ctx, f)
    checks2, wit2 = scan_deformation(ctx, f)
    witnesses = _sort_witnesses(wit1 + wit2)
    report = TheoremReport(
        ctx=ctx,
        theorem="3",
        f_text=ex.to_text(f),
        verdict=_verdict(screen_rep, witnesses),
        screen=screen_rep,
        checks=checks1 + checks2,
        witnesses=witnesses,
    )
    if screen_rep.dim_x <= 0:
        report.verdict = "not-applicable"
    return report


# ---------------------------------------------------------------------------
# Cross-validation of scans against the condition systems
# ---------------------------------------------------------------------------


@dataclass
class CrossReport:
    ctx: GrassContext
    beta: tuple
    matches: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

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
    step = n - k

    _, thm1_failures = scan_normality(ctx, f)
    _, def_failures = scan_deformation(ctx, f)
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

    strict41 = find_witnesses_41(ctx, beta)
    relaxed41 = find_witnesses_41(ctx, beta, include_fano_line=False)
    strict_a = find_witnesses_5(ctx, beta, "a")
    relaxed_a = find_witnesses_5(ctx, beta, "a", include_fano_line=False)
    strict_b = find_witnesses_5(ctx, beta, "b") + find_witnesses_5(ctx, beta, "b'")
    relaxed_b = find_witnesses_5(
        ctx, beta, "b", include_fano_line=False
    ) + find_witnesses_5(ctx, beta, "b'", include_fano_line=False)

    def key(w) -> tuple:
        # the scan group a witness predicts: the wedge index p it probes
        # and, for system 4.1, the twist r (None for the other systems,
        # as for the 5.1 scan groups)
        return w.s * step - {"b": 1, "b'": 2}.get(w.system, 0), w.r

    # per pairing: scan failures, strict and relaxed witnesses, then the
    # texts for a match, an unmatched failure, the relaxed probe shown
    # with it, and a witness without a failure
    rows = (
        (
            thm1_failures,
            strict41,
            relaxed41,
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
            strict_a,
            relaxed_a,
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
            strict_b,
            relaxed_b,
            lambda fw: f"5.1b failure (wedge p={fw.p}) <-> system b/b'",
            lambda fw: f"scan failure 5.1b (wedge p={fw.p}, dim={fw.dim}) has no "
            "system-b/b' witness as displayed",
            lambda w: f"; weight {w.weight} satisfies system {w.system} except the "
            "Fano-range line",
            lambda w: f"system-{w.system} witness (s={w.s}, weight={w.weight}) has no "
            "matching 5.1b scan failure",
        ),
    )
    for failures, strict, relaxed, matched, unmatched, probed, orphan in rows:
        for fw in failures:
            if any(key(w) == (fw.p, fw.r) for w in strict):
                report.matches.append(matched(fw))
                continue
            probe = next((w for w in relaxed if key(w) == (fw.p, fw.r)), None)
            report.mismatches.append(unmatched(fw) + (probed(probe) if probe else ""))
        failed = {(fw.p, fw.r) for fw in failures}
        report.mismatches.extend(orphan(w) for w in strict if key(w) not in failed)
    return report
