"""Koszul spectral-sequence tables and sound vanishing/exactness verdicts.

A regular section of a globally generated bundle F of rank R resolves
the structure sheaf of its zero locus X by the bundles wedge^q(F*).
The induced spectral sequences compute, for any bundle E,

* restriction:  cells H^p(E (x) wedge^q F*) with p - q = i feed H^i(X, E|_X);
* ideal sheaf:  cells H^p(E (x) wedge^q F*) with q >= 1 and p - q = i - 1
  feed H^i(E (x) ideal of X).

No degeneration is assumed: an exact dimension is claimed only when
every nonzero contributing cell has all of its differential partners
(cells at (q+r, p+r-1) and (q-r, p-r+1) for every page r >= 1) equal to
zero; otherwise only the safe bounds are reported.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

from . import expr as ex
from .bott import cohomology, euler_characteristic
from .errors import StructureError
from .parallel import parallel_map
from .schur import evaluate
from .weights import GrassContext, is_globally_generated


class TargetKind(enum.Enum):
    RESTRICTION = "restriction"
    IDEAL = "ideal"


@dataclass
class Verdict:
    """Sound conclusion about one cohomology group of the target."""

    kind: str  # "vanishes" | "exact" | "bounds"
    dim: int | None = None
    lo: int | None = None
    hi: int | None = None

    @classmethod
    def vanishes(cls) -> "Verdict":
        return cls("vanishes")

    @classmethod
    def exact(cls, dim: int) -> "Verdict":
        if dim == 0:
            return cls.vanishes()
        return cls("exact", dim=dim)

    @classmethod
    def bounds(cls, lo: int, hi: int) -> "Verdict":
        return cls("bounds", lo=lo, hi=hi)

    def to_json(self) -> dict:
        if self.kind == "vanishes":
            return {"kind": "vanishes"}
        if self.kind == "exact":
            return {"kind": "exact", "dim": str(self.dim)}
        return {"kind": "bounds", "lo": str(self.lo), "hi": str(self.hi)}


@dataclass
class KoszulTable:
    """Grid of dimensions H^p(E (x) wedge^q F*), q in [0,R], p in [0,dim]."""

    ctx: GrassContext
    e: ex.Expr
    f: ex.Expr
    rank_f: int
    columns: dict  # q -> cohomology profile {p: dim}

    def cell(self, q: int, p: int) -> int:
        return self.columns.get(q, {}).get(p, 0)

    def nonzero_cells(self):
        for q in sorted(self.columns):
            for p in sorted(self.columns[q]):
                d = self.columns[q][p]
                if d:
                    yield q, p, d

    def to_json(self) -> dict:
        return {
            "R": self.rank_f,
            "cells": [
                {"q": q, "p": p, "dim": str(d)} for q, p, d in self.nonzero_cells()
            ],
        }


def _column_expr(e: ex.Expr, f: ex.Expr, q: int) -> ex.Expr:
    return ex.Tensor(e, ex.Wedge(q, ex.Dual(f)))


def build_table(e: ex.Expr, f: ex.Expr, ctx: GrassContext) -> KoszulTable:
    """Compute every Koszul column for the section bundle ``f`` twisted
    against ``e``; F must be globally generated."""
    fd = evaluate(f, ctx)
    for w, _ in fd.items():
        if not is_globally_generated(w):
            raise StructureError(f"summand {w} of F is not globally generated")
    rank_f = fd.rank()
    if rank_f >= ctx.dimension:
        warnings.warn(
            f"rank(F) = {rank_f} >= dim Gr = {ctx.dimension}: "
            "the zero locus is empty or zero-dimensional",
            stacklevel=2,
        )
    qs = list(range(rank_f + 1))
    profiles = parallel_map(lambda q: cohomology(_column_expr(e, f, q), ctx), qs)
    return KoszulTable(ctx, e, f, rank_f, dict(zip(qs, profiles)))


def _contributions(table: KoszulTable, kind: TargetKind, degree: int):
    dim_y = table.ctx.dimension
    if kind is TargetKind.RESTRICTION:
        q_range = range(0, table.rank_f + 1)
        offset = degree
    else:
        q_range = range(1, table.rank_f + 1)
        offset = degree - 1
    for q in q_range:
        p = q + offset
        if 0 <= p <= dim_y:
            yield q, p


def analyze(table: KoszulTable, kind: TargetKind, degree: int) -> Verdict:
    """Verdict about H^degree of the target selected by ``kind``."""
    cells = [(q, p, table.cell(q, p)) for q, p in _contributions(table, kind, degree)]
    total = sum(d for _, _, d in cells)
    if total == 0:
        return Verdict.vanishes()
    for q, p, d in cells:
        if d == 0:
            continue
        for r in range(1, max(q, table.rank_f - q) + 1):
            if table.cell(q + r, p + r - 1) or table.cell(q - r, p - r + 1):
                return Verdict.bounds(0, total)
    return Verdict.exact(total)


def euler_restriction(e: ex.Expr, f: ex.Expr, ctx: GrassContext) -> int:
    """chi(X, E|_X) as the alternating sum of column Euler characteristics."""
    fd = evaluate(f, ctx)
    total = 0
    for q in range(fd.rank() + 1):
        chi = euler_characteristic(cohomology(_column_expr(e, f, q), ctx))
        total += chi if q % 2 == 0 else -chi
    return total


def hilbert_series(
    f: ex.Expr, ctx: GrassContext, r_lo: int, r_hi: int
) -> list[tuple[int, int]]:
    """Exact values chi(O_X(r)) for r in [r_lo, r_hi]."""
    if r_lo > r_hi:
        raise StructureError("need r_lo <= r_hi")
    return [(r, euler_restriction(ex.Line(r), f, ctx)) for r in range(r_lo, r_hi + 1)]
