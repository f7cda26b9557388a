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
zero; otherwise only the safe bounds are reported.  :func:`build_table`
is memoized and is the only reader of the columns: the verdicts, the
Euler characteristics and the deformation scan share its tables.
"""

from __future__ import annotations

import enum
import warnings
from functools import lru_cache

from . import expr as ex
from .bott import cohomology
from .errors import StructureError
from .parallel import parallel_map
from .record import Record
from .schur import evaluate
from .weights import GrassContext, is_globally_generated


class TargetKind(enum.Enum):
    RESTRICTION = "restriction"
    IDEAL = "ideal"


class Verdict(Record):
    """Sound conclusion about one cohomology group of the target."""

    __slots__ = ("kind", "dim", "lo", "hi")

    def __init__(
        self,
        kind: str,  # "vanishes" | "exact" | "bounds"
        dim: int | None = None,
        lo: int | None = None,
        hi: int | None = None,
    ):
        self.kind = kind
        self.dim = dim
        self.lo = lo
        self.hi = hi

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


class KoszulTable(Record):
    """Grid of dimensions H^p(E (x) wedge^q F*), q in [0,R], p in [0,dim]."""

    __slots__ = ("ctx", "e", "f", "rank_f", "columns")

    def __init__(
        self,
        ctx: GrassContext,
        e: ex.Expr,
        f: ex.Expr,
        rank_f: int,
        columns: dict,  # q -> cohomology profile {p: dim}
    ):
        self.ctx = ctx
        self.e = e
        self.f = f
        self.rank_f = rank_f
        self.columns = columns

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


@lru_cache(maxsize=None)
def build_table(e: ex.Expr, f: ex.Expr, ctx: GrassContext) -> KoszulTable:
    """Every Koszul column for the section bundle ``f`` twisted against
    ``e``; F must be globally generated.  Memoized: the table is shared."""
    fd = evaluate(f, ctx)
    for w, _ in fd.items():
        if not is_globally_generated(w):
            raise StructureError(f"summand {w} of F is not globally generated")
    rank_f = fd.rank()
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
    if table.rank_f >= table.ctx.dimension:
        warnings.warn(
            f"rank(F) = {table.rank_f} >= dim Gr = {table.ctx.dimension}: "
            "the zero locus is empty or zero-dimensional",
            stacklevel=2,
        )
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
    """chi(X, E|_X) as the alternating sum of the Koszul table's cells."""
    cells = build_table(e, f, ctx).nonzero_cells()
    return sum(d if (p + q) % 2 == 0 else -d for q, p, d in cells)


def hilbert_series(
    f: ex.Expr, ctx: GrassContext, r_lo: int, r_hi: int
) -> list[tuple[int, int]]:
    """Exact values chi(O_X(r)) for r in [r_lo, r_hi]."""
    if r_lo > r_hi:
        raise StructureError("need r_lo <= r_hi")
    return [(r, euler_restriction(ex.Line(r), f, ctx)) for r in range(r_lo, r_hi + 1)]
