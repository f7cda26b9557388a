"""Numerical screens for Fano zero loci and the inequality-system
witness searches behind the two main vanishing scans.

The witness validators implement the published inequality chains
exactly as displayed, including the Fano-range line b_1 <= n-1.  That
line is a consequence of the Fano screen, not of the cohomological
bookkeeping, so for non-Fano probes a search can be re-run with
``include_fano_line=False`` to exhibit the underlying weight; the
cross-validation driver uses that to surface (never to silence)
discrepancies between the full scans and the chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .dims import block_rank, sl_dim
from .errors import DomainError, StructureError
from .schur import evaluate
from .weights import BlockWeight, GrassContext, is_globally_generated


@dataclass
class ScreenReport:
    """Outcome of the anticanonical and dimension screens for a sum of
    irreducible bundles given by k-block weights."""

    ctx: GrassContext
    summands: tuple
    det_coefficient: Fraction
    rank_f: int
    dim_x: int
    is_fano: bool
    positive_dimension: bool
    excluded: str | None

    def to_json(self) -> dict:
        return {
            "grass": str(self.ctx),
            "summands": [list(w.first) for w in self.summands],
            "det_coefficient": str(self.det_coefficient),
            "rank": str(self.rank_f),
            "dim_X": self.dim_x,
            "is_fano": self.is_fano,
            "positive_dimension": self.positive_dimension,
            "excluded": self.excluded,
        }


def _excluded_tag(ctx: GrassContext, first: tuple) -> str | None:
    k, n = ctx.k, ctx.n
    unit = (1,) + (0,) * (k - 1)
    double = (2,) + (0,) * (k - 1)
    pair = (1, 1) + (0,) * (k - 2) if k >= 2 else None
    if first == unit:
        return "(i) X = Gr(k,n-1)"
    if first == double and 2 * k <= n:
        return "(ii) X parametrizes subspaces on quadrics; rigid and projectively normal"
    if 2 * k > n and (first == double or first == pair):
        return "(iii) X is empty"
    return None


def screen(ctx: GrassContext, summands) -> ScreenReport:
    """Run the Fano, dimension, and exclusion screens on a direct sum of
    irreducible bundles (weights with zero second block)."""
    weights = []
    for w in summands:
        if not isinstance(w, BlockWeight):
            w = BlockWeight.from_first(ctx, tuple(w))
        if w.ctx != ctx:
            raise StructureError(f"summand {w} has foreign context")
        if any(w.second):
            raise StructureError(
                f"screen needs k-block weights (second block zero), got {w}"
            )
        if not is_globally_generated(w):
            raise DomainError(f"summand {w} is not globally generated")
        weights.append(w)
    weights = tuple(weights)
    # The determinant coefficient is additive over direct summands.
    coeff = Fraction(0)
    rank_f = 0
    for w in weights:
        r = block_rank(w)
        rank_f += r
        coeff += Fraction(r * w.first_sum(), ctx.k)
    dim_x = ctx.dimension - rank_f
    excluded = _excluded_tag(ctx, weights[0].first) if len(weights) == 1 else None
    return ScreenReport(
        ctx=ctx,
        summands=weights,
        det_coefficient=coeff,
        rank_f=rank_f,
        dim_x=dim_x,
        is_fano=ctx.n > coeff,
        positive_dimension=dim_x > 0,
        excluded=excluded,
    )


@dataclass(frozen=True)
class ConditionWitness:
    """A dominant summand weight satisfying one of the displayed
    inequality systems, together with the bound evaluated for it."""

    system: str  # "4.1" | "a" | "b" | "b'"
    s: int
    r: int | None
    weight: tuple
    bound_holds: bool | None

    def to_json(self) -> dict:
        data = {"system": self.system, "s": self.s, "weight": list(self.weight)}
        if self.r is not None:
            data["r"] = self.r
        if self.bound_holds is not None:
            data["bound_holds"] = self.bound_holds
        return data


def _require_irreducible(ctx: GrassContext, beta) -> BlockWeight:
    if not isinstance(beta, BlockWeight):
        beta = BlockWeight.from_first(ctx, tuple(beta))
    if any(beta.second):
        raise StructureError("condition systems expect a k-block weight")
    if not is_globally_generated(beta):
        raise DomainError(f"{beta} is not globally generated")
    return beta


def _wedge_first_weights(ctx: GrassContext, beta: BlockWeight, p: int):
    """Dominant k-block weights of wedge^p of the irreducible bundle."""
    return [(w.first, m) for w, m in evaluate(ex.Wedge(p, ex.Irr(beta)), ctx).items()]


def _rank_bound_42(k: int, size: int, rank: int, s: int) -> bool:
    # rank * size < k^2 (k-1) / (s (size-1)) + k^2, cross-multiplied.
    if size <= 1:
        return True
    lhs = rank * size * s * (size - 1)
    rhs = k * k * (k - 1) + k * k * s * (size - 1)
    return lhs < rhs


def _bound_52(ctx: GrassContext, size: int, s: int) -> bool:
    # n <= (s(k-s) + size(sk+1) - s + 1) / (s (size-1))
    k, n = ctx.k, ctx.n
    if size <= 1:
        return True
    return n * s * (size - 1) <= s * (k - s) + size * (s * k + 1) - s + 1


def _bound_53(ctx: GrassContext, size: int, s: int) -> bool:
    # n <= (s(k-s) + 2 - k + size*s*k + 2*size) / (s (size-1))
    k, n = ctx.k, ctx.n
    if size <= 1:
        return True
    return n * s * (size - 1) <= s * (k - s) + 2 - k + size * s * k + 2 * size


def find_witnesses_41(
    ctx: GrassContext, beta, include_fano_line: bool = True
) -> list[ConditionWitness]:
    """All witnesses of the first condition system: a positive s, a
    twist r >= 0, and a dominant weight b of wedge^{s(n-k)} F with

        n-1 >= b_1,  b_s >= n-k+r+s,  b_{s+1} <= r+s,  b_k >= 0.

    The published chains take s < k; under the Fano-range line the case
    s = k is infeasible anyway, so the search runs s up to k and the
    extra case only fires in the relaxed diagnostic mode
    (``include_fano_line=False``), where it makes the search complete
    against the full scan.  The ``bound_holds`` flag records the
    companion rank inequality for the witness's s.
    """
    beta = _require_irreducible(ctx, beta)
    k, n = ctx.k, ctx.n
    rank = block_rank(beta)
    size = beta.first_sum()
    out = []
    for s in range(1, k + 1):
        p = s * (n - k)
        if p > rank:
            continue
        weights = _wedge_first_weights(ctx, beta, p)
        if not weights:
            continue
        max_entry = max(w[0] for w, _ in weights)
        r_hi = max_entry - (n - k) - s
        for r in range(0, max(r_hi, -1) + 1):
            for w, _ in sorted(weights):
                if include_fano_line and w[0] > n - 1:
                    continue
                if w[s - 1] < n - k + r + s:
                    continue
                if s < k and w[s] > r + s:
                    continue
                if w[k - 1] < 0:
                    continue
                out.append(
                    ConditionWitness(
                        "4.1", s, r, w, _rank_bound_42(k, size, rank, s)
                    )
                )
    return out


def find_witnesses_5(
    ctx: GrassContext, beta, system: str, include_fano_line: bool = True
) -> list[ConditionWitness]:
    """All witnesses of one of the second-theorem condition systems.

    System "a" searches weights a of F* (x) wedge^{s(n-k)} F with
    a_s >= n-k+s and a_{s+1} <= s; systems "b" and "b'" search weights
    of wedge^{s(n-k)-1} F and wedge^{s(n-k)-2} F with the displaced
    chains involving the tangent-bundle weight.  As in the first
    system, s runs up to k; the s = k case is infeasible under the
    Fano-range line and only serves the relaxed diagnostics.
    """
    if system not in ("a", "b", "b'"):
        raise StructureError(f"unknown system {system!r}")
    beta = _require_irreducible(ctx, beta)
    k, n = ctx.k, ctx.n
    rank = block_rank(beta)
    size = beta.first_sum()
    out = []
    for s in range(1, k + 1):
        if system == "a":
            p = s * (n - k)
            bound = _bound_52(ctx, size, s)
        elif system == "b":
            p = s * (n - k) - 1
            bound = _bound_52(ctx, size, s)
        else:
            p = s * (n - k) - 2
            bound = _bound_53(ctx, size, s)
        if p < 0 or p > rank:
            continue
        if system == "a":
            f = ex.Irr(beta)
            prod = evaluate(ex.Tensor(ex.Dual(f), ex.Wedge(p, f)), ctx)
            weights = [(w.first, m) for w, m in prod.items()]
        else:
            weights = _wedge_first_weights(ctx, beta, p)
        for w, _ in sorted(weights):
            if include_fano_line and s >= (1 if system != "b'" else 2) and w[0] > n - 1:
                continue
            if system == "a":
                if w[s - 1] < n - k + s:
                    continue
                if s < k and w[s] > s:
                    continue
            elif system == "b":
                if w[s - 1] < n - k + s + 1:
                    continue
                if s < k and w[s] > s + 1:
                    continue
                if s + 1 < k and w[s + 1] > s:
                    continue
            else:
                if s >= 2 and w[s - 2] < n - k + s:
                    continue
                if not (n - k + s - 1 <= w[s - 1] <= n - k + s):
                    continue
                if s < k and w[s] > s + 1:
                    continue
                if s + 1 < k and w[s + 1] > s:
                    continue
            out.append(ConditionWitness(system, s, None, w, bound))
    return out


# ---------------------------------------------------------------------------
# Candidate enumeration for the n <= 2k tail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateFamily:
    beta: tuple
    n_min: int
    n_max: int
    family: str

    def to_json(self) -> dict:
        return {
            "beta": list(self.beta),
            "n_min": self.n_min,
            "n_max": self.n_max,
            "family": self.family,
        }


def _classify_family(beta: tuple) -> str:
    k = len(beta)
    if len(set(beta)) == 1:
        return "ro1"
    if beta == (2,) + (1,) * (k - 1):
        return "ro2"
    if beta == (2,) * (k - 1) + (1,):
        return "ro3"
    if beta == (1,) * (k - 1) + (0,):
        return "ro4"
    if beta == (1, 1, 1, 0, 0):
        return "ro5"
    if beta == (1, 1, 1, 0, 0, 0):
        return "ro6"
    if beta == (1, 1, 1, 1, 0, 0):
        return "ro7"
    return "unlisted"


def _partitions_at_most(total: int, parts: int, cap: int):
    """Nonincreasing nonnegative tuples of the given length and sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(min(total, cap), -1, -1):
        if head * parts < total:
            break
        for tail in _partitions_at_most(total - head, parts - 1, head):
            yield (head,) + tail


def enumerate_lemma54(k: int) -> list[CandidateFamily]:
    """All globally generated dominant k-block weights with degree at
    least 3 admitting some n with  rank * degree / k < n <= 2k,
    together with the exact n-range; grouped by family tag.

    A non-constant weight has rank at least k, so its degree is below
    2k; constant weights (t,...,t) have rank one and run to t = 2k-1.
    """
    if k < 2:
        raise DomainError("candidate enumeration needs k >= 2")
    found = []

    def admit(beta: tuple):
        size = sum(beta)
        if size < 3:
            return
        rank = sl_dim(beta)
        n_min = max(k, (rank * size) // k) + 1
        if n_min <= 2 * k:
            found.append(CandidateFamily(beta, n_min, 2 * k, _classify_family(beta)))

    for t in range(1, 2 * k):
        admit((t,) * k)
    for size in range(3, 2 * k):
        for beta in _partitions_at_most(size, k, size):
            if len(set(beta)) > 1:
                admit(beta)
    found.sort(key=lambda c: (c.family, c.beta))
    return found
