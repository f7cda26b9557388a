"""Numerical screens for Fano zero loci and the inequality-system
witness searches behind the two main vanishing scans.

The four published inequality chains (4.1 for normality; a, b and b'
for deformations) are rows of one table, and one search serves them
all.  It returns every weight that meets a chain without the Fano-range
line b_1 <= n-1, and marks on each witness whether that line holds too,
that is whether the weight meets the chain exactly as displayed.  The
line is a consequence of the Fano screen, not of the cohomological
bookkeeping; the cross-validation driver compares the displayed
witnesses with the full scans and shows a weight that misses only that
line next to a scan failure it explains (surfacing, never silencing, a
discrepancy).
"""

from __future__ import annotations

from . import expr as ex
from .dims import block_rank, sl_dim
from .errors import DomainError, StructureError
from .record import Record
from .schur import evaluate
from .weights import BlockWeight, GrassContext, require_globally_generated

_set = object.__setattr__


class ScreenReport(Record):
    """Outcome of the anticanonical and dimension screens for a sum of
    irreducible bundles given by k-block weights."""

    __slots__ = (
        "ctx",
        "summands",
        "det_coefficient",
        "rank_f",
        "dim_x",
        "is_fano",
        "positive_dimension",
        "excluded",
    )

    def __init__(
        self,
        ctx: GrassContext,
        summands: tuple,
        det_coefficient: int,
        rank_f: int,
        dim_x: int,
        is_fano: bool,
        positive_dimension: bool,
        excluded: str | None,
    ):
        self.ctx = ctx
        self.summands = summands
        self.det_coefficient = det_coefficient
        self.rank_f = rank_f
        self.dim_x = dim_x
        self.is_fano = is_fano
        self.positive_dimension = positive_dimension
        self.excluded = excluded

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
    irreducible bundles.  This is the one validation of the summands of
    F: each shares the context and has a zero second block
    (StructureError) and is globally generated (DomainError)."""
    weights = []
    for w in summands:
        if not isinstance(w, BlockWeight):
            w = BlockWeight.from_first(ctx, tuple(w))
        if w.ctx != ctx:
            raise StructureError(f"summand {w} has foreign context")
        if any(w.second):
            raise StructureError(
                f"summand {w} has a nonzero second block: "
                "F must be a sum of k-block weights"
            )
        require_globally_generated(w)
        weights.append(w)
    weights = tuple(weights)
    # The determinant coefficient is additive over direct summands; each
    # summand's term rank * |lambda| / k is an integer, because
    # det(E_lambda) is a power of det Q.
    numerator = 0
    rank_f = 0
    for w in weights:
        r = block_rank(w)
        rank_f += r
        numerator += r * w.first_sum()
    coeff, rest = divmod(numerator, ctx.k)
    if rest:
        raise AssertionError("determinant coefficient is not an integer")
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


class ConditionWitness(Record, frozen=True):
    """A dominant summand weight satisfying one of the displayed
    inequality chains, apart from the Fano-range line, together with the
    bound evaluated for it."""

    __slots__ = ("system", "s", "r", "weight", "bound_holds", "fano_line")

    def __init__(
        self,
        system: str,  # "4.1" | "a" | "b" | "b'"
        s: int,
        r: int | None,
        weight: tuple,
        bound_holds: bool | None,
        # the Fano-range line b_1 <= n-1 holds or does not apply at this
        # s, so the weight meets the chain as displayed
        fano_line: bool,
    ):
        _set(self, "system", system)
        _set(self, "s", s)
        _set(self, "r", r)
        _set(self, "weight", weight)
        _set(self, "bound_holds", bound_holds)
        _set(self, "fano_line", fano_line)


def _rank_bound_42(k: int, n: int, size: int, rank: int, s: int) -> bool:
    # rank * size < k^2 (k-1) / (s (size-1)) + k^2, cross-multiplied.
    if size <= 1:
        return True
    lhs = rank * size * s * (size - 1)
    rhs = k * k * (k - 1) + k * k * s * (size - 1)
    return lhs < rhs


def _bound_52(k: int, n: int, size: int, rank: int, s: int) -> bool:
    # n <= (s(k-s) + size(sk+1) - s + 1) / (s (size-1))
    if size <= 1:
        return True
    return n * s * (size - 1) <= s * (k - s) + size * (s * k + 1) - s + 1


def _bound_53(k: int, n: int, size: int, rank: int, s: int) -> bool:
    # n <= (s(k-s) + 2 - k + size*s*k + 2*size) / (s (size-1))
    if size <= 1:
        return True
    return n * s * (size - 1) <= s * (k - s) + 2 - k + size * s * k + 2 * size


# The chains on a dominant weight w (w[0] >= ... >= w[k-1]) at s and
# twist r, without the Fano-range line b_1 <= n-1; an entry past w[k-1]
# or before w[0] drops its inequality.


def _chain_41(w, s, r, k, n) -> bool:
    return w[s - 1] >= n - k + r + s and (s == k or w[s] <= r + s) and w[k - 1] >= 0


def _chain_a(w, s, r, k, n) -> bool:
    return w[s - 1] >= n - k + s and (s == k or w[s] <= s)


def _chain_b(w, s, r, k, n) -> bool:
    return (
        w[s - 1] >= n - k + s + 1
        and (s == k or w[s] <= s + 1)
        and (s + 1 >= k or w[s + 1] <= s)
    )


def _chain_b2(w, s, r, k, n) -> bool:
    return (
        (s < 2 or w[s - 2] >= n - k + s)
        and n - k + s - 1 <= w[s - 1] <= n - k + s
        and (s == k or w[s] <= s + 1)
        and (s + 1 >= k or w[s + 1] <= s)
    )


# system: (offset, bound, fano_from, dual, twisted, chain).  The system
# probes wedge^p F with p = s(n-k) - offset, or F* (x) wedge^p F when
# ``dual``; ``bound`` is its companion bound; the Fano-range line
# applies from s = fano_from on; a ``twisted`` chain also runs over a
# twist r >= 0.
_SYSTEMS = {
    "4.1": (0, _rank_bound_42, 1, False, True, _chain_41),
    "a": (0, _bound_52, 1, True, False, _chain_a),
    "b": (1, _bound_52, 1, False, False, _chain_b),
    "b'": (2, _bound_53, 2, False, False, _chain_b2),
}


def wedge_index(ctx: GrassContext, system: str, s: int) -> int:
    """The p of the wedge power wedge^p F that ``system`` probes at s."""
    return s * (ctx.n - ctx.k) - _SYSTEMS[system][0]


def _search(ctx: GrassContext, beta, system: str) -> list[ConditionWitness]:
    """Every weight that meets the chain of ``system`` without the
    Fano-range line, in the order s, then r, then the sorted weight.

    The published chains take s < k.  The search runs s up to k: for
    k >= 2 a weight that meets a chain at s = k has b_1 >= n and fails
    the Fano-range line, so the extra case leaves the displayed
    witnesses alone.  Without that line the chains are exactly the
    scans' nonvanishing conditions, which makes the search complete
    against the full scans.
    """
    _, bound_of, fano_from, dual, twisted, chain = _SYSTEMS[system]
    if not isinstance(beta, BlockWeight):
        beta = BlockWeight.from_first(ctx, tuple(beta))
    if any(beta.second):
        raise StructureError("condition systems expect a k-block weight")
    require_globally_generated(beta)
    k, n = ctx.k, ctx.n
    rank = block_rank(beta)
    size = beta.first_sum()
    f = ex.Irr(beta)
    out = []
    for s in range(1, k + 1):
        p = wedge_index(ctx, system, s)
        if p < 0 or p > rank:
            continue
        e = ex.Tensor(ex.Dual(f), ex.Wedge(p, f)) if dual else ex.Wedge(p, f)
        weights = sorted(w.first for w in evaluate(e, ctx).table)
        if not weights:
            continue
        bound = bound_of(k, n, size, rank, s)
        # a larger twist fails b_s >= n-k+r+s on every weight
        twists = range(weights[-1][0] - (n - k) - s + 1) if twisted else (None,)
        for r in twists:
            for w in weights:
                if chain(w, s, r or 0, k, n):
                    fano_line = s < fano_from or w[0] <= n - 1
                    out.append(ConditionWitness(system, s, r, w, bound, fano_line))
    return out


def find_witnesses_41(ctx: GrassContext, beta) -> list[ConditionWitness]:
    """Witnesses of the first condition system: a positive s, a twist
    r >= 0, and a dominant weight b of wedge^{s(n-k)} F with

        n-1 >= b_1,  b_s >= n-k+r+s,  b_{s+1} <= r+s,  b_k >= 0.

    Every weight that meets the chain without the first line is
    returned; ``fano_line`` marks those that meet it as displayed, and
    ``bound_holds`` records the companion rank inequality for the
    witness's s.
    """
    return _search(ctx, beta, "4.1")


def find_witnesses_5(ctx: GrassContext, beta, system: str) -> list[ConditionWitness]:
    """Witnesses of one of the second-theorem condition systems.

    System "a" searches weights a of F* (x) wedge^{s(n-k)} F with
    a_s >= n-k+s and a_{s+1} <= s; systems "b" and "b'" search weights
    of wedge^{s(n-k)-1} F and wedge^{s(n-k)-2} F with the displaced
    chains involving the tangent-bundle weight.  As for the first
    system, every weight that meets the chain without the Fano-range
    line is returned, with ``fano_line`` set on those that meet it as
    displayed.
    """
    if system not in ("a", "b", "b'"):
        raise StructureError(f"unknown system {system!r}")
    return _search(ctx, beta, system)


# ---------------------------------------------------------------------------
# Candidate enumeration for the n <= 2k tail
# ---------------------------------------------------------------------------


class CandidateFamily(Record, frozen=True):
    __slots__ = ("beta", "n_min", "n_max", "family")

    def __init__(self, beta: tuple, n_min: int, n_max: int, family: str):
        _set(self, "beta", beta)
        _set(self, "n_min", n_min)
        _set(self, "n_max", n_max)
        _set(self, "family", family)

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
