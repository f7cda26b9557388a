"""Characters, tensor products, exterior/symmetric powers, and bundle
expression evaluation.

Two independent routes are kept for the plethysm operations:

* the *fast* backend expands the truncated generating function
  prod_w (1 + t x^w) (exterior powers) or prod_w 1/(1 - t x^w)
  (symmetric powers) over the weight multiset, one weight at a time
  like a 0/1 or an unbounded knapsack, and decomposes the degree-p
  coefficient by Racah-Speiser straightening: per block, add rho, drop
  the weight on a repeated entry, otherwise sort, subtract rho and
  count it with the sign of the sort;
* the *oracle* backend enumerates subsets of the weight multiset and
  peels highest weights one irreducible character at a time.

Tensor products of decompositions use a Littlewood-Richardson tableau
walk per block.  All kernel functions work on plain integer tuples (one
block at a time); the cached kernels return read-only mappings that
must never be mutated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb
from types import MappingProxyType

from . import expr as ex
from .dims import block_rank
from .errors import (
    DomainError,
    NotACharacterError,
    OracleBudgetError,
    StructureError,
)
from .weights import BlockWeight, GrassContext, dual_weight, twist

ORACLE_BUDGET = 10**6


def _dominant(t: tuple) -> bool:
    return all(t[i] >= t[i + 1] for i in range(len(t) - 1))


# ---------------------------------------------------------------------------
# Single-block kernels
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gt_character(lam: tuple):
    """Exact weight multiset of the GL(k) irreducible with highest
    weight ``lam``, via Gelfand-Tsetlin pattern enumeration.

    Negative entries are handled by shifting with a determinant power,
    enumerating, and shifting back.
    """
    k = len(lam)
    if k == 0:
        return MappingProxyType({(): 1})
    if not _dominant(lam):
        raise DomainError(f"highest weight {lam} is not nonincreasing")
    shift = min(lam[-1], 0)
    top = tuple(x - shift for x in lam)
    table: dict[tuple, int] = {}
    weight = [0] * k

    def descend(row: tuple):
        # Weight entries are the successive differences of row sums,
        # read bottom-up through the pattern.
        m = len(row)
        if m == 1:
            weight[0] = row[0] + shift
            key = tuple(weight)
            table[key] = table.get(key, 0) + 1
            return
        total = sum(row)
        for nxt in product(*(range(row[i + 1], row[i] + 1) for i in range(m - 1))):
            weight[m - 1] = total - sum(nxt) + shift
            descend(nxt)

    descend(top)
    return MappingProxyType(table)


def _peel(table: dict, k: int) -> dict[tuple, int]:
    """Decompose a genuine two-block character (keys are concatenated
    tuples, the first ``k`` entries forming the first block) by
    repeatedly removing the character of its lexicographically largest
    weight.  A one-block character is the case of an empty second block.

    A negative multiplicity or a non-dominant top weight raises
    :class:`NotACharacterError`.
    """
    rem = {w: c for w, c in table.items() if c}
    out: dict[tuple, int] = {}
    while rem:
        top = max(rem)
        c = rem[top]
        first, second = top[:k], top[k:]
        if c < 0 or not (_dominant(first) and _dominant(second)):
            raise NotACharacterError(
                f"peeling hit weight {top} with multiplicity {c}"
            )
        out[top] = c
        for f, a in _gt_character(first).items():
            for s, b in _gt_character(second).items():
                key = f + s
                nv = rem.get(key, 0) - c * a * b
                if nv:
                    rem[key] = nv
                else:
                    rem.pop(key, None)
    return out


@lru_cache(maxsize=None)
def _lr_pair(lam: tuple, mu: tuple):
    """Littlewood-Richardson decomposition of V_lam (x) V_mu for GL(k).

    Negative entries are shifted away with determinant powers.  The
    product is computed by filling the smaller shape with a
    lattice-word tableau walk, which yields each constituent once per
    multiplicity.  Constant factors are determinant powers and act by a
    plain coordinate shift.
    """
    if len(lam) != len(mu):
        raise StructureError("block size mismatch in tensor product")
    if len(set(mu)) == 1:
        return MappingProxyType({tuple(x + mu[0] for x in lam): 1})
    if len(set(lam)) == 1:
        return MappingProxyType({tuple(x + lam[0] for x in mu): 1})
    shift_l = min(lam[-1], 0)
    shift_m = min(mu[-1], 0)
    a = tuple(x - shift_l for x in lam)
    b = tuple(x - shift_m for x in mu)
    if sum(b) > sum(a):
        a, b = b, a
    res = _lr_core(a, b)
    total = shift_l + shift_m
    if total == 0:
        return res
    return MappingProxyType(
        {tuple(x + total for x in nu): c for nu, c in res.items()}
    )


def _lr_core(lam: tuple, mu: tuple):
    """LR product of partition weights (nonnegative, nonincreasing)."""
    k = len(lam)
    cells = [(t, c) for t in range(k) for c in range(mu[t] - 1, -1, -1)]
    entries = [[0] * mu[t] for t in range(k)]
    rho = list(lam)
    out: dict[tuple, int] = {}

    def place(idx: int):
        if idx == len(cells):
            key = tuple(rho)
            out[key] = out.get(key, 0) + 1
            return
        t, c = cells[idx]
        lo = entries[t - 1][c] + 1 if t > 0 else 1
        hi = entries[t][c + 1] if c + 1 < mu[t] else k
        for v in range(lo, hi + 1):
            if v == 1 or rho[v - 1] < rho[v - 2]:
                rho[v - 1] += 1
                entries[t][c] = v
                place(idx + 1)
                rho[v - 1] -= 1

    place(0)
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Two-block kernels.  A pair is (first, second) of weight tuples;
# full characters are keyed by the concatenated length-n weight.
# ---------------------------------------------------------------------------


def _pair_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (f1, s1), c1 in a.items():
        for (f2, s2), c2 in b.items():
            c = c1 * c2
            for fw, fc in _lr_pair(f1, f2).items():
                cf = c * fc
                for sw, sc in _lr_pair(s1, s2).items():
                    key = (fw, sw)
                    nv = out.get(key, 0) + cf * sc
                    if nv:
                        out[key] = nv
                    else:
                        out.pop(key, None)
    return out


def _straighten(block: tuple):
    """Racah-Speiser step for one block: ``(sign, dominant)`` with
    ``dominant + rho = sort(block + rho)`` and ``sign`` the parity of
    that sort, or None when ``block + rho`` has a repeated entry."""
    b = len(block)
    shifted = [x + b - 1 - i for i, x in enumerate(block)]
    if len(set(shifted)) < b:
        return None
    inversions = sum(
        1 for i in range(b) for j in range(i + 1, b) if shifted[i] < shifted[j]
    )
    shifted.sort(reverse=True)
    dominant = tuple(x - (b - 1 - i) for i, x in enumerate(shifted))
    return (-1 if inversions % 2 else 1), dominant


def _racah_speiser(char: dict, k: int) -> dict:
    """Decompose a Weyl-group-invariant two-block character (keys are
    concatenated length-n weights) into dominant highest weights by
    straightening every weight, one block at a time."""
    out: dict = {}
    for w, m in char.items():
        s1, s2 = _straighten(w[:k]), _straighten(w[k:])
        if s1 is None or s2 is None:
            continue
        key = s1[1] + s2[1]
        nv = out.get(key, 0) + s1[0] * s2[0] * m
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def _full_char(d: "Decomposition") -> dict:
    """Weight multiset of a decomposition, keyed by length-n tuples."""
    out: dict = {}
    for w, mult in d.table.items():
        for f, cf in _gt_character(w.first).items():
            base = cf * mult
            for s, cs in _gt_character(w.second).items():
                key = f + s
                out[key] = out.get(key, 0) + base * cs
    return out


def _power_char(char: dict, p: int, kind: str) -> dict:
    """Character of the p-th exterior (``kind="wedge"``) or symmetric
    power of a weight multiset: the t^p coefficient of
    prod_w (1 + t x^w)^m(w), or of prod_w (1 - t x^w)^-m(w).

    Each factor is multiplied in with the degrees run downward for a
    wedge (every weight used at most once, a 0/1 knapsack) and upward
    for a sym (reused freely, an unbounded knapsack)."""
    n = len(next(iter(char)))
    levels: list[dict] = [{(0,) * n: 1}] + [{} for _ in range(p)]
    degrees = range(p, 0, -1) if kind == "wedge" else range(1, p + 1)
    for w, m in char.items():
        for _ in range(m):
            for j in degrees:
                dst = levels[j]
                for v, c in levels[j - 1].items():
                    key = tuple([a + b for a, b in zip(v, w)])
                    dst[key] = dst.get(key, 0) + c
    return levels[p]


# ---------------------------------------------------------------------------
# Public single-block surface
# ---------------------------------------------------------------------------


@dataclass
class Character:
    """Weight multiset of a GL(k) representation."""

    k: int
    table: dict = field(default_factory=dict)

    def mass(self) -> int:
        """Total multiplicity; equals the dimension for a genuine character."""
        return sum(self.table.values())


def gt_weights(lam, k: int | None = None) -> Character:
    """Character of the GL(k) irreducible with highest weight ``lam``."""
    lam = tuple(int(x) for x in lam)
    if k is None:
        k = len(lam)
    if len(lam) != k:
        raise StructureError(f"weight length {len(lam)} != k={k}")
    return Character(k, dict(_gt_character(lam)))


def decompose_character(c: Character) -> dict[tuple, int]:
    """Highest-weight peeling of a genuine character; returns the map
    from dominant weights to multiplicities."""
    return _peel(c.table, c.k)


# ---------------------------------------------------------------------------
# Decompositions of homogeneous bundles
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """Multiset of dominant highest weights with positive multiplicities."""

    ctx: GrassContext
    table: dict

    def __post_init__(self):
        for w, m in self.table.items():
            if not isinstance(w, BlockWeight) or w.ctx != self.ctx:
                raise StructureError(f"foreign weight {w} in decomposition")
            if not w.is_dominant():
                raise DomainError(f"non-dominant summand {w}")
            if not isinstance(m, int) or m <= 0:
                raise StructureError(f"multiplicity of {w} must be a positive int")

    def rank(self) -> int:
        return sum(m * block_rank(w) for w, m in self.table.items())

    def items(self):
        return self.table.items()

    def mult(self, w: BlockWeight) -> int:
        return self.table.get(w, 0)

    def __len__(self) -> int:
        return len(self.table)

    def canonical_text(self) -> str:
        parts = sorted(f"{w.canonical()}x{m}" for w, m in self.table.items())
        return ";".join(parts)

    def to_json(self) -> dict:
        return {
            "grass": str(self.ctx),
            "weights": {
                w.canonical(): str(m)
                for w, m in sorted(self.table.items(), key=lambda t: t[0].canonical())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Decomposition":
        k, n = (int(x) for x in data["grass"].split(","))
        ctx = GrassContext(k, n)
        table = {
            BlockWeight.from_canonical(key): int(m)
            for key, m in data["weights"].items()
        }
        return cls(ctx, table)


def _to_pairs(d: Decomposition) -> dict:
    return {(w.first, w.second): m for w, m in d.table.items()}


def _from_pairs(ctx: GrassContext, vd: dict) -> Decomposition:
    table = {}
    for (f, s), m in vd.items():
        if m == 0:
            continue
        if m < 0:
            raise NotACharacterError(f"negative multiplicity at {(f, s)}")
        table[BlockWeight(ctx, f, s)] = m
    return Decomposition(ctx, table)


def lr_tensor(a: Decomposition, b: Decomposition) -> Decomposition:
    """Tensor product, Littlewood-Richardson per block."""
    if a.ctx != b.ctx:
        raise StructureError(f"context mismatch: {a.ctx} vs {b.ctx}")
    return _from_pairs(a.ctx, _pair_mul(_to_pairs(a), _to_pairs(b)))


def _det_pair(char: dict, k: int, nk: int):
    """Weight of the top exterior power: the coordinate sums of the
    weight multiset, constant on each block."""
    n = k + nk
    sums = [0] * n
    for w, c in char.items():
        for i, x in enumerate(w):
            sums[i] += c * x
    first, second = sums[:k], sums[k:]
    if len(set(first)) > 1 or len(set(second)) > 1:
        raise AssertionError("determinant weight is not block-constant")
    return first[0], second[0]


def _power_fast(d: Decomposition, p: int, kind: str) -> Decomposition:
    ctx = d.ctx
    k, nk = ctx.k, ctx.n - ctx.k
    rank = d.rank()
    if p == 0 or not d.table:
        # the zeroth power is trivial; higher powers of a rank-zero
        # bundle vanish
        if p == 0:
            unit = BlockWeight(ctx, (0,) * k, (0,) * nk)
            return Decomposition(ctx, {unit: 1})
        return Decomposition(ctx, {})
    if kind == "wedge" and p > rank:
        return Decomposition(ctx, {})
    char = _full_char(d)
    if kind == "wedge" and 2 * p > rank:
        # wedge^p = (wedge^(rank-p))* (x) det, which keeps the series
        # at degree rank/2 and the straightened character small
        d1, d2 = _det_pair(char, k, nk)
        dec = {
            tuple(d1 - x for x in reversed(w[:k]))
            + tuple(d2 - x for x in reversed(w[k:])): c
            for w, c in _racah_speiser(_power_char(char, rank - p, kind), k).items()
        }
    else:
        dec = _racah_speiser(_power_char(char, p, kind), k)
    expected = comb(rank, p) if kind == "wedge" else comb(rank + p - 1, p)
    total = 0
    summands = []
    for w, c in dec.items():
        if c <= 0:
            raise AssertionError(f"virtual term {w}: {c} in a genuine power")
        bw = BlockWeight(ctx, w[:k], w[k:])
        total += c * block_rank(bw)
        summands.append((bw.canonical(), bw, c))
    if total != expected:
        raise AssertionError(f"rank mismatch: {total} != {expected}")
    # canonical order, the order a decomposition read back from the
    # disk cache has
    return Decomposition(ctx, {bw: c for _, bw, c in sorted(summands)})


def _oracle_power(d: Decomposition, p: int, with_repetition: bool) -> Decomposition:
    ctx = d.ctx
    k, n = ctx.k, ctx.n
    char = _full_char(d)
    mass = sum(char.values())
    est = comb(mass + p - 1, p) if with_repetition else comb(mass, p)
    if est > ORACLE_BUDGET:
        raise OracleBudgetError(
            f"oracle would enumerate about {est} subsets (budget {ORACLE_BUDGET})"
        )
    if p == 0:
        unit = BlockWeight(ctx, (0,) * k, (0,) * (n - k))
        return Decomposition(ctx, {unit: 1})
    if not char:
        return Decomposition(ctx, {})
    # Pack each weight into one integer, digit per coordinate, so the
    # subset sums run through the C-level combinations/sum machinery;
    # the base is wide enough that digits never carry.
    spread = max(1, max(abs(x) for w in char for x in w))
    base = 2 * p * spread + 1
    powers = [base**i for i in range(n)]
    encoded: list[int] = []
    for w, m in sorted(char.items()):
        code = sum((x + spread) * powers[i] for i, x in enumerate(w))
        encoded.extend([code] * m)
    chooser = combinations_with_replacement if with_repetition else combinations
    packed = Counter(map(sum, chooser(encoded, p)))
    counts: dict[tuple, int] = {}
    shift = p * spread
    for code, c in packed.items():
        counts[tuple((code // powers[i]) % base - shift for i in range(n))] = c
    peeled = _peel(counts, k)
    return _from_pairs(ctx, {(w[:k], w[k:]): m for w, m in peeled.items()})


def wedge_power(d: Decomposition, p: int, method: str = "fast") -> Decomposition:
    """Decomposition of the p-th exterior power of a (possibly
    reducible) representation.

    ``method="oracle"`` enumerates p-subsets of the weight multiset and
    peels; it raises :class:`OracleBudgetError` beyond its budget.  For
    p exceeding the rank the result is the empty decomposition.
    """
    if p < 0:
        raise StructureError("exterior power needs p >= 0")
    if method == "fast":
        return _power_fast(d, p, "wedge")
    if method == "oracle":
        return _oracle_power(d, p, with_repetition=False)
    raise StructureError(f"unknown method {method!r}")


def sym_power(d: Decomposition, p: int, method: str = "fast") -> Decomposition:
    """Decomposition of the p-th symmetric power; same backends as
    :func:`wedge_power` with multisets in place of subsets."""
    if p < 0:
        raise StructureError("symmetric power needs p >= 0")
    if method == "fast":
        return _power_fast(d, p, "sym")
    if method == "oracle":
        return _oracle_power(d, p, with_repetition=True)
    raise StructureError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

_store = None


def set_store(store) -> None:
    """Attach a persistent cache (see :mod:`grassbott.cache`); pass None to
    detach.

    :func:`evaluate` and :func:`grassbott.bott.cohomology` reach the store
    only through :func:`_through_store`, the one place that knows the key
    format (``"<ctx>|<expression text>"``) and when the store is read and
    written.  A detached run computes directly and builds no keys or JSON
    values."""
    global _store
    _store = store


def _through_store(operation: str, e: ex.Expr, ctx: GrassContext, compute, dump, load):
    """``compute()``, read from and written back to the attached store
    under ``operation`` and the key of ``(e, ctx)``; ``dump`` turns a
    result into the stored JSON value and ``load`` turns it back."""
    store = _store
    if store is None:
        return compute()
    key = f"{ctx}|{ex.to_text(e)}"
    cached = store.get(operation, key)
    if cached is not None:
        return load(cached)
    result = compute()
    store.put(operation, key, dump(result))
    return result


def _atom_weight(e: ex.Expr, ctx: GrassContext) -> BlockWeight:
    k, nk = ctx.k, ctx.n - ctx.k
    if isinstance(e, ex.Quotient):
        return BlockWeight(ctx, (1,) + (0,) * (k - 1), (0,) * nk)
    if isinstance(e, ex.Sub):
        return BlockWeight(ctx, (0,) * k, (1,) + (0,) * (nk - 1))
    if isinstance(e, ex.Tangent):
        return BlockWeight(ctx, (1,) + (0,) * (k - 1), (0,) * (nk - 1) + (-1,))
    if isinstance(e, ex.Line):
        return BlockWeight(ctx, (e.r,) * k, (0,) * nk)
    raise StructureError(f"not an atom: {e!r}")


@lru_cache(maxsize=None)
def _evaluate(e: ex.Expr, ctx: GrassContext) -> Decomposition:
    return _through_store(
        "evaluate",
        e,
        ctx,
        lambda: _evaluate_node(e, ctx),
        Decomposition.to_json,
        Decomposition.from_json,
    )


def _evaluate_node(e: ex.Expr, ctx: GrassContext) -> Decomposition:
    if isinstance(e, ex.Irr):
        w = e.weight
        if w.ctx != ctx:
            raise StructureError(f"weight context {w.ctx} != {ctx}")
        if not w.is_dominant():
            raise DomainError(f"irr weight {w} is not dominant per block")
        return Decomposition(ctx, {w: 1})
    if isinstance(e, (ex.Quotient, ex.Sub, ex.Tangent, ex.Line)):
        return Decomposition(ctx, {_atom_weight(e, ctx): 1})
    if isinstance(e, ex.Wedge):
        return wedge_power(_evaluate(e.child, ctx), e.p)
    if isinstance(e, ex.Sym):
        return sym_power(_evaluate(e.child, ctx), e.p)
    if isinstance(e, ex.Dual):
        child = _evaluate(e.child, ctx)
        return Decomposition(ctx, {dual_weight(w): m for w, m in child.items()})
    if isinstance(e, ex.Twist):
        child = _evaluate(e.child, ctx)
        return Decomposition(ctx, {twist(w, e.r): m for w, m in child.items()})
    if isinstance(e, ex.Tensor):
        return lr_tensor(_evaluate(e.left, ctx), _evaluate(e.right, ctx))
    if isinstance(e, ex.DirectSum):
        left = _evaluate(e.left, ctx)
        right = _evaluate(e.right, ctx)
        table = dict(left.table)
        for w, m in right.items():
            table[w] = table.get(w, 0) + m
        return Decomposition(ctx, table)
    raise StructureError(f"unknown expression node {e!r}")


def evaluate(e: ex.Expr, ctx: GrassContext) -> Decomposition:
    """Evaluate a bundle expression into its irreducible decomposition.

    Results are shared through an in-process cache and must not be
    mutated by callers.
    """
    return _evaluate(e, ctx)
