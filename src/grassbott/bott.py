"""Exact cohomology of fully reducible homogeneous bundles.

For an irreducible bundle the length-n weight is shifted by
(n, n-1, ..., 1); a repeated entry kills all cohomology, and otherwise
exactly one group survives, in the degree given by the number of
inversions, with dimension the Weyl dimension of the sorted shifted
weight re-centered by the same shift.

The theorem scans ask for one degree at a time, so Bott is split in
two steps on plain entry tuples: :func:`bott_degree` finds the surviving
degree (or that nothing survives) from the inversion count alone, and
:func:`bott_dim` computes the Weyl dimension only for the groups a scan
keeps.  :func:`bott_irreducible` is both steps on a validated weight and
stays the reference.

A cohomology profile is a plain dict {degree: dimension} with absent
keys meaning zero.
"""

from __future__ import annotations

from functools import lru_cache

from . import expr as ex
from .dims import sl_dim
from .errors import DomainError
from .schur import Decomposition, _through_store, evaluate
from .weights import FullWeight, GrassContext, full_weight


def rho(n: int) -> tuple:
    """The shift vector (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def bott_degree(entries: tuple) -> tuple[int, tuple] | None:
    """Degree step of Bott on the concatenated entries of a block-dominant
    weight: None when the rho-shifted vector has a repeated entry (all
    cohomology vanishes), otherwise its inversion count, the one degree
    that survives, together with the shifted vector for :func:`bott_dim`."""
    n = len(entries)
    alpha = tuple(n - i + x for i, x in enumerate(entries))
    if len(set(alpha)) < n:
        return None
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if alpha[i] < alpha[j]:
                inversions += 1
    return inversions, alpha


def bott_dim(alpha: tuple) -> int:
    """Dimension of the surviving group, from the shifted vector returned
    by :func:`bott_degree`: the Weyl dimension of the sorted vector
    re-centred by rho."""
    n = len(alpha)
    lam = sorted(alpha, reverse=True)
    return sl_dim(tuple(lam[i] - (n - i) for i in range(n)))


def bott_irreducible(fw: FullWeight) -> dict[int, int]:
    """Cohomology profile of the irreducible bundle with highest weight
    ``fw``; at most one degree is nonzero."""
    if not fw.blocks().is_dominant():
        raise DomainError(f"weight {fw.entries} is not dominant per block")
    found = bott_degree(fw.entries)
    if found is None:
        return {}
    degree, alpha = found
    return {degree: bott_dim(alpha)}


def profile_add(acc: dict[int, int], profile: dict[int, int], mult: int = 1) -> None:
    for p, d in profile.items():
        acc[p] = acc.get(p, 0) + mult * d


def cohomology_of(d: Decomposition) -> dict[int, int]:
    """Pointwise sum of irreducible profiles over a decomposition."""
    acc: dict[int, int] = {}
    for w, m in d.items():
        profile_add(acc, bott_irreducible(full_weight(w)), m)
    return acc


@lru_cache(maxsize=None)
def _cohomology_cached(e: ex.Expr, ctx: GrassContext):
    return _through_store(
        "cohomology",
        e,
        ctx,
        lambda: cohomology_of(evaluate(e, ctx)),
        profile_to_json,
        lambda cached: {int(p): int(d) for p, d in cached.items()},
    )


def cohomology(e: ex.Expr, ctx: GrassContext) -> dict[int, int]:
    """Cohomology profile of a bundle expression.

    Cached in-process and, when a store is attached, across runs; the
    returned dict is shared and must not be mutated.
    """
    return _cohomology_cached(e, ctx)


def euler_characteristic(profile: dict[int, int]) -> int:
    return sum(d if p % 2 == 0 else -d for p, d in profile.items())


def profile_to_json(profile: dict[int, int]) -> dict[str, str]:
    return {str(p): str(d) for p, d in sorted(profile.items())}
