"""Exact cohomology of fully reducible homogeneous bundles.

Bott's theorem for an irreducible bundle is one Weyl-group
straightening of its concatenated length-n weight
(:func:`grassbott.dims.straighten`): a repeated rho-shifted entry kills
all cohomology, and otherwise exactly one group survives, in the degree
given by the length of the straightening, with dimension the Weyl
dimension of the dominant weight it returns.  Only the normality scan's
twist walk calls the straightening directly, on plain entry tuples, and
asks for the Weyl dimension only for the groups it keeps;
:func:`bott_irreducible` is the same step on a validated weight.

A cohomology profile is a plain dict {degree: dimension} with absent
keys meaning zero.
"""

from __future__ import annotations

from functools import lru_cache

from . import expr as ex
from .dims import sl_dim, straighten
from .errors import DomainError
from .schur import Decomposition, _evaluate_node, _through_store
from .weights import BlockWeight, GrassContext


def bott_irreducible(w: BlockWeight) -> dict[int, int]:
    """Cohomology profile of the irreducible bundle with highest weight
    ``w``; at most one degree is nonzero."""
    entries = w.first + w.second
    if not w.is_dominant():
        raise DomainError(f"weight {entries} is not dominant per block")
    found = straighten(entries)
    if found is None:
        return {}
    length, dominant = found
    return {length: sl_dim(dominant)}


def cohomology_of(d: Decomposition) -> dict[int, int]:
    """Pointwise sum of irreducible profiles over a decomposition."""
    acc: dict[int, int] = {}
    for w, m in d.items():
        for p, dim in bott_irreducible(w).items():
            acc[p] = acc.get(p, 0) + m * dim
    return acc


@lru_cache(maxsize=None)
def _cohomology_cached(e: ex.Expr, ctx: GrassContext):
    return _through_store(
        "cohomology",
        e,
        ctx,
        lambda: cohomology_of(_evaluate_node(e, ctx)),
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
