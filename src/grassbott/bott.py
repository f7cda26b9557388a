"""Exact cohomology of fully reducible homogeneous bundles.

Bott's theorem for an irreducible bundle is one Weyl-group
straightening of its concatenated length-n weight
(:func:`grassbott.dims.straighten`): a repeated rho-shifted entry kills
all cohomology, and otherwise exactly one group survives, in the degree
given by the length of the straightening, with dimension the Weyl
dimension of the dominant weight it returns.  Both steps are memoized
on plain entry tuples in :mod:`grassbott.dims`.  The normality scan's
twist walk calls the straightening directly and asks for the Weyl
dimension only for the groups it keeps; :func:`bott_irreducible` is
the same step on a validated weight.

A profile is summed over (first, second, multiplicity) terms by one
loop, :func:`_profile`.  :func:`cohomology_of` feeds it a
decomposition.  The profile of a ``Tensor`` node, such as a Koszul
column E (x) wedge^q F*, is read straight off the Littlewood-Richardson
pairs of its two evaluated children, so no decomposition of the
product is built; the children still go through
:func:`grassbott.schur.evaluate`'s memo and the store.

A cohomology profile is a plain dict {degree: dimension} with absent
keys meaning zero.
"""

from __future__ import annotations

from functools import lru_cache

from . import expr as ex
from .dims import sl_dim, straighten
from .errors import DomainError, NotACharacterError
from .schur import (
    Decomposition,
    _evaluate,
    _evaluate_node,
    _pair_mul,
    _through_store,
)
from .weights import BlockWeight, GrassContext, nonincreasing


def bott_irreducible(w: BlockWeight) -> dict[int, int]:
    """Cohomology profile of the irreducible bundle with highest weight
    ``w``; at most one degree is nonzero."""
    return _profile(((w.first, w.second, 1),))


def _profile(terms) -> dict[int, int]:
    """Pointwise sum of irreducible profiles over (first, second,
    multiplicity) terms; each block must be nonincreasing and each
    multiplicity a positive int."""
    acc: dict[int, int] = {}
    for first, second, m in terms:
        if not (nonincreasing(first) and nonincreasing(second)):
            raise DomainError(f"weight {first + second} is not dominant per block")
        if not (isinstance(m, int) and m > 0):
            raise NotACharacterError(f"multiplicity {m} at {(first, second)}")
        found = straighten(first + second)
        if found is not None:
            length, dominant = found
            acc[length] = acc.get(length, 0) + m * sl_dim(dominant)
    return acc


def cohomology_of(d: Decomposition) -> dict[int, int]:
    """Pointwise sum of irreducible profiles over a decomposition."""
    return _profile((w.first, w.second, m) for w, m in d.items())


def _compute_profile(e: ex.Expr, ctx: GrassContext) -> dict[int, int]:
    if isinstance(e, ex.Tensor):
        left, right = _evaluate(e.left, ctx), _evaluate(e.right, ctx)
        pairs = _pair_mul(left.table, right.table)
        return _profile((first, second, m) for (first, second), m in pairs.items())
    return cohomology_of(_evaluate_node(e, ctx))


@lru_cache(maxsize=None)
def _cohomology_cached(e: ex.Expr, ctx: GrassContext):
    return _through_store(
        "cohomology",
        e,
        ctx,
        lambda: _compute_profile(e, ctx),
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
