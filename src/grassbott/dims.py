"""Exact rank and dimension formulas for irreducible representations,
and the Weyl-group straightening that Bott's theorem and the
Racah-Speiser decomposition share.

Everything here is integer arithmetic: each Weyl-product factor is
accumulated as a numerator/denominator pair with a gcd reduction per
step, and the final division is checked exact.

Bott's theorem and the Racah-Speiser step ask for the same few
straightenings and dimensions again and again, so two bounded memos
sit here, each keyed on its input tuple: :func:`straighten` (8192
entries) and :func:`sl_dim` (4096).  An invalid input raises and is
never cached, so the checks of :func:`sl_dim` run again on every call
that fails them.

:func:`straighten` adds rho = (n, n-1, ..., 1) to a weight of GL(n),
gives up on a repeated entry, and otherwise sorts the shifted vector,
counting the inversions of the sort (the length of the Weyl-group
element that makes it dominant).  :mod:`grassbott.bott` reads the
length as the cohomological degree; :mod:`grassbott.schur` reads its
parity, one block at a time, as the Racah-Speiser sign.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError
from .weights import BlockWeight, nonincreasing


@lru_cache(maxsize=4096)
def sl_dim(entries: tuple) -> int:
    """Dimension of the irreducible GL(n) representation with highest
    weight ``entries`` (a nonincreasing tuple of length n).

    Invariant under adding a constant to all entries, so this is also
    the SL(n) dimension.
    """
    lam = tuple(int(x) for x in entries)
    if not nonincreasing(lam):
        raise DomainError(f"weight {lam} is not nonincreasing")
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
            g = gcd(num, den)
            num //= g
            den //= g
    if den != 1:
        raise AssertionError("Weyl product did not reduce to an integer")
    return num


@lru_cache(maxsize=8192)
def straighten(entries: tuple) -> tuple[int, tuple] | None:
    """Weyl-group straightening of a weight of GL(n).

    None when ``entries + rho`` has a repeated entry; otherwise
    ``(length, dominant)`` with ``dominant + rho = sort(entries + rho)``
    (nonincreasing) and ``length`` the number of inversions of that sort.
    """
    n = len(entries)
    shifted = [x + n - i for i, x in enumerate(entries)]
    if len(set(shifted)) < n:
        return None
    length = 0
    for i, a in enumerate(shifted):
        for b in shifted[i + 1 :]:
            if a < b:
                length += 1
    shifted.sort(reverse=True)
    return length, tuple(x - n + i for i, x in enumerate(shifted))


def block_rank(w: BlockWeight) -> int:
    """Rank of the homogeneous vector bundle with highest weight ``w``:
    the product of the per-block Weyl dimensions; :func:`sl_dim` rejects
    a block that is not dominant."""
    return sl_dim(w.first) * sl_dim(w.second)
