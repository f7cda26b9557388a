"""Exact rank and dimension formulas for irreducible representations.

Everything here is integer arithmetic: each Weyl-product factor is
accumulated as a numerator/denominator pair with a gcd reduction per
step, and the final division is checked exact.  The product is
memoised on the weight shifted so that its last entry is 0 (a bounded
table: the criterion-4 sweep needs 69 entries); the input checks run
before the lookup, on every call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError
from .weights import BlockWeight


def sl_dim(entries, n: int | None = None) -> int:
    """Dimension of the irreducible GL(n) representation with highest
    weight ``entries`` (nonincreasing, length n).

    Invariant under adding a constant to all entries, so this is also
    the SL(n) dimension.
    """
    lam = tuple(int(x) for x in entries)
    if n is None:
        n = len(lam)
    if len(lam) != n:
        raise DomainError(f"weight has length {len(lam)}, expected {n}")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise DomainError(f"weight {lam} is not nonincreasing")
    if n == 0:
        return 1
    return _weyl_product(tuple(x - lam[-1] for x in lam))


@lru_cache(maxsize=4096)
def _weyl_product(lam: tuple) -> int:
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


def block_rank(w: BlockWeight) -> int:
    """Rank of the homogeneous vector bundle with highest weight ``w``:
    the product of the per-block Weyl dimensions."""
    if not w.is_dominant():
        raise DomainError(f"weight {w} is not dominant per block")
    return sl_dim(w.first) * sl_dim(w.second)
