"""Parabolic weights on Gr(k,n).

A weight is stored split into a length-k block and a length-(n-k)
block, matching the two factors of the reductive part of the parabolic
subgroup.  Bott's theorem and global generation read the two blocks
concatenated into one length-n tuple, ``w.first + w.second``.

Contexts and weights are immutable, hashable slotted values with
class-sensitive equality: ``hash`` is the hash of the field tuple, and
every construction runs the validation.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, StructureError
from .record import Record

_set = object.__setattr__


class GrassContext(Record, frozen=True):
    """The Grassmannian Gr(k,n) of k-dimensional quotients of C^n."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        if not (isinstance(k, int) and isinstance(n, int)):
            raise StructureError("k and n must be integers")
        if not 1 <= k < n:
            raise StructureError(f"need 1 <= k < n, got k={k}, n={n}")
        _set(self, "k", k)
        _set(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.n) == (other.k, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.n))

    @property
    def dimension(self) -> int:
        """dim Gr(k,n) = k(n-k)."""
        return self.k * (self.n - self.k)

    @property
    def plucker_ambient_dim(self) -> int:
        """N for the Pluecker embedding Gr(k,n) in P^N."""
        return comb(self.n, self.k) - 1

    def __str__(self) -> str:
        return f"{self.k},{self.n}"


def nonincreasing(t: tuple) -> bool:
    """True when the entries of ``t`` never increase."""
    for i in range(len(t) - 1):
        if t[i] < t[i + 1]:
            return False
    return True


class BlockWeight(Record, frozen=True):
    """An integer weight split into the k-block and the (n-k)-block."""

    __slots__ = ("ctx", "first", "second")

    def __init__(self, ctx: GrassContext, first: tuple, second: tuple):
        first = tuple(int(x) for x in first)
        second = tuple(int(x) for x in second)
        if len(first) != ctx.k:
            raise StructureError(
                f"first block has length {len(first)}, expected k={ctx.k}"
            )
        if len(second) != ctx.n - ctx.k:
            raise StructureError(
                f"second block has length {len(second)}, "
                f"expected n-k={ctx.n - ctx.k}"
            )
        _set(self, "ctx", ctx)
        _set(self, "first", first)
        _set(self, "second", second)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ctx, self.first, self.second) == (
                other.ctx,
                other.first,
                other.second,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.first, self.second))

    @classmethod
    def from_first(cls, ctx: GrassContext, first) -> "BlockWeight":
        """Weight with the given k-block and a zero second block."""
        return cls(ctx, tuple(first), (0,) * (ctx.n - ctx.k))

    def is_dominant(self) -> bool:
        """True when both blocks are nonincreasing."""
        return nonincreasing(self.first) and nonincreasing(self.second)

    def first_sum(self) -> int:
        """Sum of the k-block entries (the degree of the weight)."""
        return sum(self.first)

    def canonical(self) -> str:
        """Canonical text form ``k,n:[a1,...,ak|b1,...,b_{n-k}]``."""
        f = ",".join(str(x) for x in self.first)
        s = ",".join(str(x) for x in self.second)
        return f"{self.ctx.k},{self.ctx.n}:[{f}|{s}]"

    def __str__(self) -> str:
        return self.canonical()


def is_globally_generated(w: BlockWeight) -> bool:
    """True when the concatenated length-n vector is nonincreasing.

    The corresponding homogeneous bundle is globally generated exactly
    in this case.
    """
    return nonincreasing(w.first + w.second)


def require_globally_generated(w: BlockWeight) -> None:
    """Refuse ``w`` as a summand of the section bundle F unless it is
    globally generated; the one check of that hypothesis."""
    if not is_globally_generated(w):
        raise DomainError(f"summand {w} of F is not globally generated")


def dual_weight(w: BlockWeight) -> BlockWeight:
    """Highest weight of the dual bundle: each block reversed and negated."""
    return BlockWeight(
        w.ctx,
        tuple(-x for x in reversed(w.first)),
        tuple(-x for x in reversed(w.second)),
    )


def twist(w: BlockWeight, r: int) -> BlockWeight:
    """Tensor with the r-th power of the Pluecker line bundle: adds r to
    every entry of the k-block."""
    return BlockWeight(w.ctx, tuple(x + r for x in w.first), w.second)

