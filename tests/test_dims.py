from math import comb

import pytest

from grassbott.dims import block_rank, sl_dim
from grassbott.errors import DomainError
from grassbott.weights import BlockWeight, GrassContext, dual_weight, twist


def test_sl_dim_basics():
    assert sl_dim(()) == 1
    assert sl_dim((0, 0, 0, 0, 0)) == 1
    assert sl_dim((1, 1, 0, 0)) == 6
    # brute-force oracle: the adjoint representation has dimension n^2 - 1
    assert sl_dim((1, 0, 0, 0, -1)) == 5 * 5 - 1


def test_sl_dim_shift_invariance():
    for lam in [(3, 1, 0), (2, 2, 1, 0), (5, 0, -2)]:
        base = sl_dim(lam)
        for c in (-3, -1, 1, 4):
            assert sl_dim(tuple(x + c for x in lam)) == base


def test_sl_dim_rejects_non_dominant():
    # a valid call first, so the checks are seen to run on weights the
    # Weyl product has already been computed for
    assert sl_dim((3, 1, 0)) == 15
    assert sl_dim((2, 0)) == 3
    with pytest.raises(DomainError):
        sl_dim((0, 1))
    with pytest.raises(DomainError):
        sl_dim((1, 0), 3)
    with pytest.raises(DomainError):
        sl_dim((3, 1, 0), 4)
    with pytest.raises(DomainError):
        sl_dim((0, 1, 3))
    with pytest.raises(DomainError):
        sl_dim((0, 2))


def test_block_rank_examples():
    ctx = GrassContext(2, 5)
    assert block_rank(BlockWeight.from_first(ctx, (1, 0))) == 2
    for k in range(2, 8):
        ctx = GrassContext(k, k + 2)
        for c in range(1, 6):
            w = BlockWeight.from_first(ctx, (c,) + (0,) * (k - 1))
            assert block_rank(w) == comb(k + c - 1, c)
    ctx = GrassContext(4, 6)
    assert block_rank(BlockWeight.from_first(ctx, (2, 1, 0, 0))) == 20


def test_rank_formula_goldens():
    # the four closed-form identities used in the candidate pruning
    for k in range(4, 11):
        ctx = GrassContext(k, k + 1)
        unit = BlockWeight.from_first(ctx, (1,) + (0,) * (k - 1))
        assert block_rank(unit) == k
        for c in range(1, 7):
            w = BlockWeight.from_first(ctx, (c,) + (0,) * (k - 1))
            assert block_rank(w) == comb(k + c - 1, c)
        w21 = BlockWeight.from_first(ctx, (2, 1) + (0,) * (k - 2))
        assert 3 * block_rank(w21) == k * (k * k - 1)
        w22 = BlockWeight.from_first(ctx, (2, 2) + (0,) * (k - 2))
        assert 4 * block_rank(w22) == k * k * (k * k - 1) // 3


def test_block_rank_invariances():
    ctx = GrassContext(3, 7)
    for first in [(2, 1, 0), (3, 3, 1), (4, 0, 0)]:
        w = BlockWeight.from_first(ctx, first)
        assert block_rank(dual_weight(w)) == block_rank(w)
        for r in (-2, 1, 5):
            assert block_rank(twist(w, r)) == block_rank(w)


def test_block_rank_rejects_non_dominant():
    ctx = GrassContext(2, 4)
    with pytest.raises(DomainError):
        block_rank(BlockWeight.from_first(ctx, (0, 1)))


def _hook_content_dim(lam, k):
    """Independent oracle: the hook-content formula over the cells of
    the Young diagram."""
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0)]
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= k + j - i
            den *= row - j + conj[j] - i - 1
    assert num % den == 0
    return num // den


def test_sl_dim_against_hook_content_oracle():
    cases = [
        ((3, 1), 2),
        ((2, 1, 0), 3),
        ((4, 2, 1), 3),
        ((3, 3, 0, 0), 4),
        ((2, 2, 1, 0), 4),
        ((5, 0), 2),
        ((2, 1, 1, 1, 0), 5),
    ]
    for lam, k in cases:
        padded = tuple(lam) + (0,) * (k - len(lam))
        assert sl_dim(padded, k) == _hook_content_dim([x for x in lam if x], k)
