import hashlib
import json
import random
from itertools import permutations
from math import comb

import pytest

from grassbott import expr as ex
from grassbott import schur
from grassbott.cache import Store
from grassbott.dims import block_rank, sl_dim, straighten
from grassbott.errors import (
    DomainError,
    NotACharacterError,
    OracleBudgetError,
    StructureError,
)
from grassbott.schur import (
    Decomposition,
    _gt_character,
    _peel,
    evaluate,
    lr_tensor,
    oracle_power,
    sym_power,
    wedge_power,
)
from grassbott.weights import BlockWeight, GrassContext, is_globally_generated

CTX = GrassContext(2, 5)


def irr(ctx, first):
    return Decomposition(ctx, {BlockWeight.from_first(ctx, first): 1})


def peel_one_block(table, k):
    """``_peel`` of a one-block character: an empty second block."""
    return {first: m for (first, _), m in _peel(table, k).items()}


def test_gt_weights_examples():
    assert _gt_character((1, 0)) == {(1, 0): 1, (0, 1): 1}
    assert _gt_character((3, 0)) == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    ch = _gt_character((2, 1, 0))
    assert sum(ch.values()) == 8
    assert ch[(1, 1, 1)] == 2


def test_gt_weights_negative_entries():
    assert _gt_character((0, -1)) == {(0, -1): 1, (-1, 0): 1}


def test_gt_weights_mass_equals_rank():
    for lam in [(2, 0), (2, 1, 0), (3, 1, 1, 0), (2, 2, 0)]:
        assert sum(_gt_character(lam).values()) == sl_dim(lam)


def _ssyt_character(lam, k):
    """Independent oracle: count semistandard fillings cell by cell."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filling = {}
    table = {}

    def walk(idx):
        if idx == len(cells):
            weight = [0] * k
            for v in filling.values():
                weight[v - 1] += 1
            key = tuple(weight)
            table[key] = table.get(key, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, filling[(i, j - 1)])
        if i > 0:
            lo = max(lo, filling[(i - 1, j)] + 1)
        for v in range(lo, k + 1):
            filling[(i, j)] = v
            walk(idx + 1)
        filling.pop((i, j), None)

    walk(0)
    return table


def test_gt_weights_against_ssyt_oracle():
    for lam, k in [((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 3), ((3, 2), 4)]:
        padded = tuple(lam) + (0,) * (k - len(lam))
        assert _gt_character(padded) == _ssyt_character(lam, k)


def test_character_weyl_symmetry():
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        table = _gt_character(lam)
        for w, m in table.items():
            for perm in permutations(w):
                assert table[perm] == m


def test_decompose_character_examples():
    assert peel_one_block(_gt_character((2, 0)), 2) == {(2, 0): 1}
    # pointwise product of the standard character with itself
    std = _gt_character((1, 0))
    prod = {}
    for a, ma in std.items():
        for b, mb in std.items():
            key = (a[0] + b[0], a[1] + b[1])
            prod[key] = prod.get(key, 0) + ma * mb
    assert peel_one_block(prod, 2) == {(2, 0): 1, (1, 1): 1}


def test_decompose_character_wedge_oracle():
    # brute force over 2-subsets of the four weights of the cubic power
    weights = [(3, 0), (2, 1), (1, 2), (0, 3)]
    table = {}
    for i in range(4):
        for j in range(i + 1, 4):
            key = (weights[i][0] + weights[j][0], weights[i][1] + weights[j][1])
            table[key] = table.get(key, 0) + 1
    assert peel_one_block(table, 2) == {(5, 1): 1, (3, 3): 1}


def test_decompose_character_rejects_garbage():
    with pytest.raises(NotACharacterError):
        peel_one_block({(1, 0): 1, (0, 1): 2}, 2)


def test_peel_rejects_two_block_garbage():
    # (1,0|0) alone is not a character of GL(2) x GL(1): its Weyl image
    # (0,1|0) is missing
    with pytest.raises(NotACharacterError):
        _peel({(1, 0, 0): 1}, 2)
    assert _peel({(1, 0, 0): 1, (0, 1, 0): 1}, 2) == {((1, 0), (0,)): 1}


def test_straighten_repeated_entry_vanishes():
    # w + rho has a repeated entry: (2,2), (5,5,1), (3,2,3)
    assert straighten((0, 1)) is None
    assert straighten((2, 3, 0)) is None
    assert straighten((0, 0, 2)) is None
    assert straighten((3, 1, 0)) == (0, (3, 1, 0))
    assert straighten(()) == (0, ())


def test_straighten_adjacent_swap_flips_sign():
    # an adjacent swap of block + rho is a simple reflection: it keeps
    # the dominant weight and changes the length by exactly one
    rng = random.Random(17)
    for _ in range(60):
        b = rng.randint(2, 5)
        block = tuple(rng.randint(-3, 4) for _ in range(b))
        got = straighten(block)
        if got is None:
            continue
        length, dominant = got
        assert all(dominant[i] >= dominant[i + 1] for i in range(b - 1))
        shifted = [x + b - i for i, x in enumerate(block)]
        i = rng.randrange(b - 1)
        shifted[i], shifted[i + 1] = shifted[i + 1], shifted[i]
        swapped = tuple(x - (b - j) for j, x in enumerate(shifted))
        other, again = straighten(swapped)
        assert again == dominant
        assert abs(other - length) == 1


def test_lr_tensor_examples():
    a = irr(CTX, (1, 0))
    out = lr_tensor(a, a)
    assert {w.first: m for w, m in out.items()} == {(2, 0): 1, (1, 1): 1}
    out = lr_tensor(irr(CTX, (2, 0)), irr(CTX, (1, 1)))
    assert {w.first: m for w, m in out.items()} == {(3, 1): 1}


def test_lr_tensor_known_gl3_square():
    ctx = GrassContext(3, 5)
    out = lr_tensor(irr(ctx, (2, 1, 0)), irr(ctx, (2, 1, 0)))
    assert {w.first: m for w, m in out.items()} == {
        (4, 2, 0): 1,
        (4, 1, 1): 1,
        (3, 3, 0): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
    }


def test_lr_tensor_context_mismatch():
    with pytest.raises(StructureError):
        lr_tensor(irr(CTX, (1, 0)), irr(GrassContext(2, 4), (1, 0)))


def _character_product_oracle(ctx, first_a, first_b):
    """Independent route: multiply single-block characters pointwise and
    peel, instead of the tableau rule."""
    ca = _gt_character(first_a)
    cb = _gt_character(first_b)
    prod = {}
    for a, ma in ca.items():
        for b, mb in cb.items():
            key = tuple(x + y for x, y in zip(a, b))
            prod[key] = prod.get(key, 0) + ma * mb
    return peel_one_block(prod, ctx.k)


def test_lr_tensor_against_character_oracle():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(2, 4)
        ctx = GrassContext(k, k + 2)
        a = tuple(sorted((rng.randint(-2, 3) for _ in range(k)), reverse=True))
        b = tuple(sorted((rng.randint(-2, 3) for _ in range(k)), reverse=True))
        got = lr_tensor(irr(ctx, a), irr(ctx, b))
        assert {w.first: m for w, m in got.items()} == _character_product_oracle(
            ctx, a, b
        )


def test_lr_tensor_commutative_associative_bilinear():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(2, 4)
        ctx = GrassContext(k, k + 1)
        lams = [
            tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
            for _ in range(3)
        ]
        a, b, c = (irr(ctx, lam) for lam in lams)
        ab = lr_tensor(a, b)
        assert ab.table == lr_tensor(b, a).table
        assert lr_tensor(ab, c).table == lr_tensor(a, lr_tensor(b, c)).table
        assert ab.rank() == a.rank() * b.rank()


def test_wedge_power_examples():
    d = irr(CTX, (3, 0))
    assert wedge_power(d, 1).table == d.table
    out = wedge_power(d, 3)
    assert {w.first: m for w, m in out.items()} == {(6, 3): 1}
    assert wedge_power(d, 5).table == {}


def test_wedge_top_is_determinant():
    for ctx, first in [
        (CTX, (3, 0)),
        (GrassContext(3, 6), (2, 1, 0)),
        (GrassContext(3, 6), (1, 1, 0)),
    ]:
        w = BlockWeight.from_first(ctx, first)
        d = Decomposition(ctx, {w: 1})
        rank = d.rank()
        top = wedge_power(d, rank)
        ((tw, m),) = tuple(top.items())
        assert m == 1
        coeff = rank * sum(first) // ctx.k
        assert tw.first == (coeff,) * ctx.k
        assert tw.second == (0,) * (ctx.n - ctx.k)


def test_sym_power_examples():
    d = irr(CTX, (1, 0))
    assert sym_power(d, 1).table == d.table
    assert {w.first: m for w, m in sym_power(d, 3).items()} == {(3, 0): 1}
    out = sym_power(irr(CTX, (1, 1)), 2)
    assert {w.first: m for w, m in out.items()} == {(2, 2): 1}


def test_power_dimension_conservation():
    rng = random.Random(13)
    for _ in range(10):
        k = rng.randint(2, 3)
        ctx = GrassContext(k, k + 2)
        first = tuple(sorted((rng.randint(0, 2) for _ in range(k)), reverse=True))
        d = irr(ctx, first)
        rank = d.rank()
        for p in range(rank + 1):
            assert wedge_power(d, p).rank() == comb(rank, p)
            if p <= 3:
                assert sym_power(d, p).rank() == comb(rank + p - 1, p)


def test_oracle_fast_agreement_small():
    ctx = GrassContext(2, 4)
    for first in [(2, 0), (3, 1), (2, 2)]:
        d = irr(ctx, first)
        rank = d.rank()
        for p in range(rank + 1):
            assert wedge_power(d, p).table == oracle_power(d, p, "wedge").table
        for p in range(4):
            assert sym_power(d, p).table == oracle_power(d, p, "sym").table


def test_oracle_fast_agreement_two_block():
    # wedge of the tangent bundle mixes both blocks
    ctx = GrassContext(2, 4)
    theta = evaluate(ex.THETA, ctx)
    for p in range(5):
        assert (
            wedge_power(theta, p).table
            == oracle_power(theta, p, "wedge").table
        )


def test_oracle_fast_agreement_both_blocks():
    # both blocks have size >= 2 and a non-constant weight, so the
    # straightening of the second block is exercised beyond Theta
    rng = random.Random(23)
    checked = 0
    for k, n in [(2, 4), (2, 5), (3, 5)]:
        ctx = GrassContext(k, n)
        drawn = 0
        while drawn < 3:
            first = tuple(sorted((rng.randint(-1, 2) for _ in range(k)), reverse=True))
            second = tuple(
                sorted((rng.randint(-1, 1) for _ in range(n - k)), reverse=True)
            )
            d = Decomposition(ctx, {BlockWeight(ctx, first, second): 1})
            rank = d.rank()
            if len(set(first)) == 1 or len(set(second)) == 1 or rank > 16:
                continue
            drawn += 1
            for p in range(rank + 1):
                assert wedge_power(d, p).table == oracle_power(d, p, "wedge").table
                checked += 1
            for p in range(4):
                assert sym_power(d, p).table == oracle_power(d, p, "sym").table
                checked += 1
    assert checked > 100


# sha256 of canonical_text() for powers of irr[2,1,1,1,0] on Gr(5,7)
# (rank 24), recorded with the Newton-recursion and Weyl-alternant
# kernel that the straightening kernel replaced
GOLDEN_GR57 = {
    ("wedge", 8): "bba0a27b6102b7ce342f4e751a7334313437b2138d5b4a668b933a98a142f9cc",
    ("wedge", 12): "6bb8bb3f1c68b62e1a576ed85be54106341bdef7539e68c3d74489159700ae62",
    ("sym", 6): "e9e55027ba231f33c9a78d9a1ea0517599cc623e412c47473b5c2e8253dd8f17",
}


def test_power_golden_digests_gr57():
    ctx = GrassContext(5, 7)
    d = Decomposition(ctx, {BlockWeight(ctx, (2, 1, 1, 1, 0), (0, 0)): 1})
    power = {"wedge": wedge_power, "sym": sym_power}
    for (kind, p), digest in GOLDEN_GR57.items():
        text = power[kind](d, p).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reducible_wedge_binomial_expansion():
    ctx = GrassContext(2, 5)
    a = BlockWeight.from_first(ctx, (2, 0))
    b = BlockWeight.from_first(ctx, (1, 1))
    d = Decomposition(ctx, {a: 1, b: 2})
    rank = d.rank()
    for p in range(rank + 1):
        fast = wedge_power(d, p)
        assert fast.rank() == comb(rank, p)
        assert fast.table == oracle_power(d, p, "wedge").table


def _reducible_sums(rng, count):
    """``count`` direct sums of 2-3 irreducible k-block weights, k <= 3,
    n <= 6, total rank <= 12, with the rank of each."""
    contexts = [GrassContext(k, n) for k, n in ((1, 4), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6))]
    sums = []
    while len(sums) < count:
        ctx = rng.choice(contexts)
        table: dict = {}
        for _ in range(rng.randint(2, 3)):
            first = tuple(sorted((rng.randint(-1, 2) for _ in range(ctx.k)), reverse=True))
            w = BlockWeight.from_first(ctx, first)
            table[w] = table.get(w, 0) + 1
        d = Decomposition(ctx, table)
        if d.rank() <= 12:
            sums.append((d, d.rank()))
    return sums


def test_reducible_powers_match_oracle_with_and_without_store(tmp_path, monkeypatch):
    # the store keys a power by the canonical text of its input, which
    # for a sum lists several summands; results must agree with the
    # oracle computed without a store, cold from a store and warm from it
    cases = []
    for d, rank in _reducible_sums(random.Random(2601), 30):
        for kind, ps in (("wedge", range(rank + 2)), ("sym", range(4))):
            for p in ps:
                try:
                    cases.append((d, p, kind, oracle_power(d, p, kind).table))
                except OracleBudgetError:
                    continue
    assert len(cases) > 200
    power = {"wedge": wedge_power, "sym": sym_power}

    def check(store):
        schur.set_store(store)
        for d, p, kind, oracle in cases:
            assert power[kind](d, p).table == oracle, (d.canonical_text(), p, kind)

    try:
        check(None)
        check(Store(tmp_path))
        # warm: every nontrivial power must be read back, not expanded
        monkeypatch.setattr(schur, "_power_char", None)
        check(Store(tmp_path))
    finally:
        schur.set_store(None)
    entries = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
    assert entries and {entry["operation"] for entry in entries} == {"power"}


def test_evaluate_atoms_and_identities():
    theta = evaluate(ex.THETA, CTX)
    assert {(w.first, w.second): m for w, m in theta.items()} == {
        ((1, 0), (0, 0, -1)): 1
    }
    assert evaluate(ex.Tensor(ex.Q, ex.Dual(ex.S)), CTX).table == theta.table
    line = evaluate(ex.Line(1), CTX)
    assert {(w.first, w.second): m for w, m in line.items()} == {((1, 1), (0, 0, 0)): 1}
    assert theta.rank() == CTX.dimension


def test_evaluate_chain():
    e = ex.Twist(ex.Dual(ex.Wedge(3, ex.Sym(3, ex.Q))), 2)
    d = evaluate(e, CTX)
    assert {w.first: m for w, m in d.items()} == {(-1, -4): 1}


def test_evaluate_rank_through_nodes():
    e = ex.Tensor(ex.THETA, ex.Wedge(2, ex.Sym(2, ex.Q)))
    d = evaluate(e, CTX)
    s2q = evaluate(ex.Sym(2, ex.Q), CTX)
    assert d.rank() == CTX.dimension * comb(s2q.rank(), 2)


def test_evaluate_rejects_non_dominant_irr():
    with pytest.raises(DomainError):
        evaluate(ex.Irr(BlockWeight.from_first(CTX, (0, 1))), CTX)


def test_globally_generated_closed_under_powers():
    ctx = GrassContext(3, 6)
    w = BlockWeight.from_first(ctx, (2, 1, 0))
    assert is_globally_generated(w)
    d = Decomposition(ctx, {w: 1})
    for p in (2, 3):
        for out in (wedge_power(d, p), sym_power(d, p)):
            for summand, _ in out.items():
                assert is_globally_generated(summand)


def test_decomposition_json_roundtrip():
    d = evaluate(ex.Wedge(2, ex.THETA), CTX)
    again = Decomposition.from_json(d.to_json())
    assert again.ctx == d.ctx and again.table == d.table
