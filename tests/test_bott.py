import random
from fractions import Fraction

import pytest

from grassbott import clear_caches
from grassbott import expr as ex
from grassbott.bott import (
    bott_irreducible,
    cohomology,
    cohomology_of,
    euler_characteristic,
    profile_to_json,
)
from grassbott.cache import Store
from grassbott.dims import sl_dim, straighten
from grassbott.errors import DomainError
from grassbott.koszul import _column_expr
from grassbott.schur import evaluate, set_store
from grassbott.weights import BlockWeight, GrassContext

CTX = GrassContext(2, 5)


def fw(ctx, entries):
    return BlockWeight(ctx, entries[: ctx.k], entries[ctx.k :])


def test_shift_vector():
    assert straighten((-1, -4, 0, 0, 0)) == (3, (-1, -1, -1, -1, -1))


def test_trivial_bundle():
    assert bott_irreducible(fw(CTX, (0, 0, 0, 0, 0))) == {0: 1}


def test_canonical_bundle_top_degree():
    for k, n in [(2, 5), (1, 4), (3, 6), (2, 4)]:
        ctx = GrassContext(k, n)
        gamma = fw(ctx, (-n,) * k + (0,) * (n - k))
        assert bott_irreducible(gamma) == {ctx.dimension: 1}


def test_counterexample_group():
    # the degree-3 group behind the quadratic-normality failure on Gr(2,5)
    assert bott_irreducible(fw(CTX, (-1, -4, 0, 0, 0))) == {3: 1}


def test_repeated_entry_vanishes():
    assert bott_irreducible(fw(CTX, (2, -1, 0, 0, 0))) == {}


def test_rejects_non_dominant_blocks():
    with pytest.raises(DomainError):
        bott_irreducible(BlockWeight(CTX, (0, 1), (0, 0, 0)))


def test_dominant_full_weight_lives_in_degree_zero():
    rng = random.Random(99)
    for _ in range(30):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, 7)
        ctx = GrassContext(k, n)
        entries = tuple(
            sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        )
        profile = bott_irreducible(fw(ctx, entries))
        assert profile == {0: sl_dim(entries)}


def _weyl_chi(lam):
    """The Weyl dimension polynomial at any weight: by Bott's theorem it
    is the Euler characteristic of the bundle.  No sort, no inversion
    count."""
    n = len(lam)
    chi = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            chi *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return chi


def test_euler_characteristic_matches_weyl_polynomial():
    rng = random.Random(1976)
    contexts = [GrassContext(k, n) for n in range(3, 11) for k in range(1, min(n, 6))]
    nonzero = 0
    for _ in range(2100):
        ctx = rng.choice(contexts)
        k, n = ctx.k, ctx.n
        first = tuple(sorted((rng.randint(-n, n) for _ in range(k)), reverse=True))
        second = tuple(sorted((rng.randint(-n, n) for _ in range(n - k)), reverse=True))
        w = BlockWeight(ctx, first, second)
        profile = bott_irreducible(w)
        assert euler_characteristic(profile) == _weyl_chi(first + second), w
        nonzero += bool(profile)
    assert nonzero >= 1000


def test_cohomology_examples():
    assert cohomology(ex.Line(1), GrassContext(2, 4)) == {0: 6}
    assert cohomology(ex.THETA, CTX) == {0: 24}
    assert cohomology(ex.Twist(ex.Dual(ex.Wedge(3, ex.Sym(3, ex.Q))), 2), CTX) == {3: 1}


def test_cohomology_additive_over_sums():
    e = ex.DirectSum(ex.Line(1), ex.THETA)
    assert cohomology(e, CTX) == {0: 10 + 24}


def test_irreducible_single_degree():
    rng = random.Random(4)
    for _ in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, 7)
        ctx = GrassContext(k, n)
        first = tuple(sorted((rng.randint(-4, 4) for _ in range(k)), reverse=True))
        second = tuple(
            sorted((rng.randint(-4, 4) for _ in range(n - k)), reverse=True)
        )
        profile = bott_irreducible(BlockWeight(ctx, first, second))
        assert len(profile) <= 1


def test_line_bundles_no_intermediate_cohomology():
    for k in range(1, 6):
        for n in range(k + 1, 7):
            ctx = GrassContext(k, n)
            top = ctx.dimension
            for r in range(-2 * n, 2 * n + 1):
                profile = cohomology(ex.Line(r), ctx)
                assert set(profile) <= {0, top}, (k, n, r)


def test_serre_duality_profiles():
    rng = random.Random(17)
    checked = 0
    while checked < 50:
        k = rng.randint(1, 5)
        n = rng.randint(k + 1, 6)
        ctx = GrassContext(k, n)
        first = tuple(sorted((rng.randint(-3, 3) for _ in range(k)), reverse=True))
        e = ex.Twist(ex.Irr(BlockWeight.from_first(ctx, first)), rng.randint(-2, 2))
        profile = cohomology(e, ctx)
        dual = cohomology(ex.Twist(ex.Dual(e), -n), ctx)
        assert profile == {ctx.dimension - p: d for p, d in dual.items()}
        checked += 1


def _koszul_columns(rng):
    """Seeded Koszul columns E (x) wedge^q F* on three Grassmannians, with
    E a line bundle O(r), F, Theta or Q and F irreducible or a sum."""
    sections = {
        (2, 5): ["sym(2,Q)", "irr[2,1]", "sum(Q,O(1))", "sum(sym(2,Q),O(2))"],
        (3, 6): ["Q", "irr[1,1,0]", "sum(Q,O(1))", "sum(wedge(2,Q),O(1))"],
        (2, 4): ["sym(3,Q)", "irr[2,1]", "sum(Q,O(2))", "sum(Q,Q)"],
    }
    for (k, n), texts in sections.items():
        ctx = GrassContext(k, n)
        for text in texts:
            f = ex.parse_expr(text, ctx)
            rank = evaluate(f, ctx).rank()
            for e in [ex.Line(r) for r in range(-2, 4)] + [f, ex.THETA, ex.Q]:
                yield ctx, _column_expr(e, f, rng.randint(0, rank))


def test_cohomology_of_matches_expression_route(tmp_path):
    # a Tensor node's profile is read off the LR pairs of its children;
    # it must equal Bott summed over the product's decomposition, when
    # computed without a store, when computed with one and when read
    # back from it
    cases = [(CTX, ex.Wedge(2, ex.THETA))] + list(_koszul_columns(random.Random(2205)))
    try:
        for store in (None, Store(tmp_path), Store(tmp_path)):
            clear_caches()
            set_store(store)
            for ctx, e in cases:
                assert cohomology(e, ctx) == cohomology_of(evaluate(e, ctx)), (ctx, e)
    finally:
        set_store(None)
        clear_caches()


def test_euler_and_json():
    profile = {0: 2, 3: 5}
    assert euler_characteristic(profile) == -3
    assert profile_to_json(profile) == {"0": "2", "3": "5"}
