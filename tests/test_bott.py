import random

import pytest

from grassbott import expr as ex
from grassbott.bott import (
    bott_degree,
    bott_irreducible,
    cohomology,
    cohomology_of,
    euler_characteristic,
    profile_to_json,
)
from grassbott.dims import sl_dim
from grassbott.errors import DomainError
from grassbott.schur import evaluate
from grassbott.weights import BlockWeight, FullWeight, GrassContext, full_weight

CTX = GrassContext(2, 5)


def fw(ctx, entries):
    return FullWeight(ctx, entries)


def test_shift_vector():
    assert bott_degree((-1, -4, 0, 0, 0))[1] == (4, 0, 3, 2, 1)


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
        bott_irreducible(fw(CTX, (0, 1, 0, 0, 0)))


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
        profile = bott_irreducible(full_weight(BlockWeight(ctx, first, second)))
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


def test_cohomology_of_matches_expression_route():
    e = ex.Wedge(2, ex.THETA)
    assert cohomology_of(evaluate(e, CTX)) == cohomology(e, CTX)


def test_euler_and_json():
    profile = {0: 2, 3: 5}
    assert euler_characteristic(profile) == -3
    assert profile_to_json(profile) == {"0": "2", "3": "5"}
