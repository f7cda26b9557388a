import copy
import pickle
import random

import pytest

from grassbott.errors import StructureError
from grassbott.weights import (
    BlockWeight,
    GrassContext,
    dual_weight,
    is_globally_generated,
    twist,
)

CTX = GrassContext(2, 5)


def w(first, second=None, ctx=CTX):
    if second is None:
        return BlockWeight.from_first(ctx, first)
    return BlockWeight(ctx, first, second)


def test_context_validation():
    GrassContext(1, 2)
    with pytest.raises(StructureError):
        GrassContext(2, 2)
    with pytest.raises(StructureError):
        GrassContext(0, 3)


def test_context_derived_quantities():
    assert CTX.dimension == 6
    assert CTX.plucker_ambient_dim == 9
    assert GrassContext(1, 4).dimension == 3


def test_block_length_validation():
    with pytest.raises(StructureError):
        BlockWeight(CTX, (1, 0, 0), (0, 0, 0))
    with pytest.raises(StructureError):
        BlockWeight(CTX, (1, 0), (0, 0))


def test_globally_generated():
    assert is_globally_generated(w((2, 1)))
    assert not is_globally_generated(w((1, 2)))
    assert is_globally_generated(w((1, 1)))
    # The tangent bundle weight is nonincreasing as a full vector.
    assert is_globally_generated(w((1, 0), (0, 0, -1)))
    # A weight can be dominant per block without being globally generated.
    assert w((0, 0), (1, 0, 0)).is_dominant()
    assert not is_globally_generated(w((0, 0), (1, 0, 0)))


def test_dual_weight_examples():
    assert dual_weight(w((1, 0))) == w((0, -1))
    assert dual_weight(w((3, 0))) == w((0, -3))
    assert dual_weight(w((1, 0), (0, 0, -1))) == w((0, -1), (1, 0, 0))


def test_twist_examples():
    assert twist(w((0, 0)), 1) == w((1, 1))
    assert twist(w((-3, -6)), 2) == w((-1, -4))
    assert twist(w((2, 1)), 0) == w((2, 1))


def _random_weight(rng):
    k = rng.randint(1, 5)
    n = rng.randint(k + 1, 8)
    ctx = GrassContext(k, n)
    first = tuple(rng.randint(-6, 6) for _ in range(k))
    second = tuple(rng.randint(-6, 6) for _ in range(n - k))
    return BlockWeight(ctx, first, second)


def test_dual_involution_and_twist_laws():
    rng = random.Random(20240817)
    for _ in range(1000):
        v = _random_weight(rng)
        r = rng.randint(-5, 5)
        a = rng.randint(-5, 5)
        assert dual_weight(dual_weight(v)) == v
        assert dual_weight(twist(v, r)) == twist(dual_weight(v), -r)
        assert twist(twist(v, a), r) == twist(v, a + r)
        if v.is_dominant():
            assert dual_weight(v).is_dominant()


def test_canonical_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        v = _random_weight(rng)
        assert BlockWeight.from_canonical(v.canonical()) == v
    assert w((1, 1)).canonical() == "2,5:[1,1|0,0,0]"
    with pytest.raises(StructureError):
        BlockWeight.from_canonical("nonsense")


def test_first_sum():
    assert w((3, 2)).first_sum() == 5


def test_context_and_weight_are_hashable_frozen_values():
    v = w((2, 1))
    assert hash(CTX) == hash((2, 5))
    assert hash(v) == hash((CTX, (2, 1), (0, 0, 0)))
    assert CTX != (2, 5) and v != (CTX, (2, 1), (0, 0, 0))
    for value, name in ((CTX, "k"), (CTX, "n"), (v, "ctx"), (v, "first"), (v, "second")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (CTX.k, CTX.n, v.first) == (2, 5, (2, 1))
    assert copy.deepcopy(v) == v == pickle.loads(pickle.dumps(v))
