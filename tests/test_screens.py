import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from grassbott import screens
from grassbott.dims import sl_dim
from grassbott.errors import DomainError, StructureError
from grassbott.schur import _gt_character
from grassbott.screens import (
    LEMMA54_MAX_K,
    _partitions_at_most,
    enumerate_lemma54,
    find_witnesses_41,
    find_witnesses_5,
    screen,
)
from grassbott.theorems import cross_validate
from grassbott.weights import BlockWeight, GrassContext

CTX25 = GrassContext(2, 5)


def displayed(witnesses):
    """The witnesses that meet their chain as displayed, Fano-range line
    included."""
    return [w for w in witnesses if w.fano_line]


def test_screen_counterexample_not_fano():
    rep = screen(CTX25, [(3, 0)])
    assert rep.det_coefficient == Fraction(6)
    assert not rep.is_fano
    assert rep.dim_x == 2 and rep.positive_dimension


def test_screen_fano_line_bundle():
    rep = screen(CTX25, [(1, 1)])
    assert rep.is_fano and rep.dim_x == 5
    assert rep.det_coefficient == 1


def test_screen_exclusions():
    assert "Gr(k,n-1)" in screen(CTX25, [(1, 0)]).excluded
    assert "quadrics" in screen(GrassContext(2, 4), [(2, 0)]).excluded
    assert "empty" in screen(GrassContext(3, 5), [(2, 0, 0)]).excluded
    assert "empty" in screen(GrassContext(3, 5), [(1, 1, 0)]).excluded
    assert screen(CTX25, [(2, 1)]).excluded is None


def test_screen_sum_additivity():
    # determinant coefficients add over direct summands
    rep = screen(GrassContext(2, 6), [(2, 0), (1, 1)])
    assert rep.det_coefficient == Fraction(3) + Fraction(1)
    assert rep.rank_f == 4
    assert rep.is_fano  # 6 > 4
    assert rep.excluded is None  # tags only apply to a single summand


def _sweep_candidates():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep_candidates()


def test_det_coefficient_matches_character_oracle():
    # sum of m * mu_1 over the Gelfand-Tsetlin weights mu of V_beta: by
    # the Weyl symmetry of the character it is rank * |beta| / k
    cases = [(k, n, [b]) for k, n, b in _sweep_candidates()]
    cases += [(2, 6, [(2, 0), (1, 1)]), (3, 7, [(2, 1, 0), (1, 0, 0), (1, 1, 1)])]
    for k, n, betas in cases:
        coeff = screen(GrassContext(k, n), betas).det_coefficient
        oracle = sum(
            m * mu[0] for beta in betas for mu, m in _gt_character(tuple(beta)).items()
        )
        assert type(coeff) is int and coeff == oracle, (k, n, betas)


def test_screen_input_validation():
    with pytest.raises(DomainError):
        screen(CTX25, [(0, 1)])
    with pytest.raises(StructureError):
        screen(CTX25, [BlockWeight(CTX25, (0, 0), (1, 0, 0))])


def test_witness_41_rank_one_bundle():
    assert displayed(find_witnesses_41(CTX25, (1, 1))) == []


def test_witness_41_displayed_chain_misses_counterexample():
    # the scan fails on Gr(2,5) for the cubic power, but the displayed
    # chain includes the Fano-range line b_1 <= n-1 which the weight
    # (6,3) violates; no witness is displayed and the search without
    # that line exhibits the triple (s=1, r=2, (6,3))
    relaxed = find_witnesses_41(CTX25, (3, 0))
    assert displayed(relaxed) == []
    assert [(w.s, w.r, w.weight) for w in relaxed] == [(1, 2, (6, 3))]


def test_witness_41_strict_hit_with_rank_bound():
    wits = displayed(find_witnesses_41(GrassContext(2, 4), (2, 0)))
    assert [(w.s, w.r, w.weight) for w in wits] == [(1, 0, (3, 1))]
    # rank * size = 6 < k^2(k-1)/(s(size-1)) + k^2 = 8
    assert wits[0].bound_holds is True


def test_witness_41_k2_forces_s1_r0():
    # any witness over k=2 has s=1 and r=0 (the Fano-range line pins r)
    for n in range(4, 9):
        ctx = GrassContext(2, n)
        for first in [(2, 0), (2, 1), (3, 1), (2, 2), (3, 0)]:
            for w in displayed(find_witnesses_41(ctx, first)):
                assert w.s == 1 and w.r == 0


def test_witness_5_examples():
    assert displayed(find_witnesses_5(CTX25, (1, 1), "a")) == []
    assert displayed(find_witnesses_5(CTX25, (1, 1), "b")) == []
    assert displayed(find_witnesses_5(CTX25, (1, 1), "b'")) == []
    with pytest.raises(StructureError):
        find_witnesses_5(CTX25, (1, 1), "c")


def test_witness_5_pair_type_never_satisfies_b():
    # weights of wedge powers of the two-row type stay at or below
    # n-k-1, so system b has no witness
    for k, n in [(3, 6), (4, 8), (4, 7)]:
        ctx = GrassContext(k, n)
        first = (1, 1) + (0,) * (k - 2)
        assert displayed(find_witnesses_5(ctx, first, "b")) == []


def test_witness_5_strict_hit():
    # the two-component quadric case genuinely violates the deformation
    # scan, and system a sees it
    wits = displayed(find_witnesses_5(GrassContext(2, 4), (2, 0), "a"))
    assert [(w.s, w.weight) for w in wits] == [(1, (3, -1))]


def _expected_families(k: int):
    expected = set()
    for t in range(1, 2 * k):
        if t * k >= 3:
            expected.add(((t,) * k, max(k, t) + 1, 2 * k))
    expected.add(((2,) + (1,) * (k - 1), k + 2, 2 * k))
    expected.add(((2,) * (k - 1) + (1,), 2 * k, 2 * k))
    expected.add(((1,) * (k - 1) + (0,), k + 1, 2 * k))
    if k == 5:
        expected.add(((1, 1, 1, 0, 0), 7, 10))
    if k == 6:
        expected.add(((1, 1, 1, 0, 0, 0), 11, 12))
        expected.add(((1, 1, 1, 1, 0, 0), 11, 12))
    return expected


def test_enumerate_lemma54_exact_sets():
    for k in range(4, 13):
        got = {(c.beta, c.n_min, c.n_max) for c in enumerate_lemma54(k)}
        assert got == _expected_families(k), k
        assert all(c.family != "unlisted" for c in enumerate_lemma54(k))


def test_enumerate_lemma54_named_families():
    k5 = {c.family: c for c in enumerate_lemma54(5)}
    assert k5["ro5"].beta == (1, 1, 1, 0, 0)
    assert (k5["ro5"].n_min, k5["ro5"].n_max) == (7, 10)
    k6 = {c.family: c for c in enumerate_lemma54(6)}
    assert (k6["ro6"].beta, k6["ro6"].n_min, k6["ro6"].n_max) == (
        (1, 1, 1, 0, 0, 0),
        11,
        12,
    )
    assert (k6["ro7"].beta, k6["ro7"].n_min, k6["ro7"].n_max) == (
        (1, 1, 1, 1, 0, 0),
        11,
        12,
    )


def test_enumerate_lemma54_boundary_tight():
    # re-validate each emitted candidate and its rejected neighbours
    # against the defining inequalities
    for k in (4, 5, 6, 7):
        for c in enumerate_lemma54(k):
            rank = sl_dim(c.beta)
            size = sum(c.beta)
            assert size >= 3
            assert rank * size < c.n_min * k  # strict lower boundary holds
            assert c.n_min == max(k, (rank * size) // k) + 1
            assert c.n_max == 2 * k
            # one below the range violates a constraint
            below = c.n_min - 1
            assert below <= k or rank * size >= below * k


def test_enumerate_lemma54_rejects_small_k():
    with pytest.raises(DomainError):
        enumerate_lemma54(1)


def test_enumerate_lemma54_refuses_large_k_before_any_work(monkeypatch):
    # exponential in k: a k above the limit is refused before the walk
    # starts (never run a large k here)
    assert LEMMA54_MAX_K == 16
    monkeypatch.setattr(screens, "_partitions_at_most", None)
    with pytest.raises(DomainError, match="k = 17 exceeds the limit of 16"):
        enumerate_lemma54(17)


def test_rank_bound_holds_for_fano_witnesses():
    # instance-wise: over the enumerated Fano candidates, whenever the
    # first condition system has a witness, its rank bound holds too
    for k in (4, 5):
        for c in enumerate_lemma54(k):
            for n in range(c.n_min, c.n_max + 1):
                ctx = GrassContext(k, n)
                for w in displayed(find_witnesses_41(ctx, c.beta)):
                    assert w.bound_holds, (k, n, c.beta, w)


def test_relaxed_witness_matches_scan_exactly():
    # the chains without the Fano-range line are exactly the
    # nonvanishing condition: a scan failure at (p, r) exists iff a
    # relaxed witness with s(n-k) = p and the same r does
    from grassbott import expr as ex
    from grassbott.theorems import scan_normality

    for k, n in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]:
        ctx = GrassContext(k, n)
        betas = [(2, 0), (3, 0), (2, 1), (1, 1), (3, 1)] if k == 2 else [
            (2, 0, 0),
            (1, 1, 0),
            (2, 1, 0),
            (2, 1, 1),
        ]
        for first in betas:
            f = ex.Irr(BlockWeight.from_first(ctx, first))
            failures = scan_normality(ctx, f)
            scan_keys = {(w.p, w.r) for w in failures}
            relaxed = find_witnesses_41(ctx, first)
            witness_keys = {(w.s * (n - k), w.r) for w in relaxed}
            assert scan_keys == witness_keys, (k, n, first)


# sha256 over the displayed and then the relaxed witness list of every
# system on the grid below, recorded when the displayed and the relaxed
# searches were separate runs of each system
WITNESS_GOLDEN = "ce9cfac9a38f26a49fece6030b8bca17f174754fe3f671f53d82452f02e0ffeb"


def test_witness_search_golden():
    digest = hashlib.sha256()
    searches = shown = found = 0
    for k in (2, 3):
        for n in range(k + 2, 8):
            ctx = GrassContext(k, n)
            for size in range(1, 6):
                for beta in _partitions_at_most(size, k, size):
                    for system in ("4.1", "a", "b", "b'"):
                        if system == "4.1":
                            wits = find_witnesses_41(ctx, beta)
                        else:
                            wits = find_witnesses_5(ctx, beta, system)
                        searches += 1
                        shown += len(displayed(wits))
                        found += len(wits)
                        for ws in (displayed(wits), wits):
                            rows = [
                                (w.system, w.s, w.r, w.weight, w.bound_holds)
                                for w in ws
                            ]
                            digest.update(repr(rows).encode())
    assert (searches, shown, found) == (356, 66, 5580)
    assert digest.hexdigest() == WITNESS_GOLDEN


# sha256 over the sorted-key JSON of cross_validate, one report after
# another, on the sweep candidates with n <= 7 and rank <= 8 (in
# sweep_candidates() order) and then on Gr(1,n), n = 2..7, with
# beta = 1..2n-1: 341 instances and 936 match and mismatch texts
CROSSVAL_GOLDEN = "bc5b4cecf9099156d79240ceb71a4a205745106859e40c88bfd0b4e273b9658b"


def test_cross_validation_texts_golden():
    cases = [(k, n, tuple(b)) for k, n, b in _sweep_candidates() if n <= 7 and sl_dim(tuple(b)) <= 8]
    cases += [(1, n, (b,)) for n in range(2, 8) for b in range(1, 2 * n)]
    digest = hashlib.sha256()
    texts = 0
    for k, n, beta in cases:
        report = cross_validate(GrassContext(k, n), beta)
        texts += len(report.matches) + len(report.mismatches)
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert (len(cases), texts) == (341, 936)
    assert digest.hexdigest() == CROSSVAL_GOLDEN
