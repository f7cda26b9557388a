import random
import warnings

import pytest

from grassbott import expr as ex
from grassbott.bott import bott_degree, bott_dim, bott_irreducible, cohomology
from grassbott.errors import StructureError
from grassbott.theorems import (
    check_theorem1,
    check_theorem2,
    check_theorem3,
    cross_validate,
    scan_normality,
)
from grassbott.schur import evaluate
from grassbott.weights import BlockWeight, GrassContext, full_weight, twist

CTX25 = GrassContext(2, 5)
CTX14 = GrassContext(1, 4)


def irr_expr(ctx, first):
    return ex.Irr(BlockWeight.from_first(ctx, first))


def test_theorem1_pass_rank_one():
    report = check_theorem1(CTX25, irr_expr(CTX25, (1, 1)))
    assert report.verdict == "pass"
    assert report.witnesses == []
    assert report.projectively_normal is True
    assert report.connected_h0 == "1"
    assert report.ambient_dim == 9


def test_theorem1_counterexample():
    report = check_theorem1(CTX25, ex.Sym(3, ex.Q))
    assert report.verdict == "not-applicable"  # the screen rejects it
    assert [(w.p, w.r, w.dim) for w in report.witnesses] == [(3, 2, 1)]
    assert report.projectively_normal is False
    assert report.connected_h0 == "1"


def test_theorem1_cubic_surface():
    report = check_theorem1(CTX14, ex.Sym(3, ex.Q))
    assert report.verdict == "pass"
    assert report.projectively_normal is True
    assert report.connected_h0 == "1"


def test_theorem1_sum_with_line_bundles():
    # the normality statement extends to one irreducible plus line
    # bundles; a Fano instance of that shape passes end to end
    ctx = GrassContext(2, 6)
    f = ex.DirectSum(ex.Sym(2, ex.Q), ex.Line(1))
    report = check_theorem1(ctx, f)
    assert report.screen.is_fano and report.screen.dim_x == 4
    assert report.verdict == "pass"
    assert report.projectively_normal is True
    assert report.connected_h0 == "1"


def test_theorem1_fail_only_at_r0_is_still_normal():
    # the two-component case: the only failing twist is r=0, so the
    # projective-normality verdict is unaffected
    ctx = GrassContext(2, 4)
    report = check_theorem1(ctx, ex.Sym(2, ex.Q))
    assert [(w.p, w.r) for w in report.witnesses] == [(2, 0)]
    assert report.projectively_normal is True
    assert report.connected_h0 == "2"


def test_theorem2_quartic_k3_fails():
    report = check_theorem2(CTX14, ex.Sym(4, ex.Q))
    assert any(w.group == "5.1b" for w in report.witnesses)
    assert report.verdict == "not-applicable"  # K3 is the non-Fano border


def test_theorem2_cubic_passes():
    assert check_theorem2(CTX14, ex.Sym(3, ex.Q)).verdict == "pass"


def test_theorem2_rank_one_passes():
    assert check_theorem2(CTX25, irr_expr(CTX25, (1, 1))).verdict == "pass"


def test_verdict_iff_witnesses_on_applicable_instances():
    for ctx, f in [
        (CTX25, irr_expr(CTX25, (1, 1))),
        (CTX25, irr_expr(CTX25, (2, 1))),
        (GrassContext(3, 6), irr_expr(GrassContext(3, 6), (1, 1, 0))),
    ]:
        for check in (check_theorem1, check_theorem2):
            report = check(ctx, f)
            assert report.verdict in ("pass", "fail")
            assert (report.verdict == "fail") == bool(report.witnesses)


def test_theorem3_fano_fourfold():
    ctx = GrassContext(2, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_theorem3(ctx, [ex.Sym(2, ex.Q), ex.Line(1)])
    assert report.screen.dim_x == 4
    assert report.verdict in ("pass", "fail")
    assert report.verdict == "pass"


def test_theorem3_warns_off_dimension():
    with pytest.warns(UserWarning):
        report = check_theorem3(CTX25, [irr_expr(CTX25, (1, 1))])
    assert report.screen.dim_x == 5


def test_theorem3_single_summand_reduces():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        combined = check_theorem3(CTX25, [irr_expr(CTX25, (2, 1))])
    r1 = check_theorem1(CTX25, irr_expr(CTX25, (2, 1)))
    r2 = check_theorem2(CTX25, irr_expr(CTX25, (2, 1)))
    combined_keys = {(w.group, w.p, w.r) for w in combined.witnesses}
    split_keys = {(w.group, w.p, w.r) for w in r1.witnesses + r2.witnesses}
    assert combined_keys == split_keys


def test_theorem3_zero_dimensional_not_applicable():
    ctx = GrassContext(2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = check_theorem3(ctx, [ex.Sym(2, ex.Q), ex.Line(1)])
    assert report.screen.dim_x == 0
    assert report.verdict == "not-applicable"


def test_theorem_input_validation():
    with pytest.raises(StructureError):
        check_theorem1(CTX25, ex.THETA)  # second block not zero
    with pytest.raises(StructureError):
        check_theorem1(CTX25, ex.Dual(ex.Q))  # not globally generated
    with pytest.raises(StructureError):
        check_theorem3(CTX25, [])


def test_truncation_margin():
    # beyond r = p * b_max every scanned group vanishes in positive
    # degree; probe a margin of n extra twists
    for ctx, first in [
        (CTX25, (2, 1)),
        (GrassContext(2, 4), (2, 0)),
        (GrassContext(3, 6), (1, 1, 0)),
    ]:
        f = irr_expr(ctx, first)
        from grassbott.schur import evaluate

        rank = evaluate(f, ctx).rank()
        b_max = first[0]
        for p in range(1, rank + 1):
            for r in range(p * b_max + 1, p * b_max + ctx.n + 1):
                profile = cohomology(ex.Tensor(ex.Line(r), ex.Wedge(p, ex.Dual(f))), ctx)
                assert set(profile) <= {0}, (ctx, first, p, r)


def _tensor_route(ctx, f, p, r):
    """H^p((wedge^p F*)(r)) through a twist node and the reference Bott."""
    dim, weights = 0, []
    for w, m in evaluate(ex.Tensor(ex.Line(r), ex.Wedge(p, ex.Dual(f))), ctx).items():
        d = bott_irreducible(full_weight(w)).get(p, 0)
        if d:
            dim += m * d
            weights.append(w)
    return dim, tuple(sorted(weights, key=BlockWeight.canonical))


@pytest.mark.parametrize(
    "ctx,text",
    [
        (CTX25, "sym(3,Q)"),
        (GrassContext(3, 6), "irr[2,1,0]"),
        (CTX25, "sum(sym(3,Q),O(1))"),
    ],
)
def test_twist_walk_matches_tensor_route(ctx, text):
    f = ex.parse_expr(text, ctx)
    rank = evaluate(f, ctx).rank()
    b_max = max(w.first[0] for w, _ in evaluate(f, ctx).items())
    checks, witnesses = scan_normality(ctx, f)
    assert [(c.p, c.r) for c in checks] == [
        (p, r) for p in range(1, rank + 1) for r in range(p * b_max + 1)
    ]
    assert witnesses
    by_twist = {(w.p, w.r): w for w in witnesses}
    for c in checks:
        dim, weights = _tensor_route(ctx, f, c.p, c.r)
        assert c.dim == dim, (c.p, c.r)
        wit = by_twist.get((c.p, c.r))
        found = (wit.dim, wit.weights) if wit else (0, ())
        assert found == (dim, weights), (c.p, c.r)
    assert len(by_twist) == len(witnesses)


def _random_dominant(rng, length, lo, hi):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(length)), reverse=True))


@pytest.mark.parametrize("ctx", [CTX25, GrassContext(3, 6)])
def test_bott_degree_monotone_in_twist(ctx):
    # the twist walk stops at the first degree below p; that is sound
    # because twisting raises only the k-block, so the degree never grows
    rng = random.Random(2026)
    k, n = ctx.k, ctx.n
    for _ in range(300):
        w = BlockWeight(
            ctx, _random_dominant(rng, k, -6, 6), _random_dominant(rng, n - k, -6, 6)
        )
        last = None
        for r in range(0, 16):
            tw = twist(w, r)
            found = bott_degree(tw.first + tw.second)
            expected = {} if found is None else {found[0]: bott_dim(found[1])}
            assert bott_irreducible(full_weight(tw)) == expected, (w, r)
            if found is None:
                continue
            if last is not None:
                assert found[0] <= last, (w, r)
            last = found[0]


def test_cross_validate_surfaces_chain_discrepancy():
    report = cross_validate(CTX25, (3, 0))
    assert not report.consistent
    probe = [m for m in report.mismatches if "(6, 3)" in m]
    assert probe and "Fano-range" in probe[0]
    # every scan failure is accounted for: matched or reported
    _, failures = scan_normality(CTX25, irr_expr(CTX25, (3, 0)))
    assert len(report.matches) + len(report.mismatches) >= len(failures)


def test_cross_validate_hypersurface_case():
    report = cross_validate(CTX14, (4,))
    assert not report.consistent
    assert any("k=1" in m for m in report.mismatches)


def test_cross_validate_two_sided_match():
    report = cross_validate(GrassContext(2, 4), (2, 0))
    assert report.consistent
    assert any("4.1" in m for m in report.matches)
    assert any("system a" in m for m in report.matches)


def test_cross_validate_clean_instance():
    report = cross_validate(CTX25, (1, 1))
    assert report.consistent and not report.matches


def test_report_json_schema():
    report = check_theorem1(CTX25, ex.Sym(3, ex.Q))
    data = report.to_json()
    assert data["instance"] == {"grass": "2,5", "F": "sym(3,Q)"}
    assert data["ambient_N"] == 9
    # the contributing summand is the twisted dual of the wedge weight
    assert data["witnesses"] == [
        {
            "group": "thm1",
            "p": 3,
            "dim": "1",
            "r": 2,
            "weights": ["2,5:[-1,-4|0,0,0]"],
        }
    ]
    assert data["projectively_normal"] is False
