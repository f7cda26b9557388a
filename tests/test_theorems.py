import hashlib
import json
import random
import warnings

import pytest

from grassbott import expr as ex
from grassbott.bott import bott_irreducible, cohomology
from grassbott.dims import sl_dim, straighten
from grassbott.errors import StructureError
from grassbott.screens import (
    CandidateFamily,
    ConditionWitness,
    ScreenReport,
    _partitions_at_most,
    screen,
)
from grassbott.theorems import (
    TheoremReport,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    cross_validate,
    scan_deformation,
    scan_normality,
)
from grassbott.schur import evaluate
from grassbott.weights import BlockWeight, GrassContext, twist

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


def test_theorem2_warning_free_at_rank_equal_to_dimension():
    # rank F = dim Gr(2,4) = 4: a Koszul verdict on F would warn; the scan
    # reads the tables of F without a verdict and must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_theorem2(GrassContext(2, 4), ex.Sym(3, ex.Q))


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


def _tensor_route(ctx, e, degree):
    """H^degree(e) and the summands that carry it, through the whole
    decomposition of e and the reference Bott."""
    dim, weights = 0, []
    for w, m in evaluate(e, ctx).items():
        d = bott_irreducible(w).get(degree, 0)
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
    witnesses = scan_normality(ctx, f)
    assert witnesses
    by_twist = {(w.p, w.r): w for w in witnesses}
    assert len(by_twist) == len(witnesses)
    groups = [(p, r) for p in range(1, rank + 1) for r in range(p * b_max + 1)]
    # witnesses come in (p, r) order and only from the scan range
    assert [(w.p, w.r) for w in witnesses] == [g for g in groups if g in by_twist]
    for p, r in groups:
        # a group without a witness vanishes on the tensor route
        wit = by_twist.get((p, r))
        found = (wit.dim, wit.weights) if wit else (0, ())
        twisted = ex.Tensor(ex.Line(r), ex.Wedge(p, ex.Dual(f)))
        assert found == _tensor_route(ctx, twisted, p), (p, r)


@pytest.mark.parametrize(
    "ctx,text",
    [
        (GrassContext(3, 6), "irr[2,1,0]"),
        (CTX25, "sum(sym(3,Q),O(1))"),
        (GrassContext(2, 4), "sym(3,Q)"),
    ],
)
def test_deformation_scan_matches_tensor_route(ctx, text):
    f = ex.parse_expr(text, ctx)
    rank = evaluate(f, ctx).rank()
    witnesses = scan_deformation(ctx, f)
    assert witnesses
    by_group = {(w.group, w.p): w for w in witnesses}
    assert len(by_group) == len(witnesses)
    groups = []
    for p in range(rank + 1):
        dual = ex.Wedge(p, ex.Dual(f))
        if p >= 1:
            groups.append(("5.1a", p, ex.Tensor(f, dual), p))
        groups.append(("5.1b", p, ex.Tensor(ex.THETA, dual), p + 1))
    # witnesses come in p order, 5.1a before 5.1b, and only from the scan range
    assert [(w.group, w.p) for w in witnesses] == [
        (g, p) for g, p, _, _ in groups if (g, p) in by_group
    ]
    for group, p, e, degree in groups:
        # a group without a witness vanishes on the tensor route
        wit = by_group.get((group, p))
        found = (wit.dim, wit.weights) if wit else (0, ())
        assert found == _tensor_route(ctx, e, degree), (group, p)


def _scan_digest(grasses, max_rank):
    """Weight count, witness counts per group and the sha256 over the JSON
    witness lists of both scans, on every k-block weight of each Gr(k,n)
    with 1 <= |beta| <= 2n-1 and rank <= max_rank."""
    digest = hashlib.sha256()
    weights = 0
    groups = {}
    for k, n in grasses:
        ctx = GrassContext(k, n)
        for size in range(1, 2 * n):
            for beta in _partitions_at_most(size, k, size):
                if sl_dim(beta) > max_rank:
                    continue
                weights += 1
                f = ex.Irr(BlockWeight.from_first(ctx, beta))
                for scan in (scan_normality, scan_deformation):
                    witnesses = scan(ctx, f)
                    for w in witnesses:
                        groups[w.group] = groups.get(w.group, 0) + 1
                    digest.update(json.dumps([w.to_json() for w in witnesses]).encode())
    return weights, groups, digest.hexdigest()


# recorded when each scan also returned a record of every group it visited
SCAN_GOLDEN = "e5807376759cbff2954546393629e24c0b0f2e15c5e0034bf60a969b24d767a1"
# recorded when the deformation groups were decomposed in full and
# straightened summand by summand
SCAN_GOLDEN_K3 = "5518036eb586237787f9a82185808e06ee9160bd56da8f136aa0bd8ec39fcffc"


def test_scan_witness_golden():
    assert _scan_digest([(2, 5), (2, 6)], 20) == (
        70, {"thm1": 790, "5.1a": 38, "5.1b": 37}, SCAN_GOLDEN
    )


def test_scan_witness_golden_k3():
    assert _scan_digest([(3, 6), (3, 7), (4, 7)], 15) == (
        103, {"thm1": 1028, "5.1a": 53, "5.1b": 69}, SCAN_GOLDEN_K3
    )


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
            found = straighten(tw.first + tw.second)
            expected = {} if found is None else {found[0]: sl_dim(found[1])}
            assert bott_irreducible(tw) == expected, (w, r)
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
    failures = scan_normality(CTX25, irr_expr(CTX25, (3, 0)))
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


def test_report_records():
    scr = screen(CTX25, [(1, 1)])
    by_keyword = ScreenReport(
        ctx=scr.ctx,
        summands=scr.summands,
        det_coefficient=scr.det_coefficient,
        rank_f=scr.rank_f,
        dim_x=scr.dim_x,
        is_fano=scr.is_fano,
        positive_dimension=scr.positive_dimension,
        excluded=scr.excluded,
    )
    assert by_keyword == scr and by_keyword.to_json() == scr.to_json()
    a = TheoremReport(CTX25, "thm1", "irr[1,1]", "pass", scr)
    b = TheoremReport(CTX25, "thm1", "irr[1,1]", "pass", scr)
    assert a == b
    assert (a.witnesses, a.notes) == ([], [])
    assert a.witnesses is not b.witnesses and a.notes is not b.notes
    a.witnesses.append(1)
    assert b.witnesses == []
    assert a != b
    b.witnesses.append(1)
    assert a == b
    a.notes.append("note")
    assert b.notes == []
    assert a != b


def test_frozen_screen_records_refuse_assignment_and_deletion():
    witness = ConditionWitness("4.1", 1, 0, (3, 0), True, True)
    family = CandidateFamily((1, 1, 0), 4, 6, "ro4")
    assert hash(witness) == hash(("4.1", 1, 0, (3, 0), True, True))
    assert hash(family) == hash(((1, 1, 0), 4, 6, "ro4"))
    for value in (witness, family):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
