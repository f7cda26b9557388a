import copy
import hashlib
import json
import pickle
import random
import sys
import warnings

import pytest

from grassbott import clear_caches
from grassbott import expr as ex
from grassbott import theorems
from grassbott.bott import bott_irreducible, cohomology
from grassbott.dims import sl_dim, straighten
from grassbott.errors import DomainError, StructureError
from grassbott.koszul import build_table
from grassbott.screens import (
    CandidateFamily,
    ConditionWitness,
    ScreenReport,
    _partitions_at_most,
    find_witnesses_41,
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


def test_theorem1_h0_undetermined_notes_the_bounds():
    report = check_theorem1(GrassContext(4, 6), ex.Wedge(2, ex.Q))
    assert report.connected_h0 is None
    assert report.notes == ["h0(O_X) undetermined: bounds [0,1] with live differentials"]


def test_theorem1_exploratory_scan_with_undecided_normality():
    f = ex.DirectSum(ex.Sym(2, ex.Q), ex.Sym(3, ex.Q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_theorem1(GrassContext(2, 6), f)
    assert report.verdict == "not-applicable"
    assert report.projectively_normal is None
    assert report.notes == [
        "F has more than one non-line-bundle summand; scan is exploratory",
        "normality at r=1 undecided: bounds [0,21]",
        "normality at r=2 undecided: bounds [0,42]",
        "normality at r=3 undecided: bounds [0,27]",
    ]


def test_theorem1_refuses_rank_zero():
    # wedge^3 of the rank-2 quotient bundle vanishes
    with pytest.raises(StructureError, match="^F has rank zero$"):
        check_theorem1(CTX25, ex.Wedge(3, ex.Q))


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
    with pytest.raises(DomainError):
        check_theorem1(CTX25, ex.Dual(ex.Q))  # not globally generated
    with pytest.raises(StructureError):
        check_theorem3(CTX25, [])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: check_theorem1(CTX25, ex.Dual(ex.Q)), id="thm1"),
        pytest.param(lambda: check_theorem2(CTX25, ex.Dual(ex.Q)), id="thm2"),
        pytest.param(lambda: check_theorem3(CTX25, [ex.Line(1), ex.Dual(ex.Q)]), id="thm3"),
        pytest.param(lambda: cross_validate(CTX25, (0, -1)), id="crossval"),
        pytest.param(lambda: screen(CTX25, [(0, -1)]), id="screen"),
        pytest.param(lambda: find_witnesses_41(CTX25, (0, -1)), id="witnesses"),
        pytest.param(lambda: build_table(ex.Line(0), ex.Dual(ex.Q), CTX25), id="koszul"),
    ],
)
def test_non_generated_f_is_refused_before_any_scan(call):
    # Q* on Gr(2,5) has weight (0,-1|0,0,0): one check, one error, and
    # neither scan memo sees the bundle
    clear_caches()
    with pytest.raises(
        DomainError, match=r"^summand 2,5:\[0,-1\|0,0,0\] of F is not globally generated$"
    ):
        call()
    assert theorems._scan_normality.cache_info().currsize == 0
    assert build_table.cache_info().currsize == 0


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


def test_scan_normality_hands_out_a_new_list_each_call():
    f = irr_expr(CTX25, (3, 0))
    first = scan_normality(CTX25, f)
    assert first and first is not scan_normality(CTX25, f)
    expected = list(first)
    first.append(None)
    first.reverse()
    assert scan_normality(CTX25, f) == expected


def test_scan_witness_is_frozen_and_round_trips():
    (witness, *_) = scan_normality(CTX25, irr_expr(CTX25, (3, 0)))
    for name in witness.__slots__:
        with pytest.raises(AttributeError):
            setattr(witness, name, None)
    for copied in (copy.copy(witness), copy.deepcopy(witness)):
        assert copied == witness and hash(copied) == hash(witness)
    again = pickle.loads(pickle.dumps(witness))
    assert again == witness and again.to_json() == witness.to_json()


def _package_memos():
    memos = {}
    for name, module in list(sys.modules.items()):
        if name == "grassbott" or name.startswith("grassbott."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    memos[id(value)] = value
    return list(memos.values())


def test_clear_caches_empties_every_package_memo():
    ctx, f = GrassContext(3, 6), irr_expr(GrassContext(3, 6), (2, 1, 0))

    def run():
        reports = check_theorem1(ctx, f), check_theorem2(ctx, f), cross_validate(ctx, (2, 1, 0))
        return [json.dumps(r.to_json(), sort_keys=True) for r in reports]

    before = run()
    memos = _package_memos()
    assert len(memos) >= 8 and all(m.cache_info().currsize for m in memos)
    clear_caches()
    assert {m.__qualname__: m.cache_info().currsize for m in memos} == {
        m.__qualname__: 0 for m in memos
    }
    assert run() == before
