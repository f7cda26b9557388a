import random
import warnings
from math import comb

import pytest

from grassbott import expr as ex
from grassbott.bott import cohomology, euler_characteristic
from grassbott.errors import DomainError, StructureError
from grassbott.koszul import (
    KoszulTable,
    TargetKind,
    Verdict,
    analyze,
    build_table,
    euler_restriction,
    hilbert_series,
)
from grassbott.schur import evaluate
from grassbott.weights import GrassContext


def chi_projective(m: int, t: int) -> int:
    """Independent oracle: chi(P^m, O(t)) as the binomial polynomial
    (t+1)(t+2)...(t+m)/m!, valid for all integers t."""
    num = 1
    for i in range(1, m + 1):
        num *= t + i
    den = 1
    for i in range(1, m + 1):
        den *= i
    assert num % den == 0
    return num // den


def test_chi_projective_oracle_sane():
    assert chi_projective(3, 0) == 1
    assert chi_projective(3, 1) == comb(4, 3)
    assert chi_projective(3, -4) == -1
    assert chi_projective(3, -2) == 0


def test_point_on_projective_line():
    ctx = GrassContext(1, 2)
    table = build_table(ex.Line(0), ex.Line(1), ctx)
    # q=1 column is H^*(O(-1)) = 0
    assert table.columns[1] == {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert analyze(table, TargetKind.RESTRICTION, 0) == Verdict.exact(1)
    assert euler_restriction(ex.Line(0), ex.Line(1), ctx) == 1


def test_analyze_warns_when_locus_is_points():
    # the memoized table is silent; the verdict, the one claim about X,
    # warns on each call
    ctx = GrassContext(1, 2)
    build_table.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = build_table(ex.Line(0), ex.Line(1), ctx)
        assert caught == []
        analyze(table, TargetKind.RESTRICTION, 0)
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "rank(F) = 1 >= dim Gr = 1: the zero locus is empty or zero-dimensional")
    ]


def test_analyze_bounds_when_a_differential_is_live():
    # on Gr(4,6) with F = wedge^2 Q the cell (q=0, p=0) meets the cell
    # (q=3, p=2) through d_3, so h^0(O_X) is only bounded
    ctx = GrassContext(4, 6)
    table = build_table(ex.Line(0), ex.Wedge(2, ex.Q), ctx)
    assert list(table.nonzero_cells()) == [(0, 0, 1), (3, 2, 1)]
    assert analyze(table, TargetKind.RESTRICTION, 0) == Verdict.bounds(0, 1)


def test_build_table_rejects_non_generated():
    ctx = GrassContext(2, 5)
    with pytest.raises(DomainError):
        build_table(ex.Line(0), ex.Line(-1), ctx)


def test_euler_and_hilbert_reject_non_generated():
    # O(-1) has no nonzero section, so there is no zero locus to take
    # chi of; the Euler route reads the same checked table as koszul
    ctx = GrassContext(1, 4)
    with pytest.raises(DomainError, match="not globally generated"):
        euler_restriction(ex.Line(0), ex.Line(-1), ctx)
    with pytest.raises(DomainError, match="not globally generated"):
        hilbert_series(ex.Line(-1), ctx, 0, 2)


def test_build_table_is_memoized():
    ctx = GrassContext(2, 5)
    e, f = ex.Line(2), ex.Sym(3, ex.Q)
    assert build_table(e, f, ctx) is build_table(e, f, ctx)


def test_quadratic_normality_counterexample_table():
    ctx = GrassContext(2, 5)
    table = build_table(ex.Line(2), ex.Sym(3, ex.Q), ctx)
    assert table.rank_f == 4
    assert list(table.nonzero_cells()) == [(0, 0, 50), (3, 3, 1)]
    assert analyze(table, TargetKind.IDEAL, 1) == Verdict.exact(1)
    # every other ideal-target degree vanishes
    for i in range(2, ctx.dimension + 1):
        assert analyze(table, TargetKind.IDEAL, i).kind == "vanishes"


def test_two_component_locus_table():
    ctx = GrassContext(2, 4)
    table = build_table(ex.Line(0), ex.Sym(2, ex.Q), ctx)
    assert list(table.nonzero_cells()) == [(0, 0, 1), (2, 2, 1)]
    assert analyze(table, TargetKind.RESTRICTION, 0) == Verdict.exact(2)


def test_k3_euler_goldens_against_binomial_oracle():
    ctx = GrassContext(1, 4)
    for r in range(0, 3):
        expected = chi_projective(3, r) - chi_projective(3, r - 4)
        assert euler_restriction(ex.Line(r), ex.Line(4), ctx) == expected
    assert euler_restriction(ex.Line(0), ex.Line(4), ctx) == 2
    assert euler_restriction(ex.Line(1), ex.Line(4), ctx) == 4


def test_hilbert_series():
    ctx = GrassContext(1, 4)
    values = hilbert_series(ex.Line(4), ctx, 0, 2)
    assert values == [(0, 2), (1, 4), (2, 10)]
    for r, chi in values:
        assert chi == euler_restriction(ex.Line(r), ex.Line(4), ctx)
    ctx = GrassContext(2, 4)
    assert hilbert_series(ex.Line(1), ctx, 1, 1) == [(1, 5)]
    with pytest.raises(StructureError):
        hilbert_series(ex.Line(1), ctx, 2, 1)


def test_euler_consistency_with_exact_verdicts():
    # when every degree is decided exactly, the alternating sum of the
    # verdicts reproduces the Euler characteristic
    cases = [
        (GrassContext(2, 4), ex.Line(0), ex.Sym(2, ex.Q)),
        (GrassContext(1, 4), ex.Line(0), ex.Line(4)),
        (GrassContext(1, 4), ex.Line(1), ex.Line(4)),
        (GrassContext(2, 5), ex.Line(1), ex.Sym(3, ex.Q)),
    ]
    for ctx, e, f in cases:
        table = build_table(e, f, ctx)
        total = 0
        for i in range(ctx.dimension + 1):
            verdict = analyze(table, TargetKind.RESTRICTION, i)
            assert verdict.kind in ("vanishes", "exact")
            d = verdict.dim if verdict.kind == "exact" else 0
            total += d if i % 2 == 0 else -d
        assert total == euler_restriction(e, f, ctx)


def test_verdict_soundness_shapes():
    assert Verdict.exact(0) == Verdict.vanishes()
    v = Verdict.bounds(0, 3)
    assert v.lo == 0 and v.hi == 3
    assert Verdict.exact(2).to_json() == {"kind": "exact", "dim": "2"}
    assert Verdict.vanishes().to_json() == {"kind": "vanishes"}
    assert v.to_json() == {"kind": "bounds", "lo": "0", "hi": "3"}


def test_restriction_column_zero_reproduces_ambient_cohomology():
    # rank(F) < dim and all higher columns vanishing: H^i(X, E|_X)
    # verdicts match H^i(Gr, E) exactly
    ctx = GrassContext(2, 5)
    e = ex.Line(1)
    table = build_table(e, ex.Line(1), ctx)
    ambient = cohomology(e, ctx)
    if all(not table.columns[q] for q in range(1, table.rank_f + 1)):
        for i in range(ctx.dimension + 1):
            verdict = analyze(table, TargetKind.RESTRICTION, i)
            expected = ambient.get(i, 0)
            if expected == 0:
                assert verdict.kind == "vanishes"
            else:
                assert verdict == Verdict.exact(expected)


def test_projective_normality_bridge():
    # all twisted ideal-target degree-1 groups vanish for the Pluecker
    # hyperplane section, so the embedding is projectively normal
    ctx = GrassContext(2, 4)
    for r in range(1, 6):
        table = build_table(ex.Line(r), ex.Line(1), ctx)
        assert analyze(table, TargetKind.IDEAL, 1).kind == "vanishes"


def test_table_json_shape():
    ctx = GrassContext(2, 5)
    table = build_table(ex.Line(2), ex.Sym(3, ex.Q), ctx)
    data = table.to_json()
    assert data["R"] == 4
    assert {"q": 3, "p": 3, "dim": "1"} in data["cells"]


def test_tangent_bundle_euler_gives_cell_count():
    # independent cross-check of the whole pipeline: the zero locus of
    # a general tangent field has length equal to the topological Euler
    # characteristic, i.e. the number of Schubert cells
    for k, n in [(1, 2), (1, 3), (2, 4), (1, 4), (2, 5)]:
        ctx = GrassContext(k, n)
        chi = euler_restriction(ex.Line(0), ex.THETA, ctx)
        assert chi == comb(n, k), (k, n)


def test_classical_line_counts():
    # zero loci of cubic/quintic power sections over the line
    # Grassmannians reproduce the classical counts, and the surface of
    # lines on a cubic threefold has chi(O) = 1 - 5 + 10
    # rank F = dim Gr on the first two: chi draws no verdict and stays silent
    assert euler_restriction(ex.Line(0), ex.Sym(3, ex.Q), GrassContext(2, 4)) == 27
    assert euler_restriction(ex.Line(0), ex.Sym(5, ex.Q), GrassContext(2, 5)) == 2875
    assert euler_restriction(ex.Line(0), ex.Sym(3, ex.Q), GrassContext(2, 5)) == 6


def test_build_table_columns_in_q_order():
    # the thm1 sum instance: column q is H^*(wedge^q F*) and h0(O_X) = 1
    ctx = GrassContext(2, 6)
    f = ex.DirectSum(ex.Sym(2, ex.Q), ex.Line(1))
    table = build_table(ex.Line(0), f, ctx)
    assert list(table.columns) == list(range(table.rank_f + 1))
    for q, profile in table.columns.items():
        assert profile == cohomology(ex.Tensor(ex.Line(0), ex.Wedge(q, ex.Dual(f))), ctx)
    assert analyze(table, TargetKind.RESTRICTION, 0) == Verdict.exact(1)


def _euler_by_columns(e, f, ctx):
    """Independent route: sum over q of (-1)^q chi(H^*(E (x) wedge^q F*)),
    one cohomology query per column."""
    total = 0
    for q in range(evaluate(f, ctx).rank() + 1):
        chi = euler_characteristic(cohomology(ex.Tensor(e, ex.Wedge(q, ex.Dual(f))), ctx))
        total += chi if q % 2 == 0 else -chi
    return total


def test_euler_restriction_matches_column_sums():
    cases = [
        (GrassContext(2, 4), ex.Line(0), ex.Sym(3, ex.Q), 27),
        (GrassContext(2, 5), ex.Line(0), ex.Sym(5, ex.Q), 2875),
        (GrassContext(2, 4), ex.Line(0), ex.THETA, 6),
    ]
    rng = random.Random(2021)
    coefficients = ["O(0)", "O(1)", "O(-2)", "Q", "S", "Theta", "dual(Q)", "sym(2,S)"]
    sections = ["O(1)", "O(2)", "Q", "sum(Q,O(1))", "sym(2,Q)", "wedge(2,Q)"]
    for _ in range(24):
        ctx = rng.choice([GrassContext(1, 3), GrassContext(2, 4), GrassContext(2, 5)])
        e, f = (ex.parse_expr(rng.choice(texts), ctx) for texts in (coefficients, sections))
        cases.append((ctx, e, f, None))
    for ctx, e, f, golden in cases:
        chi = euler_restriction(e, f, ctx)
        assert chi == _euler_by_columns(e, f, ctx), (ctx, e, f)
        assert golden is None or chi == golden
