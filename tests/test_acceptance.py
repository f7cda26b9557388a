"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output), and the stated runtime budgets are asserted on
the library-level computation.
"""

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

from grassbott import expr as ex
from grassbott.bott import cohomology
from grassbott.dims import sl_dim
from grassbott.errors import OracleBudgetError
from grassbott.koszul import (
    TargetKind,
    Verdict,
    analyze,
    build_table,
    euler_restriction,
)
from grassbott.schur import Decomposition, evaluate, oracle_power, sym_power, wedge_power
from grassbott.screens import _partitions_at_most, enumerate_lemma54, screen
from grassbott.theorems import check_theorem1, check_theorem2, cross_validate
from grassbott.weights import BlockWeight, GrassContext, dual_weight, twist

warnings.filterwarnings("ignore", message="rank\\(F\\)")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, tmp_path):
    # Sparse on purpose, so the cache and stdout stay hermetic; src goes
    # first so the child runs this checkout whether or not it is installed.
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {
        "GBK_CACHE_DIR": str(tmp_path / "cache"),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": os.pathsep.join(pythonpath),
    }
    return subprocess.run(
        [sys.executable, "-m", "grassbott", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def irr_expr(ctx, first):
    return ex.Irr(BlockWeight.from_first(ctx, first))


@lru_cache(maxsize=1)
def sweep_instances():
    """Globally generated irreducible weights with k, n-k >= 2, k <= 5,
    n <= 10, rank <= 20, passing the anticanonical and dimension screens
    and not on the exclusion list."""
    out = []
    for k in range(2, 6):
        for n in range(k + 2, 11):
            ctx = GrassContext(k, n)
            for size in range(1, 2 * k * n):
                hit_fano = False
                for beta in _partitions_at_most(size, k, size):
                    if sl_dim(beta) > 20:
                        continue
                    rep = screen(ctx, [beta])
                    if not rep.is_fano:
                        continue
                    hit_fano = True
                    if not rep.positive_dimension or rep.excluded:
                        continue
                    out.append((ctx, beta))
                if not hit_fano and size > n * k:
                    break
    return tuple(out)


def test_criterion_1_quadratic_normality_counterexample(tmp_path):
    with criterion(1, "counterexample reproduction on Gr(2,5)"):
        start = time.time()
        ctx = GrassContext(2, 5)
        e = ex.parse_expr("twist(dual(wedge(3,sym(3,Q))),2)", ctx)
        assert cohomology(e, ctx) == {3: 1}
        table = build_table(ex.Line(2), ex.Sym(3, ex.Q), ctx)
        assert analyze(table, TargetKind.IDEAL, 1) == Verdict.exact(1)
        assert time.time() - start < 1.0
        proc = run_cli(
            ["bott", "twist(dual(wedge(3,sym(3,Q))),2)", "--grass", "2,5"], tmp_path
        )
        assert proc.returncode == 0 and json.loads(proc.stdout) == {"3": "1"}
        proc = run_cli(
            [
                "koszul", "--E", "O(2)", "--F", "sym(3,Q)",
                "--target", "ideal", "--degree", "1", "--grass", "2,5",
            ],
            tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"kind": "exact", "dim": "1"}


def test_criterion_2_quartic_k3_deformation_failure(tmp_path):
    with criterion(2, "quartic fails / cubic passes the deformation scan"):
        ctx = GrassContext(1, 4)
        start = time.time()
        quartic = check_theorem2(ctx, ex.Sym(4, ex.Q))
        assert any(w.group == "5.1b" for w in quartic.witnesses)
        assert time.time() - start < 1.0
        start = time.time()
        cubic = check_theorem2(ctx, ex.Sym(3, ex.Q))
        assert cubic.verdict == "pass" and not cubic.witnesses
        assert time.time() - start < 1.0
        proc = run_cli(["check", "thm2", "--F", "sym(4,Q)", "--grass", "1,4"], tmp_path)
        assert proc.returncode == 1
        assert any(
            w["group"] == "5.1b" for w in json.loads(proc.stdout)["witnesses"]
        )
        proc = run_cli(["check", "thm2", "--F", "sym(3,Q)", "--grass", "1,4"], tmp_path)
        assert proc.returncode == 0


def _expected_candidates(k):
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


def test_criterion_3_candidate_enumeration(tmp_path):
    with criterion(3, "candidate families for k in 4..12"):
        start = time.time()
        for k in range(4, 13):
            got = {(c.beta, c.n_min, c.n_max) for c in enumerate_lemma54(k)}
            assert got == _expected_candidates(k), k
        assert time.time() - start < 10.0
        # same exact sets through the CLI surface
        for k in (5, 6):
            proc = run_cli(["enumerate", "--lemma54", "--k", str(k)], tmp_path)
            assert proc.returncode == 0
            rows = {
                (tuple(row["beta"]), row["n_min"], row["n_max"])
                for row in map(json.loads, proc.stdout.splitlines())
            }
            assert rows == _expected_candidates(k)


def test_criterion_4_theorem_sweep():
    with criterion(4, "theorem 1/2 sweep with connectedness"):
        start = time.time()
        instances = sweep_instances()
        assert len(instances) > 100
        for ctx, beta in instances:
            f = irr_expr(ctx, beta)
            r1 = check_theorem1(ctx, f)
            r2 = check_theorem2(ctx, f)
            assert r1.verdict == "pass", (str(ctx), beta, r1.witnesses)
            assert r2.verdict == "pass", (str(ctx), beta, r2.witnesses)
            assert r1.connected_h0 == "1", (str(ctx), beta, r1.connected_h0)
        # the excluded symmetric-square cases at n = 2k have two components
        for k in range(2, 6):
            ctx = GrassContext(k, 2 * k)
            f = irr_expr(ctx, (2,) + (0,) * (k - 1))
            report = check_theorem1(ctx, f)
            assert report.connected_h0 == "2", str(ctx)
        assert time.time() - start < 300.0


def test_criterion_5_rank_goldens():
    with criterion(5, "closed-form rank identities"):
        start = time.time()
        from grassbott.dims import block_rank

        for k in range(4, 11):
            ctx = GrassContext(k, k + 1)

            def rank(first):
                return block_rank(BlockWeight.from_first(ctx, first))

            assert rank((1,) + (0,) * (k - 1)) == k
            for c in range(1, 7):
                assert rank((c,) + (0,) * (k - 1)) == comb(k + c - 1, c)
            assert 3 * rank((2, 1) + (0,) * (k - 2)) == k * (k * k - 1)
            assert 4 * rank((2, 2) + (0,) * (k - 2)) == k * k * (k * k - 1) // 3
        assert time.time() - start < 1.0


def _random_expr(rng, ctx, depth):
    if depth == 0:
        choice = rng.randrange(5)
        if choice == 0:
            return ex.Q
        if choice == 1:
            return ex.S
        if choice == 2:
            return ex.THETA
        if choice == 3:
            return ex.Line(rng.randint(-3, 3))
        first = tuple(sorted((rng.randint(0, 3) for _ in range(ctx.k)), reverse=True))
        return ex.Irr(BlockWeight.from_first(ctx, first))
    choice = rng.randrange(6)
    if choice == 0:
        return ex.Wedge(rng.randint(0, 3), _random_expr(rng, ctx, depth - 1))
    if choice == 1:
        return ex.Sym(rng.randint(0, 3), _random_expr(rng, ctx, depth - 1))
    if choice == 2:
        return ex.Dual(_random_expr(rng, ctx, depth - 1))
    if choice == 3:
        return ex.Twist(_random_expr(rng, ctx, depth - 1), rng.randint(-2, 2))
    if choice == 4:
        return ex.Tensor(
            _random_expr(rng, ctx, depth - 1), _random_expr(rng, ctx, depth - 1)
        )
    return ex.DirectSum(
        _random_expr(rng, ctx, depth - 1), _random_expr(rng, ctx, depth - 1)
    )


def _plethysm_test_weights():
    """Normalized dominant weights (last entry zero) of rank <= 30 per
    block size; every irreducible of rank <= 30 is a determinant twist
    of exactly one of these."""
    out = []
    for a in range(0, 30):
        out.append((a, 0))
    for a in range(0, 30):
        for b in range(0, a + 1):
            lam = (a, b, 0)
            if sl_dim(lam) <= 30:
                out.append(lam)
    for lam in _partitions_cap(4, 4):
        if sl_dim(lam) <= 30:
            out.append(lam)
    for lam in _partitions_cap(5, 2):
        if sl_dim(lam) <= 30:
            out.append(lam)
    return [lam for lam in out if sl_dim(lam) <= 30]


def _partitions_cap(k, cap):
    for size in range(0, cap * (k - 1) + 1):
        for lam in _partitions_at_most(size, k - 1, cap):
            yield lam + (0,)


def test_criterion_6_property_suites():
    with criterion(6, "property suites (duality, plethysm, bounds)"):
        start = time.time()
        rng = random.Random(20240817)

        # (a) Serre-duality dimension symmetry on 200 random expressions
        checked = 0
        while checked < 200:
            k = rng.randint(1, 5)
            n = rng.randint(k + 1, 6)
            ctx = GrassContext(k, n)
            e = _random_expr(rng, ctx, rng.randint(1, 2))
            profile = cohomology(e, ctx)
            serre = cohomology(ex.Twist(ex.Dual(e), -n), ctx)
            assert profile == {ctx.dimension - p: d for p, d in serre.items()}
            checked += 1

        # (b)+(c) oracle-vs-fast agreement and dimension conservation for
        # every normalized irreducible of rank <= 30
        agreements = 0
        for lam in _plethysm_test_weights():
            k = len(lam)
            ctx = GrassContext(k, k + 1)
            d = Decomposition(ctx, {BlockWeight.from_first(ctx, lam): 1})
            rank = d.rank()
            for p in range(rank + 1):
                fast = wedge_power(d, p)
                assert fast.rank() == comb(rank, p), (lam, p)
                try:
                    oracle = oracle_power(d, p, "wedge")
                except OracleBudgetError:
                    continue
                assert fast.table == oracle.table, (lam, p)
                agreements += 1
            for p in range(0, min(rank, 6) + 1):
                fast = sym_power(d, p)
                assert fast.rank() == comb(rank + p - 1, p), (lam, p)
                try:
                    oracle = oracle_power(d, p, "sym")
                except OracleBudgetError:
                    continue
                assert fast.table == oracle.table, (lam, p)
                agreements += 1
        assert agreements > 500

        # (d) involution and twist laws on 1000 random weights
        for _ in range(1000):
            k = rng.randint(1, 5)
            n = rng.randint(k + 1, 8)
            ctx = GrassContext(k, n)
            w = BlockWeight(
                ctx,
                tuple(rng.randint(-6, 6) for _ in range(k)),
                tuple(rng.randint(-6, 6) for _ in range(n - k)),
            )
            r = rng.randint(-5, 5)
            assert dual_weight(dual_weight(w)) == w
            assert dual_weight(twist(w, r)) == twist(dual_weight(w), -r)
            assert twist(twist(w, r), -r) == w

        # (e) line bundles have no intermediate cohomology
        for k in range(1, 6):
            for n in range(k + 1, 7):
                ctx = GrassContext(k, n)
                for r in range(-2 * n, 2 * n + 1):
                    assert set(cohomology(ex.Line(r), ctx)) <= {0, ctx.dimension}

        # (f) truncation-bound margin for the normality scan
        for ctx, first in [
            (GrassContext(2, 5), (2, 1)),
            (GrassContext(2, 4), (2, 0)),
            (GrassContext(3, 6), (1, 1, 0)),
            (GrassContext(2, 5), (3, 0)),
        ]:
            f = irr_expr(ctx, first)
            rank = evaluate(f, ctx).rank()
            for p in range(1, rank + 1):
                for r in range(p * first[0] + 1, p * first[0] + ctx.n + 1):
                    profile = cohomology(
                        ex.Tensor(ex.Line(r), ex.Wedge(p, ex.Dual(f))), ctx
                    )
                    assert set(profile) <= {0}
        assert time.time() - start < 120.0


def test_criterion_7_euler_goldens():
    with criterion(7, "Euler characteristic goldens"):
        start = time.time()

        def chi_projective(m, t):
            num, den = 1, 1
            for i in range(1, m + 1):
                num *= t + i
                den *= i
            assert num % den == 0
            return num // den

        ctx = GrassContext(1, 4)
        assert euler_restriction(ex.Line(0), ex.Line(4), ctx) == 2
        assert euler_restriction(ex.Line(1), ex.Line(4), ctx) == 4
        assert chi_projective(3, 0) - chi_projective(3, -4) == 2
        assert chi_projective(3, 1) - chi_projective(3, -3) == 4
        ctx = GrassContext(2, 4)
        table = build_table(ex.Line(0), ex.Sym(2, ex.Q), ctx)
        assert analyze(table, TargetKind.RESTRICTION, 0) == Verdict.exact(2)
        assert time.time() - start < 1.0


def test_criterion_8_cross_validation():
    with criterion(8, "scan/witness cross-validation"):
        start = time.time()
        for ctx, beta in sweep_instances():
            report = cross_validate(ctx, beta)
            assert report.consistent, (str(ctx), beta, report.mismatches)
        # the two counterexample instances surface their mismatches
        report = cross_validate(GrassContext(2, 5), (3, 0))
        assert not report.consistent
        assert any("(6, 3)" in m and "Fano-range" in m for m in report.mismatches)
        report = cross_validate(GrassContext(1, 4), (4,))
        assert not report.consistent
        assert any("k=1" in m for m in report.mismatches)
        assert time.time() - start < 300.0


# sha256 over the sorted-key JSON of check_theorem1, check_theorem2 and
# cross_validate of each sweep instance, in that order
SWEEP_REPORTS_GOLDEN = "9246b239b683a893366be3bea121a1319c585352a7ad0e618ce69dee92714770"


def test_sweep_reports_golden():
    instances = sweep_instances()
    assert len(instances) == 227
    digest = hashlib.sha256()
    for ctx, beta in instances:
        f = irr_expr(ctx, beta)
        for report in (
            check_theorem1(ctx, f),
            check_theorem2(ctx, f),
            cross_validate(ctx, beta),
        ):
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_REPORTS_GOLDEN
