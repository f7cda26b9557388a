"""Library process for the ``sweep`` workload.

usage: python perfbench/sweep.py INPUT.json OUTPUT.json [--trace]

INPUT holds the candidate list, the set of candidates the
screens must pass, whether to make a warm pass and the seconds left
before the caller's hard limit.  The process classifies every candidate
in a cold pass in the fresh interpreter, then again in a warm pass,
which reuses the in-process caches; the warm pass is left out when less
time is left than the cold pass took.  One op is one candidate: ``screens.screen`` and, for
a candidate that passes, ``check_theorem1``, ``check_theorem2`` and
``cross_validate`` with the library default jobs=1 and no disk store.
Each op is checked against the criterion-4 invariants; a failed check
or an exception counts as a failed op and the sweep goes on.
"""

import json
import sys
import time
import warnings

from grassbott import expr as ex
from grassbott import screens, theorems
from grassbott.weights import BlockWeight, GrassContext


def classify(k, n, beta, expected):
    """Run one op and return None, or the reason its output is wrong."""
    ctx = GrassContext(k, n)
    rep = screens.screen(ctx, [beta])
    passed = rep.is_fano and rep.positive_dimension and not rep.excluded
    if passed != expected:
        return f"screen verdict {passed}, expected {expected}"
    if not passed:
        return None
    f = ex.Irr(BlockWeight.from_first(ctx, beta))
    r1 = theorems.check_theorem1(ctx, f)
    r2 = theorems.check_theorem2(ctx, f)
    cv = theorems.cross_validate(ctx, beta)
    if r1.verdict != "pass" or r2.verdict != "pass":
        return f"verdicts thm1={r1.verdict} thm2={r2.verdict}"
    if r1.connected_h0 != "1":
        return f"connected_h0={r1.connected_h0}"
    if not cv.consistent:
        return f"cross-validation mismatches {cv.mismatches[:1]}"
    return None


def main() -> int:
    launched = time.perf_counter()
    inp, out = sys.argv[1], sys.argv[2]
    tracer = None
    if "--trace" in sys.argv[3:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warnings.simplefilter("ignore")
    with open(inp, encoding="utf-8") as fh:
        data = json.load(fh)
    candidates = [(k, n, tuple(b)) for k, n, b in data["candidates"]]
    expected = {(k, n, tuple(b)) for k, n, b in data["expected"]}
    passes, failures = [], []
    op = 0
    for pass_no in range(2 if data["warm"] else 1):
        left = data["seconds_left"] - (time.perf_counter() - launched)
        if pass_no and left < passes[0]["wall"]:
            break
        lat = []
        pass_start = time.perf_counter()
        for k, n, beta in candidates:
            if tracer is not None:
                tracer.op = op
            op += 1
            start = time.perf_counter()
            try:
                err = classify(k, n, beta, (k, n, beta) in expected)
            except Exception as exc:  # a crash is a failed op, not the end of the run
                err = f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - start)
            if err is not None:
                failures.append(f"Gr({k},{n}) beta={list(beta)}: {err}")
        passes.append({"lat": lat, "wall": time.perf_counter() - pass_start})
    result = {"passes": passes, "failures": failures}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
