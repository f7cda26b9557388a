"""grassbott benchmark: theorem sweep and CLI session.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing installed, every
child process gets PYTHONPATH=<checkout>/src and a private HOME and
cache directory under .perfbench_tmp/.  One client, closed loop: each op
starts when the previous one has ended.  A round is a cold pass over the
workload's ops followed by one warm pass over the same ops:

  sweep        one library process classifies the 1562 criterion-4
               candidates in a cold pass, then again with its in-process
               caches warm; see sweep.py.  Fixed order.
  cli_session  the 16 README commands (golden outputs, exit codes) plus a
               seeded draw of criterion-4 instances, each issued as check
               thm1, check thm2 and crossval, as ``python -m grassbott``
               processes sharing one cache directory.  Warm stdout must
               equal cold stdout.

Each round starts fresh interpreters and empty caches; nothing is warmed
before timing.  Rounds repeat until --seconds is used up (at least one);
each metric is the median over rounds.  A warm pass is not started when
less time is left before the hard limit than the cold pass took.  Every
op's output is checked; a failed check or a crash counts in "failed" and
never stops the run.  setup_s is the median time to import the package
in a fresh interpreter, probed before and after the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced
cold pass and then a traced round and prints the per-layer metrics; the
traced round wraps the public functions of each grassbott module from
outside (see tracer.py and launch.py).  The last stdout line is the JSON
result; the line before it holds details: environment, tail percentiles
and sample counts, failure messages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
PY = sys.executable
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 15  # taken before and again after the rounds
CLI_DRAWS = 8  # criterion-4 instances drawn per cli_session round
CLI_POOL_MAX_N = 8

# (argv, expected exit code, expected stdout JSON or None)
README = [
    (["bott", "twist(dual(wedge(3,sym(3,Q))),2)", "--grass", "2,5"], 0, {"3": "1"}),
    (["rank", "sym(3,Q)", "--grass", "2,5"], 0, None),
    (["dual", "irr[3,0]", "--grass", "2,5"], 0, None),
    (["decompose", "tensor(Theta,wedge(2,dual(sym(2,Q))))", "--grass", "2,5"], 0, None),
    (["koszul", "--E", "O(2)", "--F", "sym(3,Q)", "--target", "ideal",
      "--degree", "1", "--grass", "2,5"], 0, {"kind": "exact", "dim": "1"}),
    (["euler", "--E", "O(0)", "--F", "O(4)", "--grass", "1,4"], 0, {"euler": "2"}),
    (["hilbert", "--F", "O(4)", "--range", "0..3", "--grass", "1,4"], 0, None),
    (["euler", "--E", "O(0)", "--F", "sym(3,Q)", "--grass", "2,4"], 0, {"euler": "27"}),
    (["euler", "--E", "O(0)", "--F", "sym(5,Q)", "--grass", "2,5"], 0, {"euler": "2875"}),
    (["euler", "--E", "O(0)", "--F", "Theta", "--grass", "2,4"], 0, {"euler": "6"}),
    (["check", "thm1", "--F", "sym(3,Q)", "--grass", "2,5"], 1, None),
    (["check", "thm2", "--F", "sym(4,Q)", "--grass", "1,4"], 1, None),
    (["check", "thm3", "--F", "sym(2,Q),O(1)", "--grass", "2,6"], 0, None),
    (["screen", "--F", "irr[3,0]", "--grass", "2,5"], 0, None),
    (["enumerate", "--lemma54", "--k", "5"], 0, None),
    (["crossval", "--beta", "3,0", "--grass", "2,5"], 1, None),
]


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(tmp: Path, cache: Path) -> dict:
    home = tmp / "home"
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / ".cache"),
        "GBK_CACHE_DIR": str(cache),
        "LANG": "C.UTF-8",
    }


class Child:
    """One finished child process: exit code, wall, cpu, rss, output."""

    def __init__(self, argv, env, tmp: Path, deadline: float):
        out, err = tmp / "stdout", tmp / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        self.launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        pid = os.posix_spawn(PY, [PY, *argv], env, file_actions=actions)
        status = usage = None
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.01))
        try:
            _, status, usage = os.wait4(pid, 0)
        except Deadline:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.timed_out = status is None
        if self.timed_out:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        self.wall = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out.read_bytes()
        self.stderr = err.read_bytes().decode(errors="replace")


def setup_probes(workload: str, tmp: Path, deadline: float) -> list:
    """Times from launch until the modules a workload's process needs are
    imported, in fresh interpreters; None for a probe that failed."""
    module = "grassbott" if workload == "sweep" else "grassbott.cli"
    code = f"import time, {module}; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    env = child_env(tmp, tmp / "cache-setup")
    samples = []
    for _ in range(SETUP_PROBES):
        child = Child(["-c", code], env, tmp, deadline)
        samples.append(float(child.stdout) - child.launched if child.code == 0 else None)
    return samples


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def criterion4() -> list:
    with open(HERE / "criterion4.json", encoding="utf-8") as fh:
        return [(k, n, tuple(b), cost) for k, n, b, cost in json.load(fh)["instances"]]


def _partitions(total: int, parts: int, cap: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _gl_dim(beta: tuple) -> int:
    num = den = 1
    for i in range(len(beta)):
        for j in range(i + 1, len(beta)):
            num *= beta[i] - beta[j] + j - i
            den *= j - i
    return num // den


def sweep_candidates() -> list:
    """Irreducible k-block weights with 2 <= k <= 5, k + 2 <= n <= 10,
    rank <= 20 and |beta| < nk (beyond which no bundle is Fano).

    The order is fixed and the seed does not change it: the candidates
    share in-process cache entries, so the order decides which op pays
    for an entry.  Shuffled with the seed, the eleventh slowest op and
    the peak RSS moved by a third and a tenth between seeds."""
    return [
        [k, n, list(b)]
        for k in range(2, 6)
        for n in range(k + 2, 11)
        for size in range(1, n * k)
        for b in _partitions(size, k, size)
        if _gl_dim(b) <= 20
    ]


def _json_golden(expected):
    def check(stdout: bytes):
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        return None if got == expected else f"stdout {got} != {expected}"

    return check


def cli_commands(seed: int) -> list:
    """[(argv, expected code, stdout check or None)] for one pass."""
    cmds = [(argv, code, _json_golden(g) if g else None) for argv, code, g in README]
    # Draw one instance from each of CLI_DRAWS strata of the small (n <= 8)
    # criterion-4 instances, ordered by their CLI cost when the benchmark
    # was defined, so the session's total work barely depends on the seed.
    pool = [inst for inst in criterion4() if inst[1] <= CLI_POOL_MAX_N]
    rng = random.Random(seed)
    for i in range(CLI_DRAWS):
        lo, hi = i * len(pool) // CLI_DRAWS, (i + 1) * len(pool) // CLI_DRAWS
        k, n, beta, _ = rng.choice(pool[lo:hi])
        grass, b = f"{k},{n}", ",".join(map(str, beta))
        cmds.append((["check", "thm1", "--F", f"irr[{b}]", "--grass", grass], 0, None))
        cmds.append((["check", "thm2", "--F", f"irr[{b}]", "--grass", grass], 0, None))
        cmds.append((["crossval", "--beta", b, "--grass", grass], 0, None))
    return cmds


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _dir_usage(path: Path) -> tuple:
    files = [p for p in path.glob("*") if p.is_file()] if path.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


def new_round() -> dict:
    return {"passes": [], "failures": [], "traces": [], "cpu": 0.0, "rss": 0.0,
            "attempted": 0, "cut": False, "warm_skipped": False}


def cli_round(cmds, warm: bool, tmp: Path, deadline: float, traced: bool) -> dict:
    """Cold pass over the commands on an empty cache directory, then, if
    ``warm`` and there is time for it, a warm pass on that cache."""
    cache = tmp / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    env = child_env(tmp, cache)
    r = new_round()
    cold_out = []
    for pass_no in range(2 if warm else 1):
        label = "warm" if pass_no else "cold"
        if pass_no and deadline - time.perf_counter() < r["passes"][0]["wall"]:
            r["warm_skipped"] = True
            break
        r["attempted"] += len(cmds)
        lat = []
        for i, (argv, code, check) in enumerate(cmds):
            if traced:
                summary = tmp / "trace.json"
                summary.unlink(missing_ok=True)
                launch = [str(HERE / "launch.py"), str(summary), str(pass_no * len(cmds) + i)]
                child = Child(launch + argv, env, tmp, deadline)
            else:
                child = Child(["-m", "grassbott", *argv], env, tmp, deadline)
            if child.timed_out:
                r["failures"].append(f"{label} {' '.join(argv)}: timed out")
                r["cut"] = True
                return r
            lat.append(child.wall)
            r["cpu"] += child.cpu
            r["rss"] = max(r["rss"], child.rss_mb)
            err = None
            if child.code != code:
                err = f"exit {child.code}, expected {code}: {child.stderr.strip()[-200:]}"
            elif pass_no == 0 and check is not None:
                err = check(child.stdout)
            elif pass_no > 0 and child.stdout != cold_out[i]:
                err = "warm stdout differs from cold stdout"
            if pass_no == 0:
                cold_out.append(child.stdout)
            if err:
                r["failures"].append(f"{label} {' '.join(argv)}: {err}")
            if traced:
                try:
                    data = json.loads(summary.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    data = {"missing": {"cli.main": "launcher wrote no trace summary"}}
                data["wall"] = child.wall
                r["traces"].append(data)
        entry = {"lat": lat, "wall": sum(lat)}
        if pass_no == 0:
            entry["cache_files"], entry["cache_bytes"] = _dir_usage(cache)
        r["passes"].append(entry)
    return r


def sweep_round(cands, expected, warm: bool, tmp: Path, deadline: float,
                traced: bool) -> dict:
    inp, out = tmp / "sweep-in.json", tmp / "sweep-out.json"
    # The process itself decides whether its warm pass fits before the
    # hard limit; it is told the time left when it is launched.
    inp.write_text(json.dumps({"candidates": cands, "expected": expected, "warm": warm,
                               "seconds_left": deadline - time.perf_counter()}),
                   encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [str(HERE / "sweep.py"), str(inp), str(out)] + (["--trace"] if traced else [])
    child = Child(argv, child_env(tmp, tmp / "cache"), tmp, deadline)
    r = new_round()
    r["cpu"], r["rss"] = child.cpu, child.rss_mb
    try:
        data = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        reason = "timed out" if child.timed_out else f"exit {child.code}: {child.stderr[-300:]}"
        r["failures"].append(f"sweep process failed: {reason}")
        r["attempted"], r["cut"] = len(cands) * (2 if warm else 1), True
        return r
    r["passes"], r["failures"] = data["passes"], data["failures"]
    r["attempted"] = len(cands) * len(r["passes"])
    r["warm_skipped"] = warm and len(r["passes"]) == 1
    if traced:
        r["traces"].append(data["trace"])
    return r


def run_round(workload, inputs, tmp, deadline, traced, warm=True) -> dict:
    if workload == "sweep":
        return sweep_round(*inputs, warm, tmp, deadline, traced)
    return cli_round(inputs, warm, tmp, deadline, traced)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple:
    """(value, percentile): the mean of the ten slowest samples, which lie
    beyond the highest percentile that has ten samples beyond it (all
    samples when there are ten or fewer).  On sweep the slowest ops are a
    few heavy instances followed by a steep drop, and the eleventh
    slowest alone varied half again as much between identical runs as
    wall_s did; the mean of the ten varied as much as wall_s."""
    xs = sorted(samples)
    top = xs[-10:]
    return statistics.fmean(top), 100.0 * (len(xs) - len(top)) / len(xs)


def round_metrics(r: dict) -> dict:
    cold, warm = r["passes"]
    return {
        "wall_s": cold["wall"] + warm["wall"],
        "cpu_s": r["cpu"],
        "ops_per_s": len(cold["lat"]) / cold["wall"],
        "cold_p50_ms": 1e3 * statistics.median(cold["lat"]),
        "cold_tail_ms": 1e3 * tail(cold["lat"])[0],
        "warm_p50_ms": 1e3 * statistics.median(warm["lat"]),
        "warm_tail_ms": 1e3 * tail(warm["lat"])[0],
        "peak_rss_mb": r["rss"],
    }


def layer_metrics(names: list, r: dict, untraced_cold_wall: float) -> tuple:
    """Per-layer totals over every process of one traced round, and the
    reason for each metric that is null."""
    sums, missing = {}, {}
    cli_main_s = import_s = 0.0
    for t in r["traces"]:
        missing.update(t.get("missing", {}))
        for layer, e in t.get("layers", {}).items():
            for key in ("calls", "self_s"):
                sums[f"{layer}.{key}"] = sums.get(f"{layer}.{key}", 0) + e[key]
            if layer == "cli.main":
                cli_main_s += e["dur_s"]
        for name, value in t.get("counters", {}).items():
            sums[name] = sums.get(name, 0) + value
        import_s += t.get("import_s", 0.0)
        for label, info in t.get("lru", {}).items():
            for key in ("hits", "misses"):
                name = f"lru.{label}.{key}"
                if "reason" in info:
                    missing[name] = info["reason"]
                else:
                    sums[name] = sums.get(name, 0) + info[key]
    cold = r["passes"][0]
    traced_wall = sum(p["wall"] for p in r["passes"])
    cli_process_s = sum(t["wall"] for t in r["traces"] if "wall" in t) - cli_main_s
    self_total = sum(v for k, v in sums.items() if k.endswith(".self_s"))
    # Self times add up over threads, so they are set against
    # thread-seconds: the wall time plus what the worker threads of the
    # fan-out ran beyond the fan-out's own wall time.
    thread_s = traced_wall + sums.get("parallel.map.item_s", 0) - sums.get("parallel.map.wall_s", 0)
    values = {
        "cli.import_s": import_s,
        "cli.process_s": cli_process_s,
        "cache.files": cold.get("cache_files", 0),
        "cache_disk_kb": cold.get("cache_bytes", 0) / 1024.0,
        "trace.wall_s": traced_wall,
        "trace.overhead": cold["wall"] / untraced_cold_wall - 1.0,
        "trace.untraced_share": 1.0 - (self_total + cli_process_s) / thread_s,
    }
    reasons = {}
    for name in names:
        if name in values:
            continue
        reason = missing.get(name) or missing.get(name.rsplit(".", 1)[0])
        if reason is None and name.startswith("lru.") and name not in sums:
            reason = "no traced process reported this cache"
        if reason:
            values[name], reasons[name] = None, reason
        else:
            values[name] = sums.get(name, 0)
    return values, reasons


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "grassbott").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "cli_session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "grassbott" / "cli.py").is_file():
        print(f"error: no grassbott sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    # Bytecode is compiled once per checkout, like an installed package.
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, bench, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def measure(args, bench: dict, tmp: Path, deadline: float) -> int:
    if args.workload == "sweep":
        cands = sweep_candidates()
        inputs = (cands, [[k, n, list(b)] for k, n, b, _ in criterion4()])
    else:
        inputs = cli_commands(args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    rounds, setup = [], []
    if args.trace:
        # The untraced reference is a cold pass only: trace.overhead sets
        # the traced cold pass against it, and the traced round keeps the
        # rest of the time before the hard limit.
        rounds.append(run_round(args.workload, inputs, tmp, deadline, False, warm=False))
        if not rounds[-1]["cut"]:
            rounds.append(run_round(args.workload, inputs, tmp, deadline, True))
    else:
        setup = setup_probes(args.workload, tmp, deadline)
        start = time.perf_counter()
        while True:
            rounds.append(run_round(args.workload, inputs, tmp, deadline, False))
            elapsed = time.perf_counter() - start
            if rounds[-1]["cut"] or rounds[-1]["warm_skipped"]:
                break
            if elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break
        if not rounds[-1]["cut"]:
            setup += setup_probes(args.workload, tmp, deadline)
        if None in setup:
            rounds[-1]["failures"].append("a bare import of grassbott failed")
            rounds[-1]["attempted"] += 1
            setup = []
        if not rounds[0]["cut"] and rounds[0]["warm_skipped"]:
            rounds[0]["failures"].append("the warm pass did not fit before the hard limit")
            rounds[0]["attempted"] += 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["attempted"] if r["cut"] else len(r["failures"]) for r in rounds)
    detail.update(rounds=len(rounds), failed_ratio=failed / attempted,
                  warm_skipped=sum(r["warm_skipped"] for r in rounds),
                  failures=[f for r in rounds for f in r["failures"]][:10])
    metrics = {}
    if args.trace:
        ok = len(rounds) == 2 and not rounds[1]["cut"]
    else:
        ok = bool(setup) and not (rounds[0]["cut"] or rounds[0]["warm_skipped"])
        rounds = [r for r in rounds if not (r["cut"] or r["warm_skipped"])]
    if ok:
        cold = rounds[0]["passes"][0]["lat"]
        detail["tail"] = {"samples_per_pass": len(cold), "beyond_percentile": tail(cold)[1]}
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            values, reasons = layer_metrics(names, rounds[1], rounds[0]["passes"][0]["wall"])
            detail["null_reasons"] = reasons
            detail["spans"] = sum(t.get("spans", 0) for t in rounds[1]["traces"])
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in bench["per_layer"]}
        else:
            per_round = [round_metrics(r) for r in rounds]
            detail["per_round"] = per_round
            values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            values["setup_s"] = statistics.median(setup)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
