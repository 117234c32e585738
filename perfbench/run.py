"""Benchmark of whole ``python -m avoidance`` runs, with a traced per-module pass.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 38 --trace 0
    python3 -m pytest perfbench -q      # the benchmark's own tests

Closed loop with one client: each invocation is a fresh process started only
after the previous one exits, on inputs generated from ``--seed``.  Every
invocation's output is checked against values the benchmark computes itself.

``--trace 0`` repeats passes over the workload's invocations for about
``--seconds``; each pass is preceded by one timed ``--version`` start-up.
It reports a typical pass, built from each invocation's median over the
passes, and the median start-up.  Exact counts seen in the outputs must
repeat in every pass.

``--trace 1`` makes one untraced pass in subprocesses (per-subcommand wall
and RSS), then a warm-up, an untraced and a traced pass in this process
through ``avoidance.cli.main``, with ``verify-lemma`` at ``--jobs 1`` since
spans inside pool workers would be lost, and reports per-layer metrics.
Exact counts must match those of an earlier traced run of the same source
and seed, kept in ``.perfbench/counts/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment stamp,
every sample and the aggregated spans, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import PLANS, Invocation, Plan, check_version  # noqa: E402

SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# a run must end within 180 s; leave room for the report
RUN_DEADLINE_S = 165.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
SUBCOMMANDS = ("verify-lemma", "weights", "reduce", "simulate", "stats", "check-trace", "lp-scan", "lp-build")


@dataclass
class Outcome:
    """One finished invocation: what it printed, what it cost, what was wrong."""

    inv: Invocation
    rc: int | None
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Deadline(Exception):
    """The run is out of time; no further invocation may start."""


# ---------------------------------------------------------------------------
# Summaries


def tail_percentile(samples, min_tail: int = 10):
    """The highest of ``TAIL_PERCENTILES`` with at least ``min_tail`` samples
    above its nearest-rank value, as ``(percentile, value)``; None if none has."""
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= min_tail:
            return q, xs[rank - 1]
    return None


def describe(samples) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile"
    return f"median {statistics.median(samples):.4f}, {tail_text} (n={len(samples)})"


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("rss_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name in ("lemma.shard_balance", "trace.overhead"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Running the program


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def finish(inv: Invocation, rc, out: str, err: str, wall: float, **usage) -> Outcome:
    result = Outcome(inv, rc, wall, **usage)
    if "Traceback (most recent call last)" in err:
        result.error = "traceback: " + err.strip().splitlines()[-1]
        return result
    try:
        result.counts = inv.check(rc, out)
    except Exception as exc:  # any check that cannot even parse the output is a failure
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_subprocess(inv: Invocation, workdir: Path, deadline: float) -> Outcome:
    """Run one invocation in a fresh interpreter and read its own rusage.

    ``os.wait4`` gives this child's user and system time and max RSS, with
    those of the pool workers it reaped; ``RUSAGE_CHILDREN`` would instead
    keep a running maximum over every child this process ever had.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Deadline(inv.label)
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "avoidance", *inv.argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=workdir, env=child_env(),
        )
        done = threading.Event()
        killer = threading.Timer(timeout, lambda: done.is_set() or proc.kill())
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            done.set()
        finally:
            killer.cancel()
            if not done.is_set():
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = finish(
        inv, proc.returncode, out_path.read_text(), err_path.read_text(), wall,
        cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024,
    )
    if proc.returncode == -9 and time.monotonic() >= deadline:
        result.error = f"killed after the run deadline: {result.error}"
    return result


def run_in_process(main, inv: Invocation, argv, rec=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    if rec is not None:
        rec.tag = inv.label
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return finish(inv, rc, out.getvalue(), err.getvalue(), wall)


def single_job(argv) -> tuple[str, ...]:
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return tuple(argv)


VERSION = Invocation("version", ("--version",), check_version)


def subprocess_pass(plan: Plan, workdir: Path, deadline: float) -> list[Outcome]:
    return [run_subprocess(inv, workdir, deadline) for inv in plan.invocations]


def typical_pass(passes: list[list[Outcome]]) -> dict:
    """End-to-end metrics of a typical pass, built from each invocation's
    median over the passes; a slow spell that hits one invocation in one
    pass then moves nothing, where it would move the median of pass sums."""
    columns = list(zip(*passes))  # one tuple per invocation, one entry per pass
    wall = [statistics.median(o.wall for o in col) for col in columns]
    rated = [(col[0].inv.work, w) for col, w in zip(columns, wall) if col[0].inv.rated]
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(statistics.median(o.cpu for o in col) for col in columns),
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in col) for col in columns),
        "work_per_s": sum(work for work, _ in rated) / sum(w for _, w in rated),
    }


def pass_counts(outcomes: list[Outcome]) -> dict:
    return {f"{o.inv.label}: {k}": v for o in outcomes for k, v in o.counts.items()}


# ---------------------------------------------------------------------------
# The two kinds of run


def timed_run(plan: Plan, seconds: float, workdir: Path, deadline: float, record: dict) -> dict:
    """Untraced passes in subprocesses for about ``seconds``."""
    warm = run_subprocess(VERSION, workdir, deadline)  # compiles bytecode once, as an install would
    outcomes: list[Outcome] = [warm]
    setups: list[Outcome] = []
    passes: list[list[Outcome]] = []
    start = time.monotonic()
    # stop when another pass of the mean length would overrun ``seconds``
    while not passes or (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
        try:
            setups.append(run_subprocess(VERSION, workdir, deadline))
            passes.append(subprocess_pass(plan, workdir, deadline))
        except Deadline as exc:
            record["deadline"] = f"stopped before {exc}"
            break
    outcomes += setups + [o for one in passes for o in one]
    if not passes:
        return {"outcomes": outcomes, "metrics": {}}
    counts = [pass_counts(one) for one in passes]
    record["passes"] = len(passes)
    record["nondeterministic"] = sorted(
        {k for c in counts[1:] for k in c.keys() | counts[0].keys() if c.get(k) != counts[0].get(k)}
    )
    record["counts"] = counts[0]
    record["summary"] = {"setup_s": describe([o.wall for o in setups])}
    record["summary"].update({f"[{col[0].inv.label}] wall_s": describe([o.wall for o in col]) for col in zip(*passes)})
    metrics = {"setup_s": statistics.median(o.wall for o in setups), **typical_pass(passes)}
    return {"outcomes": outcomes, "metrics": metrics}


def per_layer_metrics(rec, subprocess_outcomes, import_times, untraced, traced) -> dict:
    """Every per-layer metric: start-up and per-subcommand cost from the
    untraced subprocess pass, the rest from the traced in-process pass."""
    metrics = dict(zip(("cli.import_s", "cli.import_scipy_s"), import_times))
    for sub in SUBCOMMANDS:
        mine = [o for o in subprocess_outcomes if o.inv.subcommand == sub]
        metrics[f"cli.{sub}.wall_s"] = sum(o.wall for o in mine)
        metrics[f"cli.{sub}.rss_mb"] = max((o.rss_mb for o in mine), default=0.0)
    metrics.update(tracing.layer_metrics(rec))
    traced_wall = sum(o.wall for o in traced)
    untraced_wall = sum(o.wall for o in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.gap_s"] = traced_wall - sum(rec.self_by_layer().values())
    metrics["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return metrics


def traced_run(plan: Plan, workdir: Path, deadline: float, record: dict, seed: int) -> dict:
    """One untraced subprocess pass, then untraced and traced in-process passes."""
    imp = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "avoidance", "--version"],
        capture_output=True, text=True, cwd=workdir, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    fresh = subprocess_pass(plan, workdir, deadline)

    sys.path.insert(0, str(SRC))
    import avoidance.cli

    if not Path(avoidance.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported avoidance from {avoidance.cli.__file__}, not {SRC}")

    def in_process_pass(rec=None):
        return [run_in_process(avoidance.cli.main, inv, single_job(inv.argv), rec) for inv in plan.invocations]

    # the first in-process pass pays lazy imports and first-touch allocation
    warm = in_process_pass()
    untraced = in_process_pass()
    rec = tracing.Recorder()
    with tracing.instrumented("avoidance", rec):
        traced = in_process_pass(rec)
    outcomes = fresh + warm + untraced + traced
    metrics = per_layer_metrics(rec, fresh, tracing.parse_importtime(imp.stderr), untraced, traced)

    exact = {k: v for k, v in metrics.items() if is_exact_count(k)}
    record["nondeterministic"] = compare_ledger(plan.workload, seed, exact)
    record["spans"] = [
        {"invocation": tag, "span": name, "calls": a[0], "inclusive_s": a[1], "self_s": a[2]}
        for (tag, name), a in sorted(rec.spans.items())
    ]
    record["roots"] = [{"invocation": t, "span": n, "start": s, "end": e} for t, n, s, e in rec.roots]
    record["shards_s"] = [{str(f): s for f, s in sorted(shards.items())} for shards in rec.shards]
    record["coverage"] = {
        "traced_wall_s": metrics["trace.wall_s"],
        "self_s_by_layer": rec.self_by_layer(),
        "unwrapped_gap_s": metrics["trace.gap_s"],
    }
    return {"outcomes": outcomes, "metrics": metrics}


EXACT_PREFIXES = ("lemma.words", "lemma.steps.", "sequences.pairs", "lp.nnz", "lp.rows", "lp.cols",
                  "lp.zero_vars", "lp.mps_bytes", "lp.status.", "traces.violations", "traces.write_bytes",
                  "traces.read_bytes", "policies.rows", "stats.tests")


def is_exact_count(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) or name.endswith(".calls")


def compare_ledger(workload: str, seed: int, exact: dict) -> list[str]:
    """Names of exact counts that differ from an earlier traced run of the same
    source and seed; the first such run records them."""
    path = STATE / "counts" / f"{workload}-seed{seed}-{source_digest()[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, indent=1, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return sorted(k for k in exact.keys() | before.keys() if exact.get(k) != before.get(k))


# ---------------------------------------------------------------------------
# Environment stamp


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "avoidance").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    right now, so runs made while it was slowed by other load stand out."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def environment(seed: int) -> dict:
    def quiet(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return (done.stdout.strip() or None) if done.returncode == 0 else None

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "l2_cache_bytes": quiet(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_cache_bytes": quiet(["getconf", "LEVEL3_CACHE_SIZE"]),
        "python": platform.python_version(),
        **versions,
        "git_commit": quiet(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
        "seed": seed,
        "speed_probe_ms": speed_probe_ms(),
    }


# ---------------------------------------------------------------------------


def tally(outcomes: list[Outcome], deadline: str | None) -> tuple[int, list[str]]:
    """Attempted invocations and the failures among them.  An invocation the
    deadline kept from starting counts as attempted and failed."""
    failures = [f"{o.inv.label}: {o.error}" for o in outcomes if o.error]
    if deadline:
        failures.append(f"out of time: {deadline}")
    return len(outcomes) + bool(deadline), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "avoidance" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'avoidance'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    record: dict = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    try:
        plan = PLANS[args.workload](args.seed, workdir)
        record["inputs"] = plan.inputs
        if args.trace:
            run = traced_run(plan, workdir, deadline, record, args.seed)
        else:
            run = timed_run(plan, args.seconds, workdir, deadline, record)
    except Deadline as exc:
        record["deadline"] = f"stopped before {exc}"
        run = {"outcomes": [], "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, metrics = run["outcomes"], run["metrics"]
    attempted, failures = tally(outcomes, record.get("deadline"))
    flagged = record.get("nondeterministic", [])
    correct = bool(metrics) and not failures and not flagged
    record["env"]["runs"] = record.get("passes", 1)
    record.update(correct=correct, failures=failures, metrics=metrics,
                  invocations=[{"label": o.inv.label, "rc": o.rc, "wall_s": o.wall, "cpu_s": o.cpu,
                                "rss_mb": o.rss_mb, "error": o.error} for o in outcomes])
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, text in record.get("summary", {}).items():
        print(f"  {name:<36} {text}")
    if not args.trace and metrics:
        for name, value in metrics.items():
            print(f"  {name:<12} {value:.4f} {unit_of(name)}")
        print(f"  work_per_s here is {plan.rate_name}")
    print(f"  fail_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for line in failures:
        print(f"  FAILED {line}")
    if flagged:
        print("  FLAGGED nondeterministic counts: " + ", ".join(flagged))
    if args.trace and metrics:
        cov = record["coverage"]
        print(f"  traced wall {cov['traced_wall_s']:.3f} s = layer self times "
              f"{sum(cov['self_s_by_layer'].values()):.3f} s + unwrapped gap {cov['unwrapped_gap_s']:.4f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
