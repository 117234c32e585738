"""Spans around the calls into each module of the package, from outside it.

The traced run patches the public functions of every layer module, and each
name another module imported from them (``lemma.total_weight``,
``lp.linprog``), with wrappers that open and close a span.  Spans are
aggregated in memory per (invocation label, span name) as they close, since
a lemma sweep makes millions of them; self time is a span's duration minus
the time its child spans cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "sequences", "lemma", "bounds", "policies", "traces", "stats", "lp", "reporting")
WRAPPED_MODULES = LAYERS[1:]

# the pool size of the untraced `verify-lemma --jobs 2` the shard times model
SHARD_WORKERS = 2


class Recorder:
    """Aggregates spans as they close.

    ``spans[(tag, name)]`` is ``[calls, inclusive_s, self_s]``; ``tag`` is the
    label of the invocation running when the span opened.  Inclusive time
    assumes a span never nests inside one of the same name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tag = ""
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.roots: list[tuple[str, str, float, float]] = []
        self.shards: list[dict[int, float]] = []
        self._stack: list[list] = []  # open spans: [name, start, child-covered seconds]

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, covered = self._stack.pop()
        end = self.clock()
        duration = end - start
        agg = self.spans.setdefault((self.tag, name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.roots.append((self.tag, name, start, end))

    def total(self, name: str, tag: str | None = None, field: int = 1):
        """Sum one field (0 calls, 1 inclusive, 2 self) over tags, or for one tag."""
        return sum(
            agg[field] for (t, n), agg in self.spans.items() if n == name and tag in (None, t)
        )

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, name), agg in self.spans.items():
            out[name.split(".", 1)[0]] += agg[2]
        return out


def wrap(rec: Recorder, name: str, fn, on_result=None):
    """A stand-in for ``fn`` that records a span and feeds ``on_result`` counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if on_result is not None:
            on_result(rec.counts, args, result)
        return result

    return traced


def wrap_words(rec: Recorder, fn):
    """Wrap ``lemma.permissible_words``: each ``next`` is a span, and the time
    until the following ``next`` (the caller checking the word) is charged,
    with it, to the shard of the word's first symbol.  At ``--jobs N`` those
    first-symbol shards are what the process pool distributes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        busy: dict[int, float] = {}
        rec.shards.append(busy)
        shard, mark = None, 0.0
        while True:
            now = rec.clock()
            if shard is not None:
                busy[shard] += now - mark
            rec.open("lemma.permissible_words")
            try:
                word = next(gen)
            except StopIteration:
                return
            finally:
                rec.close()
            mark = rec.clock()
            shard = word[0]
            busy[shard] = busy.get(shard, 0.0) + (mark - now)
            rec.counts["lemma.words"] += 1
            yield word

    return traced


def _read_bytes(counts, args, result):
    if isinstance(args[0], (str, os.PathLike)):
        counts["traces.read_bytes"] += os.path.getsize(args[0])


def _built(counts, args, lp):
    counts["lp.rows"] += lp.num_rows
    counts["lp.cols"] += lp.num_vars
    counts["lp.nnz"] += lp.A.nnz
    counts["lp.zero_vars"] += len(lp.zero_vars)


ON_RESULT = {
    "sequences.neighbor_pairs": lambda c, a, r: c.update({"sequences.pairs": len(r)}),
    "lemma.reduce_step": lambda c, a, r: c.update({f"lemma.steps.{r.rule}": 1}),
    "lp.build_window_lp": _built,
    "lp.solve_feasibility": lambda c, a, r: c.update({f"lp.status.{r.status}": 1}),
    "lp.write_mps": lambda c, a, r: c.update({"lp.mps_bytes": len(r)}),
    "policies.simulate": lambda c, a, r: c.update({"policies.rows": r.T}),
    "traces.write_trace": lambda c, a, r: c.update({"traces.write_bytes": len(r)}),
    "traces.read_trace": _read_bytes,
    "traces.check_1avoidance": lambda c, a, r: c.update({"traces.violations": len(r.violations)}),
    "traces.check_walker_avoidance": lambda c, a, r: c.update(
        {"traces.violations": len(r.violations)}
    ),
    "stats.faithfulness_tests": lambda c, a, r: c.update({"stats.tests": len(r.outcomes)}),
}


@contextmanager
def instrumented(package: str, rec: Recorder):
    """Patch every reference to a wrapped function inside ``package``; undo on exit."""
    # keyed by id: each wrapper holds its original, so no id is reused
    wrappers: dict[int, object] = {}
    for mod_name in WRAPPED_MODULES:
        mod = sys.modules[f"{package}.{mod_name}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{mod_name}.{attr}"
            if name == "lemma.permissible_words":
                wrappers[id(fn)] = wrap_words(rec, fn)
            else:
                wrappers[id(fn)] = wrap(rec, name, fn, ON_RESULT.get(name))
    lp = sys.modules[f"{package}.lp"]
    cli = sys.modules[f"{package}.cli"]
    wrappers[id(lp.linprog)] = wrap(rec, "lp.highs", lp.linprog)
    wrappers[id(cli.main)] = wrap(rec, "cli.main", cli.main)

    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def list_schedule_makespan(durations, workers: int) -> float:
    """Makespan when each task, in order, goes to the worker that frees up first."""
    loads = [0.0] * workers
    for d in durations:
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of the top-level ``avoidance`` imports and of the
    outermost ``scipy`` imports, from ``python -X importtime`` output."""
    entries = []  # (depth, module, cumulative seconds), in output (post-) order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    package = scipy = 0.0
    ancestors: list[tuple[int, str]] = []
    # walking backwards, a module's ancestors are the open entries of lower depth
    for depth, module, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        roots = {a[1].split(".")[0] for a in ancestors}
        top = module.split(".")[0]
        if top == "avoidance" and not ancestors:
            package += cum
        if top == "scipy" and "scipy" not in roots:
            scipy += cum
        ancestors.append((depth, module))
    return package, scipy


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from a traced pass.

    The long-word and per-policy times are read from the spans of the
    invocations labelled ``reduce long`` and ``simulate <policy>``.
    """
    t = rec.total
    c = rec.counts
    m: dict[str, float] = {}
    for name in ("sequences.total_weight", "sequences.neighbor_pairs"):
        m[f"{name}.calls"] = t(name, field=0)
        m[f"{name}.self_s"] = t(name, field=2)
    m["sequences.pairs"] = c["sequences.pairs"]

    m["lemma.words"] = c["lemma.words"]
    m["lemma.enumerate_s"] = t("lemma.permissible_words", field=2)
    for name in ("lemma.reduce_certificate", "lemma.check_certificate"):
        m[f"{name}.self_s"] = t(name, field=2)
    m["lemma.redistribution.calls"] = t("lemma.redistribution", field=0)
    m["lemma.redistribution.self_s"] = t("lemma.redistribution", field=2)
    for rule in ("CollapseBlanks", "DeleteZeroWeightPair", "CollapseWeightOnePair", "DeleteVictimSymbol"):
        m[f"lemma.steps.{rule}"] = c[f"lemma.steps.{rule}"]
    m["lemma.long.reduce_s"] = t("lemma.reduce_certificate", "reduce long")
    m["lemma.long.check_s"] = t("lemma.check_certificate", "reduce long")
    busy = [d for shards in rec.shards for d in shards.values()]
    makespan = sum(
        list_schedule_makespan([s[f] for f in sorted(s)], SHARD_WORKERS) for s in rec.shards
    )
    m["lemma.shard_busy_max_s"] = max(busy, default=0.0)
    m["lemma.shard_balance"] = sum(busy) / (SHARD_WORKERS * makespan) if makespan else 0.0

    m["lp.build_window_lp.self_s"] = t("lp.build_window_lp", field=2)
    m["lp.solve_feasibility.self_s"] = t("lp.solve_feasibility", field=2)
    m["lp.highs.calls"] = t("lp.highs", field=0)
    m["lp.highs.s"] = t("lp.highs")
    m["lp.write_mps_s"] = t("lp.write_mps")
    for key in ("rows", "cols", "nnz", "zero_vars", "mps_bytes"):
        m[f"lp.{key}"] = c[f"lp.{key}"]
    for status in ("feasible", "infeasible", "unknown"):
        m[f"lp.status.{status}"] = c[f"lp.status.{status}"]

    m["bounds.max_p.calls"] = t("bounds.max_p", field=0)
    m["bounds.max_p.s"] = t("bounds.max_p")

    for policy in ("trivial-k1", "walkers", "independent"):
        m[f"policies.simulate.{policy}_s"] = t("policies.simulate", f"simulate {policy}")
    m["policies.rows"] = c["policies.rows"]

    for name in ("write_trace", "read_trace", "check_1avoidance", "check_walker_avoidance", "encode"):
        m[f"traces.{name}_s"] = t(f"traces.{name}")
    for key in ("write_bytes", "read_bytes", "violations"):
        m[f"traces.{key}"] = c[f"traces.{key}"]

    m["stats.faithfulness_tests_s"] = t("stats.faithfulness_tests")
    m["stats.empirical_stats.self_s"] = t("stats.empirical_stats", field=2)
    m["stats.tests"] = c["stats.tests"]

    for layer, seconds in rec.self_by_layer().items():
        m[f"{layer}.self_s"] = seconds
    return m
