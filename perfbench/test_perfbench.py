"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    rec = tracing.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    rec.open("cli.main")
    rec.open("lemma.reduce_certificate")
    rec.open("sequences.total_weight")
    rec.close()
    rec.close()
    rec.open("lp.write_mps")
    rec.close()
    rec.close()
    assert rec.total("cli.main", field=2) == 10 - 3 - 4
    assert rec.total("lemma.reduce_certificate", field=2) == 3 - 1
    assert rec.total("lemma.reduce_certificate") == 3
    assert rec.total("sequences.total_weight", field=2) == 1
    assert rec.total("lp.write_mps", field=2) == 4
    by_layer = rec.self_by_layer()
    # self times partition the root span exactly
    assert sum(by_layer.values()) == 10
    assert rec.roots == [("", "cli.main", 0, 10)]


def test_self_time_is_kept_per_invocation_tag():
    rec = tracing.Recorder(clock=FakeClock([0, 2, 5, 6]))
    rec.tag = "reduce long"
    rec.open("lemma.reduce_certificate")
    rec.close()
    rec.tag = "verify-lemma k=2 L=8"
    rec.open("lemma.reduce_certificate")
    rec.close()
    assert rec.total("lemma.reduce_certificate", "reduce long") == 2
    assert rec.total("lemma.reduce_certificate") == 3
    assert rec.total("lemma.reduce_certificate", field=0) == 2


def test_wrapped_word_generator_charges_shards_by_first_symbol():
    rec = tracing.Recorder(clock=FakeClock(range(100)))
    words = tracing.wrap_words(rec, lambda: iter([(0,), (0, 1), (1,), (2,)]))
    assert list(words()) == [(0,), (0, 1), (1,), (2,)]
    assert rec.counts["lemma.words"] == 4
    # four clock reads per word; the caller's time after a word joins its shard
    assert rec.shards == [{0: 8, 1: 4, 2: 4}]
    assert rec.total("lemma.permissible_words", field=0) == 5  # four words and the stop


def test_list_schedule_makespan():
    assert tracing.list_schedule_makespan([3, 2, 2], 2) == 4
    assert tracing.list_schedule_makespan([1, 1, 1, 1], 2) == 2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(20)) is None  # only the median has ten beyond it
    assert run.tail_percentile(range(40)) == (75.0, 29)
    assert run.tail_percentile(range(100)) == (90.0, 89)
    assert run.tail_percentile(range(1010)) == (99.0, 999)


def test_wrong_verdict_counts_as_a_failure():
    grid = [Fraction(1, 10), Fraction(3, 10)]
    inv = workloads.Invocation("lp-scan", ("lp-scan",), workloads.check_lp_scan(3, 6, grid))
    right = "p=1/10 status=feasible within_maxp=true\np=3/10 status=infeasible gap=0.5 within_maxp=false\n"
    wrong = right.replace("status=infeasible", "status=feasible")
    outcomes = [
        run.finish(inv, 1, right, "", 1.0),
        run.finish(inv, 1, wrong, "", 1.0),
        run.finish(inv, 0, right, "", 1.0),  # right verdicts, wrong exit code
        run.finish(inv, 1, right, "Traceback (most recent call last):\n  boom\nValueError: x\n", 1.0),
    ]
    attempted, failures = run.tally(outcomes, None)
    assert attempted == 4
    assert len(failures) == 3
    assert [o.error is None for o in outcomes] == [True, False, False, False]
    assert run.tally(outcomes[:1], "stopped before stats") == (2, ["out of time: stopped before stats"])


def test_unfaithful_verdict_is_a_failure_only_against_the_exit_code(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("5 1\n0\n1\n1\n0\n1\n")
    check = workloads.check_stats(path, "0.3")
    body = "T 5\nk 1\nfaithful {}\nblanks 2\nblank_rate 0.4\noccupancy_rate 0.6\n"
    body += "weight_rate_total 1/5\nweight_rate 1 1/5\n"
    assert check(1, body.format("false")) == {"blanks": 2, "tests": 0}
    check(0, body.format("true"))
    with pytest.raises(workloads.Mismatch):
        check(0, body.format("false"))
    with pytest.raises(workloads.Mismatch):
        check(0, body.format("true").replace("blanks 2", "blanks 3"))


def test_seed_reaches_simulate_and_long_word(tmp_path):
    def simulate_seeds(seed):
        plan = workloads.trace_pipeline(seed, tmp_path)
        return [inv.argv[inv.argv.index("--seed") + 1] for inv in plan.invocations if inv.subcommand == "simulate"]

    def long_word(seed):
        workloads.lemma_sweep(seed, tmp_path)
        return (tmp_path / "long_word.txt").read_text()

    assert simulate_seeds(1) == simulate_seeds(1)
    assert simulate_seeds(1) != simulate_seeds(2)
    assert len(set(simulate_seeds(1))) == 3
    assert long_word(1) == long_word(1)
    assert long_word(1) != long_word(2)
    assert len(long_word(3).split()) == workloads.LONG_WORD_LEN


def test_long_word_is_permissible():
    word = workloads.random_permissible_word(random.Random(5), 4, 1000)
    assert all(not (a and b and a > b) for a, b in zip(word, word[1:]))
    assert 0 < word.count(0) < len(word)


def test_oracles_on_known_values():
    assert workloads.permissible_count(2, 9) == 10944
    assert workloads.permissible_count(4, 6) == 4542
    assert workloads.permissible_count(1, 1) == 2
    assert workloads.lp_sizes(3, 7)["rows"] == 4481
    assert workloads.lp_sizes(3, 7)["cols"] == 16384
    total, outputs, pairs = workloads.weights_from_definition([1, 2, 0, 1, 1, 0, 1])
    # pairs of 1: b = |{2, B}| = 2, then adjacent (b = 0), then b = |{B}| = 1
    assert (total, outputs, pairs) == (Fraction(3, 2), {1: Fraction(3, 2)}, 3)
    assert workloads.binary_violations(np.array([[1, 1], [0, 0]])) == 1
    assert workloads.binary_violations(np.array([[0, 1], [1, 0]])) == 1
    assert workloads.binary_violations(np.array([[1, 0], [0, 1]])) == 0
    assert workloads.walker_violations(np.array([[1, 2], [3, 4]]), looped=False) == 0
    # walker 1 lands on walker 2's standing spot; walker 1 stays put
    assert workloads.walker_violations(np.array([[1, 2], [2, 3]]), looped=False) == 1
    assert workloads.walker_violations(np.array([[1, 2], [1, 3]]), looped=False) == 1
    assert workloads.walker_violations(np.array([[1, 2], [1, 3]]), looped=True) == 0
    assert abs(workloads.max_p(2) * (1 - workloads.max_p(2) * np.log(workloads.max_p(2))) - 0.5) < 1e-9


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.sparse._base",
        "import time:       400 |        450 |   scipy.sparse",
        "import time:      1000 |       1750 | avoidance",
        "import time:        10 |         10 | avoidance.cli",
        "import time:        20 |         20 | json",
    ])
    assert tracing.parse_importtime(stderr) == pytest.approx((1760e-6, 750e-6))


def test_benchmark_json_names_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(workloads.PLANS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = run.per_layer_metrics(tracing.Recorder(), [], (0.0, 0.0), [], [])
    assert set(per_layer) == set(emitted)
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
