import concurrent.futures
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avoidance import lemma
from avoidance.lemma import (
    COLLAPSE_BLANKS,
    COLLAPSE_WEIGHT_ONE_PAIR,
    DELETE_VICTIM_SYMBOL,
    DELETE_ZERO_WEIGHT_PAIR,
    ENUMERATION_BUDGET,
    RULES,
    CheckResult,
    ReductionStep,
    apply_edit,
    certificate_from_text,
    certificate_to_text,
    check_certificate,
    is_terminal,
    reduce_certificate,
    reduce_step,
    redistribution,
    verify_lemma_exhaustive,
)
from avoidance.sequences import (
    BLANK,
    Seq,
    blank_count,
    pair_scan,
    parse_seq,
    permissible_words,
    word_counts,
)

from oracles import brute_redistribution, replay_certificate

WORKED_EXAMPLE = parse_seq("1 3 B 2 3 3 B 3 B 1 B 2 B 1 3", 3)
REDUCED_EXAMPLE = parse_seq("1 3 B 2 3 B 1 B 2 B 1 3", 3)


def permissible_seqs(max_k=3, max_len=9):
    def build(k):
        return st.lists(st.integers(0, k), max_size=max_len).map(
            lambda xs: Seq(k, tuple(xs))
        )

    return (
        st.integers(1, max_k)
        .flatmap(build)
        .filter(lambda s: all(
            not (a != 0 and b != 0 and a > b)
            for a, b in zip(s.symbols, s.symbols[1:])
        ))
    )


# ---------------------------------------------------------------- redistribution

def as_fractions(table, den):
    """An integer table over ``den`` as exact rationals."""
    return {j: Fraction(v, den) for j, v in table.items()}


def test_redistribution_reduced_example():
    scan = pair_scan(REDUCED_EXAMPLE)
    received = redistribution(scan)
    assert as_fractions(received, scan.denominator) == {
        1: Fraction(1, 3), 2: Fraction(4, 3), 3: Fraction(1, 3)
    }
    outputs = scan.scaled_outputs()
    assert as_fractions(outputs, scan.denominator) == {
        1: Fraction(5, 6), 2: Fraction(1, 3), 3: Fraction(5, 6)
    }
    assert sum(received.values()) == sum(outputs.values()) == 2 * scan.denominator


def test_redistribution_single_pair():
    scan = pair_scan(parse_seq("1 B 2 B 1", 2))
    assert as_fractions(redistribution(scan), scan.denominator) == {2: Fraction(1, 2)}
    assert as_fractions(scan.scaled_outputs(), scan.denominator) == {1: Fraction(1, 2)}


def test_redistribution_rejects_low_b():
    with pytest.raises(ValueError, match="has b=1; rules 1..3 are not exhausted"):
        redistribution(pair_scan(parse_seq("1 B 1", 1)))


def test_redistribution_rejects_a_pair_without_a_blank():
    # only a non-permissible word has such a pair with b >= 2
    with pytest.raises(ValueError, match=r"pair \(1,4\) has no blank between its endpoints"):
        redistribution(pair_scan(Seq(3, (1, 2, 3, 1))))


def pair_donations(s):
    """(symbol, t1, recipients, amount) per pair: the pair donates amount
    1/(b(b-1)) to each walker symbol strictly between its endpoints."""
    for sym, t1, t2, b in pair_scan(s).pairs:
        recipients = set(s.symbols[t1 : t2 - 1]) - {BLANK}
        yield sym, t1, recipients, Fraction(1, b * (b - 1))


def unit_weight(b):
    """A pair's weight by the definition: 1/b, or 0 for an adjacent pair."""
    return Fraction(1, b) if b else Fraction(0)


def test_redistribution_never_donates_to_own_symbol():
    received = {}
    for sym, _, recipients, amount in pair_donations(REDUCED_EXAMPLE):
        assert sym not in recipients
        for r in recipients:
            received[r] = received.get(r, 0) + amount
    scan = pair_scan(REDUCED_EXAMPLE)
    assert received == as_fractions(redistribution(scan), scan.denominator)


@given(permissible_seqs())
def test_redistribution_conserves_weight(s):
    scan = pair_scan(s)
    try:
        received = redistribution(scan)
    except ValueError:
        return  # rules 1..3 not exhausted for this draw
    assert sum(received.values()) == scan.scaled_total
    assert as_fractions(received, scan.denominator) == brute_redistribution(list(s.symbols))
    # averaging: some present symbol receives at least what it emits
    present = sorted(set(s.symbols) - {BLANK})
    if present:
        outputs = scan.scaled_outputs()
        assert any(received.get(j, 0) >= outputs.get(j, 0) for j in present)


# ---------------------------------------------------------------- single steps

def test_step_priority_zero_weight_pair():
    step = reduce_step(WORKED_EXAMPLE)
    assert step == ReductionStep(DELETE_ZERO_WEIGHT_PAIR, 5, Fraction(0), 0)
    assert apply_edit(WORKED_EXAMPLE, step.rule, step.arg).T == 14


def test_step_weight_one_collapse():
    s = parse_seq("1 B 1", 1)
    step = reduce_step(s)
    assert step == ReductionStep(COLLAPSE_WEIGHT_ONE_PAIR, 1, Fraction(-1), -1)
    assert apply_edit(s, step.rule, step.arg).symbols == (1,)


def test_step_victim_deletion():
    step = reduce_step(REDUCED_EXAMPLE)
    assert step == ReductionStep(DELETE_VICTIM_SYMBOL, 2, Fraction(4, 3) - Fraction(1, 3), 0)
    assert pair_scan(apply_edit(REDUCED_EXAMPLE, step.rule, step.arg)).total == 3


def test_step_blank_collapse_first():
    s = parse_seq("1 B B 1", 1)
    step = reduce_step(s)
    assert step == ReductionStep(COLLAPSE_BLANKS, 2, Fraction(0), -1)
    assert apply_edit(s, step.rule, step.arg).symbols == (1, BLANK, 1)


def test_step_terminal_raises():
    for text in ("", "B"):
        with pytest.raises(ValueError):
            reduce_step(parse_seq(text, 1) if text else Seq(1, ()))


def test_step_rejects_non_permissible():
    with pytest.raises(ValueError):
        reduce_step(parse_seq("2 1", 2))


# ---------------------------------------------------------------- certificates

def test_certificate_trivial_cases():
    cert = reduce_certificate(parse_seq("1 B 1", 1))
    assert len(cert.steps) >= 1
    assert check_certificate(cert).ok

    cert = reduce_certificate(parse_seq("B", 1))
    assert cert.steps == ()
    assert cert.final.symbols == (BLANK,)
    assert check_certificate(cert).ok


def test_certificate_worked_example():
    cert = reduce_certificate(WORKED_EXAMPLE)
    assert check_certificate(cert).ok
    assert pair_scan(cert.initial).total == 3
    assert blank_count(cert.initial) == 5
    assert is_terminal(cert.final)


def test_certificate_golden_serialization():
    cert = reduce_certificate(WORKED_EXAMPLE)
    text = certificate_to_text(cert)
    assert text == (
        "3 15\n"
        "1 3 B 2 3 3 B 3 B 1 B 2 B 1 3\n"
        "DeleteZeroWeightPair 5 0/1 0\n"
        "CollapseWeightOnePair 5 -1/1 -1\n"
        "DeleteVictimSymbol 2 1/1 0\n"
        "CollapseBlanks 7 0/1 -1\n"
        "CollapseWeightOnePair 2 -1/1 -1\n"
        "CollapseWeightOnePair 4 -1/1 -1\n"
        "DeleteVictimSymbol 1 0/1 0\n"
        "CollapseWeightOnePair 1 -1/1 -1\n"
        "DeleteVictimSymbol 3 0/1 0\n"
        "\n"
    )
    replayed = certificate_from_text(text)
    assert replayed.initial == cert.initial
    assert replayed.final == cert.final
    assert check_certificate(replayed).ok


def test_tampered_weight_delta_rejected():
    cert = reduce_certificate(WORKED_EXAMPLE)
    bad_step = cert.steps[0]._replace(weight_delta=cert.steps[0].weight_delta + 1)
    bad = cert._replace(steps=(bad_step,) + cert.steps[1:])
    res = check_certificate(bad)
    assert not res.ok
    assert "weight delta" in res.failure


def test_tampered_victim_rejected():
    # victim 2 of the reduced example is the only admissible one; forcing
    # victim 1 (input 1/3 < output 5/6) must fail the admissibility check
    assert reduce_step(REDUCED_EXAMPLE).arg == 2
    forged_after = apply_edit(REDUCED_EXAMPLE, DELETE_VICTIM_SYMBOL, 1)
    forged = ReductionStep(
        DELETE_VICTIM_SYMBOL,
        1,
        pair_scan(forged_after).total - pair_scan(REDUCED_EXAMPLE).total,
        0,
    )
    tail = reduce_certificate(forged_after)
    cert = tail._replace(initial=REDUCED_EXAMPLE, steps=(forged,) + tail.steps)
    res = check_certificate(cert)
    assert not res.ok
    assert "input < output" in res.failure


def test_tampered_serialized_position_rejected():
    text = certificate_to_text(reduce_certificate(parse_seq("1 B 1 B 1", 1)))
    lines = text.splitlines()
    assert lines[2] == "CollapseWeightOnePair 1 -1/1 -1"
    # position 2 anchors on a blank, so no walker-blank-walker pattern there
    lines[2] = "CollapseWeightOnePair 2 -1/1 -1"
    replayed = certificate_from_text("\n".join(lines) + "\n")
    res = check_certificate(replayed)
    assert not res.ok
    assert "pattern" in res.failure


def test_broken_chain_rejected():
    cert = reduce_certificate(WORKED_EXAMPLE)
    bad = cert._replace(steps=cert.steps[1:])
    assert not check_certificate(bad).ok


def test_mutation_sweep_every_delta_tamper_rejected():
    # stored deltas are recomputed from scratch, so any change must be caught
    words = [w for w in permissible_words(2, 5) if len(w) >= 3]
    swept = 0
    for word in words[::7]:
        cert = reduce_certificate(Seq(2, word))
        for idx, step in enumerate(cert.steps):
            for field, bump in (("weight_delta", Fraction(1, 7)), ("blank_delta", 1)):
                bad_step = step._replace(**{field: getattr(step, field) + bump})
                bad = cert._replace(
                    steps=cert.steps[:idx] + (bad_step,) + cert.steps[idx + 1 :]
                )
                assert not check_certificate(bad).ok
                swept += 1
    assert swept > 100


@given(permissible_seqs())
@settings(max_examples=60, deadline=None)
def test_random_certificates_round_trip(s):
    cert = reduce_certificate(s)
    assert check_certificate(cert).ok
    # a step is its line, so the text form parses back to the same value
    assert certificate_from_text(certificate_to_text(cert)) == cert
    # termination bound: each step strictly shortens
    assert len(cert.steps) <= s.T
    for before, _, after in replay_certificate(cert):
        assert after.T < before.T


# (word, k, line number, tampered line, failure): each tampered line
# parses, so only the checker's replay can reject it
TAMPERED_LINES = [
    # an anchor past the word's end
    ("1 3 B 2 3 3 B 3 B 1 B 2 B 1 3", 3, 2, "DeleteZeroWeightPair 16 0/1 0",
     "step 0: no DeleteZeroWeightPair pattern at position 16"),
    ("1 B 1 B 1", 1, 2, "CollapseWeightOnePair 99 -1/1 -1",
     "step 0: no CollapseWeightOnePair pattern at position 99"),
    # an absent victim: walker 3 never occurs, and 0 is the blank
    ("1 B 2 B 1 B 2", 3, 2, "DeleteVictimSymbol 3 0/1 0", "step 0: victim 3 does not occur"),
    ("1 B 2 B 1 B 2", 3, 2, "DeleteVictimSymbol 0 0/1 0", "step 0: victim 0 does not occur"),
    # a swapped rule: the pattern is absent at the anchor, or the edit
    # applies but the deltas are not the new rule's
    ("1 3 B 2 3 3 B 3 B 1 B 2 B 1 3", 3, 2, "CollapseBlanks 5 0/1 0",
     "step 0: no CollapseBlanks pattern at position 5"),
    ("1 3 B 2 3 3 B 3 B 1 B 2 B 1 3", 3, 3, "DeleteZeroWeightPair 5 -1/1 -1",
     "step 1: no DeleteZeroWeightPair pattern at position 5"),
    ("1 B 1 2", 2, 2, "DeleteVictimSymbol 1 -1/1 -1",
     "step 0: stored blank delta -1 != recomputed 0"),
    # a victim deleted, with the right deltas, from a word that rules 1..3
    # still reduce: a pair with b = 0, and one with b = 1
    ("1 1", 2, 2, "DeleteVictimSymbol 1 0/1 0",
     "step 0: redistribution precondition: pair (1,2) of symbol 1 has b=0; "
     "rules 1..3 are not exhausted"),
    ("1 B 1", 1, 2, "DeleteVictimSymbol 1 -1/1 0",
     "step 0: redistribution precondition: pair (1,3) of symbol 1 has b=1; "
     "rules 1..3 are not exhausted"),
    # a final word the replay does not reach
    ("1 B 1 B 1", 1, -1, "B", "final sequence does not match the replayed steps"),
]


@pytest.mark.parametrize("word, k, number, line, failure", TAMPERED_LINES)
def test_tampered_line_parses_and_fails_the_check(word, k, number, line, failure):
    lines = certificate_to_text(reduce_certificate(parse_seq(word, k))).splitlines()
    assert lines[number] != line
    lines[number] = line
    res = check_certificate(certificate_from_text("\n".join(lines) + "\n"))
    assert isinstance(res, CheckResult)
    assert not res.ok
    assert res.failure == failure


@given(permissible_seqs(), st.data())
@settings(max_examples=60, deadline=None)
def test_any_step_line_checks_without_raising(s, data):
    cert = reduce_certificate(s)
    if not cert.steps:
        return
    idx = data.draw(st.integers(0, len(cert.steps) - 1))
    step = ReductionStep(
        data.draw(st.sampled_from(RULES)),
        data.draw(st.integers(-2, s.T + 2)),
        data.draw(st.fractions(max_denominator=6)),
        data.draw(st.integers(-2, 1)),
    )
    tampered = cert._replace(steps=cert.steps[:idx] + (step,) + cert.steps[idx + 1 :])
    text = certificate_to_text(tampered)
    assert certificate_from_text(text) == tampered
    res = check_certificate(tampered)
    assert isinstance(res, CheckResult)
    if res.ok:
        # only a line with the same result and deltas can stand in for a step
        before, real, after = list(replay_certificate(cert))[idx]
        assert apply_edit(before, step.rule, step.arg) == after
        assert (step.weight_delta, step.blank_delta) == (real.weight_delta, real.blank_delta)


# --------------------------------------------------- victim deletion, pairwise

def collect_victim_steps(k, max_len):
    for word in permissible_words(k, max_len):
        s = Seq(k, word)
        if is_terminal(s):
            continue
        step = reduce_step(s)
        if step.rule == DELETE_VICTIM_SYMBOL:
            yield s, step, apply_edit(s, step.rule, step.arg)


def test_victim_deletion_pair_by_pair_donation():
    interesting = 0
    for before, step, after in collect_victim_steps(3, 7):
        j = step.arg
        donated = {
            (sym, t1): amount
            for sym, t1, recipients, amount in pair_donations(before)
            if j in recipients
        }
        scan = pair_scan(before)
        received = redistribution(scan)
        assert sum(donated.values()) == Fraction(received.get(j, 0), scan.denominator)
        # the rule-4 identity: deleting the victim changes the weight by its
        # input - output, which is the step's stored delta; the shorter
        # word's weight unit divides the longer one's
        gain = received.get(j, 0) - scan.scaled_outputs().get(j, 0)
        after_scan = pair_scan(after)
        assert scan.denominator % after_scan.denominator == 0
        dw = after_scan.scaled_total * (scan.denominator // after_scan.denominator)
        assert dw - scan.scaled_total == gain
        assert step.weight_delta == Fraction(gain, scan.denominator)
        before_pairs = [p for p in scan.pairs if p[0] != j]
        after_pairs = after_scan.pairs
        assert len(before_pairs) == len(after_pairs)
        # occurrences of surviving symbols are untouched, so pairs line up in order
        for (sym, t1, _, b_before), (after_sym, _, _, b_after) in zip(before_pairs, after_pairs):
            assert sym == after_sym
            gain = unit_weight(b_after) - unit_weight(b_before)
            assert gain == donated.get((sym, t1), Fraction(0))
        if donated:
            interesting += 1
    assert interesting >= 10


# ---------------------------------------------------------------- exhaustive

def test_exhaustive_count_k1_len6():
    # all 2^1 + ... + 2^6 words over a two-letter alphabet are permissible
    report = verify_lemma_exhaustive(1, 6)
    assert report.checked == 126
    assert report.by_length == {l: 2**l for l in range(1, 7)}
    assert report.ok


def test_exhaustive_matches_product_enumeration():
    words = list(permissible_words(2, 4))
    expected = [
        w
        for length in range(1, 5)
        for w in itertools.product(range(3), repeat=length)
        if all(not (a != 0 and b != 0 and a > b) for a, b in zip(w, w[1:]))
    ]
    # in the order yielded: the sweep's parent lookup and its counterexample
    # order rely on increasing tuple order
    assert words == sorted(expected)
    assert len(words) == len(set(words))


@pytest.mark.parametrize("k, max_len", [(2, 8), (3, 7)])
def test_exhaustive_no_counterexamples(k, max_len):
    report = verify_lemma_exhaustive(k, max_len)
    assert report.ok
    assert report.checked > 0


def test_exhaustive_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(lemma, "POOL_MIN_WORDS", 0)
    serial = verify_lemma_exhaustive(2, 6)
    parallel = verify_lemma_exhaustive(2, 6, jobs=3)
    assert parallel.checked == serial.checked
    assert parallel.by_length == serial.by_length
    assert parallel.counterexamples == serial.counterexamples


def usable_cpus(monkeypatch, affinity, count=3):
    """Fake the CPUs: an affinity mask of ``affinity`` CPUs (None: the OS has
    no mask) on a machine of ``count``."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        mask = set(range(affinity))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every process pool a sweep asks for; its shards run here."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("k, max_len", [(2, 8), (4, 5)])
@pytest.mark.parametrize("jobs", [2, 8])
def test_sweep_below_pool_min_words_starts_no_pool(monkeypatch, k, max_len, jobs):
    # the benchmark's sweeps, on a machine with CPUs to spare
    assert sum(dict(zip(range(1, max_len + 1), word_counts(k))).values()) < lemma.POOL_MIN_WORDS
    serial = verify_lemma_exhaustive(k, max_len)
    usable_cpus(monkeypatch, 8, 8)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert verify_lemma_exhaustive(k, max_len, jobs=jobs) == serial


@pytest.mark.parametrize(
    "affinity, jobs, short, pools",
    [
        (1, 2, 0, []),  # three CPUs in the machine, one usable
        (2, 1, 0, []),
        (2, 2, 0, [2]),
        (4, 3, 0, [3]),
        (4, 8, 0, [4]),
        (None, 8, 0, [3]),  # no affinity mask: the CPU count caps
        (4, 4, 1, []),  # one word short of the threshold
        (4, None, 0, [4]),  # no jobs given: every usable CPU
        (None, None, 0, [3]),
    ],
)
def test_pool_size_is_jobs_capped_by_the_usable_cpus(
    monkeypatch, pool_sizes, affinity, jobs, short, pools
):
    serial = verify_lemma_exhaustive(2, 6)
    monkeypatch.setattr(lemma, "POOL_MIN_WORDS", serial.checked + short)
    usable_cpus(monkeypatch, affinity)
    assert verify_lemma_exhaustive(2, 6, jobs=jobs) == serial
    assert pool_sizes == pools


def test_exhaustive_budget():
    with pytest.raises(ValueError):
        verify_lemma_exhaustive(9, 30)
    assert 10**30 > ENUMERATION_BUDGET


def words_of_length(k, length):
    return sum(1 for w in permissible_words(k, length) if len(w) == length)


@pytest.mark.parametrize("k", [1, 2, 3, 44, 1000])
def test_first_length_over_the_budget_is_refused_with_its_exact_count(monkeypatch, k):
    # k=44 is refused at length 2 and k=1000 at length 1, by the closed forms
    monkeypatch.setattr(lemma, "ENUMERATION_BUDGET", 1_000)
    length = 1
    while (count := words_of_length(k, length)) <= 1_000:
        length += 1
    message = f"^{count} permissible words of length {length} exceed the budget 1000$"
    for max_len in (length, length + 1, 10**9):
        with pytest.raises(ValueError, match=message):
            verify_lemma_exhaustive(k, max_len)
    if length > 1:
        report = verify_lemma_exhaustive(k, length - 1)
        assert report.ok
        assert report.by_length[length - 1] == words_of_length(k, length - 1)


@given(st.integers(1, 30), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_every_length_the_raw_power_allowed_is_accepted(k, max_len):
    # the refusal, the pool choice and the completeness check run on the
    # exact counts; the sweep itself is stood in for by those counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemma, "_sweep", lambda k, max_len, workers, every: [
            (dict(zip(range(1, max_len + 1), word_counts(k))), [])
        ])
        try:
            report = verify_lemma_exhaustive(k, max_len)
        except ValueError as exc:
            assert (k + 1) ** max_len > ENUMERATION_BUDGET
            assert "exceed the budget" in str(exc)
        else:
            assert max(report.by_length.values()) <= ENUMERATION_BUDGET
    counts = dict(zip(range(1, max_len + 1), word_counts(k)))
    assert all(c <= (k + 1) ** length for length, c in counts.items())
    assert list(counts.values()) == sorted(counts.values())


@pytest.mark.parametrize(
    "k, max_len, jobs", [(1, 7, 2), (2, 6, 2), (3, 5, 3), (2, 3, 2), (4, 6, 1), (1, 4, 8)]
)
def test_shard_depth_is_the_least_length_with_enough_words(k, max_len, jobs):
    # (2, 3, 2) reaches 16 words at length 3; (1, 4, 8) never reaches 64
    counts = dict(zip(range(1, max_len + 1), word_counts(k)))
    shards = lemma._shards(k, max_len, jobs)
    (depth,) = {len(prefix) for _, _, prefix in shards if prefix}
    want = lemma.SHARDS_PER_JOB * jobs
    assert depth == min((d for d, c in counts.items() if c >= want), default=max_len)
    assert len(shards) - (depth > 1) == counts[depth]
