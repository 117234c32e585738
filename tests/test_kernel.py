"""Differential tests of the weight kernel and the lemma layer built on it,
against the brute-force definitions in oracles.py."""

import itertools
import math
import multiprocessing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from avoidance import lemma
from avoidance.lemma import (
    DELETE_VICTIM_SYMBOL,
    DELETE_ZERO_WEIGHT_PAIR,
    LOCAL_RULES,
    ReductionStep,
    check_certificate,
    redistribution,
    reduce_certificate,
    verify_lemma_exhaustive,
)
from avoidance.sequences import (
    BLANK,
    Seq,
    _max_b,
    blank_count,
    move_to_front,
    pair_scan,
    parse_seq,
    permissible_words,
    scaled_total_weight,
    weight_scale,
    word_counts,
)

from oracles import (
    LITERAL_PATTERNS,
    brute_pairs,
    brute_permissible,
    brute_redistribution,
    brute_reversal,
    brute_total_weight,
    full_chain_sweep,
    literal_local_step,
    replay_certificate,
)
from strategies import permissible_words_st

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="pool workers see the patched function only when forked",
)


@pytest.fixture
def pool_at_any_size(monkeypatch):
    # these sweeps are far below the pool's break-even; force it so it stays covered
    monkeypatch.setattr(lemma, "POOL_MIN_WORDS", 0)


def any_words(max_k=4, max_len=14):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(st.integers(0, k), max_size=max_len).map(
            lambda xs: Seq(k, tuple(xs))
        )
    )


def words_st():
    return st.one_of(any_words(), permissible_words_st())


BIG_K = 10**6


def shifted(s, k=BIG_K):
    """``s`` over k walkers, walker i relabelled k - s.k + i: the order of the
    walkers is kept, and with it every pair's b and every reduction step."""
    return Seq(k, tuple(BLANK if x == BLANK else x + k - s.k for x in s.symbols))


def big_words(s):
    """``shifted(s)``, over a million walkers, and its sigma image, whose
    walkers are relabelled back to 1..s.k in reverse order."""
    big = shifted(s)
    return big, Seq(BIG_K, brute_reversal(BIG_K, big.symbols))


@given(words_st())
def test_kernel_pairs_match_definition(s):
    scan = pair_scan(s)
    assert scan.pairs == brute_pairs(list(s.symbols))
    assert scan.symbols is s.symbols
    # over a million walkers, against the definition itself
    for big in big_words(s):
        assert pair_scan(big).pairs == brute_pairs(list(big.symbols))


@given(st.lists(st.integers(0, 6), max_size=30))
def test_move_to_front_gives_each_b_and_keeps_recency_order(symbols):
    # with every symbol shifted up by one, the oracle pairs blanks too
    want = [-1] * len(symbols)
    for _, _, t2, b in brute_pairs([x + 1 for x in symbols]):
        want[t2 - 1] = b
    recent = []
    for t, sym in enumerate(symbols):
        assert move_to_front(recent, sym) == want[t]
        # the distinct symbols so far, most recent first
        assert recent == list(dict.fromkeys(reversed(symbols[: t + 1])))


@given(words_st())
def test_kernel_counts_outputs_and_totals_match_definition(s):
    for w in (s, *big_words(s)):
        scan = pair_scan(w)
        # b <= min(k, T - 2), the bound the weight unit is sized by
        assert scan.max_b == max(min(w.k, w.T - 2), 0)
        assert all(b <= scan.max_b for *_, b in scan.pairs)

        total, blanks, per = brute_total_weight(list(w.symbols))
        den = scan.denominator
        assert scan.total == total
        assert Fraction(scan.scaled_total, den) == total
        assert {i: Fraction(v, den) for i, v in scan.scaled_outputs().items()} == per
        assert list(scan.scaled_outputs()) == sorted(per)
        assert scan.outputs() == per
        assert blank_count(w) == blanks


@given(words_st(), st.integers(0, 3))
def test_total_only_pass_matches_kernel_and_definition(s, extra):
    # over the word's own unit and over a coarser one, as a longer word's
    scan = pair_scan(s)
    n = scan.max_b + extra
    den = weight_scale(n)[0]
    scaled = scaled_total_weight(s, n)
    assert scaled == scan.scaled_total * (den // scan.denominator)
    assert Fraction(scaled, den) == brute_total_weight(list(s.symbols))[0]


def test_scan_rows_are_sized_by_the_word():
    # b <= min(k, T - 2), and only walkers with a pair get an output, so a
    # short word over a huge alphabet costs no k x k table
    scan = pair_scan(Seq(3000, (5, 0, 5, 7, 7)))
    assert scan.pairs == [(5, 1, 3, 1), (7, 4, 5, 0)]
    assert scan.max_b == 3
    assert scan.scaled_outputs() == {5: 6, 7: 0}
    assert scan.outputs() == {5: Fraction(1), 7: Fraction(0)}
    assert scan.total == 1
    # the weight unit is lcm(1..min(k, T - 2)), not lcm(1..k)
    assert scan.denominator == 6


def test_weight_scale_is_the_unit_and_the_scaled_weights():
    assert weight_scale(0) == (1, (0,))
    assert weight_scale(4) == (12, (0, 12, 6, 4, 3))


def test_scan_over_a_million_walkers_is_sized_by_the_word():
    s = parse_seq("1 3 B 2 3 3 B 3 B 1 B 2 B 1 3", 3)
    small, big = pair_scan(s), pair_scan(shifted(s))
    assert small.denominator == 6
    assert big.denominator == math.lcm(*range(1, s.T - 1))  # b <= T - 2 = 13
    assert big.total == small.total
    assert big.outputs() == {i + BIG_K - 3: w for i, w in small.outputs().items()}
    assert big.pairs == brute_pairs(list(shifted(s).symbols))


@pytest.mark.parametrize("text", ["1 2 B 1 2", "1 3 B 2 3 3 B 3 B 1 B 2 B 1 3"])
def test_certificate_with_victims_near_a_million_walkers(text):
    s = parse_seq(text, 3)
    cert, big = reduce_certificate(s), reduce_certificate(shifted(s))
    victims = [st.arg for st in big.steps if st.rule == DELETE_VICTIM_SYMBOL]
    assert victims and min(victims) > BIG_K - 3
    assert big.steps == tuple(
        st._replace(arg=st.arg + BIG_K - 3) if st.rule == DELETE_VICTIM_SYMBOL else st
        for st in cert.steps
    )
    assert check_certificate(big).ok


@given(permissible_words_st())
@settings(max_examples=60, deadline=None)
def test_redistribution_inputs_match_definition(s):
    for before, step, _ in replay_certificate(reduce_certificate(s)):
        if step.rule != DELETE_VICTIM_SYMBOL:
            continue
        symbols = list(before.symbols)
        scan = pair_scan(before)
        den = scan.denominator
        received = {j: Fraction(v, den) for j, v in redistribution(scan).items()}
        assert received == brute_redistribution(symbols)
        _, _, per = brute_total_weight(symbols)
        assert {j: Fraction(v, den) for j, v in scan.scaled_outputs().items()} == per


@given(permissible_words_st())
@settings(max_examples=60, deadline=None)
def test_redistribution_of_a_shifted_word_matches_definition(s):
    # the between symbols are read from the word, so a word over a million
    # walkers, or its sigma image, receives what the definition gives it
    for before, step, _ in replay_certificate(reduce_certificate(s)):
        if step.rule != DELETE_VICTIM_SYMBOL:
            continue
        for big in big_words(before):
            scan = pair_scan(big)
            received = {j: Fraction(v, scan.denominator) for j, v in redistribution(scan).items()}
            assert received == brute_redistribution(list(big.symbols))


@given(permissible_words_st())
@settings(max_examples=60, deadline=None)
def test_step_deltas_match_definition(s):
    assert brute_permissible(list(s.symbols))
    for before, step, after in replay_certificate(reduce_certificate(s)):
        w_before, b_before, _ = brute_total_weight(list(before.symbols))
        w_after, b_after, _ = brute_total_weight(list(after.symbols))
        assert step.weight_delta == w_after - w_before
        assert step.blank_delta == b_after - b_before


@pytest.mark.parametrize("k, max_len", [(1, 10), (2, 8), (3, 6), (4, 5)])
def test_carried_state_matches_a_fresh_scan(k, max_len):
    # every word of the whole sweep and of every shard of a two-process one,
    # whose prefixes' own states are carried before their first word
    checked = 0
    for shard in [(k, max_len, ()), *lemma._shards(k, max_len, 2)]:
        den = weight_scale(_max_b(*shard[:2]))[0]
        for word, weight in lemma._carried_words(*shard):
            s = Seq(k, word)
            scan = pair_scan(s)
            assert den % scan.denominator == 0
            assert weight == scan.scaled_total * (den // scan.denominator), word
            assert lemma._first_local(word) == literal_first_local(word), word
            checked += 1
    assert checked == 2 * sum(dict(zip(range(1, max_len + 1), word_counts(k))).values())


def literal_first_local(word):
    """The first local rule in priority order whose literal pattern occurs,
    with its leftmost anchor, or None."""
    for rule in LITERAL_PATTERNS:
        for pos in range(1, len(word) + 1):
            if literal_local_step(rule, word, pos) is not None:
                return rule, pos
    return None


@given(permissible_words_st())
@settings(max_examples=200, deadline=None)
# "i B i" is the first local pattern unless a "B B" comes first
@example(parse_seq("1 B 1", 2))
@example(parse_seq("1 B B 1", 2))
@example(parse_seq("1 B 2 B 1", 2))
@example(parse_seq("B 1 B 1", 2))
def test_carried_state_matches_definition(s):
    # the word as a one-word sweep under itself as prefix: its state is
    # carried through each of its prefixes in turn
    if not s.symbols:
        return
    T = len(s)
    (word, weight), = lemma._carried_words(s.k, T, s.symbols)
    total, _, _ = brute_total_weight(list(s.symbols))
    assert word == s.symbols
    assert Fraction(weight, weight_scale(_max_b(s.k, T))[0]) == total
    assert lemma._first_local(word) == literal_first_local(word)


@pytest.mark.parametrize("k, max_len, jobs", [(1, 7, 2), (2, 6, 2), (3, 5, 3), (2, 3, 2)])
def test_shards_partition_the_words(k, max_len, jobs):
    sharded = [w for shard in lemma._shards(k, max_len, jobs) for w in permissible_words(*shard)]
    assert sorted(sharded) == list(permissible_words(k, max_len))


@given(st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=8, deadline=None)
def test_exhaustive_report_same_at_one_and_two_jobs(k, max_len):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemma, "POOL_MIN_WORDS", 0)
        parallel = verify_lemma_exhaustive(k, max_len, jobs=2)
    assert verify_lemma_exhaustive(k, max_len, jobs=1) == parallel


@FORK_ONLY
def test_counterexamples_in_enumeration_order_at_every_jobs(monkeypatch, pool_at_any_size):
    # fail the step of every word that ends in walker 2, so there are
    # counterexamples to order
    def fake_check(before, step, weight, n):
        return ("fails" if before.symbols[-1] == 2 else None), None, None

    monkeypatch.setattr(lemma, "_check_step", fake_check)
    expected = tuple(Seq(2, w).text() for w in permissible_words(2, 5) if w[-1] == 2)
    for jobs in (1, 2):
        assert verify_lemma_exhaustive(2, 5, jobs=jobs).counterexamples == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_matches_full_chain_oracle(k, pool_at_any_size):
    for max_len in range(1, 7):
        oracle = full_chain_sweep(k, max_len)
        for jobs in (1, 2):
            assert verify_lemma_exhaustive(k, max_len, jobs=jobs) == oracle


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_sweep_reports_exactly_the_words_whose_step_fails(monkeypatch, pool_at_any_size, jobs):
    # a wrong stored weight delta on some words; the chains through them are
    # not blamed, since each word is checked by its own step
    real = lemma._pick_step

    def tampered(s):
        step = real(s)
        if sum(s.symbols) % 4 == 1:
            return step._replace(weight_delta=step.weight_delta + Fraction(1, 2))
        return step

    monkeypatch.setattr(lemma, "_pick_step", tampered)
    expected = tuple(Seq(2, w).text() for w in permissible_words(2, 6) if sum(w) % 4 == 1)
    assert expected
    assert verify_lemma_exhaustive(2, 6, jobs=jobs).counterexamples == expected


@given(permissible_words_st())
@settings(max_examples=200, deadline=None)
def test_reversal_is_an_involution_keeping_permissibility_blanks_and_weight(s):
    image = brute_reversal(s.k, s.symbols)
    assert brute_reversal(s.k, image) == s.symbols
    assert brute_permissible(image) and len(image) == len(s.symbols)
    assert blank_count(Seq(s.k, image)) == blank_count(s)
    assert brute_total_weight(list(image))[0] == brute_total_weight(list(s.symbols))[0]
    # the sweep's canonical test, decided from both ends, is the literal comparison
    assert lemma._is_canonical(s.symbols, s.k) == (s.symbols <= image)


@pytest.mark.parametrize("k, max_len", [(1, 10), (2, 8), (3, 6), (4, 5)])
def test_checked_words_and_their_images_are_every_word(monkeypatch, k, max_len):
    checked = []
    real = lemma._check_step

    def spy(before, *args):
        checked.append(before.symbols)
        return real(before, *args)

    monkeypatch.setattr(lemma, "_check_step", spy)
    assert verify_lemma_exhaustive(k, max_len).ok
    assert len(set(checked)) == len(checked)
    assert all(w <= brute_reversal(k, w) for w in checked)
    # the lone blank is terminal, with no step to check, and its own image
    covered = {*checked, *(brute_reversal(k, w) for w in checked), (BLANK,)}
    assert covered == set(permissible_words(k, max_len))


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_steps_failing_only_on_non_canonical_words_are_not_counterexamples(
    monkeypatch, pool_at_any_size, jobs
):
    # a non-canonical word holds the inequality because its sigma image's
    # step checks, so its own step is never checked
    real = lemma._pick_step

    def tampered(s):
        step = real(s)
        if s.symbols > brute_reversal(s.k, s.symbols):
            return step._replace(weight_delta=step.weight_delta + Fraction(1, 2))
        return step

    monkeypatch.setattr(lemma, "_pick_step", tampered)
    # the tampered steps fail wherever they are checked
    assert lemma._verify_words(2, 6, (), True)[1]
    report = verify_lemma_exhaustive(2, 6, jobs=jobs)
    assert report.ok and report.counterexamples == ()


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_missing_word_trips_the_completeness_check(monkeypatch, pool_at_any_size, jobs):
    real = lemma.permissible_words

    def dropping(*args):
        return (w for w in real(*args) if w != (1, 2, 0))

    monkeypatch.setattr(lemma, "permissible_words", dropping)
    with pytest.raises(AssertionError, match="incomplete enumeration"):
        verify_lemma_exhaustive(2, 5, jobs=jobs)


def test_word_counts_match_brute_force():
    for k in range(1, 5):
        for max_len in range(1, 6):
            expected = {
                length: sum(
                    brute_permissible(w) for w in itertools.product(range(k + 1), repeat=length)
                )
                for length in range(1, max_len + 1)
            }
            assert dict(zip(range(1, max_len + 1), word_counts(k))) == expected


def check_step(before, step):
    """The step checker on ``before``, weighed by ``pair_scan``."""
    scan = pair_scan(before)
    return lemma._check_step(before, step, scan.scaled_total, scan.max_b)


def test_edit_check_accepts_exactly_the_literal_patterns():
    # every local rule at every anchor of every permissible word with k <= 2
    # and length <= 6, with the rule's own deltas: the step check must accept
    # exactly the anchors where the literal pattern starts, and replay the
    # literal slice's word there
    accepted = 0
    for k in (1, 2):
        for word in permissible_words(k, 6):
            before = Seq(k, word)
            for rule in LITERAL_PATTERNS:
                _, wd, bd = LOCAL_RULES[rule]
                for pos in range(len(word) + 2):
                    want = literal_local_step(rule, word, pos)
                    failure, after, _ = check_step(before, ReductionStep(rule, pos, wd, bd))
                    assert (failure is None) == (want is not None), (rule, word, pos, failure)
                    if want is None:
                        assert failure == f"no {rule} pattern at position {pos}"
                    else:
                        assert after.symbols == want
                        accepted += 1
    assert accepted > 1000


def test_step_check_rejects_a_non_permissible_result(monkeypatch):
    # (1, 2, 2) -> (2, 1) keeps the zero-weight deletion's deltas (0, 0); with
    # the edit replaced by one that breaks permissibility, the induction
    # premise must still fail it
    monkeypatch.setattr(lemma, "apply_edit", lambda s, rule, arg: Seq(2, (2, 1)))
    step = ReductionStep(DELETE_ZERO_WEIGHT_PAIR, 2, Fraction(0), 0)
    failure, _, _ = check_step(Seq(2, (1, 2, 2)), step)
    assert failure == "result is not permissible"
