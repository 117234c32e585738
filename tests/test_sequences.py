import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avoidance.sequences import (
    BLANK,
    Seq,
    blank_count,
    is_permissible,
    pair_scan,
    parse_seq,
    permissible_words,
    weight_scale,
    word_counts,
)

from oracles import brute_permissible, brute_total_weight

WORKED_EXAMPLE = "1 3 B 2 3 3 B 3 B 1 B 2 B 1 3"


def seqs(max_k=4, max_len=12):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(st.integers(0, k), max_size=max_len).map(
            lambda xs: Seq(k, tuple(xs))
        )
    )


def test_parse_worked_example():
    s = parse_seq(WORKED_EXAMPLE, 3)
    assert s.T == 15
    assert s.symbols[:4] == (1, 3, BLANK, 2)
    assert s.text() == WORKED_EXAMPLE


def test_parse_single_blank():
    s = parse_seq("B", 1)
    assert s.symbols == (BLANK,)


def test_parse_accepts_non_permissible():
    s = parse_seq("2 1", 2)
    assert s.symbols == (2, 1)
    assert not is_permissible(s)


@pytest.mark.parametrize(
    "text, k",
    [("4", 3), ("0", 3), ("x", 3), ("1.5", 3), ("-1", 3)],
)
def test_parse_rejects_bad_tokens(text, k):
    with pytest.raises(ValueError):
        parse_seq(text, k)


def test_parse_rejects_bad_k():
    with pytest.raises(ValueError):
        parse_seq("1", 0)


def test_seq_rejects_out_of_range_symbol():
    with pytest.raises(ValueError):
        Seq(2, (1, 3))


@pytest.mark.parametrize("symbols", [[1, 0, 1], np.array([1, 0, 1]), iter((1, 0, 1)), (1.0, 0, True)])
def test_seq_stores_a_tuple_of_ints(symbols):
    s = Seq(2, symbols)
    assert s == Seq(2, (1, 0, 1))
    assert hash(s) == hash(Seq(2, (1, 0, 1)))
    assert [type(x) for x in s.symbols] == [int, int, int]


@pytest.mark.parametrize("symbol", [1.5, float("nan"), float("inf"), "1", None, np.float64(0.5)])
def test_seq_rejects_non_integral_symbol(symbol):
    with pytest.raises(ValueError, match="is not an integer"):
        Seq(2, (1, symbol))


@pytest.mark.parametrize("k", [2.5, float("nan"), float("inf"), "3", None, np.float64(2.5)])
def test_seq_and_parse_seq_reject_a_non_integral_walker_count(k):
    with pytest.raises(ValueError, match=r"^walker count .* is not an integer$"):
        Seq(k, (1, 2))
    with pytest.raises(ValueError, match=r"^walker count .* is not an integer$"):
        Seq(k, ())
    with pytest.raises(ValueError, match=r"^walker count .* is not an integer$"):
        parse_seq("1 2", k)


@pytest.mark.parametrize("k", [np.int64(3), 3.0, np.float64(3.0)])
def test_seq_stores_the_walker_count_as_an_int(k):
    s = Seq(k, (1, 3))
    assert type(s.k) is int
    assert s == Seq(3, (1, 3)) and hash(s) == hash(Seq(3, (1, 3)))
    assert type(parse_seq("1 3", k).k) is int


@pytest.mark.parametrize(
    "tokens, k, expected",
    [
        (WORKED_EXAMPLE, 3, True),
        ("2 1", 2, False),
        ("2 2", 2, True),
        ("2 B 1", 2, True),  # blanks impose no ordering
        ("", 1, True),
    ],
)
def test_is_permissible(tokens, k, expected):
    assert is_permissible(parse_seq(tokens, k)) is expected


@pytest.mark.parametrize("k, max_len", [(1, 6), (2, 5), (3, 4)])
def test_a_prefix_comes_first_then_its_sorted_permissible_extensions(k, max_len):
    # the sweep's shards and carried states read the words in this order
    for length in range(1, max_len + 1):
        for prefix in itertools.product(range(k + 1), repeat=length):
            if not brute_permissible(prefix):
                continue
            extensions = sorted(
                prefix + tail
                for n in range(1, max_len - length + 1)
                for tail in itertools.product(range(k + 1), repeat=n)
                if brute_permissible(prefix + tail)
            )
            assert list(permissible_words(k, max_len, prefix)) == [prefix, *extensions]


def test_word_counts_of_a_huge_k_start_with_the_closed_forms():
    # the recurrence's (k + 1)-entry table is built only for length 3
    k = 10**18
    counts = word_counts(k)
    assert next(counts) == k + 1
    assert next(counts) == (k + 1) ** 2 - k * (k - 1) // 2


def pair_weights(s):
    """Each pair record of ``s`` with its weight read off the scale table."""
    scan = pair_scan(s)
    den, scale = weight_scale(scan.max_b)
    return [(i, t1, t2, b, Fraction(scale[b], den)) for i, t1, t2, b in scan.pairs]


def test_worked_example_pairs_of_symbol_three():
    s = parse_seq(WORKED_EXAMPLE, 3)
    threes = [p for p in pair_weights(s) if p[0] == 3]
    assert [(t1, t2) for _, t1, t2, _, _ in threes] == [(2, 5), (5, 6), (6, 8), (8, 15)]
    assert [w for *_, w in threes] == [
        Fraction(1, 2),
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
    ]


def test_single_occurrence_has_no_pair():
    assert pair_scan(Seq(1, (1,))).pairs == []


def test_pair_with_one_distinct_between():
    assert pair_weights(Seq(2, (1, 2, 1))) == [(1, 1, 3, 1, Fraction(1))]


def test_worked_example_totals():
    s = parse_seq(WORKED_EXAMPLE, 3)
    assert pair_scan(s).total == 3
    assert blank_count(s) == 5
    assert pair_scan(s).outputs()[3] == Fraction(11, 6)


def test_single_weight_one_pair():
    s = Seq(1, (1, BLANK, 1))
    assert pair_scan(s).total == 1
    assert blank_count(s) == 1


def test_reduced_example_totals():
    s = parse_seq("1 3 B 2 3 B 1 B 2 B 1 3", 3)
    assert pair_scan(s).total == 2
    assert blank_count(s) == 4


@pytest.mark.parametrize(
    "tokens, k, expected",
    [(WORKED_EXAMPLE, 3, 5), ("", 1, 0), ("B B B", 1, 3)],
)
def test_blank_count(tokens, k, expected):
    assert blank_count(parse_seq(tokens, k)) == expected


@given(seqs())
def test_totals_match_brute_force(s):
    scan = pair_scan(s)
    total, blanks, per = brute_total_weight(list(s.symbols))
    assert scan.total == total
    assert blank_count(s) == blanks
    assert scan.outputs() == per


@given(seqs())
def test_permissibility_matches_brute_force(s):
    assert is_permissible(s) == brute_permissible(list(s.symbols))


@given(seqs())
def test_pairs_partition_occurrences(s):
    pairs = pair_scan(s).pairs
    for i in set(s.symbols) - {BLANK}:
        m = s.symbols.count(i)
        assert sum(1 for p in pairs if p[0] == i) == m - 1
    assert [p[:2] for p in pairs] == sorted(p[:2] for p in pairs)


@given(seqs())
def test_weights_are_unit_fractions(s):
    for _, t1, t2, b, w in pair_weights(s):
        assert 0 <= b <= s.k
        if b == 0:
            assert w == 0 and t2 == t1 + 1
        else:
            assert w == Fraction(1, b)


@given(seqs())
def test_total_is_sum_of_outputs(s):
    scan = pair_scan(s)
    assert scan.total == sum(scan.outputs().values(), Fraction(0))


def test_appending_blank_never_decreases_margin():
    # margin = blanks - total; words over k=2 up to length 6
    for length in range(0, 6):
        for word in itertools.product(range(3), repeat=length):
            s = Seq(2, word)
            if not is_permissible(s):
                continue
            ext = Seq(2, word + (BLANK,))
            assert blank_count(ext) - pair_scan(ext).total >= blank_count(s) - pair_scan(s).total


def test_inequality_on_permissible_corpus():
    # the central inequality, brute-forced over a small corpus
    for length in range(1, 7):
        for word in itertools.product(range(3), repeat=length):
            if not brute_permissible(list(word)):
                continue
            total, blanks, _ = brute_total_weight(list(word))
            assert total <= blanks
