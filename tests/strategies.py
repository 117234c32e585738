"""Hypothesis strategies shared by the trace-reader, CLI and kernel tests."""

from hypothesis import strategies as st

from avoidance.sequences import Seq

# tokens that int() reads oddly or rejects, and values past int64
JUNK = st.sampled_from(
    ["x", "1.5", "+1", "-0", "1_0", "٣", "0x1", "\ud800",
     "99999999999999999999", "-99999999999999999999"]
)
# separators inside a line; EOL ends a line, except the plain space
GAP = st.sampled_from([" ", "  ", "\t", "\xa0", "　", "\x1f"])
EOL = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\n\n", " \n", "\n\t \n", ""]
)
# hypothesis leans to the first entry, so a branch taken on True stays rare
RARELY = st.sampled_from([False, False, False, True])


@st.composite
def trace_texts(draw):
    """Text near the trace format: a header that is often a valid binary or
    walker header, then rows that mostly hold k in-range values, joined by
    assorted whitespace and line boundaries."""
    k = draw(st.integers(1, 4))  # a junk header may still say k = 0
    T = draw(st.integers(0, 5))
    n = draw(st.integers(max(k, 1), 12))
    walker = draw(st.booleans())
    header = [T, k, n, draw(st.integers(0, 1))] if walker else [T, k]
    header = [str(x) for x in header]
    if draw(RARELY):
        header = draw(st.lists(st.one_of(st.integers(-1, 6).map(str), JUNK), max_size=5))
    good = (st.integers(1, n) if walker else st.integers(0, 1)).map(str)
    bad = st.one_of(st.integers(-1, n + 1).map(str), JUNK)

    def value():
        return draw(bad if draw(RARELY) else good)

    def size():
        return draw(st.integers(0, k + 1)) if draw(RARELY) else k

    count = draw(st.integers(max(T - 1, 0), T + 1)) if draw(RARELY) else T
    rows = [[value() for _ in range(size())] for _ in range(count)]
    if len(rows) >= 2 and rows[0] and draw(RARELY):
        # one value moved to another row: ragged rows, token total unchanged
        rows[draw(st.integers(1, len(rows) - 1))].append(rows[0].pop())
    return "".join(
        draw(st.sampled_from(["", " "]))
        + draw(GAP).join(tokens)
        + (draw(EOL) if draw(RARELY) else "\n")
        for tokens in [header] + rows
    )


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# tokens of a word file: mostly blanks and small walker indices, in ASCII or
# full-width digits, then tokens that the alphabet or int() rejects
WORD_TOKENS = st.one_of(
    st.just("B"),
    st.integers(1, 4).map(str),
    st.integers(0, 400).map(lambda n: str(n).translate(FULLWIDTH)),
    st.sampled_from(
        ["-1", "0", "99999999999999999999", "b", "B1", "1.5", "+1", "²", "٣", "\ud800"]
    ),
)
WORD_GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\xa0", "　", "\x85", "\u2028", "\x1c"])


@st.composite
def word_texts(draw):
    """Text near the word format: tokens joined by assorted Unicode whitespace."""
    tokens = draw(st.lists(WORD_TOKENS, max_size=24))
    return "".join(draw(WORD_GAPS) + token for token in tokens) + draw(WORD_GAPS)


def _make_permissible(k, xs):
    # a walker below the previous walker becomes a blank
    word = []
    for x in xs:
        prev = word[-1] if word else 0
        word.append(0 if x and prev and x < prev else x)
    return Seq(k, tuple(word))


def permissible_words_st(max_k=4, max_len=14):
    """Permissible words over {B, 1..k} for k <= ``max_k``, the empty word included."""
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(st.integers(0, k), max_size=max_len).map(
            lambda xs: _make_permissible(k, xs)
        )
    )
