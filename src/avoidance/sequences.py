"""Finite words over a walker alphabet and their neighbor-pair weight calculus.

A word records which of k walkers (if any) occupies a tracked site at each
time step; the blank symbol ``B`` marks times when the site is empty.  Two
successive occurrences of the same walker form a neighbor pair whose weight
is 1/b, where b counts the distinct symbols strictly between them (0 for an
adjacent pair).  All weights are exact rationals: the central inequality
(total weight <= blank count) can be tight, so float tolerances are unusable.

Every b comes from one step, ``move_to_front``: a walker's index in the
recency list of the symbols seen so far.  ``pair_scan`` records each pair
once, as (symbol, t1, t2, b); ``scaled_total_weight`` keeps only the total.
In a word of length T, b <= n = min(k, T - 2), so its weights sum to an
integer over lcm(1..n); ``weight_scale(n)`` gives that unit and each b's
weight over it, the one place the 1/b rule is written.  Rationals are built
only where a result leaves the kernel.

A word is permissible when no walker directly follows a higher one.  This
module enumerates those words (``permissible_words``) and counts them per
length (``word_counts``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from ._record import Frozen

__all__ = [
    "BLANK",
    "Seq",
    "PairScan",
    "symbol_text",
    "parse_seq",
    "is_permissible",
    "permissible_words",
    "word_counts",
    "pair_scan",
    "scaled_total_weight",
    "weight_scale",
    "blank_count",
]

BLANK = 0  # sorts below every walker index, giving the order B < 1 < ... < k


def symbol_text(sym: int) -> str:
    """Render one symbol in the text format: "B" or the decimal walker index."""
    return "B" if sym == BLANK else str(sym)


class Seq(Frozen):
    """Immutable word over {B, 1, ..., k}; blanks stored as 0.

    Positions are 1-based throughout, matching the time index t = 1..T.
    The empty word is a valid degenerate value.  k and the symbols may be
    any integral values, stored as Python ints, so two words are equal, and
    hash equal, when their k and symbols are.
    """

    __slots__ = ("k", "symbols")

    def __init__(self, k: int, symbols: Iterable[int]) -> None:
        k = _integer(k, "walker count")
        if k < 0:
            raise ValueError(f"walker count must be nonnegative, got {k}")
        symbols = tuple(map(_integer, symbols))
        if symbols and (min(symbols) < 0 or max(symbols) > k):
            bad = next(s for s in symbols if not 0 <= s <= k)
            raise ValueError(f"symbol {bad} outside alphabet {{B, 1..{k}}}")
        _set_k(self, k)
        _set_symbols(self, symbols)

    @classmethod
    def _unchecked(cls, k: int, symbols: tuple[int, ...]) -> Seq:
        """A word whose symbols are ints known to lie in {B, 1..k}, built
        without the checks: a subsequence of a checked word's symbols, an
        enumerated word, or parsed tokens."""
        s = _new(cls)
        _set_k(s, k)
        _set_symbols(s, symbols)
        return s

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k == other.k and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((self.k, self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def T(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        """Whitespace-separated token form, e.g. ``"1 3 B 2"``."""
        return " ".join(symbol_text(s) for s in self.symbols)

    def __repr__(self) -> str:
        shown = self.text()
        if len(shown) > 60:
            shown = shown[:57] + "..."
        return f"Seq(k={self.k}, T={self.T}, '{shown}')"


def _integer(given, what: str = "symbol") -> int:
    """``given`` as a Python int; ValueError unless its value is an integer."""
    try:
        value = int(given)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != given:
        raise ValueError(f"{what} {given!r} is not an integer")
    return value


# the slots' own setters, which bypass Frozen.__setattr__
_new = object.__new__
_set_k = Seq.k.__set__
_set_symbols = Seq.symbols.__set__


def parse_seq(text: str, k: int) -> Seq:
    """Parse whitespace-separated tokens ("B" or a walker index in 1..k)."""
    k = _integer(k, "walker count")
    if k < 1:
        raise ValueError(f"walker count must be >= 1, got {k}")
    syms = []
    for tok in text.split():
        if tok == "B":
            syms.append(BLANK)
            continue
        if not tok.isdigit():
            raise ValueError(f"malformed token {tok!r}: expected 'B' or a walker index")
        idx = int(tok)
        if not 1 <= idx <= k:
            raise ValueError(f"walker index {idx} out of range 1..{k}")
        syms.append(idx)
    return Seq._unchecked(k, tuple(syms))


def is_permissible(s: Seq) -> bool:
    """True iff adjacent walker symbols never decrease; blanks are unconstrained."""
    syms = s.symbols
    for a, b in zip(syms, syms[1:]):
        if a != BLANK and b != BLANK and a > b:
            return False
    return True


def permissible_words(k: int, max_len: int, prefix: tuple[int, ...] = ()):
    """Yield all permissible symbol tuples of length 1..max_len that start with
    ``prefix`` (a permissible tuple), the prefix itself first when nonempty.

    Depth-first, extending by symbols in the order B < 1 < ... < k, so a word
    precedes its extensions and siblings appear lexicographically: the words
    come out in increasing tuple order.
    """
    stack = [prefix]
    while stack:
        word = stack.pop()
        if word:
            yield word
        if len(word) < max_len:
            last = word[-1] if word else BLANK
            # walker j may follow a blank or a walker <= j; push so B pops first
            stack.extend(word + (sym,) for sym in range(k, max(last, 1) - 1, -1))
            stack.append(word + (BLANK,))


def word_counts(k: int):
    """Yield the number of permissible words of length 1, 2, 3, ...; no
    length has fewer than the one before, as appending a blank is injective.
    Lengths 1 and 2 are closed forms, so a huge k builds no per-symbol table
    for them; after them comes the recurrence over the last symbol: a blank
    may follow anything, and walker j may follow a blank or a walker <= j."""
    yield k + 1
    yield (k + 1) * (k + 2) // 2 + k  # (k+1)^2 less the k(k-1)/2 decreasing pairs
    # words of length 2 ending in each symbol: any symbol then B; B or 1..j then j
    ends = [k + 1, *range(2, k + 2)]
    while True:
        run = list(accumulate(ends))
        ends = [run[-1], *run[1:]]
        yield sum(ends)


@lru_cache(maxsize=None)
def weight_scale(n: int) -> tuple[int, tuple[int, ...]]:
    """The integer weights of pairs with b <= n: the unit lcm(1..n), and the
    weight 1/b times it for b = 0..n, with 0 for b = 0."""
    den = math.lcm(*range(1, n + 1))
    return den, (0,) + tuple(den // b for b in range(1, n + 1))


class PairScan(NamedTuple):
    """The weight kernel's result for one word.

    ``symbols`` is the word's own symbol tuple.  ``pairs`` holds
    ``(symbol, t1, t2, b)`` for every neighbor pair, ordered by (symbol, t1),
    where b counts the distinct symbols strictly between t1 and t2.  A
    pair's weight is ``weight_scale(max_b)[1][b]`` over ``denominator``,
    lcm(1..max_b): b <= ``max_b`` = min(k, T - 2).  ``scaled_outputs`` and
    ``scaled_total`` sum those integers in one pass over the pairs;
    ``outputs`` and ``total`` are their exact rational values.
    """

    symbols: tuple[int, ...]
    pairs: list[tuple[int, int, int, int]]
    max_b: int

    @property
    def denominator(self) -> int:
        """lcm(1..max_b): every sum of the word's pair weights is an integer over it."""
        return weight_scale(self.max_b)[0]

    def scaled_outputs(self) -> dict[int, int]:
        """Each walker's summed pair weight times ``denominator``, for every
        walker with at least one pair, in walker order."""
        scale = weight_scale(self.max_b)[1]
        out: dict[int, int] = {}
        for sym, _, _, b in self.pairs:
            out[sym] = out.get(sym, 0) + scale[b]
        return out

    @property
    def scaled_total(self) -> int:
        """The word's total weight times ``denominator``."""
        scale = weight_scale(self.max_b)[1]
        return sum(scale[b] for _, _, _, b in self.pairs)

    def outputs(self) -> dict[int, Fraction]:
        """Per-walker summed weights, for every walker with at least one pair."""
        den = self.denominator
        return {i: Fraction(w, den) for i, w in self.scaled_outputs().items()}

    @property
    def total(self) -> Fraction:
        return Fraction(self.scaled_total, self.denominator)


# not in __all__: perfbench traces every function there, and this runs per symbol
def move_to_front(recent: list[int], sym: int) -> int:
    """Move ``sym`` to the front of the recency list ``recent``; return its
    former index, the count of distinct symbols seen since its previous
    occurrence, or -1 at its first.  O(d) for d distinct symbols."""
    # tested, not caught: a raised ValueError costs more than a second scan
    if sym not in recent:
        recent.insert(0, sym)
        return -1
    b = recent.index(sym)
    if b:
        del recent[b]
        recent.insert(0, sym)
    return b


def _max_b(k: int, length: int) -> int:
    """n = min(k, length - 2), at least 0: no pair of a word of at most
    ``length`` symbols has b > n, so its weight is an integer over lcm(1..n)."""
    return max(min(k, length - 2), 0)


def pair_scan(s: Seq) -> PairScan:
    """Find every neighbor pair and its b in one pass of ``move_to_front``,
    O(T*d) for d distinct symbols."""
    recent: list[int] = []
    last: dict[int, int] = {}  # each symbol's last 1-based position: a pair's t1
    pairs = []
    for t2, sym in enumerate(s.symbols, start=1):
        b = move_to_front(recent, sym)
        if b >= 0 and sym != BLANK:
            pairs.append((sym, last[sym], t2, b))
        last[sym] = t2
    pairs.sort()
    return PairScan(s.symbols, pairs, _max_b(s.k, len(s.symbols)))


def scaled_total_weight(s: Seq, n: int) -> int:
    """The total weight of ``s`` times lcm(1..n), for n >= min(k, T - 2):
    ``pair_scan``'s pass, keeping only the running sum."""
    scale = weight_scale(n)[1]
    recent: list[int] = []
    total = 0
    for sym in s.symbols:
        b = move_to_front(recent, sym)
        if b > 0 and sym != BLANK:  # a pair with b = 0 weighs 0
            total += scale[b]
    return total


def blank_count(s: Seq) -> int:
    return s.symbols.count(BLANK)
