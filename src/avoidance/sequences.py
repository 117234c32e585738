"""Finite words over a walker alphabet and their neighbor-pair weight calculus.

A word records which of k walkers (if any) occupies a tracked site at each
time step; the blank symbol ``B`` marks times when the site is empty.  Two
successive occurrences of the same walker form a neighbor pair whose weight
is 1/b, where b counts the distinct symbols strictly between them (0 for an
adjacent pair).  All weights are exact rationals: the central inequality
(total weight <= blank count) can be tight, so float tolerances are unusable.

Every weight comes from one kernel, ``pair_scan``, which records each pair
once, as (symbol, t1, t2, b); ``scaled_total_weight`` is its pass with only
the total kept.  In a word of length T, b <= n = min(k, T - 2), so a sum of
its weights is an integer over lcm(1..n), and ``weight_scale(n)`` gives that
unit and each b's weight over it, the one place the 1/b rule is written;
rationals are built only where a result leaves the kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ._record import Frozen

__all__ = [
    "BLANK",
    "Seq",
    "PairScan",
    "symbol_text",
    "parse_seq",
    "is_permissible",
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
    The empty word is a valid degenerate value.  Two words are equal when
    their k and symbols are.
    """

    __slots__ = ("k", "symbols")

    def __init__(self, k: int, symbols: tuple[int, ...]) -> None:
        if k < 0:
            raise ValueError(f"walker count must be nonnegative, got {k}")
        if symbols:
            if min(symbols) < 0 or max(symbols) > k:
                bad = next(s for s in symbols if not 0 <= s <= k)
                raise ValueError(f"symbol {bad} outside alphabet {{B, 1..{k}}}")
        _set_k(self, k)
        _set_symbols(self, symbols)

    @classmethod
    def _unchecked(cls, k: int, symbols: tuple[int, ...]) -> Seq:
        """A word whose symbols are known to lie in {B, 1..k}, built without
        the range check: a subsequence of a checked word's symbols, or an
        enumerated word."""
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


# the slots' own setters, which bypass Frozen.__setattr__
_new = object.__new__
_set_k = Seq.k.__set__
_set_symbols = Seq.symbols.__set__


def parse_seq(text: str, k: int) -> Seq:
    """Parse whitespace-separated tokens ("B" or a walker index in 1..k)."""
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
    return Seq(k, tuple(syms))


def is_permissible(s: Seq) -> bool:
    """True iff adjacent walker symbols never decrease; blanks are unconstrained."""
    syms = s.symbols
    for a, b in zip(syms, syms[1:]):
        if a != BLANK and b != BLANK and a > b:
            return False
    return True


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


def pair_scan(s: Seq) -> PairScan:
    """Find every neighbor pair and its b in one pass, O(T*d) for d distinct symbols.

    The pass keeps the last position of each symbol seen so far.  When walker
    i recurs at t2 after t1, the symbols strictly between are exactly those
    last seen after t1; i itself was last seen at t1, so it is never among
    them.
    """
    last: dict[int, int] = {}  # 1-based last position of each symbol seen
    pairs = []
    for t2, sym in enumerate(s.symbols, start=1):
        if sym != BLANK and sym in last:
            t1 = last[sym]
            b = 0
            for tx in last.values():
                if tx > t1:
                    b += 1
            pairs.append((sym, t1, t2, b))
        last[sym] = t2
    pairs.sort()
    return PairScan(s.symbols, pairs, max(min(s.k, len(s.symbols) - 2), 0))


def scaled_total_weight(s: Seq, n: int) -> int:
    """The total weight of ``s`` times lcm(1..n), for n >= min(k, T - 2).

    ``pair_scan``'s pass, keeping only the running sum: a walker's recurrence
    adds the weight of the b symbols last seen since its previous occurrence.
    """
    scale = weight_scale(n)[1]
    last: dict[int, int] = {}  # last position of each symbol seen
    total = 0
    for t2, sym in enumerate(s.symbols):
        t1 = last.get(sym)
        if t1 is not None and sym != BLANK:
            b = 0
            for tx in last.values():
                if tx > t1:
                    b += 1
            total += scale[b]
        last[sym] = t2
    return total


def blank_count(s: Seq) -> int:
    return s.symbols.count(BLANK)
