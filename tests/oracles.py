"""Brute-force reference implementations used only by the tests.

Deliberately naive, straight-from-the-definition recomputations, kept
independent of the library's code paths.
"""

from fractions import Fraction


def brute_pairs(symbols, k):
    """(symbol, t1, t2, b) per neighbor pair, ordered by (symbol, t1)."""
    pairs = []
    for i in range(1, k + 1):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            pairs.append((i, t1, t2, len(set(symbols[t1 : t2 - 1]))))
    return pairs


def brute_total_weight(symbols, k):
    """(total, blanks, per-symbol outputs) by direct definition scans."""
    total = Fraction(0)
    per = {}
    for i in range(1, k + 1):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            b = len(set(symbols[t1 : t2 - 1]))
            w = Fraction(1, b) if b else Fraction(0)
            total += w
            per[i] = per.get(i, Fraction(0)) + w
    return total, symbols.count(0), per


def brute_redistribution(symbols, k):
    """Per-walker inputs under the 1/(b(b-1)) donation scheme."""
    inp = {}
    for i in range(1, k + 1):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            window = symbols[t1 : t2 - 1]
            b = len(set(window))
            recipients = sorted(set(window) - {0})
            assert len(recipients) == b - 1, "window lacks a blank"
            for r in recipients:
                inp[r] = inp.get(r, Fraction(0)) + Fraction(1, b * (b - 1))
    return inp


def brute_permissible(symbols):
    return all(
        not (a != 0 and b != 0 and a > b) for a, b in zip(symbols, symbols[1:])
    )
