"""Brute-force reference implementations used only by the tests.

Deliberately naive, straight-from-the-definition recomputations, kept
independent of the library's code paths.
"""

import itertools
from fractions import Fraction

import numpy as np


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


def brute_window_lp(k, p, m):
    """The window LP for k walkers, rational p and window length m, built row
    by row from coefficient dicts, in the row and column order of
    ``avoidance.lp.build_window_lp``.

    Each walker's faithfulness rows come from one pass that files every
    window under its indicator pattern, the dict form of "the windows whose
    walker-i indicators equal the pattern".
    """
    from scipy import sparse

    from avoidance.lp import WindowLP

    windows = tuple(itertools.product(range(k + 1), repeat=m))
    index = {w: i for i, w in enumerate(windows)}

    rows_i, cols, data, b_exact, labels = [], [], [], [], []

    def add_row(label, coeffs, rhs):
        r = len(labels)
        labels.append(label)
        b_exact.append(rhs)
        for c, v in sorted(coeffs.items()):
            if v:
                rows_i.append(r)
                cols.append(c)
                data.append(float(v))

    add_row("normalization", {i: 1 for i in range(len(windows))}, Fraction(1))

    for v in itertools.product(range(k + 1), repeat=m - 1):
        coeffs = {}
        for x in range(k + 1):
            coeffs[index[(x,) + v]] = coeffs.get(index[(x,) + v], 0) + 1
        for y in range(k + 1):
            coeffs[index[v + (y,)]] = coeffs.get(index[v + (y,)], 0) - 1
        text = "".join("B" if s == 0 else str(s) for s in v) or "-"
        add_row(f"shift_{text}", coeffs, Fraction(0))

    for i in range(1, k + 1):
        by_pattern = {}
        for w in windows:
            pattern = tuple(1 if s == i else 0 for s in w)
            by_pattern.setdefault(pattern, {})[index[w]] = 1
        for pattern in itertools.product((0, 1), repeat=m):
            ones = sum(pattern)
            rhs = p**ones * (1 - p) ** (m - ones)
            add_row(f"faith_{i}_{''.join(map(str, pattern))}", by_pattern[pattern], rhs)

    zero_vars = tuple(
        index[w]
        for w in windows
        if any(a != 0 and b != 0 and a > b for a, b in zip(w, w[1:]))
    )
    A = sparse.csr_matrix(
        (data, (rows_i, cols)), shape=(len(labels), len(windows)), dtype=np.float64
    )
    return WindowLP(
        k=k,
        p=p,
        m=m,
        windows=windows,
        A=A,
        b=np.array([float(x) for x in b_exact]),
        b_exact=tuple(b_exact),
        row_labels=tuple(labels),
        zero_vars=zero_vars,
    )
