"""Brute-force reference implementations used only by the tests.

Deliberately naive, straight-from-the-definition recomputations, kept
independent of the library's code paths.
"""

import decimal
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def brute_pairs(symbols):
    """(symbol, t1, t2, b) per neighbor pair, ordered by (symbol, t1)."""
    pairs = []
    for i in sorted(set(symbols) - {0}):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            pairs.append((i, t1, t2, len(set(symbols[t1 : t2 - 1]))))
    return pairs


def brute_total_weight(symbols):
    """(total, blanks, per-symbol outputs) by direct definition scans."""
    total = Fraction(0)
    per = {}
    for i in sorted(set(symbols) - {0}):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            b = len(set(symbols[t1 : t2 - 1]))
            w = Fraction(1, b) if b else Fraction(0)
            total += w
            per[i] = per.get(i, Fraction(0)) + w
    return total, symbols.count(0), per


def brute_redistribution(symbols):
    """Per-walker inputs under the 1/(b(b-1)) donation scheme."""
    inp = {}
    for i in sorted(set(symbols) - {0}):
        occ = [t for t, s in enumerate(symbols, 1) if s == i]
        for t1, t2 in zip(occ, occ[1:]):
            window = symbols[t1 : t2 - 1]
            b = len(set(window))
            recipients = sorted(set(window) - {0})
            assert len(recipients) == b - 1, "window lacks a blank"
            for r in recipients:
                inp[r] = inp.get(r, Fraction(0)) + Fraction(1, b * (b - 1))
    return inp


def brute_reversal(k, w):
    """sigma on a window or word over {B, 1..k}: reversed, with walker i
    relabelled k+1-i and every blank kept."""
    return tuple(0 if s == 0 else k + 1 - s for s in reversed(w))


def brute_permissible(symbols):
    return all(
        not (a != 0 and b != 0 and a > b) for a, b in zip(symbols, symbols[1:])
    )


def pressure_within(k, p):
    """Whether p(1 - p ln p) <= 1/k for a rational p, evaluated as written
    in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(p.numerator) / p.denominator
        return d * (1 - d * d.ln()) <= decimal.Decimal(1) / k


# the local reduction rules as literal slices, given the symbol i at the
# anchor: "B B", and "i i" or "i B i" for a walker i
LITERAL_PATTERNS = {
    "CollapseBlanks": lambda i: (0, 0),
    "DeleteZeroWeightPair": lambda i: (i, i) if i else None,
    "CollapseWeightOnePair": lambda i: (i, 0, i) if i else None,
}


def literal_local_step(rule, symbols, pos):
    """The word a local rule leaves at 1-based anchor ``pos``, or None when
    its literal pattern does not start there.  The edit keeps the pattern's
    first symbol only."""
    if not 1 <= pos <= len(symbols):
        return None
    pattern = LITERAL_PATTERNS[rule](symbols[pos - 1])
    if pattern is None or tuple(symbols[pos - 1 : pos - 1 + len(pattern)]) != pattern:
        return None
    return tuple(symbols[:pos]) + tuple(symbols[pos - 1 + len(pattern) :])


def product_witness(p, m):
    """The i.i.d. product distribution over {B,1}^m for a rational p, exact
    and in lexicographic window order; a witness of the k=1 window LP."""
    values = []
    for w in itertools.product((0, 1), repeat=m):
        prob = Fraction(1)
        for s in w:
            prob *= p if s == 1 else 1 - p
        values.append(prob)
    return values


def marginalize_witness(lp, q):
    """Drop the last window symbol of a window LP's witness:
    q'(v) = sum_y q(v + (y,)), aligned with the lexicographic windows of the
    length m-1 instance."""
    if lp.m < 2:
        raise ValueError("cannot marginalize a length-1 window instance")
    q = np.asarray(q)
    index = {w: i for i, w in enumerate(lp.windows)}
    out = []
    for v in itertools.product(range(lp.k + 1), repeat=lp.m - 1):
        out.append(sum(q[index[v + (y,)]] for y in range(lp.k + 1)))
    return np.array(out)


def replay_certificate(cert):
    """(before, step, after) for each step of a certificate, the words
    replayed from its initial word by literal slicing: a local rule keeps its
    pattern's first symbol and drops the rest, a victim deletion drops every
    occurrence of the victim."""
    from avoidance.sequences import Seq

    cur = cert.initial
    for step in cert.steps:
        syms = cur.symbols
        if step.rule in LITERAL_PATTERNS:
            width = len(LITERAL_PATTERNS[step.rule](1))
            after = Seq(cur.k, syms[: step.arg] + syms[step.arg - 1 + width :])
        else:
            after = Seq(cur.k, tuple(x for x in syms if x != step.arg))
        yield cur, step, after
        cur = after


@dataclass(frozen=True)
class BruteLP:
    """The window LP as ``brute_window_lp`` builds it, with a scipy CSR ``A``
    and, derived from it, the column arrays that ``witness_residual`` reads."""

    k: int
    p: Fraction
    m: int
    windows: tuple
    A: object
    col_ptr: np.ndarray
    row_ind: np.ndarray
    coef: np.ndarray
    b: np.ndarray
    b_exact: tuple
    row_labels: tuple
    zero_vars: tuple

    @property
    def num_vars(self):
        return len(self.windows)

    @property
    def num_rows(self):
        return len(self.row_labels)


def brute_window_lp(k, p, m):
    """The window LP for k walkers, rational p and window length m, built row
    by row from coefficient dicts, in the row and column order of
    ``avoidance.lp.build_window_lp``.

    Each walker's faithfulness rows come from one pass that files every
    window under its indicator pattern, the dict form of "the windows whose
    walker-i indicators equal the pattern".
    """
    from scipy import sparse

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
    csc = A.tocsc()
    return BruteLP(
        k=k,
        p=p,
        m=m,
        windows=windows,
        A=A,
        col_ptr=csc.indptr,
        row_ind=csc.indices,
        coef=csc.data,
        b=np.array([float(x) for x in b_exact]),
        b_exact=tuple(b_exact),
        row_labels=tuple(labels),
        zero_vars=zero_vars,
    )


def two_step_solve(lp, tol=1e-9, unknown_margin=1e-6, options=None):
    """(status, gap) of a ``BruteLP`` by two HiGHS solves over every
    window: a feasibility solve with the support zeros pinned by bounds, and,
    when that reports infeasible, a phase-one solve minimizing the L1
    equality violation.  ``options`` go to both solves."""
    from scipy import sparse
    from scipy.optimize import linprog

    nv, nr = len(lp.windows), len(lp.row_labels)
    bounds = np.zeros((nv, 2))
    bounds[:, 1] = np.inf
    bounds[list(lp.zero_vars), 1] = 0.0
    res = linprog(c=np.zeros(nv), A_eq=lp.A, b_eq=lp.b, bounds=bounds, method="highs", options=options)
    if res.status == 0:
        q = np.asarray(res.x, dtype=np.float64)
        residual = max(
            float(np.abs(lp.A @ q - lp.b).max()),
            float(max(0.0, -q.min())),
            float(np.abs(q[list(lp.zero_vars)]).max()) if lp.zero_vars else 0.0,
        )
        return ("feasible" if residual <= tol else "unknown"), None
    assert res.status == 2, res.status
    identity = sparse.identity(nr, format="csr")
    A = sparse.hstack([lp.A, identity, -identity], format="csr")
    slack_bounds = np.zeros((2 * nr, 2))
    slack_bounds[:, 1] = np.inf
    res = linprog(
        c=np.concatenate([np.zeros(nv), np.ones(2 * nr)]),
        A_eq=A,
        b_eq=lp.b,
        bounds=np.vstack([bounds, slack_bounds]),
        method="highs",
        options=options,
    )
    assert res.status == 0, res.status
    gap = float(res.fun)
    return ("infeasible" if gap > unknown_margin else "unknown"), gap


def full_phase_one_system(lp):
    """The phase-one LP over every permissible window, as ``linprog``
    arguments ``(c, col_ptr, row_ind, coef, b)``: minimize 1'(s+ + s-)
    subject to A' q + s+ - s- = b', where A' keeps the permissible windows'
    columns and the rows they leave nonempty.  ``solve_feasibility`` solves
    the reversal-orbit quotient of this system instead."""
    free = np.ones(lp.num_vars, dtype=bool)
    free[list(lp.zero_vars)] = False
    entry_free = np.repeat(free, np.diff(lp.col_ptr))
    rows, coef, b = np.asarray(lp.row_ind)[entry_free], np.asarray(lp.coef)[entry_free], np.asarray(lp.b)
    used = np.bincount(rows, minlength=lp.num_rows) > 0
    assert not b[~used].any(), "a row with nonzero right-hand side lost every window"
    nv, nr = int(free.sum()), int(used.sum())
    col_ptr = np.concatenate([[0], np.cumsum(np.diff(lp.col_ptr)[free])])
    slack_rows = np.arange(nr)
    return (
        np.concatenate([np.zeros(nv), np.ones(2 * nr)]).tolist(),
        np.concatenate([col_ptr, col_ptr[-1] + 1 + np.arange(2 * nr)]).tolist(),
        np.concatenate([(np.cumsum(used) - 1)[rows], slack_rows, slack_rows]).tolist(),
        np.concatenate([coef, np.ones(nr), -np.ones(nr)]).tolist(),
        b[used].tolist(),
    )


def trace_word(tr):
    """A coupling trace's rows as a word: ``traces.symbol_array`` held as a
    Seq, for the checks that take words."""
    from avoidance.sequences import Seq
    from avoidance.traces import symbol_array

    return Seq(tr.k, tuple(symbol_array(tr).tolist()))


def rowwise_write_trace(tr):
    """The trace text format, one row at a time."""
    from avoidance.traces import WalkerTrace

    if isinstance(tr, WalkerTrace):
        header = f"{tr.T} {tr.k} {tr.n} {int(tr.looped)}"
    else:
        header = f"{tr.T} {tr.k}"
    out = [header + "\n"]
    for row in tr.rows:
        out.append(" ".join(str(int(x)) for x in row) + "\n")
    return "".join(out)


def rowwise_read_trace(text):
    """Parse the trace text format line by line; a ragged body fails in numpy
    and a value past int64 raises OverflowError."""
    from avoidance.traces import CouplingTrace, WalkerTrace

    lines = text.splitlines()
    if not lines:
        raise ValueError("empty trace file")
    header = lines[0].split()
    if len(header) == 2:
        T, k = map(int, header)
        n = looped = None
    elif len(header) == 4:
        T, k, n, looped_i = map(int, header)
        looped = bool(looped_i)
    else:
        raise ValueError(f"malformed header {lines[0]!r}")
    if T < 0 or k < 0 or (n is not None and (n < 1 or looped_i not in (0, 1))):
        raise ValueError(f"header {lines[0]!r} out of range")
    data = [line.split() for line in lines[1:] if line.strip()]
    if len(data) != T:
        raise ValueError(f"header says {T} rows, found {len(data)}")
    rows = np.array(data, dtype=np.int64).reshape(T, k) if T else np.empty((0, k), np.int64)
    if len(header) == 2:
        return CouplingTrace(k, rows)
    return WalkerTrace(n, k, looped, rows)


def all_1avoidance_violations(tr):
    """Every violation of a binary trace as a Violation, sorted by
    (t, i, j, kind): simultaneous pairs row by row, cross-time hits pair by
    pair."""
    from avoidance.traces import Violation

    rows = tr.rows
    out = []
    sums = rows.sum(axis=1)
    for t in np.nonzero(sums >= 2)[0]:
        ones = np.nonzero(rows[t])[0]
        for a in range(len(ones)):
            for b in range(a + 1, len(ones)):
                out.append(
                    Violation("simultaneous", int(t) + 1, int(ones[a]) + 1, int(ones[b]) + 1)
                )
    if tr.T >= 2:
        for i in range(tr.k):
            for j in range(i + 1, tr.k):
                hits = np.nonzero((rows[1:, i] == 1) & (rows[:-1, j] == 1))[0]
                out.extend(
                    Violation("cross_time", int(t) + 1, i + 1, j + 1) for t in hits
                )
    out.sort(key=lambda v: (v.t, v.i, v.j, v.kind))
    return out


def all_walker_violations(tr):
    """Every violation of a position trace as a Violation, sorted by
    (t, i, j, kind)."""
    from avoidance.traces import Violation

    pos = tr.rows
    out = []
    for i in range(tr.k):
        for j in range(i + 1, tr.k):
            hits = np.nonzero(pos[:, i] == pos[:, j])[0]
            out.extend(Violation("within_round", int(t) + 1, i + 1, j + 1) for t in hits)
            hits = np.nonzero(pos[1:, i] == pos[:-1, j])[0]
            out.extend(Violation("cross_round", int(t) + 2, i + 1, j + 1) for t in hits)
    if not tr.looped:
        for i in range(tr.k):
            hits = np.nonzero(pos[1:, i] == pos[:-1, i])[0]
            out.extend(Violation("self_loop", int(t) + 2, i + 1, i + 1) for t in hits)
    out.sort(key=lambda v: (v.t, v.i, v.j, v.kind))
    return out


def choices_walkers(policy, T, rng):
    """Greedy avoiding walkers, k >= 2: each move lists the unblocked
    vertices and draws one of them uniformly."""
    n, k = policy.n, policy.k
    pos = np.empty((T, k), dtype=np.int64)
    cur = list(policy.start)
    for t in range(T):
        for i in range(k):
            blocked = set(cur[:i]) | set(cur[i + 1 :])
            if not policy.looped:
                blocked.add(cur[i])
            choices = [v for v in range(1, n + 1) if v not in blocked]
            cur[i] = choices[rng.integers(len(choices))]
            pos[t, i] = cur[i]
    return pos


def full_chain_sweep(k, max_len):
    """The exhaustive lemma report the long way: every permissible word, found
    by brute force over all words, is reduced to a terminal word and its whole
    certificate replayed by check_certificate."""
    from avoidance.lemma import ExhaustiveReport, check_certificate, reduce_certificate
    from avoidance.sequences import Seq

    by_length, bad = {}, []
    for length in range(1, max_len + 1):
        for word in itertools.product(range(k + 1), repeat=length):
            if not brute_permissible(word):
                continue
            by_length[length] = by_length.get(length, 0) + 1
            if not check_certificate(reduce_certificate(Seq(k, word))):
                bad.append(word)
    counterexamples = tuple(Seq(k, w).text() for w in sorted(bad))
    return ExhaustiveReport(k, max_len, sum(by_length.values()), by_length, counterexamples)
