"""Constructive reduction proving total weight <= blank count, with certificates.

Every permissible word shrinks to a trivial one through four edit rules,
applied in a fixed priority:

1. CollapseBlanks        -- replace "B B" by "B"
2. DeleteZeroWeightPair  -- replace "i i" by "i"
3. CollapseWeightOnePair -- replace "i B i" by "i"
4. DeleteVictimSymbol    -- remove every occurrence of a walker whose
   redistributed input is at least its output  (weight delta >= 0, blanks 0)

Rules 1..3 are local: ``LOCAL_RULES`` holds each one's pattern width and
constant deltas.  Rule 4 works on integer tables over a word's weight unit,
lcm(1..min(k, T - 2)): ``redistribution`` gives what each walker receives,
and ``PairScan.scaled_outputs`` what each emits.

Unwinding the recorded deltas from the trivial endpoint proves the inequality
for the initial word; the step list is a certificate an independent checker
replays with exact arithmetic.  The exhaustive sweep checks one step per
word instead, taking the words and their counts from ``sequences``: every
rule has weight delta >= blank delta, so the inequality passes from the
shorter word up to the longer one, by induction on length.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .sequences import (
    BLANK,
    PairScan,
    Seq,
    _max_b,
    blank_count,
    is_permissible,
    move_to_front,
    pair_scan,
    parse_seq,
    permissible_words,
    scaled_total_weight,
    weight_scale,
    word_counts,
)

__all__ = [
    "COLLAPSE_BLANKS",
    "DELETE_ZERO_WEIGHT_PAIR",
    "COLLAPSE_WEIGHT_ONE_PAIR",
    "DELETE_VICTIM_SYMBOL",
    "ReductionStep",
    "ReductionCertificate",
    "CheckResult",
    "ExhaustiveReport",
    "redistribution",
    "reduce_step",
    "reduce_certificate",
    "check_certificate",
    "is_terminal",
    "apply_edit",
    "certificate_to_text",
    "certificate_from_text",
    "verify_lemma_exhaustive",
    "ENUMERATION_BUDGET",
]

COLLAPSE_BLANKS = "CollapseBlanks"
DELETE_ZERO_WEIGHT_PAIR = "DeleteZeroWeightPair"
COLLAPSE_WEIGHT_ONE_PAIR = "CollapseWeightOnePair"
DELETE_VICTIM_SYMBOL = "DeleteVictimSymbol"

# rule -> (pattern width, weight delta, blank delta) of the local rules, in
# priority order; each edit keeps the pattern's first symbol, drops the rest
LOCAL_RULES = {
    COLLAPSE_BLANKS: (2, Fraction(0), -1),
    DELETE_ZERO_WEIGHT_PAIR: (2, Fraction(0), 0),
    COLLAPSE_WEIGHT_ONE_PAIR: (3, Fraction(-1), -1),
}

RULES = (*LOCAL_RULES, DELETE_VICTIM_SYMBOL)

ENUMERATION_BUDGET = 10_000_000

# a parallel sweep cuts at least this many shards per process, so uneven
# subtrees even out across the pool
SHARDS_PER_JOB = 8

# a sweep of fewer words runs in one process: a pool saves it no wall time
POOL_MIN_WORDS = 25_000


class ReductionStep(NamedTuple):
    """One certificate line: ``rule`` applied at ``arg``, the 1-based anchor
    of the pattern for rules 1..3 and the victim walker for rule 4, as in
    ``apply_edit``.  Deltas are after-minus-before values, stored exactly.
    The words are not stored: a checker replays them from the certificate's
    initial word.
    """

    rule: str
    arg: int
    weight_delta: Fraction
    blank_delta: int


class ReductionCertificate(NamedTuple):
    initial: Seq
    steps: tuple[ReductionStep, ...]
    final: Seq


class CheckResult(NamedTuple):
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def redistribution(scan: PairScan) -> dict[int, int]:
    """What each walker receives when every pair donates its weight to the
    distinct walker symbols between its endpoints, times ``scan.denominator``.

    Requires the scan of a permissible word with rules 1..3 exhausted: every
    pair has b >= 2 and a blank between its endpoints, so exactly b - 1
    distinct walkers receive 1/(b(b-1)) each, summing to the pair's weight
    1/b.  A pair never donates to its own symbol: that symbol cannot occur
    strictly between the pair's endpoints.  A walker's output, the summed
    weight of its own pairs, is in ``scan.scaled_outputs()``.

    The symbols between a pair are read from ``scan.symbols[t1 : t2 - 1]``.
    A walker's pairs tile the span from its first occurrence to its last,
    so the slices cost O(T*d) in all for d distinct symbols, as the scan.
    """
    # b and b - 1 are coprime and at most max_b, so b(b-1) divides lcm(1..max_b)
    den = scan.denominator
    syms = scan.symbols
    received: dict[int, int] = {}
    for sym, t1, t2, b in scan.pairs:
        if b <= 1:
            raise ValueError(
                f"pair ({t1},{t2}) of symbol {sym} has b={b}; rules 1..3 are not exhausted"
            )
        between = set(syms[t1 : t2 - 1])
        if BLANK not in between:
            raise ValueError(f"pair ({t1},{t2}) has no blank between its endpoints")
        between.remove(BLANK)
        share = den // (b * (b - 1))
        for r in between:
            received[r] = received.get(r, 0) + share
    return received


def apply_edit(s: Seq, rule: str, arg: int) -> Seq:
    """Apply a rule's edit mechanically at a 1-based anchor (or victim symbol)."""
    syms = s.symbols
    if rule in LOCAL_RULES:
        width = LOCAL_RULES[rule][0]
        if not 1 <= arg <= len(syms) - width + 1:
            raise ValueError(f"anchor {arg} out of range for length {len(syms)}")
        return Seq._unchecked(s.k, syms[:arg] + syms[arg + width - 1 :])
    if rule == DELETE_VICTIM_SYMBOL:
        if arg == BLANK or arg not in syms:
            raise ValueError(f"victim {arg} does not occur")
        return Seq._unchecked(s.k, tuple(x for x in syms if x != arg))
    raise ValueError(f"unknown rule {rule!r}")


def _pattern_at(rule: str, syms: tuple[int, ...], pos: int) -> bool:
    """Whether a local rule's pattern, "B B", "i i" or "i B i" for a walker
    i, starts at the 1-based anchor ``pos``."""
    t = pos - 1
    if not 0 <= t <= len(syms) - LOCAL_RULES[rule][0]:
        return False
    if rule == COLLAPSE_BLANKS:
        return syms[t] == BLANK and syms[t + 1] == BLANK
    if rule == DELETE_ZERO_WEIGHT_PAIR:
        return syms[t] != BLANK and syms[t + 1] == syms[t]
    return syms[t] != BLANK and syms[t + 1] == BLANK and syms[t + 2] == syms[t]


def _first_local(syms: tuple[int, ...]) -> tuple[str, int] | None:
    """The first local rule in priority order that applies, with its leftmost
    1-based anchor.  The scans inline ``_pattern_at``."""
    for t in range(len(syms) - 1):
        if syms[t] == BLANK and syms[t + 1] == BLANK:
            return COLLAPSE_BLANKS, t + 1
    for t in range(len(syms) - 1):
        if syms[t] != BLANK and syms[t] == syms[t + 1]:
            return DELETE_ZERO_WEIGHT_PAIR, t + 1
    for t in range(len(syms) - 2):
        if syms[t] != BLANK and syms[t + 1] == BLANK and syms[t + 2] == syms[t]:
            return COLLAPSE_WEIGHT_ONE_PAIR, t + 1
    return None


@lru_cache(maxsize=1024)
def _local_step(rule: str, pos: int) -> ReductionStep:
    """A local rule's step at the 1-based anchor ``pos``, with the rule's
    constant deltas; cached, since a sweep takes each one many times."""
    _, wd, bd = LOCAL_RULES[rule]
    return ReductionStep(rule, pos, wd, bd)


def _pick_step(s: Seq) -> ReductionStep:
    """The step ``reduce_step`` takes on the permissible word ``s``: its
    first local pattern's (``_first_local``), else a victim deletion."""
    local = _first_local(s.symbols)
    if local is not None:
        return _local_step(*local)
    present = sorted(set(s.symbols) - {BLANK})
    if not present:
        raise ValueError("terminal sequence: no rule applies")
    scan = pair_scan(s)
    received = redistribution(scan)
    outputs = scan.scaled_outputs()
    for j in present:
        gain = received.get(j, 0) - outputs.get(j, 0)
        if gain >= 0:
            return ReductionStep(DELETE_VICTIM_SYMBOL, j, Fraction(gain, scan.denominator), 0)
    raise AssertionError("no admissible victim; conservation of redistributed weight is broken")


def reduce_step(s: Seq) -> ReductionStep:
    """The step of the first applicable rule in the fixed priority order.

    Raises on a non-permissible word or a terminal one (no walker symbol and
    no adjacent blanks).  The victim of rule 4 is the smallest walker present
    whose redistributed input is at least its output; one always exists since
    inputs and outputs both sum to the total weight.  Its weight delta is
    input - output: deleting it drops its own pairs, and each pair that
    spanned it gains what it donated to the victim.
    """
    if not is_permissible(s):
        raise ValueError("sequence is not permissible")
    return _pick_step(s)


def is_terminal(s: Seq) -> bool:
    """No walker symbol and no adjacent blanks: the empty word or a lone blank."""
    return s.symbols in ((), (BLANK,))


def reduce_certificate(s: Seq) -> ReductionCertificate:
    """Reduce to a terminal word, recording every step.

    Terminates because each step strictly shortens the word.
    """
    if not is_permissible(s):
        raise ValueError("sequence is not permissible")
    steps = []
    cur = s
    while not is_terminal(cur):
        step = reduce_step(cur)
        steps.append(step)
        cur = apply_edit(cur, step.rule, step.arg)
    return ReductionCertificate(s, tuple(steps), cur)


def _check_step(
    before: Seq, step: ReductionStep, weight: int, n: int
) -> tuple[str | None, Seq | None, int | None]:
    """Independently re-verify one step on ``before`` with exact arithmetic.

    ``weight`` is ``before``'s total weight times lcm(1..n), for an n at
    least ``_max_b`` of its length.

    Checks the rule's pattern at the anchor, or that the victim occurs, and
    that the edit shortens the word.  Weighs the result afresh over the same
    unit, which its own divides, and checks the stored weight and blank
    deltas against the recomputed ones; a matched local pattern forces its
    rule's deltas, so the stored ones are the table's.  For rule 4 it scans
    ``before`` and checks the redistribution precondition and the victim's
    admissibility (input >= output) on the integer tables.  Last, the induction premise: the result
    is a shorter permissible word and dw >= bd, so weight <= blanks for it
    implies the same for ``before``.  Returns the first failure, or None
    with the result and its weight over lcm(1..n).
    """
    if step.rule in LOCAL_RULES and not _pattern_at(step.rule, before.symbols, step.arg):
        return f"no {step.rule} pattern at position {step.arg}", None, None
    try:
        after = apply_edit(before, step.rule, step.arg)
    except ValueError as exc:  # an absent victim or an unknown rule
        return str(exc), None, None
    if len(after.symbols) >= len(before.symbols):
        return "edit does not shorten the sequence", None, None
    den = weight_scale(n)[0]
    after_weight = scaled_total_weight(after, n)
    dw = after_weight - weight
    bd = blank_count(after) - blank_count(before)
    stored = step.weight_delta
    if dw * stored.denominator != stored.numerator * den:
        return f"stored weight delta {stored} != recomputed {Fraction(dw, den)}", None, None
    if bd != step.blank_delta:
        return f"stored blank delta {step.blank_delta} != recomputed {bd}", None, None
    if step.rule == DELETE_VICTIM_SYMBOL:
        scan = pair_scan(before)
        try:
            received = redistribution(scan)
        except ValueError as exc:
            return f"redistribution precondition: {exc}", None, None
        j = step.arg
        if received.get(j, 0) < scan.scaled_outputs().get(j, 0):
            return f"victim {j} has input < output, not admissible", None, None
    if not is_permissible(after):
        return "result is not permissible", None, None
    if dw < bd * den:
        return "weight falls by more than the blank count", None, None
    return None, after, after_weight


def check_certificate(cert: ReductionCertificate) -> CheckResult:
    """Independently re-verify a certificate with exact arithmetic.

    Replays the steps from the initial word, checking each with
    ``_check_step``, checks the replay ends at the final word and that it
    has no pairs, and confirms the unwound inequality
    weight(initial) <= blank_count(initial).  Each word of the chain is
    weighed once, over the initial word's unit lcm(1..min(k, T - 2)), which
    every shorter word's divides; a victim deletion also scans its word for
    the redistribution.
    """
    cur = cert.initial
    if not is_permissible(cur):
        return CheckResult(False, "initial sequence is not permissible")
    n = _max_b(cur.k, len(cur))
    weight = initial_w = scaled_total_weight(cur, n)
    for idx, step in enumerate(cert.steps):
        failure, cur, weight = _check_step(cur, step, weight, n)
        if failure is not None:
            return CheckResult(False, f"step {idx}: {failure}")
    if cert.final != cur:
        return CheckResult(False, "final sequence does not match the replayed steps")
    if pair_scan(cur).pairs:
        return CheckResult(False, "final sequence still contains neighbor pairs")
    if initial_w > blank_count(cert.initial) * weight_scale(n)[0]:
        return CheckResult(False, "unwound inequality fails: total weight > blanks")
    return CheckResult(True)


def certificate_to_text(cert: ReductionCertificate) -> str:
    """Serialize: header "k T", initial line, one line per step, final line.

    A step line is the step itself: the rule name, the anchor position (or
    victim symbol), the weight delta as num/den, and the blank delta.
    Bit-exact for golden tests.
    """
    lines = [f"{cert.initial.k} {cert.initial.T}", cert.initial.text()]
    for st in cert.steps:
        wd = st.weight_delta
        lines.append(f"{st.rule} {st.arg} {wd.numerator}/{wd.denominator} {st.blank_delta}")
    lines.append(cert.final.text())
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> ReductionCertificate:
    """Parse a serialized certificate.

    Only the syntax is checked here: whether the steps apply to the words
    they replay, and lead to the final line, is check_certificate's job.
    """
    lines = text.splitlines()
    if len(lines) < 3:
        raise ValueError("certificate needs a header, initial and final line")
    try:
        k, T = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"malformed header {lines[0]!r}") from exc
    initial = parse_seq(lines[1], k)
    if initial.T != T:
        raise ValueError(f"header says T={T} but initial line has {initial.T} symbols")
    steps = []
    for line in lines[2:-1]:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed step line {line!r}")
        rule, arg_s, wd_s, bd_s = parts
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        try:
            num, den = map(int, wd_s.split("/"))
            steps.append(ReductionStep(rule, int(arg_s), Fraction(num, den), int(bd_s)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed step line {line!r}") from exc
    return ReductionCertificate(initial, tuple(steps), parse_seq(lines[-1], k))


class ExhaustiveReport(NamedTuple):
    k: int
    max_len: int
    checked: int
    by_length: dict[int, int]
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _extend(state: tuple, sym: int, scale: tuple[int, ...]) -> tuple:
    """The carried state of a word with ``sym`` appended.

    A state is (weight, recent): the total weight over the sweep's unit,
    with ``scale`` each b's pair weight over it, and the ``move_to_front``
    recency list.  Appending closes at most one pair, whose b is the step's
    on a copy of the parent's list.  O(d) for d distinct symbols.
    """
    weight, recent = state
    recent = recent.copy()
    b = move_to_front(recent, sym)
    if sym != BLANK and b >= 0:
        weight += scale[b]
    return weight, recent


def _carried_words(k: int, max_len: int, prefix: tuple[int, ...] = ()):
    """Yield ``(word, weight)`` for each word of
    ``permissible_words(k, max_len, prefix)``: its total weight times
    lcm(1..n), the one unit of the sweep for n = ``_max_b(k, max_len)``.

    Each word's state extends its parent's by one symbol (``_extend``).  The
    words come depth first, a word before its extensions, so the parent of
    a word of length d is the last word of length d - 1 yielded; its state
    waits at depth d - 1 of the path.  The prefix's own ancestors are not
    yielded, and are extended here first.
    """
    scale = weight_scale(_max_b(k, max_len))[1]
    path: list = [None] * (max_len + 1)
    path[0] = (0, [])
    for t in range(1, len(prefix)):
        path[t] = _extend(path[t - 1], prefix[t - 1], scale)
    for word in permissible_words(k, max_len, prefix):
        t = len(word)
        state = path[t] = _extend(path[t - 1], word[-1], scale)
        yield word, state[0]


def _is_canonical(word: tuple[int, ...], k: int) -> bool:
    """Whether ``word`` <= its reversal image sigma(word) in tuple order.

    sigma reverses a word over {B, 1..k} and relabels walker i as k + 1 - i,
    keeping the blank.  The symbols are compared from both ends, so the test
    stops at the first difference, most often at the first symbol.
    """
    j = len(word)
    for a in word:
        j -= 1
        b = word[j]
        if b != BLANK:
            b = k + 1 - b
        if a != b:
            return a < b
    return True


def _verify_words(k: int, max_len: int, prefix: tuple[int, ...] = (), every: bool = False):
    """Check the first reduction step of each word under ``prefix`` that is
    canonical (``_is_canonical``), or of every word when ``every`` is set;
    the counterexamples are the checked words whose step fails.  Every word
    is counted in ``by_length``.  A terminal word has no step: it has no
    pairs, so it holds the inequality outright.

    A word's weight is carried down from its parent (``_carried_words``).
    Its step is ``reduce_step``'s, taken by ``_pick_step`` without a second
    permissibility pass, since every enumerated word is permissible.  The
    carried weight is the word's weight exactly: the parent's pairs are the
    word's pairs but the one its last symbol closes, and that pair's b
    comes from the ``move_to_front`` step ``pair_scan`` takes.  Only the
    shorter word the step leaves is weighed afresh, and the step check
    compares the two: a wrong carried weight fails it, since the stored
    delta of a local rule is a constant and that of rule 4 comes from a
    fresh scan of the word.
    """
    n = _max_b(k, max_len)
    by_length: dict[int, int] = {}
    bad: list[tuple[int, ...]] = []
    for word, weight in _carried_words(k, max_len, prefix):
        by_length[len(word)] = by_length.get(len(word), 0) + 1
        if not (every or _is_canonical(word, k)):
            continue
        s = Seq._unchecked(k, word)
        if is_terminal(s):
            continue
        if _check_step(s, _pick_step(s), weight, n)[0] is not None:
            bad.append(word)
    return by_length, bad


def _shards(k: int, max_len: int, jobs: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Partition the words into shards: one per permissible prefix of length
    d, each covering that prefix's subtree, plus one for the words shorter
    than d.  d is the least length with SHARDS_PER_JOB words per job
    (``word_counts``), else ``max_len``."""
    counts = zip(range(1, max_len + 1), word_counts(k))
    depth = next((d for d, c in counts if c >= SHARDS_PER_JOB * jobs), max_len)
    shards = [(k, max_len, w) for w in permissible_words(k, depth) if len(w) == depth]
    if depth > 1:
        shards.insert(0, (k, depth - 1, ()))
    return shards


def _sweep(k: int, max_len: int, workers: int, every: bool) -> list:
    """``_verify_words``' (by_length, bad) results over all words: in this
    process when ``workers`` is 1, else over prefix shards in a pool of at
    most ``workers`` processes."""
    if workers == 1:
        return [_verify_words(k, max_len, (), every)]
    from concurrent.futures import ProcessPoolExecutor

    shards = _shards(k, max_len, workers)
    with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
        return list(pool.map(_verify_words, *zip(*shards), [every] * len(shards)))


def verify_lemma_exhaustive(k: int, max_len: int, jobs: int | None = 1) -> ExhaustiveReport:
    """Prove total weight <= blanks for every permissible word of length
    1..max_len over {B, 1..k}, by induction on length.

    Each non-terminal word gets the step ``reduce_step`` takes
    (``_pick_step``), checked by ``_check_step``: the rule applies at the
    step's anchor or victim, its stored deltas are the recomputed ones, a
    victim is admissible, and its edit maps the word to a shorter
    permissible word with dw >= bd.  Every rule's deltas satisfy that: the
    local rules' in ``LOCAL_RULES``, and (input - output >= 0, 0) for rule
    4.  So if the shorter word obeys the inequality, w(before) = w(after) -
    dw <= blanks(after) - bd = blanks(before).  Here w(before) is carried
    down the enumeration, not rescanned: a word has exactly its parent's
    pairs plus the one its last symbol may close, so its carried weight is
    its weight (``_verify_words``), and dw is recomputed from a fresh
    weighing of the shorter word; blanks(before) is counted off the word.
    The base cases, the empty word and a lone blank, have no pairs.  The
    premise that every shorter word was enumerated is asserted: the words
    counted per length must equal ``word_counts``.

    Only the canonical words, those with w <= sigma(w) (``_is_canonical``),
    have their step checked.  That proves the inequality for every word:
    sigma, reversal with walker i relabelled k + 1 - i, maps a permissible
    word to a permissible word of the same length, since an adjacent pair
    a <= b of walkers becomes k + 1 - b <= k + 1 - a.  It maps the pairs of
    walker i to those of k + 1 - i and each pair's between set onto the
    relabelled one, so it keeps every b, the total weight and the blank
    count.  And sigma is an involution, so each non-canonical word is the
    image of a canonical word of its length, whose check proves the
    inequality for both.  So an ``ok`` report certifies that every canonical
    word's step checks, which proves the inequality for every word up to
    ``max_len``; a non-canonical word's own step is never checked.  When a
    canonical step fails, the sweep is run again checking every word, and
    only then are the counterexamples exact: every word whose own step
    fails.

    Raises at the first length with more than ``ENUMERATION_BUDGET`` words,
    by the exact ``word_counts``.  A sweep of at least ``POOL_MIN_WORDS``
    words spreads prefix shards (see ``_shards``) over up to ``jobs``
    processes, at most one per usable CPU, and one per usable CPU when
    ``jobs`` is None; a smaller one runs here.  The report is the same at
    every ``jobs``; counterexamples are listed in enumeration order.
    """
    if k < 1 or max_len < 1:
        raise ValueError("need k >= 1 and max_len >= 1")
    if jobs is not None and jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    expected: dict[int, int] = {}
    for length, count in zip(range(1, max_len + 1), word_counts(k)):
        if count > ENUMERATION_BUDGET:
            raise ValueError(
                f"{count} permissible words of length {length} exceed the budget {ENUMERATION_BUDGET}"
            )
        expected[length] = count
    # the CPUs this process may use: its affinity mask, where the OS has one
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()) or 1
    workers = min(jobs or cpus, cpus) if sum(expected.values()) >= POOL_MIN_WORDS else 1
    results = _sweep(k, max_len, workers, every=False)
    if any(words for _, words in results):
        # some canonical word's step failed: list every word whose own step fails
        results = _sweep(k, max_len, workers, every=True)
    by_length: dict[int, int] = {}
    bad: list[tuple[int, ...]] = []
    for counts, words in results:
        for length, cnt in counts.items():
            by_length[length] = by_length.get(length, 0) + cnt
        bad.extend(words)
    if by_length != expected:
        raise AssertionError(
            f"incomplete enumeration: words per length {by_length} != {expected}"
        )
    counterexamples = tuple(Seq(k, w).text() for w in sorted(bad))
    # by_length equals expected, which lists the lengths in order
    return ExhaustiveReport(k, max_len, sum(by_length.values()), expected, counterexamples)
