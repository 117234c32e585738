"""Occupancy and position traces of coupled walkers, with avoidance checks.

A CouplingTrace is a T x k binary matrix: row t marks which walkers occupy
the tracked site at time t.  A WalkerTrace is a T x k matrix of vertex
positions on the complete graph with or without loops; row t holds each
walker's position after its move in round t, walkers moving one at a time
in index order within a round.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from ._record import Frozen

import numpy as np

__all__ = [
    "CouplingTrace",
    "WalkerTrace",
    "Violation",
    "ViolationReport",
    "check_1avoidance",
    "check_walker_avoidance",
    "symbol_array",
    "project",
    "write_trace",
    "read_trace",
]


def _within(given: np.ndarray, low: int, high: int) -> bool:
    """Whether every entry of ``given`` is an integer in low..high; checked
    before conversion, which would wrap or truncate the others."""
    if not given.size:
        return True
    # Python scalars compare exactly: numpy would round high to a float
    # against a float array, so 2.0**63 would pass high = 2**63 - 1
    least, most = given.min(keepdims=True).item(), given.max(keepdims=True).item()
    if not (least >= low and most <= high):  # a NaN fails both
        return False
    return given.dtype.kind in "biu" or bool((given == np.trunc(given)).all())


class CouplingTrace(Frozen):
    """``k`` walkers' occupancy ``rows``, a read-only (T, k) uint8 array of {0, 1}."""

    __slots__ = ("k", "rows")

    def __init__(self, k: int, rows: np.ndarray) -> None:
        given = np.asarray(rows)
        if k < 1:
            raise ValueError(f"walker count must be >= 1, got {k}")
        if given.ndim != 2 or given.shape[1] != k:
            raise ValueError(f"rows must have shape (T, {k})")
        if not _within(given, 0, 1):
            raise ValueError("occupancy entries must be 0 or 1")
        rows = np.ascontiguousarray(given, dtype=np.uint8)
        rows.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)

    @property
    def T(self) -> int:
        return self.rows.shape[0]


class WalkerTrace(Frozen):
    """``k`` walkers' positions on ``n`` vertices, with or without loops:
    ``rows`` is a read-only (T, k) int64 array of vertices in 1..n."""

    __slots__ = ("n", "k", "looped", "rows")

    def __init__(self, n: int, k: int, looped: bool, rows: np.ndarray) -> None:
        given = np.asarray(rows)
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"walker count must be >= 1, got {k}")
        if looped not in (False, True):
            raise ValueError(f"looped must be False or True, got {looped!r}")
        if given.ndim != 2 or given.shape[1] != k:
            raise ValueError(f"rows must have shape (T, {k})")
        # the int64 conversion below would wrap positions past 2^63 - 1
        if not _within(given, 1, min(n, 2**63 - 1)):
            raise ValueError(f"positions must be integers in 1..{n}")
        rows = np.ascontiguousarray(given, dtype=np.int64)
        rows.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "looped", bool(looped))
        object.__setattr__(self, "rows", rows)

    @property
    def T(self) -> int:
        return self.rows.shape[0]


class Violation(NamedTuple):
    """One detected avoidance breach, with i < j for two-walker kinds.

    kinds: "simultaneous" (both occupy the site at time t), "cross_time"
    (walker i occupies at t+1 right after walker j at t), "within_round"
    (walker j lands on already-moved walker i in round t), "cross_round"
    (walker i lands on not-yet-moved walker j in round t), "self_loop"
    (a loopless walker repeats its position in round t).
    """

    kind: str
    t: int
    i: int
    j: int


# every violation kind, in the order reports sort them
KINDS = ("cross_round", "cross_time", "self_loop", "simultaneous", "within_round")


class ViolationReport(NamedTuple):
    """``counts`` holds the number of violations of each kind that occurs, in
    kind order; ``violations`` the first of them by (t, i, j, kind), as many
    as the check was asked to list."""

    counts: dict[str, int]
    violations: tuple[Violation, ...]
    rounds: int

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.counts


def _report(groups, rounds: int, limit: int | None) -> ViolationReport:
    """Count and list violations given as (kind, i, j, times) groups, each
    with its times ascending.

    A group can add at most ``limit`` violations to the first ``limit``
    overall, so only that many of each are sorted, by np.lexsort on
    (t, i, j, kind); only the listed ones become Violation objects.
    """
    counts = dict.fromkeys(KINDS, 0)
    keys = []
    for kind, i, j, times in groups:
        counts[kind] += times.size
        head = times[:limit]
        keys.append(np.stack(np.broadcast_arrays(head, i, j, KINDS.index(kind))))
    listed: tuple[Violation, ...] = ()
    if keys:
        t, i, j, kind = np.concatenate(keys, axis=1)
        order = np.lexsort((kind, j, i, t))[:limit]
        listed = tuple(
            Violation(KINDS[c], int(tv), int(iv), int(jv))
            for tv, iv, jv, c in zip(t[order], i[order], j[order], kind[order])
        )
    return ViolationReport({k: c for k, c in counts.items() if c}, listed, rounds)


def check_1avoidance(tr: CouplingTrace, limit: int | None = None) -> ViolationReport:
    """Detect simultaneous occupancy and forbidden cross-time occupancy.

    The cross-time rule bans a lower-indexed walker from occupying the site
    immediately after a higher-indexed one; ``t`` in the record is the
    earlier time.  Every violation is counted; the first ``limit`` (all by
    default) are listed.
    """
    cols = np.ascontiguousarray(tr.rows.T)
    groups = []
    for i in range(tr.k):
        for j in range(i + 1, tr.k):
            hits = np.flatnonzero(cols[i] & cols[j])
            groups.append(("simultaneous", i + 1, j + 1, hits + 1))
            hits = np.flatnonzero(cols[i, 1:] & cols[j, :-1])
            groups.append(("cross_time", i + 1, j + 1, hits + 1))
    return _report(groups, tr.T, limit)


def check_walker_avoidance(tr: WalkerTrace, limit: int | None = None) -> ViolationReport:
    """Check the one-at-a-time move discipline on a position trace.

    In round t walker i must avoid the new positions of walkers before it
    and the previous-round positions of walkers after it; a loopless walker
    must also move.  ``t`` in each record is the round of the later move.
    Every violation is counted; the first ``limit`` (all by default) are
    listed.
    """
    pos = np.ascontiguousarray(tr.rows.T)
    groups = []
    for i in range(tr.k):
        for j in range(i + 1, tr.k):
            # walker j moves after walker i within a round
            hits = np.flatnonzero(pos[i] == pos[j])
            groups.append(("within_round", i + 1, j + 1, hits + 1))
            # walker i moves while walker j still sits at its round t-1 spot
            hits = np.flatnonzero(pos[i, 1:] == pos[j, :-1])
            groups.append(("cross_round", i + 1, j + 1, hits + 2))
    if not tr.looped:
        for i in range(tr.k):
            hits = np.flatnonzero(pos[i, 1:] == pos[i, :-1])
            groups.append(("self_loop", i + 1, i + 1, hits + 2))
    return _report(groups, tr.T, limit)


def symbol_array(tr: CouplingTrace) -> np.ndarray:
    """The symbol of each row: the index of its single 1, or 0 (blank) for an
    all-zero row; a row with two or more ones is a ValueError."""
    sums = tr.rows.sum(axis=1)
    if tr.T and sums.max() > 1:
        t = int(np.argmax(sums > 1)) + 1
        raise ValueError(f"row {t} has {int(sums[t - 1])} ones; cannot encode")
    return tr.rows @ np.arange(1, tr.k + 1, dtype=np.int64)


def project(tr: WalkerTrace, v: int) -> CouplingTrace:
    """Occupancy of a single vertex: X_i(t) = 1 iff walker i sits at v."""
    if not 1 <= v <= tr.n:
        raise ValueError(f"vertex {v} out of range 1..{tr.n}")
    return CouplingTrace(tr.k, (tr.rows == v).astype("uint8"))


def write_trace(tr: CouplingTrace | WalkerTrace) -> str:
    """Serialize to the text format: header "T k" or "T k n looped", then rows."""
    if isinstance(tr, WalkerTrace):
        header = f"{tr.T} {tr.k} {tr.n} {int(tr.looped)}"
    else:
        header = f"{tr.T} {tr.k}"
    return header + "\n" + _format_rows(tr.rows)


def _format_rows(rows: np.ndarray) -> str:
    """Nonnegative integer rows as text: values in decimal, separated by one
    space, each row ended by a newline."""
    T, k = rows.shape
    if not rows.size:
        return "\n" * T
    values = rows.ravel()
    width = np.ones(values.size, dtype=np.uint8)  # decimal digits per value
    top, bound = int(values.max()), 10
    while bound <= top:
        width += values >= bound
        bound *= 10
    # value i's separator follows the digits and separators of values 0..i
    sep = np.cumsum(width, dtype=np.int64)
    sep += np.arange(values.size)
    buf = np.full(int(sep[-1]) + 1, ord(" "), dtype=np.uint8)
    buf[sep[k - 1 :: k]] = ord("\n")
    for d in range(len(str(top))):
        # digit d, counted from the right, of every value that has one
        idx = np.flatnonzero(width > d) if d else slice(None)
        buf[sep[idx] - (d + 1)] = values[idx] // 10**d % 10 + ord("0")
    return buf.tobytes().decode("ascii")


# Code-point classes of the text format: _SPACE marks what str.split() splits
# on (str.isspace), _BREAK what str.splitlines() ends a line at, _DIGIT the
# ASCII digits, whose value sits in the bits from _VALUE_SHIFT up.  Every
# code point past the table is none of them.
_SPACE, _BREAK, _DIGIT, _VALUE_SHIFT = 1, 2, 4, 3


@cache
def _class_table() -> np.ndarray:
    table = np.zeros(0x3002, dtype=np.uint8)
    table[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, *range(8192, 8203),
           8232, 8233, 8239, 8287, 12288]] = _SPACE
    table[[10, 11, 12, 13, 28, 29, 30, 133, 8232, 8233]] |= _BREAK
    table[ord("0") : ord("9") + 1] = _DIGIT | np.arange(10) << _VALUE_SHIFT
    table.setflags(write=False)  # every caller shares the cached table
    return table


def _char_classes(text: str) -> np.ndarray:
    table = _class_table()
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        # a lone surrogate is not whitespace, so it lands in a token int() rejects
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        codes = np.minimum(codes, len(table) - 1)
    return table[codes]


# the longest token parsed in place: 10^18 - 1 still fits an int64
_MAX_DIGITS = 18


def _digit_runs(cls: np.ndarray, begin: int) -> np.ndarray | None:
    """The values of the tokens after character ``begin``, parsed in place
    when every one is a run of at most 18 ASCII digits; otherwise None.

    ``cls[begin]`` must be a space (the header's line break), so no run
    reaches back past it.  Digit d of a token, counted from the right, sits
    d characters before its last one while the run lasts.
    """
    body = cls[begin:]
    if (body & (_SPACE | _DIGIT) == 0).any():
        return None
    word = body & _SPACE == 0
    at = np.flatnonzero(word & ~np.append(word[1:], False))  # each token's last character
    values = (body[at] >> _VALUE_SHIFT).astype(np.int64)
    idx = None  # the tokens that have digit d; None while that is all of them
    d = 0
    while True:
        d += 1
        at -= 1
        keep = word[at]
        if not keep.any():
            return values
        if d == _MAX_DIGITS:
            return None
        idx = np.flatnonzero(keep) if idx is None else idx[keep]
        at = at[keep]
        values[idx] += (body[at] >> _VALUE_SHIFT).astype(np.int64) * 10**d


def _layout(cls: np.ndarray) -> tuple[int, np.ndarray]:
    """Where the header line ends, and the number of tokens on each nonblank
    line after it."""
    word = cls & _SPACE == 0
    first = np.flatnonzero(word & ~np.append(False, word[:-1]))  # each token's first character
    breaks = np.flatnonzero(cls & _BREAK)
    if not breaks.size:
        return cls.size, np.empty(0, np.int64)
    # the tokens after each line boundary and before the next ("\r\n"
    # adds only a blank line)
    sizes = np.diff(np.searchsorted(first, breaks), append=first.size)
    return int(breaks[0]), sizes[sizes > 0]


def read_trace(source) -> CouplingTrace | WalkerTrace:
    """Parse the text format; the header length says which trace kind it is.

    Blank lines are skipped; every other line after the header is one row
    and must hold k values.  Any malformed input raises ValueError.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    if not text:
        raise ValueError("empty trace file")
    cls = _char_classes(text)
    head_end, sizes = _layout(cls)
    header = text[:head_end].split()
    if len(header) == 2:
        T, k = map(int, header)
        n = looped = None
    elif len(header) == 4:
        T, k, n, looped_i = map(int, header)
        looped = bool(looped_i)
    else:
        raise ValueError(f"malformed header {text[:head_end]!r}")
    if T < 0:
        raise ValueError(f"header row count must be >= 0, got {T}")
    if k < 1:
        raise ValueError(f"header walker count must be >= 1, got {k}")
    if n is not None and n < 1:
        raise ValueError(f"header vertex count must be >= 1, got {n}")
    if n is not None and looped_i not in (0, 1):
        raise ValueError(f"header looped flag must be 0 or 1, got {looped_i}")
    if sizes.size != T:
        raise ValueError(f"header says {T} rows, found {sizes.size}")
    ragged = np.flatnonzero(sizes != k)
    if ragged.size:
        r = int(ragged[0])
        raise ValueError(f"row {r + 1} has {sizes[r]} values, header says {k}")
    if T:
        values = _digit_runs(cls, head_end)
        if values is None:
            try:
                values = np.array(text[head_end:].split(), dtype=np.int64)
            except OverflowError:
                raise ValueError("trace value outside the 64-bit integer range") from None
        rows = values.reshape(T, k)
    else:
        rows = np.empty((0, k), np.int64)
    if len(header) == 2:
        return CouplingTrace(k, rows)
    return WalkerTrace(n, k, looped, rows)
