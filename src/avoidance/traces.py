"""Occupancy and position traces of coupled walkers, with avoidance checks.

A CouplingTrace is a T x k binary matrix: row t marks which walkers occupy
the tracked site at time t.  A WalkerTrace is a T x k matrix of vertex
positions on the complete graph with or without loops; row t holds each
walker's position after its move in round t, walkers moving one at a time
in index order within a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .sequences import Seq

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CouplingTrace",
    "WalkerTrace",
    "Violation",
    "ViolationReport",
    "check_1avoidance",
    "check_walker_avoidance",
    "encode",
    "project",
    "write_trace",
    "read_trace",
]


@dataclass(frozen=True)
class CouplingTrace:
    k: int
    rows: np.ndarray  # (T, k) of {0, 1}

    def __post_init__(self) -> None:
        import numpy as np

        rows = np.ascontiguousarray(self.rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValueError(f"rows must have shape (T, {self.k})")
        if rows.size and rows.max() > 1:
            raise ValueError("occupancy entries must be 0 or 1")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def T(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class WalkerTrace:
    n: int
    k: int
    looped: bool
    rows: np.ndarray  # (T, k) of vertices in 1..n

    def __post_init__(self) -> None:
        import numpy as np

        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValueError(f"rows must have shape (T, {self.k})")
        if rows.size and (rows.min() < 1 or rows.max() > self.n):
            raise ValueError(f"positions must lie in 1..{self.n}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def T(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]
    rounds: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)


def check_1avoidance(tr: CouplingTrace) -> ViolationReport:
    """Detect simultaneous occupancy and forbidden cross-time occupancy.

    The cross-time rule bans a lower-indexed walker from occupying the site
    immediately after a higher-indexed one; ``t`` in the record is the
    earlier time.
    """
    import numpy as np

    rows = tr.rows
    out: list[Violation] = []
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
    return ViolationReport(tuple(out), tr.T)


def check_walker_avoidance(tr: WalkerTrace) -> ViolationReport:
    """Check the one-at-a-time move discipline on a position trace.

    In round t walker i must avoid the new positions of walkers before it
    and the previous-round positions of walkers after it; a loopless walker
    must also move.  ``t`` in each record is the round of the later move.
    """
    import numpy as np

    pos = tr.rows
    out: list[Violation] = []
    for i in range(tr.k):
        for j in range(i + 1, tr.k):
            # walker j moves after walker i within a round
            hits = np.nonzero(pos[:, i] == pos[:, j])[0]
            out.extend(Violation("within_round", int(t) + 1, i + 1, j + 1) for t in hits)
            # walker i moves while walker j still sits at its round t-1 spot
            hits = np.nonzero(pos[1:, i] == pos[:-1, j])[0]
            out.extend(Violation("cross_round", int(t) + 2, i + 1, j + 1) for t in hits)
    if not tr.looped:
        for i in range(tr.k):
            hits = np.nonzero(pos[1:, i] == pos[:-1, i])[0]
            out.extend(Violation("self_loop", int(t) + 2, i + 1, i + 1) for t in hits)
    out.sort(key=lambda v: (v.t, v.i, v.j, v.kind))
    return ViolationReport(tuple(out), tr.T)


def encode(tr: CouplingTrace) -> Seq:
    """Map rows to symbols: the index of the single 1, or blank for all-zero."""
    import numpy as np

    sums = tr.rows.sum(axis=1)
    if tr.T and sums.max() > 1:
        t = int(np.argmax(sums > 1)) + 1
        raise ValueError(f"row {t} has {int(sums[t - 1])} ones; cannot encode")
    symbols = tr.rows @ np.arange(1, tr.k + 1, dtype=np.int64)
    return Seq(tr.k, tuple(symbols.tolist()))


def project(tr: WalkerTrace, v: int) -> CouplingTrace:
    """Occupancy of a single vertex: X_i(t) = 1 iff walker i sits at v."""
    if not 1 <= v <= tr.n:
        raise ValueError(f"vertex {v} out of range 1..{tr.n}")
    return CouplingTrace(tr.k, (tr.rows == v).astype("uint8"))


def write_trace(tr: CouplingTrace | WalkerTrace, path=None) -> str:
    """Serialize to the text format: header "T k" or "T k n looped", then rows."""
    if isinstance(tr, WalkerTrace):
        header = f"{tr.T} {tr.k} {tr.n} {int(tr.looped)}"
    else:
        header = f"{tr.T} {tr.k}"
    text = header + "\n" + _format_rows(tr.rows)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _format_rows(rows: np.ndarray) -> str:
    """Nonnegative integer rows as text: values in decimal, separated by one
    space, each row ended by a newline."""
    import numpy as np

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
# on (str.isspace), _BREAK what str.splitlines() ends a line at.  Every code
# point past the table is neither.
_SPACE, _BREAK = 1, 2


@cache
def _class_table() -> np.ndarray:
    import numpy as np

    table = np.zeros(0x3002, dtype=np.uint8)
    table[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, *range(8192, 8203),
           8232, 8233, 8239, 8287, 12288]] = _SPACE
    table[[10, 11, 12, 13, 28, 29, 30, 133, 8232, 8233]] |= _BREAK
    table.setflags(write=False)  # every caller shares the cached table
    return table


def _char_classes(text: str) -> np.ndarray:
    import numpy as np

    table = _class_table()
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        # a lone surrogate is not whitespace, so it lands in a token int() rejects
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        codes = np.minimum(codes, len(table) - 1)
    return table[codes]


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
    import numpy as np

    cls = _char_classes(text)
    breaks = cls & _BREAK != 0
    word = cls & _SPACE == 0
    starts = word.copy()  # first character of each token
    starts[1:] &= ~word[:-1]
    # line boundaries and token starts in text order: the number of
    # boundaries before a token is its line ("\r\n" adds only a blank line)
    events = np.flatnonzero(breaks | starts)
    at_break = breaks[events]
    line = np.cumsum(at_break)[~at_break]
    head_end = int(events[at_break][0]) if at_break.any() else len(text)
    header = text[:head_end].split()
    if len(header) == 2:
        T, k = map(int, header)
        n = looped = None
    elif len(header) == 4:
        T, k, n, looped_i = map(int, header)
        looped = bool(looped_i)
    else:
        raise ValueError(f"malformed header {text[:head_end]!r}")
    sizes = np.bincount(line, minlength=1)[1:]
    sizes = sizes[sizes > 0]  # tokens per nonblank line after the header
    if sizes.size != T:
        raise ValueError(f"header says {T} rows, found {sizes.size}")
    ragged = np.flatnonzero(sizes != k)
    if ragged.size:
        r = int(ragged[0])
        raise ValueError(f"row {r + 1} has {sizes[r]} values, header says {k}")
    if T:
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
