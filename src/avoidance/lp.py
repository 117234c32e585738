"""Window-marginal linear feasibility probe for coupled Bernoulli walkers.

Any k coupled Bernoulli(p) walkers that never collide induce, by time
averaging, a distribution q over length-m symbol windows that is normalized,
shift consistent, supported on permissible windows, and whose per-walker
indicator patterns follow the i.i.d. product law.  Infeasibility of that
linear system therefore certifies that no such coupling exists at (k, p);
feasibility says nothing.  Instances are exact (p kept rational); solving is
floating point with an independent witness re-check, and exact witnesses can
be verified in exact arithmetic.

The layer holds the system in tuples of Python ints and floats and hands it
to HiGHS as free-MPS text, so it never imports numpy: at the sizes the
toolkit scans, numpy's import (0.06-0.08 s per process) outweighs what its
arrays save in the build and the orbit fold.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import itertools
import os
import sys
import tempfile
from fractions import Fraction
from operator import sub
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import bounds
from .sequences import symbol_text

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "WindowLP",
    "FeasibilityResult",
    "ScanEntry",
    "build_window_lp",
    "solve_feasibility",
    "witness_residual",
    "check_witness_exact",
    "scan_p",
    "write_mps",
    "WINDOW_BUDGET",
]

WINDOW_BUDGET = 200_000

# a phase-one gap (minimal L1 equality violation) above this is "infeasible";
# below it, only a re-checked witness makes a point "feasible"
UNKNOWN_MARGIN = 1e-6

# the largest violation of the full system, support zeros included, that a
# float witness may have and still make a point "feasible"
WITNESS_TOL = 1e-9

# HiGHS's interior-point solver (with crossover) was the fastest measured on
# the full-window phase-one LPs of k = 2, m = 9 and k = 3, m = 6..7; the dual
# simplex is the fallback when it ends non-optimal.  On the reversal-orbit
# systems solved now, the interior point is still faster at k = 2, m = 9
# (0.48 against 0.81 s), but the dual simplex is faster at k = 3, m = 6
# (0.017 against 0.046 s at p = 1/10).  The default tolerances (1e-7, 1e-8)
# exceed the right-hand sides p^m of small p, and a solution that drops those
# fails the witness re-check at WITNESS_TOL.
SOLVERS = ("ipm", "simplex")
SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "ipm_optimality_tolerance": 1e-10,
}


def _window_text(w: tuple[int, ...]) -> str:
    return "".join(symbol_text(s) for s in w) if w else "-"


def _entry_columns(col_ptr, labels):
    """Each entry's column label, entry by entry, for compressed columns."""
    return itertools.chain.from_iterable(map(itertools.repeat, labels, map(sub, col_ptr[1:], col_ptr)))


class WindowLP(NamedTuple):
    """Equality system A q = b over window frequencies q >= 0.

    Rows: one normalization row, one shift-consistency row per length m-1
    word, and one row per walker and {0,1}^m indicator pattern.  Windows with
    a decreasing adjacent walker pair are pinned to zero through
    ``zero_vars`` (variable bounds, not rows).  All coefficients are 0/+-1;
    ``b_exact`` keeps the right-hand sides as exact rationals.

    A is held in compressed-column form, as tuples of Python ints (``col_ptr``,
    ``row_ind``) and floats (``coef``, ``b``): column c's entries are
    ``row_ind[col_ptr[c]:col_ptr[c + 1]]`` (increasing) with coefficients
    ``coef`` at the same positions.  ``A`` is the same matrix as a scipy CSR
    matrix, built anew on each access for callers outside the package; the
    package itself reads only the column tuples.
    """

    k: int
    p: Fraction
    m: int
    windows: tuple[tuple[int, ...], ...]
    col_ptr: tuple[int, ...]
    row_ind: tuple[int, ...]
    coef: tuple[float, ...]
    b: tuple[float, ...]
    b_exact: tuple[Fraction, ...]
    row_labels: tuple[str, ...]
    zero_vars: tuple[int, ...]

    @property
    def num_vars(self) -> int:
        return len(self.windows)

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def A(self) -> sparse.csr_matrix:
        from scipy import sparse

        shape = (self.num_rows, self.num_vars)
        return sparse.csc_matrix((self.coef, self.row_ind, self.col_ptr), shape=shape).tocsr()


def build_window_lp(k: int, p: Fraction | str | float, m: int) -> WindowLP:
    """Construct the instance for k walkers, parameter p, window length m.

    Variables are indexed by windows in lexicographic order with
    B < 1 < ... < k; rows are generated in the documented order
    (normalization, shifts, faithfulness), deterministically.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    p = _as_fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    # 2^m alone exceeds the budget once m reaches its bit length, so a huge m
    # is refused without computing the power
    if m >= WINDOW_BUDGET.bit_length() or (k + 1) ** m > WINDOW_BUDGET:
        raise ValueError(f"(k+1)^m = {k + 1}^{m} windows exceed the budget {WINDOW_BUDGET}")
    base, n = k + 1, (k + 1) ** m
    n_shift = n // base  # one shift row per length m-1 word

    # tables over the windows of j + 1 symbols from those over j symbols, in
    # code order: one block of base^j codes for each leading symbol d.
    # Leading with walker i adds 2^j to a window's walker-i indicator code,
    # and so to its faithfulness row
    faith = []
    for i in range(1, k + 1):
        rows = [1 + n_shift + ((i - 1) << m)]
        for j in range(m):
            rows = rows * i + [r + (1 << j) for r in rows] + rows * (k - i)
        faith.append(rows)
    # leading with d pins a window that is pinned already or whose next
    # symbol is a walker below d, the tails from base^(j-1) up to d base^(j-1)
    pinned = [False]
    for _ in range(m):
        tail = len(pinned) // base
        blocks = [pinned, pinned]
        for d in range(2, base):
            blocks.append(pinned[:tail] + [True] * ((d - 1) * tail) + pinned[d * tail :])
        pinned = list(itertools.chain.from_iterable(blocks))

    # one column per window: it enters the normalization row, +1 the shift
    # row of its last m-1 symbols, -1 the shift row of its first m-1 symbols
    # (rows increasing, so the lower of the two first), and one faithfulness
    # row per walker
    last = list(range(1, n_shift + 1)) * base
    first = [r for r in range(1, n_shift + 1) for _ in range(base)]
    width = 3 + k
    row_ind = [0] * (n * width)
    row_ind[1::width] = [a if a < b else b for a, b in zip(last, first)]
    row_ind[2::width] = [b if a < b else a for a, b in zip(last, first)]
    for i, rows in enumerate(faith, 3):
        row_ind[i::width] = rows
    coef = [1.0] * (n * width)
    coef[1::width] = [1.0 if a < b else -1.0 for a, b in zip(last, first)]
    coef[2::width] = [-1.0 if a < b else 1.0 for a, b in zip(last, first)]
    counts = [width] * n
    # a constant window's two shift entries cancel; those windows' codes are
    # the multiples of (n - 1) / k, all n of them when m = 1
    for c in reversed(range(0, n, (n - 1) // k)):
        del row_ind[c * width + 1 : c * width + 3], coef[c * width + 1 : c * width + 3]
        counts[c] = width - 2

    # right-hand sides, one per popcount of the faithfulness pattern
    rhs = [p**ones * (1 - p) ** (m - ones) for ones in range(m + 1)]
    popcount = [bin(c).count("1") for c in range(1 << m)]
    b_exact = (Fraction(1),) + (Fraction(0),) * n_shift + tuple(rhs[c] for c in popcount) * k
    rhs_float = [float(x) for x in rhs]
    b = (1.0,) + (0.0,) * n_shift + tuple(rhs_float[c] for c in popcount) * k

    symbols = [symbol_text(s) for s in range(base)]
    patterns = ["".join(t) for t in itertools.product("01", repeat=m)]
    labels = (
        ("normalization",)
        + tuple(f"shift_{''.join(v) or '-'}" for v in itertools.product(symbols, repeat=m - 1))
        + tuple(f"faith_{i}_{pat}" for i in range(1, k + 1) for pat in patterns)
    )
    return WindowLP(
        k=k,
        p=p,
        m=m,
        windows=tuple(itertools.product(range(base), repeat=m)),
        col_ptr=tuple(itertools.accumulate(counts, initial=0)),
        row_ind=tuple(row_ind),
        coef=tuple(coef),
        b=b,
        b_exact=b_exact,
        row_labels=labels,
        zero_vars=tuple(itertools.compress(range(n), pinned)),
    )


def _as_fraction(p) -> Fraction:
    """p exactly: a rational such as 0.3 or 1/8, or a number; a zero
    denominator is a ValueError."""
    if isinstance(p, float):
        # use the decimal rendering so 0.3 means 3/10, not its binary expansion
        p = repr(p)
    try:
        return Fraction(p)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {str(p).strip()!r}") from None


class FeasibilityResult(NamedTuple):
    """status "feasible" carries a re-checked witness; "infeasible" carries the
    phase-one gap (minimal L1 equality violation); near-boundary numerics
    downgrade to "unknown" rather than over-claim."""

    status: str
    witness: tuple[float, ...] | None
    residual: float | None
    gap: float | None


def witness_residual(lp: WindowLP, q) -> float:
    """Largest constraint violation of q: equality rows, negativity, support."""
    q = [float(x) for x in q]
    # each row sums its entries in column order, as a CSR product does; the
    # entries of zero columns are left out, as adding a zero changes no sum
    sums = [0.0] * lp.num_rows
    for w in itertools.compress(range(len(q)), q):
        x, start, end = q[w], lp.col_ptr[w], lp.col_ptr[w + 1]
        for r, v in zip(lp.row_ind[start:end], lp.coef[start:end]):
            sums[r] += v * x
    res = max(abs(s - rhs) for s, rhs in zip(sums, lp.b))
    if q:
        res = max(res, 0.0, -min(q))
    if lp.zero_vars:
        res = max(res, max(abs(q[i]) for i in lp.zero_vars))
    return res


def check_witness_exact(lp: WindowLP, q: list[Fraction]) -> bool:
    """Verify an exact-rational witness satisfies every constraint exactly."""
    if len(q) != lp.num_vars:
        raise ValueError("witness length does not match the variable count")
    if any(x < 0 for x in q):
        return False
    if any(q[i] != 0 for i in lp.zero_vars):
        return False
    sums = [Fraction(0)] * lp.num_rows
    for w, x in enumerate(q):
        start, end = lp.col_ptr[w], lp.col_ptr[w + 1]
        for r, v in zip(lp.row_ind[start:end], lp.coef[start:end]):
            sums[r] += int(v) * x
    return all(s == rhs for s, rhs in zip(sums, lp.b_exact))


HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS extension module, the solver behind ``scipy.optimize.linprog``.

    It is loaded from its file, so ``scipy.optimize``'s package init (about
    0.9 s and 45 MB) never runs, and registered under its own name: a later
    ``import scipy.optimize`` shares this instance, and one that scipy loaded
    first is reused.  A missing or unloadable extension is an ImportError
    with a one-line message.
    """
    core = sys.modules.get(HIGHS_MODULE)
    if core is not None:
        return core
    try:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("scipy is not installed")
        folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        paths = [os.path.join(folder, "_core" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no _core extension in {folder}")
        spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
    except (ImportError, OSError) as exc:
        reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        raise ImportError(
            f"lp-scan needs scipy>=1.15, which ships the HiGHS extension "
            f"scipy/optimize/_highspy/_core; it could not be loaded ({reason})"
        ) from None
    sys.modules[HIGHS_MODULE] = core
    return core


def linprog(c, col_ptr, row_ind, coef, b):
    """Minimize c'x subject to A x = b, x >= 0 with HiGHS, A given column-wise
    (``col_ptr`` and ``row_ind`` ints, ``coef`` floats).

    Runs as ``scipy.optimize.linprog(method="highs-ipm", options=SOLVER_OPTIONS)``
    does, and once more with the dual simplex (``method="highs-ds"``) when the
    interior point ends non-optimal.  Returns ``status`` (0 when optimal, as
    scipy's; otherwise 4, scipy's code for a failed solve: the phase-one
    systems solved here are never infeasible or unbounded), and ``fun`` and
    ``x`` (a list), None unless optimal.

    The system reaches HiGHS as free-MPS text, written by ``write_mps``'s
    formatter to a temporary ``.mps`` file that every path deletes: any
    float vector set on a ``HighsLp`` makes pybind11 import numpy, and
    reading a model file does not.  Floats are written in their shortest
    round-trip form, so HiGHS reads back the same bits.  A file HiGHS cannot
    read is an OSError.
    """
    core = _highs()
    columns = [f"C{j}" for j in range(len(c))]
    rows = [f"R{r}" for r in range(len(b))]
    text = _mps_text("phase_one", rows, columns, col_ptr, row_ind, coef, zip(rows, b), cost=c)
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.output_flag = options.log_to_console = False
    for key, value in SOLVER_OPTIONS.items():
        setattr(options, key, value)
    fd, path = tempfile.mkstemp(suffix=".mps")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        for solver in SOLVERS:
            options.solver = solver
            highs = core._Highs()
            highs.passOptions(options)
            if highs.readModel(path) != core.HighsStatus.kOk:
                raise OSError(f"HiGHS could not read the phase-one model written to {path}")
            highs.run()
            if highs.getModelStatus() == core.HighsModelStatus.kOptimal:
                x = highs.getSolution().col_value
                return SimpleNamespace(status=0, fun=highs.getInfo().objective_function_value, x=x)
        return SimpleNamespace(status=4, fun=None, x=None)
    finally:
        os.unlink(path)


def _reversal(base: int, length: int) -> list[int]:
    """sigma on every base-``base`` code of ``length`` digits, in code order:
    reverse the digits and relabel walker i as k+1-i (digit d > 0 becomes
    base - d); the blank, digit 0, stays.  In base 2 this is bit reversal.
    Built one digit at a time: appending d to a code of j digits puts
    sigma(d) in front of its image, at base^j."""
    table = [0]
    for j in range(length):
        front = [(base - d) % base * base**j for d in range(base)]
        table = [t + f for t in table for f in front]
    return table


def _row_reversal(lp: WindowLP) -> list[int]:
    """sigma on row indices: normalization is fixed, shift row v goes to the
    shift row of sigma(v) (as minus that row), and faithfulness row
    (i, pattern) to (k+1-i, reversed pattern)."""
    n_pat, n_shift = 1 << lp.m, (lp.k + 1) ** (lp.m - 1)
    patterns = _reversal(2, lp.m)
    return (
        [0]
        + [1 + v for v in _reversal(lp.k + 1, lp.m - 1)]
        + [1 + n_shift + (lp.k - 1 - i) * n_pat + q for i in range(lp.k) for q in patterns]
    )


def solve_feasibility(lp: WindowLP) -> FeasibilityResult:
    """Decide feasibility with one phase-one LP solve, then re-check independently.

    The full phase-one LP minimizes the L1 equality violation
    sum_r |A_r q - b_r| over q >= 0 on the permissible windows.  It is
    invariant under sigma, which reverses a window and relabels walker i as
    k+1-i: sigma maps permissible windows to permissible ones, and
    A[sigma r, sigma w] = sign(r) A[r, w] with b[sigma r] = sign(r) b[r],
    where sign(r) is -1 on shift rows and +1 elsewhere.  So sigma permutes
    the terms of the objective, and as the objective is convex,
    (q + sigma q)/2 is no worse than q: some optimum is symmetric.  A
    symmetric q is one value y per sigma-orbit of windows, and its
    violation on row sigma r equals that on row r, so its full objective is
    sum over canonical rows r (one per row orbit) of size(r) |A'_r y - b_r|,
    where A' sums each orbit's columns and size(r) is the row orbit's size,
    1 or 2.  Minimizing that is the system solved here, so its optimum, the
    printed gap, is the full LP's.

    The solve (one ``linprog`` call: interior point, then the dual simplex
    if that ends non-optimal) minimizes size'(s+ + s-) subject to
    A' y + s+ - s- = b' and y, s+, s- >= 0, over the permissible orbits'
    columns and the canonical rows they leave nonempty (rows left empty
    all have b = 0).  A gap above UNKNOWN_MARGIN is "infeasible".
    Otherwise y spread back as q(w) = y[orbit(w)] counts as a "feasible"
    witness only when it re-verifies within WITNESS_TOL against the full
    system, support zeros included, so that verdict never relies on sigma;
    anything else, a failed solve too, is "unknown".
    """
    pinned = set(lp.zero_vars)
    # orbits numbered by their smallest window code: a window whose image is
    # smaller joins the orbit numbered at the image
    orbit_of, nv = {}, 0
    for w, image in enumerate(_reversal(lp.k + 1, lp.m)):
        if w in pinned:
            continue
        if image < w:
            orbit_of[w] = orbit_of[image]
        else:
            orbit_of[w], nv = nv, nv + 1
    row_sigma = _row_reversal(lp)
    canonical = [image >= r for r, image in enumerate(row_sigma)]
    # orbit column = the sum of its windows' columns, on the canonical rows;
    # entry (orbit o, row r) is keyed o * nr + r, so the keys sort column by
    # column and orbit o's start where o * nr would
    nr, folded = lp.num_rows, {}
    for w, o in orbit_of.items():
        offset, start, end = o * nr, lp.col_ptr[w], lp.col_ptr[w + 1]
        for r, v in zip(lp.row_ind[start:end], lp.coef[start:end]):
            if canonical[r]:
                folded[offset + r] = folded.get(offset + r, 0.0) + v
    # a shift row's entries can cancel within an orbit
    keys = sorted(key for key, v in folded.items() if v)
    rows = [key % nr for key in keys]
    used = sorted(set(rows))
    index = {r: i for i, r in enumerate(used)}
    lost = [r for r, keep in enumerate(canonical) if keep and r not in index]
    assert not any(lp.b[r] for r in lost), "a row with nonzero right-hand side lost every window"
    col_ptr = [bisect.bisect_left(keys, o * nr) for o in range(nv + 1)]
    n_used = len(used)
    # one +1 and one -1 slack column per remaining row, each costing its row orbit's size
    size = [1.0 if row_sigma[r] == r else 2.0 for r in used]
    res = linprog(
        [0.0] * nv + size + size,
        col_ptr + list(range(col_ptr[-1] + 1, col_ptr[-1] + 1 + 2 * n_used)),
        [index[r] for r in rows] + list(range(n_used)) * 2,
        [folded[key] for key in keys] + [1.0] * n_used + [-1.0] * n_used,
        [lp.b[r] for r in used],
    )
    if res.status != 0:
        return FeasibilityResult("unknown", None, None, None)
    gap = float(res.fun)
    if gap > UNKNOWN_MARGIN:
        return FeasibilityResult("infeasible", None, None, gap)
    witness = tuple(res.x[orbit_of[w]] if w in orbit_of else 0.0 for w in range(lp.num_vars))
    residual = witness_residual(lp, witness)
    if residual <= WITNESS_TOL:
        return FeasibilityResult("feasible", witness, residual, None)
    return FeasibilityResult("unknown", witness, residual, gap)


class ScanEntry(NamedTuple):
    p: Fraction
    status: str
    residual: float | None
    gap: float | None
    within_max_p: bool
    within_trivial: bool


def scan_p(k: int, m: int, p_grid) -> tuple[ScanEntry, ...]:
    """Solve the instance at every grid point, one entry per point in grid
    order; no monotonicity is assumed.

    Each entry is annotated with the analytic verdicts p <= max_p(k) (the
    pressure-bound inversion, decided exactly) and p <= 1/k (the trivial
    occupancy bound).
    """
    grid = [_as_fraction(p) for p in p_grid]  # a malformed point fails before any solve
    entries = []
    for p in grid:
        lp = build_window_lp(k, p, m)
        res = solve_feasibility(lp)
        entries.append(
            ScanEntry(
                p=p,
                status=res.status,
                residual=res.residual,
                gap=res.gap,
                within_max_p=bounds.within_max_p(k, p),
                within_trivial=p <= Fraction(1, k),
            )
        )
    return tuple(entries)


def write_mps(lp: WindowLP) -> str:
    """Serialize to free MPS (zero objective, E rows, FX bounds for support zeros).

    Lets third-party solvers cross-check feasibility verdicts.  A nonzero
    right-hand side that rounds to 0.0 as a float raises ValueError.
    """
    rows = [f"R_{label}" for label in lp.row_labels]
    columns = [f"W_{_window_text(w)}" for w in lp.windows]
    for name, exact in zip(rows, lp.b_exact):
        if exact != 0 and float(exact) == 0.0:
            raise ValueError(f"the right-hand side of row {name} is nonzero but rounds to 0.0")
    fixed = [columns[i] for i in lp.zero_vars]
    coef = map(int, lp.coef)
    return _mps_text(f"window_lp_k{lp.k}_m{lp.m}", rows, columns, lp.col_ptr, lp.row_ind, coef, zip(rows, lp.b), fixed=fixed)


def _mps_text(name: str, rows, columns, col_ptr, row_ind, coef, rhs, cost=(), fixed=()) -> str:
    """Free MPS of min cost'x subject to A x = rhs, with x >= 0 except that
    the columns named in ``fixed`` are fixed at 0.  A is given column-wise,
    its rows and columns named by ``rows`` and ``columns``; ``rhs`` pairs
    each row name with its right-hand side, and only nonzero ones are
    written.  With no ``cost`` the objective row COST is empty."""
    body = [f"    {col} {rows[r]} {v}" for col, r, v in zip(_entry_columns(col_ptr, columns), row_ind, coef)]
    lines = [f"NAME {name}", "ROWS", " N COST"]
    lines += [f" E {row}" for row in rows]
    lines.append("COLUMNS")
    # a column's entries are contiguous, its COST entry first; an empty
    # column exists only through its COST entry
    done = 0
    for col, value, start, end in zip(columns, cost, col_ptr, col_ptr[1:]):
        if value or start == end:
            lines += body[done:start]
            lines.append(f"    {col} COST {value}")
            done = start
    lines += body[done:]
    lines.append("RHS")
    lines += [f"    RHS {row} {value}" for row, value in rhs if value]
    lines.append("BOUNDS")
    lines += [f" FX BND {col} 0" for col in fixed]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
