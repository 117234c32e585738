"""Window-marginal linear feasibility probe for coupled Bernoulli walkers.

Any k coupled Bernoulli(p) walkers that never collide induce, by time
averaging, a distribution q over length-m symbol windows that is normalized,
shift consistent, supported on permissible windows, and whose per-walker
indicator patterns follow the i.i.d. product law.  Infeasibility of that
linear system therefore certifies that no such coupling exists at (k, p);
feasibility says nothing.  Instances are exact (p kept rational); solving is
floating point with an independent witness re-check, and exact witnesses can
be verified in exact arithmetic.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import bounds
from .sequences import symbol_text

# after the package's imports: with no cached bytecode, sequences.py then compiles before numpy grows the heap
import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "WindowLP",
    "FeasibilityResult",
    "ScanEntry",
    "ScanReport",
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

# HiGHS's interior-point solver (with crossover) was the fastest measured on
# the full-window phase-one LPs of k = 2, m = 9 and k = 3, m = 6..7; the dual
# simplex is the fallback when it ends non-optimal.  On the reversal-orbit
# systems solved now, the interior point is still faster at k = 2, m = 9
# (0.48 against 0.81 s), but the dual simplex is faster at k = 3, m = 6
# (0.017 against 0.046 s at p = 1/10).  The default tolerances (1e-7, 1e-8)
# exceed the right-hand sides p^m of small p, and a solution that drops those
# fails the witness re-check at tol = 1e-9.
SOLVERS = ("ipm", "simplex")
SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "ipm_optimality_tolerance": 1e-10,
}


def _window_text(w: tuple[int, ...]) -> str:
    return "".join(symbol_text(s) for s in w) if w else "-"


class WindowLP(NamedTuple):
    """Equality system A q = b over window frequencies q >= 0.

    Rows: one normalization row, one shift-consistency row per length m-1
    word, and one row per walker and {0,1}^m indicator pattern.  Windows with
    a decreasing adjacent walker pair are pinned to zero through
    ``zero_vars`` (variable bounds, not rows).  All coefficients are 0/+-1;
    ``b_exact`` keeps the right-hand sides as exact rationals.

    A is held in compressed-column form: column c's entries are
    ``row_ind[col_ptr[c]:col_ptr[c + 1]]`` (increasing) with coefficients
    ``coef`` at the same positions.  ``A`` is the same matrix as a scipy CSR
    matrix, built anew on each access for callers outside the package; the
    package itself reads only the column arrays.
    """

    k: int
    p: Fraction
    m: int
    windows: tuple[tuple[int, ...], ...]
    col_ptr: np.ndarray
    row_ind: np.ndarray
    coef: np.ndarray
    b: np.ndarray
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

    def entries(self) -> tuple[list[int], list[int], list[int]]:
        """(row, column, integer coefficient) lists of A's nonzeros, column by column."""
        cols = np.repeat(np.arange(self.num_vars), np.diff(self.col_ptr))
        return self.row_ind.tolist(), cols.tolist(), self.coef.astype(np.int64).tolist()


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
    codes = np.arange(n)
    digits = [codes // base ** (m - 1 - j) % base for j in range(m)]
    # walker i's faithfulness row for a window is the window's indicator code
    indicator = np.zeros((k, n), dtype=np.int64)
    for j, d in enumerate(digits):
        occupied = np.flatnonzero(d)
        indicator[d[occupied] - 1, occupied] += 1 << (m - 1 - j)

    # one column per window: it enters the normalization row, +1 the shift
    # row of its last m-1 symbols, -1 the shift row of its first m-1 symbols,
    # and one faithfulness row per walker
    rows = np.empty((3 + k, n), dtype=np.int64)
    rows[0] = 0
    rows[1] = 1 + codes % n_shift
    rows[2] = 1 + codes // base
    rows[3:] = 1 + n_shift + ((np.arange(k)[:, None] << m) + indicator)
    data = np.ones((3 + k, n))
    data[2] = -1.0
    data[1:3, rows[1] == rows[2]] = 0.0  # a constant window's two shift entries cancel
    order = np.argsort(rows, axis=0, kind="stable")
    rows, data = np.take_along_axis(rows, order, 0).T, np.take_along_axis(data, order, 0).T
    kept = data != 0.0
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept.sum(axis=1), out=col_ptr[1:])

    # right-hand sides, one per popcount of the faithfulness pattern
    rhs = [p**ones * (1 - p) ** (m - ones) for ones in range(m + 1)]
    popcount = [bin(c).count("1") for c in range(1 << m)]
    b_exact = (Fraction(1),) + (Fraction(0),) * n_shift + tuple(rhs[c] for c in popcount) * k
    rhs_float = [float(x) for x in rhs]
    b = np.array([1.0] + [0.0] * n_shift + [rhs_float[c] for c in popcount] * k)

    symbols = [symbol_text(s) for s in range(base)]
    patterns = ["".join(t) for t in itertools.product("01", repeat=m)]
    labels = (
        ("normalization",)
        + tuple(f"shift_{''.join(v) or '-'}" for v in itertools.product(symbols, repeat=m - 1))
        + tuple(f"faith_{i}_{pat}" for i in range(1, k + 1) for pat in patterns)
    )

    # support zeros: some adjacent pair of walkers in decreasing order
    decreasing = np.zeros(n, dtype=bool)
    for left, right in zip(digits, digits[1:]):
        decreasing |= (right > 0) & (left > right)
    return WindowLP(
        k=k,
        p=p,
        m=m,
        windows=tuple(itertools.product(range(base), repeat=m)),
        col_ptr=col_ptr,
        row_ind=rows[kept],
        coef=data[kept],
        b=b,
        b_exact=b_exact,
        row_labels=labels,
        zero_vars=tuple(np.flatnonzero(decreasing).tolist()),
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
    witness: np.ndarray | None
    residual: float | None
    gap: float | None
    tol: float


def witness_residual(lp: WindowLP, q: np.ndarray) -> float:
    """Largest constraint violation of q: equality rows, negativity, support."""
    q = np.asarray(q, dtype=np.float64)
    # each row sums its entries in column order, as a CSR product does
    col = np.repeat(np.arange(lp.num_vars), np.diff(lp.col_ptr))
    Aq = np.bincount(lp.row_ind, lp.coef * q[col], minlength=lp.num_rows)
    res = float(np.abs(Aq - lp.b).max())
    if q.size:
        res = max(res, float(max(0.0, -q.min())))
    if lp.zero_vars:
        res = max(res, float(np.abs(q[list(lp.zero_vars)]).max()))
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
    for r, c, v in zip(*lp.entries()):
        sums[r] += v * q[c]
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
    (int32 ``col_ptr`` and ``row_ind``, float ``coef``).

    Runs as ``scipy.optimize.linprog(method="highs-ipm", options=SOLVER_OPTIONS)``
    does, and once more with the dual simplex (``method="highs-ds"``) when the
    interior point ends non-optimal.  Returns ``status`` (0 when optimal, as
    scipy's; otherwise 4, scipy's code for a failed solve: the phase-one
    systems solved here are never infeasible or unbounded), and ``fun`` and
    ``x``, None unless optimal.
    """
    core = _highs()
    nc, nr = len(c), len(b)
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = nc
    model.num_row_ = model.a_matrix_.num_row_ = nr
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = col_ptr
    model.a_matrix_.index_ = row_ind
    model.a_matrix_.value_ = coef
    model.col_cost_ = c
    model.col_lower_ = np.zeros(nc)
    model.col_upper_ = np.full(nc, core.kHighsInf)
    model.row_lower_ = model.row_upper_ = b
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.output_flag = options.log_to_console = False
    for key, value in SOLVER_OPTIONS.items():
        setattr(options, key, value)
    for solver in SOLVERS:
        options.solver = solver
        highs = core._Highs()
        highs.passOptions(options)
        highs.passModel(model)
        highs.run()
        if highs.getModelStatus() == core.HighsModelStatus.kOptimal:
            x = np.array(highs.getSolution().col_value)
            return SimpleNamespace(status=0, fun=highs.getInfo().objective_function_value, x=x)
    return SimpleNamespace(status=4, fun=None, x=None)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _reversal(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """sigma on base-``base`` codes of ``length`` digits: reverse the digits
    and relabel walker i as k+1-i (digit d > 0 becomes base - d); the blank,
    digit 0, stays.  In base 2 this is bit reversal."""
    out = np.zeros_like(codes)
    rest = codes
    for _ in range(length):
        rest, digit = np.divmod(rest, base)
        out = out * base + np.where(digit > 0, base - digit, 0)
    return out


def _row_reversal(lp: WindowLP) -> np.ndarray:
    """sigma on row indices: normalization is fixed, shift row v goes to the
    shift row of sigma(v) (as minus that row), and faithfulness row
    (i, pattern) to (k+1-i, reversed pattern)."""
    base, n_pat = lp.k + 1, 1 << lp.m
    n_shift = base ** (lp.m - 1)
    faith = np.arange(lp.k * n_pat)
    walker, pattern = np.divmod(faith, n_pat)
    return np.concatenate(
        [
            [0],
            1 + _reversal(np.arange(n_shift), base, lp.m - 1),
            1 + n_shift + (lp.k - 1 - walker) * n_pat + _reversal(pattern, 2, lp.m),
        ]
    )


def solve_feasibility(lp: WindowLP, tol: float = 1e-9) -> FeasibilityResult:
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
    witness only when it re-verifies within ``tol`` against the full
    system, support zeros included, so that verdict never relies on sigma;
    anything else, a failed solve too, is "unknown".
    """
    _check_tol(tol)
    nr = lp.num_rows
    free = np.ones(lp.num_vars, dtype=bool)
    free[list(lp.zero_vars)] = False
    windows = np.flatnonzero(free)
    # orbits numbered by their smallest window code
    reps, orbit = np.unique(np.minimum(windows, _reversal(windows, lp.k + 1, lp.m)), return_inverse=True)
    orbit_of = np.full(lp.num_vars, -1)
    orbit_of[windows] = orbit
    row_sigma = _row_reversal(lp)
    canonical = row_sigma >= np.arange(nr)
    # orbit column = the sum of its windows' columns, on the canonical rows
    col = orbit_of[np.repeat(np.arange(lp.num_vars), np.diff(lp.col_ptr))]
    kept = (col >= 0) & canonical[lp.row_ind]
    keys, slot = np.unique(col[kept] * nr + lp.row_ind[kept], return_inverse=True)
    coef = np.bincount(slot, lp.coef[kept])
    nonzero = coef != 0.0  # a shift row's entries can cancel within an orbit
    keys, coef = keys[nonzero], coef[nonzero]
    cols, rows = np.divmod(keys, nr)
    used = np.bincount(rows, minlength=nr) > 0
    assert not lp.b[canonical & ~used].any(), "a row with nonzero right-hand side lost every window"
    nv, n_used = len(reps), int(used.sum())
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=nv))])
    # one +1 and one -1 slack column per remaining row, each costing its row orbit's size
    size = np.where(row_sigma[used] == np.flatnonzero(used), 1.0, 2.0)
    slack_rows = np.arange(n_used)
    res = linprog(
        np.concatenate([np.zeros(nv), size, size]),
        np.concatenate([col_ptr, col_ptr[-1] + 1 + np.arange(2 * n_used)]).astype(np.int32),
        np.concatenate([(np.cumsum(used) - 1)[rows], slack_rows, slack_rows]).astype(np.int32),
        np.concatenate([coef, np.ones(n_used), -np.ones(n_used)]),
        lp.b[used],
    )
    if res.status != 0:
        return FeasibilityResult("unknown", None, None, None, tol)
    gap = float(res.fun)
    if gap > UNKNOWN_MARGIN:
        return FeasibilityResult("infeasible", None, None, gap, tol)
    witness = np.zeros(lp.num_vars)
    witness[windows] = res.x[orbit]
    residual = witness_residual(lp, witness)
    if residual <= tol:
        return FeasibilityResult("feasible", witness, residual, None, tol)
    return FeasibilityResult("unknown", witness, residual, gap, tol)


class ScanEntry(NamedTuple):
    p: Fraction
    status: str
    residual: float | None
    gap: float | None
    within_max_p: bool
    within_trivial: bool


class ScanReport(NamedTuple):
    k: int
    m: int
    tol: float
    entries: tuple[ScanEntry, ...]

    @property
    def any_infeasible(self) -> bool:
        return any(e.status == "infeasible" for e in self.entries)


def scan_p(k: int, m: int, p_grid, tol: float = 1e-9) -> ScanReport:
    """Solve the instance at every grid point; no monotonicity is assumed.

    Each entry is annotated with the analytic verdicts p <= max_p(k) (the
    pressure-bound inversion, decided exactly) and p <= 1/k (the trivial
    occupancy bound).
    """
    _check_tol(tol)
    grid = [_as_fraction(p) for p in p_grid]  # a malformed point fails before any solve
    entries = []
    for p in grid:
        lp = build_window_lp(k, p, m)
        res = solve_feasibility(lp, tol=tol)
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
    return ScanReport(k, m, tol, tuple(entries))


def write_mps(lp: WindowLP) -> str:
    """Serialize to free MPS (zero objective, E rows, FX bounds for support zeros).

    Lets third-party solvers cross-check feasibility verdicts.  A nonzero
    right-hand side that rounds to 0.0 as a float raises ValueError.
    """
    lines = [f"NAME window_lp_k{lp.k}_m{lp.m}", "ROWS", " N COST"]
    row_names = []
    for label in lp.row_labels:
        name = f"R_{label}"
        row_names.append(name)
        lines.append(f" E {name}")
    lines.append("COLUMNS")
    var_names = [f"W_{_window_text(w)}" for w in lp.windows]
    rows, cols, coefs = lp.entries()
    lines += [f"    {var_names[c]} {row_names[r]} {v}" for r, c, v in zip(rows, cols, coefs)]
    lines.append("RHS")
    for name, rhs in zip(row_names, lp.b_exact):
        if rhs != 0:
            value = float(rhs)
            if value == 0.0:
                raise ValueError(f"the right-hand side of row {name} is nonzero but rounds to 0.0")
            lines.append(f"    RHS {name} {value!r}")
    lines.append("BOUNDS")
    for i in lp.zero_vars:
        lines.append(f" FX BND {var_names[i]} 0")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
