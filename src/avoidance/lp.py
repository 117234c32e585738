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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .sequences import symbol_text

if TYPE_CHECKING:
    import numpy as np
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
    "product_witness",
    "marginalize_witness",
    "scan_p",
    "write_mps",
    "window_text",
    "WINDOW_BUDGET",
]

WINDOW_BUDGET = 200_000


def window_text(w: tuple[int, ...]) -> str:
    return "".join(symbol_text(s) for s in w) if w else "-"


@dataclass(frozen=True)
class WindowLP:
    """Equality system A q = b over window frequencies q >= 0.

    Rows: one normalization row, one shift-consistency row per length m-1
    word, and one row per walker and {0,1}^m indicator pattern.  Windows with
    a decreasing adjacent walker pair are pinned to zero through
    ``zero_vars`` (variable bounds, not rows).  All coefficients are 0/+-1;
    ``b_exact`` keeps the right-hand sides as exact rationals.
    """

    k: int
    p: Fraction
    m: int
    windows: tuple[tuple[int, ...], ...]
    A: sparse.csr_matrix
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
    import numpy as np
    from scipy import sparse

    base, n = k + 1, (k + 1) ** m
    n_shift = n // base  # one shift row per length m-1 word
    codes = np.arange(n)
    digits = [codes // base ** (m - 1 - j) % base for j in range(m)]
    # walker i's faithfulness row for a window is the window's indicator code
    indicator = np.zeros((k, n), dtype=np.int64)
    for j, d in enumerate(digits):
        occupied = np.flatnonzero(d)
        indicator[d[occupied] - 1, occupied] += 1 << (m - 1 - j)

    # every window enters the normalization row, +1 the shift row of its
    # last m-1 symbols, -1 the shift row of its first m-1 symbols, and one
    # faithfulness row per walker
    rows = np.concatenate(
        [
            np.zeros(n, dtype=np.int64),
            1 + codes % n_shift,
            1 + codes // base,
            1 + n_shift + ((np.arange(k)[:, None] << m) + indicator).ravel(),
        ]
    )
    data = np.ones((3 + k) * n)
    data[2 * n : 3 * n] = -1.0
    shape = (1 + n_shift + (k << m), n)
    A = sparse.coo_matrix((data, (rows, np.tile(codes, 3 + k))), shape=shape).tocsr()
    A.eliminate_zeros()  # a constant window's two shift entries cancel
    A.sort_indices()

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
        A=A,
        b=b,
        b_exact=b_exact,
        row_labels=labels,
        zero_vars=tuple(np.flatnonzero(decreasing).tolist()),
    )


def _as_fraction(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, str):
        return Fraction(p)
    if isinstance(p, float):
        # use the decimal rendering so 0.3 means 3/10, not its binary expansion
        return Fraction(repr(p))
    return Fraction(p)


@dataclass(frozen=True)
class FeasibilityResult:
    """status "feasible" carries a re-checked witness; "infeasible" carries the
    phase-one gap (minimal L1 equality violation); near-boundary numerics
    downgrade to "unknown" rather than over-claim."""

    status: str
    witness: np.ndarray | None
    residual: float | None
    gap: float | None
    tol: float

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def witness_residual(lp: WindowLP, q: np.ndarray) -> float:
    """Largest constraint violation of q: equality rows, negativity, support."""
    import numpy as np

    q = np.asarray(q, dtype=np.float64)
    res = float(np.abs(lp.A @ q - lp.b).max())
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
    coo = lp.A.tocoo()
    sums = [Fraction(0)] * lp.num_rows
    for r, c, v in zip(coo.row, coo.col, coo.data):
        sums[r] += int(v) * q[c]
    return all(s == rhs for s, rhs in zip(sums, lp.b_exact))


def product_witness(p: Fraction | str | float, m: int) -> list[Fraction]:
    """The i.i.d. product distribution over {B,1}^m, exact; a witness for k=1."""
    p = _as_fraction(p)
    values = []
    for w in itertools.product((0, 1), repeat=m):
        prob = Fraction(1)
        for s in w:
            prob *= p if s == 1 else 1 - p
        values.append(prob)
    return values


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve rather than with
    the package, so commands that never solve do not load scipy."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def solve_feasibility(lp: WindowLP, tol: float = 1e-9, unknown_margin: float = 1e-6) -> FeasibilityResult:
    """Decide feasibility with an LP solver, then re-check independently.

    A claimed-feasible solve only counts when the returned point re-verifies
    within ``tol`` against every constraint.  A claimed-infeasible solve is
    quantified by a phase-one solve minimizing the L1 equality violation;
    gaps below ``unknown_margin`` are reported as unknown.
    """
    _check_tol(tol)
    import numpy as np

    bounds = np.zeros((lp.num_vars, 2))
    bounds[:, 1] = np.inf
    bounds[list(lp.zero_vars), 1] = 0.0
    res = linprog(
        c=np.zeros(lp.num_vars),
        A_eq=lp.A,
        b_eq=lp.b,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        witness = np.asarray(res.x, dtype=np.float64)
        residual = witness_residual(lp, witness)
        if residual <= tol:
            return FeasibilityResult("feasible", witness, residual, None, tol)
        return FeasibilityResult("unknown", witness, residual, None, tol)
    if res.status == 2:
        gap = _phase_one_gap(lp, bounds)
        if gap > unknown_margin:
            return FeasibilityResult("infeasible", None, None, gap, tol)
        return FeasibilityResult("unknown", None, None, gap, tol)
    return FeasibilityResult("unknown", None, None, None, tol)


def _phase_one_gap(lp: WindowLP, bounds: np.ndarray) -> float:
    """Minimal sum of artificial slacks: 0 iff the system is feasible.

    ``bounds`` are the window variables' (lower, upper) bounds; the slacks
    are nonnegative.
    """
    import numpy as np
    from scipy import sparse

    nv, nr = lp.num_vars, lp.num_rows
    A = sparse.hstack(
        [lp.A, sparse.identity(nr, format="csr"), -sparse.identity(nr, format="csr")],
        format="csr",
    )
    c = np.concatenate([np.zeros(nv), np.ones(2 * nr)])
    slack_bounds = np.zeros((2 * nr, 2))
    slack_bounds[:, 1] = np.inf
    res = linprog(
        c=c, A_eq=A, b_eq=lp.b, bounds=np.vstack([bounds, slack_bounds]), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"phase-one solve failed with status {res.status}")
    return float(res.fun)


def marginalize_witness(lp: WindowLP, q: np.ndarray) -> np.ndarray:
    """Drop the last window symbol: q'(v) = sum_y q(v + (y,)).

    The result is aligned with the lexicographic windows of the length m-1
    instance and inherits every constraint there (within numerical error for
    float witnesses).
    """
    if lp.m < 2:
        raise ValueError("cannot marginalize a length-1 window instance")
    import numpy as np

    q = np.asarray(q)
    index = {w: i for i, w in enumerate(lp.windows)}
    out = []
    for v in itertools.product(range(lp.k + 1), repeat=lp.m - 1):
        out.append(sum(q[index[v + (y,)]] for y in range(lp.k + 1)))
    return np.array(out)


@dataclass(frozen=True)
class ScanEntry:
    p: Fraction
    status: str
    residual: float | None
    gap: float | None
    within_max_p: bool
    within_trivial: bool


@dataclass(frozen=True)
class ScanReport:
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
    pressure-bound inversion) and p <= 1/k (the trivial occupancy bound).
    """
    from .bounds import max_p

    _check_tol(tol)
    p_star = max_p(k)
    entries = []
    for p_raw in p_grid:
        p = _as_fraction(p_raw)
        lp = build_window_lp(k, p, m)
        res = solve_feasibility(lp, tol=tol)
        entries.append(
            ScanEntry(
                p=p,
                status=res.status,
                residual=res.residual,
                gap=res.gap,
                within_max_p=float(p) <= p_star,
                within_trivial=p <= Fraction(1, k),
            )
        )
    return ScanReport(k, m, tol, tuple(entries))


def write_mps(lp: WindowLP) -> str:
    """Serialize to free MPS (zero objective, E rows, FX bounds for support zeros).

    Lets third-party solvers cross-check feasibility verdicts.
    """
    lines = [f"NAME window_lp_k{lp.k}_m{lp.m}", "ROWS", " N COST"]
    row_names = []
    for label in lp.row_labels:
        name = f"R_{label}"
        row_names.append(name)
        lines.append(f" E {name}")
    lines.append("COLUMNS")
    csc = lp.A.tocsc()
    for c in range(lp.num_vars):
        var = f"W_{window_text(lp.windows[c])}"
        start, end = csc.indptr[c], csc.indptr[c + 1]
        for r, v in zip(csc.indices[start:end], csc.data[start:end]):
            lines.append(f"    {var} {row_names[r]} {int(v)}")
    lines.append("RHS")
    for name, rhs in zip(row_names, lp.b_exact):
        if rhs != 0:
            lines.append(f"    RHS {name} {float(rhs)!r}")
    lines.append("BOUNDS")
    for i in lp.zero_vars:
        lines.append(f" FX BND W_{window_text(lp.windows[i])} 0")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
