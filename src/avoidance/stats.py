"""Empirical occupancy, gap and weight statistics, plus faithfulness tests.

The weight rate of a walker attributes each positive pair weight at the time
of the pair's right endpoint, so the per-walker rates times T reproduce the
exact per-symbol outputs of the weight calculus.  Faithfulness of a trace
(each walker an i.i.d. Bernoulli(p) stream) is probed statistically with a
frequency z-test, lag autocorrelations, and a chi-square over disjoint
fixed-length windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .sequences import BLANK, Seq, pair_scan
from .traces import CouplingTrace

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EmpiricalStats",
    "TestOutcome",
    "TestReport",
    "empirical_stats",
    "gap_law_chisquare",
    "faithfulness_tests",
]


@dataclass(frozen=True)
class EmpiricalStats:
    """Finite-horizon estimates of the occupancy and weight quantities.

    ``blank_rate`` estimates the asymptotic blank fraction, ``occupancy_rate``
    its complement (targets 1 - kp and kp for a faithful coupling);
    ``gap_histogram[i]`` counts the spacings between successive occurrences
    of walker i (a faithful walker has spacing law p(1-p)^(gap-1)); and
    ``weight_rate[i]`` is the exact per-walker output divided by T, which is
    asymptotically at least -p^2 ln p for a faithful walker.
    """

    T: int
    k: int
    blanks: int
    blank_rate: Fraction
    occupancy_rate: Fraction
    gap_histogram: dict[int, dict[int, int]]
    weight_rate: dict[int, Fraction]
    weight_rate_total: Fraction


def empirical_stats(s: Seq, p: float, k: int | None = None) -> EmpiricalStats:
    """Compute the estimators for a symbol sequence claiming parameter p."""
    if k is None:
        k = s.k
    elif k != s.k:
        raise ValueError(f"k={k} does not match the sequence's k={s.k}")
    T = s.T
    if T < 1:
        raise ValueError("sequence must be nonempty")
    blanks = s.symbols.count(BLANK)
    scan = pair_scan(s)
    gap_hist: dict[int, dict[int, int]] = {i: {} for i in range(1, k + 1)}
    for sym, t1, t2, _ in scan.pairs:
        hist = gap_hist[sym]
        hist[t2 - t1] = hist.get(t2 - t1, 0) + 1
    outputs = scan.outputs()
    return EmpiricalStats(
        T=T,
        k=k,
        blanks=blanks,
        blank_rate=Fraction(blanks, T),
        occupancy_rate=Fraction(T - blanks, T),
        gap_histogram={i: dict(sorted(h.items())) for i, h in gap_hist.items()},
        weight_rate={i: outputs.get(i, Fraction(0)) / T for i in range(1, k + 1)},
        weight_rate_total=scan.total / T,
    )


def gap_law_chisquare(hist: dict[int, int], p: float, min_expected: float = 5.0):
    """Chi-square of a gap histogram against the geometric law p(1-p)^(gap-1).

    Bins gaps 1, 2, ... individually while the expected count stays at least
    ``min_expected``, then pools the tail.  Returns (statistic, pvalue, dof).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    n = sum(hist.values())
    if n < 1:
        raise ValueError("empty histogram")
    cut = 1
    while n * p * (1.0 - p) ** cut >= min_expected:
        cut += 1
    # bins: gap = 1..cut-1 singly, then gap >= cut pooled
    if cut < 2 or n * (1.0 - p) ** (cut - 1) < min_expected:
        raise ValueError("too few gaps for a calibrated chi-square")
    observed = [hist.get(g, 0) for g in range(1, cut)]
    observed.append(n - sum(observed))
    expected = [n * p * (1.0 - p) ** (g - 1) for g in range(1, cut)]
    expected.append(n * (1.0 - p) ** (cut - 1))
    from scipy import stats as sps

    stat, pvalue = sps.chisquare(observed, expected)
    return float(stat), float(pvalue), len(observed) - 1


@dataclass(frozen=True)
class TestOutcome:
    """One statistic: z-scores pass when |statistic| <= threshold, p-values
    pass when statistic >= threshold."""

    name: str
    walker: int
    statistic: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class TestReport:
    p: float
    T: int
    outcomes: tuple[TestOutcome, ...]
    passed: bool
    params: dict


def faithfulness_tests(
    tr: CouplingTrace,
    p: float,
    sigma: float = 4.0,
    lags: int = 16,
    window: int = 8,
    alpha: float = 1e-3,
    min_T: int = 10_000,
) -> TestReport:
    """Statistical check that each walker's stream looks i.i.d. Bernoulli(p).

    Per walker: a frequency z-test against p, lag-1..lags sample
    autocorrelations scaled by sqrt(T), and a chi-square of disjoint
    length-w window counts against the product law.  The window length
    shrinks from ``window`` until every expected cell count reaches 5.
    z-statistics pass at ``sigma``; the chi-square passes when its p-value
    is at least ``alpha``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    import numpy as np

    T = tr.T
    if T < min_T:
        raise ValueError(f"need T >= {min_T} rounds for the configured tests, got {T}")
    outcomes: list[TestOutcome] = []
    se = math.sqrt(p * (1.0 - p) / T)
    for i in range(tr.k):
        x = np.ascontiguousarray(tr.rows[:, i])
        ones = int(np.count_nonzero(x))
        z = (ones / T - p) / se
        outcomes.append(TestOutcome("frequency", i + 1, z, sigma, abs(z) <= sigma))
        if 0 < ones < T:
            for lag in range(1, lags + 1):
                z = float(_autocorrelation(x, ones, lag)) * math.sqrt(T)
                outcomes.append(
                    TestOutcome(f"autocorr_lag_{lag}", i + 1, z, sigma, abs(z) <= sigma)
                )
        w = _effective_window(T, p, window)
        if w >= 2:
            pvalue = _window_chisquare(tr.rows[:, i], p, w)
            outcomes.append(
                TestOutcome(f"window_chi2_w{w}", i + 1, pvalue, alpha, pvalue >= alpha)
            )
    passed = all(o.passed for o in outcomes)
    params = {
        "sigma": sigma,
        "lags": lags,
        "window": window,
        "alpha": alpha,
        "min_T": min_T,
    }
    return TestReport(p, T, tuple(outcomes), passed, params)


def _autocorrelation(x: np.ndarray, ones: int, lag: int) -> Fraction:
    """Exact sample autocorrelation at ``lag`` of a 0/1 stream holding ``ones`` ones.

    With mean m = ones/T, the numerator sum (x_t - m)(x_{t+lag} - m) over the
    T - lag products is S - (A + B) m + (T - lag) m^2, where S counts the
    products equal to 1 and A, B the ones of the two factors; the denominator
    sum (x_t - m)^2 is ones - ones^2 / T.  Both are scaled by T^2.
    """
    import numpy as np

    T = x.size
    head, tail = x[:-lag], x[lag:]
    products = int(np.count_nonzero(head & tail))
    sides = int(np.count_nonzero(head)) + int(np.count_nonzero(tail))
    num = products * T * T - sides * ones * T + tail.size * ones * ones
    return Fraction(num, T * (ones * T - ones * ones))


def _effective_window(T: int, p: float, window: int) -> int:
    q = min(p, 1.0 - p)
    w = min(window, 16)
    while w >= 2 and (T // w) * q**w < 5.0:
        w -= 1
    return w


def _window_chisquare(x: np.ndarray, p: float, w: int) -> float:
    import numpy as np

    nwin = len(x) // w
    blocks = x[: nwin * w].reshape(nwin, w).astype(np.int64)
    codes = blocks @ (1 << np.arange(w - 1, -1, -1, dtype=np.int64))
    observed = np.bincount(codes, minlength=1 << w).astype(np.float64)
    popcount = np.array([bin(c).count("1") for c in range(1 << w)])
    expected = nwin * p**popcount * (1.0 - p) ** (w - popcount)
    chisq = float(((observed - expected) ** 2 / expected).sum())
    # the chi-square survival function, the routine scipy.stats.chi2.sf calls
    from scipy.special import chdtrc

    return float(chdtrc((1 << w) - 1, chisq))
