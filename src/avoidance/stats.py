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
import sys
from fractions import Fraction
from typing import NamedTuple

from .sequences import _integer, weight_scale
from .traces import CouplingTrace, _within

import numpy as np

__all__ = [
    "EmpiricalStats",
    "TestOutcome",
    "TestReport",
    "empirical_stats",
    "gap_law_chisquare",
    "faithfulness_tests",
]

# faithfulness tests: z-statistics pass within SIGMA, over lags 1..LAGS; the
# window chi-square starts at WINDOW symbols and passes at p-values >= ALPHA;
# traces shorter than MIN_T rounds are refused
SIGMA = 4.0
LAGS = 16
WINDOW = 8
ALPHA = 1e-3
MIN_T = 10_000


class EmpiricalStats(NamedTuple):
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


def empirical_stats(symbols: np.ndarray, k: int) -> EmpiricalStats:
    """Compute the estimators for a symbol sequence over {B, 1..k}.

    ``symbols`` is a 1-d integer array over 0..k (0 the blank), such as
    ``traces.symbol_array`` returns.
    """
    k = _integer(k, "walker count")
    x = np.asarray(symbols)
    if x.ndim != 1:
        raise ValueError("a symbol array must be 1-d")
    if not _within(x, 0, k):
        raise ValueError(f"symbols must lie in 0..{k} and be integers")
    T = x.size
    if T < 1:
        raise ValueError("sequence must be nonempty")
    sym, t1, t2, b = _array_pairs(x, k)
    blanks = T - int(np.count_nonzero(x))
    max_b = int(b.max()) if b.size else 0
    den, scale = weight_scale(max_b)
    gap_hist: dict[int, dict[int, int]] = {}
    weight_rate: dict[int, Fraction] = {}
    scaled_total = 0
    ends = np.searchsorted(sym, np.arange(1, k + 2))  # walker i's pairs: ends[i-1]:ends[i]
    for i in range(1, k + 1):
        mine = slice(ends[i - 1], ends[i])
        gaps = np.bincount(t2[mine] - t1[mine])
        gap_hist[i] = {int(g): int(gaps[g]) for g in np.flatnonzero(gaps)}
        scaled = sum(c * w for c, w in zip(np.bincount(b[mine]).tolist(), scale))
        weight_rate[i] = Fraction(scaled, den) / T
        scaled_total += scaled
    return EmpiricalStats(
        T=T,
        k=k,
        blanks=blanks,
        blank_rate=Fraction(blanks, T),
        occupancy_rate=Fraction(T - blanks, T),
        gap_histogram=gap_hist,
        weight_rate=weight_rate,
        weight_rate_total=Fraction(scaled_total, den) / T,
    )


def _array_pairs(x: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The neighbor pairs of a symbol array: the same (symbol, t1, t2, b)
    records as ``sequences.pair_scan``, ordered by (symbol, t1) with 1-based
    times, as arrays, in whole-array passes, O(T*k).

    With 0-based occurrences u1 < u2 of a walker, symbol s lies strictly
    between them iff its first occurrence at or after u1 + 1 comes before u2.
    A reversed running minimum gives that next occurrence for every position
    at once.  The walker itself next occurs at u2, so it never counts.
    """
    T = x.size
    occ = [np.flatnonzero(x == i) for i in range(1, k + 1)]
    sizes = [max(o.size - 1, 0) for o in occ]
    sym = np.repeat(np.arange(1, k + 1), sizes)
    u1 = np.concatenate([np.empty(0, np.intp)] + [o[:-1] for o in occ])
    u2 = np.concatenate([np.empty(0, np.intp)] + [o[1:] for o in occ])
    b = np.zeros(u1.size, dtype=np.intp)
    if u1.size:
        after, ids = u1 + 1, np.arange(T)
        for s in range(k + 1):
            nxt = np.where(x == s, ids, T)[::-1]
            np.minimum.accumulate(nxt, out=nxt)
            b += nxt[::-1][after] < u2
    return sym, u1 + 1, u2 + 1, b


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
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    return stat, _chi2_sf(stat, dof), dof


class TestOutcome(NamedTuple):
    """One statistic: z-scores pass when |statistic| <= threshold, p-values
    pass when statistic >= threshold."""

    name: str
    walker: int
    statistic: float
    threshold: float
    passed: bool


class TestReport(NamedTuple):
    p: float
    T: int
    outcomes: tuple[TestOutcome, ...]
    passed: bool


def faithfulness_tests(tr: CouplingTrace, p: float) -> TestReport:
    """Statistical check that each walker's stream looks i.i.d. Bernoulli(p).

    Per walker: a frequency z-test against p, lag-1..LAGS sample
    autocorrelations scaled by sqrt(T), and a chi-square of disjoint
    length-w window counts against the product law.  The window length
    shrinks from WINDOW until every expected cell count reaches 5.
    z-statistics pass at SIGMA; the chi-square passes when its p-value is
    at least ALPHA.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    T = tr.T
    if T < MIN_T:
        raise ValueError(f"need T >= {MIN_T} rounds for the configured tests, got {T}")
    variance = p * (1.0 - p) / T
    # a subnormal variance has lost precision, and zero would divide below
    if variance < sys.float_info.min:
        raise ValueError(f"p = {p} is too small for T = {T} rounds: p(1-p)/T underflows")
    outcomes: list[TestOutcome] = []
    se = math.sqrt(variance)
    for i in range(tr.k):
        x = np.ascontiguousarray(tr.rows[:, i])
        ones = int(np.count_nonzero(x))
        z = (ones / T - p) / se
        outcomes.append(TestOutcome("frequency", i + 1, z, SIGMA, abs(z) <= SIGMA))
        if 0 < ones < T:
            for lag in range(1, LAGS + 1):
                z = float(_autocorrelation(x, ones, lag)) * math.sqrt(T)
                outcomes.append(
                    TestOutcome(f"autocorr_lag_{lag}", i + 1, z, SIGMA, abs(z) <= SIGMA)
                )
        w = _effective_window(T, p)
        if w >= 2:
            pvalue = _window_chisquare(tr.rows[:, i], p, w)
            outcomes.append(
                TestOutcome(f"window_chi2_w{w}", i + 1, pvalue, ALPHA, pvalue >= ALPHA)
            )
    passed = all(o.passed for o in outcomes)
    return TestReport(p, T, tuple(outcomes), passed)


def _autocorrelation(x: np.ndarray, ones: int, lag: int) -> Fraction:
    """Exact sample autocorrelation at ``lag`` of a 0/1 stream holding ``ones`` ones.

    With mean m = ones/T, the numerator sum (x_t - m)(x_{t+lag} - m) over the
    T - lag products is S - (A + B) m + (T - lag) m^2, where S counts the
    products equal to 1 and A, B the ones of the two factors; the denominator
    sum (x_t - m)^2 is ones - ones^2 / T.  Both are scaled by T^2.
    """
    T = x.size
    head, tail = x[:-lag], x[lag:]
    products = int(np.count_nonzero(head & tail))
    sides = int(np.count_nonzero(head)) + int(np.count_nonzero(tail))
    num = products * T * T - sides * ones * T + tail.size * ones * ones
    return Fraction(num, T * (ones * T - ones * ones))


def _effective_window(T: int, p: float) -> int:
    q = min(p, 1.0 - p)
    w = WINDOW
    while w >= 2 and (T // w) * q**w < 5.0:
        w -= 1
    return w


def _window_chisquare(x: np.ndarray, p: float, w: int) -> float:
    nwin = len(x) // w
    blocks = x[: nwin * w].reshape(nwin, w).astype(np.int64)
    codes = blocks @ (1 << np.arange(w - 1, -1, -1, dtype=np.int64))
    observed = np.bincount(codes, minlength=1 << w).astype(np.float64)
    popcount = np.array([bin(c).count("1") for c in range(1 << w)])
    expected = nwin * p**popcount * (1.0 - p) ** (w - popcount)
    chisq = float(((observed - expected) ** 2 / expected).sum())
    return _chi2_sf(chisq, (1 << w) - 1)


_LOG_2 = math.log(2.0)
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer ``dof`` >= 1 degrees of freedom.

    Closed forms (Abramowitz and Stegun 26.4.4 and 26.4.5): for even dof,
    e^{-x/2} sum_{j < dof/2} (x/2)^j / j!; for odd dof, erfc(sqrt(x/2)) plus
    sqrt(2x/pi) e^{-x/2} sum_{r < (dof-1)/2} x^r / (2r+1)!!.  Every term is
    positive and is formed in log space, so none over- or underflows on its
    own; math.fsum adds them.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    half = 0.5 * x
    if dof % 2 == 0:
        log_half = math.log(half)
        return math.fsum(
            math.exp(j * log_half - half - math.lgamma(j + 1)) for j in range(dof // 2)
        )
    log_x = math.log(x)
    terms = [math.erfc(math.sqrt(half))]
    terms += [
        # (2r+1)!! = (2r+1)! / (2^r r!)
        math.exp(
            _LOG_SQRT_2_OVER_PI + (r + 0.5) * log_x - half
            - math.lgamma(2 * r + 2) + r * _LOG_2 + math.lgamma(r + 1)
        )
        for r in range(dof // 2)
    ]
    return math.fsum(terms)
