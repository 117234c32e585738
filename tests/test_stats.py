import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from avoidance.policies import IndependentSites, RoundRobin, simulate
from avoidance.sequences import Seq, blank_count, pair_scan
from avoidance.stats import (
    _array_pairs,
    _autocorrelation,
    _chi2_sf,
    empirical_stats,
    faithfulness_tests,
    gap_law_chisquare,
)
from avoidance.traces import CouplingTrace, symbol_array
from oracles import brute_pairs, trace_word

FAITHFUL = simulate(IndependentSites(1, 0.3), 10**6, seed=2024)
FAITHFUL_SYMBOLS = symbol_array(FAITHFUL)


def test_empirical_stats_small_exact():
    # the word "1 B 1 B B 1"
    est = empirical_stats(np.array([1, 0, 1, 0, 0, 1]), 1)
    assert est.blanks == 3
    assert est.blank_rate == Fraction(1, 2)
    assert est.occupancy_rate == Fraction(1, 2)
    # pairs: (1,3) weight 1, (3,6) weight 1; gaps 2 and 3
    assert est.weight_rate_total == Fraction(2, 6)
    assert est.gap_histogram[1] == {2: 1, 3: 1}


def test_weight_rate_times_T_is_total_weight():
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    assert est.weight_rate_total * est.T == pair_scan(trace_word(FAITHFUL)).total


def test_blank_rate_dominates_weight_rate():
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    assert est.blank_rate >= est.weight_rate_total


def test_faithful_k1_rates():
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    p = 0.3
    sigma = math.sqrt(p * (1 - p) / est.T)
    assert abs(float(est.blank_rate) - 0.7) < 3 * sigma
    assert abs(float(est.occupancy_rate) - 0.3) < 3 * sigma
    # every positive-weight pair has exactly {B} between for k=1, so the
    # weight rate estimates sum_b p^2 (1-p)^b = p(1-p)
    assert abs(float(est.weight_rate_total) - 0.21) < 0.005


def test_weight_rate_dominates_series_partial_sums():
    # finite-T form of the asymptotic lower bound on the per-walker weight rate
    from avoidance.bounds import taylor_partial

    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    assert float(est.weight_rate[1]) >= taylor_partial(0.3, 10**4) - 0.005


def test_gap_law_chisquare_accepts_faithful():
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    stat, pvalue, dof = gap_law_chisquare(est.gap_histogram[1], 0.3)
    assert dof >= 5
    assert pvalue > 1e-3


def test_gap_law_chisquare_rejects_wrong_p():
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    _, pvalue, _ = gap_law_chisquare(est.gap_histogram[1], 0.5)
    assert pvalue < 1e-6


def test_gap_law_needs_data():
    with pytest.raises(ValueError):
        gap_law_chisquare({2: 3}, 0.3)


def test_empirical_stats_k_mismatch():
    # a two-walker trace's symbols read as if it had one walker
    symbols = symbol_array(simulate(RoundRobin(2), 100, seed=0))
    with pytest.raises(ValueError, match=r"symbols must lie in 0\.\.1"):
        empirical_stats(symbols, 1)


@pytest.mark.parametrize("symbols", [[0.5, 1.0, 1.0], [1.0, float("nan")]])
def test_empirical_stats_rejects_non_integral_symbols(symbols):
    # a 0.5 row would count as occupied, yet it belongs to no walker
    with pytest.raises(ValueError, match=r"symbols must lie in 0\.\.1 and be integers"):
        empirical_stats(np.array(symbols), 1)


@pytest.mark.parametrize("k", [1.5, float("nan"), "1"])
def test_empirical_stats_rejects_a_non_integral_walker_count(k):
    with pytest.raises(ValueError, match=r"^walker count .* is not an integer$"):
        empirical_stats(np.array([1, 0, 1]), k)


def test_empirical_stats_accepts_integral_floats():
    assert empirical_stats(np.array([1.0, 0.0, 1.0]), 1) == empirical_stats(np.array([1, 0, 1]), 1)


def test_faithfulness_accepts_genuine_source():
    report = faithfulness_tests(FAITHFUL, 0.3)
    assert report.passed


def test_faithfulness_flags_round_robin_lag1():
    tr = simulate(RoundRobin(2), 10**4, seed=0)
    report = faithfulness_tests(tr, 0.5)
    assert not report.passed
    freq = [o for o in report.outcomes if o.name == "frequency"]
    assert all(o.passed for o in freq)
    lag1 = [o for o in report.outcomes if o.name == "autocorr_lag_1"]
    assert all(not o.passed for o in lag1)
    assert lag1[0].statistic == pytest.approx(-math.sqrt(10**4), rel=1e-3)


def test_faithfulness_flags_all_zero_trace():
    tr = CouplingTrace(1, np.zeros((10**4, 1), dtype=np.uint8))
    report = faithfulness_tests(tr, 0.3)
    assert not report.passed
    freq = [o for o in report.outcomes if o.name == "frequency"][0]
    assert not freq.passed


def test_faithfulness_requires_long_trace():
    tr = simulate(IndependentSites(1, 0.3), 100, seed=0)
    with pytest.raises(ValueError):
        faithfulness_tests(tr, 0.3)


def test_faithfulness_wrong_p_fails_frequency():
    report = faithfulness_tests(FAITHFUL, 0.32)
    freq = [o for o in report.outcomes if o.name == "frequency"][0]
    assert not freq.passed


def test_independent_marginals_are_faithful():
    # marginals of independent walkers are genuinely i.i.d. even though the
    # joint law collides; faithfulness alone must accept it
    tr = simulate(IndependentSites(2, 0.3), 10**5, seed=5)
    assert faithfulness_tests(tr, 0.3).passed


def test_report_records_parameters():
    report = faithfulness_tests(FAITHFUL, 0.3)
    chi2 = {o.threshold for o in report.outcomes if o.name.startswith("window_chi2")}
    assert chi2 == {1e-3}
    assert {o.threshold for o in report.outcomes if not o.name.startswith("window_chi2")} == {4.0}
    assert report.T == 10**6
    names = {o.name for o in report.outcomes}
    assert "frequency" in names
    assert any(n.startswith("window_chi2") for n in names)
    assert sum(1 for n in names if n.startswith("autocorr")) == 16


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=2, max_size=60), lag=st.integers(1, 70))
def test_autocorrelation_is_exact(bits, lag):
    T, ones = len(bits), sum(bits)
    assume(0 < ones < T)
    m = Fraction(ones, T)
    num = sum((bits[t] - m) * (bits[t + lag] - m) for t in range(T - lag))
    den = sum((b - m) ** 2 for b in bits)
    assert _autocorrelation(np.array(bits, dtype=np.uint8), ones, lag) == num / den


SYMBOL_ARRAYS = st.integers(0, 5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(0, k), max_size=60).map(lambda xs: np.array(xs, dtype=np.int64)),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=SYMBOL_ARRAYS)
def test_array_pairs_match_pair_scan_and_brute_force(case):
    k, x = case
    got = list(zip(*(a.tolist() for a in _array_pairs(x, k))))
    scan = pair_scan(Seq(k, tuple(x.tolist())))
    assert got == scan.pairs
    assert got == brute_pairs(x.tolist())


@settings(max_examples=200, deadline=None)
@given(case=SYMBOL_ARRAYS)
def test_empirical_stats_of_an_array_equal_those_of_the_word(case):
    # the rates times T are the word's blank count and exact weights; k = 0
    # is refused (test_empirical_stats_refuses_fewer_than_one_walker)
    k, x = case
    assume(x.size and k)
    est = empirical_stats(x, k)
    word = Seq(k, tuple(x.tolist()))
    scan = pair_scan(word)
    assert est.blanks == blank_count(word)
    assert est.weight_rate_total * est.T == scan.total
    outputs = scan.outputs()
    assert {i: r * est.T for i, r in est.weight_rate.items()} == {
        i: outputs.get(i, Fraction(0)) for i in range(1, k + 1)
    }


def test_empirical_stats_of_the_trace_symbols():
    # a word's symbol tuple gives the same stats as the trace's array
    est = empirical_stats(FAITHFUL_SYMBOLS, 1)
    assert est == empirical_stats(trace_word(FAITHFUL).symbols, 1)


@pytest.mark.parametrize(
    "x, k, message",
    [
        (np.array([0, 3]), 2, "0..2"),
        (np.array([[0, 1]]), 1, "1-d"),
        (np.array([0, 2]), 1, "0..1"),
        (np.array([-1, 0]), 1, "0..1"),
        (np.array([], dtype=np.int64), 1, "nonempty"),
    ],
)
def test_empirical_stats_rejects_bad_arrays(x, k, message):
    with pytest.raises(ValueError, match=message):
        empirical_stats(x, k)


@pytest.mark.parametrize("k", [0, -1])
def test_empirical_stats_refuses_fewer_than_one_walker(k):
    # the wording traces.CouplingTrace uses; the symbols are not looked at
    with pytest.raises(ValueError, match=f"^walker count must be >= 1, got {k}$"):
        empirical_stats(np.array([0, 0, 0]), k)


# chi-square tails on a grid of degrees of freedom 1..255 and x in [0, 6 dof]
CHI2_GRID = [
    (dof, 6.0 * dof * f)
    for dof in range(1, 256)
    for f in (0, 0.001, 0.05, 0.1, 0.15, 1 / 6, 0.2, 0.3, 0.45, 0.7, 1)
]


def test_chi2_tail_matches_scipy():
    from scipy.special import chdtrc

    for dof, x in CHI2_GRID:
        assert _chi2_sf(x, dof) == pytest.approx(float(chdtrc(dof, x)), rel=1e-12, abs=0), (dof, x)


def test_chi2_tail_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for dof, x in CHI2_GRID:
            exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
            assert _chi2_sf(x, dof) == pytest.approx(float(exact), rel=1e-12, abs=0), (dof, x)


def test_chi2_tail_edges():
    assert _chi2_sf(0.0, 3) == 1.0
    assert _chi2_sf(math.inf, 3) == 0.0
    assert _chi2_sf(math.inf, 4) == 0.0
    assert _chi2_sf(1e6, 255) == 0.0
    assert _chi2_sf(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 40), min_size=60, max_size=200),
    p=st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.8]),
)
def test_gap_law_chisquare_matches_scipy(gaps, p):
    from scipy import stats as sps

    hist = {}
    for g in gaps:
        hist[g] = hist.get(g, 0) + 1
    try:
        stat, pvalue, dof = gap_law_chisquare(hist, p)
    except ValueError:
        reject()  # too few gaps for the binning
    n, cut = len(gaps), dof + 1  # gaps below cut are binned singly
    observed = [hist.get(g, 0) for g in range(1, cut)]
    observed.append(n - sum(observed))
    expected = [n * p * (1.0 - p) ** (g - 1) for g in range(1, cut)]
    expected.append(n * (1.0 - p) ** (cut - 1))
    want = sps.chisquare(observed, expected)
    assert stat == pytest.approx(float(want.statistic), rel=1e-12)
    assert pvalue == pytest.approx(float(want.pvalue), rel=1e-12)
