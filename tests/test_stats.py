import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from avoidance.policies import independent, round_robin, simulate, trivial_k1
from avoidance.sequences import parse_seq, total_weight
from avoidance.stats import (
    _autocorrelation,
    empirical_stats,
    faithfulness_tests,
    gap_law_chisquare,
)
from avoidance.traces import CouplingTrace, encode

FAITHFUL = simulate(trivial_k1(0.3), 10**6, seed=2024)
FAITHFUL_SEQ = encode(FAITHFUL)


def test_empirical_stats_small_exact():
    s = parse_seq("1 B 1 B B 1", 1)
    est = empirical_stats(s, 0.5)
    assert est.blanks == 3
    assert est.blank_rate == Fraction(1, 2)
    assert est.occupancy_rate == Fraction(1, 2)
    # pairs: (1,3) weight 1, (3,6) weight 1; gaps 2 and 3
    assert est.weight_rate_total == Fraction(2, 6)
    assert est.gap_histogram[1] == {2: 1, 3: 1}


def test_weight_rate_times_T_is_total_weight():
    est = empirical_stats(FAITHFUL_SEQ, 0.3)
    assert est.weight_rate_total * est.T == total_weight(FAITHFUL_SEQ).total


def test_blank_rate_dominates_weight_rate():
    est = empirical_stats(FAITHFUL_SEQ, 0.3)
    assert est.blank_rate >= est.weight_rate_total


def test_faithful_k1_rates():
    est = empirical_stats(FAITHFUL_SEQ, 0.3)
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

    est = empirical_stats(FAITHFUL_SEQ, 0.3)
    assert float(est.weight_rate[1]) >= taylor_partial(0.3, 10**4) - 0.005


def test_gap_law_chisquare_accepts_faithful():
    est = empirical_stats(FAITHFUL_SEQ, 0.3)
    stat, pvalue, dof = gap_law_chisquare(est.gap_histogram[1], 0.3)
    assert dof >= 5
    assert pvalue > 1e-3


def test_gap_law_chisquare_rejects_wrong_p():
    est = empirical_stats(FAITHFUL_SEQ, 0.3)
    _, pvalue, _ = gap_law_chisquare(est.gap_histogram[1], 0.5)
    assert pvalue < 1e-6


def test_gap_law_needs_data():
    with pytest.raises(ValueError):
        gap_law_chisquare({2: 3}, 0.3)


def test_empirical_stats_k_mismatch():
    with pytest.raises(ValueError):
        empirical_stats(FAITHFUL_SEQ, 0.3, k=2)


def test_faithfulness_accepts_genuine_source():
    report = faithfulness_tests(FAITHFUL, 0.3)
    assert report.passed


def test_faithfulness_flags_round_robin_lag1():
    tr = simulate(round_robin(2), 10**4, seed=0)
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
    tr = simulate(trivial_k1(0.3), 100, seed=0)
    with pytest.raises(ValueError):
        faithfulness_tests(tr, 0.3)


def test_faithfulness_wrong_p_fails_frequency():
    report = faithfulness_tests(FAITHFUL, 0.32)
    freq = [o for o in report.outcomes if o.name == "frequency"][0]
    assert not freq.passed


def test_independent_marginals_are_faithful():
    # marginals of independent walkers are genuinely i.i.d. even though the
    # joint law collides; faithfulness alone must accept it
    tr = simulate(independent(2, 0.3), 10**5, seed=5)
    assert faithfulness_tests(tr, 0.3).passed


def test_report_records_parameters():
    report = faithfulness_tests(FAITHFUL, 0.3)
    assert report.params["sigma"] == 4.0
    assert report.params["alpha"] == 1e-3
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
