import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avoidance import bounds
from avoidance.bounds import max_p, max_walkers, taylor_partial, within_max_p

from oracles import pressure_within


@pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
def test_pressure_domain(p):
    with pytest.raises(ValueError):
        within_max_p(2, Fraction(p))


@given(k=st.integers(1, 1000), data=st.data())
def test_within_max_p_is_monotone_on_a_sorted_grid(k, data):
    # max_p's bisection rests on this: along increasing floats, read as
    # their shortest decimals, the verdict is true up to a point and false after
    anywhere = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    near_the_root = st.floats(0.5 / k, 1.0 / k, exclude_max=True)
    grid = sorted(data.draw(st.lists(st.one_of(anywhere, near_the_root), min_size=2)))
    verdicts = [within_max_p(k, Fraction(repr(x))) for x in grid]
    assert verdicts == sorted(verdicts, reverse=True)


def brackets_the_root(k, p_star):
    """Whether the oracle accepts p_star's decimal and refuses the next float's."""
    above = math.nextafter(p_star, 1.0)
    return pressure_within(k, Fraction(repr(p_star))) and not pressure_within(k, Fraction(repr(above)))


def test_max_p_boundary_k1():
    assert max_p(1) == 1.0


def test_max_p_k2():
    p_star = max_p(2)
    assert 0.365 < p_star < 0.366
    assert brackets_the_root(2, p_star)


def test_max_p_k2_against_grid_scan():
    # independent bracketing: locate the oracle's sign change on a fine grid
    grid = np.linspace(0.3, 0.4, 100001)
    flip = bisect.bisect_left(range(len(grid)), True, key=lambda i: not pressure_within(2, Fraction(grid[i])))
    lo, hi = grid[flip - 1], grid[flip]
    assert lo < max_p(2) < hi


def test_max_p_k4_strict():
    p_star = max_p(4)
    assert brackets_the_root(4, p_star)
    assert p_star < 0.25


@pytest.mark.parametrize("k", range(2, 65))
def test_max_p_below_trivial_bound(k):
    # the pressure at 1/k is (1/k)(1 + ln k / k) > 1/k, so the root is below
    assert max_p(k) < 1.0 / k


@pytest.mark.parametrize("k", [2, 3, 8, 64])
def test_max_p_brackets_the_oracle_root(k):
    assert brackets_the_root(k, max_p(k))


def test_max_p_rejects_bad_args():
    with pytest.raises(ValueError):
        max_p(0)


@pytest.mark.parametrize("n, value", [(3, 2), (20, 18), (21, 18)])
def test_max_walkers_values(n, value):
    assert max_walkers(n).value == value


def test_max_walkers_remark_threshold():
    # strictly below n - 2 exactly from n = 21 on; equality at n = 20
    assert max_walkers(21).value == 18 < 19
    assert max_walkers(20).value == 18 == 20 - 2


def test_max_walkers_domain():
    with pytest.raises(ValueError):
        max_walkers(2)


def test_max_walkers_below_n_minus_2_up_to_1e6():
    n = np.arange(21, 10**6 + 1, dtype=np.float64)
    assert (np.ceil(n - np.log(n)) < n - 2).all()


def test_intermediate_bound_identity_and_slack():
    # n^2/(n + ln n) = n - ln n + ln^2 n/(n + ln n), and the correction is <= 1
    n = np.arange(3, 10**6 + 1, dtype=np.float64)
    log_n = np.log(n)
    lhs = n * n / (n + log_n)
    rhs = n - log_n + log_n**2 / (n + log_n)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)
    assert (log_n**2 / (n + log_n) <= 1.0).all()
    wb = max_walkers(21)
    assert wb.intermediate == pytest.approx(21**2 / (21 + math.log(21)), rel=1e-15)


def test_max_walkers_exact_beyond_float_precision():
    # float n - ln n rounds to n itself here; ln(10^20) = 46.05...
    n = 10**20
    assert float(n) - math.log(n) == float(n)
    assert max_walkers(n).value == 10**20 - 46


def test_max_walkers_either_side_of_e_cubed():
    # 20 < e^3 = 20.0855... < 21, so floor(ln n) steps from 2 to 3 between them
    assert 20 < math.exp(3) < 21
    assert max_walkers(20).value == 20 - 2
    assert max_walkers(21).value == 21 - 3


def test_max_walkers_matches_float_ceiling_where_floats_suffice():
    for n in range(3, 3000):
        assert max_walkers(n).value == math.ceil(n - math.log(n))


def test_max_walkers_too_large_for_float_fields():
    with pytest.raises(ValueError):
        max_walkers(10**400)


@pytest.mark.parametrize("k", [10**6, 10**12, 10**23, 10**100])
def test_max_p_tolerance_is_relative(k):
    # fixed point of p = (1/k) / (1 - p ln p), which converges fast for p ~ 1/k
    root = 1.0 / k
    for _ in range(5):
        root = (1.0 / k) / (1.0 - root * math.log(root))
    assert max_p(k) == pytest.approx(root, rel=1e-9)


def test_max_p_stops_at_adjacent_floats():
    # the decimal lp-scan reads for max_p(k) passes the exact test, and the
    # next float's fails; at k = 43 the largest float below the root has a
    # shortest decimal above it, so max_p is the float before that one
    for k in [*range(2, 401), *(10**j for j in range(3, 305, 7))]:
        p_star = max_p(k)
        above = math.nextafter(p_star, 1.0)
        assert within_max_p(k, Fraction(repr(p_star))), k
        assert not within_max_p(k, Fraction(repr(above))), k
    assert within_max_p(43, Fraction(math.nextafter(max_p(43), 1.0)))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 20, 1000])
def test_within_max_p_is_exact_next_to_max_p(k):
    # the exact test agrees with the oracle at the floats' binary values too,
    # which can sit on the other side of the root than their decimals
    p_star = max_p(k)
    points = [p_star * (1 - 1e-11), p_star * (1 + 1e-11)]
    points += [math.nextafter(p_star, 0.0), p_star, math.nextafter(p_star, 1.0)]
    verdicts = [within_max_p(k, Fraction(x)) for x in points]
    assert verdicts == [pressure_within(k, Fraction(x)) for x in points]
    assert verdicts[:2] == [True, False]


@given(
    k=st.integers(1, 50),
    p=st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999_999, 10**6), max_denominator=10**6),
)
def test_within_max_p_matches_the_pressure(k, p):
    assert within_max_p(k, p) == pressure_within(k, p)


def test_within_max_p_edges():
    assert within_max_p(1, Fraction(999_999, 10**6))
    assert not within_max_p(2, Fraction(1, 2))  # p = 1/k lies above max_p(k)
    assert within_max_p(2, Fraction(1, 10**9))
    for k, p in [(0, Fraction(1, 2)), (2, Fraction(0)), (2, Fraction(1))]:
        with pytest.raises(ValueError):
            within_max_p(k, p)


def test_taylor_limit_k_half():
    assert taylor_partial(0.5, 200) == pytest.approx(0.25 * math.log(2), abs=1e-12)


def test_taylor_single_term():
    assert taylor_partial(0.9, 1) == pytest.approx(0.81 * 0.1, abs=1e-15)
    assert taylor_partial(0.9, 1) <= -0.81 * math.log(0.9)


def test_taylor_monotone_in_terms():
    vals = [taylor_partial(0.3, n) for n in (1, 2, 5, 10, 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("terms", [1, 5, 50, 500])
def test_taylor_tail_bound(p, terms):
    # the analytic tail can sit far below float accumulation noise, so the
    # comparison carries a small absolute slack
    limit = -p * p * math.log(p)
    gap = limit - taylor_partial(p, terms)
    tail_bound = p * (1.0 - p) ** (terms + 1) / (terms + 1)
    assert abs(gap) <= tail_bound + 1e-14


def test_taylor_domain():
    with pytest.raises(ValueError):
        taylor_partial(1.0, 10)
    with pytest.raises(ValueError):
        taylor_partial(0.5, 0)


@pytest.mark.parametrize(
    "p, terms",
    [
        (1e-17, 10**5),
        (1e-17, 10**15),
        (1e-17, 10**20),
        (2e-16, 10**15),
        (1e-10, 10**11),
        (1e-6, 10**7),
        (1e-4, 10**6),
        (3e-4, 10**6),
        (1e-2, 10**9),
    ],
)
def test_taylor_closed_form_tail_matches_the_series(p, terms):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g = 1 - mpmath.mpf(p)
        tail = g ** (terms + 1) * mpmath.lerchphi(g, 1, terms + 1)  # sum over b > terms
        exact = float(mpmath.mpf(p) ** 2 * (-mpmath.log(p) - tail))
    assert taylor_partial(p, terms) == pytest.approx(exact, rel=1e-12)


def test_taylor_closed_form_joins_the_direct_sum():
    n = bounds.DIRECT_TERMS
    for p in (1e-17, 1e-8, 1e-4):
        step = taylor_partial(p, n + 1) - taylor_partial(p, n)
        assert step == pytest.approx(p * p * (1 - p) ** (n + 1) / (n + 1), rel=1e-3)


@pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-5, 0.5, 1.0, 1.5, 2.0, 10.0, 50.0, 700.0])
def test_exp1_matches_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    assert bounds._exp1(x) == pytest.approx(float(mpmath.e1(x)), rel=1e-14)
