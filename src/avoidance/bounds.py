"""Analytic bounds on avoidance couplings and the related series evaluations.

k coupled Bernoulli(p) walkers need the feasibility pressure p(1 - p log p)
to stay at or below 1/k.  `within_max_p` decides that inequality exactly for
a rational p, and `max_p` is the largest float it accepts; on the complete
graph with loops the walker count is capped by ceil(n - log n).  Natural
logarithm throughout.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "max_p",
    "within_max_p",
    "max_walkers",
    "taylor_partial",
    "WalkerBound",
]

# taylor_partial adds at most this many terms one at a time; the rest of the
# series it adds in closed form
DIRECT_TERMS = 2**16

EULER_GAMMA = 0.5772156649015329


def max_p(k: int) -> float:
    """Largest p consistent with k walkers: the largest float whose shortest
    decimal passes ``within_max_p(k, p)``.  ``lp-scan --grid`` reads a float
    as the same decimal, so it accepts this value and refuses the next float.

    Bisection over floats from the bracket (0, 2/k), where the test fails at
    2/k since kp >= 1 there.  The test is monotone in p and the shortest
    decimal in the float, so the bracket ends at two adjacent floats, and
    the lower is returned.  k = 1 returns the boundary value 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return 1.0
    lo, hi = 0.0, 2.0 / k
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if within_max_p(k, Fraction(repr(mid))):
            lo = mid
        else:
            hi = mid


def within_max_p(k: int, p: Fraction) -> bool:
    """Whether p(1 - p ln p) <= 1/k, decided exactly for a rational p in (0, 1).

    The inequality is ln p >= x with x = (kp - 1)/(kp^2).  When kp >= 1,
    x >= 0 > ln p.  Otherwise ln p - x is never 0, since e^x is irrational
    for a rational x != 0, so decimal values of ln p and x, each within
    a few units of the last digit, separate once the precision is high
    enough; it doubles until they do.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if k * p >= 1:
        return False
    x = (k * p - 1) / (k * p * p)
    prec = 30 + len(str(x.numerator // x.denominator))  # more digits than x has before the point
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            log_p = ctx.ln(ctx.divide(p.numerator, p.denominator))
            x_dec = ctx.divide(x.numerator, x.denominator)
            diff = log_p - x_dec
            # every step above rounds once, by at most one unit in the
            # prec-th digit of numbers no larger than 1 + |ln p| + |x|
            slack = (3 + abs(log_p) + abs(x_dec)).scaleb(2 - prec)
        if abs(diff) > slack:
            return diff > 0
        prec *= 2


class WalkerBound(NamedTuple):
    """ceil(n - ln n), exact, plus the float quantities n - ln n and
    n^2 / (n + ln n)."""

    n: int
    value: int
    raw: float
    intermediate: float


def _exp_exceeds(m: int, n: int) -> bool:
    """Whether e^m > n, for integers m >= 0 and n >= 2, decided exactly.

    Decimal's exp is correctly rounded, and at a precision that holds n's
    every digit, n is representable, so the rounded e^m lands on n's side of
    n unless it equals n.  e^m is never the integer n (it is 1 or
    irrational), so raising the precision settles a tie.
    """
    prec = n.bit_length() // 3 + 2  # more digits than n has
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            rounded = ctx.exp(m)
        if rounded != n:
            return rounded > n
        prec *= 2


def max_walkers(n: int) -> WalkerBound:
    """Upper bound on the walker count of an avoidance coupling on n vertices.

    For an integer n >= 2, ln n is irrational, so ceil(n - ln n) is exactly
    n - floor(ln n); floor(ln n) is the m with e^m < n < e^(m+1).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    log_n = math.log(n)
    try:
        raw, intermediate = n - log_n, n * n / (n + log_n)
    except OverflowError:
        raise ValueError("n is too large for the float fields raw and intermediate") from None
    m = int(log_n)  # a float estimate, corrected by the exact comparisons
    while _exp_exceeds(m, n):
        m -= 1
    while not _exp_exceeds(m + 1, n):
        m += 1
    return WalkerBound(n=n, value=n - m, raw=raw, intermediate=intermediate)


def _exp1(x: float) -> float:
    """The exponential integral E1(x), the integral of e^(-u)/u over u > x > 0.

    For x <= 1 the series -gamma - ln x + sum (-1)^(n+1) x^n / (n n!);
    above 1 the continued fraction of E1, evaluated by modified Lentz.
    """
    if x <= 1.0:
        term = acc = x
        n = 1
        while abs(term) > 1e-17 * acc:
            term *= -x * n / ((n + 1) * (n + 1))
            acc += term
            n += 1
        return -EULER_GAMMA - math.log(x) + acc
    b = x + 1.0
    c = 1e300
    d = h = 1.0 / b
    i = 1
    while True:
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x)
        i += 1


def _series_tail(q: float, y: int) -> float:
    """The sum of e^(-q b) / b over the integers b > y >= DIRECT_TERMS.

    Euler-Maclaurin for f(u) = e^(-q u) / u: the integral of f past y, which
    is E1(q y), less f(y)/2 and f'(y)/12.  The next correction, a third
    derivative over 720, is below 1e-17 for every q whose series is still
    changing at DIRECT_TERMS.  Past 2^1000 terms e^(-q y) is 0 in floats
    whenever p^2, the factor the sum is scaled by, is not.
    """
    if y.bit_length() > 1000:
        return 0.0
    x = q * y
    if x > 745.0:  # e^(-x), and E1(x) below it, underflow to 0
        return 0.0
    e = math.exp(-x)
    return _exp1(x) - e / (2 * y) + e * (q / y + 1 / (y * y)) / 12


def taylor_partial(p: float, terms: int) -> float:
    """Partial sum of p^2 (1-p)^b / b for b = 1..terms.

    Increases to the limit -p^2 ln p; the tail after N terms is at most
    p (1-p)^(N+1) / (N+1).  The sum stops at the first term that no longer
    changes it: later terms are no larger, so they cannot change it either.
    When the first DIRECT_TERMS terms all change it, as for p below about
    3.7e-4 and whenever 1 - p rounds to 1, the terms after them are
    added in closed form, with (1-p)^b = e^(-q b) for q = -ln(1 - p).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    g = 1.0 - p
    power = 1.0
    acc = 0.0
    for b in range(1, min(terms, DIRECT_TERMS) + 1):
        power *= g
        term = power / b
        if acc + term == acc:
            return p * p * acc
        acc += term
    if terms > DIRECT_TERMS:
        q = -math.log1p(-p)
        acc += _series_tail(q, DIRECT_TERMS) - _series_tail(q, terms)
    return p * p * acc
