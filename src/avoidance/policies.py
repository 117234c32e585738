"""Trace-generating policies and the simulation driver.

A policy is a frozen configuration whose ``generate(T, rng)`` emits T rows
deterministically from a seeded generator.  Shipped policies: i.i.d.
Bernoulli sites (``IndependentSites(1, p)`` is the faithful single-walker
source; k >= 2 is a negative control), deterministic alternation (another
negative control), greedy random avoiding walkers on the complete graph, and
the wave transform turning a loopless policy into a looped one.  Only the
single-walker sources are faithful; the avoiding walkers keep the
no-collision discipline but make no claim about marginals.
"""

from __future__ import annotations

from bisect import insort

from ._record import Frozen
from .traces import CouplingTrace, WalkerTrace

import numpy as np

__all__ = [
    "RoundRobin",
    "IndependentSites",
    "AvoidingWalkers",
    "StayingInWaves",
    "simulate",
]


class RoundRobin(Frozen):
    """Deterministic alternation: walker 1 + (t-1 mod k) occupies at time t.

    Negative control: marginal frequency is exactly 1/k but nothing is
    independent across time.
    """

    __slots__ = ("k",)
    kind = "binary"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)

    def generate(self, T: int, rng: np.random.Generator) -> np.ndarray:
        rows = np.zeros((T, self.k), dtype=np.uint8)
        rows[np.arange(T), np.arange(T) % self.k] = 1
        return rows


class IndependentSites(Frozen):
    """k walkers occupying independently with probability p each.

    Faithful for k = 1, the single Bernoulli site; for k >= 2 a negative
    control that collides at rate about p^2 per unordered pair.
    """

    __slots__ = ("k", "p")
    kind = "binary"

    def __init__(self, k: int, p: float) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {p}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)

    def generate(self, T: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random((T, self.k)) < self.p).astype(np.uint8)


class AvoidingWalkers(Frozen):
    """Greedy random avoiding walkers on the complete graph.

    Each walker in turn picks uniformly among vertices not blocked by the
    new positions of earlier movers or the standing positions of later ones
    (nor its own seat, when loopless).  Collision-free by construction; the
    marginals are not simple random walks for k >= 2.
    """

    __slots__ = ("n", "k", "looped", "start")
    kind = "walker"

    def __init__(self, n: int, k: int, looped: bool = False, start: tuple[int, ...] = ()) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if looped not in (False, True):
            raise ValueError(f"looped must be False or True, got {looped!r}")
        needed = k if looped else k + 1
        if n < needed:
            raise ValueError(
                f"n={n} leaves no legal move for k={k} "
                f"{'looped' if looped else 'loopless'} walkers"
            )
        if not start:
            start = tuple(range(1, k + 1))
        if len(start) != k or len(set(start)) != k:
            raise ValueError("start must hold k distinct vertices")
        if min(start) < 1 or max(start) > n:
            raise ValueError(f"start positions must lie in 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "looped", bool(looped))
        object.__setattr__(self, "start", start)

    def generate(self, T: int, rng: np.random.Generator) -> np.ndarray:
        n, k = self.n, self.k
        if k == 1:
            if self.looped:
                return rng.integers(1, n + 1, size=T, dtype=np.int64)[:, None]
            # cumulative uniform steps over the n-1 other vertices
            steps = rng.integers(1, n, size=T, dtype=np.int64)
            pos = (self.start[0] - 1 + np.cumsum(steps)) % n + 1
            return pos[:, None]
        # Positions stay pairwise distinct, so every move has n - k legal
        # vertices (n - k + 1 looped): one batch of ranks is the same stream
        # as a uniform draw per move.  Rank r picks the (r+1)-th unblocked
        # vertex: start at r + 1 and step past each blocked vertex up to it.
        ranks = rng.integers(n - k + int(self.looped), size=(T, k)).tolist()
        cur = list(self.start)
        seats = sorted(cur)  # every walker's vertex
        out: list[int] = []
        for row in ranks:
            for i, r in enumerate(row):
                if self.looped:
                    seats.remove(cur[i])
                v = r + 1
                for b in seats:
                    if b > v:
                        break
                    v += 1
                if not self.looped:
                    seats.remove(cur[i])
                insort(seats, v)
                cur[i] = v
            out += cur
        return np.array(out, dtype=np.int64).reshape(T, k)


class StayingInWaves(Frozen):
    """Looped-graph transform: freeze every walker for a round with prob 1/n.

    The wave indicators for all T rounds are drawn first from the generator,
    then the inner loopless policy consumes the remaining stream for its
    non-frozen rounds; a frozen round repeats the previous row exactly.
    """

    __slots__ = ("inner",)
    kind = "walker"
    looped = True

    def __init__(self, inner: AvoidingWalkers) -> None:
        if getattr(inner, "kind", None) != "walker" or inner.looped:
            raise ValueError("inner policy must emit loopless walker rows")
        object.__setattr__(self, "inner", inner)

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def start(self) -> tuple[int, ...]:
        return self.inner.start

    def generate(self, T: int, rng: np.random.Generator) -> np.ndarray:
        waves = rng.random(T) < 1.0 / self.n
        moving = ~waves
        m = int(np.count_nonzero(moving))
        if m:
            inner_rows = self.inner.generate(m, rng)
        else:
            inner_rows = np.empty((0, self.k), dtype=np.int64)
        idx = np.cumsum(moving) - 1  # last inner row emitted so far; -1 = none yet
        out = np.empty((T, self.k), dtype=np.int64)
        seeded = idx >= 0
        out[~seeded] = np.asarray(self.start, dtype=np.int64)
        out[seeded] = inner_rows[idx[seeded]]
        return out


def simulate(policy, T: int, seed: int) -> CouplingTrace | WalkerTrace:
    """Run a policy for T rounds; bit-exact reproduction for a fixed seed."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rng = np.random.default_rng(seed)
    rows = policy.generate(T, rng)
    if policy.kind == "binary":
        return CouplingTrace(policy.k, rows)
    return WalkerTrace(policy.n, policy.k, policy.looped, rows)
