import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avoidance.policies import (
    AvoidingWalkers,
    IndependentSites,
    RoundRobin,
    StayingInWaves,
    simulate,
)
from avoidance.traces import (
    CouplingTrace,
    WalkerTrace,
    check_1avoidance,
    check_walker_avoidance,
)
from oracles import choices_walkers


def test_simulate_is_deterministic():
    a = simulate(IndependentSites(1, 0.3), 10, seed=42)
    b = simulate(IndependentSites(1, 0.3), 10, seed=42)
    c = simulate(IndependentSites(1, 0.3), 10, seed=43)
    assert (a.rows == b.rows).all()
    assert (a.rows != c.rows).any()


def test_round_robin_rows():
    tr = simulate(RoundRobin(2), 4, seed=0)
    assert tr.rows.tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]


def test_independent_walkers_collide():
    tr = simulate(IndependentSites(2, 0.5), 10**5, seed=1)
    report = check_1avoidance(tr)
    assert not report.ok
    freq = report.counts.get("simultaneous", 0) / tr.T
    # collisions at rate ~ p^2 = 0.25
    assert abs(freq - 0.25) < 5 * math.sqrt(0.25 * 0.75 / tr.T)


def test_avoiding_walkers_pass_checks():
    for k, n, looped, seed in [(1, 5, False, 0), (2, 6, False, 1), (3, 5, True, 2), (4, 9, False, 3)]:
        tr = simulate(AvoidingWalkers(n, k, looped=looped), 200, seed=seed)
        assert isinstance(tr, WalkerTrace)
        assert check_walker_avoidance(tr).ok, (k, n, looped)


def test_avoiding_walkers_k1_is_uniform_off_diagonal():
    tr = simulate(AvoidingWalkers(4, 1), 200_000, seed=7)
    pos = tr.rows[:, 0]
    assert (pos[1:] != pos[:-1]).all()
    counts = np.bincount(pos, minlength=5)[1:]
    assert abs(counts.max() - counts.min()) / tr.T < 0.01


def test_avoiding_walkers_needs_room():
    with pytest.raises(ValueError):
        AvoidingWalkers(3, 3, looped=False)
    AvoidingWalkers(3, 3, looped=True)  # legal: everyone may stay put


@pytest.mark.parametrize("looped", [2, "yes", None])
def test_avoiding_walkers_refuse_a_looped_flag_that_is_not_a_bool(looped):
    # 2 used to draw from n - k + 2 ranks and place walkers past vertex n
    with pytest.raises(ValueError, match=f"looped must be False or True, got {looped!r}"):
        AvoidingWalkers(3, 2, looped=looped)


@pytest.mark.parametrize("looped", [0, 1])
def test_avoiding_walkers_store_looped_as_a_bool(looped):
    policy = AvoidingWalkers(4, 2, looped=looped)
    assert policy.looped is bool(looped)
    assert simulate(policy, 5, seed=1).looped is bool(looped)


def test_waves_repeat_rows_exactly():
    n, T, seed = 5, 2000, 11
    policy = StayingInWaves(AvoidingWalkers(n, 1))
    tr = simulate(policy, T, seed)
    # reconstruct the wave mask: the indicators are drawn first from the stream
    rng = np.random.default_rng(seed)
    waves = rng.random(T) < 1.0 / n
    prev = np.concatenate([[policy.start[0]], tr.rows[:-1, 0]])
    assert (tr.rows[waves, 0] == prev[waves]).all()
    # the inner walker is loopless, so repeats happen only through waves
    assert (tr.rows[~waves, 0] != prev[~waves]).all()


def test_waves_frequency_matches_rate():
    n, T = 5, 10**6
    policy = StayingInWaves(AvoidingWalkers(n, 1))
    tr = simulate(policy, T, seed=3)
    prev = np.concatenate([[policy.start[0]], tr.rows[:-1, 0]])
    stay_rate = (tr.rows[:, 0] == prev).mean()
    sigma = math.sqrt((1 / n) * (1 - 1 / n) / T)
    assert abs(stay_rate - 1 / n) < 4 * sigma


def test_waves_positions_are_uniform():
    # staying in waves turns the loopless uniform walker into an i.i.d.
    # uniform one: P(stay) = 1/n and P(move to any fixed other vertex) = 1/n
    n, T = 5, 10**6
    tr = simulate(StayingInWaves(AvoidingWalkers(n, 1)), T, seed=17)
    counts = np.bincount(tr.rows[:, 0], minlength=n + 1)[1:]
    sigma = math.sqrt((1 / n) * (1 - 1 / n) / T)
    for c in counts:
        assert abs(c / T - 1 / n) < 4 * sigma


def test_waves_requires_loopless_inner():
    with pytest.raises(ValueError):
        StayingInWaves(AvoidingWalkers(5, 1, looped=True))
    with pytest.raises(ValueError):
        StayingInWaves(IndependentSites(1, 0.5))
    # the wave rate 1/n is the inner walkers' n
    assert StayingInWaves(AvoidingWalkers(5, 1)).n == 5


def test_waves_multiwalker_passes_walker_check():
    policy = StayingInWaves(AvoidingWalkers(7, 3))
    tr = simulate(policy, 500, seed=23)
    assert tr.looped
    assert check_walker_avoidance(tr).ok


def test_simulate_rejects_bad_T():
    with pytest.raises(ValueError):
        simulate(IndependentSites(1, 0.5), 0, seed=0)


def test_binary_policies_emit_coupling_traces():
    assert isinstance(simulate(IndependentSites(1, 0.2), 5, 0), CouplingTrace)
    assert isinstance(simulate(IndependentSites(3, 0.2), 5, 0), CouplingTrace)


class ChoicesWalkers(AvoidingWalkers):
    """AvoidingWalkers drawing each move from the listed unblocked vertices."""

    def generate(self, T, rng):
        return choices_walkers(self, T, rng)


@st.composite
def walker_setups(draw):
    k = draw(st.integers(2, 5))
    looped = draw(st.booleans())
    n = draw(st.integers(k + (not looped), 120))
    start = draw(st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k])))
    return n, k, looped, start


@settings(max_examples=200, deadline=None)
@given(
    setup=walker_setups(),
    waves=st.booleans(),
    T=st.one_of(st.sampled_from([0, 1]), st.integers(0, 80)),
    seed=st.integers(0, 2**63),
)
def test_rank_draw_matches_choices_loop(setup, waves, T, seed):
    n, k, looped, start = setup
    fast, slow = AvoidingWalkers(n, k, looped, start), ChoicesWalkers(n, k, looped, start)
    if waves and not looped:  # waves wrap loopless walkers only
        fast, slow = StayingInWaves(fast), StayingInWaves(slow)
    rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = fast.generate(T, rng_fast), slow.generate(T, rng_slow)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the batched draw leaves the generator where the per-move draws do
    assert rng_fast.random() == rng_slow.random()
