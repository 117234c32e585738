"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria use fixed seeds; every tolerance is pinned here.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from avoidance.bounds import feasible_pressure, max_p, max_walkers, taylor_partial
from avoidance.cli import main
from avoidance.lemma import (
    DELETE_VICTIM_SYMBOL,
    check_certificate,
    reduce_certificate,
    redistribution,
    verify_lemma_exhaustive,
)
from avoidance.lp import build_window_lp, check_witness_exact, solve_feasibility, witness_residual
from avoidance.policies import (
    AvoidingWalkers,
    IndependentSites,
    RoundRobin,
    StayingInWaves,
    simulate,
)
from avoidance.sequences import (
    Seq,
    blank_count,
    is_permissible,
    pair_scan,
    parse_seq,
    permissible_words,
    weight_scale,
)
from avoidance.stats import empirical_stats, faithfulness_tests, gap_law_chisquare
from avoidance.traces import check_1avoidance, check_walker_avoidance, project, symbol_array

from oracles import marginalize_witness, product_witness, replay_certificate, trace_word

WORKED_EXAMPLE = "1 3 B 2 3 3 B 3 B 1 B 2 B 1 3"
CORPUS = ((1, 10), (2, 9), (3, 7))


def criterion(number, description, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_criterion_1_worked_example():
    seq = parse_seq(WORKED_EXAMPLE, 3)
    start = time.perf_counter()
    scan = pair_scan(seq)
    den, scale = weight_scale(scan.max_b)
    threes = [Fraction(scale[b], den) for i, _, _, b in scan.pairs if i == 3]
    total, blanks = scan.total, blank_count(seq)
    elapsed = time.perf_counter() - start
    ok = (
        threes == [Fraction(1, 2), Fraction(0), Fraction(1), Fraction(1, 3)]
        and total == 3
        and blanks == 5
        and total <= blanks
        and elapsed < 1e-3
    )
    criterion(1, "worked example weights 1/2, 0, 1, 1/3; total 3 <= blanks 5",
              ok, f"{elapsed * 1e6:.0f} us")


def test_criterion_2_exhaustive_inequality():
    start = time.perf_counter()
    reports = [verify_lemma_exhaustive(k, max_len) for k, max_len in CORPUS]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 60.0
    detail = ", ".join(f"k={r.k}:{r.checked}" for r in reports) + f", {elapsed:.1f}s"
    criterion(2, "exhaustive corpora satisfy total weight <= blanks, 0 counterexamples",
              ok, detail)


def test_criterion_3_certificate_soundness():
    certs = victims = 0
    all_ok = True
    for k, max_len in CORPUS:
        for word in permissible_words(k, max_len):
            cert = reduce_certificate(Seq(k, word))
            certs += 1
            if not check_certificate(cert).ok:
                all_ok = False
                break
            for before, step, after in replay_certificate(cert):
                if step.rule != DELETE_VICTIM_SYMBOL:
                    continue
                victims += 1
                # integer tables over the word's weight unit: the inputs
                # conserve the weight, the victim is admissible, and its
                # deletion changes the weight by input - output
                scan = pair_scan(before)
                received = redistribution(scan)
                gain = received.get(step.arg, 0) - scan.scaled_outputs().get(step.arg, 0)
                if sum(received.values()) != scan.scaled_total or gain < 0:
                    all_ok = False
                if pair_scan(after).total - scan.total != Fraction(gain, scan.denominator):
                    all_ok = False
    # mutation control: a tampered delta must be rejected
    cert = reduce_certificate(parse_seq(WORKED_EXAMPLE, 3))
    bad_step = cert.steps[0]._replace(weight_delta=cert.steps[0].weight_delta + 1)
    tampered_rejected = not check_certificate(
        cert._replace(steps=(bad_step,) + cert.steps[1:])
    ).ok
    ok = all_ok and tampered_rejected
    criterion(3, "certificates verify on the full corpus; tampering is rejected",
              ok, f"{certs} certificates, {victims} victim steps")


def test_criterion_4_bounds():
    start = time.perf_counter()
    wb21 = max_walkers(21)
    n = np.arange(21, 10**6 + 1, dtype=np.float64)
    all_below = bool((np.ceil(n - np.log(n)) < n - 2).all())
    p_star = max_p(2)
    root_ok = abs(feasible_pressure(p_star) - 0.5) < 1e-9 and 0.365 < p_star < 0.366
    taylor_ok = all(
        abs(taylor_partial(p, 10**4) + p * p * math.log(p)) < 1e-6
        for p in [x / 10 for x in range(1, 10)]
    )
    elapsed = time.perf_counter() - start
    ok = (wb21.value == 18 < 19) and all_below and root_ok and taylor_ok and elapsed < 10.0
    criterion(4, "max_walkers(21)=18<19, bound < n-2 up to 1e6, max_p(2) root, series",
              ok, f"{elapsed:.1f}s")


def test_criterion_5_simulator_statistics():
    p, T, seed = 0.3, 10**6, 2024
    start = time.perf_counter()
    trace = simulate(IndependentSites(1, p), T, seed)
    est = empirical_stats(symbol_array(trace), 1)
    _, pvalue, _ = gap_law_chisquare(est.gap_histogram[1], p)
    elapsed = time.perf_counter() - start
    sigma = math.sqrt(p * (1 - p) / T)
    blank_ok = abs(float(est.blank_rate) - 0.7) < 3 * sigma
    weight_ok = abs(float(est.weight_rate_total) - p * (1 - p)) < 0.005
    lower_ok = float(est.weight_rate_total) >= -p * p * math.log(p)
    ok = blank_ok and weight_ok and pvalue > 1e-3 and lower_ok and elapsed < 30.0
    criterion(5, "k=1 p=0.3 T=1e6: blank rate, weight rate, gap law, lower bound",
              ok, f"blank={float(est.blank_rate):.6f}, weight={float(est.weight_rate_total):.6f}, "
                  f"pvalue={pvalue:.3f}, {elapsed:.1f}s")


def test_criterion_6_negative_controls(tmp_path):
    p, T = 0.3, 10**5
    trace = simulate(IndependentSites(2, p), T, seed=101)
    report = check_1avoidance(trace)
    freq = report.counts.get("simultaneous", 0) / T
    sigma = math.sqrt(p * p * (1 - p * p) / T)
    freq_ok = abs(freq - p * p) < 3 * sigma

    ind_path = tmp_path / "ind.txt"
    run_cli(["simulate", "independent", "--k", "2", "--p", "0.3", "--T", str(T),
             "--seed", "101", "--out", str(ind_path)])
    code_ind, _ = run_cli(["check-trace", "--in", str(ind_path)])

    rr_path = tmp_path / "rr.txt"
    run_cli(["simulate", "round-robin", "--k", "2", "--T", "10000", "--seed", "0",
             "--out", str(rr_path)])
    code_rr, _ = run_cli(["stats", "--in", str(rr_path), "--p", "0.5"])
    rr_report = faithfulness_tests(simulate(RoundRobin(2), 10**4, 0), 0.5)
    lag1_fails = any(
        o.name == "autocorr_lag_1" and not o.passed for o in rr_report.outcomes
    )

    ok = freq_ok and lag1_fails and code_ind == 1 and code_rr == 1
    criterion(6, "independent walkers collide at rate p^2; round robin fails lag-1; exit 1",
              ok, f"freq={freq:.5f}, exits=({code_ind},{code_rr})")


def test_criterion_7_projection_and_waves():
    rng = np.random.default_rng(7070)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(4, 9))
        looped = bool(rng.integers(2))
        k_max = min(4, n if looped else n - 1)
        k = int(rng.integers(1, k_max + 1))
        T = int(rng.integers(10, 41))
        trace = simulate(AvoidingWalkers(n, k, looped=looped), T, int(rng.integers(2**32)))
        if not check_walker_avoidance(trace).ok:
            failures += 1
            continue
        proj = project(trace, 1)
        if not check_1avoidance(proj).ok or not is_permissible(trace_word(proj)):
            failures += 1
    n, T = 5, 10**6
    waves_trace = simulate(StayingInWaves(AvoidingWalkers(n, 1)), T, seed=77)
    counts = np.bincount(waves_trace.rows[:, 0], minlength=n + 1)[1:]
    sigma = math.sqrt((1 / n) * (1 - 1 / n) / T)
    waves_ok = all(abs(c / T - 1 / n) < 4 * sigma for c in counts)
    ok = failures == 0 and waves_ok
    criterion(7, "1000 walker traces project to valid couplings; wave frequencies uniform",
              ok, f"failures={failures}, max dev={max(abs(c / T - 0.2) for c in counts):.2e}")


def test_criterion_8_lp_relaxation():
    start = time.perf_counter()
    lp_k1 = build_window_lp(1, Fraction(3, 10), 3)
    res_k1 = solve_feasibility(lp_k1)
    witness_ok = check_witness_exact(lp_k1, product_witness(Fraction(3, 10), 3))

    res_hi = solve_feasibility(build_window_lp(2, Fraction(51, 100), 1))
    lp_m3 = build_window_lp(2, Fraction(1, 8), 3)
    res_anchor = solve_feasibility(lp_m3)
    marg_ok = False
    if res_anchor.status == "feasible":
        lp_m2 = build_window_lp(2, Fraction(1, 8), 2)
        marg = marginalize_witness(lp_m3, res_anchor.witness)
        marg_ok = witness_residual(lp_m2, marg) < 1e-8
    elapsed = time.perf_counter() - start
    ok = (
        res_k1.status == "feasible"
        and witness_ok
        and res_hi.status == "infeasible"
        and res_anchor.status == "feasible"
        and marg_ok
        and elapsed < 60.0
    )
    criterion(8, "LP: k=1 feasible with exact product witness, p>1/2 infeasible, "
                 "achievable anchor feasible, marginals nest",
              ok, f"{elapsed:.1f}s")


def test_criterion_9_reproducibility(tmp_path):
    invocations = [
        ["simulate", "waves", "--n", "5", "--k", "1", "--T", "2000", "--seed", "9"],
        ["simulate", "trivial-k1", "--p", "0.3", "--T", "2000", "--seed", "4"],
        ["verify-lemma", "--k", "2", "--max-len", "6", "--format", "json", "--jobs", "1"],
        ["lp-scan", "--k", "2", "--m", "2", "--grid", "0.1,0.3,0.51", "--format", "csv"],
        ["maxp", "--k", "3", "--format", "json"],
    ]
    ok = True
    for args in invocations:
        code_a, out_a = run_cli(args)
        code_b, out_b = run_cli(args)
        if code_a != code_b or out_a != out_b:
            ok = False
            break
    criterion(9, "identical invocations with identical seeds are byte-identical", ok)
