"""Workload plans: CLI invocations generated from a seed, and their checks.

Every invocation carries a check that compares the program's output with
values this module computes on its own, from the definitions in the README
and PAPER rather than from the package: permissible-word counts by a
recurrence, neighbor-pair weights from the definition, row and blank counts
and violation counts read from the trace files with numpy, the known LP
verdicts, and the MPS sizes of the window LP.  A check raises ``Mismatch`` on
any disagreement and otherwise returns the exact counts it observed, which
the runner compares across passes of the same seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

BLANK = 0

# lemma-sweep: two exhaustive sweeps plus one long seeded word.
LEMMA_SWEEPS = ((2, 8), (4, 5))
LONG_WORD_K = 4
LONG_WORD_LEN = 400
LONG_WORD_BLANK_P = 0.35

# trace-pipeline: faithful source through stats, greedy walkers and the
# independent negative control through check-trace.
TRIVIAL_P = "0.3"
TRIVIAL_T = 300_000
WALKERS_N, WALKERS_K, WALKERS_T = 12, 4, 30_000
INDEPENDENT_K, INDEPENDENT_P, INDEPENDENT_T = 3, "0.2", 80_000

# lp-frontier: verdicts at these points are known; the infeasible ones are
# the instances whose phase-one duals were turned into exact Farkas
# certificates, so they must stay infeasible under any solver change.
LP_VERDICTS = {
    (3, 6, Fraction(1, 10)): "feasible",
    (3, 6, Fraction(1, 5)): "feasible",
    (3, 6, Fraction(3, 10)): "infeasible",
    (2, 6, Fraction(9, 20)): "infeasible",
}
# build-only at the size of the k = 3 scan, so build and solve separate
LP_BUILD_K, LP_BUILD_M = 3, 6
LP_BUILD_PS = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))


class Mismatch(Exception):
    """The program's output disagrees with the benchmark's own expectation."""


Check = Callable[[int, str], dict]


@dataclass(frozen=True)
class Invocation:
    """One ``python -m avoidance`` call and the check of its result.

    ``label`` names the invocation in reports and in the trace.  ``work`` is
    the number of work units it is credited with, and ``rated`` says whether
    its wall time is in the denominator of the workload's rate metric.
    """

    label: str
    argv: tuple[str, ...]
    check: Check
    work: int = 0
    rated: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    workload: str
    rate_name: str
    invocations: tuple[Invocation, ...]
    inputs: dict  # the values drawn from the workload seed, for the report


def expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Independent oracles


def permissible_count(k: int, max_len: int, exact_len: bool = False) -> int:
    """Permissible words over {B, 1..k} of length 1..max_len (or exactly max_len).

    ``ends[s]`` counts words of the current length ending in symbol s: a
    blank may follow anything, walker j may follow a blank or a walker <= j.
    """
    ends = [1] * (k + 1)
    total = k + 1
    for _ in range(max_len - 1):
        ends = [sum(ends)] + [ends[0] + sum(ends[1 : j + 1]) for j in range(1, k + 1)]
        total += sum(ends)
    return sum(ends) if exact_len else total


def random_permissible_word(rng: random.Random, k: int, length: int) -> list[int]:
    """A permissible word: after walker j only a blank or a walker >= j may follow."""
    word: list[int] = []
    for _ in range(length):
        last = word[-1] if word else BLANK
        if rng.random() < LONG_WORD_BLANK_P:
            word.append(BLANK)
        else:
            word.append(rng.randint(max(last, 1), k))
    return word


def weights_from_definition(word: list[int]) -> tuple[Fraction, dict[int, Fraction], int]:
    """Total weight, per-walker outputs and pair count, straight from the definition.

    A neighbor pair is two successive occurrences of one walker; its weight
    is 1/b for b distinct symbols strictly between them, 0 when b = 0.
    """
    last_seen: dict[int, int] = {}
    outputs: dict[int, Fraction] = {}
    pairs = 0
    for t, sym in enumerate(word):
        if sym == BLANK:
            continue
        if sym in last_seen:
            b = len(set(word[last_seen[sym] + 1 : t]))
            outputs[sym] = outputs.get(sym, Fraction(0)) + (Fraction(1, b) if b else 0)
            pairs += 1
        last_seen[sym] = t
    return sum(outputs.values(), Fraction(0)), outputs, pairs


def max_p(k: int) -> float:
    """Root of p (1 - p ln p) = 1/k by bisection to 1e-12 (1.0 for k = 1)."""
    if k == 1:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid * (1.0 - mid * math.log(mid)) < 1.0 / k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def read_trace_file(path: Path) -> tuple[list[int], np.ndarray, int]:
    """Header fields, the (T, k) matrix and the file size in bytes."""
    raw = path.read_bytes()
    head, _, body = raw.partition(b"\n")
    header = [int(x) for x in head.split()]
    T, k = header[0], header[1]
    values = np.fromstring(body.decode("ascii"), dtype=np.int64, sep=" ")
    expect(f"{path.name} value count", values.size, T * k)
    return header, values.reshape(T, k), len(raw)


def binary_violations(rows: np.ndarray) -> int:
    """Simultaneous pairs plus lower-after-higher occupancies at successive times."""
    ones = rows.sum(axis=1)
    count = int((ones * (ones - 1) // 2).sum())
    k = rows.shape[1]
    for i in range(k):
        for j in range(i + 1, k):
            count += int(np.count_nonzero(rows[1:, i] & rows[:-1, j]))
    return count


def walker_violations(pos: np.ndarray, looped: bool) -> int:
    """Landings on a moved earlier walker or a waiting later one, plus self loops."""
    k = pos.shape[1]
    count = 0
    for i in range(k):
        for j in range(i + 1, k):
            count += int(np.count_nonzero(pos[:, i] == pos[:, j]))
            count += int(np.count_nonzero(pos[1:, i] == pos[:-1, j]))
        if not looped:
            count += int(np.count_nonzero(pos[1:, i] == pos[:-1, i]))
    return count


# ---------------------------------------------------------------------------
# Checks


def check_verify_lemma(k: int, max_len: int) -> Check:
    words = permissible_count(k, max_len)

    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 0)
        expect("output", out.splitlines(), [f"checked {words}", "counterexamples 0"])
        return {"words": words}

    return check


def check_weights(word: list[int]) -> Check:
    total, outputs, pairs = weights_from_definition(word)
    blanks = word.count(BLANK)

    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 0)
        lines = out.splitlines()
        expect("total line", lines[0], f"total {frac_text(total)}")
        expect("blanks line", lines[1], f"blanks {blanks}")
        got_outputs = {
            int(f[1]): Fraction(f[2]) for f in (ln.split() for ln in lines) if f[0] == "output"
        }
        expect("per-walker outputs", got_outputs, outputs)
        expect("pair count", sum(1 for ln in lines if ln.startswith("pair ")), pairs)
        return {"pairs": pairs}

    return check


def check_reduce(word: list[int], k: int, cert_path: Path) -> Check:
    total, _, _ = weights_from_definition(word)
    blanks = word.count(BLANK)
    text = " ".join("B" if s == BLANK else str(s) for s in word)

    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 0)
        expect("stdout", out, "")
        lines = cert_path.read_text().splitlines()
        expect("certificate header", lines[0], f"{k} {len(word)}")
        expect("initial word", lines[1], text)
        # terminal: no walker and no adjacent blanks; a collapse may have
        # taken the last blank, so the empty word is terminal too
        final = lines[-1]
        if final not in ("", "B"):
            raise Mismatch(f"final word {final!r} is not terminal")
        weight_delta, blank_delta = Fraction(0), 0
        steps: dict[str, int] = {}
        for line in lines[2:-1]:
            rule, _, wd, bd = line.split()
            steps[rule] = steps.get(rule, 0) + 1
            weight_delta += Fraction(wd)
            blank_delta += int(bd)
        # the final word has no pairs, so the deltas unwind the whole weight
        expect("summed weight deltas", weight_delta, -total)
        expect("summed blank deltas", blank_delta, final.count("B") - blanks)
        return {f"steps.{rule}": n for rule, n in sorted(steps.items())} | {
            "cert_bytes": cert_path.stat().st_size
        }

    return check


def check_simulated(path: Path, header: list[int], values: range) -> Check:
    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 0)
        expect("stdout", out, "")
        got_header, rows, size = read_trace_file(path)
        expect("trace header", got_header, header)
        if rows.size and not (rows.min() >= values.start and rows.max() < values.stop):
            raise Mismatch(f"{path.name}: values outside {values.start}..{values.stop - 1}")
        return {"bytes": size}

    return check


def check_stats(path: Path, p: str) -> Check:
    def check(rc: int, out: str) -> dict:
        _, rows, _ = read_trace_file(path)
        x = rows[:, 0]
        T = x.size
        occupied = np.flatnonzero(x)
        blanks = T - occupied.size
        # with one walker, b = 1 exactly when a blank separates the pair
        weight = int(np.count_nonzero(np.diff(occupied) >= 2))
        lines = out.splitlines()
        faithful = {"faithful true": True, "faithful false": False}.get(lines[2])
        if faithful is None:
            raise Mismatch(f"faithful line: got {lines[2]!r}")
        # a faithful source fails a 4-sigma test now and then; that is only an
        # error when the exit code does not say the same
        expect("exit code", rc, 0 if faithful else 1)
        expect(
            "summary lines",
            lines[:2] + lines[3:8],
            [
                f"T {T}",
                "k 1",
                f"blanks {blanks}",
                f"blank_rate {format(blanks / T, '.12g')}",
                f"occupancy_rate {format((T - blanks) / T, '.12g')}",
                f"weight_rate_total {frac_text(Fraction(weight, T))}",
                f"weight_rate 1 {frac_text(Fraction(weight, T))}",
            ],
        )
        return {"blanks": blanks, "tests": sum(1 for ln in lines if ln.startswith("test "))}

    return check


def check_trace_check(path: Path, walker: bool) -> Check:
    def check(rc: int, out: str) -> dict:
        header, rows, _ = read_trace_file(path)
        if walker:
            violations = walker_violations(rows, looped=bool(header[3]))
        else:
            violations = binary_violations(rows)
        lines = out.splitlines()
        if violations:
            expect("exit code", rc, 1)
            expect("first line", lines[0], f"violations {violations}")
        else:
            expect("exit code", rc, 0)
            expect("output", lines, ["OK"])
        return {"violations": violations}

    return check


def check_lp_scan(k: int, m: int, grid: list[Fraction]) -> Check:
    p_star = max_p(k)
    want = [
        f"p={frac_text(p)} status={LP_VERDICTS[(k, m, p)]}"
        f" within_maxp={str(float(p) <= p_star).lower()}"
        for p in grid
    ]
    infeasible = any(LP_VERDICTS[(k, m, p)] == "infeasible" for p in grid)

    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 1 if infeasible else 0)
        # the gap of an infeasible point is a float; the verdict is what counts
        got = [" ".join(f for f in ln.split() if not f.startswith("gap=")) for ln in out.splitlines()]
        expect("verdicts", got, want)
        return {"infeasible": sum(LP_VERDICTS[(k, m, p)] == "infeasible" for p in grid)}

    return check


def lp_sizes(k: int, m: int) -> dict:
    """Rows, columns, nonzeros, RHS entries and pinned windows of the window LP.

    Rows: normalization, one shift row per length m-1 word, one faithfulness
    row per walker and {0,1}^m pattern.  Each shift row has 2(k+1) entries,
    except that a constant word's all-equal window cancels (m >= 2); every
    window sits in exactly one faithfulness row per walker.
    """
    windows = (k + 1) ** m
    shift_nnz = (k + 1) ** (m - 1) * 2 * (k + 1) - 2 * (k + 1)
    return {
        "rows": 1 + (k + 1) ** (m - 1) + k * 2**m,
        "cols": windows,
        "nnz": windows + shift_nnz + k * windows,
        "rhs": 1 + k * 2**m,
        "pinned": windows - permissible_count(k, m, exact_len=True),
    }


def check_lp_build(k: int, m: int, mps_path: Path) -> Check:
    want = lp_sizes(k, m)

    def check(rc: int, out: str) -> dict:
        expect("exit code", rc, 0)
        expect("stdout", out, "")
        section = None
        rows = nnz = rhs = pinned = 0
        cols = set()
        with mps_path.open() as fh:
            for line in fh:
                if not line.startswith(" "):
                    section = line.split()[0]
                    continue
                fields = line.split()
                if section == "ROWS" and fields[0] == "E":
                    rows += 1
                elif section == "COLUMNS":
                    cols.add(fields[0])
                    nnz += 1
                elif section == "RHS":
                    rhs += 1
                elif section == "BOUNDS" and fields[0] == "FX":
                    pinned += 1
        expect("MPS sizes", {"rows": rows, "cols": len(cols), "nnz": nnz, "rhs": rhs, "pinned": pinned}, want)
        expect("last section", section, "ENDATA")
        return want | {"mps_bytes": mps_path.stat().st_size}

    return check


def check_version(rc: int, out: str) -> dict:
    expect("exit code", rc, 0)
    if not out.startswith("avoidance "):
        raise Mismatch(f"version line: got {out!r}")
    return {}


# ---------------------------------------------------------------------------
# Plans


def lemma_sweep(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    word = random_permissible_word(rng, LONG_WORD_K, LONG_WORD_LEN)
    word_path = workdir / "long_word.txt"
    word_path.write_text(" ".join("B" if s == BLANK else str(s) for s in word) + "\n")
    cert_path = workdir / "long_word.cert"
    invocations = [
        Invocation(
            f"verify-lemma k={k} L={max_len}",
            ("verify-lemma", "--k", str(k), "--max-len", str(max_len), "--jobs", "2"),
            check_verify_lemma(k, max_len),
            work=permissible_count(k, max_len),
            rated=True,
        )
        for k, max_len in LEMMA_SWEEPS
    ]
    invocations += [
        Invocation(
            "weights long",
            ("weights", "--k", str(LONG_WORD_K), "--in", str(word_path)),
            check_weights(word),
        ),
        Invocation(
            "reduce long",
            ("reduce", "--k", str(LONG_WORD_K), "--in", str(word_path), "--out", str(cert_path)),
            check_reduce(word, LONG_WORD_K, cert_path),
        ),
    ]
    return Plan("lemma-sweep", "words_per_s", tuple(invocations), {"long_word": word})


def trace_pipeline(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    s_trivial, s_walkers, s_indep = (rng.randrange(2**31) for _ in range(3))
    trivial, walkers, indep = (workdir / f"{n}.trace" for n in ("trivial", "walkers", "independent"))
    invocations = (
        Invocation(
            "simulate trivial-k1",
            ("simulate", "trivial-k1", "--p", TRIVIAL_P, "--T", str(TRIVIAL_T),
             "--seed", str(s_trivial), "--out", str(trivial)),
            check_simulated(trivial, [TRIVIAL_T, 1], range(0, 2)),
            work=TRIVIAL_T,
            rated=True,
        ),
        Invocation("stats trivial", ("stats", "--in", str(trivial), "--p", TRIVIAL_P),
                   check_stats(trivial, TRIVIAL_P), rated=True),
        Invocation(
            "simulate walkers",
            ("simulate", "walkers", "--n", str(WALKERS_N), "--k", str(WALKERS_K),
             "--T", str(WALKERS_T), "--seed", str(s_walkers), "--out", str(walkers)),
            check_simulated(walkers, [WALKERS_T, WALKERS_K, WALKERS_N, 0], range(1, WALKERS_N + 1)),
        ),
        Invocation("check-trace walkers", ("check-trace", "--in", str(walkers)),
                   check_trace_check(walkers, walker=True)),
        Invocation(
            "simulate independent",
            ("simulate", "independent", "--k", str(INDEPENDENT_K), "--p", INDEPENDENT_P,
             "--T", str(INDEPENDENT_T), "--seed", str(s_indep), "--out", str(indep)),
            check_simulated(indep, [INDEPENDENT_T, INDEPENDENT_K], range(0, 2)),
        ),
        Invocation("check-trace independent", ("check-trace", "--in", str(indep)),
                   check_trace_check(indep, walker=False)),
    )
    seeds = {"trivial-k1": s_trivial, "walkers": s_walkers, "independent": s_indep}
    return Plan("trace-pipeline", "rows_per_s", invocations, {"simulate_seeds": seeds})


def lp_frontier(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    grid3 = [p for (k, m, p) in LP_VERDICTS if (k, m) == (3, 6)]
    rng.shuffle(grid3)
    build_p = rng.choice(LP_BUILD_PS)
    mps_path = workdir / "window.mps"
    invocations = [
        Invocation(
            f"lp-scan k={k} m={m}",
            ("lp-scan", "--k", str(k), "--m", str(m), "--grid", ",".join(map(frac_text, grid))),
            check_lp_scan(k, m, grid),
            work=len(grid) * (k + 1) ** m,
            rated=True,
        )
        for k, m, grid in ((3, 6, grid3), (2, 6, [Fraction(9, 20)]))
    ]
    invocations.append(
        Invocation(
            f"lp-build k={LP_BUILD_K} m={LP_BUILD_M}",
            ("lp-build", "--k", str(LP_BUILD_K), "--p", frac_text(build_p), "--m", str(LP_BUILD_M),
             "--out", str(mps_path)),
            check_lp_build(LP_BUILD_K, LP_BUILD_M, mps_path),
        )
    )
    seeds = {"grid_k3": [frac_text(p) for p in grid3], "build_p": frac_text(build_p)}
    return Plan("lp-frontier", "lp_windows_per_s", tuple(invocations), seeds)


PLANS = {"lemma-sweep": lemma_sweep, "trace-pipeline": trace_pipeline, "lp-frontier": lp_frontier}
