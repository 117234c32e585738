"""Command-line front end.

Subcommands: weights, reduce, verify-lemma, bound, maxp, taylor, simulate,
check-trace, stats, lp-build, lp-scan.  Exit codes: 0 success/verified/
feasible, 1 violation/counterexample/infeasible, 2 usage or domain error.
Identical invocations (same flags and seed) produce byte-identical output;
JSON and CSV reports embed the tool version, the seed, and the full flag set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, bounds, lemma, lp, policies, reporting, sequences, stats, traces

# the size and probability options each simulate policy reads
POLICY_OPTIONS = {
    "trivial-k1": ("p",),
    "round-robin": ("k",),
    "independent": ("k", "p"),
    "walkers": ("n", "k"),
    "walkers-looped": ("n", "k"),
    "waves": ("n", "k"),
}
POLICIES = tuple(POLICY_OPTIONS)

# capped listings keep reports on huge traces readable and deterministic
MAX_LISTED_VIOLATIONS = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoidance",
        description="Verification, simulation, and bounds for avoidance couplings.",
    )
    parser.add_argument("--version", action="version", version=f"avoidance {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, formats=("json", "csv", "text")):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    sp = add("weights", cmd_weights, "neighbor-pair weights of a sequence")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--in", dest="infile", default="-", help="sequence file, - for stdin")

    sp = add("reduce", cmd_reduce, "reduction certificate for a sequence", ("json", "text"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--in", dest="infile", default="-")

    sp = add("verify-lemma", cmd_verify_lemma, "exhaustively check total weight <= blanks")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-len", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None, help="process cap (default: the usable CPUs)")

    sp = add("bound", cmd_bound, "walker-count bound ceil(n - ln n)")
    sp.add_argument("--n", type=int, required=True)

    sp = add("maxp", cmd_maxp, "largest p consistent with k walkers")
    sp.add_argument("--k", type=int, required=True)

    sp = add("taylor", cmd_taylor, "partial sum of p^2 (1-p)^b / b, b = 1..T")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--T", type=int, required=True, help="number of series terms")

    sp = add("simulate", cmd_simulate, "generate a trace with a named policy", ("text",))
    sp.add_argument("policy", choices=POLICIES)
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--k", type=int, default=None, help="walkers (default 1)")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)

    sp = add("check-trace", cmd_check_trace, "avoidance checks for a trace file")
    sp.add_argument("--in", dest="infile", default="-")

    sp = add("stats", cmd_stats, "empirical statistics and faithfulness tests of a binary trace")
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--p", type=float, required=True)

    sp = add("lp-build", cmd_lp_build, "build the window LP and export it as MPS", ("json", "text"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=str, required=True, help="rational, e.g. 0.3 or 1/8")
    sp.add_argument("--m", type=int, required=True)

    sp = add("lp-scan", cmd_lp_scan, "window-LP feasibility over a grid of p values")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--grid", type=str, required=True, help="comma-separated p values")

    return parser


def _meta(ns: argparse.Namespace) -> dict:
    args = {
        k: v
        for k, v in sorted(vars(ns).items())
        if k not in ("command", "handler") and v is not None
    }
    return {
        "tool": "avoidance",
        "version": __version__,
        "command": ns.command,
        "seed": getattr(ns, "seed", None),
        "args": args,
    }


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_trace(path: str):
    return traces.read_trace(sys.stdin if path == "-" else path)


def _write(ns: argparse.Namespace, text: str) -> None:
    if ns.out is None:
        sys.stdout.write(text)
    else:
        with open(ns.out, "w") as fh:
            fh.write(text)


def _emit(ns, body: dict, text_lines: list[str], csv_rows=None) -> None:
    if ns.format == "json":
        _write(ns, reporting.render_json({**_meta(ns), **body}))
    elif ns.format == "csv":
        if csv_rows is None:
            csv_rows = [{"key": k, "value": v} for k, v in _flatten(body)]
        # the columns are the first row's keys: no command emits an empty table
        _write(ns, reporting.render_csv(_meta(ns), list(csv_rows[0]), csv_rows))
    else:
        _write(ns, "\n".join(text_lines) + "\n")


def _flatten(body: dict, prefix: str = ""):
    for k, v in body.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _flatten(v, key + ".")
        elif isinstance(v, (list, tuple)) and any(isinstance(x, dict) for x in v):
            # one row per field of each item, keyed by its index: pairs.0.symbol
            yield from _flatten(dict(enumerate(v)), key + ".")
        elif isinstance(v, (list, tuple)):
            yield key, " ".join(map(reporting.csv_cell, v))
        else:
            yield key, v


def cmd_weights(ns) -> int:
    from fractions import Fraction  # loaded with sequences; kept out of start-up

    seq = sequences.parse_seq(_read_text(ns.infile), ns.k)
    scan = sequences.pair_scan(seq)
    total, blanks, outputs = scan.total, sequences.blank_count(seq), scan.outputs()
    den, scale = sequences.weight_scale(scan.max_b)
    pairs = [(i, t1, t2, b, Fraction(scale[b], den)) for i, t1, t2, b in scan.pairs]
    body = {
        "k": seq.k,
        "T": seq.T,
        "permissible": sequences.is_permissible(seq),
        "total": total,
        "blanks": blanks,
        "output": {str(i): w for i, w in outputs.items()},
        "pairs": [
            {"symbol": i, "t1": t1, "t2": t2, "b": b, "weight": w} for i, t1, t2, b, w in pairs
        ],
    }
    lines = [f"total {reporting.frac_text(total)}", f"blanks {blanks}"]
    lines += [f"output {i} {reporting.frac_text(w)}" for i, w in outputs.items()]
    lines += [f"pair {i} {t1} {t2} b={b} w={reporting.frac_text(w)}" for i, t1, t2, b, w in pairs]
    _emit(ns, body, lines)
    return 0


def cmd_reduce(ns) -> int:
    seq = sequences.parse_seq(_read_text(ns.infile), ns.k)
    cert = lemma.reduce_certificate(seq)
    check = lemma.check_certificate(cert)
    cert_text = lemma.certificate_to_text(cert)
    if ns.format == "json":
        body = {
            "steps": len(cert.steps),
            "total": sequences.pair_scan(seq).total,
            "blanks": sequences.blank_count(seq),
            "verified": check.ok,
            "certificate": cert_text.splitlines(),
        }
        _write(ns, reporting.render_json({**_meta(ns), **body}))
    else:
        _write(ns, cert_text)
    return 0 if check.ok else 1


def cmd_verify_lemma(ns) -> int:
    report = lemma.verify_lemma_exhaustive(ns.k, ns.max_len, jobs=ns.jobs)
    body = {
        "k": report.k,
        "max_len": report.max_len,
        "checked": report.checked,
        "by_length": {str(l): c for l, c in report.by_length.items()},
        "counterexamples": list(report.counterexamples),
        "ok": report.ok,
    }
    lines = [f"checked {report.checked}", f"counterexamples {len(report.counterexamples)}"]
    lines += [f"counterexample {text}" for text in report.counterexamples]
    rows = [{"length": l, "count": c} for l, c in report.by_length.items()]
    _emit(ns, body, lines, csv_rows=rows)
    return 0 if report.ok else 1


def cmd_bound(ns) -> int:
    wb = bounds.max_walkers(ns.n)
    body = {
        "n": wb.n,
        "value": wb.value,
        "raw": wb.raw,
        "intermediate": wb.intermediate,
    }
    _emit(ns, body, [str(wb.value)])
    return 0


def cmd_maxp(ns) -> int:
    p_star = bounds.max_p(ns.k)
    _emit(ns, {"k": ns.k, "value": p_star}, [repr(p_star)])
    return 0


def cmd_taylor(ns) -> int:
    value = bounds.taylor_partial(ns.p, ns.T)
    limit = -ns.p * ns.p * math.log(ns.p)
    body = {"p": ns.p, "terms": ns.T, "value": value, "limit": limit, "gap": limit - value}
    _emit(ns, body, [repr(value)])
    return 0


def _make_policy(ns):
    name = ns.policy
    unread = [
        f"--{opt}" for opt in ("k", "n", "p") if getattr(ns, opt) is not None and opt not in POLICY_OPTIONS[name]
    ]
    if unread:
        raise ValueError(f"{name} does not take {' or '.join(unread)}")
    k = 1 if ns.k is None else ns.k
    if name == "round-robin":
        return policies.RoundRobin(k)
    if name in ("trivial-k1", "independent"):
        if ns.p is None:
            raise ValueError(f"{name} requires --p")
        return policies.IndependentSites(1 if name == "trivial-k1" else k, ns.p)
    if ns.n is None:
        raise ValueError(f"{name} requires --n")
    walkers = policies.AvoidingWalkers(ns.n, k, looped=name == "walkers-looped")
    return policies.StayingInWaves(walkers) if name == "waves" else walkers


def cmd_simulate(ns) -> int:
    trace = policies.simulate(_make_policy(ns), ns.T, ns.seed)
    _write(ns, traces.write_trace(trace))
    return 0


def cmd_check_trace(ns) -> int:
    trace = _read_trace(ns.infile)
    if isinstance(trace, traces.WalkerTrace):
        report = traces.check_walker_avoidance(trace, MAX_LISTED_VIOLATIONS)
        kind = "walker"
    else:
        report = traces.check_1avoidance(trace, MAX_LISTED_VIOLATIONS)
        kind = "binary"
    listed = report.violations
    body = {
        "trace": kind,
        "rounds": report.rounds,
        "ok": report.ok,
        "violation_count": report.total,
        "counts": report.counts,
        "violations": [
            {"kind": v.kind, "t": v.t, "i": v.i, "j": v.j} for v in listed
        ],
        "listed": len(listed),
    }
    if report.ok:
        lines = ["OK"]
    else:
        lines = [f"violations {report.total}"]
        lines += [f"{v.kind} t={v.t} i={v.i} j={v.j}" for v in listed]
        if report.total > len(listed):
            lines.append(f"... {report.total - len(listed)} more")
    _emit(ns, body, lines)
    return 0 if report.ok else 1


def cmd_stats(ns) -> int:
    trace = _read_trace(ns.infile)
    if not isinstance(trace, traces.CouplingTrace):
        raise ValueError("stats expects a binary occupancy trace")
    report = stats.faithfulness_tests(trace, ns.p)
    body = {"T": trace.T, "k": trace.k, "p": ns.p, "faithful": report.passed}
    lines = [f"T {trace.T}", f"k {trace.k}", f"faithful {str(report.passed).lower()}"]
    try:
        symbols = traces.symbol_array(trace)
    except ValueError:
        symbols = None
        body["encodable"] = False
        lines.append("encodable false")
    if symbols is not None:
        est = stats.empirical_stats(symbols, trace.k)
        body.update(
            {
                "encodable": True,
                "blanks": est.blanks,
                "blank_rate": est.blank_rate,
                "occupancy_rate": est.occupancy_rate,
                "weight_rate_total": est.weight_rate_total,
                "weight_rate": {str(i): w for i, w in sorted(est.weight_rate.items())},
                "gap_histogram": {
                    str(i): {str(g): c for g, c in h.items()}
                    for i, h in sorted(est.gap_histogram.items())
                },
            }
        )
        lines += [
            f"blanks {est.blanks}",
            f"blank_rate {reporting.sig12(float(est.blank_rate))}",
            f"occupancy_rate {reporting.sig12(float(est.occupancy_rate))}",
            f"weight_rate_total {reporting.frac_text(est.weight_rate_total)}",
        ]
        lines += [
            f"weight_rate {i} {reporting.frac_text(w)}" for i, w in sorted(est.weight_rate.items())
        ]
    body["tests"] = [
        {
            "name": o.name,
            "walker": o.walker,
            "statistic": o.statistic,
            "threshold": o.threshold,
            "passed": o.passed,
        }
        for o in report.outcomes
    ]
    lines += [
        f"test {o.name} walker={o.walker} stat={reporting.sig12(o.statistic)} "
        f"threshold={reporting.sig12(o.threshold)} {'pass' if o.passed else 'FAIL'}"
        for o in report.outcomes
    ]
    _emit(ns, body, lines)
    return 0 if report.passed else 1


def cmd_lp_build(ns) -> int:
    inst = lp.build_window_lp(ns.k, ns.p, ns.m)
    mps = lp.write_mps(inst)
    if ns.format == "json":
        body = {
            "k": inst.k,
            "p": inst.p,
            "m": inst.m,
            "variables": inst.num_vars,
            "rows": inst.num_rows,
            "support_zeros": len(inst.zero_vars),
            "mps": mps.splitlines(),
        }
        _write(ns, reporting.render_json({**_meta(ns), **body}))
    else:
        _write(ns, mps)
    return 0


def cmd_lp_scan(ns) -> int:
    grid = [tok for tok in ns.grid.split(",") if tok.strip()]
    if not grid:
        raise ValueError("empty grid")
    entries = lp.scan_p(ns.k, ns.m, grid)
    rows = [
        {
            "p": e.p,
            "status": e.status,
            "gap": e.gap,
            "residual": e.residual,
            "analytic_maxp_verdict": e.within_max_p,
            "trivial_verdict": e.within_trivial,
        }
        for e in entries
    ]
    lines = [
        f"p={reporting.frac_text(e.p)} status={e.status}"
        + (f" gap={reporting.sig12(e.gap)}" if e.gap is not None else "")
        + f" within_maxp={str(e.within_max_p).lower()}"
        for e in entries
    ]
    _emit(ns, {"k": ns.k, "m": ns.m, "entries": rows}, lines, csv_rows=rows)
    return 1 if any(e.status == "infeasible" for e in entries) else 0


def main(argv=None) -> int:
    # One OpenBLAS thread unless the caller chose a positive count; OpenBLAS
    # reads an empty or zero one as unset.  numpy's import starts OpenBLAS's
    # pool, whose idle worker busy-waits on a second core for about 0.13 s
    # per process, and no command does float BLAS work: the only matrix
    # products (traces.symbol_array, stats._window_chisquare) multiply
    # integer arrays, which never reach BLAS; the LP commands import no
    # numpy, and HiGHS neither uses OpenBLAS nor starts threads; stats
    # prints the same digits at any BLAS thread count.  Layers load lazily,
    # so numpy loads after this line.  The caller's value, or its absence,
    # is restored on return, so a program that runs main in process passes
    # its own setting on to its children.
    caller = os.environ.get("OPENBLAS_NUM_THREADS")
    count = (caller or "").strip()
    if not (count.isascii() and count.isdigit() and int(count) > 0):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _run(argv)
    finally:
        if caller is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = caller


def _run(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except (ValueError, OSError, OverflowError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size past the address space; a bare MemoryError carries no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
