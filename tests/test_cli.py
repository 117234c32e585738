import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from avoidance import __version__, lp
from avoidance.cli import POLICIES, POLICY_OPTIONS, build_parser, main
from avoidance.reporting import csv_cell
from strategies import trace_texts, word_texts

WORKED_EXAMPLE = "1 3 B 2 3 3 B 3 B 1 B 2 B 1 3"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(WORKED_EXAMPLE + "\n")
    return str(path)


def test_bound_prints_value():
    code, out = run_cli(["bound", "--n", "21"])
    assert code == 0
    assert out == "18\n"


def test_bound_domain_error_exit_2(capsys):
    assert main(["bound", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_2():
    assert main(["bound"]) == 2
    assert main(["no-such-command"]) == 2


def test_bound_json_embeds_meta():
    code, out = run_cli(["bound", "--n", "21", "--format", "json"])
    report = json.loads(out)
    assert report["tool"] == "avoidance"
    assert report["version"]
    assert report["command"] == "bound"
    assert report["args"]["n"] == 21
    assert report["value"] == 18
    assert "seed" in report


def test_weights_json(seq_file):
    code, out = run_cli(["weights", "--k", "3", "--in", seq_file, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["total"] == "3/1"
    assert report["blanks"] == 5
    assert report["output"]["3"] == "11/6"


def test_weights_rejects_bad_sequence(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 4\n")
    assert main(["weights", "--k", "3", "--in", str(path)]) == 2


def test_reduce_round_trips(seq_file, tmp_path):
    out_path = tmp_path / "cert.txt"
    code, _ = run_cli(["reduce", "--k", "3", "--in", seq_file, "--out", str(out_path)])
    assert code == 0
    from avoidance.lemma import certificate_from_text, check_certificate

    cert = certificate_from_text(out_path.read_text())
    assert check_certificate(cert).ok
    assert cert.initial.text() == WORKED_EXAMPLE


def test_verify_lemma_json():
    code, out = run_cli(
        ["verify-lemma", "--k", "2", "--max-len", "5", "--format", "json", "--jobs", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counterexamples"] == []
    assert report["checked"] == 3 + 8 + 21 + 55 + 144


def readme_command_table():
    """{subcommand: (usage cell, --format values)} from README's command table."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| Subcommand | `--format` | Purpose |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        usage, formats, _ = (cell.strip() for cell in line.strip("|").split("|", 2))
        rows[usage.strip("`").split()[0]] = (usage, formats.split(", "))
    return rows


def test_readme_command_table_matches_the_parser():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    rows = readme_command_table()
    assert sorted(rows) == sorted(sub.choices)
    for name, parser in sub.choices.items():
        usage, formats = rows[name]
        options = {flag: action for action in parser._actions for flag in action.option_strings}
        for flag in re.findall(r"--[\w-]+", usage):
            assert flag in options, (name, flag)
        assert sorted(formats) == sorted(options["--format"].choices), name


def test_maxp_text():
    code, out = run_cli(["maxp", "--k", "2"])
    assert code == 0
    assert 0.365 < float(out) < 0.366


def test_taylor_uses_T_as_term_count():
    code, out = run_cli(["taylor", "--p", "0.5", "--T", "200"])
    assert code == 0
    import math

    assert float(out) == pytest.approx(0.25 * math.log(2), abs=1e-12)


def test_simulate_and_check_trace_ok(tmp_path):
    trace = tmp_path / "trace.txt"
    code, _ = run_cli(
        ["simulate", "trivial-k1", "--p", "0.3", "--T", "50", "--seed", "4", "--out", str(trace)]
    )
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header == "50 1"
    code, out = run_cli(["check-trace", "--in", str(trace)])
    assert code == 0
    assert out == "OK\n"


def test_check_trace_flags_independent(tmp_path):
    trace = tmp_path / "ind.txt"
    run_cli(
        ["simulate", "independent", "--k", "2", "--p", "0.4", "--T", "2000",
         "--seed", "1", "--out", str(trace)]
    )
    code, out = run_cli(["check-trace", "--in", str(trace), "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violation_count"] > 0
    assert report["counts"].get("simultaneous", 0) > 0


def test_stats_round_robin_fails_faithfulness(tmp_path):
    trace = tmp_path / "rr.txt"
    run_cli(["simulate", "round-robin", "--k", "2", "--T", "10000", "--seed", "0",
             "--out", str(trace)])
    code, out = run_cli(["stats", "--in", str(trace), "--p", "0.5", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["faithful"] is False


def test_stats_faithful_source(tmp_path):
    trace = tmp_path / "ok.txt"
    run_cli(["simulate", "trivial-k1", "--p", "0.3", "--T", "20000", "--seed", "8",
             "--out", str(trace)])
    code, out = run_cli(["stats", "--in", str(trace), "--p", "0.3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["faithful"] is True
    assert report["encodable"] is True
    # exact identity: weight_rate_total * T == integer total
    num, den = map(int, report["weight_rate_total"].split("/"))
    assert (num * report["T"]) % den == 0


def test_stats_rejects_walker_trace(tmp_path):
    trace = tmp_path / "walk.txt"
    run_cli(["simulate", "walkers", "--n", "5", "--k", "2", "--T", "20", "--seed", "0",
             "--out", str(trace)])
    assert main(["stats", "--in", str(trace), "--p", "0.2"]) == 2


def test_stats_p_too_small_for_the_frequency_test_exit_2(tmp_path, capsys):
    # at p = 1e-300, p(1-p)/T is still a normal float and gets a verdict;
    # below the normal range it has lost precision, and at 0 the z-test
    # would divide by it
    trace = tmp_path / "ok.txt"
    run_cli(["simulate", "trivial-k1", "--p", "0.3", "--T", "10000", "--seed", "8",
             "--out", str(trace)])
    assert run_cli(["stats", "--in", str(trace), "--p", "1e-300"])[0] == 1
    for p in ("1e-304", "1e-320", "5e-324"):
        capsys.readouterr()
        assert main(["stats", "--in", str(trace), "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: p = {float(p)} is too small for T = 10000 rounds" in captured.err


def test_weights_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 B 1\n"))
    code, out = run_cli(["weights", "--k", "1", "--in", "-"])
    assert code == 0
    assert "total 1/1" in out


def test_weights_text_does_not_depend_on_the_alphabet_size(monkeypatch):
    # the weight unit is sized by the word, so a million walkers cost no
    # lcm(1..10^6) table
    outs = []
    for k in ("2", "1000000"):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 B 1\n"))
        code, out = run_cli(["weights", "--k", k, "--in", "-"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "total 1/1\nblanks 1\noutput 1 1/1\npair 1 1 3 b=1 w=1/1\n"


def test_lp_build_writes_mps(tmp_path):
    out_path = tmp_path / "inst.mps"
    code, _ = run_cli(
        ["lp-build", "--k", "2", "--p", "1/8", "--m", "2", "--out", str(out_path)]
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("NAME window_lp_k2_m2")
    assert text.rstrip().endswith("ENDATA")


def test_lp_scan_csv_and_exit_code():
    code, out = run_cli(
        ["lp-scan", "--k", "2", "--m", "1", "--grid", "0.1,0.5,0.51", "--format", "csv"]
    )
    assert code == 1
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "p,status,gap,residual,analytic_maxp_verdict,trivial_verdict"
    # CSV renders rationals as num/den, as JSON does
    assert lines[1].startswith("1/10,feasible")
    assert lines[3].startswith("51/100,infeasible")


def test_verify_lemma_csv_is_the_count_per_length():
    code, out = run_cli(["verify-lemma", "--k", "2", "--max-len", "4", "--format", "csv"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["length,count", "1,3", "2,8", "3,21", "4,55"]


def test_lp_scan_all_feasible_exit_0():
    code, _ = run_cli(["lp-scan", "--k", "1", "--m", "2", "--grid", "0.2,0.8"])
    assert code == 0


def test_lp_scan_failed_solve_is_unknown(monkeypatch, capsys):
    # HiGHS status 4: numerical difficulties, no solution to report
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        return SimpleNamespace(status=4, x=None, fun=None, message="numerical difficulties")

    monkeypatch.setattr(lp, "linprog", failing)
    assert main(["lp-scan", "--k", "2", "--m", "2", "--grid", "0.3,0.51"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "p=3/10 status=unknown within_maxp=true\np=51/100 status=unknown within_maxp=false\n"
    assert captured.err == ""
    assert len(calls) == 2


# sha256 of `lp-scan` stdout at the lp-frontier benchmark's points, text and
# JSON (its version field set to VERSION).  The text digests were computed
# before the solve called HiGHS's extension directly instead of
# scipy.optimize.linprog; the JSON ones since the report dropped its
# tolerance field, with the gaps and residuals of the solve over reversal
# orbits
LP_SCAN_DIGESTS = [
    (3, 6, "1/10", "1d53dddc851d8e142d026ab22986134f80af2eb609cd19fcd0cb2634048cd6a5",
     "55335275f78471b9a2de116461483c821454fbdb684f92a05a705f7655b983c6"),
    (3, 6, "1/5", "5239eb061f3a5d5ae7e1a1cecfb199203eff1336849e7dc6e39c66d4335a890a",
     "9823284976bb30729837d4618c16e66086c06c59858f2e251108a48a7a2edf81"),
    (3, 6, "3/10", "ff8f1f455381041b63cf9f06c70a54ce538f246a436fc940ce252fdd46031363",
     "f21d72911a8fb2409b285a94425f2b2c564bf9f50038d4d53cb84527033ba1eb"),
    (2, 6, "9/20", "252c95fd70525ed9fb4f0bb488123e36acaf9e3308c29fa71e9f5cf3a223be39",
     "7639bbb1a0940705cfa2ce6a125e8e7917bd1e3bc9191b79162a6d060f96a913"),
]


@pytest.mark.parametrize("k, m, p, text_digest, json_digest", LP_SCAN_DIGESTS)
def test_lp_scan_output_is_pinned(k, m, p, text_digest, json_digest):
    argv = ["lp-scan", "--k", str(k), "--m", str(m), "--grid", p]
    code, text = run_cli(argv)
    _, js = run_cli(argv + ["--format", "json"])
    js = js.replace(f'"version": "{__version__}"', '"version": "VERSION"', 1)
    assert code == (1 if "infeasible" in text else 0)
    assert hashlib.sha256(text.encode()).hexdigest() == text_digest
    assert hashlib.sha256(js.encode()).hexdigest() == json_digest


# sha256 of `lp-build` stdout, computed before the MPS writer walked column
# arrays instead of a scipy matrix
LP_BUILD_DIGESTS = [
    (3, "1/10", 6, "0263ad70e12b2251aaf8e1658486a1c45c2e02100d437ab6d3469b9058b16cd6"),
    (3, "1/5", 6, "f6517afe0dce2f85b67e5d7e1a7ab22cd02cd7195c7b4dacb1b7ca3e6161f992"),
    (3, "3/10", 6, "3816e2f419bfa0695ca95ec814b7eee53665ec38eeb8fa09ddfe663fd8000d51"),
    (2, "9/20", 6, "d457d829d3d784d3cb35cd29d99fc752f345ca213f8da71afe37e76326358011"),
]


@pytest.mark.parametrize("k, p, m, digest", LP_BUILD_DIGESTS)
def test_lp_build_output_is_pinned(k, p, m, digest):
    code, out = run_cli(["lp-build", "--k", str(k), "--p", p, "--m", str(m)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of JSON stdout without its version line, computed while the window
# LP was built and folded in numpy arrays and handed to HiGHS as arrays (the
# lp-scan one since the report dropped its tolerance field); with the
# lp-build text digests above, they hold the build, the fold and the MPS
# text that HiGHS now reads to the same bytes
LP_JSON_DIGESTS = [
    (["lp-scan", "--k", "3", "--m", "6", "--grid", "1/10,1/5,3/10"], 1,
     "0ecfec2f2e73a67d70dcc2bf6d35e0dc9a489d3ff9893dada4fa6894aaa8d6f1"),
    (["lp-build", "--k", "3", "--p", "1/5", "--m", "6"], 0,
     "b1892bcbbfad927f8b0c87c0e0aabf6ae5ab700bb5154ee53263003480d3ab82"),
]


@pytest.mark.parametrize("argv, exit_code, digest", LP_JSON_DIGESTS, ids=[a[0] for a, _, _ in LP_JSON_DIGESTS])
def test_lp_json_output_is_pinned(argv, exit_code, digest):
    code, out = run_cli(argv + ["--format", "json"])
    assert code == exit_code
    body = "".join(line for line in out.splitlines(keepends=True) if not line.startswith('  "version": '))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def seeded_word(seed, k=6, length=400):
    """A permissible word: after walker j only a blank or a walker >= j follows."""
    rng = random.Random(seed)
    word, last = [], 0
    for _ in range(length):
        last = 0 if rng.random() < 0.35 else rng.randint(max(last, 1), k)
        word.append("B" if last == 0 else str(last))
    return " ".join(word)


# sha256 of `reduce` stdout, text and JSON (its version field set to
# VERSION), computed before the local rules were read from one table
REDUCE_DIGESTS = [
    (WORKED_EXAMPLE, 3, "322800d6f94a195fb1aa5447020d23ed6edde22bf27cb5fe39c4815736f01a1c",
     "0a8da13f2d55c475cec4d7f141dcfe02af28735f58ce22dc4bc5558400b7c26c"),
    (seeded_word(1), 6, "4312f84775af8e7d911b4105295dc83de69e5353486068b969937e9402a566c3",
     "5f7c1dc8b783e01e2d1494fecc6b1405a598354d8e1338e6fe8c4aac3cffc04d"),
    (seeded_word(2), 6, "e2879009d9ed90cc55736355c67d53fef435feca871f504d44b6f455bf42d687",
     "8a1be1df1694464aa3f3317ab12147c2b63c0b732596489cf6c157fc4e2cec64"),
    (seeded_word(3), 6, "f44ec4fd5f929bd0c4c4793ed554880ef0296b49620d86e3da47359d8f0dc14e",
     "6c397849e2236af70d50ab20f580cc95963bc4bc7fa112879aa3af894c0403bb"),
    (seeded_word(4), 6, "859ce9ae8cacbee9ff2912581da1b972bd4197ca00b3068f625d7032e79c2eb4",
     "4e02edb968fbbb82c727495d8d56b9f1ec311531c0be3533d3577c7b76f7251c"),
    (seeded_word(5), 6, "27f6107372e25f8bcc4cefe5e4efb2822f30c28a3d9108bf2062820c75aa5db1",
     "f96069f6ee1143b1e03e13973a19c685819bc1116d4d9ad27a50b02ecb9b7738"),
]


@pytest.mark.parametrize("word, k, text_digest, json_digest", REDUCE_DIGESTS)
def test_reduce_output_is_pinned(word, k, text_digest, json_digest, monkeypatch):
    argv = ["reduce", "--k", str(k), "--in", "-"]
    monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
    code, text = run_cli(argv)
    monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
    _, js = run_cli(argv + ["--format", "json"])
    js = js.replace(f'"version": "{__version__}"', '"version": "VERSION"', 1)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == text_digest
    assert hashlib.sha256(js.encode()).hexdigest() == json_digest


# sha256 of `weights` stdout in text, JSON and CSV (their version set to
# VERSION), computed before the command read the weight kernel directly
WEIGHTS_DIGESTS = [
    (WORKED_EXAMPLE, 3, "38d51ad14f1cb947988f121690ac434e11b492627e6de1632fb239c8bb34cfbd",
     "3a0931b2d5ee2e3677a7ea431c51c0ddc2f7648ba85847a257594a2896643456",
     "0d1550cbd5693c1bc1b530aa40d391b1be62293cd1c38a9161b6f881b06a48cf"),
    (seeded_word(1), 6, "82f74bc800c839c11cb050ee5d1beefa9cee1a815832cadb5b505f8d66eab0d3",
     "97f7e876804895a6631ea2498a441317f3784bbcb694480b89f033beb2e60387",
     "48cb59f443102fb8a4fb096560218d6decf6fe8d843baa7f197fc56cbd1dd921"),
]


@pytest.mark.parametrize("word, k, text_digest, json_digest, csv_digest", WEIGHTS_DIGESTS)
def test_weights_output_is_pinned(word, k, text_digest, json_digest, csv_digest, monkeypatch):
    argv = ["weights", "--k", str(k), "--in", "-"]
    digests = []
    for fmt in ("text", "json", "csv"):
        monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
        code, out = run_cli(argv + ["--format", fmt])
        assert code == 0
        out = out.replace(f'"version": "{__version__}"', '"version": "VERSION"', 1)
        out = out.replace(f"# version={__version__}\n", "# version=VERSION\n", 1)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [text_digest, json_digest, csv_digest]


# sha256 of `verify-lemma` stdout in text, JSON and CSV (their version set to
# VERSION), computed before the pool was chosen by the sweep's word count
VERIFY_LEMMA_DIGESTS = [
    (2, 8, 1, "2ef3cfaa3c8ccf28b2bfbee60f5e62b6832ae720be6ad0103f330ae7818f8bd5",
     "c49bb48c750d0d7f229188b041e3225c5cee1080dcda03f397e60c934fb691f6",
     "168d6e2d177e715e40156cd6a6a7668ea55172bff86e5c68f361454d69467f42"),
    (2, 8, 2, "2ef3cfaa3c8ccf28b2bfbee60f5e62b6832ae720be6ad0103f330ae7818f8bd5",
     "d267c37dc5f6dfa43aaf6272cac85724940452d1d71c8057b06c7c898f6fdf82",
     "d9353d67948f20f6f34867428b50d1bae88d365e3dfbe74293ab7962e1e8f18f"),
    (4, 5, 1, "ff7c929d8bbd95786dc9b381e35f2684d262f07b088f06d7482a99f025c8620a",
     "296160117d8b874c8708c58b9161fbc425a7b4583e2eb55b0bff74647131c67f",
     "3a2b876806a2ed2f6fa20fa29b405eb3bb5a396388416e3e4cd4f0e3b7a09619"),
    (4, 5, 2, "ff7c929d8bbd95786dc9b381e35f2684d262f07b088f06d7482a99f025c8620a",
     "6f455c061e6000a14da82e625ac3904adfd04749294b113de36b7a4250d391d7",
     "3c5c4213e95d883ef0876970629a564ae27bab35105911f0c8e171ec0aa4a9fa"),
    (3, 6, 1, "e7183c6955259b1b25b5b30ce2ccdf12c32323026fa96a4cd38abe5161d0ca3d",
     "9a7bb6d51054f67584d8a6ddeccc2d89934024c531c932b58f39076b7ccf8c3b",
     "d33d229c136024acb945b7c6ba718219cd1d58ac7b480dcc54e026b3e0365696"),
    (3, 6, 2, "e7183c6955259b1b25b5b30ce2ccdf12c32323026fa96a4cd38abe5161d0ca3d",
     "29c17796cd346b25fdb9cd59eef0306c1df0e15293514c17eb4d08e61bd087fa",
     "97a2a8bfa02a84f261ea5c3e60afe3962625b37ed303a24b74c5919a3378e174"),
]


@pytest.mark.parametrize("k, max_len, jobs, text_digest, json_digest, csv_digest",
                         VERIFY_LEMMA_DIGESTS)
def test_verify_lemma_output_is_pinned(k, max_len, jobs, text_digest, json_digest, csv_digest):
    argv = ["verify-lemma", "--k", str(k), "--max-len", str(max_len), "--jobs", str(jobs)]
    digests = []
    for fmt in ("text", "json", "csv"):
        code, out = run_cli(argv + ["--format", fmt])
        assert code == 0
        out = out.replace(f'"version": "{__version__}"', '"version": "VERSION"', 1)
        out = out.replace(f"# version={__version__}\n", "# version=VERSION\n", 1)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [text_digest, json_digest, csv_digest]


def json_cells(body, prefix=""):
    """The CSV cells a JSON body flattens to, by key: nested keys join with
    dots, list items that are records are keyed by their index, and a list
    of plain values is one cell, its values separated by spaces."""
    for key, value in body.items():
        if isinstance(value, list) and any(isinstance(x, dict) for x in value):
            value = dict(enumerate(value))
        if isinstance(value, dict):
            yield from json_cells(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            yield f"{prefix}{key}", " ".join(map(csv_cell, value))
        else:
            yield f"{prefix}{key}", csv_cell(value)


def test_csv_rows_have_the_header_fields(tmp_path):
    # list items that are records flatten to one row per field, keyed by
    # index; every cell holds the value JSON holds at the same key, floats
    # read as JSON's own digits
    word = tmp_path / "word.txt"
    word.write_text(WORKED_EXAMPLE + "\n")
    trace = tmp_path / "independent.txt"
    run_cli(["simulate", "independent", "--k", "2", "--p", "0.4", "--T", "10000",
             "--seed", "1", "--out", str(trace)])
    runs = {
        "pairs.0.symbol": ["weights", "--k", "3", "--in", str(word)],
        "value": ["bound", "--n", "21"],
        "k": ["maxp", "--k", "3"],
        "gap": ["taylor", "--p", "0.3", "--T", "100"],
        "violations.0.kind": ["check-trace", "--in", str(trace)],
        "tests.0.statistic": ["stats", "--in", str(trace), "--p", "0.4"],
    }
    meta = ("tool", "version", "command", "seed", "args")
    for key, argv in runs.items():
        code, out = run_cli(argv + ["--format", "csv"])
        assert code in (0, 1), argv
        rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
        assert rows[0] == ["key", "value"], argv
        assert all(len(row) == 2 for row in rows), argv
        assert key in [row[0] for row in rows], argv
        _, js = run_cli(argv + ["--format", "json"])
        body = {k: v for k, v in json.loads(js, parse_float=str).items() if k not in meta}
        assert rows[1:] == [list(cell) for cell in json_cells(body)], argv
    argv = ["lp-scan", "--k", "2", "--m", "3", "--grid", "1/3,0.3,0.51"]
    _, out = run_cli(argv + ["--format", "csv"])
    rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    _, js = run_cli(argv + ["--format", "json"])
    entries = json.loads(js, parse_float=str)["entries"]
    assert [row[0] for row in rows[1:]] == ["1/3", "3/10", "51/100"]
    assert rows[1:] == [[csv_cell(e[c]) for c in rows[0]] for e in entries]
    assert {e["status"] for e in entries} == {"feasible", "infeasible"}


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--k", "3", "--in", "-", "--format", "csv"],
        ["lp-build", "--k", "2", "--p", "1/8", "--m", "2", "--format", "csv"],
        ["simulate", "round-robin", "--T", "5", "--format", "json"],
        ["simulate", "round-robin", "--T", "5", "--format", "csv"],
    ],
)
def test_formats_a_command_does_not_write_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(WORKED_EXAMPLE + "\n"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


def test_byte_identical_reruns():
    invocations = [
        ["simulate", "waves", "--n", "5", "--k", "1", "--T", "500", "--seed", "33"],
        ["verify-lemma", "--k", "2", "--max-len", "5", "--format", "json", "--jobs", "1"],
        ["lp-scan", "--k", "2", "--m", "1", "--grid", "0.3,0.51", "--format", "csv"],
        ["bound", "--n", "100", "--format", "json"],
    ]
    for args in invocations:
        code_a, out_a = run_cli(args)
        code_b, out_b = run_cli(args)
        assert code_a == code_b
        assert out_a == out_b, args


# sha256 of `simulate ... --T 2000` stdout per policy and seed; a change to
# any policy's random stream or row layout shows up here
SIMULATE_DIGESTS = [
    (["trivial-k1", "--p", "0.3"], 1, "70dd3596218285912e1ab751a819932031ecde3860b0dbb81b8c40b897fcf73b"),
    (["trivial-k1", "--p", "0.3"], 7, "173897f76196cbe0b147cf84df1e1324b3541e4f3a6ab8b24817818469460c36"),
    (["trivial-k1", "--p", "0.3"], 2024, "047a3e9d35bad3136c17d08d166caa02088c7896ba99d1f86723e11cbc39014a"),
    (["round-robin", "--k", "3"], 1, "d41377262f0756c04de2429e0af810c52bfac5d9d80ac2e3edbee536a290ec65"),
    (["round-robin", "--k", "3"], 7, "d41377262f0756c04de2429e0af810c52bfac5d9d80ac2e3edbee536a290ec65"),
    (["round-robin", "--k", "3"], 2024, "d41377262f0756c04de2429e0af810c52bfac5d9d80ac2e3edbee536a290ec65"),
    (["independent", "--k", "3", "--p", "0.2"], 1, "2bc633bf77e76bba897f2e8821bacecc99e1fae516d22b5748b806ead6f5738f"),
    (["independent", "--k", "3", "--p", "0.2"], 7, "f7c7efb216ac7fa727cc7dd7c50dbe55507b1d0aa226aac33bad16ce93dcc7e5"),
    (["independent", "--k", "3", "--p", "0.2"], 2024, "f8d78a4e5d51584e452113c91461569f2c6f47d7948ff86aee09090309132448"),
    (["walkers", "--n", "7", "--k", "3"], 1, "8f2ec43addceafaab36a3d1bf5f8241ccc736a42a5a6ae2683dfa5fdd2af8cd3"),
    (["walkers", "--n", "7", "--k", "3"], 7, "269e8510374f826271d5db59d79fedbd0231901a2cd22c5293e56ae49c4d8d6f"),
    (["walkers", "--n", "7", "--k", "3"], 2024, "3e5829bf739dd8c28bd4f8059d35c8bedf4e329e3bc4b8c8c2f9374a074d02b8"),
    (["walkers-looped", "--n", "5", "--k", "3"], 1, "bff56f13b911e3fe7dc2ce2de14a94af56b0b7c56460ef2ddeb1f11f499dd597"),
    (["walkers-looped", "--n", "5", "--k", "3"], 7, "1495fbe231a78695c418332ecde90e9a2d45b6ac31c703cf31778cd1455bac6b"),
    (["walkers-looped", "--n", "5", "--k", "3"], 2024, "434905346057ec8f3aeef2c93d4cd5037851a09547fe43991cd73cd57d6ffab5"),
    (["waves", "--n", "6", "--k", "2"], 1, "c1ff94444b20a1ac899d0293c799c3a926f35f2527f3771c079fd12b13ba3312"),
    (["waves", "--n", "6", "--k", "2"], 7, "0a1708a5373a8df24220cc46171772154755e88a2e499e67e204f833f2333134"),
    (["waves", "--n", "6", "--k", "2"], 2024, "dc5ea1d1358b31097b5dadab0c50f2d93509bab2c0c5e7dd294c87ae3ff7c4f3"),
]


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["trivial-k1", "--k", "3", "--n", "9", "--p", "0.3"], "--k or --n"),
        (["round-robin", "--k", "2", "--p", "7"], "--p"),
        (["independent", "--k", "2", "--p", "0.3", "--n", "4"], "--n"),
        (["walkers", "--n", "5", "--k", "2", "--p", "0.3"], "--p"),
        (["walkers-looped", "--n", "5", "--p", "0.3"], "--p"),
        (["waves", "--n", "5", "--k", "1", "--p", "0.5"], "--p"),
    ],
)
def test_simulate_rejects_options_its_policy_does_not_read(argv, unread, capsys):
    assert main(["simulate", *argv, "--T", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} does not take {unread}\n"


@pytest.mark.parametrize(
    "argv", [["round-robin"], ["independent", "--p", "0.3"], ["walkers", "--n", "4"], ["waves", "--n", "4"]]
)
def test_simulate_k_defaults_to_one(argv):
    assert run_cli(["simulate", *argv, "--T", "50"]) == run_cli(["simulate", *argv, "--k", "1", "--T", "50"])


@pytest.mark.parametrize("policy, seed, digest", SIMULATE_DIGESTS)
def test_simulate_output_is_pinned(policy, seed, digest):
    code, out = run_cli(["simulate", *policy, "--T", "2000", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_entry_point(seq_file):
    proc = subprocess.run(
        [sys.executable, "-m", "avoidance", "bound", "--n", "21"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "18\n"


def test_bound_exact_beyond_float_precision():
    code, out = run_cli(["bound", "--n", str(10**20)])
    assert code == 0
    assert out == f"{10**20 - 46}\n"


def test_bound_json_has_no_ambiguity_flag():
    _, out = run_cli(["bound", "--n", "21", "--format", "json"])
    assert "ambiguous" not in json.loads(out)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_maxp_rejects_bad_tolerance_exit_2(tol, capsys):
    # maxp takes no tolerance: it prints the largest float the exact test accepts
    assert main(["maxp", "--k", "3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --tol={tol}" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["lp-scan", "--k", "2", "--m", "2", "--grid", "1/0"],
        ["lp-scan", "--k", "2", "--m", "2", "--grid", "0.1,3/0"],
        ["lp-build", "--k", "2", "--m", "2", "--p", "1/0"],
    ],
)
def test_zero_denominator_exit_2(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: zero denominator" in captured.err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
def test_lp_scan_rejects_bad_tolerance_exit_2(tol, capsys):
    # lp-scan takes no tolerance: a witness re-verifies within lp.WITNESS_TOL
    assert main(["lp-scan", "--k", "2", "--m", "1", "--grid", "0.3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --tol={tol}" in captured.err


def test_maxp_huge_k_is_relative():
    code, out = run_cli(["maxp", "--k", str(10**23)])
    assert code == 0
    assert float(out) == pytest.approx(1e-23, rel=1e-9)


def test_maxp_k_past_the_float_range_exit_2(capsys):
    assert main(["maxp", "--k", str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: int too large to convert to float\n"


@pytest.mark.parametrize("k", [2, 3, 4, 43])
def test_lp_scan_accepts_the_printed_maxp_and_refuses_the_next_float(k):
    # at k = 43 the next float's binary value lies below the root and its
    # shortest decimal above it: lp-scan tests the decimal maxp prints, in
    # every format
    argv = ["maxp", "--k", str(k), "--format"]
    _, text = run_cli(argv + ["text"])
    _, js = run_cli(argv + ["json"])
    _, table = run_cli(argv + ["csv"])
    cells = dict(csv.reader(line for line in table.splitlines() if not line.startswith("#")))
    for printed in (text.strip(), json.loads(js, parse_float=str)["value"], cells["value"]):
        above = repr(math.nextafter(float(printed), 1.0))
        for p, verdict in [(printed, "true"), (above, "false")]:
            _, line = run_cli(["lp-scan", "--k", str(k), "--m", "1", "--grid", p])
            assert line.endswith(f" within_maxp={verdict}\n"), (p, line)


def test_lp_build_huge_m_exit_2(capsys):
    assert main(["lp-build", "--k", "1", "--p", "1/3", "--m", str(10**10)]) == 2
    assert "exceed the budget" in capsys.readouterr().err


def test_lp_build_rhs_that_rounds_to_zero_exit_2(capsys):
    # the exact right-hand side of faith_1_11 is p^2 = 1e-400; at p = 1e-100
    # it is 1e-200, a float
    code, out = run_cli(["lp-build", "--k", "1", "--p", "1e-100", "--m", "2"])
    assert code == 0 and "    RHS R_faith_1_11 1e-200\n" in out
    for fmt in ("text", "json"):
        assert main(["lp-build", "--k", "1", "--p", "1e-200", "--m", "2", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: the right-hand side of row R_faith_1_11 is nonzero but rounds to 0.0"
                in captured.err)


JUNK = ["nan", "-nan", "inf", "-inf", "1/0", "-3/0", "", "1e999", "0x10", "abc"]
HUGE = [10**15, 10**23, 2**64 + 1, 10**40]
NUMERIC = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(HUGE).map(str),
    st.sampled_from(HUGE).map(lambda n: str(-n)),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(min_value=-3, max_value=3, max_denominator=50).map(str),
    st.sampled_from(JUNK),
)
# options draw valid values often enough that the success paths run too
PROB = st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr)
RATIONAL = st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100).map(str)
# the LP commands keep k <= 4 and m <= 4, so a valid instance has at most 625 windows
SMALL = st.one_of(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "nan", "inf", "1/0", "2.5"]))
TERMS = st.one_of(st.integers(-2, 10**5).map(str), NUMERIC)
# simulate sizes are at most 50 or at least 10^15: an array that large fails
# to allocate at once, while a mid-range size would really be allocated;
# valid values are drawn often enough that the success paths run too
def mostly(valid):
    """``valid`` four draws in five, else a NUMERIC value.  one_of would
    flatten NUMERIC's branches and draw its junk far more often."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else NUMERIC)


SIZE = mostly(st.one_of(st.integers(1, 50).map(str), st.sampled_from(HUGE).map(str)))
SIMULATE_OPTIONS = {
    "--k": SIZE,
    "--n": SIZE,
    "--T": SIZE,
    "--p": mostly(PROB),
    "--seed": mostly(st.integers(0, 2**64).map(str)),
}


def unread_options(name, opts):
    """The options in ``opts`` that simulate policy ``name`` does not read."""
    policy = name.removeprefix("simulate ")
    return [flag for flag in ("--k", "--n", "--p") if flag in opts and flag[2:] not in POLICY_OPTIONS[policy]]


def command_args():
    """(subcommand words, {option: value}) with numeric options for five
    subcommands and each simulate policy.  A policy always gets the options
    it reads and sometimes those it does not."""
    grid = st.lists(st.one_of(RATIONAL, PROB, NUMERIC), min_size=1, max_size=2).map(",".join)
    options = {
        "bound": {"--n": NUMERIC},
        "maxp": {"--k": NUMERIC},
        "taylor": {"--p": st.one_of(PROB, NUMERIC), "--T": TERMS},
        "lp-build": {"--k": SMALL, "--p": st.one_of(RATIONAL, PROB, NUMERIC), "--m": SMALL},
        "lp-scan": {"--k": SMALL, "--m": SMALL, "--grid": grid},
    }
    drawn = {name: st.fixed_dictionaries(opts) for name, opts in options.items()}
    for policy in POLICIES:
        unread = unread_options(policy, SIMULATE_OPTIONS)
        drawn[f"simulate {policy}"] = st.fixed_dictionaries(
            {flag: s for flag, s in SIMULATE_OPTIONS.items() if flag not in unread},
            optional={flag: SIMULATE_OPTIONS[flag] for flag in unread},
        )
    return st.one_of(st.tuples(st.just(name), opts) for name, opts in drawn.items())


# the --format values each command writes, where not all three; the rest are
# usage errors, which test_formats_a_command_does_not_write_exit_2 covers
FORMATS = {"reduce": ["text", "json"], "lp-build": ["text", "json"], "simulate": ["text"]}


def formats(command):
    return st.sampled_from(FORMATS.get(command, ["text", "json", "csv"]))


@settings(max_examples=300, deadline=None)
@given(command=command_args(), data=st.data())
def test_numeric_options_keep_the_exit_code_contract(command, data):
    name, opts = command
    fmt = data.draw(formats(name.split()[0]))
    # option=value, so a value that starts with "-" is not read as a flag
    argv = name.split() + [f"--format={fmt}"] + [f"{flag}={value}" for flag, value in opts.items()]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # a simulation has no verdict, so exit 1 is never its answer
    assert code in ((0, 2) if name.startswith("simulate") else (0, 1, 2)), argv
    if name.startswith("simulate") and unread_options(name, opts):
        assert code == 2, argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().strip() not in ("", "error:"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["round-robin", "--k", str(10**15), "--T", "3"],
        ["trivial-k1", "--p", "0.3", "--T", str(10**15)],
        # the start tuple's bare MemoryError has no text of its own
        ["walkers-looped", "--n", str(10**15), "--k", str(10**15), "--T", "3"],
        # a start tuple longer than sys.maxsize is an OverflowError
        ["walkers-looped", "--n", str(10**23), "--k", str(10**23), "--T", "3"],
    ],
)
def test_simulate_past_the_address_space_exit_2(argv, capsys):
    assert main(["simulate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.strip() != "error:"


@pytest.mark.parametrize("command", [["stats", "--p", "0.3"], ["check-trace"]])
def test_trace_value_past_int64_exit_2(command, capsys):
    with mock.patch("sys.stdin", io.StringIO("1 1\n99999999999999999999\n")):
        assert main(command + ["--in", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "64-bit" in captured.err


@pytest.mark.parametrize("text", ["3 1\n1\n256\n0\n", "1 2\n0 257\n", "1 1\n-255\n"])
@pytest.mark.parametrize("command", [["stats", "--p", "0.3"], ["check-trace"]])
def test_binary_values_past_one_exit_2(command, text, tmp_path, capsys):
    # each value wraps into {0, 1} if converted to uint8 before the check
    trace = tmp_path / "trace.txt"
    trace.write_text(text)
    assert main(command + ["--in", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: occupancy entries must be 0 or 1\n"


@settings(max_examples=300, deadline=None)
@given(text=trace_texts(), fmt=st.sampled_from(["text", "json", "csv"]))
def test_trace_commands_keep_the_exit_code_contract(text, fmt):
    for command in (["check-trace"], ["stats", "--p", "0.3"]):
        argv = command + ["--in", "-", f"--format={fmt}"]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.getvalue() == "", argv


@settings(max_examples=300, deadline=None)
@given(
    text=word_texts(),
    k=st.integers(1, 300),
    command=st.sampled_from(["weights", "reduce"]),
    data=st.data(),
)
def test_word_commands_keep_the_exit_code_contract(text, k, command, data):
    fmt = data.draw(formats(command))
    argv = [command, "--k", str(k), "--in", "-", f"--format={fmt}"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv


def test_lemma_and_bounds_commands_load_no_numpy(tmp_path):
    # the benchmark tracer looks every layer module up in sys.modules, so
    # importing the CLI must still register all nine; the layers are
    # registered, not run, and numpy waits for a command that builds an array
    word = tmp_path / "word.txt"
    word.write_text(WORKED_EXAMPLE + "\n")
    runs = [
        ["weights", "--k", "3", "--in", str(word)],
        ["weights", "--k", "3", "--in", str(word), "--format", "json"],
        ["reduce", "--k", "3", "--in", str(word), "--format", "text"],
        ["reduce", "--k", "3", "--in", str(word), "--format", "json"],
        ["verify-lemma", "--k", "2", "--max-len", "6", "--jobs", "1", "--format", "csv"],
        ["verify-lemma", "--k", "2", "--max-len", "6", "--jobs", "2", "--format", "json"],
        ["bound", "--n", "21", "--format", "json"],
        ["maxp", "--k", "3", "--format", "csv"],
        ["taylor", "--p", "0.3", "--T", "100"],
    ]
    code = f"""
import io, sys
from contextlib import redirect_stdout
import avoidance.cli
layers = ("cli", "sequences", "lemma", "bounds", "policies", "traces", "stats", "lp", "reporting")
print([m for m in layers if "avoidance." + m not in sys.modules])
for argv in {runs!r}:
    with redirect_stdout(io.StringIO()):
        code = avoidance.cli.main(argv)
    print(code)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n" + "0\n" * len(runs) + "[]\n"


LAYERS = ("bounds", "lemma", "lp", "policies", "reporting", "sequences", "stats", "traces")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "word.txt").write_text(WORKED_EXAMPLE + "\n")
    for name, policy in [("binary", ["trivial-k1", "--p", "0.3", "--T", "10000"]),
                         ("walker", ["walkers", "--n", "6", "--k", "3", "--T", "200"])]:
        assert main(["simulate", *policy, "--seed", "1", "--out", str(folder / f"{name}.txt")]) == 0
    return folder


# the layers each command executes, in LAYERS order
EXECUTED_LAYERS = [
    (["--version"], []),
    (["weights", "--k", "3", "--in", "word.txt"], ["reporting", "sequences"]),
    (["weights", "--k", "3", "--in", "word.txt", "--format", "json"], ["reporting", "sequences"]),
    (["reduce", "--k", "3", "--in", "word.txt"], ["lemma", "sequences"]),
    (["verify-lemma", "--k", "2", "--max-len", "5"], ["lemma", "sequences"]),
    (["verify-lemma", "--k", "2", "--max-len", "5", "--format", "csv"],
     ["lemma", "reporting", "sequences"]),
    (["bound", "--n", "21"], ["bounds"]),
    (["maxp", "--k", "3"], ["bounds"]),
    (["taylor", "--p", "0.3", "--T", "10"], ["bounds"]),
    (["simulate", "round-robin", "--k", "2", "--T", "10"], ["policies", "traces"]),
    (["check-trace", "--in", "binary.txt"], ["traces"]),
    (["check-trace", "--in", "walker.txt", "--format", "json"], ["reporting", "traces"]),
    (["stats", "--in", "binary.txt", "--p", "0.3"], ["reporting", "sequences", "stats", "traces"]),
    (["lp-build", "--k", "2", "--p", "1/5", "--m", "3"], ["lp", "sequences"]),
    (["lp-scan", "--k", "2", "--m", "3", "--grid", "1/5"], ["bounds", "lp", "reporting", "sequences"]),
]


@pytest.mark.parametrize("argv, executed", EXECUTED_LAYERS, ids=[" ".join(a) for a, _ in EXECUTED_LAYERS])
def test_each_command_executes_only_the_layers_it_calls(cli_inputs, argv, executed):
    # a registered layer that has not run is still a LazyLoader module; its
    # class becomes the plain module type once its code has executed
    code = f"""
import io, sys, types
from contextlib import redirect_stdout
import avoidance.cli
with redirect_stdout(io.StringIO()):
    code = avoidance.cli.main({argv!r})
print(code)
layers = {LAYERS!r}
print([m for m in layers if "avoidance." + m not in sys.modules])
print([m for m in layers if type(sys.modules["avoidance." + m]) is types.ModuleType])
print("numpy" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cli_inputs,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # numpy is imported by the three array layers alone, when one of them runs
    numpy_loaded = bool({"policies", "stats", "traces"} & set(executed))
    assert proc.stdout.splitlines() == ["0", "[]", repr(executed), repr(numpy_loaded)]


def test_tracer_wraps_layers_the_cli_has_not_run():
    # perfbench's tracer patches every layer module it finds in sys.modules,
    # including those the commands run so far have not executed
    code = """
import io, sys
from contextlib import redirect_stdout
import avoidance.cli
from perfbench import tracing
with redirect_stdout(io.StringIO()):
    assert avoidance.cli.main(["verify-lemma", "--k", "2", "--max-len", "4", "--jobs", "1"]) == 0
lp, bounds = sys.modules["avoidance.lp"], sys.modules["avoidance.bounds"]
rec = tracing.Recorder()
with tracing.instrumented("avoidance", rec):
    print(lp.linprog.__wrapped__.__module__, bounds.max_walkers.__wrapped__.__module__)
    bounds.max_walkers(21)
print(sorted(name for _, name in rec.spans))
print(hasattr(lp.linprog, "__wrapped__"), hasattr(bounds.max_walkers, "__wrapped__"))
"""
    root = str(Path(SRC).parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, root])},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "avoidance.lp avoidance.bounds\n['bounds.max_walkers']\nFalse False\n"


def test_trace_commands_load_no_scipy(tmp_path):
    binary, walker = tmp_path / "binary.txt", tmp_path / "walker.txt"
    runs = [
        ["simulate", "independent", "--k", "2", "--p", "0.3", "--T", "20000", "--seed", "1",
         "--out", str(binary)],
        ["simulate", "walkers", "--n", "6", "--k", "3", "--T", "200", "--seed", "1",
         "--out", str(walker)],
        ["check-trace", "--in", str(binary)],
        ["check-trace", "--in", str(walker), "--format", "json"],
        ["stats", "--in", str(binary), "--p", "0.3"],
        ["stats", "--in", str(binary), "--p", "0.3", "--format", "csv"],
    ]
    code = f"""
import io, sys
from contextlib import redirect_stdout
import avoidance.cli
for argv in {runs!r}:
    with redirect_stdout(io.StringIO()):
        code = avoidance.cli.main(argv)
    print(code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # independent walkers collide, and their marginals are faithful
    assert proc.stdout == "0\n0\n1\n0\n0\n0\n[]\n"


def test_lp_build_loads_no_scipy(tmp_path):
    mps = tmp_path / "window.mps"
    code = f"""
import sys
import avoidance.cli
print(avoidance.cli.main(["lp-build", "--k", "3", "--p", "1/5", "--m", "6", "--out", {str(mps)!r}]))
print(avoidance.cli.main(["lp-build", "--k", "2", "--p", "1/8", "--m", "3", "--format", "json", "--out", {str(mps)!r}]))
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n0\n[]\n"


def test_lp_scan_loads_only_the_highs_extension(tmp_path):
    code = f"""
import io, sys
from contextlib import redirect_stdout
import avoidance.cli
for argv in [["lp-scan", "--k", "3", "--m", "4", "--grid", "1/10,3/10"],
             ["lp-scan", "--k", "2", "--m", "3", "--grid", "1/5", "--format", "json"]]:
    with redirect_stdout(io.StringIO()):
        print(avoidance.cli.main(argv))
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print([m for m in scipy if not m.startswith(avoidance.lp.HIGHS_MODULE)])
print(bool(scipy), "numpy" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # no scipy.optimize, scipy.sparse or scipy package init: only the
    # extension, which the model file reaches without numpy
    assert proc.stdout == "[]\nTrue False\n"


def test_lp_scan_without_a_temp_directory_exits_2(tmp_path, monkeypatch, capsys):
    # HiGHS reads the phase-one model from a temporary file
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert main(["lp-scan", "--k", "2", "--m", "2", "--grid", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_lp_scan_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out = run_cli(["lp-scan", "--k", "2", "--m", "3", "--grid", "1/5,9/20"])
    assert (code, out.split()[1::3]) == (1, ["status=feasible", "status=infeasible"])
    assert list(tmp_path.iterdir()) == []


# the commands that build arrays, and so import numpy
ARRAY_COMMANDS = ("simulate", "check-trace", "stats")


@pytest.mark.parametrize("arrays", [False, True], ids=["no-numpy", "numpy"])
def test_no_command_loads_dataclasses_or_inspect(cli_inputs, arrays):
    # the records are NamedTuples and slots classes, so no layer imports
    # dataclasses, nor with it inspect, ast, dis and tokenize; numpy imports
    # inspect itself, so the commands that build arrays run with numpy
    # imported before the package
    runs = [argv for argv, _ in EXECUTED_LAYERS[1:] if (argv[0] in ARRAY_COMMANDS) == arrays]
    code = f"""
import io, sys
from contextlib import redirect_stdout
{"import numpy" if arrays else ""}
before = set(sys.modules)
import avoidance.cli
for argv in {runs!r}:
    with redirect_stdout(io.StringIO()):
        code = avoidance.cli.main(argv)
    print(code, sorted({{"dataclasses", "inspect"}} & (set(sys.modules) - before)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cli_inputs,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n" * len(runs)


@pytest.mark.parametrize(
    "patch",
    [
        ("importlib.util.find_spec", lambda name: None),
        ("importlib.machinery.EXTENSION_SUFFIXES", [".no-such-suffix"]),
        ("importlib.util.module_from_spec", mock.Mock(side_effect=ImportError("undefined symbol: Highs_run"))),
    ],
    ids=["no-scipy", "no-extension", "load-error"],
)
def test_lp_scan_without_the_highs_extension_exits_2(monkeypatch, capsys, patch):
    monkeypatch.delitem(sys.modules, lp.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(*patch)
    assert main(["lp-scan", "--k", "2", "--m", "2", "--grid", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lp-scan needs scipy>=1.15")
    assert captured.err.count("\n") == 1


def test_taylor_huge_T_returns_quickly():
    # in a subprocess, so a sum that runs for hours fails at the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "avoidance", "taylor", "--p", "0.5", "--T", "1000000000000"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stdout == run_cli(["taylor", "--p", "0.5", "--T", "2000"])[1]


def test_taylor_tiny_p_huge_T_returns_quickly():
    # 1 - p rounds to 1, so the terms shrink only like 1/b
    p, T = 1e-17, 10**15
    proc = subprocess.run(
        [sys.executable, "-m", "avoidance", "taylor", "--p", repr(p), "--T", str(T)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0
    # the sum of (1-p)^b / b is the harmonic number H_T less Ein(x), x = pT,
    # and x - x^2/4 <= Ein(x) <= x - x^2/4 + x^3/18
    x = p * T
    harmonic = math.log(T) + 0.5772156649015329 + 1 / (2 * T)
    value = float(proc.stdout)
    assert p * p * (harmonic - x + x * x / 4 - x**3 / 18) <= value
    assert value <= p * p * (harmonic - x + x * x / 4)


@pytest.mark.parametrize("max_len", ["10000", "30000000"])
def test_verify_lemma_budget_decided_without_the_power(max_len):
    proc = subprocess.run(
        [sys.executable, "-m", "avoidance", "verify-lemma", "--k", "2", "--max-len", max_len],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    # decided at length 17 by the exact count, whatever the requested length
    assert "14930352 permissible words of length 17 exceed the budget 10000000" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_lemma_rejects_jobs_below_one(jobs, capsys):
    assert main(["verify-lemma", "--k", "2", "--max-len", "3", f"--jobs={jobs}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jobs" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_lemma_report_does_not_depend_on_the_cpu_count(monkeypatch, fmt):
    argv = ["verify-lemma", "--k", "2", "--max-len", "5", "--format", fmt]
    outputs = set()
    for cpus in (1, 2, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        code, out = run_cli(argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert "jobs" not in outputs.pop()


OPENBLAS_PROBE = """
import io, os
from contextlib import redirect_stdout
import avoidance.cli
with redirect_stdout(io.StringIO()):
    code = avoidance.cli.main(["simulate", "trivial-k1", "--p", "0.3", "--T", "100"])
print(code, len(os.listdir("/proc/self/task")), repr(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


def run_openblas_probe(preset):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_PROBE],
        env={**env, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # exit code, threads, and the variable as main leaves it, as a repr
    return proc.stdout.rstrip("\n").split(" ", 2)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_cli_runs_openblas_with_one_thread():
    # numpy's import starts OpenBLAS's pool, whose idle worker would spin a
    # second core; no command does float BLAS work.  main unsets the
    # variable again on return.
    assert run_openblas_probe(None) == ["0", "1", "None"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset", ["", " ", "0"])
def test_cli_runs_openblas_with_one_thread_over_an_unset_count(preset):
    # OpenBLAS reads an empty or zero count as unset and starts its pool
    assert run_openblas_probe(preset) == ["0", "1", repr(preset)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_cli_keeps_a_chosen_openblas_thread_count():
    code, _, value = run_openblas_probe("2")
    assert (code, value) == ("0", "'2'")


def test_stats_output_is_independent_of_blas_threads(tmp_path):
    trace = tmp_path / "trace.txt"
    run_cli(["simulate", "trivial-k1", "--p", "0.3", "--T", "100000", "--seed", "3",
             "--out", str(trace)])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "avoidance", "stats", "--in", str(trace), "--p", "0.3"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "autocorr_lag_16" in outputs[0]
