import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avoidance import traces
from avoidance.stats import empirical_stats
from avoidance.sequences import is_permissible
from avoidance.traces import (
    CouplingTrace,
    WalkerTrace,
    check_1avoidance,
    check_walker_avoidance,
    project,
    read_trace,
    write_trace,
)
from oracles import (
    all_1avoidance_violations,
    all_walker_violations,
    rowwise_read_trace,
    rowwise_write_trace,
    trace_word,
)
from strategies import EOL, GAP, trace_texts


def binary(rows):
    rows = np.array(rows, dtype=np.uint8)
    return CouplingTrace(rows.shape[1], rows)


def walkers(rows, n, looped=False):
    rows = np.array(rows, dtype=np.int64)
    return WalkerTrace(n, rows.shape[1], looped, rows)


# ------------------------------------------------------------- check_1avoidance

def test_simultaneous_violation():
    report = check_1avoidance(binary([[1, 1]]))
    assert not report.ok
    v = report.violations[0]
    assert (v.kind, v.t, v.i, v.j) == ("simultaneous", 1, 1, 2)


def test_cross_time_violation():
    report = check_1avoidance(binary([[0, 1], [1, 0]]))
    assert [v.kind for v in report.violations] == ["cross_time"]
    v = report.violations[0]
    assert (v.t, v.i, v.j) == (1, 1, 2)


def test_increasing_order_passes():
    assert check_1avoidance(binary([[1, 0], [0, 1]])).ok


def test_same_walker_consecutively_allowed():
    # only a lower index immediately after a higher one is forbidden
    assert check_1avoidance(binary([[0, 1], [0, 1]])).ok


# ----------------------------------------------- encoding rows as symbols

def test_encode_simple():
    s = trace_word(binary([[1, 0], [0, 0], [0, 1]]))
    assert s.text() == "1 B 2"


def test_encode_all_zero():
    s = trace_word(CouplingTrace(3, np.zeros((5, 3), dtype=np.uint8)))
    assert s.text() == "B B B B B"


def test_encode_rejects_collision():
    with pytest.raises(ValueError, match="row 1 has 2 ones; cannot encode"):
        traces.symbol_array(binary([[1, 1]]))


@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16), (70_000, np.uint32)])
def test_symbol_array_is_the_smallest_unsigned_dtype_holding_k(k, dtype):
    rows = np.zeros((3, k), dtype=np.uint8)
    rows[0, k - 1] = rows[2, 0] = 1
    x = traces.symbol_array(CouplingTrace(k, rows))
    assert x.dtype == dtype and x.dtype.kind == "u" and np.iinfo(x.dtype).max >= k
    assert x.tolist() == [k, 0, 1]


def test_index_dtype_is_int32_while_every_index_fits():
    # only the size is looked at, so nothing of that size is allocated
    assert traces._index_dtype(0) == np.int32
    assert traces._index_dtype(2**31 - 1) == np.int32
    assert traces._index_dtype(2**31) == np.int64
    assert traces._index_dtype(2**40) == np.int64


def test_encode_of_valid_trace_is_permissible():
    rows = [[1, 0], [0, 0], [0, 1], [0, 1], [0, 0], [1, 0]]
    tr = binary(rows)
    assert check_1avoidance(tr).ok
    assert is_permissible(trace_word(tr))


# -------------------------------------------------------- check_walker_avoidance

def test_within_round_collision():
    report = check_walker_avoidance(walkers([[1, 1]], n=4))
    assert report.counts.get("within_round", 0) == 1
    v = report.violations[0]
    assert (v.t, v.i, v.j) == (1, 1, 2)


def test_cross_round_collision():
    # walker 1 moves onto vertex 1 while walker 2 still sits there
    report = check_walker_avoidance(walkers([[2, 1], [1, 3]], n=4))
    assert report.counts.get("cross_round", 0) == 1
    v = [v for v in report.violations if v.kind == "cross_round"][0]
    assert (v.t, v.i, v.j) == (2, 1, 2)


def test_loopless_walker_must_move():
    report = check_walker_avoidance(walkers([[2], [2]], n=4, looped=False))
    assert report.counts.get("self_loop", 0) == 1
    assert check_walker_avoidance(walkers([[2], [2]], n=4, looped=True)).ok


def test_clean_walker_trace_passes():
    report = check_walker_avoidance(walkers([[1, 2], [3, 4], [1, 2]], n=4))
    assert report.ok


# ------------------------------------------------------------------- project

def test_project_single_visit():
    rows = [[2, 3], [3, 1], [2, 3]]
    tr = walkers(rows, n=3)
    proj = project(tr, 1)
    assert proj.rows.tolist() == [[0, 0], [0, 1], [0, 0]]


def test_project_no_visits():
    tr = walkers([[2, 3], [3, 2]], n=4)
    assert project(tr, 4).rows.sum() == 0


def test_project_bad_vertex():
    with pytest.raises(ValueError):
        project(walkers([[1]], n=3), 4)


# --------------------------------------------------------------------- file io

def test_binary_trace_round_trip(tmp_path):
    tr = binary([[1, 0], [0, 1], [0, 0]])
    path = tmp_path / "trace.txt"
    text = write_trace(tr)
    path.write_text(text)
    assert text.splitlines()[0] == "3 2"
    back = read_trace(path)
    assert isinstance(back, CouplingTrace)
    assert (back.rows == tr.rows).all()
    assert write_trace(back) == text


def test_walker_trace_round_trip():
    tr = walkers([[1, 2], [3, 4]], n=5, looped=True)
    text = write_trace(tr)
    assert text.splitlines()[0] == "2 2 5 1"
    back = read_trace(io.StringIO(text))
    assert isinstance(back, WalkerTrace)
    assert back.n == 5 and back.looped
    assert (back.rows == tr.rows).all()


def test_read_trace_rejects_garbage():
    with pytest.raises(ValueError):
        read_trace(io.StringIO("1 2 3\n"))
    with pytest.raises(ValueError):
        read_trace(io.StringIO("2 1\n0\n"))


def test_trace_validation():
    with pytest.raises(ValueError):
        CouplingTrace(2, np.array([[0, 2]], dtype=np.uint8))
    with pytest.raises(ValueError):
        WalkerTrace(3, 1, False, np.array([[4]], dtype=np.int64))
    tr = binary([[1, 0]])
    with pytest.raises(ValueError):
        tr.rows[0, 0] = 0  # rows are frozen read-only


@pytest.mark.parametrize("value", [256, 257, -1, -255, 2, 0.5, 1.5, float("nan")])
def test_occupancy_values_are_checked_before_conversion(value):
    # a uint8 conversion first would wrap 256 to 0 and 257, -255 to 1
    with pytest.raises(ValueError, match="occupancy entries must be 0 or 1"):
        CouplingTrace(2, np.array([[0, 1], [value, 0]]))


@pytest.mark.parametrize("value", [1.7, 0.5, 0, 4, -3, float("nan"), float("inf")])
def test_walker_positions_must_be_integers_in_range(value):
    with pytest.raises(ValueError, match=r"positions must be integers in 1\.\.3"):
        WalkerTrace(3, 1, False, np.array([[1.0], [value]]))


@pytest.mark.parametrize("n, rows", [
    (10**30, np.array([[1e25]])),
    (2**64, np.array([[2**64 - 1]], dtype=np.uint64)),
    (2**64, np.array([[2.0**63]])),
    (10**31, np.array([[10**30]], dtype=object)),
])
def test_walker_positions_past_int64_are_refused(n, rows):
    # the int64 conversion would wrap them, whatever n allows
    with pytest.raises(ValueError, match=f"positions must be integers in 1\\.\\.{n}$"):
        WalkerTrace(n, 1, False, rows)


def test_walker_positions_up_to_the_int64_maximum_are_kept():
    top = 2**63 - 1
    tr = WalkerTrace(2**64, 2, True, np.array([[top, 2**63 - 1024]], dtype=np.uint64))
    assert tr.rows.tolist() == [[top, 2**63 - 1024]]
    assert WalkerTrace(2**64, 1, True, np.array([[2.0**63 - 1024]])).rows.tolist() == [[2**63 - 1024]]


def test_integral_values_of_any_dtype_are_accepted():
    tr = CouplingTrace(2, np.array([[True, False], [False, False]]))
    assert tr.rows.dtype == np.uint8 and tr.rows.tolist() == [[1, 0], [0, 0]]
    assert CouplingTrace(1, np.array([[1.0], [0.0]])).rows.tolist() == [[1], [0]]
    tr = WalkerTrace(3, 2, True, np.array([[1.0, 3.0]]))
    assert tr.rows.dtype == np.int64 and tr.rows.tolist() == [[1, 3]]


@pytest.mark.parametrize("k", [0, -1])
def test_traces_need_a_walker(k):
    with pytest.raises(ValueError, match=f"walker count must be >= 1, got {k}"):
        CouplingTrace(k, np.zeros((3, 0), np.uint8))
    with pytest.raises(ValueError, match=f"walker count must be >= 1, got {k}"):
        WalkerTrace(4, k, False, np.zeros((3, 0), np.int64))


@pytest.mark.parametrize("n", [0, -2])
def test_walker_traces_need_a_vertex(n):
    # such a trace would write a header that read_trace refuses
    with pytest.raises(ValueError, match=f"vertex count must be >= 1, got {n}"):
        WalkerTrace(n, 1, False, np.empty((0, 1)))


@pytest.mark.parametrize("looped", [2, -1, "yes", None, 0.5])
def test_walker_traces_refuse_a_looped_flag_that_is_not_a_bool(looped):
    with pytest.raises(ValueError, match=f"looped must be False or True, got {looped!r}"):
        WalkerTrace(3, 1, looped, [[1]])


@pytest.mark.parametrize("looped", [0, 1, np.True_])
def test_walker_traces_store_looped_as_a_bool(looped):
    tr = WalkerTrace(3, 1, looped, [[1]])
    assert tr.looped is bool(looped)
    assert write_trace(tr) == f"1 1 3 {int(bool(looped))}\n1\n"
    assert read_trace(io.StringIO(write_trace(tr))).looped is tr.looped


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty trace file"),
        ("1 2 3\n", "malformed header '1 2 3'"),
        ("1 1\nx\n", "invalid literal for int() with base 10: 'x'"),
        ("1 1\n1.5\n", "invalid literal for int() with base 10: '1.5'"),
        ("2 1\n0\n", "header says 2 rows, found 1"),
        ("2 2\n0 1 1\n0\n", "row 1 has 3 values, header says 2"),
        ("1 1\n99999999999999999999\n", "outside the 64-bit integer range"),
        ("1 1 9 0\n-99999999999999999999\n", "outside the 64-bit integer range"),
        ("1 1\n9223372036854775808\n", "outside the 64-bit integer range"),
        ("-1 1\n", "header row count must be >= 0, got -1"),
        ("0 -1\n", "header walker count must be >= 1, got -1"),
        ("3 0\n\n\n\n", "header walker count must be >= 1, got 0"),
        ("0 0 4 1\n", "header walker count must be >= 1, got 0"),
        ("3 1\n1\n256\n0\n", "occupancy entries must be 0 or 1"),
        ("1 2\n0 257\n", "occupancy entries must be 0 or 1"),
        ("1 1\n-255\n", "occupancy entries must be 0 or 1"),
        ("0 2 -3 0\n", "header vertex count must be >= 1, got -3"),
        ("0 2 0 0\n", "header vertex count must be >= 1, got 0"),
        ("2 1 3 7\n1\n2\n", "header looped flag must be 0 or 1, got 7"),
        ("1 1 3 -1\n1\n", "header looped flag must be 0 or 1, got -1"),
    ],
)
def test_read_trace_rejections(text, message):
    with pytest.raises(ValueError) as info:
        read_trace(io.StringIO(text))
    assert message in str(info.value)


@pytest.mark.parametrize(
    "text, rows",
    [
        # 18 digits are parsed in place, 19 and more by int()
        ("1 1 999999999999999999 0\n999999999999999999\n", [[10**18 - 1]]),
        ("1 1 9223372036854775807 0\n9223372036854775807\n", [[2**63 - 1]]),
        ("1 1 2000000000000000000 0\n1000000000000000000\n", [[10**18]]),
        # leading zeros, within and past 18 characters
        ("2 2\n001 0000\n000000000000000000 01\n", [[1, 0], [0, 1]]),
        ("2 2\n0000000000000000001 0\n0 00000000000000000000000000001\n", [[1, 0], [0, 1]]),
        # digit runs next to tokens only int() reads
        ("2 2 12 1\n1_0 7\n+3 12\n", [[10, 7], [3, 12]]),
        ("2 2 12 1\n\u0663 7\n11 \uff11\uff12\n", [[3, 7], [11, 12]]),
        ("2 2\n-0 1\n1 00\n", [[0, 1], [1, 0]]),
        ("1 3\xa0\n1\u3000 0 0\x85\n", [[1, 0, 0]]),
    ],
)
def test_read_trace_digit_runs_and_other_tokens(text, rows):
    got, want = read_trace(io.StringIO(text)), rowwise_read_trace(text)
    assert got.rows.tolist() == want.rows.tolist() == rows


def test_char_classes_match_string_methods():
    chars = "".join(map(chr, range(0x110000)))
    cls = traces._char_classes(chars)
    space = np.array([c.isspace() for c in chars])
    ends_line = np.array([len(("a" + c + "b").splitlines()) == 2 for c in chars])
    assert ((cls & traces._SPACE != 0) == space).all()
    assert ((cls & traces._BREAK != 0) == ends_line).all()


def dense_trace(kind, seed, T, k, n, density):
    """A random trace with many ties: binary rows with ones at ``density``,
    or positions on few vertices."""
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return CouplingTrace(k, rng.random((T, k)) < density)
    return WalkerTrace(n, k, kind == "looped", rng.integers(1, n + 1, size=(T, k)))


DENSE_TRACES = st.builds(
    dense_trace,
    kind=st.sampled_from(["binary", "walker", "looped"]),
    seed=st.integers(0, 2**32 - 1),
    T=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 40)),
    k=st.integers(1, 5),
    n=st.integers(1, 6),
    density=st.sampled_from([0.1, 0.5, 0.9]),
)


@settings(max_examples=300, deadline=None)
@given(tr=DENSE_TRACES, data=st.data())
def test_counted_violations_match_the_listing_oracle(tr, data):
    if isinstance(tr, WalkerTrace):
        check, oracle = check_walker_avoidance, all_walker_violations
    else:
        check, oracle = check_1avoidance, all_1avoidance_violations
    want = oracle(tr)
    limit = data.draw(st.one_of(st.none(), st.integers(0, len(want) + 3)))
    report = check(tr, limit)
    assert report.counts == dict(sorted(Counter(v.kind for v in want).items()))
    assert report.total == len(want)
    assert report.ok == (not want)
    assert report.rounds == tr.T
    assert list(report.violations) == want[:limit]


def test_violation_ties_sort_by_kind():
    # rows 1 and 2 give walkers 1 and 2 a simultaneous and a cross-time
    # violation at the same (t, i, j)
    report = check_1avoidance(binary([[1, 1], [1, 0]]), limit=1)
    assert report.counts == {"cross_time": 1, "simultaneous": 1}
    assert [(v.kind, v.t, v.i, v.j) for v in report.violations] == [("cross_time", 1, 1, 2)]
    report = check_walker_avoidance(walkers([[1, 2], [2, 2]], n=3, looped=True), limit=2)
    assert [(v.kind, v.t, v.i, v.j) for v in report.violations] == [
        ("cross_round", 2, 1, 2),
        ("within_round", 2, 1, 2),
    ]
    assert report.counts == {"cross_round": 1, "within_round": 1}


def random_trace(kind, seed, T, k, n):
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return CouplingTrace(k, rng.integers(0, 2, size=(T, k)))
    return WalkerTrace(n, k, kind == "looped", rng.integers(1, n + 1, size=(T, k)))


TRACES = st.builds(
    random_trace,
    kind=st.sampled_from(["binary", "walker", "looped"]),
    seed=st.integers(0, 2**32 - 1),
    T=st.one_of(st.sampled_from([0, 1]), st.integers(0, 60)),
    k=st.integers(1, 5),
    n=st.one_of(st.integers(5, 120), st.sampled_from([10**6 + 3, 2**62])),
)


@settings(max_examples=200, deadline=None)
@given(tr=TRACES)
def test_write_trace_matches_rowwise_writer(tr):
    assert write_trace(tr) == rowwise_write_trace(tr)


@settings(max_examples=200, deadline=None)
@given(tr=TRACES, data=st.data())
def test_read_trace_matches_rowwise_reader(tr, data):
    # the written text, with its separators swapped for other whitespace:
    # blank lines, "\r\n", trailing spaces, and perhaps no final newline
    ends_line = st.one_of(
        EOL.filter(lambda eol: len(f"a{eol}b".splitlines()) > 1),
        st.sampled_from(["\r\n", " \r\n", "\t\n", "\r\n\r\n", "\n \n\n"]),
    )
    written = write_trace(tr)
    last = len(written) - 1
    text = "".join(
        data.draw(GAP) if ch == " "
        else data.draw(st.one_of(ends_line, st.just("")) if i == last else ends_line) if ch == "\n"
        else ch
        for i, ch in enumerate(written)
    )
    got, want = read_trace(io.StringIO(text)), rowwise_read_trace(text)
    assert type(got) is type(want)
    assert got.k == want.k and got.rows.dtype == want.rows.dtype
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.rows, tr.rows)
    if isinstance(got, WalkerTrace):
        assert (got.n, got.looped) == (want.n, want.looped)


ROUND_TRIP_TRACES = st.builds(
    random_trace,
    kind=st.sampled_from(["binary", "walker", "looped"]),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(0, 5),
    k=st.integers(1, 4),
    n=st.one_of(st.integers(1, 12), st.sampled_from([10**18, 2**63 - 1])),
)


@settings(max_examples=300, deadline=None)
@given(tr=ROUND_TRIP_TRACES)
def test_every_trace_round_trips(tr):
    back = read_trace(io.StringIO(write_trace(tr)))
    assert type(back) is type(tr)
    assert (back.k, back.T) == (tr.k, tr.T)
    assert back.rows.dtype == tr.rows.dtype and np.array_equal(back.rows, tr.rows)
    if isinstance(tr, WalkerTrace):
        assert (back.n, back.looped) == (tr.n, tr.looped)


def parse_outcome(read, text):
    """The parsed trace's fields, or the type of the error reading it."""
    try:
        tr = read(text)
    except ValueError as exc:
        return type(exc)
    extra = (tr.n, tr.looped) if isinstance(tr, WalkerTrace) else ()
    return type(tr), tr.k, extra, str(tr.rows.dtype), tr.rows.tolist()


@settings(max_examples=600, deadline=None)
@given(text=trace_texts())
def test_read_trace_agrees_on_malformed_text(text):
    got = parse_outcome(lambda t: read_trace(io.StringIO(t)), text)
    try:
        want = parse_outcome(rowwise_read_trace, text)
    except OverflowError:
        # the row-wise reader lets numpy's OverflowError out; read_trace
        # reports a value past int64 as ValueError like every other defect
        want = ValueError
    assert got == want


# ----------------------------------------------------------- memory at scale

def traced_peak_mb(fn):
    """The peak of the memory Python and numpy allocate during fn(), in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def scale_traces():
    """A seeded 200,000-row binary trace and a 50,000 x 4 walker trace."""
    rng = np.random.default_rng(2)
    return {
        "binary": CouplingTrace(1, (rng.random((200_000, 1)) < 0.3).astype(np.uint8)),
        "walker": WalkerTrace(12, 4, False, rng.integers(1, 13, size=(50_000, 4))),
    }


# Each bound is the peak measured with int32 positions and uint8 symbols
# (in the comment) plus a margin of about a quarter or more; int64 positions
# and symbols exceed every one of them.
@pytest.mark.parametrize(
    "kind, bound_mb",
    [("binary", 2.0), ("walker", 2.5)],  # measured 1.26 and 1.71 MB
)
def test_write_trace_peak_memory(scale_traces, kind, bound_mb):
    tr = scale_traces[kind]
    assert traced_peak_mb(lambda: write_trace(tr)) < bound_mb


@pytest.mark.parametrize(
    "kind, bound_mb",
    [("binary", 7.0), ("walker", 6.8)],  # measured 5.47 and 5.44 MB
)
def test_read_trace_peak_memory(scale_traces, kind, bound_mb):
    text = write_trace(scale_traces[kind])
    assert traced_peak_mb(lambda: read_trace(io.StringIO(text))) < bound_mb


def test_symbol_array_peak_memory(scale_traces):
    tr = scale_traces["binary"]
    assert traced_peak_mb(lambda: traces.symbol_array(tr)) < 0.6  # measured 0.40 MB


def test_empirical_stats_peak_memory(scale_traces):
    # above the symbol array, which the caller keeps
    x = traces.symbol_array(scale_traces["binary"])
    assert traced_peak_mb(lambda: empirical_stats(x, 1)) < 3.2  # measured 2.43 MB
