import itertools
import os
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avoidance import lp as lp_module
from avoidance.bounds import max_p
from avoidance.lp import (
    SOLVER_OPTIONS,
    build_window_lp,
    check_witness_exact,
    scan_p,
    solve_feasibility,
    _window_text,
    witness_residual,
    write_mps,
)

from oracles import (
    brute_reversal,
    brute_window_lp,
    full_phase_one_system,
    marginalize_witness,
    product_witness,
    two_step_solve,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_instance_shape_k1_m2():
    lp = build_window_lp(1, "0.3", 2)
    assert lp.num_vars == 4
    assert [_window_text(w) for w in lp.windows] == ["BB", "B1", "1B", "11"]
    # 1 normalization + 2 shifts + 1 * 2^2 faithfulness rows
    assert lp.num_rows == 1 + 2 + 4
    assert lp.zero_vars == ()


def test_instance_counts_general():
    for k, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        lp = build_window_lp(k, Fraction(1, 10), m)
        assert lp.num_vars == (k + 1) ** m
        assert lp.num_rows == 1 + (k + 1) ** (m - 1) + k * 2**m


def test_support_zeros_mark_decreasing_windows():
    lp = build_window_lp(2, "0.3", 2)
    zero_windows = {lp.windows[i] for i in lp.zero_vars}
    assert zero_windows == {(2, 1)}


def test_m1_faithfulness_forces_occupancies():
    lp = build_window_lp(2, "0.3", 1)
    res = solve_feasibility(lp)
    assert res.status == "feasible"
    q = {_window_text(w): v for w, v in zip(lp.windows, res.witness)}
    assert q["1"] == pytest.approx(0.3, abs=1e-9)
    assert q["2"] == pytest.approx(0.3, abs=1e-9)
    assert q["B"] == pytest.approx(0.4, abs=1e-9)


def test_product_witness_is_exact():
    for m in (1, 2, 3, 4):
        lp = build_window_lp(1, Fraction(3, 10), m)
        w = product_witness(Fraction(3, 10), m)
        assert check_witness_exact(lp, w)
        assert witness_residual(lp, np.array([float(x) for x in w])) < 1e-12


def test_tampered_witness_fails_exact_check():
    lp = build_window_lp(1, Fraction(3, 10), 2)
    w = product_witness(Fraction(3, 10), 2)
    w[0] += Fraction(1, 1000)
    assert not check_witness_exact(lp, w)


def test_k1_feasible_at_any_m():
    for m in (1, 2, 3, 4):
        res = solve_feasibility(build_window_lp(1, "0.3", m))
        assert res.status == "feasible"
        assert res.residual <= 1e-9


def test_k2_infeasible_above_half():
    res = solve_feasibility(build_window_lp(2, "0.51", 1))
    assert res.status == "infeasible"
    assert res.gap > 1e-6


def test_k2_feasible_at_one_eighth_m3():
    res = solve_feasibility(build_window_lp(2, Fraction(1, 8), 3))
    assert res.status == "feasible"


@pytest.mark.parametrize("k, m", [(2, 1), (2, 2), (3, 1)])
def test_infeasible_beyond_trivial_bound(k, m):
    p = Fraction(1, k) + Fraction(1, 50)
    res = solve_feasibility(build_window_lp(k, p, m))
    assert res.status == "infeasible"


def test_marginalization_nests():
    lp3 = build_window_lp(2, Fraction(1, 8), 3)
    res = solve_feasibility(lp3)
    assert res.status == "feasible"
    lp2 = build_window_lp(2, Fraction(1, 8), 2)
    marg = marginalize_witness(lp3, res.witness)
    assert witness_residual(lp2, marg) < 1e-8


def test_marginalized_product_witness_is_product():
    lp = build_window_lp(1, Fraction(1, 4), 3)
    w = np.array([float(x) for x in product_witness(Fraction(1, 4), 3)])
    marg = marginalize_witness(lp, w)
    expected = np.array([float(x) for x in product_witness(Fraction(1, 4), 2)])
    assert np.allclose(marg, expected, atol=1e-15)


def test_scan_matches_pointwise_solves():
    grid = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(51, 100)]
    entries = scan_p(2, 1, grid)
    statuses = [e.status for e in entries]
    assert statuses == ["feasible", "feasible", "feasible", "infeasible"]
    p_star = max_p(2)
    for e in entries:
        assert e.within_max_p == (float(e.p) <= p_star)
        assert e.within_trivial == (e.p <= Fraction(1, 2))


def test_scan_k1_all_feasible():
    entries = scan_p(1, 3, [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    assert all(e.status == "feasible" for e in entries)


def test_no_infeasibility_at_achievable_anchor():
    # a genuine coupling exists at k=2 with p = 1/8, so every window length
    # must stay feasible there
    for m in (1, 2, 3, 4):
        res = solve_feasibility(build_window_lp(2, Fraction(1, 8), m))
        assert res.status == "feasible", m


def test_budget_guard():
    with pytest.raises(ValueError):
        build_window_lp(9, "0.05", 7)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_window_lp(0, "0.3", 2)
    with pytest.raises(ValueError):
        build_window_lp(2, "0.3", 0)
    with pytest.raises(ValueError):
        build_window_lp(2, "1.5", 2)


def test_zero_denominator_is_a_value_error(monkeypatch):
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        build_window_lp(2, "1/0", 2)
    # the whole grid is read before the first solve
    monkeypatch.setattr(lp_module, "solve_feasibility", lambda *a, **kw: pytest.fail("solved"))
    for grid in (["1/0"], ["0.3", " 3/0"]):
        with pytest.raises(ValueError, match="zero denominator"):
            scan_p(2, 2, grid)


def test_float_p_means_decimal_not_binary():
    lp = build_window_lp(1, 0.3, 1)
    assert lp.p == Fraction(3, 10)


def test_mps_export_structure():
    lp = build_window_lp(2, Fraction(1, 8), 2)
    text = write_mps(lp)
    lines = text.splitlines()
    assert lines[0] == "NAME window_lp_k2_m2"
    assert "ROWS" in lines and "COLUMNS" in lines and "RHS" in lines
    assert lines[-1] == "ENDATA"
    assert " E R_normalization" in lines
    assert " FX BND W_21 0" in lines
    # deterministic output
    assert write_mps(build_window_lp(2, Fraction(1, 8), 2)) == text


def test_window_enumeration_is_lexicographic():
    lp = build_window_lp(2, "0.3", 2)
    assert lp.windows == tuple(itertools.product(range(3), repeat=2))


# every instance with k <= 4 walkers and at most 3125 windows
SMALL_INSTANCES = [(k, m) for k in range(1, 5) for m in range(1, 12) if (k + 1) ** m <= 3125]


@pytest.mark.parametrize("k, m", SMALL_INSTANCES)
@settings(max_examples=4, deadline=None)
@given(p=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000))
def test_build_matches_dict_builder(k, m, p):
    lp, ref = build_window_lp(k, p, m), brute_window_lp(k, p, m)
    # the column tuples hold the oracle's values, as Python ints and floats
    for name in ("col_ptr", "row_ind", "coef", "b"):
        got, want = getattr(lp, name), getattr(ref, name).tolist()
        assert type(got) is tuple and list(got) == want, name
        assert [type(x) for x in got] == [type(x) for x in want], name
    for name in ("indptr", "indices", "data"):
        got, want = getattr(lp.A, name), getattr(ref.A, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert lp.A.shape == ref.A.shape
    assert lp.b_exact == ref.b_exact
    assert lp.row_labels == ref.row_labels
    assert lp.zero_vars == ref.zero_vars
    assert lp.windows == ref.windows


@pytest.mark.parametrize("k, m", SMALL_INSTANCES)
@settings(max_examples=4, deadline=None)
@given(p=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000))
def test_solve_matches_two_step_solve(k, m, p):
    lp, ref = build_window_lp(k, p, m), brute_window_lp(k, p, m)
    res = solve_feasibility(lp)
    status, gap = two_step_solve(ref, options=SOLVER_OPTIONS)
    if min(p, 1 - p) ** m >= Fraction(1, 10**8):
        assert res.status == status
    else:
        # right-hand sides near the solvers' tolerances: either solve may come
        # back unknown (the two-step one can even call the feasible k = 1
        # system infeasible and then find no gap), but they never contradict
        assert {res.status, status} != {"feasible", "infeasible"}
    if res.status == status == "infeasible":
        assert res.gap == pytest.approx(gap, abs=1e-9)
    if res.status == "feasible":
        assert len(res.witness) == lp.num_vars
        assert witness_residual(ref, res.witness) <= lp_module.WITNESS_TOL


def brute_row_reversal(k, label):
    """sigma on a row label, and the sign it puts on the row."""
    kind, _, rest = label.partition("_")
    if kind == "shift":
        v = () if rest == "-" else tuple(0 if c == "B" else int(c) for c in rest)
        return "shift_" + _window_text(brute_reversal(k, v)), -1
    if kind == "faith":
        i, pattern = rest.split("_")
        return f"faith_{k + 1 - int(i)}_{pattern[::-1]}", 1
    return label, 1


@pytest.mark.parametrize("k, m", SMALL_INSTANCES)
def test_window_lp_is_reversal_invariant(k, m):
    # the symmetry the orbit solve relies on, on the brute-force system:
    # A[sigma r, sigma w] = sign(r) A[r, w], with b equal on each row orbit
    ref = brute_window_lp(k, Fraction(2, 7), m)
    index = {w: c for c, w in enumerate(ref.windows)}
    col_sigma = np.array([index[brute_reversal(k, w)] for w in ref.windows])
    zero = np.zeros(len(ref.windows), dtype=bool)
    zero[list(ref.zero_vars)] = True
    assert np.array_equal(zero[col_sigma], zero)  # permissible windows map to permissible ones
    rows = {label: r for r, label in enumerate(ref.row_labels)}
    images = [brute_row_reversal(k, label) for label in ref.row_labels]
    row_sigma = np.array([rows[label] for label, _ in images])
    sign = np.array([s for _, s in images])
    A = ref.A.toarray()
    assert np.array_equal(A[np.ix_(row_sigma, col_sigma)], sign[:, None] * A)
    assert all(ref.b_exact[row_sigma[r]] == rhs for r, rhs in enumerate(ref.b_exact))
    # the solver's own sigma is this one
    lp = build_window_lp(k, Fraction(2, 7), m)
    assert lp_module._reversal(k + 1, m) == col_sigma.tolist()
    assert lp_module._row_reversal(lp) == row_sigma.tolist()


def test_orbit_system_is_about_half_the_full_one():
    lp = build_window_lp(3, Fraction(1, 5), 6)
    (c, _, _, _, b), res = phase_one_system(lp)
    full_c, _, _, _, full_b = full_phase_one_system(lp)
    assert (len(c) - 2 * len(b), len(b)) == (653, 293)
    assert (len(full_c) - 2 * len(full_b), len(full_b)) == (1278, 599)
    assert res.status == "feasible"


@pytest.mark.parametrize("k, m, p", [(3, 6, Fraction(3, 10)), (2, 6, Fraction(9, 20)), (2, 3, Fraction(2, 5))])
def test_orbit_gap_is_the_full_gap(k, m, p):
    # the size-weighted slacks make the orbit optimum the full phase-one optimum
    lp = build_window_lp(k, p, m)
    res = solve_feasibility(lp)
    full = lp_module.linprog(*full_phase_one_system(lp))
    assert res.status == "infeasible" and full.status == 0
    assert res.gap == pytest.approx(full.fun, rel=1e-12)


def solve_status(k, p, m):
    return solve_feasibility(build_window_lp(k, p, m)).status


@st.composite
def near_frontier(draw, instances):
    """(k, m, p) with p drawn from [1/(2k), 1/k + 1/10], where verdicts turn."""
    k, m = draw(st.sampled_from(instances))
    top = min(Fraction(1, k) + Fraction(1, 10), Fraction(999, 1000))
    return k, m, draw(st.fractions(min_value=Fraction(1, 2 * k), max_value=top, max_denominator=1000))


@settings(max_examples=30, deadline=None)
@given(point=near_frontier([(k, m) for k, m in SMALL_INSTANCES if m >= 2]))
@example(point=(2, 3, Fraction(382, 1000)))
@example(point=(3, 3, Fraction(268, 1000)))
def test_infeasible_window_stays_infeasible_when_longer(point):
    # a witness at length m marginalizes to one at length m - 1
    k, m, p = point
    if solve_status(k, p, m - 1) == "infeasible":
        assert solve_status(k, p, m) != "feasible"


@settings(max_examples=30, deadline=None)
@given(point=near_frontier([(k, m) for k, m in SMALL_INSTANCES if (k + 2) ** m <= 3125]))
@example(point=(2, 3, Fraction(348, 1000)))
@example(point=(3, 2, Fraction(268, 1000)))
def test_infeasible_walker_count_stays_infeasible_with_one_more(point):
    # a witness for k + 1 walkers, with walker k + 1 read as a blank, is one for k
    k, m, p = point
    if solve_status(k, p, m) == "infeasible":
        assert solve_status(k + 1, p, m) != "feasible"


def phase_one_system(lp):
    """The arguments ``solve_feasibility`` passes to ``lp.linprog``, and its result."""
    calls = []
    real = lp_module.linprog
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "linprog", lambda *args: calls.append(args) or real(*args))
        res = solve_feasibility(lp)
    assert len(calls) == 1
    return calls[0], res


def system_entries(col_ptr, row_ind, coef):
    """(column, row, coefficient) of each entry of a column-wise matrix, in order."""
    return [(j, row_ind[e], coef[e]) for j in range(len(col_ptr) - 1) for e in range(col_ptr[j], col_ptr[j + 1])]


# the (k, m) pairs and points of perfbench's lp-frontier workload
FRONTIER_INSTANCES = [(3, 6), (2, 6)]
FRONTIER_PS = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(9, 20)]


@pytest.mark.parametrize("k, m", FRONTIER_INSTANCES + SMALL_INSTANCES)
def test_only_the_right_hand_side_of_the_phase_one_system_depends_on_p(k, m):
    # so one model per (k, m) can serve a whole scan, with new row bounds per point
    systems = [phase_one_system(build_window_lp(k, p, m))[0] for p in FRONTIER_PS]
    c, col_ptr, row_ind, coef, _ = systems[0]
    for system in systems[1:]:
        assert system[:4] == (c, col_ptr, row_ind, coef)
    assert len({tuple(system[4]) for system in systems}) == len(FRONTIER_PS)


def read_mps(text):
    """(c, entries, b) of a free-MPS minimization with named rows and
    columns, rows and columns numbered in the order they first appear."""
    rows, columns, cost, entries, rhs, section = {}, {}, {}, [], {}, None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        fields = line.split()
        if section == "ROWS" and fields[0] == "E":
            rows[fields[1]] = len(rows)
        elif section == "COLUMNS":
            j = columns.setdefault(fields[0], len(columns))
            if fields[1] == "COST":
                cost[j] = float(fields[2])
            else:
                entries.append((j, rows[fields[1]], float(fields[2])))
        elif section == "RHS":
            rhs[rows[fields[1]]] = float(fields[2])
        else:  # no bounds beyond x >= 0
            assert section == "ROWS" and fields == ["N", "COST"], line
    return [cost.get(j, 0.0) for j in range(len(columns))], entries, [rhs.get(r, 0.0) for r in range(len(rows))]


def scipy_linprog(method, c, col_ptr, row_ind, coef, b):
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    A = csc_array((coef, row_ind, col_ptr), shape=(len(b), len(c)))
    return linprog(c, A_eq=A, b_eq=b, method=method, options=SOLVER_OPTIONS)


@pytest.mark.parametrize("k, m", SMALL_INSTANCES)
@settings(max_examples=4, deadline=None)
@given(p=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000))
@example(p=Fraction(1, 308))
def test_linprog_matches_scipy_linprog(k, m, p):
    # the direct HiGHS call is scipy's highs-ipm, and highs-ds where that fails
    system, _ = phase_one_system(build_window_lp(k, p, m))
    c, col_ptr, row_ind, coef, b = system
    # HiGHS indexes with 32-bit ints, and it reads back exactly the system given
    assert max(col_ptr[-1], max(row_ind)) < 2**31
    texts = []
    real = lp_module._mps_text
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_mps_text", lambda *a, **kw: texts.append(real(*a, **kw)) or texts[-1])
        ours = lp_module.linprog(*system)
    assert len(texts) == 1
    assert read_mps(texts[0]) == (list(c), system_entries(col_ptr, row_ind, coef), list(b))
    theirs = scipy_linprog("highs-ipm", *system)
    if theirs.status != 0:
        theirs = scipy_linprog("highs-ds", *system)
    assert ours.status == theirs.status
    if ours.status == 0:
        assert abs(ours.fun - theirs.fun) <= 1e-12
        assert np.allclose(ours.x, theirs.x, rtol=0.0, atol=1e-12)


def test_simplex_retry_settles_a_failed_interior_point_solve():
    # highs-ipm ends non-optimal on the full-window phase-one system here;
    # the dual simplex retry, inside the same linprog call, solves it
    lp = build_window_lp(2, Fraction(1, 308), 4)
    system = full_phase_one_system(lp)
    assert scipy_linprog("highs-ipm", *system).status != 0
    assert lp_module.linprog(*system).status == 0
    res = solve_feasibility(lp)
    assert res.status == "feasible"
    assert res.residual <= lp_module.WITNESS_TOL
    assert witness_residual(lp, res.witness) == res.residual


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """An empty directory that tempfile creates its files in."""
    folder = tmp_path / "tmp"
    folder.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(folder))
    return folder


def highs_with(**overrides):
    """The HiGHS extension with some of its classes replaced."""
    core = lp_module._highs()
    names = ("HighsOptions", "HighsStatus", "HighsModelStatus", "simplex_constants", "_Highs")
    return SimpleNamespace(**{name: getattr(core, name) for name in names} | overrides)


def test_linprog_deletes_its_model_file(temp_dir, monkeypatch):
    statuses = [solve_feasibility(build_window_lp(2, p, 2)).status for p in (Fraction(3, 10), Fraction(51, 100))]
    assert statuses == ["feasible", "infeasible"] and list(temp_dir.iterdir()) == []
    # neither solver may take a step, so both end non-optimal
    monkeypatch.setitem(lp_module.SOLVER_OPTIONS, "ipm_iteration_limit", 0)
    monkeypatch.setitem(lp_module.SOLVER_OPTIONS, "simplex_iteration_limit", 0)
    assert lp_module.linprog(*full_phase_one_system(build_window_lp(2, Fraction(3, 10), 2))).status == 4
    assert list(temp_dir.iterdir()) == []


def test_linprog_deletes_its_model_file_when_the_solve_raises(temp_dir, monkeypatch):
    real = lp_module._highs()._Highs

    class Raising(real):
        def run(self):
            raise RuntimeError("solver stopped")

    core = highs_with(_Highs=Raising)
    monkeypatch.setattr(lp_module, "_highs", lambda: core)
    with pytest.raises(RuntimeError, match="solver stopped"):
        solve_feasibility(build_window_lp(2, Fraction(3, 10), 2))
    assert list(temp_dir.iterdir()) == []


def test_an_unreadable_model_file_is_an_os_error(temp_dir, monkeypatch):
    core = lp_module._highs()

    class Unreadable(core._Highs):
        def readModel(self, path):
            return core.HighsStatus.kError

    fake = highs_with(_Highs=Unreadable)
    monkeypatch.setattr(lp_module, "_highs", lambda: fake)
    with pytest.raises(OSError, match="^HiGHS could not read the phase-one model written to .*[.]mps$"):
        solve_feasibility(build_window_lp(2, Fraction(3, 10), 2))
    assert list(temp_dir.iterdir()) == []


def run_python(code):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = run_python(
        """
        import sys
        import avoidance
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert out == "[]\n"


def test_solves_go_through_module_linprog():
    # one phase-one HiGHS call per point, feasible or not
    out = run_python(
        """
        from fractions import Fraction
        from avoidance import lp

        calls = []
        real = lp.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        lp.linprog = counting
        for p in (Fraction(3, 10), Fraction(51, 100)):
            calls.clear()
            res = lp.solve_feasibility(lp.build_window_lp(2, p, 1))
            print(res.status, len(calls))
        """
    )
    assert out == "feasible 1\ninfeasible 1\n"


@pytest.mark.parametrize("lp_first", [True, False])
def test_highs_extension_is_shared_with_scipy_optimize(lp_first):
    # either import order leaves one extension instance that both solve with
    out = run_python(
        f"""
        import sys
        from fractions import Fraction
        import numpy as np
        from avoidance import lp

        def scipy_solve():
            from scipy.optimize import linprog
            res = linprog([1.0, 2.0], A_eq=np.array([[1.0, 1.0]]), b_eq=[1.0], method="highs-ipm")
            return res.status, res.x.tolist()

        def lp_solve():
            return lp.solve_feasibility(lp.build_window_lp(2, Fraction(3, 10), 2)).status

        first, second = (lp_solve, scipy_solve) if {lp_first} else (scipy_solve, lp_solve)
        print(first(), second(), first(), second())
        from scipy.optimize._highspy import _highs_wrapper

        print(lp._highs() is sys.modules[lp.HIGHS_MODULE] is _highs_wrapper._h)
        """
    )
    solves = ["feasible", "(0, [1.0, 0.0])"] if lp_first else ["(0, [1.0, 0.0])", "feasible"]
    assert out == " ".join(solves * 2) + "\nTrue\n"
