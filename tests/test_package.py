"""The package's public names: its version and the layer modules, which run
on first use.  A check of what runs starts a fresh interpreter, where no
layer has run."""

import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import avoidance

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_binds_every_public_name():
    # the public names are the version and the eight layers, each bound
    # without running it
    assert avoidance.__all__ == ["__version__", *avoidance._LAYERS]
    out = fresh(
        "import sys, avoidance\n"
        "names = {}\n"
        "exec('from avoidance import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(avoidance.__all__))\n"
        "print([n for n in avoidance._LAYERS if names[n] is not sys.modules[f'avoidance.{n}']])\n"
        "print([n for n in avoidance._LAYERS if type(names[n]).__name__ != '_LazyModule'])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "True\n[]\n[]\nFalse\n"


@pytest.mark.parametrize("name", ["no_such_name", "max_p", "DEFAULT_TOL", "_scales"])
def test_unknown_name_raises_attribute_error(name):
    # max_p and DEFAULT_TOL exist in a layer, which is the only place they are
    # reachable from; no layer has _scales
    with pytest.raises(AttributeError, match=rf"^module 'avoidance' has no attribute '{name}'$"):
        getattr(avoidance, name)
    assert not hasattr(avoidance, name)


@pytest.mark.parametrize("layer", avoidance._LAYERS)
def test_every_name_in_a_layers_all_is_defined(layer):
    # perfbench's tracer reads every name in each layer's __all__, so a stale
    # entry would stop every traced run
    module = importlib.import_module(f"avoidance.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_pyproject_version_is_the_package_version():
    # read with a regex: Python 3.10, which pyproject.toml allows, has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1)
    assert version == avoidance.__version__


RECORD_NAMES = [
    "Seq", "PairScan", "ReductionStep", "ReductionCertificate", "CheckResult",
    "ExhaustiveReport", "WalkerBound", "WindowLP", "FeasibilityResult", "ScanEntry",
    "ScanReport", "EmpiricalStats", "TestOutcome", "TestReport", "CouplingTrace",
    "WalkerTrace", "Violation", "ViolationReport", "RoundRobin", "IndependentSites",
    "AvoidingWalkers", "StayingInWaves",
]


@pytest.fixture(scope="module")
def records():
    """One instance of each public record class, by class name."""
    from fractions import Fraction

    import numpy as np

    from avoidance import bounds, lemma, lp, policies, sequences, stats, traces

    word = sequences.Seq(2, (1, 0, 1, 2))
    cert = lemma.reduce_certificate(word)
    inst = lp.build_window_lp(1, Fraction(1, 2), 2)
    scan = lp.scan_p(1, 2, ["1/2"])
    outcome = stats.TestOutcome("frequency", 1, 0.5, 4.0, True)
    violation = traces.Violation("simultaneous", 1, 1, 2)
    walkers = policies.AvoidingWalkers(4, 2)
    return {
        "Seq": word,
        "PairScan": sequences.pair_scan(word),
        "ReductionStep": cert.steps[0],
        "ReductionCertificate": cert,
        "CheckResult": lemma.check_certificate(cert),
        "ExhaustiveReport": lemma.verify_lemma_exhaustive(1, 2),
        "WalkerBound": bounds.max_walkers(10),
        "WindowLP": inst,
        "FeasibilityResult": lp.solve_feasibility(inst),
        "ScanEntry": scan.entries[0],
        "ScanReport": scan,
        "EmpiricalStats": stats.empirical_stats(np.array([1, 0, 1]), 1),
        "TestOutcome": outcome,
        "TestReport": stats.TestReport(0.5, 10, (outcome,), True),
        "CouplingTrace": traces.CouplingTrace(1, np.array([[1], [0]])),
        "WalkerTrace": traces.WalkerTrace(4, 1, False, np.array([[1], [2]])),
        "Violation": violation,
        "ViolationReport": traces.ViolationReport({"simultaneous": 1}, (violation,), 1),
        "RoundRobin": policies.RoundRobin(2),
        "IndependentSites": policies.IndependentSites(1, 0.5),
        "AvoidingWalkers": walkers,
        "StayingInWaves": policies.StayingInWaves(walkers),
    }


def test_record_names_are_every_public_class():
    modules = [importlib.import_module(f"avoidance.{layer}") for layer in avoidance._LAYERS]
    public = [name for m in modules for name in m.__all__ if isinstance(getattr(m, name), type)]
    assert sorted(public) == sorted(RECORD_NAMES)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_records_refuse_attribute_assignment(records, name):
    record = records[name]
    assert type(record).__name__ == name
    field = (getattr(record, "_fields", None) or record.__slots__)[0]
    before = getattr(record, field)
    for attr in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", ["Seq", "WindowLP", "CouplingTrace", "AvoidingWalkers", "StayingInWaves"])
def test_validating_records_pickle_without_revalidating(records, name):
    record = records[name]
    data = pickle.dumps(record)
    copy = pickle.loads(data)
    assert type(copy) is type(record)
    assert pickle.dumps(copy) == data
    with pytest.raises(AttributeError):
        copy.no_such_field = 0


SOURCES = sorted((ROOT / "src" / "avoidance").glob("*.py"))

# parameters a protocol fixes but the implementation has no use for
UNREAD_BY_PROTOCOL = {"RoundRobin.generate": {"rng"}, "Frozen.__setattr__": {"value"}}


def unread_parameters(tree):
    """(qualified name, parameter) for every parameter its function never reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend((name, p.arg) for p in params if p is not None and p.arg not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    # and each allow-listed parameter still exists, still unread
    unread = {u for path in SOURCES for u in unread_parameters(ast.parse(path.read_text()))}
    assert unread == {(f, p) for f, ps in UNREAD_BY_PROTOCOL.items() for p in ps}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(bound - used) == []


# (function, name) for each import a function body may make: each defers a
# cost that the layer's other paths never pay.  A layer runs on first use, so
# every other import is made once, at the top of its module.
LOCAL_IMPORTS = {
    ("WindowLP.A", "scipy.sparse"),  # for callers outside the package
    ("_sweep", "concurrent.futures.ProcessPoolExecutor"),  # about 19 ms, pool sweeps only
    ("cmd_weights", "fractions.Fraction"),  # 3.9 ms that every start-up would pay
}


def local_imports(tree):
    """(qualified function name, imported name) for every import in a function body."""
    found = []

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif function and isinstance(child, ast.Import):
                found.extend((function, alias.name) for alias in child.names)
            elif function and isinstance(child, ast.ImportFrom):
                source = "." * child.level + (f"{child.module}." if child.module else "")
                found.extend((function, source + alias.name) for alias in child.names)
            else:
                visit(child, prefix, function)

    visit(tree, "", None)
    return found


def test_function_local_imports_are_only_the_deferred_ones():
    # and each allow-listed import is still made where it is listed
    found = [i for path in SOURCES for i in local_imports(ast.parse(path.read_text()))]
    assert sorted(found) == sorted(LOCAL_IMPORTS)


# public functions no code in the package calls yet, with the ROADMAP item
# that gives each one its caller
AWAITING_CALLER = {
    "lemma.certificate_from_text": 3,  # check-cert
    "lp.check_witness_exact": 3,  # check-cert
    "traces.project": 11,
    "stats.gap_law_chisquare": 11,
}


def referenced_names(node):
    """Every name ``node`` reads or binds as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_function_has_a_caller():
    # a reference outside the function's own def, matched by name; and each
    # allow-listed function is still public and still has none
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for layer in avoidance._LAYERS:
        public = importlib.import_module(f"avoidance.{layer}").__all__
        for node in trees[layer].body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                if everywhere[node.name] == referenced_names(node)[node.name]:
                    uncalled.append(f"{layer}.{node.name}")
    assert sorted(uncalled) == sorted(AWAITING_CALLER)


def test_every_private_function_and_constant_is_read():
    # a module-level private function or constant is read outside its own
    # definition, matched by name as above: a leftover helper or table fails
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    everywhere = sum((referenced_names(tree) for tree in trees), Counter())
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = referenced_names(node)
            unread += [
                name for name in names
                if name.startswith("_") and not name.startswith("__")
                and everywhere[name] == own[name]
            ]
    assert unread == []


def test_frozen_classes_validate():
    # a record whose __init__ only stores its fields is a NamedTuple
    frozen = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases
            ):
                init = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                raises = init and any(isinstance(n, ast.Raise) for n in ast.walk(init[0]))
                frozen.append((node.name, bool(raises)))
    assert frozen and [name for name, raises in frozen if not raises] == []
