"""Toolkit for avoidance couplings of random walkers on complete graphs.

Exact neighbor-pair weight calculus on occupancy words, a certificate-
producing reduction proving total weight <= blank count, analytic bounds on
walker counts and Bernoulli parameters, trace simulation and checking with
statistical faithfulness tests, and a window-marginal LP feasibility probe.

Importing the package registers every layer module without running it: each
is in ``sys.modules`` and an attribute of the package from the start, and its
code runs when one of its attributes is first read.  A command therefore
executes only the layers it calls, and the re-exports below resolve on use.
"""

import importlib.util
import sys

__version__ = "0.4.17"

_LAYERS = ("bounds", "lemma", "lp", "policies", "reporting", "sequences", "stats", "traces")

# each re-exported name and the layer that defines it
_EXPORTS = {
    "BLANK": "sequences",
    "Seq": "sequences",
    "parse_seq": "sequences",
    "is_permissible": "sequences",
    "pair_scan": "sequences",
    "blank_count": "sequences",
    "redistribution": "lemma",
    "reduce_step": "lemma",
    "reduce_certificate": "lemma",
    "check_certificate": "lemma",
    "verify_lemma_exhaustive": "lemma",
    "feasible_pressure": "bounds",
    "max_p": "bounds",
    "max_walkers": "bounds",
    "taylor_partial": "bounds",
    "CouplingTrace": "traces",
    "WalkerTrace": "traces",
    "check_1avoidance": "traces",
    "check_walker_avoidance": "traces",
    "project": "traces",
    "simulate": "policies",
    "RoundRobin": "policies",
    "IndependentSites": "policies",
    "AvoidingWalkers": "policies",
    "StayingInWaves": "policies",
    "empirical_stats": "stats",
    "faithfulness_tests": "stats",
    "build_window_lp": "lp",
    "solve_feasibility": "lp",
    "scan_p": "lp",
}

__all__ = ["__version__", *_EXPORTS]


def _register(layer: str):
    """Put the layer in ``sys.modules`` as a module that executes on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
