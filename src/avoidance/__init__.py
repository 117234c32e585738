"""Toolkit for avoidance couplings of random walkers on complete graphs.

Exact neighbor-pair weight calculus on occupancy words, a certificate-
producing reduction proving total weight <= blank count, analytic bounds on
walker counts and Bernoulli parameters, trace simulation and checking with
statistical faithfulness tests, and a window-marginal LP feasibility probe.

Importing the package registers every layer module without running it: each
is in ``sys.modules`` and an attribute of the package from the start, and its
code runs when one of its attributes is first read.  A command therefore
executes only the layers it calls.  The public names are the layers' own:
``avoidance.bounds.max_p``, ``avoidance.sequences.Seq`` and so on.

``importlib.util.LazyLoader`` takes no lock before Python 3.12, so two
threads that touch a layer first at once can see it half executed.  A
threaded caller touches each layer it uses on one thread first.
"""

import importlib.util
import sys

__version__ = "0.4.24"

_LAYERS = ("bounds", "lemma", "lp", "policies", "reporting", "sequences", "stats", "traces")

__all__ = ["__version__", *_LAYERS]


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
