"""Toolkit for avoidance couplings of random walkers on complete graphs.

Exact neighbor-pair weight calculus on occupancy words, a certificate-
producing reduction proving total weight <= blank count, analytic bounds on
walker counts and Bernoulli parameters, trace simulation and checking with
statistical faithfulness tests, and a window-marginal LP feasibility probe.
"""

__version__ = "0.3.0"

from .bounds import feasible_pressure, max_p, max_walkers, taylor_partial
from .lemma import (
    check_certificate,
    reduce_certificate,
    reduce_step,
    redistribution,
    verify_lemma_exhaustive,
)
from .lp import build_window_lp, scan_p, solve_feasibility
from .policies import (
    avoiding_walkers,
    independent,
    round_robin,
    simulate,
    staying_in_waves,
    trivial_k1,
)
from .sequences import (
    BLANK,
    Seq,
    blank_count,
    is_permissible,
    neighbor_pairs,
    parse_seq,
    total_weight,
)
from .stats import empirical_stats, faithfulness_tests
from .traces import (
    CouplingTrace,
    WalkerTrace,
    check_1avoidance,
    check_walker_avoidance,
    encode,
    project,
)

__all__ = [
    "__version__",
    "BLANK",
    "Seq",
    "parse_seq",
    "is_permissible",
    "neighbor_pairs",
    "total_weight",
    "blank_count",
    "redistribution",
    "reduce_step",
    "reduce_certificate",
    "check_certificate",
    "verify_lemma_exhaustive",
    "feasible_pressure",
    "max_p",
    "max_walkers",
    "taylor_partial",
    "CouplingTrace",
    "WalkerTrace",
    "check_1avoidance",
    "check_walker_avoidance",
    "encode",
    "project",
    "simulate",
    "trivial_k1",
    "round_robin",
    "independent",
    "avoiding_walkers",
    "staying_in_waves",
    "empirical_stats",
    "faithfulness_tests",
    "build_window_lp",
    "solve_feasibility",
    "scan_p",
]
