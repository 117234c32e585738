"""Toolkit for avoidance couplings of random walkers on complete graphs.

Exact neighbor-pair weight calculus on occupancy words, a certificate-
producing reduction proving total weight <= blank count, analytic bounds on
walker counts and Bernoulli parameters, trace simulation and checking with
statistical faithfulness tests, and a window-marginal LP feasibility probe.
"""

__version__ = "0.4.4"

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
    AvoidingWalkers,
    IndependentSites,
    RoundRobin,
    StayingInWaves,
    simulate,
)
from .sequences import (
    BLANK,
    Seq,
    blank_count,
    is_permissible,
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
    "RoundRobin",
    "IndependentSites",
    "AvoidingWalkers",
    "StayingInWaves",
    "empirical_stats",
    "faithfulness_tests",
    "build_window_lp",
    "solve_feasibility",
    "scan_p",
]
