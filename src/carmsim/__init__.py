"""Exact desk-scale simulator and classical oracle suite for quantum
Carmichael-number certification and counting."""

from .carmichael import (
    CarmichaelCountResult,
    PerturbationBounds,
    PswReport,
    Verdict,
    VerdictKind,
    certify_reps,
    count_carmichaels_quantum,
    perturbation_bounds,
    psw_report,
)
from .counting import (
    CountEstimate,
    PeakProbability,
    dirichlet_kernel,
    estimate_error_bound,
    exact_count_joint,
    peak_success_probability,
    run_count,
)
from .errors import CapacityError, DomainError, NormalizationError
from .numtheory import (
    Classification,
    Factorization,
    NumberFacts,
    enumerate_carmichaels,
    euler_phi,
    factorize,
    fermat_nonwitness_count,
    number_facts,
    psw_bounds,
    psw_scale,
)

__version__ = "0.1.0"
