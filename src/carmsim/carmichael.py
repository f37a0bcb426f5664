"""Certification and counting pipelines for Carmichael numbers.

Certification of a composite k marks the t(k) = phi(k) - F(k) coprime bases
that fail the Fermat condition, runs R counter registers of size P through
controlled search powers on the dimension-k base register, Fourier-transforms
the counters, and measures.  Carmichael k have t = 0, the iteration is the
identity, and the counters read all-zeros with certainty; non-Carmichael k
leak all-zeros with probability exactly alpha^(2R), alpha the Dirichlet
kernel at the peak position f = P arcsin(sqrt(t/k)) / pi.

Routes.  Certification and both counting pipelines run on the two-plane
register (counting.count_distribution), fed the marked count from the
factorization or the enumeration; no O(k) base mask is built, so k is
bounded only by factorization (2^50), and qsim.AMPLITUDE_CAP binds the
counters alone.  The dense route over all k base values, fed a
Fermat-failure mask, is a test oracle in tests/oracles.py.  A command's
reps share one law: certify_reps reads the composite's facts and builds
the law once, draws every rep's uniforms at once from qsim.rep_streams,
where rep i draws numpy's PCG64 sequence of default_rng([seed, i])
reproduced in-package, and maps every rep's reading uniform to a counter
reading in one qsim.sample_outcomes call.  numpy.random itself is only the
tests' oracle for the streams.

Flag convention.  The coprimality flag is post-selected on the *prepared*
uniform superposition, where its acceptance probability is exactly phi(k)/k
and independent of the counter spectrum; the counter statistics are then
exactly the dimension-k counting law above.  Conditioning instead on a flag
computed after the iterations couples the two through the non-coprime
amplitudes: the acceptance mass becomes branch-dependent and the conditional
all-zeros probability shifts at order 1/P^2 (tests/oracles.py computes that
coupled variant for comparison).  The decision rule and its error budget use
the independent convention.

The counting pipeline runs the same counter construction over the register
k = 1..N with the Carmichael indicator as the mark (restricted to k < N so
the marked count always equals the enumeration ground truth), and budgets
the non-ideal-oracle corrections analytically: per-k leakage factors beta_k
(witness-count angle) and alpha_k (Fermat-failure angle) aggregate to

    (4/N) [ sum_carm (phi/k) beta^2 + sum_noncarm (phi/k)(1-beta^2) alpha^2 ]
        <= 4 pi^2 / (3 P^2),

with beta = 1 exactly for primes.  The nested correction states themselves
are never simulated; only these scalar norms enter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import counting, numtheory, qsim
from .errors import CapacityError, DomainError


class VerdictKind(Enum):
    NOT_CARMICHAEL = "NotCarmichael"
    PROBABLY_CARMICHAEL = "ProbablyCarmichael"


@dataclass(frozen=True)
class Verdict:
    """Certification outcome for one run.

    error_bound is 0 for NotCarmichael (a nonzero counter is impossible at
    t = 0, so the accusation is certain).  For ProbablyCarmichael it is the
    probability that a non-Carmichael k would have produced the same
    all-zeros reading: the exact alpha^(2R) in exact mode (0 when t = 0 is
    known), and in sampling mode the worst case over the guaranteed gap
    t >= phi(k)/2, namely (1 / (P sin theta_gap))^(2R) with
    theta_gap = arcsin sqrt(phi/(2k)).

    flag_retries counts flag post-selection rounds including the accepting
    one (sampling mode; expected value k/phi(k)).  grover_applications is
    the total number of search iterations spent, R (P-1) per round.
    """

    kind: VerdictKind
    error_bound: float
    observed_ancillas: tuple[int, ...]
    flag_retries: int
    grover_applications: int
    flag_probability: float
    exact_allzero: float | None = None

    def __post_init__(self) -> None:
        nonzero = any(v != 0 for v in self.observed_ancillas)
        if nonzero != (self.kind is VerdictKind.NOT_CARMICHAEL):
            raise DomainError("verdict kind inconsistent with observed ancillas")
        if not 0.0 <= self.error_bound <= 1.0:
            raise DomainError(f"error bound {self.error_bound} outside [0, 1]")

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind.value,
            "error_bound": self.error_bound,
            "observed_ancillas": list(self.observed_ancillas),
            "flag_retries": self.flag_retries,
            "grover_applications": self.grover_applications,
            "flag_probability": self.flag_probability,
        }
        if self.exact_allzero is not None:
            out["exact_allzero"] = self.exact_allzero
        return out


def composite_facts(k: int) -> numtheory.NumberFacts:
    """numtheory.number_facts(k), refused for a prime k: certification presumes a composite."""
    facts = numtheory.number_facts(k)
    if facts.classification is numtheory.Classification.PRIME:
        raise DomainError(f"{k} is prime; certification presumes a composite input")
    return facts


def ancilla_distribution(k: int, p: int, r: int) -> np.ndarray:
    """Exact joint law of the R counter registers of composite k, shape (P,)*R.

    Two-plane route with t(k) from the factorization of k: controlled powers
    on the (P,)*R + (2,) layout, Fourier transform on each counter, marginal
    over the base plane.
    """
    return counting.count_distribution(k, composite_facts(k).t_k, p, r)


def gap_error_bound(k: int, phi: int, p: int, r: int) -> float:
    """Worst-case all-zeros leakage over the guaranteed gap t >= phi/2.

    sup over t' >= phi/2 of alpha(t')^(2R) is bounded by the kernel envelope
    1/(P sin theta) at theta_gap = arcsin sqrt(phi/(2k)); the kernel's
    numerator oscillates, so the envelope (not the kernel value at the gap)
    is the defensible bound.
    """
    theta_gap = math.asin(math.sqrt(phi / (2.0 * k)))
    envelope = 1.0 / (p * math.sin(theta_gap))
    return min(1.0, envelope) ** (2 * r)


def certify_reps(k: int, p: int, r: int, mode: str, seed: int, reps: int) -> list[Verdict]:
    """reps certifications of composite k; any nonzero counter disproves Carmichael.

    The reps share the composite's facts and one law, built by
    ancilla_distribution.  Rep i owns stream i of qsim.rep_streams(seed,
    reps), built once mode, k and the law (P, R and the amplitude cap) have
    passed their checks, so a rejected input pays for no stream: in sample
    mode it first draws its geometric flag retries, then one uniform
    (RepStreams.flag_rounds draws both for all reps), and its counter
    reading is the first outcome of the joint law whose cumulative mass
    exceeds that uniform (qsim.sample_outcomes maps all reps at once).
    Exact mode resolves the flag analytically (flag_retries = 0) and
    attaches the exact all-zeros probability; sample mode reports the
    gap-based worst-case error bound, which does not presume knowledge of
    t(k).  A Verdict depends only on its rep's (reading, flag rounds), so
    reps with the same pair share one frozen Verdict, built and checked
    once.
    """
    if mode not in ("exact", "sample"):
        raise DomainError(f"mode must be 'exact' or 'sample', got {mode}")
    facts = composite_facts(k)
    accept = facts.phi / k
    dist = ancilla_distribution(k, p, r)
    streams = qsim.rep_streams(seed, reps)
    allzero = float(dist[(0,) * r])
    if mode == "exact":
        carmichael_bound = 0.0 if facts.t_k == 0 else allzero
    else:
        carmichael_bound = gap_error_bound(k, facts.phi, p, r)

    if mode == "sample":
        rounds, uniforms = streams.flag_rounds(accept)
        rounds = rounds.tolist()
    else:
        rounds, uniforms = [0] * reps, streams.random()
    readings = qsim.sample_outcomes(dist, uniforms).tolist()

    def verdict(reading: tuple[int, ...], n_rounds: int) -> Verdict:
        nonzero = any(reading)
        return Verdict(
            kind=VerdictKind.NOT_CARMICHAEL if nonzero else VerdictKind.PROBABLY_CARMICHAEL,
            error_bound=0.0 if nonzero else carmichael_bound,
            observed_ancillas=reading,
            flag_retries=n_rounds,
            grover_applications=r * (p - 1) * max(n_rounds, 1),
            flag_probability=accept,
            exact_allzero=allzero if mode == "exact" else None,
        )

    outcomes = list(zip(map(tuple, readings), rounds))
    shared = {outcome: verdict(*outcome) for outcome in dict.fromkeys(outcomes)}
    return [shared[outcome] for outcome in outcomes]


@dataclass(frozen=True)
class PerturbationBounds:
    """Per-integer leakage factors and the aggregated correction budget.

    Arrays are indexed by k = 1..n (entry 0 unused).  beta is the kernel at
    the witness-count angle (1 exactly for primes and k = 1), alpha the
    kernel at the Fermat-failure angle, carmichael_phase the Carmichael
    indicator.  correction_norm_sq is the (4/N)-weighted composite sum
    bounded by 4 pi^2 / (3 P^2); phi_norm is the mean of phi(k)/k over
    k = 1..n, which converges to 6/pi^2 = 0.60793 (not pi^2/6: the harmonic
    constant sometimes quoted for this mean is its reciprocal-series cousin
    and does not apply).
    """

    n: int
    p: int
    beta: np.ndarray
    alpha: np.ndarray
    carmichael_phase: np.ndarray
    correction_norm_sq: float
    correction_norm_bound: float
    phi_norm: float
    beta_violations: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "correction_norm_sq": self.correction_norm_sq,
            "correction_norm_bound": self.correction_norm_bound,
            "correction_ok": bool(self.correction_norm_sq <= self.correction_norm_bound),
            "phi_norm": self.phi_norm,
            "phi_norm_reference": 6.0 / math.pi**2,
            "beta_violations": list(self.beta_violations),
            "beta_composite_bound": 2.0 / (math.sqrt(3.0) * self.p),
        }


#: perturbation_bounds refuses n above this
SWEEP_BOUND = 10**7

#: k values per chunk of perturbation_bounds' angle and kernel evaluation
_KERNEL_CHUNK = 1 << 14


def perturbation_bounds(n: int, p: int) -> PerturbationBounds:
    """Leakage factors and correction budget for every k = 1..n.

    The witness count feeding beta uses the exact strong-liar formula,
    evaluated for every k at once by numtheory.liar_sieve (for even
    composites, by numtheory's convention, every base that is not a Fermat
    liar counts as a witness, a^(k-1) = -1 included); the census route is
    equivalent and cross-validated in the test suite.  A composite whose witness ratio is
    at least 3/4 has pi/3 <= pi g / P <= pi/2, so its beta stays under
    2/(sqrt(3) P).  Only k = 4 (ratio 1/2) and k = 6, 9 (ratio 2/3) fall
    below 3/4.  For k = 4, g = P/4: its beta is 0 whenever 4 | P and
    exceeds the limit whenever P = 2 mod 4.  k = 6 and 9 exceed it at some
    P only; among the powers of two P = 4..1024, at P = 8 and P = 64.
    Every composite k = 2..n over the limit is reported in beta_violations
    rather than masked.  The angles and both kernels are evaluated in
    chunks of _KERNEL_CHUNK values of k into the preallocated beta and
    alpha, so their temporaries stay small.  The sums run over whole arrays
    (chunked sums would round differently), but their terms are gathered
    for the selected k only and multiplied in place, in the order of the
    formula, once the sieve's counts are freed: about 42 bytes per k at the
    peak.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if p < 4:
        raise DomainError(f"counter size must be >= 4, got {p}")
    if n > SWEEP_BOUND:
        raise CapacityError(f"bound sweep capped at {SWEEP_BOUND}")
    phi, fermat, strong = numtheory.liar_sieve(n)
    k = np.arange(n + 1, dtype=np.int32)  # the sieve's dtype
    composite = phi != k - 1  # phi(k) = k - 1 exactly for primes
    composite[:2] = False
    witness = np.where(composite, k - 1 - strong, 0)
    t_gap = np.where(composite, phi - fermat, 0)
    carmichael = composite & (t_gap == 0)
    del fermat, strong  # the sums below peak above the sieve unless freed

    # elementwise, so chunking leaves every entry bit-identical; k = 0, 1
    # carry no witnesses and no gap, so their angles are 0
    beta = np.empty(n + 1)
    alpha = np.empty(n + 1)
    for lo in range(0, n + 1, _KERNEL_CHUNK):
        chunk = slice(lo, lo + _KERNEL_CHUNK)
        size = np.maximum(k[chunk], 1.0)
        g = p * np.arcsin(np.sqrt(witness[chunk] / size)) / math.pi
        f_peak = p * np.arcsin(np.sqrt(t_gap[chunk] / size)) / math.pi
        beta[chunk] = counting.dirichlet_kernel(g, p)
        alpha[chunk] = counting.dirichlet_kernel(f_peak, p)
    del witness, t_gap

    phi_norm_value = float((phi[1:] / k[1:]).mean())
    # phi(k)/k over the selected composites (k >= 4) only; the noncarm
    # terms ratio * (1 - beta^2) * alpha^2 are formed in place, left to right
    carm_sum = float((phi[carmichael] / k[carmichael] * beta[carmichael] ** 2).sum())
    noncarm = composite & ~carmichael
    terms = phi[noncarm].astype(np.float64)
    terms /= k[noncarm]
    del phi, k
    factor = beta[noncarm]
    np.square(factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    terms *= factor
    factor = alpha[noncarm]
    np.square(factor, out=factor)
    terms *= factor
    correction = 4.0 / n * (carm_sum + float(terms.sum()))
    bound = 4.0 * math.pi**2 / (3.0 * p * p)
    beta_limit = 2.0 / (math.sqrt(3.0) * p)
    violating = np.flatnonzero(composite & ((beta > beta_limit) | (beta < -beta_limit)))
    return PerturbationBounds(
        n=n,
        p=p,
        beta=beta,
        alpha=alpha,
        carmichael_phase=carmichael,
        correction_norm_sq=correction,
        correction_norm_bound=bound,
        phi_norm=phi_norm_value,
        beta_violations=tuple(int(v) for v in violating),
    )


@dataclass(frozen=True)
class CarmichaelCountResult:
    """Counting run over k = 1..n with the enumeration ground truth attached."""

    n: int
    q: int
    exact_count: int
    carmichaels: tuple[int, ...]
    estimates: list[counting.CountEstimate]
    error_bound: float
    peak_probability: counting.PeakProbability

    def success_fraction(self) -> float:
        """Fraction of reps whose estimate lands within the peak-outcome bound."""
        hits = sum(1 for e in self.estimates if abs(e.t_tilde - self.exact_count) <= self.error_bound)
        return hits / len(self.estimates)


def count_carmichaels_quantum(n: int, q: int, seed: int, reps: int) -> CarmichaelCountResult:
    """Count Carmichael numbers below n on the k = 1..n register.

    The mark is the ideal Carmichael indicator restricted to k < n, so the
    marked count equals len(enumerate_carmichaels(n)) by construction; the
    perturbed-oracle corrections are budgeted by perturbation_bounds, not
    simulated.
    """
    carmichaels = numtheory.enumerate_carmichaels(n)
    t_n = len(carmichaels)
    estimates = counting.run_count(n, t_n, q, seed=seed, reps=reps)
    return CarmichaelCountResult(
        n=n,
        q=q,
        exact_count=t_n,
        carmichaels=tuple(carmichaels),
        estimates=estimates,
        error_bound=counting.estimate_error_bound(n, q, t_n),
        peak_probability=counting.peak_success_probability(n, t_n, q),
    )


@dataclass(frozen=True)
class PswReport:
    """One comparison row of measured counting accuracy against the
    conjectured density envelopes.

    dt_exp is the peak-outcome estimate bound pi (N/Q)(pi/Q + 2 sqrt(t/N));
    dt_th the accuracy target N * l(N)^-(2+eps+delta); psw_lower/upper the
    conjectured envelopes with unit constants.  At desk scale the
    asymptotics are not expected to hold numerically: the row is
    informational and meets_target only compares the two error columns.
    """

    n: int
    t_n: int
    t_tilde: float
    dt_exp: float
    dt_th: float
    psw_lower: float
    psw_upper: float
    q: int
    epsilon: float
    delta: float
    meets_target: bool

    CSV_HEADER = ("N", "t_N", "t_tilde", "dt_exp", "dt_th", "psw_lower", "psw_upper", "Q", "epsilon", "delta")

    def to_csv_row(self) -> tuple:
        return (
            self.n,
            self.t_n,
            self.t_tilde,
            self.dt_exp,
            self.dt_th,
            self.psw_lower,
            self.psw_upper,
            self.q,
            self.epsilon,
            self.delta,
        )

    def to_json_dict(self) -> dict:
        out = dict(zip(self.CSV_HEADER, self.to_csv_row()))
        out["meets_target"] = self.meets_target
        return out


#: slack added to the exponent of the counter size policy
POLICY_MARGIN = 0.1


def choose_q(n: float, epsilon: float, delta: float) -> int:
    """Counter size policy: ceil(l(N)^beta) with beta = 1 + eps/2 + delta + POLICY_MARGIN."""
    beta = 1.0 + epsilon / 2.0 + delta + POLICY_MARGIN
    scale = numtheory.psw_scale(n)
    if beta * math.log(scale) >= math.log(sys.float_info.max):
        raise CapacityError(f"policy Q = l(N)^{beta} exceeds the float range")
    return max(4, math.ceil(scale**beta))


def psw_report(
    n: int, epsilon: float, delta: float, seed: int, reps: int, q: int | None = None
) -> PswReport:
    """Run the counting pipeline at the policy Q and tabulate the comparison.

    q, when given, overrides the policy Q.  t_tilde is the median of the
    per-rep estimates (simple majority-style aggregation; heavier boosting
    belongs to callers).
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    q_used = q if q is not None else choose_q(n, epsilon, delta)
    result = count_carmichaels_quantum(n, q_used, seed=seed, reps=reps)
    t_est = counting.median_t_tilde(result.estimates)
    scale = numtheory.psw_scale(n)
    dt_exp = result.error_bound
    dt_th = n * scale ** (-(2.0 + epsilon + delta))
    lower, upper = numtheory.psw_bounds(n, epsilon)
    return PswReport(
        n=n,
        t_n=result.exact_count,
        t_tilde=t_est,
        dt_exp=dt_exp,
        dt_th=dt_th,
        psw_lower=lower,
        psw_upper=upper,
        q=q_used,
        epsilon=epsilon,
        delta=delta,
        meets_target=bool(dt_exp < dt_th),
    )
