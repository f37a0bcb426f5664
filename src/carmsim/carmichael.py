"""Certification and counting pipelines for Carmichael numbers.

Certification of a composite k marks the t(k) = phi(k) - F(k) coprime bases
that fail the Fermat condition, runs R counter registers of size P through
controlled search powers on the dimension-k base register, Fourier-transforms
the counters, and measures.  Carmichael k have t = 0, the iteration is the
identity, and the counters read all-zeros with certainty; non-Carmichael k
leak all-zeros with probability exactly alpha^(2R), alpha the Dirichlet
kernel at the peak position f = P arcsin(sqrt(t/k)) / pi.

Routes.  Certification and both counting pipelines read the counter law
off the base register's plane from one builder, qsim.counter_law (a
product of per-register factors), fed the marked count from the
factorization or the enumeration; no O(k) base mask and no counter state
is built, so k is bounded only by factorization (2^50), and
qsim.AMPLITUDE_CAP binds the counters alone.  The statevector routes, on
the two-entry plane and over all k base values, are test oracles in
tests/oracles.py.  A command's reps share one law and draw their flag
rounds and readings from one qsim.rep_draws call (see certify_reps).

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
the non-ideal-oracle corrections analytically: leakage gives the
composites of a range of k, with their factors beta_k (witness-count
angle) and alpha_k (Fermat-failure angle), and perturbation_bounds
aggregates them to

    (4/N) [ sum_carm (phi/k) beta^2 + sum_noncarm (phi/k)(1-beta^2) alpha^2 ]
        <= 4 pi^2 / (3 P^2).

Off the composites both factors are 1 by definition (beta = 1 exactly for
primes) and leakage does not return them.  The correction states are never
simulated; only these scalar norms enter.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import counting, numtheory, qsim
from .errors import CapacityError, DomainError


class VerdictKind(Enum):
    NOT_CARMICHAEL = "NotCarmichael"
    PROBABLY_CARMICHAEL = "ProbablyCarmichael"


class _VerdictFields(NamedTuple):
    kind: VerdictKind
    error_bound: float
    observed_ancillas: tuple[int, ...]
    flag_retries: int
    grover_applications: int
    flag_probability: float
    exact_allzero: float | None = None


class Verdict(_VerdictFields):
    """Certification outcome for one run.

    error_bound is 0 for NotCarmichael (a nonzero counter is impossible at
    t = 0, so the accusation is certain).  For ProbablyCarmichael it is the
    probability that a non-Carmichael k would have produced the same
    all-zeros reading: the exact alpha^(2R) in exact mode (0 when t = 0 is
    known), and in sampling mode the worst case over the guaranteed gap
    t >= phi(k)/2 (gap_error_bound).

    flag_retries counts flag rounds, the accepting one included (sampling
    mode; mean k/phi(k)); grover_applications, R (P-1) per round.

    Every result record of the package is a NamedTuple, checked on
    construction where its fields must agree: its fields cannot be
    reassigned, and records of equal fields compare and hash equal.  The
    constructor checks the kind against the ancillas and the error bound
    against [0, 1] and builds the tuple directly; _make and _replace build
    through it.
    """

    __slots__ = ()

    def __new__(cls, kind: VerdictKind, error_bound: float, observed_ancillas: tuple[int, ...],
                flag_retries: int, grover_applications: int, flag_probability: float,
                exact_allzero: float | None = None) -> Verdict:
        if any(observed_ancillas) != (kind is VerdictKind.NOT_CARMICHAEL):
            raise DomainError("verdict kind inconsistent with observed ancillas")
        if not 0.0 <= error_bound <= 1.0:
            raise DomainError(f"error bound {error_bound} outside [0, 1]")
        return tuple.__new__(cls, (kind, error_bound, observed_ancillas, flag_retries, grover_applications,
                                   flag_probability, exact_allzero))

    @classmethod
    def _make(cls, fields) -> Verdict:
        """A Verdict from an iterable of its fields, checked as the constructor checks; _replace builds through it."""
        return cls(*fields)

    def to_json_dict(self) -> dict:
        kind, error_bound, ancillas, flag_retries, grover_applications, flag_probability, exact_allzero = self
        out = {
            "kind": kind.value,
            "error_bound": error_bound,
            "observed_ancillas": list(ancillas),
            "flag_retries": flag_retries,
            "grover_applications": grover_applications,
            "flag_probability": flag_probability,
        }
        if exact_allzero is not None:
            out["exact_allzero"] = exact_allzero
        return out


def composite_facts(k: int) -> numtheory.NumberFacts:
    """numtheory.number_facts(k), refused for a prime k: certification presumes a composite."""
    facts = numtheory.number_facts(k)
    if facts.classification is numtheory.Classification.PRIME:
        raise DomainError(f"{k} is prime; certification presumes a composite input")
    return facts


def ancilla_distribution(k: int, p: int, r: int) -> np.ndarray:
    """Exact joint law of the R counter registers of composite k, shape (P,)*R.

    qsim.counter_law at t(k) from the factorization of k, kept for
    perfbench's law oracle; the package calls qsim.counter_law directly.
    """
    return qsim.counter_law(k, composite_facts(k).t_k, p, r)


def gap_error_bound(k: int, phi: int, p: int, r: int) -> float:
    """Worst-case all-zeros leakage over the guaranteed gap t >= phi/2.

    The kernel's numerator oscillates, so sup alpha(t')^(2R) is bounded by
    the envelope 1/(P sin theta) at theta_gap = arcsin sqrt(phi/(2k)).
    phi/(2k) is one correctly rounded int division, so k may pass the float
    range; for k <= 2^50 it equals the float division to the bit.
    """
    theta_gap = math.asin(math.sqrt(phi / (2 * k)))
    envelope = 1.0 / (p * math.sin(theta_gap))
    return min(1.0, envelope) ** (2 * r)


def certify_reps(k: int, p: int, r: int, mode: str, seed: int, reps: int) -> tuple[list[Verdict], np.ndarray]:
    """reps certifications of composite k: (verdicts, index), rep i's Verdict being verdicts[index[i]].

    Any nonzero counter disproves Carmichael.  The reps share the
    composite's facts and one law (qsim.counter_law at the facts' t(k)), so
    k is factorized once.  Rep i draws from default_rng([seed, i]) through
    one qsim.rep_draws call, made once mode, k and the law have passed
    their checks, so a rejected input pays for no draw.  In sample mode a
    rep draws its geometric flag retries, then one uniform, which
    qsim.sample_outcomes maps to its reading.  Exact mode resolves the flag
    analytically (flag_retries = 0) and attaches the exact all-zeros
    probability; sample mode reports the gap-based worst-case error bound,
    which does not presume knowledge of t(k).  A Verdict depends only on
    its rep's (reading, flag rounds): one np.unique pass over draw * (max
    rounds + 1) + rounds finds the distinct pairs, in increasing order, and
    each Verdict is built and checked once, from the first rep that drew it.
    """
    if mode not in ("exact", "sample"):
        raise DomainError(f"mode must be 'exact' or 'sample', got {mode}")
    facts = composite_facts(k)
    accept = facts.phi / k
    dist = qsim.counter_law(k, facts.t_k, p, r)
    rounds, uniforms = qsim.rep_draws(seed, reps, accept if mode == "sample" else None)
    if mode == "exact":
        exact_allzero = float(dist[(0,) * r])
        carmichael_bound = 0.0 if facts.t_k == 0 else exact_allzero
    else:
        exact_allzero = None
        carmichael_bound = gap_error_bound(k, facts.phi, p, r)
    draws = qsim.sample_outcomes(dist, uniforms)
    # P^R <= AMPLITUDE_CAP keeps the packed int64 key far below 2^63
    _, first, index = np.unique(draws * (int(rounds.max()) + 1) + rounds, return_index=True, return_inverse=True)
    readings = np.stack(np.unravel_index(draws[first], dist.shape), axis=1).tolist()
    not_carmichael, carmichael = VerdictKind.NOT_CARMICHAEL, VerdictKind.PROBABLY_CARMICHAEL
    grover = r * (p - 1)
    return [
        Verdict(
            not_carmichael if (nonzero := any(reading)) else carmichael,
            0.0 if nonzero else carmichael_bound,
            tuple(reading), n_rounds, grover * (n_rounds or 1), accept, exact_allzero,
        )
        for reading, n_rounds in zip(readings, rounds[first].tolist())
    ], index


class PerturbationBounds(NamedTuple):
    """The correction budget over k = 1..n.

    correction_norm_sq is the (4/N)-weighted composite sum bounded by
    4 pi^2 / (3 P^2).  phi_norm, the mean of phi(k)/k, tends to 6/pi^2 (not
    to pi^2/6, the reciprocal-series constant sometimes quoted for it).
    beta_violations lists the composites over 2/(sqrt(3) P) (see leakage).
    """

    n: int
    p: int
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


class Leakage(NamedTuple):
    """The composites of one range of k and their leakage factors (see leakage)."""

    k: np.ndarray
    carmichael: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray


def leakage(counts: numtheory.LiarCounts, p: int, lo: int, hi: int) -> Leakage:
    """The composites k in lo..hi-1, their Carmichael mask, beta and alpha.

    counts is liar_sieve(n)'s output; hi clips at n + 1.  Only composites
    are returned, in increasing order: off them both factors are 1 by
    definition (a prime has no witness and no Fermat failure), so the
    kernels run on the composites alone.  beta is the Dirichlet kernel at
    g = P arcsin(sqrt(w/k)) / pi, w = k - 1 - strong liars (for even k, the
    bases that are not Fermat liars), alpha the kernel at the angle of
    t = phi - F.  A composite whose witness ratio is at least 3/4 has
    pi/3 <= pi g / P <= pi/2, so its beta stays under 2/(sqrt(3) P).  Only
    k = 4 (ratio 1/2) and k = 6, 9 (ratio 2/3) fall below 3/4.  k = 4 has
    g = P/4: beta is 0 when 4 | P and over the limit when P = 2 mod 4.
    k = 6 and 9 exceed it at some P only; among the powers of two
    P = 4..1024, at P = 8 and P = 64.  Entries depend on their own k only.
    """
    phi, fermat, strong = (c[lo:hi] for c in counts)
    k = np.arange(lo, lo + len(phi), dtype=np.int32)  # the sieve's dtype
    at = np.flatnonzero((phi != k - 1) & (k > 1))  # phi(k) = k - 1 exactly for primes
    k, phi, fermat, strong = k[at], phi[at], fermat[at], strong[at]
    t_gap = phi - fermat
    beta = counting.dirichlet_kernel(p * np.arcsin(np.sqrt((k - 1 - strong) / k)) / math.pi, p)
    alpha = counting.dirichlet_kernel(p * np.arcsin(np.sqrt(t_gap / k)) / math.pi, p)
    return Leakage(k, t_gap == 0, beta, alpha)


#: perturbation_bounds refuses n above this
SWEEP_BOUND = 10**7

def perturbation_bounds(n: int, p: int) -> PerturbationBounds:
    """Correction budget, phi_norm and beta violations for k = 1..n.

    One liar_sieve pass feeds leakage in chunks of numtheory._CHUNK values
    of k.  Each chunk's leakage call and its three arrays (the Carmichael
    terms, the non-Carmichael terms and the beta violations) run on one of
    numtheory._WORKERS threads, a wave of chunks at a time.  As each wave
    returns, its non-Carmichael terms are packed in k order into the front
    of the phi(k)/k array, whose mean is taken first, so at most one wave's
    terms are held at once.  Each group of terms is summed as one whole
    array in k order (chunked sums would round differently), so the result
    does not depend on the thread count.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if p < 4:
        raise DomainError(f"counter size must be >= 4, got {p}")
    if n > SWEEP_BOUND:
        raise CapacityError(f"bound sweep capped at {SWEEP_BOUND}")
    if p > sys.float_info.max:  # the bounds and kernel angles scale P as a float
        raise CapacityError("counter size P exceeds the float range")
    counts = numtheory.liar_sieve(n)
    ratio = np.arange(1.0, n + 1)  # entry k - 1 holds phi(k)/k
    np.divide(counts.phi[1:], ratio, out=ratio)
    phi_norm = float(ratio.mean())
    beta_limit = 2.0 / (math.sqrt(3.0) * p)

    def terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Carmichael terms, non-Carmichael terms and violations of k = lo..hi-1."""
        k, carmichael, beta, alpha = leakage(counts, p, lo, hi)
        part = ratio[k - 1]
        noncarm = ~carmichael
        return (part[carmichael] * beta[carmichael] ** 2,
                part[noncarm] * (1.0 - beta[noncarm] ** 2) * alpha[noncarm] ** 2,
                k[np.abs(beta) > beta_limit])

    carm_terms, violations, filled = [], [], 0
    for carm, noncarm, violating in numtheory._map_chunks(terms, 1, n + 1):
        carm_terms.append(carm)
        # fewer such k than k - 1 so far, and no chunk runs while the wave is
        # packed: the entries of the chunks yet to run stay intact
        ratio[filled : filled + len(noncarm)] = noncarm
        filled += len(noncarm)
        violations.append(violating)
    carm_sum = float(np.concatenate(carm_terms).sum())
    return PerturbationBounds(
        n=n,
        p=p,
        correction_norm_sq=4.0 / n * (carm_sum + float(ratio[:filled].sum())),
        correction_norm_bound=4.0 * math.pi**2 / (3.0 * p * p),
        phi_norm=phi_norm,
        beta_violations=tuple(np.concatenate(violations).tolist()),
    )


class CarmichaelCountResult(NamedTuple):
    """Counting run over k = 1..n, rep i's estimate being estimates[index[i]]; exact_count,
    the ground truth, is len(enumerate_carmichaels(n)), whose list is not kept."""

    exact_count: int
    estimates: list[counting.CountEstimate]
    index: np.ndarray
    error_bound: float
    peak_probability: counting.PeakProbability

    def success_fraction(self) -> float:
        """Fraction of reps whose estimate lands within the peak-outcome bound."""
        hit = np.array([abs(e.t_tilde - self.exact_count) <= self.error_bound for e in self.estimates])
        return int(np.count_nonzero(hit[self.index])) / len(self.index)


def count_carmichaels_quantum(n: int, q: int, seed: int, reps: int) -> CarmichaelCountResult:
    """Count Carmichael numbers below n on the k = 1..n register.

    The mark is the ideal Carmichael indicator restricted to k < n, so the
    marked count equals len(enumerate_carmichaels(n)); the perturbed-oracle
    corrections are budgeted by perturbation_bounds, not simulated.  Q,
    seed and reps are checked before the (slow) enumeration.
    """
    qsim.check_counter(q)
    qsim.check_reps(seed, reps)
    t_n = len(numtheory.enumerate_carmichaels(n))
    estimates, index = counting.run_count(n, t_n, q, seed=seed, reps=reps)
    return CarmichaelCountResult(
        exact_count=t_n,
        estimates=estimates,
        index=index,
        error_bound=counting.estimate_error_bound(n, q, t_n),
        peak_probability=counting.peak_success_probability(n, t_n, q),
    )


class PswReport(NamedTuple):
    """Measured counting accuracy against the conjectured accuracy target.

    dt_exp is the peak-outcome estimate bound pi (N/Q)(pi/Q + 2 sqrt(t/N));
    dt_th the accuracy target N * l(N)^-(2+eps+delta).  The policy Q misses
    that target at every N.  At Q = l^beta, beta = 1 + eps/2 + delta +
    POLICY_MARGIN, dt_exp ~ 2 pi sqrt(tN)/Q, so dt_exp/dt_th ~
    2 pi sqrt(t/E) / l^0.1 with E = N/l^(2+eps).  The true counts have
    t >= E, and l^0.1 < 2 pi for every N <= 10^21 (l(10^21) ~ 2.2e7 against
    (2 pi)^10 ~ 9.6e7).  Under the conjecture itself t/E = l^(1+eps+o(1)),
    so the ratio grows like l^(0.4+eps/2): the miss is not a small-N effect.
    """

    n: int
    t_n: int
    t_tilde: float
    dt_exp: float
    dt_th: float
    q: int
    epsilon: float
    delta: float

    CSV_HEADER = ("N", "t_N", "t_tilde", "dt_exp", "dt_th", "Q", "epsilon", "delta")

    def to_json_dict(self) -> dict:
        return dict(zip(self.CSV_HEADER, self))


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
    t_est = counting.median_t_tilde(result.estimates, result.index)
    scale = numtheory.psw_scale(n)
    return PswReport(
        n=n,
        t_n=result.exact_count,
        t_tilde=t_est,
        dt_exp=result.error_bound,
        dt_th=n * scale ** (-(2.0 + epsilon + delta)),
        q=q_used,
        epsilon=epsilon,
        delta=delta,
    )
