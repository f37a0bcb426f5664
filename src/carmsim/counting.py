"""Counting marked states by phase estimation: simulation and closed form.

The procedure on a dimension-D register with t marked values and a size-P
counter register is

    1.  prepare uniform |m> (x) uniform |a>
    2.  apply the m-controlled search power G^m to |a>, Fourier-transform |m>
    3.  measure |m>.

With theta = arcsin sqrt(t/D) and f = P theta / pi, the measured index l
concentrates on f and P - f.  The exact outcome law is

    P(l) = ( s(l + f)^2 + s(l - f)^2 ) / 2,
    s(x) = sin(pi x) / (P sin(pi x / P)),

the normalized Dirichlet kernel; at integer f the two peaks carry exactly
1/2 each.  Decoding folds the mirror peak, f~ = min(l, P - l), and returns
t~ = D sin^2(pi f~ / P), with the guarantee |t~ - t| <= pi (D/Q)(pi/Q +
2 sqrt(t/D)) whenever l lands on one of the four integers bracketing the
peaks.

The production route, `count_distribution`, simulates the counters on the
two-plane register (qsim.two_plane_grover_powers) and needs only the marked
count t, never a mask over the D base values.  `count_distribution_dense`
simulates all D amplitudes from a boolean mask over the base values; it and
the closed-form law are the test oracles for the production route (the
closed form's amplitude version lives in tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import DomainError, NormalizationError

#: denominator threshold below which the kernel returns its removable limit
KERNEL_SINGULARITY_TOL = 1e-12


def dirichlet_kernel(x, p: int):
    """sin(pi x) / (P sin(pi x / P)) with removable singularities resolved.

    At x = j P both factors vanish; the limit is (-1)^(j (P - 1)).  The
    computation range-reduces x by the nearest multiple of P, which keeps
    both sines well conditioned arbitrarily close to the singular points.
    Accepts scalars or arrays.
    """
    if p < 2:
        raise DomainError(f"kernel size must be >= 2, got {p}")
    arr = np.asarray(x, dtype=float)
    j = np.rint(arr / p)
    d = arr - j * p
    j_int = j.astype(np.int64)
    num_sign = np.where((j_int * p) & 1, -1.0, 1.0)
    den_sign = np.where(j_int & 1, -1.0, 1.0)
    den_core = np.sin(np.pi * d / p)
    small = np.abs(den_core) < KERNEL_SINGULARITY_TOL
    num = num_sign * np.sin(np.pi * d)
    den = den_sign * p * den_core
    out = np.where(small, num_sign * den_sign, np.divide(num, den, out=np.ones_like(num), where=~small))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def peak_position(dimension: int, marked: int, p: int) -> float:
    """f = P arcsin(sqrt(t/D)) / pi, the continuous peak location."""
    if dimension < 1 or not 0 <= marked <= dimension:
        raise DomainError(f"bad (D, t) = ({dimension}, {marked})")
    return p * math.asin(math.sqrt(marked / dimension)) / math.pi


def exact_count_joint(dimension: int, marked: int, p: int, registers: int) -> np.ndarray:
    """Joint outcome law over `registers` counter registers, shape (P,)*R.

    P(l_1..l_R) = ( prod_i s(l_i + f)^2 + prod_i s(l_i - f)^2 ) / 2.
    """
    if registers < 1:
        raise DomainError(f"need >= 1 counter registers, got {registers}")
    f = peak_position(dimension, marked, p)
    l = np.arange(p)
    sp2 = dirichlet_kernel(l + f, p) ** 2
    sm2 = dirichlet_kernel(l - f, p) ** 2
    plus, minus = sp2, sm2
    for _ in range(registers - 1):
        plus = np.multiply.outer(plus, sp2)
        minus = np.multiply.outer(minus, sm2)
    joint = 0.5 * (plus + minus)
    if not abs(float(joint.sum()) - 1.0) <= 1e-10:  # written so that NaN fails too
        raise NormalizationError(f"closed-form law sums to {joint.sum()}")
    return joint


def estimate_error_bound(dimension: int, q: int, t: float) -> float:
    """pi (D/Q) (pi/Q + 2 sqrt(t/D)): estimate error valid on the four peak outcomes."""
    if q < 2:
        raise DomainError(f"counter size must be >= 2, got {q}")
    if t < 0 or t > dimension:
        raise DomainError(f"marked count {t} outside [0, {dimension}]")
    return math.pi * (dimension / q) * (math.pi / q + 2.0 * math.sqrt(t / dimension))


@dataclass(frozen=True)
class CountEstimate:
    """Decoded counting outcome with its peak-outcome error guarantee."""

    measured_l: int
    f_tilde: float
    theta_tilde: float
    t_tilde: float
    error_bound: float
    in_ansatz: bool

    def to_json_dict(self) -> dict:
        return {
            "l": self.measured_l,
            "f_tilde": self.f_tilde,
            "theta_tilde": self.theta_tilde,
            "t_tilde": self.t_tilde,
            "bound": self.error_bound,
            "in_ansatz": self.in_ansatz,
        }


def decode_outcomes(outcomes, dimension: int, p: int, t_ref: float) -> list[CountEstimate]:
    """Fold the mirror peak and decode each outcome: f~ = min(l, P-l), t~ = D sin^2(pi f~/P).

    The error bound is evaluated at the true count t_ref, once for all
    outcomes.  in_ansatz records whether the true peak sits in the window
    1 < f < P/2 - 1 where the four-peak success floor applies;
    out-of-window results are flagged, not rejected.
    """
    bound = estimate_error_bound(dimension, p, t_ref)
    f_ref = p * math.asin(math.sqrt(t_ref / dimension)) / math.pi
    in_ansatz = bool(1.0 < f_ref < p / 2.0 - 1.0)
    estimates = []
    for l in map(int, outcomes):
        if not 0 <= l < p:
            raise DomainError(f"outcome {l} outside [0, {p})")
        f_tilde = float(min(l, p - l))
        theta_tilde = math.pi * f_tilde / p
        estimates.append(CountEstimate(
            measured_l=l,
            f_tilde=f_tilde,
            theta_tilde=theta_tilde,
            t_tilde=dimension * math.sin(theta_tilde) ** 2,
            error_bound=bound,
            in_ansatz=in_ansatz,
        ))
    return estimates


def count_distribution(dimension: int, marked: int, p: int, registers: int = 1) -> np.ndarray:
    """Outcome law over `registers` counters of size P, shape (P,)*R.

    Production route: controlled powers on the two-plane (P,)*R + (2,)
    layout, a Fourier transform on each counter, the exact marginal.
    """
    if registers < 1:
        raise DomainError(f"need >= 1 counter registers, got {registers}")
    state = qsim.two_plane_grover_powers((p,) * registers, dimension, marked)
    for axis in range(registers):
        state = qsim.qft(state, axis)
    return qsim.exact_distribution(state, list(range(registers)))


def count_distribution_dense(marked_mask: np.ndarray, p: int) -> np.ndarray:
    """Outcome law via full statevector simulation over D = marked_mask.size.

    Builds the controlled-power state on a (P, D) layout, Fourier-transforms
    the counter, and reads the exact marginal.  Needs P*D amplitudes; test
    oracle for count_distribution.
    """
    state = qsim.controlled_grover_powers((p,), marked_mask)
    return qsim.exact_distribution(qsim.qft(state, 0), [0])


def run_count(dimension: int, marked: int, p: int, seed: int, reps: int) -> list[CountEstimate]:
    """reps seeded measurements of the counter with decoded estimates.

    Sampling uses the exact law of count_distribution over the t = marked
    values, built once.  Rep i draws one uniform from
    np.random.default_rng([seed, i]), and its outcome is the first l whose
    cumulative mass exceeds that uniform, so runs are reproducible and
    independent reps can be regenerated in isolation.
    """
    if p < 4:
        raise DomainError(f"counter size must be >= 4, got {p}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    table = count_distribution(dimension, marked, p)
    uniforms = [np.random.default_rng([seed, i]).random() for i in range(reps)]
    return decode_outcomes(qsim.sample_outcomes(table, uniforms)[:, 0], dimension, p, t_ref=marked)


@dataclass(frozen=True)
class PeakProbability:
    """Total mass on the four integers bracketing the spectral peaks."""

    value: float
    in_ansatz: bool
    peaks: tuple[int, ...]


def peak_success_probability(dimension: int, marked: int, q: int) -> PeakProbability:
    """Exact probability of measuring floor(f), ceil(f) or their mirrors.

    Inside the window 1 < f < Q/2 - 1 this is at least 8/pi^2; outside it
    the probability is still returned, flagged via in_ansatz (t = 0 for
    instance concentrates everything on l = 0).
    """
    dist = exact_count_joint(dimension, marked, q, 1)
    f = peak_position(dimension, marked, q)
    peaks = sorted(
        {math.floor(f) % q, math.ceil(f) % q, (q - math.floor(f)) % q, (q - math.ceil(f)) % q}
    )
    value = float(sum(dist[i] for i in peaks))
    return PeakProbability(value=value, in_ansatz=bool(1.0 < f < q / 2.0 - 1.0), peaks=tuple(peaks))
