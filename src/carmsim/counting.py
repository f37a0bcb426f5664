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

qsim.counter_law builds the law from the base register's plane (two
length-P factors, one per eigenvalue of the plane's quarter turn) and needs
only the marked count t, never a mask over the D base values; run_count
samples it.  The closed-form law checks it here; the statevector
simulations, on the two-entry plane and on all D amplitudes, and the
closed form's amplitude version live in tests/oracles.py.
"""

from __future__ import annotations

import functools
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
    computation range-reduces x by the nearest multiple j P, d = x - j P,
    which keeps both sines well conditioned arbitrarily close to the
    singular points: sin(pi x) = (-1)^(j P) sin(pi d) and
    P sin(pi x / P) = (-1)^j P sin(pi d / P), so the kernel is
    (-1)^(j (P - 1)) sin(pi d) / (P sin(pi d / P)).  Negating a float is
    exact, so the sign is applied once to the quotient, and only for even P
    (for odd P it is always 1).  When every |x| <= P/2, every j is 0: x is
    used as d, with no rounding, no reduction and no sign, and the result
    is the same to the bit.  Accepts scalars or arrays.
    """
    if p < 2:
        raise DomainError(f"kernel size must be >= 2, got {p}")
    arr = np.asarray(x, dtype=float)
    flip = None
    if np.abs(arr).max(initial=0.0) <= p / 2:
        d = arr  # rint(x / P) = 0 throughout
    else:
        j = np.rint(arr / p)
        d = arr - j * p
        if p % 2 == 0:
            flip = j % 2 != 0
    angle = np.pi * d  # angle / p rounds as pi * d / p does: the product comes first
    den = np.sin(angle / p)
    small = np.abs(den) < KERNEL_SINGULARITY_TOL
    den *= p
    out = np.divide(np.sin(angle), den, out=np.ones_like(den), where=~small)
    if flip is not None:
        np.negative(out, out=out, where=flip)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def peak_position(dimension: int, marked: float, p: int) -> float:
    """f = P arcsin(sqrt(t/D)) / pi, the continuous peak location."""
    if dimension < 1 or not 0 <= marked <= dimension:
        raise DomainError(f"bad (D, t) = ({dimension}, {marked})")
    return p * math.asin(math.sqrt(marked / dimension)) / math.pi


def exact_count_joint(dimension: int, marked: float, p: int, registers: int) -> np.ndarray:
    """Joint outcome law over `registers` counter registers, shape (P,)*R.

    P(l_1..l_R) = ( prod_i s(l_i + f)^2 + prod_i s(l_i - f)^2 ) / 2.
    """
    if registers < 1:
        raise DomainError(f"need >= 1 counter registers, got {registers}")
    f = peak_position(dimension, marked, p)
    l = np.arange(p)
    joint = functools.reduce(np.multiply.outer, [dirichlet_kernel(l + f, p) ** 2] * registers)
    joint += functools.reduce(np.multiply.outer, [dirichlet_kernel(l - f, p) ** 2] * registers)
    joint *= 0.5
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
    out-of-window results are flagged, not rejected.  Outcomes with the
    same l share one frozen CountEstimate, decoded and checked once.
    """
    bound = estimate_error_bound(dimension, p, t_ref)
    f_ref = peak_position(dimension, t_ref, p)
    in_ansatz = bool(1.0 < f_ref < p / 2.0 - 1.0)

    def estimate(l: int) -> CountEstimate:
        if not 0 <= l < p:
            raise DomainError(f"outcome {l} outside [0, {p})")
        f_tilde = float(min(l, p - l))
        theta_tilde = math.pi * f_tilde / p
        return CountEstimate(
            measured_l=l,
            f_tilde=f_tilde,
            theta_tilde=theta_tilde,
            t_tilde=dimension * math.sin(theta_tilde) ** 2,
            error_bound=bound,
            in_ansatz=in_ansatz,
        )

    ls = list(map(int, outcomes))
    shared = {l: estimate(l) for l in dict.fromkeys(ls)}
    return [shared[l] for l in ls]


def median_t_tilde(estimates: list[CountEstimate]) -> float:
    """Median t_tilde of the estimates, the float that np.median returns.

    Sorts instead: np.median's NaN check imports numpy.ma, about 10 ms of a
    process's first call.  An even count averages the two middle values as
    np.mean does, (a + b) / 2.
    """
    values = sorted(e.t_tilde for e in estimates)
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2


def run_count(dimension: int, marked: int, p: int, seed: int, reps: int) -> list[CountEstimate]:
    """reps seeded measurements of the counter with decoded estimates.

    Sampling uses the exact law of qsim.counter_law over the t = marked
    values, built once, then one uniform per rep from qsim.rep_draws with no
    flag, drawn for all reps at once: rep i's uniform is the first draw of
    numpy's PCG64 sequence of default_rng([seed, i]), reproduced in-package,
    and its outcome is the first l whose cumulative mass exceeds it, so runs
    are reproducible and reps can be regenerated in isolation.
    """
    table = qsim.counter_law(dimension, marked, p)
    _, uniforms = qsim.rep_draws(seed, reps, None)
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
