"""Independent reference routes that the tests compare the library against.

The number-theory oracles recompute quantities from their definitions
(per-base censuses, definitional Carmichael test), deliberately avoiding the
closed formulas and sieves used by the library; a smallest-prime-factor
table gives the tests a factorization of every k below a limit, and a
Fermat-failure mask over the bases of k feeds the dense certification
route.  The simulation references are the single search gates on a full
statevector (uniform preparation, phase flip, diffusion, one Grover
iteration), post-selection on one register, the analytic per-state
amplitudes on the rotation plane, the amplitude version of the closed-form
counting law, and the certification variant that reads the coprimality
flag after the iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from carmsim import qsim
from carmsim.carmichael import _require_composite
from carmsim.counting import dirichlet_kernel, peak_position
from carmsim.errors import CapacityError, DomainError, NormalizationError
from carmsim.qsim import RegisterLayout, StateVector, _finish


def vec_pow_mod(bases: np.ndarray, e: int, m: int) -> np.ndarray:
    r = np.ones_like(bases)
    b = bases % m
    while e:
        if e & 1:
            r = r * b % m
        b = b * b % m
        e >>= 1
    return r


def phi_census(k: int) -> int:
    """Count 1 <= a <= k with gcd(a, k) = 1."""
    return int(np.count_nonzero(np.gcd(np.arange(1, k + 1), k) == 1))


def fermat_liar_census(k: int) -> int:
    """Count 1 <= a < k with a^(k-1) = 1 mod k (coprimality is implied)."""
    a = np.arange(1, k, dtype=np.int64)
    return int(np.count_nonzero(vec_pow_mod(a, k - 1, k) == 1))


def strong_liar_census(k: int) -> int:
    """Count strong non-witnesses among 1 <= a < k for odd k."""
    assert k % 2 == 1 and k >= 3
    n, s = k - 1, 0
    while n % 2 == 0:
        n //= 2
        s += 1
    a = np.arange(1, k, dtype=np.int64)
    x = vec_pow_mod(a, n, k)
    liar = (x == 1) | (x == k - 1)
    for _ in range(s - 1):
        x = x * x % k
        liar |= x == k - 1
    return int(liar.sum())


def spf_sieve(n: int) -> np.ndarray:
    """Smallest prime factor of 0..n (spf[0] = 0, spf[1] = 1)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == 0:
            seg = spf[i * i :: i]
            seg[seg == 0] = i
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    if n >= 1:
        spf[1] = 1
    return spf


def factors_from_spf(k: int, spf: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Prime factorization of k read off a smallest-prime-factor table."""
    out = []
    while k > 1:
        p = int(spf[k])
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def fermat_failure_mask(k: int) -> np.ndarray:
    """Boolean mask over a in [0, k): coprime to k and a^(k-1) != 1 mod k."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if k >= 1 << 31:
        raise CapacityError(f"mask construction needs k*k within int64, got {k}")
    a = np.arange(k, dtype=np.int64)
    coprime = np.gcd(a, k) == 1
    fermat_pass = vec_pow_mod(a, k - 1, k) == 1
    return coprime & ~fermat_pass


def is_prime_naive(k: int) -> bool:
    if k < 2:
        return False
    return all(k % d for d in range(2, math.isqrt(k) + 1))


def carmichael_definitional(k: int) -> bool:
    """Composite k with a^(k-1) = 1 mod k for every coprime 1 < a < k."""
    if k < 4 or is_prime_naive(k):
        return False
    return all(
        pow(a, k - 1, k) == 1 for a in range(2, k) if math.gcd(a, k) == 1
    )


def strong_witness_scalar(k: int, a: int) -> bool:
    """Textbook strong-witness check via the standard decomposition."""
    n, s = k - 1, 0
    while n % 2 == 0:
        n //= 2
        s += 1
    x = pow(a, n, k)
    if x == 1 or x == k - 1:
        return False
    for _ in range(s - 1):
        x = x * x % k
        if x == k - 1:
            return False
    return True


def uniform_state(layout: RegisterLayout) -> StateVector:
    """All amplitudes 1/sqrt(D)."""
    d = layout.dimension
    return _finish(layout, np.full(d, 1.0 / math.sqrt(d), dtype=complex))


def phase_flip(state: StateVector, register: int, marked_mask: np.ndarray) -> StateVector:
    """Negate amplitudes whose register value is marked in the (dims[register],) mask."""
    state.layout.check_register(register)
    size = state.layout.dims[register]
    mask = np.asarray(marked_mask, dtype=bool)
    if mask.shape != (size,):
        raise DomainError(f"marked mask shape {mask.shape} does not match register size {size}")
    out = state.grid().copy()
    moved = np.moveaxis(out, register, 0)
    moved[mask] *= -1.0
    return _finish(state.layout, out)


def diffusion(state: StateVector, register: int) -> StateVector:
    """Reflection about the uniform state on one register: a -> 2*mean - a.

    For each fixed setting of the other registers the chosen register's
    amplitudes are replaced by twice their mean minus themselves.  This is
    the exact inversion-about-average in the register's own dimension.
    """
    state.layout.check_register(register)
    out = state.grid().copy()
    moved = np.moveaxis(out, register, 0)
    moved[...] = 2.0 * moved.mean(axis=0, keepdims=True) - moved
    return _finish(state.layout, out)


def grover_iterate(state: StateVector, register: int, marked_mask: np.ndarray) -> StateVector:
    """One search iteration: phase-flip the marked values, then diffuse.

    On the plane spanned by the marked and unmarked uniform components this
    acts as a rotation by 2*theta with sin(theta) = sqrt(t/D).
    """
    return diffusion(phase_flip(state, register, marked_mask), register)


class ZeroProbabilityError(DomainError):
    """Post-selection on an outcome carrying (numerically) zero mass."""


def postselect(state: StateVector, register: int, value: int) -> tuple[StateVector, float]:
    """Condition on one register reading `value`; returns (state, probability).

    The register is kept in the layout (its other values are zeroed)."""
    state.layout.check_register(register)
    size = state.layout.dims[register]
    if not 0 <= value < size:
        raise DomainError(f"value {value} outside register of size {size}")
    grid = state.grid()
    moved = np.moveaxis(grid, register, 0)
    prob = float(np.sum(np.abs(moved[value]) ** 2))
    if prob < 1e-15:
        raise ZeroProbabilityError(f"register {register} value {value} has zero mass")
    out = np.zeros_like(grid)
    np.moveaxis(out, register, 0)[value] = moved[value] / math.sqrt(prob)
    return _finish(state.layout, out), prob


@dataclass(frozen=True)
class GroverAngles:
    """Analytic bundle for the marked/unmarked rotation plane."""

    dimension: int
    marked: int
    theta: float

    @classmethod
    def from_counts(cls, dimension: int, marked: int) -> "GroverAngles":
        if dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {dimension}")
        if not 0 <= marked <= dimension:
            raise DomainError(f"marked count {marked} outside [0, {dimension}]")
        theta = math.asin(math.sqrt(marked / dimension))
        angles = cls(dimension, marked, theta)
        if abs(math.sin(theta) ** 2 * dimension - marked) > 1e-12 * dimension:
            raise NormalizationError("sin^2(theta) * D drifted from the marked count")
        return angles


def two_plane_amplitudes(angles: GroverAngles, iterations: int) -> tuple[float, float]:
    """Per-state amplitudes after m iterations from uniform.

    Every marked state holds sin((2m+1) theta)/sqrt(t), every unmarked state
    cos((2m+1) theta)/sqrt(D-t); degenerate t in {0, D} zero out the absent
    component.
    """
    phase = (2 * iterations + 1) * angles.theta
    t, d = angles.marked, angles.dimension
    marked_amp = math.sin(phase) / math.sqrt(t) if t > 0 else 0.0
    unmarked_amp = math.cos(phase) / math.sqrt(d - t) if t < d else 0.0
    return marked_amp, unmarked_amp


def closed_form_state(marked_mask: np.ndarray, p: int) -> np.ndarray:
    """Post-transform amplitudes (P, D) predicted without simulation.

    grid[l, a] = e^{i pi l (1 - 1/P)} / 2 * (
        (-i e^{i pi f} s(l+f) + i e^{-i pi f} s(l-f)) / sqrt(t)      marked a
        (   e^{i pi f} s(l+f) +   e^{-i pi f} s(l-f)) / sqrt(D-t)   unmarked a)

    The per-outcome phase and the branch phases e^{+-i pi f} are retained so
    this matches the dense simulator amplitude-for-amplitude.
    """
    mask = np.asarray(marked_mask, dtype=bool)
    d = mask.size
    t = int(mask.sum())
    f = peak_position(d, t, p)
    l = np.arange(p)
    s_plus = dirichlet_kernel(l + f, p)
    s_minus = dirichlet_kernel(l - f, p)
    phase = np.exp(1j * np.pi * l * (1.0 - 1.0 / p))
    e_plus = np.exp(1j * np.pi * f)
    e_minus = np.exp(-1j * np.pi * f)
    c_marked = phase * 0.5 * (-1j * e_plus * s_plus + 1j * e_minus * s_minus)
    c_unmarked = phase * 0.5 * (e_plus * s_plus + e_minus * s_minus)
    marked_col = c_marked / math.sqrt(t) if t > 0 else np.zeros(p, dtype=complex)
    unmarked_col = c_unmarked / math.sqrt(d - t) if t < d else np.zeros(p, dtype=complex)
    return np.where(mask[None, :], marked_col[:, None], unmarked_col[:, None])


@dataclass(frozen=True)
class FlagConditionedAllZeros:
    """Diagnostic: literal flag-after-iterations statistics."""

    joint: float
    conditional: float
    flag_mass: float


def allzero_probability_flag_conditioned(k: int, p: int, r: int) -> FlagConditionedAllZeros:
    """All-zeros statistics when the flag is measured after the iterations.

    The flag register is written from the base register at the end of the
    controlled powers and post-selected; the returned conditional disagrees
    with alpha^(2R) at order 1/P^2 because the iteration mixes coprime and
    non-coprime amplitudes before the flag is read.
    """
    _require_composite(k)
    state = qsim.controlled_grover_powers((p,) * r, fermat_failure_mask(k))
    coprime = (np.gcd(np.arange(k, dtype=np.int64), k) == 1).astype(np.int64)
    grid = state.grid()
    flagged = np.zeros(grid.shape + (2,), dtype=complex)
    base_values = np.arange(k)
    flagged[..., base_values, coprime] = grid
    layout = RegisterLayout((p,) * r + (k, 2))
    flag_state = StateVector(layout, flagged.reshape(-1))
    flag_state, flag_mass = postselect(flag_state, r + 1, 1)
    for axis in range(r):
        flag_state = qsim.qft(flag_state, axis)
    table = qsim.exact_distribution(flag_state, list(range(r)))
    conditional = float(table[(0,) * r])
    return FlagConditionedAllZeros(
        joint=conditional * flag_mass, conditional=conditional, flag_mass=float(flag_mass)
    )
