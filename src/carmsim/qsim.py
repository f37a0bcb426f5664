"""Exact statevector simulation over mixed-radix register layouts.

A state lives on registers with sizes (d_1, ..., d_R); the flat index of
the basis state |v_1, ..., v_R> is (((v_1 * d_2 + v_2) * d_3 + ...)), the
leftmost register most significant.  Register sizes are arbitrary (not
powers of two): the search iteration uses the exact reflection about the
uniform state in the register's own dimension, and the Fourier transform
is the dense size-P unitary F|a> = sum_b exp(+2 pi i a b / P) |b> / sqrt(P).

All operations are pure (a new state is returned) and re-verify the norm
to 1e-10 afterwards; nothing renormalizes silently.

Counter-controlled search powers come in two routes.  The production route,
`two_plane_grover_powers`, keeps the base register in the plane spanned by
its uniform-marked and uniform-unmarked states, which the search iterate
never leaves from the uniform start: the layout is (P_1, ..., P_R, 2) and
only the marked count t enters, so the base dimension D may be as large as
an integer allows.  `controlled_grover_powers` builds all D base amplitudes
from a boolean mask over the base values; it is the dense test oracle for
the reduced route.  The single gates that both routes are checked against
(uniform preparation, phase flip, diffusion) and post-selection live in
tests/oracles.py.

Measurement is sampled from an exact marginal table.  `sample_outcomes`
builds the table's CDF once and maps a whole vector of uniforms in [0, 1)
to outcomes with one search, so a command with many reps pays for one CDF;
the caller draws the uniforms from `rep_streams`, the one stream builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, NormalizationError

#: cap on the number of amplitudes a layout may hold
AMPLITUDE_CAP = 1 << 26

NORM_TOL = 1e-10

#: probabilities below this are floating-point dust and never sampled
SAMPLE_CLIP = 1e-13


@dataclass(frozen=True)
class RegisterLayout:
    """Register sizes, leftmost most significant; product at most AMPLITUDE_CAP."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise DomainError("layout needs at least one register")
        if any(d < 1 for d in self.dims):
            raise DomainError(f"register sizes must be >= 1, got {self.dims}")
        if self.dimension > AMPLITUDE_CAP:
            raise CapacityError(f"{self.dimension} amplitudes exceed cap {AMPLITUDE_CAP}")

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    def check_register(self, index: int) -> None:
        if not 0 <= index < len(self.dims):
            raise DomainError(f"register index {index} outside layout {self.dims}")


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over a layout (flat, complex128)."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register (a view)."""
        return self.amplitudes.reshape(self.layout.dims)


def _finish(layout: RegisterLayout, amplitudes: np.ndarray) -> StateVector:
    flat = np.ascontiguousarray(amplitudes.reshape(-1))
    norm_sq = float(np.vdot(flat, flat).real)
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # written so that NaN fails too
        raise NormalizationError(f"norm^2 drifted to {norm_sq}")
    return StateVector(layout, flat)


def qft(state: StateVector, register: int) -> StateVector:
    """Size-P Fourier transform on one register (+2 pi i convention)."""
    state.layout.check_register(register)
    p = state.layout.dims[register]
    return _finish(state.layout, np.fft.ifft(state.grid(), axis=register) * math.sqrt(p))


def _grover_power_table(start: np.ndarray, mask: np.ndarray, max_power: int) -> np.ndarray:
    """G^s |start> for s = 0..max_power as a (max_power+1, len(start)) array.

    G flips the sign of the masked entries, then reflects about the real
    unit vector |start>: w -> 2 <start|w> start - w.  Both gates are real,
    so the table is computed in real arithmetic.
    """
    table = np.empty((max_power + 1, start.size))
    flip = np.where(mask, -1.0, 1.0)
    table[0] = start
    for s in range(1, max_power + 1):
        w = table[s - 1] * flip
        np.subtract(2.0 * np.dot(start, w) * start, w, out=table[s])
    return table


def _controlled_powers(ancilla_dims: Sequence[int], start: np.ndarray, mask: np.ndarray) -> StateVector:
    """sum_m |m_1..m_R> G^(m_1+..+m_R)|start> / P^(R/2) on ancilla_dims + (len(start),).

    G^s|start> is computed once per total power s (the distinct sums are
    few) and branches are assembled by multiplicity, so the cost is
    O(R P n + P^R n) for an n-entry base instead of O(P^R * P * n).
    """
    ancilla_dims = tuple(int(d) for d in ancilla_dims)
    if not ancilla_dims or any(d < 2 for d in ancilla_dims):
        raise DomainError(f"ancilla register sizes must be >= 2, got {ancilla_dims}")
    layout = RegisterLayout(ancilla_dims + (start.size,))
    max_power = sum(d - 1 for d in ancilla_dims)
    table = _grover_power_table(start, mask, max_power).astype(complex)
    power_grid = np.indices(ancilla_dims).sum(axis=0)
    out = table[power_grid] / math.sqrt(math.prod(ancilla_dims))
    return _finish(layout, out)


def controlled_grover_powers(ancilla_dims: Sequence[int], marked_mask: np.ndarray) -> StateVector:
    """Superposed iteration counts: sum_m |m_1..m_R> G^(m_1+..+m_R)|u> / P^(R/2).

    Dense route: every one of the D = marked_mask.size base amplitudes is
    simulated, with the exact inversion-about-average as the diffusion.
    Test oracle for two_plane_grover_powers.
    """
    mask = np.asarray(marked_mask, dtype=bool)
    if mask.ndim != 1 or mask.size < 1:
        raise DomainError(f"marked mask must be 1-d and non-empty, got shape {mask.shape}")
    uniform = np.full(mask.size, 1.0 / math.sqrt(mask.size))
    return _controlled_powers(ancilla_dims, uniform, mask)


def two_plane_grover_powers(ancilla_dims: Sequence[int], dimension: int, marked: int) -> StateVector:
    """controlled_grover_powers on the invariant plane of the base register.

    The base axis has two entries: the coefficients c_M, c_U of the
    uniform-marked and uniform-unmarked states, so a marked base value holds
    c_M / sqrt(t) and an unmarked one c_U / sqrt(D - t).  The gates are the
    same, applied one at a time: the phase flip is diag(-1, 1) and the
    diffusion is the reflection about u = (sqrt(t/D), sqrt((D-t)/D)), the
    uniform state.  Only the layout ancilla_dims + (2,) counts against
    AMPLITUDE_CAP.
    """
    if dimension < 1:
        raise DomainError(f"base dimension must be >= 1, got {dimension}")
    if not 0 <= marked <= dimension:
        raise DomainError(f"marked count {marked} outside [0, {dimension}]")
    uniform = np.array([math.sqrt(marked / dimension), math.sqrt((dimension - marked) / dimension)])
    return _controlled_powers(ancilla_dims, uniform, np.array([True, False]))


def exact_distribution(state: StateVector, registers: Sequence[int]) -> np.ndarray:
    """Marginal probability table over the chosen registers (in given order)."""
    regs = list(registers)
    if len(set(regs)) != len(regs):
        raise DomainError(f"duplicate register indices: {regs}")
    for r in regs:
        state.layout.check_register(r)
    probs = np.abs(state.grid()) ** 2
    other = tuple(i for i in range(len(state.layout.dims)) if i not in regs)
    marg = probs.sum(axis=other) if other else probs
    if len(regs) > 1:
        # after the sum the surviving axes sit in ascending register order;
        # permute them into the caller's order
        marg = np.transpose(marg, np.argsort(np.argsort(regs)))
    total = float(marg.sum())
    if not abs(total - 1.0) <= NORM_TOL:  # written so that NaN fails too
        raise NormalizationError(f"marginal mass {total} != 1")
    return marg


def sample_outcomes(table: np.ndarray, uniforms: Sequence[float] | np.ndarray) -> np.ndarray:
    """One outcome per uniform in [0, 1) from a probability table; shape (n, table.ndim).

    Entries below SAMPLE_CLIP are zeroed and the rest renormalized first:
    measured outcomes never come from floating-point dust.  The CDF is built
    once and each uniform u maps to the first flat index whose cumulative
    mass exceeds u.  These are the steps of numpy's Generator.choice with
    p = clipped table, so n uniforms from rng.random(n) give its n draws.
    """
    flat = np.asarray(table, dtype=float).reshape(-1)
    flat = np.where(flat < SAMPLE_CLIP, 0.0, flat)
    total = float(flat.sum())
    if not 0.0 < total < math.inf:
        raise NormalizationError(f"sampled table carries mass {total}")
    flat /= total
    cdf = flat.cumsum()
    cdf /= cdf[-1]
    draws = cdf.searchsorted(uniforms, side="right")
    return np.stack(np.unravel_index(draws, np.shape(table)), axis=1).astype(np.int64)


def rep_streams(seed: int, reps: int) -> list[np.random.Generator]:
    """np.random.default_rng([seed, i]) for each rep i < reps, a stream fixed by (seed, i) alone."""
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise DomainError(f"seed must be >= 0, got {seed}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    return [np.random.default_rng([seed, i]) for i in range(reps)]
