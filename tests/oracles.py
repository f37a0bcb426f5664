"""Independent reference routes that the tests compare the library against.

The number-theory oracles recompute quantities from their definitions
(per-base censuses, definitional Carmichael test), deliberately avoiding the
closed formulas and sieves used by the library; the Korselt test checks
the Carmichael property from a factorization, a smallest-prime-factor
table gives the tests a factorization of every k below a limit, and a
Fermat-failure mask over the bases of k feeds the dense certification
route.  The simulation references run on StateVector, amplitudes with one
axis per register that check their norm to NORM_TOL when built, and on the
dense size-P Fourier transform qft.  The two-plane statevector route
gathers the controlled powers on the base register's plane into a
(P_1, ..., P_R, 2) state from qsim's power table, and exact_distribution
sums the plane out after the transforms: the reference for
qsim.counter_law, the package's one law builder, which builds the same law
from per-register factors.
The dense route runs over all D base values (the controlled search powers
from a boolean mask, on its own numpy power table, cap check and gather of
the counter grid, sharing no code with qsim, and the counting law they
give).  Then come the marginal over any registers in any order, the single
search gates on a full statevector (uniform preparation, phase flip,
diffusion, one Grover iteration), post-selection on one register, the
analytic per-state amplitudes on the rotation plane, the amplitude version
of the closed-form counting law, the all-zeros probability of the
certification law, and the certification variant that reads the
coprimality flag after the iterations.  dirichlet_kernel_reference is
the normalized Dirichlet kernel as the library computed it before its
sign and range-reduction shortcuts: the bitwise reference for
counting.dirichlet_kernel.  draw_flag_rounds is the flag post-selection
loop on one numpy Generator, the scalar route that qsim.rep_draws runs
for all reps at once.
perturbation_sums is carmichael.perturbation_bounds' aggregates from
whole arrays over k = 0..n, the reference for its chunked pass.
peak_traced_bytes measures a call's peak heap for the memory guards.
"""

from __future__ import annotations

import functools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from carmsim import qsim
from carmsim.carmichael import composite_facts
from carmsim.counting import dirichlet_kernel, peak_position
from carmsim.errors import CapacityError, DomainError, NormalizationError
from carmsim.numtheory import factorize, liar_sieve
from carmsim.qsim import NORM_TOL


def dirichlet_kernel_reference(x, p: int) -> np.ndarray:
    """sin(pi x) / (P sin(pi x / P)), range-reduced by the nearest multiple j P of every x.

    Both sines take d = x - j P, and the two signs (-1)^(j P) and (-1)^j
    are built as arrays and applied to numerator and denominator apart;
    at x = j P the limit (-1)^(j (P - 1)) is returned.
    """
    arr = np.asarray(x, dtype=float)
    j = np.rint(arr / p)
    d = arr - j * p
    j_int = j.astype(np.int64)
    num_sign = np.where((j_int * p) & 1, -1.0, 1.0)
    den_sign = np.where(j_int & 1, -1.0, 1.0)
    den_core = np.sin(np.pi * d / p)
    small = np.abs(den_core) < 1e-12
    num = num_sign * np.sin(np.pi * d)
    den = den_sign * p * den_core
    return np.where(small, num_sign * den_sign, np.divide(num, den, out=np.ones_like(num), where=~small))


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


def is_carmichael(k: int) -> bool:
    """Korselt test: composite, squarefree, >= 3 primes, p-1 | k-1 for all p."""
    if k < 2:
        return False
    f = factorize(k)
    if len(f.factors) < 3 or any(e > 1 for _, e in f.factors):
        return False
    return all((k - 1) % (p - 1) == 0 for p, _ in f.factors)


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


@dataclass(frozen=True)
class StateVector:
    """Amplitudes with one axis per register, shape (d_1, ..., d_R); norm^2 within NORM_TOL of 1."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # written so that NaN fails too
            raise NormalizationError(
                f"norm^2 drifted to {norm_sq}, past NORM_TOL = {NORM_TOL} in a state of shape {self.amplitudes.shape}"
            )


def qft(state: StateVector, register: int) -> StateVector:
    """Size-P Fourier transform on one register (+2 pi i convention)."""
    size = state.amplitudes.shape[register]
    return StateVector(np.fft.ifft(state.amplitudes, axis=register) * math.sqrt(size))


def two_plane_grover_powers(ancilla_dims, dimension: int, marked: int) -> StateVector:
    """Superposed iteration counts sum_m |m_1..m_R> G^(m_1+..+m_R)|u> / P^(R/2) on the base plane.

    The base axis has two entries: the coefficients c_M, c_U of the
    uniform-marked and uniform-unmarked states, so a marked base value holds
    c_M / sqrt(t) and an unmarked one c_U / sqrt(D - t).  qsim's power table
    is built once, for s = 0..sum(m_i - 1), and branches are gathered by
    total power.  The counter sizes are read lazily and the shape
    ancilla_dims + (2,) checked against qsim.AMPLITUDE_CAP after each, before
    the table or any other array.
    """
    if dimension < 1:
        raise DomainError(f"base dimension must be >= 1, got {dimension}")
    if not 0 <= marked <= dimension:
        raise DomainError(f"marked count {marked} outside [0, {dimension}]")
    dims, size = [], 2
    for d in map(int, ancilla_dims):
        if d < 2:
            raise DomainError(f"ancilla register sizes must be >= 2, got {d}")
        size *= d
        if size > qsim.AMPLITUDE_CAP:
            raise CapacityError(f"counter registers exceed the cap of {qsim.AMPLITUDE_CAP} amplitudes")
        dims.append(d)
    if not dims:
        raise DomainError("need at least one ancilla register")
    u_marked, u_unmarked = math.sqrt(marked / dimension), math.sqrt((dimension - marked) / dimension)
    # scaled before the gather: one row per total power, not one per branch
    table = qsim._plane_power_table(u_marked, u_unmarked, sum(d - 1 for d in dims)).astype(complex)
    table /= math.sqrt(math.prod(dims))
    # m_1 + .. + m_R on the counter grid, an outer sum of one arange per register
    power_grid = functools.reduce(np.add.outer, (np.arange(d) for d in dims))
    return StateVector(table[power_grid])


def exact_distribution(state: StateVector) -> np.ndarray:
    """Counter law of a (P,)*R + (2,) state: the base plane, its last register, summed out."""
    marg = (np.abs(state.amplitudes) ** 2).sum(axis=-1)
    total = float(marg.sum())
    if not abs(total - 1.0) <= NORM_TOL:  # written so that NaN fails too
        raise NormalizationError(f"marginal mass {total} != 1")
    return marg


def check_register(state: StateVector, index: int) -> None:
    if not 0 <= index < state.amplitudes.ndim:
        raise DomainError(f"register index {index} outside shape {state.amplitudes.shape}")


def dense_power_table(start: np.ndarray, mask: np.ndarray, max_power: int) -> np.ndarray:
    """G^s |start> for s = 0..max_power as a (max_power+1, len(start)) array.

    G flips the sign of the masked entries, then reflects about the real
    unit vector |start>: w -> 2 <start|w> start - w.  Both gates are real,
    so the table is computed in real arithmetic, one whole-vector step per
    power.  The dense route's table; qsim's two-plane route has its own.
    """
    table = np.empty((max_power + 1, start.size))
    flip = np.where(mask, -1.0, 1.0)
    table[0] = start
    for s in range(1, max_power + 1):
        w = table[s - 1] * flip
        np.subtract(2.0 * np.dot(start, w) * start, w, out=table[s])
    return table


def controlled_grover_powers(ancilla_dims, marked_mask: np.ndarray) -> StateVector:
    """Superposed iteration counts: sum_m |m_1..m_R> G^(m_1+..+m_R)|u> / P^(R/2).

    Dense route: every one of the D = marked_mask.size base amplitudes is
    simulated, with the exact inversion-about-average as the diffusion.
    Oracle for two_plane_grover_powers.
    """
    mask = np.asarray(marked_mask, dtype=bool)
    if mask.ndim != 1 or mask.size < 1:
        raise DomainError(f"marked mask must be 1-d and non-empty, got shape {mask.shape}")
    dims = tuple(map(int, ancilla_dims))
    if not dims or min(dims) < 2:
        raise DomainError(f"need one or more ancilla registers of size >= 2, got {dims}")
    branches = math.prod(dims)
    if branches * mask.size > qsim.AMPLITUDE_CAP:
        raise CapacityError(f"{branches} x {mask.size} amplitudes exceed the cap")
    uniform = np.full(mask.size, 1.0 / math.sqrt(mask.size))
    table = dense_power_table(uniform, mask, sum(dims) - len(dims)).astype(complex) / math.sqrt(branches)
    # m_1 + .. + m_R as one broadcast sum: register i's arange along axis i
    power_grid = sum(np.arange(d).reshape((d,) + (1,) * (len(dims) - 1 - i)) for i, d in enumerate(dims))
    return StateVector(table[power_grid])


def marginal(state: StateVector, registers) -> np.ndarray:
    """Marginal probability table over the chosen registers (in given order)."""
    regs = list(registers)
    if len(set(regs)) != len(regs):
        raise DomainError(f"duplicate register indices: {regs}")
    for r in regs:
        check_register(state, r)
    probs = np.abs(state.amplitudes) ** 2
    other = tuple(i for i in range(probs.ndim) if i not in regs)
    marg = probs.sum(axis=other) if other else probs
    if len(regs) > 1:
        # after the sum the surviving axes sit in ascending register order;
        # permute them into the caller's order
        marg = np.transpose(marg, np.argsort(np.argsort(regs)))
    total = float(marg.sum())
    if not abs(total - 1.0) <= NORM_TOL:  # written so that NaN fails too
        raise NormalizationError(f"marginal mass {total} != 1")
    return marg


def count_distribution_dense(marked_mask: np.ndarray, p: int) -> np.ndarray:
    """Outcome law via full statevector simulation over D = marked_mask.size.

    Builds the controlled-power state of shape (P, D), Fourier-transforms
    the counter, and reads the exact marginal.  Needs P*D amplitudes; oracle
    for qsim.counter_law.
    """
    return marginal(qft(controlled_grover_powers((p,), marked_mask), 0), [0])


def uniform_state(shape: tuple[int, ...]) -> StateVector:
    """All amplitudes 1/sqrt(D), D the product of the register sizes in shape."""
    return StateVector(np.full(shape, 1.0 / math.sqrt(math.prod(shape)), dtype=complex))


def phase_flip(state: StateVector, register: int, marked_mask: np.ndarray) -> StateVector:
    """Negate amplitudes whose register value is marked in the (dims[register],) mask."""
    check_register(state, register)
    size = state.amplitudes.shape[register]
    mask = np.asarray(marked_mask, dtype=bool)
    if mask.shape != (size,):
        raise DomainError(f"marked mask shape {mask.shape} does not match register size {size}")
    out = state.amplitudes.copy()
    moved = np.moveaxis(out, register, 0)
    moved[mask] *= -1.0
    return StateVector(out)


def diffusion(state: StateVector, register: int) -> StateVector:
    """Reflection about the uniform state on one register: a -> 2*mean - a.

    For each fixed setting of the other registers the chosen register's
    amplitudes are replaced by twice their mean minus themselves.  This is
    the exact inversion-about-average in the register's own dimension.
    """
    check_register(state, register)
    out = state.amplitudes.copy()
    moved = np.moveaxis(out, register, 0)
    moved[...] = 2.0 * moved.mean(axis=0, keepdims=True) - moved
    return StateVector(out)


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

    The register is kept in the shape (its other values are zeroed)."""
    check_register(state, register)
    amplitudes = state.amplitudes
    size = amplitudes.shape[register]
    if not 0 <= value < size:
        raise DomainError(f"value {value} outside register of size {size}")
    moved = np.moveaxis(amplitudes, register, 0)
    prob = float(np.sum(np.abs(moved[value]) ** 2))
    if prob < 1e-15:
        raise ZeroProbabilityError(f"register {register} value {value} has zero mass")
    out = np.zeros_like(amplitudes)
    np.moveaxis(out, register, 0)[value] = moved[value] / math.sqrt(prob)
    return StateVector(out), prob


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


def allzero_probability(k: int, p: int, r: int) -> float:
    """Exact probability of reading |0...0> on the counters (composite k).

    Equals alpha_k^(2R) with alpha_k = s(f_k), and exactly 1 iff k is
    Carmichael.
    """
    return float(qsim.counter_law(k, composite_facts(k).t_k, p, r)[(0,) * r])


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
    composite_facts(k)
    state = controlled_grover_powers((p,) * r, fermat_failure_mask(k))
    coprime = (np.gcd(np.arange(k, dtype=np.int64), k) == 1).astype(np.int64)
    flagged = np.zeros(state.amplitudes.shape + (2,), dtype=complex)
    base_values = np.arange(k)
    flagged[..., base_values, coprime] = state.amplitudes
    flag_state, flag_mass = postselect(StateVector(flagged), r + 1, 1)
    for axis in range(r):
        flag_state = qft(flag_state, axis)
    table = marginal(flag_state, range(r))
    conditional = float(table[(0,) * r])
    return FlagConditionedAllZeros(
        joint=conditional * flag_mass, conditional=conditional, flag_mass=float(flag_mass)
    )


def draw_flag_rounds(accept_probability: float, rng: np.random.Generator) -> int:
    """Number of flag post-selection rounds until acceptance (geometric, >= 1)."""
    if not 0.0 < accept_probability <= 1.0:
        raise DomainError(f"acceptance probability {accept_probability} outside (0, 1]")
    rounds = 1
    while rng.random() >= accept_probability:
        rounds += 1
    return rounds


def perturbation_sums(n: int, p: int) -> tuple[float, float, tuple[int, ...]]:
    """(correction_norm_sq, phi_norm, beta_violations) of perturbation_bounds
    from whole arrays: both kernels on every k at once, each group of terms
    gathered by its mask and summed in one call."""
    phi, fermat, strong = liar_sieve(n)
    k = np.arange(n + 1, dtype=np.int32)
    composite = phi != k - 1
    composite[:2] = False
    witness = np.where(composite, k - 1 - strong, 0)
    t_gap = np.where(composite, phi - fermat, 0)
    size = np.maximum(k, 1.0)
    beta = dirichlet_kernel(p * np.arcsin(np.sqrt(witness / size)) / math.pi, p)
    alpha = dirichlet_kernel(p * np.arcsin(np.sqrt(t_gap / size)) / math.pi, p)
    carm = composite & (t_gap == 0)
    noncarm = composite & ~carm
    carm_sum = float((phi[carm] / k[carm] * beta[carm] ** 2).sum())
    terms = phi[noncarm] / k[noncarm] * (1.0 - beta[noncarm] ** 2) * alpha[noncarm] ** 2
    limit = 2.0 / (math.sqrt(3.0) * p)
    violating = np.flatnonzero(composite & ((beta > limit) | (beta < -limit)))
    correction = 4.0 / n * (carm_sum + float(terms.sum()))
    return correction, float((phi[1:] / k[1:]).mean()), tuple(int(v) for v in violating)


def peak_traced_bytes(fn, *args) -> int:
    """Peak bytes allocated during fn(*args); tracemalloc sees numpy buffers too."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
