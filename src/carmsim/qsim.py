"""Exact statevector simulation of the counter registers on the base register's plane.

A StateVector holds its amplitudes with one axis per register, shape
(d_1, ..., d_R), and checks its norm to 1e-10 when it is built; nothing
renormalizes silently.  Register sizes are arbitrary (not powers of two):
the search iteration uses the exact reflection about the uniform state,
and the Fourier transform is the dense size-P unitary
F|a> = sum_b exp(+2 pi i a b / P) |b> / sqrt(P).  Operations are pure (a
new state is returned).

Counter-controlled search powers, `two_plane_grover_powers`, keep the base
register in the plane spanned by its uniform-marked and uniform-unmarked
states, which the search iterate never leaves from the uniform start: the
shape is (P_1, ..., P_R, 2) and only the marked count t enters, so the
base dimension D may be as large as an integer allows.  Its power table,
`_plane_power_table`, is a scalar recurrence: the phase flip and the
reflection about the uniform state applied gate by gate in plain Python
floats, with no BLAS call, so seeded output is the same on every BLAS
kernel.  `exact_distribution` sums the plane out.  The dense route over
all D base values (with its own numpy power table), the single gates
(uniform preparation, phase flip, diffusion), the marginal over any
registers and post-selection live in tests/oracles.py, on the
`_controlled_powers` assembly and the StateVector kept here.

Measurement is sampled from an exact marginal table.  `sample_outcomes`
builds the table's CDF once and maps a whole vector of uniforms in [0, 1)
to outcomes with one search, so a command with many reps pays for one CDF;
the caller draws the uniforms from `RepStreams`, the one stream builder.
Rep i draws numpy's PCG64 sequence of np.random.default_rng([seed, i]), bit
for bit, reproduced in-package: the SeedSequence hash of the seed words
runs for a whole chunk of reps in one numpy uint32 pass, and `RepStreams`
seeds and steps every rep's 128-bit LCG as uint64 array arithmetic, a
block of steps by jump-ahead.  No command imports numpy.random, which the tests use as
the oracle for these streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, NormalizationError

#: cap on the number of amplitudes a state may hold
AMPLITUDE_CAP = 1 << 26

NORM_TOL = 1e-10

#: probabilities below this are floating-point dust and never sampled
SAMPLE_CLIP = 1e-13


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


def _plane_power_table(u_marked: float, u_unmarked: float, max_power: int) -> np.ndarray:
    """G^s |u> for s = 0..max_power on the base plane, a (max_power+1, 2) array.

    G flips the sign of the marked coefficient, then reflects about the
    real unit vector u = (u_M, u_U): w -> 2 <u|w> u - w.  The two gates are
    applied in plain Python floats, one multiply or add at a time in a fixed
    order, so the table does not depend on which BLAS kernel the host runs.
    """
    def coefficients():
        a, b = u_marked, u_unmarked
        yield a
        yield b
        for _ in range(max_power):
            w0, w1 = -a, b  # the phase flip
            c = 2.0 * (u_marked * w0 + u_unmarked * w1)
            a, b = c * u_marked - w0, c * u_unmarked - w1  # the reflection about u
            yield a
            yield b

    return np.fromiter(coefficients(), float, 2 * max_power + 2).reshape(-1, 2)


def _controlled_powers(
    ancilla_dims: Iterable[int], width: int, power_table: Callable[[int], np.ndarray]
) -> StateVector:
    """sum_m |m_1..m_R> G^(m_1+..+m_R)|start> / P^(R/2), shape ancilla_dims + (width,).

    power_table(s_max) gives G^s|start> for s = 0..s_max as an
    (s_max+1, width) array; it is called once, for s_max = sum(m_i - 1),
    and branches are assembled by multiplicity, so the cost is
    O(R P width + P^R width) instead of O(P^R * P * width).  The sizes are
    read lazily and the cap checked after each, before the table or any
    other array.
    """
    dims, size = [], width
    for d in map(int, ancilla_dims):
        if d < 2:
            raise DomainError(f"ancilla register sizes must be >= 2, got {d}")
        size *= d
        if size > AMPLITUDE_CAP:
            # no size in the text: a product of 4300 digits or more cannot be printed
            raise CapacityError(f"counter registers exceed the cap of {AMPLITUDE_CAP} amplitudes")
        dims.append(d)
    if not dims:
        raise DomainError("need at least one ancilla register")
    # scaled before the gather: one row per total power, not one per branch
    table = power_table(sum(d - 1 for d in dims)).astype(complex) / math.sqrt(math.prod(dims))
    # m_1 + .. + m_R on the counter grid, an outer sum of one arange per register
    power_grid = functools.reduce(np.add.outer, (np.arange(d) for d in dims))
    return StateVector(table[power_grid])


def two_plane_grover_powers(ancilla_dims: Iterable[int], dimension: int, marked: int) -> StateVector:
    """Superposed iteration counts sum_m |m_1..m_R> G^(m_1+..+m_R)|u> / P^(R/2) on the base plane.

    The base axis has two entries: the coefficients c_M, c_U of the
    uniform-marked and uniform-unmarked states, so a marked base value holds
    c_M / sqrt(t) and an unmarked one c_U / sqrt(D - t).  On this plane the
    search gates are 2 x 2: the phase flip is diag(-1, 1) and the
    diffusion is the reflection about u = (sqrt(t/D), sqrt((D-t)/D)), the
    uniform state; _plane_power_table applies them gate by gate.  Only the
    shape ancilla_dims + (2,) counts against AMPLITUDE_CAP.
    """
    if dimension < 1:
        raise DomainError(f"base dimension must be >= 1, got {dimension}")
    if not 0 <= marked <= dimension:
        raise DomainError(f"marked count {marked} outside [0, {dimension}]")
    u_marked, u_unmarked = math.sqrt(marked / dimension), math.sqrt((dimension - marked) / dimension)
    return _controlled_powers(ancilla_dims, 2, functools.partial(_plane_power_table, u_marked, u_unmarked))


def exact_distribution(state: StateVector) -> np.ndarray:
    """Counter law of a (P,)*R + (2,) state: the base plane, its last register, summed out."""
    marg = (np.abs(state.amplitudes) ** 2).sum(axis=-1)
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


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: rep indices are one uint32 entropy word each, as SeedSequence reads them
MAX_REPS = 1 << 32


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init mult^t mod 2^32 for t = 0..n, a uint32 column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_words(seed: int, reps: int, start: int = 0) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) as row i - start, for all reps i from start at once.

    The entropy words are those of seed, least significant first ([0] for
    0), then i.  SeedSequence's hash constant advances the same way for
    every i, so the constants are computed once.  Each run of hashes that
    reads no result of another (the four pool words, the three pool words a
    source word mixes into, the four an extra entropy word mixes into, the
    eight output words) is one whole-array step with a row per hash.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    # zero rows pad the pool to 4 words; rows past 4 are the extra entropy
    entropy = np.zeros((max(len(words) + 1, 4), reps), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, start + reps, dtype=np.uint32)
    # 4 pool words, 4 x 3 pool mixes, 4 mixes per extra word: 4 hashes per entropy row
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
    used = 0

    def hashmix(values: np.ndarray, n: int) -> np.ndarray:
        # n hashes of values (n rows, or one broadcast); hash t xors with
        # constant t and multiplies by constant t + 1
        nonlocal used
        values = values ^ consts[used : used + n]
        values *= consts[used + 1 : used + n + 1]
        used += n
        values ^= values >> 16
        return values

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x * _MIX_MULT_L
        x -= y * _MIX_MULT_R
        x ^= x >> 16
        return x

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:
        pool = mix(pool, hashmix(word, 4))
    out_consts = _hash_consts(_INIT_B, _MULT_B, 8)
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ out_consts[:8]
    out *= out_consts[1:]
    out ^= out >> 16
    state = np.empty((reps, 8), dtype="<u4")
    state.T[...] = out
    return state.view("<u8").astype(np.uint64, copy=False)


#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: uniforms per chunk of a block draw, so that its uint64 temporaries stay a few MiB
_BLOCK_ELEMENTS = 1 << 16

#: reps per chunk of the seeding, whose temporaries take about 100 bytes per rep
_SEED_CHUNK = 1 << 13

#: a block of flag rounds leaves a rep still drawing with at most this probability
_FLAG_TAIL = 2.0**-10


def _hi_lo(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _mulhi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y of uint64 arrays, from 32-bit halves.

    Neither partial sum can pass 2^64: (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1.
    """
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    w1 = x1 * y0 + (x0 * y0 >> 32)
    w2 = x0 * y1 + (w1 & _MASK32)
    return x1 * y1 + (w1 >> 32) + (w2 >> 32)


def _mul128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """x * y mod 2^128 of (high, low) uint64 arrays; uint64 arithmetic wraps mod 2^64."""
    return _mulhi(x_lo, y_lo) + x_lo * y_hi + x_hi * y_lo, x_lo * y_lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """x + y mod 2^128 of (high, low) uint64 arrays."""
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def _uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Generator.random() of stepped PCG64 states: the XSL-RR output's top 53 bits over 2^53."""
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * (1.0 / (1 << 53))


#: the multiplier as (high, low) uint64 arrays
_MULT_WORDS = _hi_lo([_PCG_MULT])


@functools.cache
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """a^j and (a^j - 1) / (a - 1) mod 2^128 for j = 1..n, each as (high, low) arrays.

    j steps of the LCG s -> a s + c take s to a^j s + c (a^j - 1) / (a - 1);
    the second factor is the sum of a^m over m < j.
    """
    powers, sums = [_PCG_MULT], [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    return (*_hi_lo(powers), *_hi_lo(sums))


class RepStreams:
    """numpy's PCG64 stream of every rep at once: rep i draws default_rng([seed, i]).

    PCG64 is the LCG s -> a s + c mod 2^128, with an odd increment c of its
    own per stream, and Generator.random() is the XSL-RR output of each
    stepped state, its top 53 bits over 2^53.  The states and increments of
    all reps are (high, low) uint64 arrays, 32 bytes per rep, and a step of
    every rep is a few whole-array operations.  A block of n draws comes
    from the jump-ahead s_j = a^j s + c (a^j - 1) / (a - 1), j = 1..n,
    evaluated for all reps and all j at once.  The seeding, the steps and
    the blocks all run in chunks of reps, so that beyond the 32 bytes per
    rep only one chunk's temporaries are live.

    The draws are numpy's, bit for bit: the seed words of each chunk of
    _SEED_CHUNK reps are hashed in one pass, as SeedSequence([seed, i])
    would (_seed_words), and every rep's PCG64 is seeded and stepped as
    numpy does.  Beyond MAX_REPS a rep index would no longer be one entropy
    word, so more reps are refused, before anything is allocated.
    """

    def __init__(self, seed: int, reps: int) -> None:
        if seed < 0:  # np.random.default_rng takes no negative seed
            raise DomainError(f"seed must be >= 0, got {seed}")
        if reps < 1:
            raise DomainError(f"reps must be >= 1, got {reps}")
        if reps > MAX_REPS:
            raise CapacityError(f"{reps} reps exceed cap {MAX_REPS}")
        self.inc = np.empty((2, reps), dtype=np.uint64)
        self.state = np.empty((2, reps), dtype=np.uint64)
        for lo in range(0, reps, _SEED_CHUNK):
            rows = slice(lo, min(lo + _SEED_CHUNK, reps))
            words = _seed_words(seed, rows.stop - lo, lo)
            # PCG64's seeding from generate_state(4, np.uint64): words 0-1 are the
            # initial state and 2-3 the sequence, high word first; state = 0,
            # inc = 2 sequence + 1, step, state += initial state, step
            inc = ((words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1)
            state = _add128(*inc, words[:, 0], words[:, 1])
            self.inc[:, rows] = inc
            self.state[:, rows] = _add128(*_mul128(*state, *_MULT_WORDS), *inc)

    @property
    def reps(self) -> int:
        return self.state.shape[1]

    def _chunks(self, n: int):
        """Slices of reps whose blocks of n draws hold about _BLOCK_ELEMENTS uniforms each."""
        step = max(1, _BLOCK_ELEMENTS // n)
        return (slice(lo, lo + step) for lo in range(0, self.reps, step))

    def _block(self, n: int, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The states 1..n steps past the current ones of the reps in rows (a slice or indices), (high, low) of shape (rows, n)."""
        a_hi, a_lo, g_hi, g_lo = _jumps(n)
        (s_hi, s_lo), (c_hi, c_lo) = self.state[:, rows, None], self.inc[:, rows, None]
        return _add128(*_mul128(s_hi, s_lo, a_hi, a_lo), *_mul128(c_hi, c_lo, g_hi, g_lo))

    def random(self) -> np.ndarray:
        """The next uniform of every rep, Generator.random() of its stream."""
        out = np.empty(self.reps)
        for rows in self._chunks(1):
            (s_hi, s_lo), (c_hi, c_lo) = self.state[:, rows], self.inc[:, rows]
            hi, lo = _add128(*_mul128(s_hi, s_lo, *_MULT_WORDS), c_hi, c_lo)
            self.state[:, rows] = hi, lo
            out[rows] = _uniform(hi, lo)
        return out

    def flag_rounds(self, accept: float) -> tuple[np.ndarray, np.ndarray]:
        """Every rep's flag rounds until acceptance (geometric, >= 1), and the uniform after them.

        A round draws one uniform and accepts when it is below accept.  The
        reps draw blocks of rounds + 1 uniforms, with enough rounds that a
        rep has not accepted within a block with probability at most
        _FLAG_TAIL (at most _BLOCK_ELEMENTS rounds); such a rep draws a further
        block from the state of its last round, until every rep has accepted.
        Each stream is left after the uniform it returned.
        """
        if not 0.0 < accept <= 1.0:
            raise DomainError(f"acceptance probability {accept} outside (0, 1]")
        flags = 1 if accept == 1.0 else math.ceil(math.log(_FLAG_TAIL) / math.log1p(-accept))
        flags = min(max(flags, 1), _BLOCK_ELEMENTS)
        rounds = np.zeros(self.reps, dtype=np.int64)
        readings = np.empty(self.reps)
        for rows in self._chunks(flags + 1):
            pending = rows
            while True:
                hi, lo = self._block(flags + 1, pending)
                draws = _uniform(hi, lo)
                accepted = draws[:, :flags] < accept
                missed = ~accepted.any(axis=1)
                used = np.where(missed, flags, accepted.argmax(axis=1) + 1)
                # an accepting rep keeps the state of its reading, a missing one that of its last round
                at = np.arange(len(used)), used - missed
                rounds[pending] += used
                readings[pending] = draws[at]
                self.state[:, pending] = hi[at], lo[at]
                if not missed.any():
                    break
                # the reps that missed, as indices: pending is the chunk's slice at first
                ids = np.flatnonzero(missed)
                pending = rows.start + ids if pending is rows else pending[ids]
        return rounds, readings
