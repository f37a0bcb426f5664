"""Exact law of the counter registers, read off the base register's plane.

The base register stays in the plane spanned by its uniform-marked and
uniform-unmarked states, which the search iterate G never leaves from the
uniform start u, so only the marked count t enters and the base dimension D
may be as large as an integer allows.  On that plane G is a rotation, so
every power of it is

    G^m = c_m I + s_m J,    c_m = <u|G^m u>,  s_m = <Ju|G^m u>,

with J the quarter turn of the plane.  The branch m_1..m_R of R counters
of size P applies G^(m_1+..+m_R), the product of the G^(m_j).  On J's
eigenvectors (u -+ i Ju) / sqrt(2), between which u splits evenly, J is +-i
and G^m is c_m +- i s_m, so after the Fourier transform
F|a> = sum_b exp(+2 pi i a b / P) |b> / sqrt(P) on each counter the joint
law is

    P(l_1..l_R) = 1/2 prod_j |a + i b|^2(l_j) + 1/2 prod_j |a - i b|^2(l_j),

a = ifft(c) and b = ifft(s) over m = 0..P-1.  As c and s are real,
|a - i b|^2 at l is |a + i b|^2 at -l mod P, so one inverse FFT, of c + i s,
gives both factors.  `counter_law` builds the law from those two length-P
vectors, with no (P,)*R counter state; it is the package's one law
builder, which certification and counting call directly.  Its power table,
`_plane_power_table`, is a scalar recurrence: the phase flip and the
reflection about the uniform state applied gate by gate in plain Python
floats, with no BLAS call, so seeded output is the same on every BLAS
kernel.  The statevector route (a StateVector with one axis per register,
the two-plane gather, the Fourier transform and the base plane summed out),
the dense route over all D base values, the single gates (uniform
preparation, phase flip, diffusion), the marginal over any registers and
post-selection live in tests/oracles.py.

Measurement is sampled from an exact marginal table.  `sample_outcomes`
builds the table's CDF once, in one working copy of the table, and maps a
whole vector of uniforms in [0, 1) to outcomes with one search, so a
command with many reps pays for one CDF.
`rep_draws` draws those uniforms, after the flag rounds if there is a flag,
for all reps in one call.  Rep i draws numpy's PCG64 sequence of
np.random.default_rng([seed, i]), bit for bit, reproduced in-package as
uint64 array arithmetic over one chunk of reps at a time: the SeedSequence
hash of the chunk's seed words in one uint32 pass, then its steps, a block
of them by jump-ahead.  No command imports numpy.random, which the tests
use as the oracle for these streams.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, NormalizationError

#: cap on the number of amplitudes a state may hold
AMPLITUDE_CAP = 1 << 26

NORM_TOL = 1e-10

#: probabilities below this are floating-point dust and never sampled
SAMPLE_CLIP = 1e-13


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


def counter_law(dimension: int, marked: float, p: int, registers: int = 1) -> np.ndarray:
    """Joint law of R counters of size P, shape (P,)*R, after the controlled powers and a QFT on each.

    Every sampled law is built here: P >= 4 and R >= 1 are checked first,
    then the (D, t) domain, then the cap one register at a time, 2 P^r
    against AMPLITUDE_CAP for r = 1..R, before the table or any other
    array, so R may be any integer.  The table runs over G^m |u> for
    m = 0..P-1, and c_m, s_m are its rows' coordinates on
    u = (sqrt(t/D), sqrt((D-t)/D)) and Ju.  Each factor |a +- i b|^2 sums
    to the table's mean row norm^2, so that is the one value checked
    against NORM_TOL.  The law is built by outer products of the two
    factors, the second added into the first in place.  The marked count t
    need not be an integer: any t in [0, D], an effective count too, is taken.
    """
    if p < 4:
        raise DomainError(f"counter size must be >= 4, got {p}")
    if registers < 1:
        raise DomainError(f"need >= 1 counter registers, got {registers}")
    if dimension < 1:
        raise DomainError(f"base dimension must be >= 1, got {dimension}")
    if not 0 <= marked <= dimension:
        raise DomainError(f"marked count {marked} outside [0, {dimension}]")
    size = 2
    for _ in range(registers):
        size *= p
        if size > AMPLITUDE_CAP:
            # no size in the text: a product of 4300 digits or more cannot be printed
            raise CapacityError(f"counter registers exceed the cap of {AMPLITUDE_CAP} amplitudes")
    u_marked, u_unmarked = math.sqrt(marked / dimension), math.sqrt((dimension - marked) / dimension)
    table = _plane_power_table(u_marked, u_unmarked, p - 1)
    norm_sq = float(np.square(table).sum()) / p
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # written so that NaN fails too
        raise NormalizationError(
            f"norm^2 drifted to {norm_sq}, past NORM_TOL = {NORM_TOL} in a power table of shape {table.shape}"
        )
    c = u_marked * table[:, 0] + u_unmarked * table[:, 1]
    s = u_marked * table[:, 1] - u_unmarked * table[:, 0]
    plus = np.abs(np.fft.ifft(c + 1j * s)) ** 2
    minus = plus[-np.arange(p)]  # read at -l mod P
    law = functools.reduce(np.multiply.outer, [plus] * registers)
    law += functools.reduce(np.multiply.outer, [minus] * registers)
    law *= 0.5
    return law


def sample_outcomes(table: np.ndarray, uniforms: Sequence[float] | np.ndarray) -> np.ndarray:
    """One outcome per uniform in [0, 1) from a probability table; shape (n, table.ndim).

    Entries below SAMPLE_CLIP are zeroed and the rest renormalized first:
    measured outcomes never come from floating-point dust.  The CDF is built
    once and each uniform u maps to the first flat index whose cumulative
    mass exceeds u.  These are the steps of numpy's Generator.choice with
    p = clipped table, so n uniforms from rng.random(n) give its n draws.
    The clip, the renormalization and the CDF all work in one copy of the
    table, so the caller's table is never written.
    """
    cdf = np.array(table, dtype=float, order="C").reshape(-1)
    np.copyto(cdf, 0.0, where=cdf < SAMPLE_CLIP)
    total = float(cdf.sum())
    if not 0.0 < total < math.inf:
        raise NormalizationError(f"sampled table carries mass {total}")
    cdf /= total
    cdf.cumsum(out=cdf)
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

#: uniforms per chunk of reps, so that a chunk's uint64 temporaries stay a few MiB
_BLOCK_ELEMENTS = 1 << 16

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


def _seed_states(seed: int, reps: int, start: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """PCG64's seeded states and increments of reps start.., each (high, low), as numpy seeds them.

    From SeedSequence([seed, i]).generate_state(4, np.uint64): inc = 2 w_23 + 1,
    where w_23 is words 2-3 high first; state = inc + w_01, stepped once.
    """
    words = _seed_words(seed, reps, start)
    inc = ((words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1)
    state = _add128(*inc, words[:, 0], words[:, 1])
    return _add128(*_mul128(*state, *_MULT_WORDS), *inc), inc


def _block(state, inc, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The states 1..n steps past state by jump-ahead (_jumps), (high, low) of shape (reps, n)."""
    a_hi, a_lo, g_hi, g_lo = _jumps(n)
    (s_hi, s_lo), (c_hi, c_lo) = (w[:, None] for w in state), (w[:, None] for w in inc)
    return _add128(*_mul128(s_hi, s_lo, a_hi, a_lo), *_mul128(c_hi, c_lo, g_hi, g_lo))


def rep_draws(seed: int, reps: int, accept: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Every rep's flag rounds and reading; rep i draws numpy's default_rng([seed, i]) bit for bit.

    With accept None there is no flag: rounds are 0 and the reading is the
    first uniform.  Otherwise a round accepts when its uniform is below
    accept and the reading is the uniform after the rounds (geometric, >= 1).
    A rep draws rounds + 1 uniforms in one block, enough rounds to miss them
    all with probability at most _FLAG_TAIL, and a rep that misses draws a
    further block from its last round's state.  Reps are seeded and drawn in
    chunks of about _BLOCK_ELEMENTS uniforms.  Past MAX_REPS a rep index is
    no longer one entropy word: more reps are refused before any allocation.
    """
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise DomainError(f"seed must be >= 0, got {seed}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if reps > MAX_REPS:
        raise CapacityError(f"{reps} reps exceed cap {MAX_REPS}")
    if accept is None:
        flags = 0
    elif not 0.0 < accept <= 1.0:
        raise DomainError(f"acceptance probability {accept} outside (0, 1]")
    else:
        flags = 1 if accept == 1.0 else math.ceil(math.log(_FLAG_TAIL) / math.log1p(-accept))
        flags = min(max(flags, 1), _BLOCK_ELEMENTS)
    rounds = np.zeros(reps, dtype=np.int64)
    readings = np.empty(reps)
    # a chunk holds about _BLOCK_ELEMENTS uniforms, a rep's seeding counting as two
    step = max(1, _BLOCK_ELEMENTS // (flags + 3))
    for start in range(0, reps, step):
        pending = np.arange(start, min(start + step, reps))
        state, inc = _seed_states(seed, len(pending), start)
        if accept is None:  # one step, no block
            readings[pending] = _uniform(*_add128(*_mul128(*state, *_MULT_WORDS), *inc))
            continue
        while len(pending):
            hi, lo = _block(state, inc, flags + 1)
            draws = _uniform(hi, lo)
            accepted = draws[:, :flags] < accept
            missed = ~accepted.any(axis=1)
            used = np.where(missed, flags, accepted.argmax(axis=1) + 1)
            rounds[pending] += used
            readings[pending] = draws[np.arange(len(used)), used]
            # a rep that missed goes on from the state of its last round
            state = hi[missed, flags - 1], lo[missed, flags - 1]
            inc = inc[0][missed], inc[1][missed]
            pending = pending[missed]
    return rounds, readings
