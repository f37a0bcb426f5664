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
whole vector of uniforms in [0, 1) to flat outcome indices with one
search, so a command with many reps pays for one CDF.
`rep_draws` draws those uniforms, after the flag rounds if there is a flag,
for all reps in one call.  Rep i draws numpy's PCG64 sequence of
np.random.default_rng([seed, i]), bit for bit, reproduced in-package as
uint64 array arithmetic over one chunk of reps at a time: the SeedSequence
hash of the chunk's seed words in one uint32 pass, then its steps, a block
of them by jump-ahead.  PCG64 seeds a rep from its words w_01 (words 0-1)
and w_23 (words 2-3), read as 128-bit values: c = 2 w_23 + 1 and
s_1 = a (c + w_01) + c, with a its multiplier, and a draw steps first,
s -> a s + c, all mod 2^128.  Draw j's state is then one affine map of the
words,

    s_(j+1) = a^(j+1) w_01 + g_(j+2) c,    g_m = (a^m - 1) / (a - 1),

so a rep without a flag reaches its one draw,

    s_2 = a^2 w_01 + 2 (a^2 + a + 1) w_23 + (a^2 + a + 1),

and a rep with a flag the first block of its rounds and reading, the same
way and with no seeding step; a rep that misses every round of a block
jumps ahead from its last round's state, s -> a^j s + g_j c.  No command
imports numpy.random, which the tests use as the oracle for these streams.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, NormalizationError

#: cap on 2 P^R, the cells of a counter law's two outer products; counter_law adds the
#: second in chunks, so a build holds fewer, but the cap fixes which inputs exit 3
AMPLITUDE_CAP = 1 << 26

#: cells per chunk of the second outer product that counter_law adds into the law
#: (one leading row when a row holds more)
_LAW_CHUNK = 1 << 16

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


def check_counter(p: int, registers: int = 1) -> None:
    """Raise unless P >= 4, R >= 1 and 2 P^r <= AMPLITUDE_CAP for r = 1..R in turn, so R may be any integer."""
    if p < 4:
        raise DomainError(f"counter size must be >= 4, got {p}")
    if registers < 1:
        raise DomainError(f"need >= 1 counter registers, got {registers}")
    size = 2
    for _ in range(registers):
        size *= p
        if size > AMPLITUDE_CAP:
            # no size in the text: a product of 4300 digits or more cannot be printed
            raise CapacityError(f"counter registers exceed the cap of {AMPLITUDE_CAP} amplitudes")


def counter_law(dimension: int, marked: float, p: int, registers: int = 1) -> np.ndarray:
    """Joint law of R counters of size P, shape (P,)*R, after the controlled powers and a QFT on each.

    Every sampled law is built here: the counters are checked first
    (check_counter), then the (D, t) domain, before the table or any other
    array.  The table runs over G^m |u> for m = 0..P-1, and c_m, s_m are
    its rows' coordinates on u = (sqrt(t/D), sqrt((D-t)/D)) and Ju.  Each
    factor |a +- i b|^2 sums to the table's mean row norm^2, so that is the
    one value checked against NORM_TOL.  The law is built by outer products of the two
    factors, the second added into the first in place, in chunks of at most
    _LAW_CHUNK cells (or one leading row), so the build holds the law and
    one chunk; every chunk keeps the full product's order of multiplication,
    so the law is the same to the bit.  The marked count t
    need not be an integer: any t in [0, D], an effective count too, is taken.
    """
    check_counter(p, registers)
    if dimension < 1:
        raise DomainError(f"base dimension must be >= 1, got {dimension}")
    if not 0 <= marked <= dimension:
        raise DomainError(f"marked count {marked} outside [0, {dimension}]")
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
    # the minus product joins in chunks of leading rows, each its own
    # (m_i m_j) m_k product, so that no second (P,)*R table is held
    rows = max(1, _LAW_CHUNK // p ** (registers - 1))
    for lo in range(0, p, rows):
        law[lo : lo + rows] += functools.reduce(np.multiply.outer, [minus] * (registers - 1), minus[lo : lo + rows])
    law *= 0.5
    return law


def sample_outcomes(table: np.ndarray, uniforms: Sequence[float] | np.ndarray) -> np.ndarray:
    """The flat index of one outcome per uniform in [0, 1) from a probability table; shape (n,).

    Entries below SAMPLE_CLIP are zeroed and the rest renormalized first:
    measured outcomes never come from floating-point dust.  The CDF is built
    once and each uniform u maps to the first flat index whose cumulative
    mass exceeds u.  These are the steps of numpy's Generator.choice(
    table.size, n, p=clipped table), so n uniforms from rng.random(n) give
    its n draws.  The clip, the renormalization and the CDF all work in one
    copy of the table, so the caller's table is never written.
    """
    cdf = np.array(table, dtype=float, order="C").reshape(-1)
    np.copyto(cdf, 0.0, where=cdf < SAMPLE_CLIP)
    total = float(cdf.sum())
    if not 0.0 < total < math.inf:
        raise NormalizationError(f"sampled table carries mass {total}")
    cdf /= total
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _16 = np.array([0xCA01F9DD, 0x4973F715, 16], dtype=np.uint32)

#: rep indices are one uint32 entropy word each, as SeedSequence reads them
MAX_REPS = 1 << 32


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init mult^t mod 2^32 for t = 0..n, a uint32 column; n grows only with the seed's words."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _pool_stage_consts() -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of the pool's 4 mixing stages, each of shape (4, 4, 1).

    Stage src hashes pool word src once for each other word d, in order,
    with constant 4 + 3 src + (d - (d > src)) and the one after; row src,
    whose word the stage keeps, takes the pair of position (src - 1) mod 3.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, 16)
    index = np.array([[4 + 3 * src + (d - (d >= src)) % 3 for d in range(4)] for src in range(4)])
    return consts[index], consts[index + 1]


_POOL_XOR, _POOL_MUL = _pool_stage_consts()
#: the 8 output words hash pool words 0-3 twice, with constants 0..7 and 1..8, shaped (2, 4, 1)
_OUT_XOR = _hash_consts(_INIT_B, _MULT_B, 8)[:8].reshape(2, 4, 1)
_OUT_MUL = _hash_consts(_INIT_B, _MULT_B, 8)[1:].reshape(2, 4, 1)


def _seed_words(seed: int, reps: int, start: int = 0) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) as row i - start, for all reps i from start at once.

    The entropy words are those of seed, least significant first ([0] for
    0), then i.  SeedSequence's hash constant advances the same way for
    every i, so the constants are computed once.  Each run of hashes that
    reads no result of another (the four pool words, the three pool words a
    source word mixes into, the four an extra entropy word mixes into, the
    eight output words) is one whole-array step with a row per hash; a
    source word's stage mixes into all four rows and then restores its own.
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

    def hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
        values = values ^ xor
        values *= mult
        values ^= values >> _16
        return values

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x * _MIX_MULT_L
        x -= y * _MIX_MULT_R
        x ^= x >> _16
        return x

    pool = hashmix(entropy[:4], consts[:4], consts[1:5])
    for src in range(4):
        mixed = mix(pool, hashmix(pool[src], _POOL_XOR[src], _POOL_MUL[src]))
        mixed[src] = pool[src]
        pool = mixed
    for t, word in enumerate(entropy[4:], start=4):
        pool = mix(pool, hashmix(word, consts[4 * t : 4 * t + 4], consts[4 * t + 1 : 4 * t + 5]))
    out = hashmix(pool, _OUT_XOR, _OUT_MUL)
    state = np.empty((reps, 8), dtype="<u4")
    state.T[...] = out.reshape(8, reps)
    return state.view("<u8").astype(np.uint64, copy=False)


#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: uint64 operands of the 128-bit arithmetic, so that no op converts a Python int
_LOW32, _11, _32, _58, _63, _64 = np.array([_MASK32, 11, 32, 58, 63, 64], dtype=np.uint64)

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
    x0, x1 = x & _LOW32, x >> _32
    y0, y1 = y & _LOW32, y >> _32
    w1 = x1 * y0
    w1 += x0 * y0 >> _32
    w2 = x0 * y1
    w2 += w1 & _LOW32
    hi = x1 * y1
    hi += w1 >> _32
    hi += w2 >> _32
    return hi


def _mul128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """x * y mod 2^128 of (high, low) uint64 arrays; uint64 arithmetic wraps mod 2^64."""
    hi = _mulhi(x_lo, y_lo)
    hi += x_lo * y_hi
    hi += x_hi * y_lo
    return hi, x_lo * y_lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """x + y mod 2^128 of (high, low) uint64 arrays."""
    lo = x_lo + y_lo
    hi = x_hi + y_hi
    hi += lo < x_lo
    return hi, lo


def _uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Generator.random() of stepped PCG64 states: the XSL-RR output's top 53 bits over 2^53."""
    x = hi ^ lo
    rot = hi >> _58
    left = x << ((_64 - rot) & _63)
    x >>= rot
    x |= left
    x >>= _11
    return x * (1.0 / (1 << 53))


@functools.cache
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """a^j and g_j = (a^j - 1) / (a - 1) mod 2^128 for j = 1..n, each as (high, low) columns of shape (n, 1).

    j steps of the LCG s -> a s + c take s to a^j s + g_j c; g_j is the sum
    of a^m over m < j.
    """
    powers, sums = [_PCG_MULT], [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    return tuple(w[:, None] for w in (*_hi_lo(powers), *_hi_lo(sums)))


@functools.cache
def _first_jumps(n: int) -> tuple[np.ndarray, ...]:
    """a^(j+1) and g_(j+2) for j = 1..n, as _jumps gives them: the factors of draws 1..n from the seed words."""
    a_hi, a_lo, g_hi, g_lo = _jumps(n + 2)
    return a_hi[1:-1], a_lo[1:-1], g_hi[2:], g_lo[2:]


def _block(x, inc, jumps) -> tuple[np.ndarray, np.ndarray]:
    """a_j x + g_j inc for each (a_j, g_j) of jumps (_jumps, _first_jumps), (high, low) of shape (n, reps).

    With _jumps(n) and a state x these are the states 1..n steps past x;
    with _first_jumps(n) and the seed words w_01 they are draws 1..n.  Row
    j holds every rep's draw j, so the arithmetic runs along rows of reps.
    """
    a_hi, a_lo, g_hi, g_lo = jumps
    return _add128(*_mul128(*x, a_hi, a_lo), *_mul128(*inc, g_hi, g_lo))


def _first_block(words: np.ndarray, n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Draws 1..n of the reps seeded by words (_seed_words) as _block gives them, and their increments.

    PCG64 takes inc = 2 w_23 + 1, with w_23 words 2-3 high first, and the
    draws are one affine map of w_01 and inc (module docstring), so no
    seeding step comes first.
    """
    inc = (words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1
    return _block((words[:, 0], words[:, 1]), inc, _first_jumps(n)), inc


def check_reps(seed: int, reps: int) -> None:
    """Raise unless seed >= 0 and 1 <= reps <= MAX_REPS, past which a rep index is not one entropy word."""
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise DomainError(f"seed must be >= 0, got {seed}")
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if reps > MAX_REPS:
        raise CapacityError(f"{reps} reps exceed cap {MAX_REPS}")


def rep_draws(seed: int, reps: int, accept: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Every rep's flag rounds and reading; rep i draws numpy's default_rng([seed, i]) bit for bit.

    With accept None there is no flag: rounds are 0 and the reading is the
    first uniform.  Otherwise a round accepts when its uniform is below
    accept and the reading is the uniform after the rounds (geometric, >= 1).
    A rep draws rounds + 1 uniforms in one block, enough rounds to miss them
    all with probability at most _FLAG_TAIL, and a rep that misses draws a
    further block from its last round's state.  The first block, or the one
    draw without a flag, is one affine map of the seed words (_first_block).
    Reps are seeded and drawn in chunks of about _BLOCK_ELEMENTS uniforms.
    seed and reps are checked (check_reps) before any allocation.
    """
    check_reps(seed, reps)
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
        stop = min(start + step, reps)
        (hi, lo), inc = _first_block(_seed_words(seed, stop - start, start), flags + 1)
        if accept is None:
            readings[start:stop] = _uniform(hi[0], lo[0])
            continue
        pending = np.arange(start, stop)
        while True:
            draws = _uniform(hi, lo)
            accepted = draws[:flags] < accept
            missed = ~accepted.any(axis=0)
            used = np.where(missed, flags, accepted.argmax(axis=0) + 1)
            rounds[pending] += used
            readings[pending] = draws[used, np.arange(len(used))]
            if not missed.any():
                break
            # a rep that missed goes on from the state of its last round
            state = hi[flags - 1, missed], lo[flags - 1, missed]
            inc = inc[0][missed], inc[1][missed]
            pending = pending[missed]
            hi, lo = _block(state, inc, _jumps(flags + 1))
    return rounds, readings
