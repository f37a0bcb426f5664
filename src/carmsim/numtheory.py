"""Classical number-theoretic oracles and ground truth.

Quantities attached to an integer k >= 2, used throughout the package:

    phi(k)      Euler totient, prod p^(e-1) (p-1) over the factorization.
    F(k)        Fermat liar count: bases 1 <= a < k with gcd(a, k) = 1 and
                a^(k-1) = 1 (mod k).  For composite k this is
                prod gcd(p - 1, k - 1) over the distinct primes p | k,
                and F(k) always divides phi(k).
    t(k)        phi(k) - F(k): coprime bases that fail the Fermat condition.
                t = 0 exactly when k is prime or Carmichael; composite
                non-Carmichael k have t >= phi(k)/2 (F = phi/m with m >= 2).
    Carmichael  composite, squarefree, with p - 1 | k - 1 for every prime
                factor p (Korselt), equivalently composite with t(k) = 0.
                The smallest is 561 = 3 * 11 * 17; all are odd with at
                least three prime factors.  Per prime factor p, Korselt's
                condition is the congruence k = p (mod p(p - 1)), and
                p^2 <= k because p - 1 also divides k/p - 1.
    witnesses   bases 1 <= a < k certifying compositeness under the strong
                (Miller-Rabin) conditions.  For odd composite k at least
                3(k-1)/4 of the bases are witnesses.  For even composite k
                the package counts only the F(k) Fermat liars as strong
                liars; the textbook test also accepts a^(k-1) = -1, which
                a = k-1 always meets.  The convention is kept because it
                pins the bounds output (perfbench/reference.json and
                criterion 7's exempt set {4, 6, 9}).

Everything is deterministic and exact: primality uses a fixed Miller-Rabin
base set valid far beyond the 2**50 factorization bound; factorize divides
by the primes below _TRIAL_LIMIT, then splits the cofactor by Pollard rho.
F(k) and the strong-liar count (Monier's formula) are closed forms over the
factorization; the per-base censuses that check them are in tests/oracles.py.
Two sieves cover every k below a bound at once: liar_sieve (phi, F and the
strong-liar count, one pass over the primes up to sqrt(n)) and the Korselt
congruence sieve of enumerate_carmichaels (up to ENUMERATION_BOUND).
"""

from __future__ import annotations

import math
import os
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError

#: factorize() is guaranteed correct up to this bound (deterministic
#: Miller-Rabin certificate range is far larger; the bound keeps rho cheap).
FACTOR_BOUND = 1 << 50

#: Carmichael enumeration sieve refuses above this
ENUMERATION_BOUND = 10**10

# Deterministic Miller-Rabin bases: correct for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10_000


def is_prime(n: int) -> bool:
    """Deterministic strong-pseudoprime test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _FactorizationFields(NamedTuple):
    k: int
    factors: tuple[tuple[int, int], ...]


class Factorization(_FactorizationFields):
    """Complete prime factorization of k, primes strictly increasing.

    A checked tuple record, as carmichael.Verdict is: the constructor runs
    __post_init__ (looked up on the class, so a wrapper set there runs
    too), and _make and _replace build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, k: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        self = tuple.__new__(cls, (k, factors))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields) -> Factorization:
        """A Factorization from an iterable of its fields, checked as the constructor checks."""
        return cls(*fields)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError(f"factorization requires k >= 2, got {self.k}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1:
                raise DomainError(f"exponent {e} < 1 for prime {p}")
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.k:
            raise DomainError(f"factors reconstruct {prod}, expected {self.k}")

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


def _pollard_rho(n: int) -> int:
    """Pollard rho on x -> x^2 + c with Floyd's cycle check, c = 1, 2, ...; n odd composite."""
    for c in range(1, 64):
        x = 2
        y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise DomainError(f"rho failed to split {n}")  # unreachable below 2**50


def factorize(k: int) -> Factorization:
    """Deterministic factorization: trial division by _TRIAL_PRIMES, the
    primes below _TRIAL_LIMIT, then Pollard rho on the cofactor."""
    if k < 2:
        raise DomainError(f"factorize requires k >= 2, got {k}")
    if k > FACTOR_BOUND:
        raise CapacityError(f"factorize bound is {FACTOR_BOUND}, got {k}")
    n = k
    factors: dict[int, int] = {}

    def add(p: int) -> None:
        factors[p] = factors.get(p, 0) + 1

    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            add(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(k, tuple(sorted(factors.items())))


def euler_phi(f: Factorization) -> int:
    """Euler totient from the factorization: prod p^(e-1) (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def fermat_nonwitness_count(f: Factorization) -> int:
    """F(k) = prod gcd(p - 1, k - 1); the count of Fermat liars.

    Defined for composite k (the solution count of x^(k-1) = 1 in the
    multiplicative group; the p = 2 component of an even k contributes 1).
    """
    if f.is_prime:
        raise DomainError(f"{f.k} is prime; F(k) presumes composite k")
    count = 1
    for p, _ in f.factors:
        count *= math.gcd(p - 1, f.k - 1)
    return count


def strong_liar_count(f: Factorization) -> int:
    """Exact count of strong liars (non-witnesses) among 1 <= a < k.

    Odd composite k: with k-1 = 2^s d (d odd) and p-1 = 2^{s_p} d_p,
        liars = (1 + (2^(nu*omega) - 1)/(2^omega - 1)) * prod gcd(d, d_p),
    nu = min s_p, omega = number of distinct primes.  Even composite k has
    an odd k-1 and counts the F(k) Fermat liars, leaving out the bases with
    a^(k-1) = -1 that the textbook test also accepts (the package's
    convention; see the module docstring).  Primes have k-1 liars.
    """
    k = f.k
    if f.is_prime:
        return k - 1
    if k % 2 == 0:
        return fermat_nonwitness_count(f)
    d = k - 1
    while d % 2 == 0:
        d //= 2
    nu = None
    base = 1
    for p, _ in f.factors:
        sp = 0
        dp = p - 1
        while dp % 2 == 0:
            dp //= 2
            sp += 1
        nu = sp if nu is None else min(nu, sp)
        base *= math.gcd(d, dp)
    omega = len(f.factors)
    return base * (1 + (2 ** (nu * omega) - 1) // (2**omega - 1))


class Classification(Enum):
    PRIME = "Prime"
    COMPOSITE_CARMICHAEL = "CompositeCarmichael"
    COMPOSITE_NON_CARMICHAEL = "CompositeNonCarmichael"


class _NumberFactsFields(NamedTuple):
    k: int
    factorization: Factorization
    phi: int
    f_count: int
    t_k: int
    mr_witnesses: int
    classification: Classification


class NumberFacts(_NumberFactsFields):
    """Per-integer classical record tying the oracle quantities together.

    mr_witnesses comes from the exact liar-count formula (validated against
    the census in the test suite), so facts work at any k <= 2**50.  A
    checked tuple record, as Factorization is: the constructor, _make and
    _replace run __post_init__.
    """

    __slots__ = ()

    def __new__(cls, k: int, factorization: Factorization, phi: int, f_count: int, t_k: int,
                mr_witnesses: int, classification: Classification) -> NumberFacts:
        self = tuple.__new__(cls, (k, factorization, phi, f_count, t_k, mr_witnesses, classification))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields) -> NumberFacts:
        """A NumberFacts from an iterable of its fields, checked as the constructor checks."""
        return cls(*fields)

    def __post_init__(self) -> None:
        if self.phi % self.f_count != 0:
            raise DomainError(f"F({self.k}) = {self.f_count} does not divide phi = {self.phi}")
        if self.t_k != self.phi - self.f_count:
            raise DomainError("t_k must equal phi - F(k)")
        composite = self.classification is not Classification.PRIME
        if composite != (not self.factorization.is_prime):
            raise DomainError("classification inconsistent with factorization")
        if composite and self.t_k == 0 and self.classification is not Classification.COMPOSITE_CARMICHAEL:
            raise DomainError("composite with t = 0 must classify Carmichael")
        if self.classification is Classification.COMPOSITE_NON_CARMICHAEL and 2 * self.t_k < self.phi:
            raise DomainError("non-Carmichael composite must have t >= phi/2")
        # The 3(k-1)/4 witness floor holds for odd composites only (even k
        # has no square-root chain and e.g. k = 4 counts just 2 witnesses).
        if composite and self.k % 2 == 1 and 4 * self.mr_witnesses < 3 * (self.k - 1):
            raise DomainError(f"odd composite {self.k} violates the 3(k-1)/4 witness floor")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "factorization": [[p, e] for p, e in self.factorization.factors],
            "phi": self.phi,
            "f_count": self.f_count,
            "t_k": self.t_k,
            "mr_witnesses": self.mr_witnesses,
            "classification": self.classification.value,
        }


def number_facts(k: int) -> NumberFacts:
    """Assemble the full classical record for k."""
    f = factorize(k)
    phi = euler_phi(f)
    if f.is_prime:
        return NumberFacts(k, f, phi, k - 1, 0, 0, Classification.PRIME)
    f_count = fermat_nonwitness_count(f)
    t_k = phi - f_count
    witnesses = (k - 1) - strong_liar_count(f)
    cls = Classification.COMPOSITE_CARMICHAEL if t_k == 0 else Classification.COMPOSITE_NON_CARMICHAEL
    return NumberFacts(k, f, phi, f_count, t_k, witnesses, cls)


def prime_sieve(n: int) -> np.ndarray:
    """Boolean primality table for 0..n."""
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    s[4::2] = False
    for i in range(3, math.isqrt(n) + 1, 2):
        if s[i]:
            s[i * i :: 2 * i] = False
    return s


# factorize's trial divisors, as Python ints
_TRIAL_PRIMES = tuple(np.flatnonzero(prime_sieve(_TRIAL_LIMIT)).tolist())


class LiarCounts(NamedTuple):
    """phi(k), F(k) and the strong-liar count for every k = 0..n (int32).

    Entries 0 and 1 count no bases (phi[1] = 1).  For a prime k the Fermat
    and strong counts are k - 1: every base is a liar.  Every count is
    below k, and liar_sieve takes only n < 2^31, so int32 holds them exactly.
    """

    phi: np.ndarray
    fermat: np.ndarray
    strong: np.ndarray


#: liar_sieve refuses n at or above this: its counts are int32
LIAR_SIEVE_BOUND = 1 << 31

#: k values per chunk of the chunked passes (even, so liar_sieve's chunks start at even k)
_CHUNK = 1 << 14

#: threads that run the chunked passes, the caller's included: the cores
#: this process may use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: the _WORKERS - 1 threads beside the caller's, started by the first wave that needs them
_pool = None


def _map_chunks(fn, start: int, stop: int):
    """fn(lo, hi) for each chunk lo..hi-1 of _CHUNK values in start..stop-1, yielded in chunk order.

    The chunks run one wave of W at a time, W being _WORKERS capped at the
    number of chunks.  The calling thread runs the first chunk of each wave
    and the pool's threads the others; a wave is yielded once all its
    chunks are done, so no chunk runs while the caller handles a result,
    and the next wave starts when the caller asks for it.  A chunk that
    raises lets the rest of its wave finish, then raises here, in its turn.
    With W = 1 this is a plain loop: no thread starts and
    concurrent.futures is not imported.
    """
    chunks = [(lo, min(lo + _CHUNK, stop)) for lo in range(start, stop, _CHUNK)]
    width = min(_WORKERS, len(chunks))
    if width < 2:
        yield from (fn(lo, hi) for lo, hi in chunks)
        return
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="carmsim-chunk")
    for at in range(0, len(chunks), width):
        wave = chunks[at : at + width]
        others = [_pool.submit(fn, *c) for c in wave[1:]]
        try:
            first = fn(*wave[0])
        finally:
            for future in others:
                future.exception()  # waits for the chunk; its error is raised below
        yield first
        for future in others:
            yield future.result()


def liar_sieve(n: int) -> LiarCounts:
    """phi, F and the strong-liar count of every k <= n in one pass over the primes.

    Each prime p <= sqrt(n) multiplies its multiples in place, with no
    division: phi[p::p] by p - 1 and phi[p^j::p^j] by p for j >= 2, the
    totient of the sqrt(n)-smooth part of k, and smooth[p^j::p^j] by p for
    j >= 1, that smooth part itself; and the product F = prod gcd(p - 1,
    k - 1).  The gcd needs no per-multiple call: on k = p m,
    gcd(p m - 1, p - 1) = gcd(m - 1, p - 1) has period p - 1 in m, so one
    row of gcd(j, p - 1), j < p - 1, multiplies the multiples viewed
    as rows of p - 1.  For the odd k only, an odd prime also counts itself
    in omega (distinct primes) and lowers nu = min v2(p - 1).  What the
    smooth part leaves is q = k // smooth, 1 or the one prime factor of k
    above sqrt(n); a final pass in chunks of _CHUNK values of k, one
    division per k, applies it, q = 1 as an exact no-op: phi gains the
    factor max(q - 1, 1) and F the factor gcd(smooth - 1, max(q - 1, 1)),
    the same identity.  The chunks of the final pass write disjoint slices
    and run on _WORKERS threads (_map_chunks), so the arrays do not depend
    on the thread count.  The strong count is strong_liar_count's formula:
    with k - 1 = 2^s d and p - 1 = 2^{s_p} d_p, gcd(p - 1, k - 1) =
    2^min(s_p, s) gcd(d_p, d), so prod gcd(d, d_p) is the odd part of F,
    times 1 + (2^(nu omega) - 1)/(2^omega - 1).

    Every count, partial product and power 2^(nu omega) is below k (each
    p | k exceeds 2^nu), so the arrays are int32 and LiarCounts returns
    int32; omega and nu are int8 over the odd k.  The sieve holds 13 bytes
    per k (the strong counts overwrite the smooth parts), and n must stay
    below LIAR_SIEVE_BOUND = 2^31: a larger n raises CapacityError before
    any array is allocated.
    """
    if n < 1:
        raise DomainError(f"liar sieve requires n >= 1, got {n}")
    if n >= LIAR_SIEVE_BOUND:
        raise CapacityError(f"liar sieve bound is {LIAR_SIEVE_BOUND - 1}, got {n}")
    # the slices start at p, so k = 0 keeps phi = smooth = 1 (phi[0] is set to 0 last)
    phi = np.ones(n + 1, dtype=np.int32)
    smooth = np.ones(n + 1, dtype=np.int32)
    fermat = np.ones(n + 1, dtype=np.int32)
    # omega and nu of the odd k = 2i + 1 only, at index i; even k need neither.
    # nu starts above every v2(p - 1), and every odd k >= 3 has an odd prime
    omega = np.zeros((n + 1) // 2, dtype=np.int8)
    nu = np.full((n + 1) // 2, 127, dtype=np.int8)
    for p in np.flatnonzero(prime_sieve(math.isqrt(n))).tolist():
        if p > 2:
            phi[p::p] *= p - 1
        smooth[p::p] *= p
        power = p * p
        while power <= n:
            phi[power::power] *= p
            smooth[power::power] *= p
            power *= p
        if p == 2:
            continue  # gcd(1, k - 1) = 1, and 2 divides no odd k
        # gcd(j, p - 1) for j < p - 1 over the rows of the multiples
        multiples = fermat[p::p]
        full = multiples.size - multiples.size % (p - 1)
        period = np.gcd(np.arange(p - 1, dtype=np.int32), p - 1)
        rows = multiples[:full].reshape(-1, p - 1)  # a view: the slice has one stride
        np.multiply(rows, period, out=rows)
        multiples[full:] *= period[: multiples.size - full]
        omega[p // 2 :: p] += 1  # the odd multiples p (2j + 1)
        np.minimum(nu[p // 2 :: p], ((p - 1) & (1 - p)).bit_length() - 1, out=nu[p // 2 :: p])
    # k = 1 has no prime factor: a finite geo below (its counts are set to 0)
    omega[0], nu[0] = 1, 0
    strong = smooth  # each chunk writes its strong counts over its smooth parts

    def finish(lo: int, hi: int) -> None:
        """The final pass over k = lo..hi-1: q = k // smooth, 1 or the prime factor above sqrt(n)."""
        sm = smooth[lo:hi]
        q = np.arange(lo, hi, dtype=np.int32) // sm
        q1 = np.maximum(q - 1, 1)  # a factor of 1 where q = 1 (and at k = 0, q = 0)
        ph, f = phi[lo:hi], fermat[lo:hi]
        ph *= q1
        f *= np.gcd(sm - 1, q1)
        # odd k (lo is even): omega and nu; v2(x | 2^30) = min(v2(x), 30)
        q, f_odd = q[1::2], f[1::2]
        w, v = omega[lo // 2 : lo // 2 + q.size], nu[lo // 2 : lo // 2 + q.size]
        w += q > 1
        low = (q - 1) | 1 << 30
        np.minimum(v, np.frexp(low & -low)[1] - 1, out=v)
        # odd k: strong = odd part of F times (2^(nu omega) - 1)/(2^omega - 1) + 1;
        # even k: strong = F, leaving out a^(k-1) = -1 (the module's convention)
        geo = (np.left_shift(np.int32(1), w * v) - 1) // (np.left_shift(np.int32(1), w) - 1) + 1
        s = strong[lo:hi]
        s[0::2] = f[0::2]
        s[1::2] = f_odd // (f_odd & -f_odd) * geo

    for _ in _map_chunks(finish, 0, n + 1):
        pass
    phi[0] = 0
    fermat[:2] = strong[:2] = 0
    return LiarCounts(phi, fermat, strong)


#: odd values of k per period of the wheel primes 3, 5, 7, 11, 13 in the
#: Carmichael sieve: lcm(3, 10, 21, 55, 78), the lcm of their steps p(p - 1)/2.
#: The wheel stops below 17: no squarefree product of three or more of its
#: primes is Carmichael, so only the progressions of the primes >= 17 are tested
_PERIOD = 30030

#: the wheel over one period, k = 3 + 2i: entry i is the product of the
#: wheel primes p with k = p (mod p(p - 1)), at most 3 * 5 * 7 * 11 * 13
_WHEEL = np.ones(_PERIOD, dtype=np.uint32)
for _p in (3, 5, 7, 11, 13):  # k = p + j p(p - 1) sits at i = (p - 3)/2 + j p(p - 1)/2
    _WHEEL[(_p - 3) // 2 :: _p * (_p - 1) // 2] *= _p

#: wheel periods per block of the Carmichael sieve: 240,240 odd values of k
#: (0.92 MiB of uint32, within a 2 MiB L2), so every block starts at phase 0
_BLOCK_PERIODS = 8


def enumerate_carmichaels(n: int) -> list[int]:
    """All Carmichael numbers strictly below n, ascending.

    Korselt congruence sieve.  A prime p divides a Carmichael k exactly on
    the class k = p (mod p(p - 1)): p | k and p - 1 | k - 1.  Since also
    p - 1 | k/p - 1 with k/p > 1, every such p has p^2 <= k.  So over odd k
    only, prod[k] is multiplied by each odd prime p with p^2 < n along
    k = p^2, p^2 + p(p - 1), ... (the step is even, so k stays odd), and
    k is Carmichael exactly when prod[k] == k: a prime factor outside its
    class, a square factor or a prime factor above sqrt(n) leaves
    prod[k] < k, and a prime k has prod[k] = 1, its own progression
    starting at k^2.  The odd k = 3 + 2i run in blocks of _BLOCK_PERIODS
    periods of the wheel primes 3..13, whose progressions repeat every
    _PERIOD = 30030 odd values (the lcm of their steps p(p - 1)/2); every
    block starts at phase 0, as one broadcast copy of the constant _WHEEL
    into a (periods, _PERIOD) uint32 buffer.  The wheel's progressions
    start at k = p, not p^2; that puts p into prod[k] only at k = p <= 13,
    which is never tested.  Each prime p >= 17 keeps its next hit; a block
    selects the primes whose next hit lies in it with one compare, applies
    all their hits with one np.multiply.at (in any order) and moves their
    next hits past it.  Only the k on those progressions are tested: a
    Carmichael k is a squarefree product of three or more odd primes, none
    of the 16 such products of 3..13 is Carmichael, so k has a prime
    factor p >= 17 and sits on p's progression from p^2.  A k with two
    prime factors >= 17 is hit twice and listed once.

    prod[k], a product P of distinct primes dividing k, wraps mod 2^32 and
    is compared with k mod 2^32, integer-only.  That is exact below
    ENUMERATION_BOUND: a true Carmichael k always matches, and a false match
    needs P < k with k/P = 1 (mod 2^32) and P >= 17 (k is on a progression
    of a prime >= 17), so k >= 17 (2^32 + 1), about 7.3e10.
    """
    if n < 2:
        raise DomainError(f"enumeration requires n >= 2, got {n}")
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"enumeration bound is {ENUMERATION_BOUND}, got {n}")
    primes = np.flatnonzero(prime_sieve(math.isqrt(n - 1)))[6:]  # 17 and up: k is odd and 3..13 are the wheel
    steps, factors = primes * (primes - 1) // 2, primes.astype(np.uint32)
    nxt = (primes * primes - 3) // 2  # each prime's next hit, as the index i of k = 3 + 2i
    total, block = (n - 2) // 2, _BLOCK_PERIODS * _PERIOD  # total: the odd k in [3, n)
    buffer = np.empty((min(_BLOCK_PERIODS, -(-total // _PERIOD)), _PERIOD), dtype=np.uint32)
    prod = buffer.reshape(-1)
    found: list[int] = []
    for first in range(0, total, block):
        size = min(block, total - first)
        buffer[: -(-size // _PERIOD)] = _WHEEL
        sel = np.flatnonzero(nxt < first + size)
        start, step = nxt[sel] - first, steps[sel]
        hits = (size - 1 - start) // step + 1
        nxt[sel] += hits * step
        # hit h of selected prime j sits at start_j + h step_j; built in place to stay small
        at = np.arange(hits.sum())
        at *= np.repeat(step, hits)
        at += np.repeat(start - (hits.cumsum() - hits) * step, hits)
        np.multiply.at(prod, at, np.repeat(factors[sel], hits))
        k32 = at.astype(np.uint32)  # k mod 2^32: prod wraps there
        k32 *= 2
        k32 += (3 + 2 * first) & 0xFFFFFFFF
        found += sorted({3 + 2 * (first + i) for i in at[prod[at] == k32].tolist()})
    return found


def psw_scale(n: float) -> float:
    """The density scale N^((ln ln ln N)/(ln ln N)); requires N >= 16."""
    if n < 16:
        raise DomainError(f"psw scale requires N >= 16, got {n}")
    ln_n = math.log(n)
    ll = math.log(ln_n)
    lll = math.log(ll)
    return math.exp(ln_n * lll / ll)

