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
                3(k-1)/4 of the bases are witnesses.

Everything is deterministic and exact: primality uses a fixed Miller-Rabin
base set valid far beyond the 2**50 factorization bound.  F(k) and the
strong-liar count (Monier's formula) are closed forms over the
factorization; the per-base censuses that check them are in tests/oracles.py.
Two sieves cover every k below a bound at once: liar_sieve (phi, F and the
strong-liar count, one pass over the primes up to sqrt(n)) and the Korselt
congruence sieve of enumerate_carmichaels (up to ENUMERATION_BOUND).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError

#: factorize() is guaranteed correct up to this bound (deterministic
#: Miller-Rabin certificate range is far larger; the bound keeps rho cheap).
FACTOR_BOUND = 1 << 50

#: Carmichael enumeration sieve refuses above this
ENUMERATION_BOUND = 10**9

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


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization of k, primes strictly increasing."""

    k: int
    factors: tuple[tuple[int, int], ...]

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

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho with deterministic parameters; n odd composite."""
    if n % 2 == 0:
        return 2
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
    """Deterministic factorization: trial division, then rho on cofactors."""
    if k < 2:
        raise DomainError(f"factorize requires k >= 2, got {k}")
    if k > FACTOR_BOUND:
        raise CapacityError(f"factorize bound is {FACTOR_BOUND}, got {k}")
    n = k
    factors: dict[int, int] = {}

    def add(p: int) -> None:
        factors[p] = factors.get(p, 0) + 1

    for p in (2, 3, 5):
        while n % p == 0:
            add(p)
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            add(p)
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
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


def is_carmichael(k: int) -> bool:
    """Korselt test: composite, squarefree, >= 3 primes, p-1 | k-1 for all p."""
    if k < 2:
        return False
    f = factorize(k)
    if f.is_prime or not f.is_squarefree or len(f.factors) < 3:
        return False
    return all((k - 1) % (p - 1) == 0 for p, _ in f.factors)


def strong_liar_count(f: Factorization) -> int:
    """Exact count of strong liars (non-witnesses) among 1 <= a < k.

    Odd composite k: with k-1 = 2^s d (d odd) and p-1 = 2^{s_p} d_p,
        liars = (1 + (2^(nu*omega) - 1)/(2^omega - 1)) * prod gcd(d, d_p),
    nu = min s_p, omega = number of distinct primes.  Even composite k has
    an odd k-1, the square-root chain is empty, and the liars are exactly
    the F(k) Fermat liars.  Primes have k-1 liars (no witnesses).
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


@dataclass(frozen=True)
class NumberFacts:
    """Per-integer classical record tying the oracle quantities together.

    mr_witnesses comes from the exact liar-count formula (validated against
    the census in the test suite), so facts work at any k <= 2**50.
    """

    k: int
    factorization: Factorization
    phi: int
    f_count: int
    t_k: int
    mr_witnesses: int
    classification: Classification

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
    for i in range(2, math.isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = False
    return s


class LiarCounts(NamedTuple):
    """phi(k), F(k) and the strong-liar count for every k = 0..n (int64).

    Entries 0 and 1 count no bases (phi[1] = 1).  For a prime k the Fermat
    and strong counts are k - 1: every base is a liar.
    """

    phi: np.ndarray
    fermat: np.ndarray
    strong: np.ndarray


def liar_sieve(n: int) -> LiarCounts:
    """phi, F and the strong-liar count of every k <= n in one pass over the primes.

    Each prime p <= sqrt(n) updates its multiples p::p: phi, the product
    F = prod gcd(p - 1, k - 1), the distinct-prime count omega and the lowest
    set bit 2^nu of every p - 1 (nu = min v2(p - 1)); the slices p^j::p^j
    divide p out of a cofactor.  What remains of the cofactor is 1 or the
    one prime factor above sqrt(n), handled in one vectorized step.  The
    strong count is strong_liar_count's formula: with k - 1 = 2^s d and
    p - 1 = 2^{s_p} d_p, gcd(p - 1, k - 1) = 2^min(s_p, s) gcd(d_p, d), so
    prod gcd(d, d_p) is the odd part of F, and (2^(nu*omega) - 1)/(2^omega - 1)
    is summed as sum_{j < nu} 2^(omega j).  Every term is below k (each
    p | k exceeds 2^nu), so int64 cannot overflow.
    """
    if n < 1:
        raise DomainError(f"liar sieve requires n >= 1, got {n}")
    ks = np.arange(n + 1, dtype=np.int64)
    phi = ks.copy()
    rest = ks.copy()
    fermat = np.ones(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int64)
    low = np.full(n + 1, 1 << 62, dtype=np.int64)
    for p in np.flatnonzero(prime_sieve(math.isqrt(n))).tolist():
        phi[p::p] -= phi[p::p] // p
        fermat[p::p] *= np.gcd(ks[p::p] - 1, p - 1)
        omega[p::p] += 1
        low[p::p] = np.minimum(low[p::p], (p - 1) & (1 - p))
        power = p
        while power <= n:
            rest[power::power] //= p
            power *= p
    big = np.flatnonzero(rest > 1)
    q = rest[big]
    phi[big] -= phi[big] // q
    fermat[big] *= np.gcd(big - 1, q - 1)
    omega[big] += 1
    low[big] = np.minimum(low[big], (q - 1) & (1 - q))

    # odd k: strong = odd part of F times (1 + sum_{j < nu} 2^(omega j));
    # even k: the square-root chain is empty and strong = F
    odd = slice(3, None, 2)
    f_odd, omega, low = fermat[odd], omega[odd], low[odd]
    geo = np.ones(f_odd.size, dtype=np.int64)
    live = np.flatnonzero(low > 1)
    j = 0
    while live.size:
        geo[live] += np.left_shift(1, omega[live] * j)
        j += 1
        live = live[low[live] > 1 << j]
    strong = fermat.copy()
    strong[odd] = f_odd // (f_odd & -f_odd) * geo
    fermat[:2] = strong[:2] = 0
    return LiarCounts(phi, fermat, strong)


#: odd values of k per block of the Carmichael sieve
_BLOCK = 1 << 22


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
    starting at k^2.  The test is integer-only; k runs in blocks of _BLOCK
    odd values.
    """
    if n < 2:
        raise DomainError(f"enumeration requires n >= 2, got {n}")
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"enumeration bound is {ENUMERATION_BOUND}, got {n}")
    primes = np.flatnonzero(prime_sieve(math.isqrt(n - 1)))[1:]
    squares = primes * primes
    moduli = primes * (primes - 1)
    dtype = np.int32 if n <= 1 << 31 else np.int64  # prod[k] divides k < n
    found: list[int] = []
    for lo in range(3, n, 2 * _BLOCK):
        ks = np.arange(lo, min(lo + 2 * _BLOCK, n), 2, dtype=dtype)
        prod = np.ones_like(ks)
        first = (np.maximum(squares, lo + (primes - lo) % moduli) - lo) // 2
        live = first < ks.size
        for p, i, step in zip(primes[live].tolist(), first[live].tolist(), (moduli[live] // 2).tolist()):
            prod[i::step] *= p
        found += ks[prod == ks].tolist()
    return found


def psw_scale(n: float) -> float:
    """The density scale N^((ln ln ln N)/(ln ln N)); requires N >= 16."""
    if n < 16:
        raise DomainError(f"psw scale requires N >= 16, got {n}")
    ln_n = math.log(n)
    ll = math.log(ln_n)
    lll = math.log(ll)
    return math.exp(ln_n * lll / ll)


def psw_bounds(n: float, epsilon: float) -> tuple[float, float]:
    """(N / l(N)^(2+eps), N * l(N)^-(1-eps)) with unit implied constants.

    These are conjectured asymptotic envelopes for the count of Carmichael
    numbers below N; at desk scale they are reported as-is, without any
    claim that the finite counts respect them.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    scale = psw_scale(n)
    return n / scale ** (2 + epsilon), n * scale ** (-(1 - epsilon))
