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
                least three prime factors.
    witnesses   bases 1 <= a < k certifying compositeness under the strong
                (Miller-Rabin) conditions.  For odd composite k at least
                3(k-1)/4 of the bases are witnesses.

Everything is deterministic and exact: primality uses a fixed Miller-Rabin
base set valid far beyond the 2**50 factorization bound.  F(k) and the
strong-liar count (Monier's formula) are closed forms over the
factorization; the per-base censuses that check them are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, DomainError

#: factorize() is guaranteed correct up to this bound (deterministic
#: Miller-Rabin certificate range is far larger; the bound keeps rho cheap).
FACTOR_BOUND = 1 << 50

#: Carmichael enumeration sieve refuses above this
ENUMERATION_BOUND = 10**7

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


def factorize(k: int, bound: int = FACTOR_BOUND) -> Factorization:
    """Deterministic factorization: trial division, then rho on cofactors."""
    if k < 2:
        raise DomainError(f"factorize requires k >= 2, got {k}")
    if k > bound:
        raise CapacityError(f"factorize bound is {bound}, got {k}")
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


def _vec_mod_pow(bases: np.ndarray, e: int, m: int) -> np.ndarray:
    """Vectorized modular exponentiation; requires m*m within int64."""
    result = np.ones_like(bases)
    b = bases % m
    while e:
        if e & 1:
            result = result * b % m
        b = b * b % m
        e >>= 1
    return result


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


def totient_sieve(n: int) -> np.ndarray:
    """phi(0..n) as an int64 array (phi[0] = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    s = prime_sieve(n)
    for p in np.flatnonzero(s):
        phi[p::p] -= phi[p::p] // p
    phi[0] = 0
    return phi


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


def enumerate_carmichaels(n: int, bound: int = ENUMERATION_BOUND) -> list[int]:
    """All Carmichael numbers strictly below n, ascending.

    Sieve formulation of Korselt: start from the composites, knock out
    non-squarefree k, then for every prime p knock out multiples with
    (k - 1) % (p - 1) != 0.  No oddness or factor-count assumption is
    needed; both fall out of the divisibility sieve.
    """
    if n < 2:
        raise DomainError(f"enumeration requires n >= 2, got {n}")
    if n > bound:
        raise CapacityError(f"enumeration bound is {bound}, got {n}")
    if n <= 4:
        return []
    s = prime_sieve(n - 1)
    ok = np.ones(n, dtype=bool)
    ok[:4] = False
    ok[np.flatnonzero(s)] = False
    primes = np.flatnonzero(s)
    for p in primes:
        p = int(p)
        if p * p >= n:
            break
        ok[p * p :: p * p] = False
    for p in primes:
        p = int(p)
        if p == 2:
            continue  # p - 1 = 1 divides everything
        if 2 * p >= n:
            break
        m = np.arange(p, n, p)
        ok[m[(m - 1) % (p - 1) != 0]] = False
    return np.flatnonzero(ok).tolist()


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
