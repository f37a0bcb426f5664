import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carmsim import carmichael
from carmsim import numtheory as nt
from carmsim.errors import CapacityError, DomainError

import oracles


# ---------------------------------------------------------------- factorize

def test_factorize_examples():
    assert nt.factorize(561).factors == ((3, 1), (11, 1), (17, 1))
    assert nt.factorize(8).factors == ((2, 3),)
    assert nt.factorize(1105).factors == ((5, 1), (13, 1), (17, 1))


def test_factorize_domain_and_capacity():
    with pytest.raises(DomainError):
        nt.factorize(1)
    with pytest.raises(CapacityError):
        nt.factorize(nt.FACTOR_BOUND + 1)


def test_factorize_semiprime_above_trial_limit():
    # 9973 is the largest trial prime (below _TRIAL_LIMIT), 10007 the smallest prime above it
    p, q = 1_000_003, 1_000_033
    assert nt.factorize(p * q).factors == ((p, 1), (q, 1))
    assert nt.factorize(9973**2).factors == ((9973, 2),)
    assert nt.factorize(9973 * 10007).factors == ((9973, 1), (10007, 1))
    assert nt.factorize(10007**2).factors == ((10007, 2),)
    assert nt.factorize(10007**3).factors == ((10007, 3),)
    assert nt.factorize(2**10 * 9973).factors == ((2, 10), (9973, 1))
    assert nt.factorize(2**50 - 27).factors == ((2**50 - 27, 1),)


@given(st.integers(2, 10**7))
def test_factorize_roundtrip(k):
    f = nt.factorize(k)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == k


#: factor tuples that do not factorize 12
BAD_FACTORS_OF_12 = (
    ((3, 1), (2, 2)),  # out of order
    ((2, 2), (4, 1)),  # 4 not prime
    ((2, 1), (3, 1)),  # product mismatch
)


def test_factorization_validation():
    for factors in BAD_FACTORS_OF_12:
        with pytest.raises(DomainError):
            nt.Factorization(12, factors)


def test_record_checks_run_through_make_and_replace():
    # a NamedTuple's stock _make builds the tuple without __new__; the
    # checked records override it, and _replace builds through _make
    valid = nt.factorize(12)
    for factors in BAD_FACTORS_OF_12:
        with pytest.raises(DomainError):
            valid._replace(factors=factors)
        with pytest.raises(DomainError):
            nt.Factorization._make([12, factors])
    facts = nt.number_facts(561)
    with pytest.raises(DomainError, match="t_k must equal"):
        facts._replace(t_k=facts.phi - facts.f_count + 1)
    with pytest.raises(DomainError, match="t_k must equal"):
        nt.NumberFacts._make([*facts[:4], 1, *facts[5:]])
    assert facts._replace(t_k=0) == facts and nt.NumberFacts._make(facts) == facts


def test_factorization_checks_run_through_a_wrapper(monkeypatch):
    # the benchmark's tracer swaps __post_init__ on the class for a wrapper;
    # the constructor looks it up there, so the wrapper and the checks run
    calls = []
    check = nt.Factorization.__post_init__

    def wrapper(self):
        calls.append(self.k)
        return check(self)

    monkeypatch.setattr(nt.Factorization, "__post_init__", wrapper)
    assert nt.factorize(12).factors == ((2, 2), (3, 1))
    with pytest.raises(DomainError):
        nt.Factorization(12, BAD_FACTORS_OF_12[1])
    assert calls == [12, 12]


# ---------------------------------------------------------------- totient and liar counts

def test_euler_phi_examples():
    assert nt.euler_phi(nt.factorize(561)) == 320
    assert nt.euler_phi(nt.factorize(97)) == 96
    assert nt.euler_phi(nt.factorize(15)) == 8


def test_euler_phi_census_agreement():
    for k in range(2, 2000):
        assert nt.euler_phi(nt.factorize(k)) == oracles.phi_census(k)


def test_fermat_nonwitness_examples():
    assert nt.fermat_nonwitness_count(nt.factorize(561)) == 320
    assert nt.fermat_nonwitness_count(nt.factorize(15)) == 4
    assert nt.fermat_nonwitness_count(nt.factorize(9)) == 2


def test_fermat_nonwitness_prime_rejected():
    with pytest.raises(DomainError):
        nt.fermat_nonwitness_count(nt.factorize(13))


def test_fermat_nonwitness_census_agreement():
    for k in range(4, 800):
        f = nt.factorize(k)
        if f.is_prime:
            continue
        assert nt.fermat_nonwitness_count(f) == oracles.fermat_liar_census(k), k


# ---------------------------------------------------------------- Carmichael detection

def test_is_carmichael_examples():
    assert oracles.is_carmichael(561)
    assert not oracles.is_carmichael(15)
    assert oracles.is_carmichael(1729)  # 6, 12, 18 all divide 1728
    assert not oracles.is_carmichael(2)
    assert not oracles.is_carmichael(1)


def test_is_carmichael_matches_definition():
    for k in range(2, 1500):
        assert oracles.is_carmichael(k) == oracles.carmichael_definitional(k), k


# ---------------------------------------------------------------- strong witnesses

def test_mr_witness_count_matches_scalar_witness():
    for k in (9, 15, 45, 91):
        scalar = sum(1 for a in range(1, k) if oracles.strong_witness_scalar(k, a))
        assert k - 1 - oracles.strong_liar_census(k) == scalar


def test_strong_liar_formula_matches_census():
    for k in range(9, 1200, 2):
        f = nt.factorize(k)
        if f.is_prime:
            continue
        assert nt.strong_liar_count(f) == oracles.strong_liar_census(k), k


def test_strong_liar_even_and_prime():
    assert nt.strong_liar_count(nt.factorize(13)) == 12
    # even composite: the square-root chain is empty, liars = Fermat liars
    assert nt.strong_liar_count(nt.factorize(4)) == oracles.fermat_liar_census(4)
    assert nt.strong_liar_count(nt.factorize(28)) == oracles.fermat_liar_census(28)


def test_even_strong_liars_leave_out_minus_one():
    # the package's even-k convention counts the Fermat liars only; the
    # textbook census also accepts a^(k-1) = -1, and those bases are the gap
    for k in range(4, 201, 2):
        textbook = sum(1 for a in range(1, k) if not oracles.strong_witness_scalar(k, a))
        minus_one = sum(1 for a in range(1, k) if pow(a, k - 1, k) == k - 1)
        assert nt.strong_liar_count(nt.factorize(k)) + minus_one == textbook, k


# ---------------------------------------------------------------- facts record

def test_number_facts_561():
    facts = nt.number_facts(561)
    assert facts.classification is nt.Classification.COMPOSITE_CARMICHAEL
    assert facts.phi == 320 and facts.f_count == 320 and facts.t_k == 0
    assert facts.mr_witnesses == 560 - oracles.strong_liar_census(561)


def test_number_facts_prime_and_small():
    assert nt.number_facts(2).classification is nt.Classification.PRIME
    facts = nt.number_facts(15)
    assert facts.t_k == 4
    assert facts.classification is nt.Classification.COMPOSITE_NON_CARMICHAEL
    assert nt.number_facts(4).mr_witnesses == 2  # even composite, no chain


@given(st.integers(2, 5000))
def test_number_facts_invariants(k):
    facts = nt.number_facts(k)
    assert facts.phi % facts.f_count == 0
    composite = facts.classification is not nt.Classification.PRIME
    assert (composite and facts.t_k == 0) == (
        facts.classification is nt.Classification.COMPOSITE_CARMICHAEL
    )
    if facts.classification is nt.Classification.COMPOSITE_NON_CARMICHAEL:
        assert 2 * facts.t_k >= facts.phi


# ---------------------------------------------------------------- enumeration

def test_enumerate_examples():
    assert nt.enumerate_carmichaels(600) == [561]
    assert nt.enumerate_carmichaels(561) == []
    assert nt.enumerate_carmichaels(10**4) == [561, 1105, 1729, 2465, 2821, 6601, 8911]


def test_enumerate_matches_pointwise():
    listed = set(nt.enumerate_carmichaels(3000))
    for k in range(2, 3000):
        assert (k in listed) == oracles.is_carmichael(k), k


def test_enumerate_errors():
    assert nt.ENUMERATION_BOUND == 10**10
    with pytest.raises(DomainError):
        nt.enumerate_carmichaels(1)
    with pytest.raises(CapacityError):
        nt.enumerate_carmichaels(nt.ENUMERATION_BOUND + 1)
    with pytest.raises(CapacityError):  # the bound sweep keeps its own cap
        carmichael.perturbation_bounds(10**7 + 1, 16)


DEFINITIONAL_BELOW_3000 = [k for k in range(2, 3000) if oracles.carmichael_definitional(k)]


@given(st.integers(2, 3000))
def test_enumerate_matches_definition(n):
    assert nt.enumerate_carmichaels(n) == [k for k in DEFINITIONAL_BELOW_3000 if k < n]


#: Pinch's counts C(10^j) of Carmichael numbers below 10^j (OEIS A055553)
PINCH_COUNTS = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105, 10**8: 255, 10**9: 646}


def test_enumerate_reproduces_pinch_counts():
    # 2^31 + 5 * 10^7 spans about 4,600 sieve blocks and ends past 2^31, so
    # its last 4 Carmichael numbers need an unsigned 32-bit prod (the mod
    # 2^32 wrap itself starts at 2^32); 10^8 ends inside a block.  Every
    # value Carmichael, strictly ascending and Pinch's count per decade:
    # each list is exact, with no number listed twice (a k with two prime
    # factors >= 17, such as 2465 = 5 * 17 * 29 or 75361 = 11 * 13 * 17 * 31,
    # is found on both progressions)
    values = nt.enumerate_carmichaels(2**31 + 5 * 10**7)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(oracles.is_carmichael(k) for k in values)
    for bound, count in PINCH_COUNTS.items():
        assert bisect.bisect_left(values, bound) == count, bound
    assert values[-4:] == [2159003281, 2170282969, 2176838049, 2178944461]
    assert values[-5] < 2**31
    assert nt.enumerate_carmichaels(10**8) == values[:255]


BLOCK = nt._BLOCK_PERIODS * nt._PERIOD
PERIOD = nt._PERIOD
# periods 35, 36 and 70 end mid-block, several blocks in
PERIOD_EDGES = [3 + 2 * PERIOD * j + d for j in (1, 2, nt._BLOCK_PERIODS + 1, 35, 36, 70) for d in (-2, 0, 2)]
# n about 2^21, mid-block and mid-period: the edge of a power-of-two block
POWER_OF_TWO_EDGES = [2**21 + 1, 2**21 + 3, 2**21 + 5]
# the block edges, and those of the former 35-period blocks by value, so that
# a change of _BLOCK_PERIODS keeps them: 2 * 35 * PERIOD + 1, + 3, + 5 and 4 * 35 * PERIOD + 3
BLOCK_EDGES = [2 * BLOCK + 1, 2 * BLOCK + 3, 2 * BLOCK + 5, 4 * BLOCK + 3, 2102101, 2102103, 2102105, 4204203]


def test_wheel_primes_hold_no_carmichael_product():
    # the sieve tests only the progressions of the primes >= 17, which is
    # exact because no squarefree product of 3 or more wheel primes passes
    # Korselt's criterion; the wheel, the primes whose step p(p - 1)/2
    # divides the period, must be 3..13: with 17 it would hold 561 = 3 * 11 * 17
    wheel = [p for p in range(3, 1000, 2) if oracles.is_prime_naive(p) and PERIOD % (p * (p - 1) // 2) == 0]
    assert wheel == [3, 5, 7, 11, 13]

    def korselt_products(primes):
        products = (math.prod(c) for r in range(3, len(primes) + 1) for c in itertools.combinations(primes, r))
        return [k for k in products if all((k - 1) % (p - 1) == 0 for p in primes if k % p == 0)]

    assert korselt_products(wheel) == []
    assert korselt_products(wheel + [17]) == [561, 1105]  # 1105 = 5 * 13 * 17
    # the constant wheel: at k = 3 + 2i, the product of the p in 3..13 whose
    # Korselt class k = p (mod p(p - 1)) holds k
    ks = [3 + 2 * i for i in range(PERIOD)]
    expected = [math.prod(p for p in wheel if k % (p * (p - 1)) == p) for k in ks]
    assert nt._WHEEL.dtype == np.uint32
    assert nt._WHEEL.tolist() == expected


@pytest.fixture(scope="module")
def below_10_7():
    # the reference list of the edge tests, checked on its own first: 105
    # Carmichael numbers (Pinch's count), strictly ascending
    values = nt.enumerate_carmichaels(10**7)
    assert len(values) == 105
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(oracles.is_carmichael(k) for k in values)
    return values


# a value in two of the lists runs once, under its own id
@pytest.mark.parametrize("n", list(dict.fromkeys([*BLOCK_EDGES, *PERIOD_EDGES, *POWER_OF_TWO_EDGES])))
def test_enumerate_at_block_edges(below_10_7, n):
    # block j holds the odd k in [3 + 2j BLOCK, 3 + 2(j + 1) BLOCK), whole
    # wheel periods: n ends one short of a block, at its end, one k into the
    # next, at two blocks; likewise one short of, at and one past the end of
    # wheel period j: periods 1 and 2 in the first block, the first period
    # of the second, and periods 35, 36 and 70 several blocks in
    assert n <= 10**7
    assert nt.enumerate_carmichaels(n) == below_10_7[: bisect.bisect_left(below_10_7, n)]


@pytest.mark.parametrize(
    ("periods", "n"), [(1, 2 * 10**6), (2, 2 * 10**6), (3, 2 * 10**6), (1, 10**7)], ids=["1", "2", "3", "1-10^7"]
)
def test_enumerate_with_blocks_across_wheel_periods(monkeypatch, below_10_7, periods, n):
    # blocks of one, two and three wheel periods: every block starts at
    # wheel phase 0, and 2 * 10^6 spans 34, 17 and 12 of them.  10^7 spans
    # 167 one-period blocks, and the primes below sqrt(10^7) carry their
    # next hits over many blocks without a hit
    monkeypatch.setattr(nt, "_BLOCK_PERIODS", periods)
    assert nt.enumerate_carmichaels(n) == below_10_7[: bisect.bisect_left(below_10_7, n)]


def test_enumerate_stays_in_bounded_memory():
    # the blocks of the Carmichael sieve hold no array of the k themselves
    # (36 MiB with one), and the working set does not grow with n: about
    # 1.1 MiB at both 10^7 and 10^8, the block buffer and its hits
    peak_7 = oracles.peak_traced_bytes(nt.enumerate_carmichaels, 10**7)
    peak_8 = oracles.peak_traced_bytes(nt.enumerate_carmichaels, 10**8)
    assert peak_7 < 2 * 2**20
    assert abs(peak_8 - peak_7) < 2**18


def test_sieves_agree_with_scalars():
    phi = nt.liar_sieve(500).phi
    spf = oracles.spf_sieve(500)
    for k in range(2, 501):
        f = nt.factorize(k)
        assert phi[k] == nt.euler_phi(f)
        assert oracles.factors_from_spf(k, spf) == f.factors


def test_liar_sieve_matches_censuses():
    phi, fermat, strong = nt.liar_sieve(2000)
    prime = nt.prime_sieve(2000)
    assert phi[:2].tolist() == [0, 1] and fermat[:2].tolist() == strong[:2].tolist() == [0, 0]
    for k in range(2, 2000):
        if prime[k]:
            assert phi[k] == fermat[k] == strong[k] == k - 1, k
            continue
        assert phi[k] == oracles.phi_census(k), k
        assert fermat[k] == oracles.fermat_liar_census(k), k
        # even k: the square-root chain is empty and the strong liars are the Fermat liars
        liars = oracles.strong_liar_census(k) if k % 2 else oracles.fermat_liar_census(k)
        assert strong[k] == liars, k
    with pytest.raises(DomainError):
        nt.liar_sieve(0)


def liar_sieve_checkpoints(n):
    """A seeded sample of 2000 k <= n, the primorial 510510, n, and the powers of 2 and 3 up to n."""
    sample = np.random.default_rng(1509).integers(2, n + 1, 2000).tolist()
    powers = [b**e for b in (2, 3) for e in range(1, int(math.log(n, b)) + 1) if b**e <= n]
    return sorted(set(sample + powers + [510510, n]))


def test_int32_liar_sieve_matches_number_facts_at_scale():
    n = 10**6
    counts = nt.liar_sieve(n)
    assert all(a.dtype == np.int32 and a.shape == (n + 1,) for a in counts)
    ks = liar_sieve_checkpoints(n)
    phi, fermat, strong = (a[ks].tolist() for a in counts)
    for i, k in enumerate(ks):
        facts = nt.number_facts(k)
        assert (phi[i], fermat[i], strong[i]) == (facts.phi, facts.f_count, k - 1 - facts.mr_witnesses), k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5, 10**5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_liar_sieve_equals_the_division_reference(workers, n):
    # the final pass runs in chunks of 2^14 on any number of threads
    assert nt._CHUNK == 2**14
    with oracles.chunk_workers(workers):
        counts = nt.liar_sieve(n)
    for got, expected in zip(counts, oracles.liar_sieve_reference(n)):
        assert got.dtype == expected.dtype == np.int32
        assert np.array_equal(got, expected)


def test_one_worker_or_one_chunk_starts_no_thread():
    with oracles.chunk_workers(1):
        nt.liar_sieve(10**5)
        carmichael.perturbation_bounds(10**5, 16)
        assert nt._pool is None
    with oracles.chunk_workers(2):
        # k = 0..2^14 - 1: one chunk of the sieve's final pass and one of leakage
        carmichael.perturbation_bounds(2**14 - 1, 16)
        assert nt._pool is None
        nt.liar_sieve(2**14)
        assert nt._pool is not None


def test_liar_sieve_refuses_two_to_the_31_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="liar sieve bound"):
            nt.liar_sieve(2**31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# ---------------------------------------------------------------- density scales

def test_psw_scale_domain_and_values():
    with pytest.raises(DomainError):
        nt.psw_scale(15.9)
    # just above the triple-log root exp(e) = 15.15 the scale is near 1
    assert 1.0 < nt.psw_scale(16) < 1.06
    n = 10**6
    ln_n = math.log(n)
    expected = math.exp(ln_n * math.log(math.log(ln_n)) / math.log(ln_n))
    assert nt.psw_scale(n) == pytest.approx(expected, rel=1e-12)


def test_psw_scale_monotone():
    values = [nt.psw_scale(n) for n in np.geomspace(100, 10**9, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))

