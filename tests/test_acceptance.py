"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Criterion 7's composite-beta clause holds under its
hypothesis: every composite whose strong-witness ratio is at least 3/4 keeps
|beta| <= 2/(sqrt(3) P).  The brute-force census pins the composites below
that ratio to k in {4, 6, 9}, and beta_violations must list exactly those of
them that exceed the limit ((6, 9) at P = 64; see the README).
"""

import math
import time

import numpy as np
import pytest

from carmsim import carmichael as cm
from carmsim import cli, counting, numtheory, qsim

import oracles


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


# ------------------------------------------------------------------ 1

def test_criterion_1_number_theory_gap_suite():
    start = time.time()
    limit = 5000
    spf = oracles.spf_sieve(limit)
    prime = numtheory.prime_sieve(limit)
    failures = []
    for k in range(4, limit):
        if prime[k]:
            continue
        factorization = numtheory.Factorization(k, oracles.factors_from_spf(k, spf))
        phi = numtheory.euler_phi(factorization)
        if phi != oracles.phi_census(k):
            failures.append(("phi", k))
        f_formula = numtheory.fermat_nonwitness_count(factorization)
        if f_formula != oracles.fermat_liar_census(k):
            failures.append(("census", k))
        if phi % f_formula != 0:
            failures.append(("divides", k))
        t = phi - f_formula
        if (t == 0) != oracles.is_carmichael(k):
            failures.append(("korselt", k))
        if t != 0 and 2 * t < phi:
            failures.append(("gap", k))
        if k % 2 == 1 and 4 * (k - 1 - oracles.strong_liar_census(k)) < 3 * (k - 1):
            failures.append(("rabin", k))
    elapsed = time.time() - start
    report(
        1,
        "number-theory gap suite",
        not failures and elapsed < 60.0,
        f"composites < {limit}, {elapsed:.1f}s" + (f", failures: {failures[:5]}" if failures else ""),
    )


# ------------------------------------------------------------------ 2

def test_criterion_2_carmichael_exactness():
    worst = 0.0
    for k in (561, 1105, 1729):
        value = oracles.allzero_probability(k, 16, 2)
        worst = max(worst, abs(value - 1.0))
    report(2, "Carmichael all-zeros exactness", worst <= 1e-10, f"max |1 - p| = {worst:.2e}")


# ------------------------------------------------------------------ 3

def _dense_allzero(k: int, p: int, r: int) -> float:
    """All-zeros mass from the dense oracle: every base value of k simulated."""
    state = oracles.controlled_grover_powers((p,) * r, oracles.fermat_failure_mask(k))
    for axis in range(r):
        state = oracles.qft(state, axis)
    return float(oracles.marginal(state, list(range(r)))[(0,) * r])


def test_criterion_3_non_carmichael_bound():
    start = time.time()
    limit = 2000
    prime = numtheory.prime_sieve(limit)
    spf = oracles.spf_sieve(limit)
    worst_match = {"production": 0.0, "dense": 0.0}
    envelope_failures = []
    for k in range(4, limit):
        if prime[k] or oracles.is_carmichael(k):
            continue
        factorization = numtheory.Factorization(k, oracles.factors_from_spf(k, spf))
        phi = numtheory.euler_phi(factorization)
        t = phi - numtheory.fermat_nonwitness_count(factorization)
        alpha = counting.dirichlet_kernel(counting.peak_position(k, t, 16), 16)
        for r in (1, 2):
            values = {
                "production": oracles.allzero_probability(k, 16, r),
                "dense": _dense_allzero(k, 16, r),
            }
            for route, value in values.items():
                worst_match[route] = max(worst_match[route], abs(value - alpha ** (2 * r)))
                if 2 * t >= k and value > (math.sqrt(2) / 16) ** (2 * r) + 1e-12:
                    envelope_failures.append((route, k, r))
    elapsed = time.time() - start
    report(
        3,
        "non-Carmichael all-zeros law",
        max(worst_match.values()) <= 1e-10 and not envelope_failures and elapsed < 300.0,
        f"max |p - alpha^2R| = {worst_match['production']:.2e} (production), "
        f"{worst_match['dense']:.2e} (dense), {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 4

def _flagged_uniform(k: int) -> oracles.StateVector:
    coprime = (np.gcd(np.arange(k), k) == 1).astype(np.int64)
    grid = np.zeros((k, 2), dtype=complex)
    grid[np.arange(k), coprime] = 1.0 / math.sqrt(k)
    return oracles.StateVector(grid)


def test_criterion_4_flag_postselection():
    phi = numtheory.liar_sieve(2000).phi
    worst = 0.0
    for k in range(2, 2000):
        _, prob = oracles.postselect(_flagged_uniform(k), 1, 1)
        worst = max(worst, abs(prob - phi[k] / k))
    retry_ok = True
    details = [f"max |p - phi/k| = {worst:.2e}"]
    trials = 10**4
    for k in (561, 15, 105):
        p = float(phi[k] / k)
        rounds = []
        for i in range(trials):
            rng = np.random.default_rng([20260808, k, i])
            rounds.append(oracles.draw_flag_rounds(p, rng))
        mean = float(np.mean(rounds))
        sigma = math.sqrt((1 - p) / p**2 / trials)
        details.append(f"k={k}: mean={mean:.4f} target={1/p:.4f} 5sigma={5*sigma:.4f}")
        if abs(mean - 1 / p) > 5 * sigma:
            retry_ok = False
    report(4, "flag post-selection law", worst <= 1e-10 and retry_ok, "; ".join(details))


# ------------------------------------------------------------------ 5

def test_criterion_5_spectral_law_grid():
    start = time.time()
    worst = {"dense": 0.0, "two-plane": 0.0}
    for p in (4, 8, 16, 32):
        for dimension in range(1, 201):
            for t in range(dimension + 1):
                closed = counting.exact_count_joint(dimension, t, p, 1)
                dense = oracles.count_distribution_dense(np.arange(dimension) < t, p)
                plane = qsim.counter_law(dimension, t, p)
                worst["dense"] = max(worst["dense"], float(np.abs(closed - dense).max()))
                worst["two-plane"] = max(worst["two-plane"], float(np.abs(closed - plane).max()))
    half_peaks_ok = True
    for p in (4, 8, 16, 32):
        for dimension in (2, 16, 50, 200):
            dense = oracles.count_distribution_dense(np.arange(dimension) < dimension // 2, p)
            plane = qsim.counter_law(dimension, dimension // 2, p)
            for law in (dense, plane):
                if abs(law[p // 4] - 0.5) > 1e-10 or abs(law[3 * p // 4] - 0.5) > 1e-10:
                    half_peaks_ok = False
    elapsed = time.time() - start
    report(
        5,
        "spectral law closed form vs dense and two-plane",
        max(worst.values()) <= 1e-10 and half_peaks_ok,
        f"max deviation {worst['dense']:.2e} (dense), {worst['two-plane']:.2e} (two-plane) "
        f"over D<=200, P in (4,8,16,32), {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 6

def test_criterion_6_counting_success_rate():
    start = time.time()
    result = cm.count_carmichaels_quantum(10**4, 128, seed=20260808, reps=500)
    fraction = result.success_fraction()
    elapsed = time.time() - start
    floor = 8 / math.pi**2 - 0.03
    report(
        6,
        "counting success rate",
        result.exact_count == 7 and fraction >= floor and elapsed < 300.0,
        f"t_N={result.exact_count}, fraction={fraction:.4f} >= {floor:.4f}, "
        f"bound={result.error_bound:.2f}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 7

# Composites k <= 10^4 whose strong-witness ratio w/k falls below the 3/4
# that the composite-beta clause assumes, by the brute-force census.
LOW_WITNESS_RATIO = (4, 6, 9)


def test_criterion_7_perturbation_budget():
    n, p = 10**4, 64
    bounds = cm.perturbation_bounds(n, p)
    leak = cm.leakage(numtheory.liar_sieve(n), p, 0, n + 1)
    beta = dict(zip(leak.k.tolist(), leak.beta.tolist()))
    beta_limit = 2 / (math.sqrt(3) * p)
    correction_ok = bounds.correction_norm_sq <= bounds.correction_norm_bound
    prime = numtheory.prime_sieve(n)
    composites = [k for k in range(4, n + 1) if not prime[k]]
    # leakage returns the composites alone; a prime's witness angle is 0, where the kernel is 1
    composites_ok = list(beta) == composites
    beta_prime_ok = counting.dirichlet_kernel(0.0, p) == 1.0
    low_ratio, over_limit, exceeding = [], [], []
    for k in composites:
        liars = oracles.strong_liar_census(k) if k % 2 else oracles.fermat_liar_census(k)
        covered = 4 * (k - 1 - liars) >= 3 * k
        if not covered:
            low_ratio.append(k)
        if abs(beta[k]) > beta_limit:
            exceeding.append(k)
            if covered:
                over_limit.append(k)
    beta_composite_ok = not over_limit and tuple(low_ratio) == LOW_WITNESS_RATIO
    violations_ok = bounds.beta_violations == tuple(exceeding) == (6, 9)
    print(
        f"  criterion 7 parts: correction {bounds.correction_norm_sq:.3e} <= "
        f"{bounds.correction_norm_bound:.3e}: {correction_ok}; leakage k == composites 4..n: "
        f"{composites_ok}; beta_prime==1: {beta_prime_ok}; "
        f"beta_composite <= 2/(sqrt(3)P) where witness ratio >= 3/4: {beta_composite_ok} "
        f"(over limit: {tuple(over_limit)}, ratio < 3/4: {tuple(low_ratio)}); "
        f"beta_violations {bounds.beta_violations} == exceeding {tuple(exceeding)}: {violations_ok}"
    )
    report(
        7,
        "perturbation budget",
        correction_ok and composites_ok and beta_prime_ok and beta_composite_ok and violations_ok,
        f"composites k <= {n}, P = {p}: |beta| <= {beta_limit:.4e} wherever the witness "
        f"ratio is >= 3/4; ratio < 3/4 only at k in {LOW_WITNESS_RATIO} (oracle census); "
        f"reported violations {bounds.beta_violations}",
    )


# ------------------------------------------------------------------ 8

def test_criterion_8_phi_norm_report():
    value = cm.perturbation_bounds(10**5, 64).phi_norm
    ok = abs(value - 0.6079) <= 0.001
    report(
        8,
        "totient-ratio mean",
        ok,
        f"phi_norm(1e5)={value:.6f}, matches 6/pi^2={6/math.pi**2:.6f}; "
        f"pi^2/6={math.pi**2/6:.4f} does not describe this mean (documented deviation)",
    )


# ------------------------------------------------------------------ 9

def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ["certify", "15", "--mode", "sample", "--reps", "10", "--seed", "3", "--output", "json"],
        ["certify", "561", "--reps", "5", "--seed", "3", "--output", "csv"],
        ["count-carmichael", "600", "--Q", "64", "--reps", "25", "--seed", "4", "--output", "csv"],
        ["count-bases", "15", "--P", "16", "--reps", "10", "--seed", "5", "--output", "json"],
        ["psw", "10000", "--reps", "10", "--seed", "6", "--output", "csv"],
        ["bounds", "2000", "--P", "16", "--output", "json"],
        ["enumerate", "10000", "--output", "csv"],
        ["facts", "561", "--output", "text"],
    ]
    identical = True
    for i, args in enumerate(cases):
        first = tmp_path / f"first{i}"
        second = tmp_path / f"second{i}"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes() or not first.read_bytes():
            identical = False
    report(9, "CLI seed determinism", identical, f"{len(cases)} commands byte-identical")


# ------------------------------------------------------------------ 10

def test_criterion_10_informational_asymptotics():
    # Desk-scale N cannot exhibit the conjectured asymptotics; these rows are
    # emitted for inspection and excluded from pass/fail by design.
    epsilon, delta = 0.5, 0.05
    rep = cm.psw_report(10**4, epsilon, delta, seed=1, reps=50)
    scale = numtheory.psw_scale(10**4)
    runtime_exponent = 2 + epsilon + 2 * delta
    print(
        "  INFO density-envelope row: "
        + ", ".join(f"{k}={v}" for k, v in rep.to_json_dict().items())
    )
    print(
        f"  INFO runtime scale l(N)^(2+eps+2delta) = {scale**runtime_exponent:.1f} "
        f"iteration units at N=1e4 (informational only)"
    )
    print(
        f"  INFO desk-scale check: dt_exp {rep.dt_exp:.2f} < dt_th {rep.dt_th:.4f} "
        f"is {rep.meets_target} here, as expected at small N"
    )
    report(10, "asymptotic claims informational only", True, "rows emitted, not scored")
