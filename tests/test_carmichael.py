import math
import tracemalloc

import numpy as np
import pytest

from carmsim import carmichael as cm
from carmsim import counting, numtheory, qsim
from carmsim.errors import CapacityError, DomainError

import oracles


def leakage_alpha(k: int, p: int) -> float:
    facts = numtheory.number_facts(k)
    f = p * math.asin(math.sqrt(facts.t_k / k)) / math.pi
    return counting.dirichlet_kernel(f, p)


# ---------------------------------------------------------------- flag stage

def test_flag_probability_examples():
    for k, phi in ((561, 320), (15, 8), (1105, 768)):
        assert cm.certify_reps(k, 8, 1, mode="exact", seed=0, reps=1)[0].flag_probability == phi / k


def test_flag_probability_matches_simulator():
    for k in (15, 105, 561, 1105):
        state = oracles.uniform_state((k,))
        _, prob = oracles.postselect(_flagged(state, k), 1, 1)
        assert prob == pytest.approx(cm.certify_reps(k, 8, 1, mode="exact", seed=0, reps=1)[0].flag_probability, abs=1e-10)


def _flagged(state: oracles.StateVector, k: int) -> oracles.StateVector:
    coprime = (np.gcd(np.arange(k), k) == 1).astype(np.int64)
    grid = np.zeros((k, 2), dtype=complex)
    grid[np.arange(k), coprime] = state.amplitudes
    return oracles.StateVector(grid)


def test_draw_flag_rounds_mean():
    rng = np.random.default_rng(7)
    p = 320 / 561
    rounds = [oracles.draw_flag_rounds(p, rng) for _ in range(4000)]
    expected = 561 / 320
    sigma = math.sqrt((1 - p) / p**2 / len(rounds))
    assert abs(np.mean(rounds) - expected) <= 5 * sigma
    with pytest.raises(DomainError):
        oracles.draw_flag_rounds(0.0, rng)
    for accept in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError, match="acceptance probability"):
            qsim.rep_draws(0, 3, accept)


# ---------------------------------------------------------------- all-zeros law

def test_allzero_carmichael_is_one():
    assert oracles.allzero_probability(561, 16, 2) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [15, 21, 25, 49, 91, 105])
@pytest.mark.parametrize("p,r", [(8, 1), (16, 1), (16, 2)])
def test_allzero_matches_kernel_power(k, p, r):
    alpha = leakage_alpha(k, p)
    assert oracles.allzero_probability(k, p, r) == pytest.approx(alpha ** (2 * r), abs=1e-10)


def test_allzero_decreasing_in_r():
    values = [oracles.allzero_probability(15, 16, r) for r in (1, 2, 3)]
    assert values[0] > values[1] > values[2]


def test_allzero_probability_rejects_primes():
    with pytest.raises(DomainError):
        oracles.allzero_probability(13, 16, 1)


def test_gap_bound_applies_above_half():
    # t(25) = 16 >= 25/2, so the sqrt(2)/P envelope applies
    assert oracles.allzero_probability(25, 8, 2) <= (math.sqrt(2) / 8) ** 4
    assert oracles.allzero_probability(49, 16, 2) <= (math.sqrt(2) / 16) ** 4


def test_flag_conditioned_diagnostic_differs():
    diag = oracles.allzero_probability_flag_conditioned(15, 8, 1)
    marginal = oracles.allzero_probability(15, 8, 1)
    assert 0.0 <= diag.joint <= diag.conditional <= 1.0
    # the literal post-iteration flag couples to the counters: the mass is
    # branch-dependent and the conditional shifts away from alpha^(2R)
    assert abs(diag.flag_mass - 8 / 15) > 0.05
    assert abs(diag.conditional - marginal) > 1e-3


# ---------------------------------------------------------------- certify

def test_certify_carmichael_exact():
    verdict = cm.certify_reps(561, 16, 2, mode="exact", seed=3, reps=1)[0]
    assert verdict.kind is cm.VerdictKind.PROBABLY_CARMICHAEL
    assert verdict.error_bound == 0.0
    assert verdict.observed_ancillas == (0, 0)
    assert verdict.exact_allzero == pytest.approx(1.0, abs=1e-10)
    assert verdict.flag_retries == 0
    assert verdict.grover_applications == 2 * 15


def test_certify_non_carmichael():
    # all-zeros carries ~4.5e-5 mass at P=16, R=2; these reps all refute
    for verdict in cm.certify_reps(15, 16, 2, mode="exact", seed=0, reps=8):
        assert verdict.kind is cm.VerdictKind.NOT_CARMICHAEL
        assert verdict.error_bound == 0.0
        assert verdict.exact_allzero == pytest.approx(
            leakage_alpha(15, 16) ** 4, abs=1e-10
        )


def test_certify_sample_mode():
    verdict = cm.certify_reps(15, 16, 2, mode="sample", seed=5, reps=1)[0]
    assert verdict.flag_retries >= 1
    assert verdict.grover_applications == 2 * 15 * verdict.flag_retries
    assert verdict.exact_allzero is None
    probably = cm.certify_reps(561, 8, 1, mode="sample", seed=5, reps=1)[0]
    assert probably.kind is cm.VerdictKind.PROBABLY_CARMICHAEL
    expected = cm.gap_error_bound(561, 320, 8, 1)
    assert probably.error_bound == pytest.approx(expected)
    assert 0.0 < probably.error_bound < 1.0


def test_certify_determinism_and_validation():
    a = cm.certify_reps(15, 16, 2, mode="sample", seed=9, reps=4)
    b = cm.certify_reps(15, 16, 2, mode="sample", seed=9, reps=4)
    assert a == b
    with pytest.raises(DomainError):
        cm.certify_reps(13, 16, 2, mode="exact", seed=0, reps=100)
    with pytest.raises(DomainError):
        cm.certify_reps(15, 16, 2, mode="other", seed=0, reps=100)


def test_certify_reps_factorize_once(monkeypatch):
    # the facts certify_reps holds feed its law: one number_facts call per call
    calls = []
    number_facts = numtheory.number_facts
    monkeypatch.setattr(numtheory, "number_facts", lambda k: calls.append(k) or number_facts(k))
    for mode in ("exact", "sample"):
        calls.clear()
        cm.certify_reps(561, 16, 2, mode=mode, seed=0, reps=5)
        assert calls == [561]


def test_certify_reps_share_one_law_and_keep_streams():
    # rep i draws from default_rng([seed, i]) alone: a longer run extends a
    # shorter one, and each reading maps one uniform through the shared law
    for k in (15, 91, 561):
        law = qsim.counter_law(k, numtheory.number_facts(k).t_k, 8, 2)
        for mode in ("exact", "sample"):
            batch = cm.certify_reps(k, 8, 2, mode=mode, seed=4, reps=6)
            assert batch[:3] == cm.certify_reps(k, 8, 2, mode=mode, seed=4, reps=3)
            for i, verdict in enumerate(batch):
                rng = np.random.default_rng([4, i])
                if mode == "sample":
                    assert verdict.flag_retries == oracles.draw_flag_rounds(verdict.flag_probability, rng)
                assert verdict.observed_ancillas == tuple(qsim.sample_outcomes(law, [rng.random()])[0])
    for reps in (0, -3):
        with pytest.raises(DomainError, match="reps must be >= 1"):
            cm.certify_reps(561, 16, 2, mode="exact", seed=0, reps=reps)


def _per_rep_verdicts(k: int, p: int, r: int, mode: str, seed: int, reps: int) -> list[cm.Verdict]:
    """One Verdict built per rep from its own default_rng([seed, i]) stream."""
    facts = numtheory.number_facts(k)
    law = qsim.counter_law(k, facts.t_k, p, r)
    allzero = float(law[(0,) * r])
    accept = facts.phi / k
    if mode == "exact":
        bound = 0.0 if facts.t_k == 0 else allzero
    else:
        bound = cm.gap_error_bound(k, facts.phi, p, r)
    verdicts = []
    for i in range(reps):
        rng = np.random.default_rng([seed, i])
        rounds = oracles.draw_flag_rounds(accept, rng) if mode == "sample" else 0
        reading = tuple(qsim.sample_outcomes(law, [rng.random()])[0].tolist())
        nonzero = any(reading)
        verdicts.append(cm.Verdict(
            kind=cm.VerdictKind.NOT_CARMICHAEL if nonzero else cm.VerdictKind.PROBABLY_CARMICHAEL,
            error_bound=0.0 if nonzero else bound,
            observed_ancillas=reading,
            flag_retries=rounds,
            grover_applications=r * (p - 1) * max(rounds, 1),
            flag_probability=accept,
            exact_allzero=allzero if mode == "exact" else None,
        ))
    return verdicts


def _per_rep_estimates(dimension: int, marked: int, p: int, seed: int, reps: int) -> list[counting.CountEstimate]:
    """One CountEstimate decoded per rep from its own default_rng([seed, i]) stream."""
    table = qsim.counter_law(dimension, marked, p)
    return [
        counting.decode_outcomes(
            qsim.sample_outcomes(table, [np.random.default_rng([seed, i]).random()])[:, 0], dimension, p, marked
        )[0]
        for i in range(reps)
    ]


@pytest.mark.parametrize("seed", [0, 5, 42, 2**32, 2**100 + 7])
@pytest.mark.parametrize("command", ["certify-exact", "certify-sample", "count-bases", "count-carmichael"])
def test_reps_with_one_outcome_share_one_record(command, seed):
    # the library calls behind each CLI command, at 100 reps
    if command.startswith("certify"):
        mode = command.removeprefix("certify-")
        records = cm.certify_reps(403, 8, 2, mode=mode, seed=seed, reps=100)
        rebuilt = _per_rep_verdicts(403, 8, 2, mode, seed, 100)
        outcomes = {(v.observed_ancillas, v.flag_retries) for v in records}
    else:
        if command == "count-bases":
            dimension, marked = 25001, cm.composite_facts(25001).t_k
            records = counting.run_count(dimension, marked, 64, seed=seed, reps=100)
        else:
            result = cm.count_carmichaels_quantum(65000, 64, seed=seed, reps=100)
            dimension, marked, records = 65000, result.exact_count, result.estimates
        rebuilt = _per_rep_estimates(dimension, marked, 64, seed, 100)
        outcomes = {e.measured_l for e in records}
    assert len({id(record) for record in records}) == len(outcomes) < len(records)
    assert records == rebuilt


def test_sample_mode_draws_match_default_rng(monkeypatch):
    # the sample-mode path of a rep: geometric flag rounds, then one uniform,
    # from one block draw of all reps; a tail of 1/2 sends up to half of the
    # reps past the block, into further blocks, and 64 uniforms per chunk
    # split the reps into many chunks
    for tail, elements in ((qsim._FLAG_TAIL, qsim._BLOCK_ELEMENTS), (0.5, 64)):
        monkeypatch.setattr(qsim, "_FLAG_TAIL", tail)
        monkeypatch.setattr(qsim, "_BLOCK_ELEMENTS", elements)
        for seed in (0, 42, 2**32, 2**100 + 7):
            for accept in (1.0, 8 / 15, 8 / 30, 0.05):
                rounds, readings = qsim.rep_draws(seed, 200, accept)
                for i in range(200):
                    twin = np.random.default_rng([seed, i])
                    assert rounds[i] == oracles.draw_flag_rounds(accept, twin)
                    assert readings[i] == twin.random()


def test_certify_rejects_mode_and_prime_before_building_streams(monkeypatch):
    built = []
    monkeypatch.setattr(qsim, "rep_draws", lambda seed, reps, accept: built.append(reps) or ([], []))
    with pytest.raises(DomainError, match="is prime"):
        cm.certify_reps(1009, 16, 2, mode="exact", seed=0, reps=100)
    with pytest.raises(DomainError, match="mode must be"):
        cm.certify_reps(15, 16, 2, mode="other", seed=0, reps=100)
    assert built == []


@pytest.mark.parametrize("p,r,error", [(2, 1, DomainError), (16, 0, DomainError), (1024, 3, CapacityError)])
def test_certify_rejects_p_r_and_the_cap_before_seeding_streams(p, r, error):
    # a million reps' draws peak near 20 MB; a rejected law must seed none
    tracemalloc.start()
    try:
        with pytest.raises(error):
            cm.certify_reps(15, p, r, mode="exact", seed=0, reps=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verdict_validation():
    with pytest.raises(DomainError):
        cm.Verdict(
            kind=cm.VerdictKind.NOT_CARMICHAEL,
            error_bound=0.0,
            observed_ancillas=(0, 0),
            flag_retries=1,
            grover_applications=30,
            flag_probability=0.5,
        )


def test_gap_error_bound_envelope():
    # sup of the kernel over t >= phi/2 stays under the envelope
    for k in (15, 21, 25, 91):
        facts = numtheory.number_facts(k)
        bound = cm.gap_error_bound(k, facts.phi, 16, 1)
        for t in range(facts.phi // 2, facts.phi + 1):
            f = 16 * math.asin(math.sqrt(t / k)) / math.pi
            assert counting.dirichlet_kernel(f, 16) ** 2 <= bound + 1e-12


@pytest.mark.parametrize("k,phi,expected", [
    (15, 8, ("0.00021457672119140639", "7.673861546209089e-10", "0.23437500000000008")),
    (561, 320, ("0.00018758833408355719", "6.272617305569386e-10", "0.21914062500000003")),
    (1387, 1296, ("6.990737258034352e-05", "1.4270018025524305e-10", "0.13377700617283952")),
    (2**50 - 1, 656100000000000, ("0.0001797378537968923", "5.883007193346146e-10", "0.21450615509118715")),
])
def test_gap_error_bound_values_are_pinned(k, phi, expected):
    # the float values of phi / (2.0 k), which the int division equals to the bit for k <= 2^50
    assert numtheory.number_facts(k).phi == phi
    got = tuple(repr(cm.gap_error_bound(k, phi, p, r)) for p, r in ((16, 2), (64, 3), (4, 1)))
    assert got == expected


def test_gap_error_bound_takes_k_past_the_float_range():
    k = 10**399 + 1  # 400 digits; 2.0 * k would overflow
    bound = cm.gap_error_bound(k, 10**399, 16, 2)
    assert isinstance(bound, float) and 0.0 < bound <= 1.0


# ---------------------------------------------------------------- perturbation budget

def test_perturbation_bounds_small():
    bounds = cm.perturbation_bounds(500, 16)
    leak = cm.leakage(numtheory.liar_sieve(500), 16, 0, 501)
    prime = numtheory.prime_sieve(500)
    assert leak.k.tolist() == [k for k in range(4, 501) if not prime[k]]
    assert bounds.correction_norm_sq <= bounds.correction_norm_bound
    assert bounds.beta_violations == ()
    assert np.all(np.abs(leak.beta) <= 1 + 1e-12)
    assert np.all(np.abs(leak.alpha) <= 1 + 1e-12)
    carms = set(numtheory.enumerate_carmichaels(500))
    assert leak.carmichael.tolist() == [k in carms for k in leak.k.tolist()]


def test_perturbation_bounds_known_small_k_exceptions():
    # witness ratio 2/3 at k = 6 and 9 pushes beta past 2/(sqrt(3) P) at P=64
    bounds = cm.perturbation_bounds(100, 64)
    assert bounds.beta_violations == (6, 9)
    assert cm.perturbation_bounds(100, 16).beta_violations == ()
    # the scan includes k = n itself
    assert cm.perturbation_bounds(9, 64).beta_violations == (6, 9)
    assert cm.perturbation_bounds(6, 64).beta_violations == (6,)


def test_perturbation_bounds_hold_at_p16_full_range():
    bounds = cm.perturbation_bounds(10**4, 16)
    assert bounds.beta_violations == ()
    assert bounds.correction_norm_sq <= bounds.correction_norm_bound


CHUNK = cm._KERNEL_CHUNK


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_perturbation_bounds_chunks_match_one_shot_kernel(n):
    counts = numtheory.liar_sieve(n)
    phi, fermat, strong = counts
    k = np.arange(n + 1)
    composite = phi != k - 1
    composite[:2] = False
    size = np.maximum(k, 1).astype(np.float64)
    g = 64 * np.arcsin(np.sqrt(np.where(composite, k - 1 - strong, 0) / size)) / math.pi
    f_peak = 64 * np.arcsin(np.sqrt(np.where(composite, phi - fermat, 0) / size)) / math.pi
    whole = cm.leakage(counts, 64, 0, n + 1)
    chunks = [cm.leakage(counts, 64, lo, lo + CHUNK) for lo in range(0, n + 1, CHUNK)]
    for field in cm.Leakage._fields:
        joined = np.concatenate([getattr(c, field) for c in chunks])
        assert np.array_equal(joined, getattr(whole, field))
    # the kernels on every k, gathered at the composites
    assert np.array_equal(whole.k, np.flatnonzero(composite))
    assert np.array_equal(whole.beta, counting.dirichlet_kernel(g, 64)[composite])
    assert np.array_equal(whole.alpha, counting.dirichlet_kernel(f_peak, 64)[composite])
    assert np.array_equal(whole.beta, oracles.dirichlet_kernel_reference(g, 64)[composite])
    assert np.array_equal(whole.alpha, oracles.dirichlet_kernel_reference(f_peak, 64)[composite])


@pytest.mark.parametrize("p", [4, 5, 16, 64])  # P = 5: the odd-P kernel sign
@pytest.mark.parametrize("n", [2, 3, 4, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_perturbation_bounds_sums_match_whole_arrays(n, p):
    bounds = cm.perturbation_bounds(n, p)
    got = (bounds.correction_norm_sq, bounds.phi_norm, bounds.beta_violations)
    assert got == oracles.perturbation_sums(n, p)


def test_perturbation_bounds_stay_in_bounded_memory():
    # the kernels run in chunks: 3.6 MiB measured; whole-array factors and
    # masks take 4.0 MiB
    assert oracles.peak_traced_bytes(cm.perturbation_bounds, 10**5, 64) < 10 * 2**20


def test_perturbation_bounds_peak_heap_per_k():
    # the sieve's 12 bytes per k, the phi(k)/k array's 8 and one chunk:
    # 21.8 MB measured at 10^6; whole-array factors and masks take 41.1 MB
    assert oracles.peak_traced_bytes(cm.perturbation_bounds, 10**6, 64) < 34 * 10**6


def test_phi_norm():
    value = cm.perturbation_bounds(10**4, 16).phi_norm
    assert 0.0 < value <= 1.0
    assert value == pytest.approx(6 / math.pi**2, abs=2e-3)


# ---------------------------------------------------------------- counting pipeline

def test_count_carmichaels_600():
    result = cm.count_carmichaels_quantum(600, 64, seed=1, reps=60)
    assert result.exact_count == 1
    assert result.success_fraction() >= 8 / math.pi**2
    assert result.error_bound == pytest.approx(counting.estimate_error_bound(600, 64, 1))


def test_count_carmichaels_none_below_500():
    result = cm.count_carmichaels_quantum(500, 32, seed=1, reps=30)
    assert result.exact_count == 0
    assert all(e.measured_l == 0 and e.t_tilde == 0.0 for e in result.estimates)


def test_count_carmichaels_boundary_excludes_n():
    # 561 itself sits on the register but is not "below 561"
    result = cm.count_carmichaels_quantum(561, 32, seed=1, reps=10)
    assert result.exact_count == 0
    assert all(e.t_tilde == 0.0 for e in result.estimates)


def test_count_carmichaels_determinism():
    a = cm.count_carmichaels_quantum(600, 64, seed=9, reps=15)
    b = cm.count_carmichaels_quantum(600, 64, seed=9, reps=15)
    assert [e.measured_l for e in a.estimates] == [e.measured_l for e in b.estimates]


# ---------------------------------------------------------------- psw report

def test_choose_q_policy():
    epsilon, delta = 0.5, 0.05
    q = cm.choose_q(10**4, epsilon, delta)
    assert q >= numtheory.psw_scale(10**4) ** (1 + epsilon / 2 + delta)
    # a policy Q past the float range is a capacity error, not an overflow
    for eps, dlt in ((1e308, delta), (epsilon, 1e308), (1.7e308, 1.7e308)):
        with pytest.raises(CapacityError):
            cm.choose_q(100, eps, dlt)


def test_psw_report_fields():
    report = cm.psw_report(10**4, 0.5, 0.05, seed=2, reps=30)
    assert report.n == 10**4 and report.t_n == 7
    assert report.q >= 4
    assert report.dt_exp == pytest.approx(
        counting.estimate_error_bound(10**4, report.q, 7)
    )
    scale = numtheory.psw_scale(10**4)
    assert report.dt_th == pytest.approx(10**4 * scale ** (-2.55))
    lower, upper = numtheory.psw_bounds(10**4, 0.5)
    assert report.psw_lower == pytest.approx(lower)
    assert report.psw_upper == pytest.approx(upper)
    assert report.meets_target == (report.dt_exp < report.dt_th)
    row = report.to_csv_row()
    assert len(row) == len(report.CSV_HEADER) == 10


def test_psw_report_epsilon_sensitivity():
    lower_small = numtheory.psw_bounds(10**4, 0.1)[0]
    lower_large = numtheory.psw_bounds(10**4, 3.0)[0]
    assert lower_large < lower_small
    with pytest.raises(DomainError):
        cm.psw_report(10**4, 0.5, 0.0, seed=0, reps=1)
