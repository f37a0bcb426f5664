import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carmsim import qsim
from carmsim.errors import CapacityError, DomainError, NormalizationError

import oracles
from oracles import ZeroProbabilityError


def random_state(dims, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    amps /= np.linalg.norm(amps)
    return oracles.StateVector(amps)


# ---------------------------------------------------------------- layout

def test_layout_validation():
    with pytest.raises(DomainError):
        qsim.counter_law(10, 3, 4, 0)
    with pytest.raises(DomainError):
        qsim.counter_law(10, 3, 1, 2)
    with pytest.raises(DomainError):
        qsim.counter_law(10, 3, 3, 2)
    with pytest.raises(CapacityError):
        qsim.counter_law(10, 3, 4, 13)
    assert qsim.counter_law(10, 3, 4, 2).shape == (4, 4)
    # the two-plane state oracle keeps its own rules (sizes >= 2), on unequal registers too
    with pytest.raises(DomainError):
        oracles.two_plane_grover_powers((), 10, 3)
    with pytest.raises(DomainError):
        oracles.two_plane_grover_powers((4, 0), 10, 3)
    with pytest.raises(CapacityError):
        oracles.two_plane_grover_powers((2,) * 26, 10, 3)
    assert oracles.two_plane_grover_powers((3, 5), 10, 3).amplitudes.shape == (3, 5, 2)


# ---------------------------------------------------------------- uniform

def test_uniform_examples():
    assert np.allclose(oracles.uniform_state((1,)).amplitudes, [1.0])
    state = oracles.uniform_state((4,))
    assert np.allclose(state.amplitudes, [0.5] * 4)
    big = oracles.uniform_state((561,))
    assert np.linalg.norm(big.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- phase flip

def test_phase_flip_examples():
    state = oracles.uniform_state((4,))
    unchanged = oracles.phase_flip(state, 0, np.zeros(4, bool))
    assert np.allclose(unchanged.amplitudes, state.amplitudes)
    global_flip = oracles.phase_flip(state, 0, np.ones(4, bool))
    assert np.allclose(global_flip.amplitudes, -state.amplitudes)
    one = oracles.phase_flip(state, 0, np.arange(4) == 3)
    assert np.allclose(one.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_phase_flip_register_range():
    state = oracles.uniform_state((4,))
    with pytest.raises(DomainError):
        oracles.phase_flip(state, 1, np.ones(4, bool))


def test_phase_flip_mask_shape():
    state = oracles.uniform_state((3, 4))
    assert oracles.phase_flip(state, 1, np.arange(4) == 0).amplitudes.shape == (3, 4)
    for bad in (np.ones(3, bool), np.ones(5, bool), np.ones((1, 4), bool), np.ones((), bool)):
        with pytest.raises(DomainError):
            oracles.phase_flip(state, 1, bad)
        with pytest.raises(DomainError):
            oracles.grover_iterate(state, 1, bad)


# ---------------------------------------------------------------- diffusion

def test_diffusion_examples():
    state = oracles.uniform_state((561,))
    assert np.allclose(oracles.diffusion(state, 0).amplitudes, state.amplitudes, atol=1e-14)
    basis = oracles.StateVector(np.array([1.0, 0.0], complex))
    assert np.allclose(oracles.diffusion(basis, 0).amplitudes, [0.0, 1.0])


@given(st.integers(0, 2**32 - 1))
def test_diffusion_preserves_norm(seed):
    state = random_state((561,), seed)
    out = oracles.diffusion(state, 0)
    assert np.linalg.norm(out.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_diffusion_acts_blockwise():
    # with two registers, diffusion on one register averages within blocks
    state = random_state((3, 4), 7)
    out = oracles.diffusion(state, 1)
    grid = state.amplitudes
    expected = 2 * grid.mean(axis=1, keepdims=True) - grid
    assert np.allclose(out.amplitudes, expected)


# ---------------------------------------------------------------- grover iterate

def test_grover_identity_when_no_marks():
    state = oracles.uniform_state((15,))
    out = oracles.grover_iterate(state, 0, np.zeros(15, bool))
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_grover_exact_search_d4():
    # D=4, t=1: theta = pi/6, one iteration reaches sin(3 theta) = 1
    state = oracles.uniform_state((4,))
    out = oracles.grover_iterate(state, 0, np.arange(4) == 1)
    assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dimension,marked", [(15, 4), (100, 7), (561, 320), (1000, 999)])
def test_grover_matches_two_plane(dimension, marked):
    angles = oracles.GroverAngles.from_counts(dimension, marked)
    state = oracles.uniform_state((dimension,))
    mask = np.arange(dimension) < marked
    for m in range(1, 17):
        state = oracles.grover_iterate(state, 0, mask)
        marked_amp, unmarked_amp = oracles.two_plane_amplitudes(angles, m)
        assert np.allclose(state.amplitudes[:marked], marked_amp, atol=1e-10)
        assert np.allclose(state.amplitudes[marked:], unmarked_amp, atol=1e-10)


@pytest.mark.parametrize("dimension,marked", [(100, 1), (400, 3), (1000, 7)])
def test_grover_optimal_iterations(dimension, marked):
    angles = oracles.GroverAngles.from_counts(dimension, marked)
    best = math.floor(math.pi / (4 * angles.theta))
    state = oracles.uniform_state((dimension,))
    mask = np.arange(dimension) < marked
    masses = [float(marked / dimension)]
    for _ in range(best):
        state = oracles.grover_iterate(state, 0, mask)
        masses.append(float(np.sum(np.abs(state.amplitudes[:marked]) ** 2)))
    assert masses[-1] == pytest.approx(max(masses), abs=1e-12)


# ---------------------------------------------------------------- qft

def test_qft_of_zero_is_uniform():
    basis = np.zeros(7, complex)
    basis[0] = 1.0
    state = oracles.StateVector(basis)
    out = oracles.qft(state, 0)
    assert np.allclose(out.amplitudes, 1 / math.sqrt(7), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8, 12, 17]))
def test_qft_inverse_roundtrip(seed, p):
    # F^2 maps |a> to |-a mod P>, so F^3 inverts F and four transforms return the input
    state = random_state((p,), seed)
    out = state
    for _ in range(4):
        out = oracles.qft(out, 0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_qft_p2_is_hadamard():
    for basis_vec, expected in [
        (np.array([1.0, 0.0], complex), np.array([1.0, 1.0]) / math.sqrt(2)),
        (np.array([0.0, 1.0], complex), np.array([1.0, -1.0]) / math.sqrt(2)),
    ]:
        state = oracles.StateVector(basis_vec)
        assert np.allclose(oracles.qft(state, 0).amplitudes, expected, atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 8, 11]))
def test_qft_squared_reverses_indices(seed, p):
    state = random_state((p,), seed)
    twice = oracles.qft(oracles.qft(state, 0), 0)
    expected = state.amplitudes[(-np.arange(p)) % p]
    assert np.allclose(twice.amplitudes, expected, atol=1e-12)


# ---------------------------------------------------------------- controlled powers

def test_controlled_powers_no_marks_factorizes():
    state = oracles.controlled_grover_powers((4, 4), np.zeros(15, bool))
    grid = state.amplitudes
    base = np.full(15, 1 / math.sqrt(15))
    for m1 in range(4):
        for m2 in range(4):
            assert np.allclose(grid[m1, m2], base / 4.0, atol=1e-13)


def test_controlled_powers_single_register_structure():
    marked = np.arange(15) < 4
    state = oracles.controlled_grover_powers((8,), marked)
    grid = state.amplitudes
    cursor = oracles.uniform_state((15,))
    for m in range(8):
        assert np.allclose(grid[m], cursor.amplitudes / math.sqrt(8), atol=1e-12)
        cursor = oracles.grover_iterate(cursor, 0, marked)


def test_controlled_powers_matches_two_plane_reconstruction():
    dimension, marked_count, p, r = 15, 4, 8, 2
    angles = oracles.GroverAngles.from_counts(dimension, marked_count)
    state = oracles.controlled_grover_powers((p,) * r, np.arange(dimension) < marked_count)
    grid = state.amplitudes
    scale = 1 / math.sqrt(p**r)
    for m1 in range(p):
        for m2 in range(p):
            marked_amp, unmarked_amp = oracles.two_plane_amplitudes(angles, m1 + m2)
            expected = np.full(dimension, unmarked_amp, complex)
            expected[:marked_count] = marked_amp
            assert np.allclose(grid[m1, m2], expected * scale, atol=1e-10)


def test_controlled_powers_validation():
    with pytest.raises(DomainError):
        oracles.controlled_grover_powers((1,), np.zeros(4, bool))
    with pytest.raises(CapacityError):
        oracles.controlled_grover_powers((1024,), np.zeros(10**6, bool))


def test_controlled_powers_mask_shape():
    for bad in (np.zeros(0, bool), np.zeros((), bool), np.zeros((3, 5), bool)):
        with pytest.raises(DomainError):
            oracles.controlled_grover_powers((4,), bad)


@pytest.mark.parametrize("dimension,marked", [(15, 4), (561, 0), (561, 561), (10**15, 7), (1, 1)])
def test_plane_power_table_matches_dense_table(dimension, marked):
    u = np.array([math.sqrt(marked / dimension), math.sqrt((dimension - marked) / dimension)])
    table = qsim._plane_power_table(*u, 300)
    assert table.shape == (301, 2) and table.dtype == np.float64
    assert np.array_equal(table[0], u)
    # the dense route's numpy table on the same two entries; BLAS may fuse its dot
    dense = oracles.dense_power_table(u, np.array([True, False]), 300)
    assert np.abs(table - dense).max() < 1e-12


def test_controlled_powers_checks_the_cap_before_the_table(monkeypatch):
    def power_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(qsim, "_plane_power_table", power_table)
    # 2 * 4^13 = 2^27 amplitudes, and R past any index, meet the cap register by register
    for registers in (13, 10**30):
        with pytest.raises(CapacityError):
            qsim.counter_law(15, 4, 4, registers)
    with pytest.raises(DomainError):
        qsim.counter_law(15, 4, 4, 0)


def test_two_plane_powers_peak_stays_near_the_state():
    # (4,)*10 + (2,) complex amplitudes: a 32 MiB state in the oracle's gather
    state_bytes = 4**10 * 2 * 16
    peak = oracles.peak_traced_bytes(oracles.two_plane_grover_powers, (4,) * 10, 15, 4)
    assert peak <= 1.5 * state_bytes


# ---------------------------------------------------------------- postselect

def test_postselect_examples():
    state = oracles.uniform_state((2,))
    _, prob = oracles.postselect(state, 0, 1)
    assert prob == pytest.approx(0.5, abs=1e-14)

    k = 561
    uniform = oracles.uniform_state((k,))
    coprime = np.gcd(np.arange(k), k) == 1
    flag = oracles.phase_flip(uniform, 0, np.zeros(k, bool))  # no-op; keep uniform
    mass = float(np.sum(np.abs(flag.amplitudes[coprime]) ** 2))
    assert mass == pytest.approx(320 / 561, abs=1e-12)

    sure = np.zeros(4, complex)
    sure[2] = 1.0
    state = oracles.StateVector(sure)
    post, prob = oracles.postselect(state, 0, 2)
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(post.amplitudes, sure)


def test_postselect_renormalizes_and_zero_mass():
    state = random_state((3, 4), 11)
    post, prob = oracles.postselect(state, 0, 1)
    assert np.linalg.norm(post.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-12)
    grid = post.amplitudes
    assert np.allclose(grid[0], 0) and np.allclose(grid[2], 0)
    hole = np.zeros(4, complex)
    hole[1] = 1.0
    state = oracles.StateVector(hole)
    with pytest.raises(ZeroProbabilityError):
        oracles.postselect(state, 0, 3)


# ---------------------------------------------------------------- distributions

def test_exact_distribution_uniform():
    state = oracles.uniform_state((4,))
    assert np.allclose(oracles.marginal(state, [0]), 0.25)


def test_exact_distribution_product_factorizes():
    a = random_state((3,), 1).amplitudes
    b = random_state((5,), 2).amplitudes
    joint = oracles.StateVector(np.kron(a, b).reshape(3, 5))
    table = oracles.marginal(joint, [0, 1])
    outer = np.outer(np.abs(a) ** 2, np.abs(b) ** 2)
    assert np.allclose(table, outer, atol=1e-12)


def test_exact_distribution_register_order():
    state = random_state((3, 5), 9)
    fwd = oracles.marginal(state, [0, 1])
    rev = oracles.marginal(state, [1, 0])
    assert np.allclose(rev, fwd.T)
    with pytest.raises(DomainError):
        oracles.marginal(state, [0, 0])


def test_exact_distribution_sums_to_one():
    state = random_state((4, 7, 3), 21)
    table = oracles.marginal(state, [2, 0])
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_exact_distribution_sums_out_the_base_plane(r):
    # the counter law of a (P,)*R + (2,) state is the general marginal over
    # the counters 0..R-1, bit for bit
    for seed, p in ((r, 4), (10 + r, 5), (20 + r, 8)):
        state = random_state((p,) * r + (2,), seed)
        table = oracles.exact_distribution(state)
        assert table.shape == (p,) * r
        assert np.array_equal(table, oracles.marginal(state, range(r)))


# ---------------------------------------------------------------- sampling

def test_sample_deterministic_distribution():
    sure = np.zeros(6, complex)
    sure[4] = 1.0
    state = oracles.StateVector(sure)
    draws = qsim.sample_outcomes(oracles.marginal(state, [0]), np.random.default_rng(5).random(50))
    assert draws.shape == (50,)
    assert (draws == 4).all()


def test_sample_seed_reproducibility():
    state = random_state((8, 3), 13)
    table = oracles.marginal(state, [0, 1])
    a = qsim.sample_outcomes(table, np.random.default_rng(99).random(200))
    b = qsim.sample_outcomes(table, np.random.default_rng(99).random(200))
    assert (a == b).all()
    c = qsim.sample_outcomes(table, np.random.default_rng(100).random(200))
    assert (a != c).any()


def test_sample_frequencies_match_distribution():
    state = random_state((10,), 3)
    table = oracles.marginal(state, [0])
    n = 10**5
    draws = qsim.sample_outcomes(table, np.random.default_rng(17).random(n))
    counts = np.bincount(draws, minlength=10) / n
    sigma = np.sqrt(table * (1 - table) / n)
    assert (np.abs(counts - table) <= 5 * sigma + 1e-12).all()


def test_sample_outcomes_match_rng_choice():
    # one CDF and one search reproduce Generator.choice draw for draw, dust
    # and exact zeros included
    table_rng = np.random.default_rng(2024)
    for case in range(60):
        dims = tuple(table_rng.integers(1, 6, size=table_rng.integers(1, 4)))
        table = table_rng.random(dims)
        table[table_rng.random(dims) < 0.3] = 0.0
        table[table_rng.random(dims) < 0.2] = qsim.SAMPLE_CLIP * table_rng.random()
        if not (table >= qsim.SAMPLE_CLIP).any():
            table.flat[0] = 1.0
        table /= table.sum()
        clipped = np.where(table < qsim.SAMPLE_CLIP, 0.0, table).reshape(-1)
        clipped /= clipped.sum()
        for seed in (case, case + 1000):
            n = 1 + case % 7
            draws = qsim.sample_outcomes(table, np.random.default_rng(seed).random(n))
            twin = np.random.default_rng(seed).choice(table.size, n, p=clipped)
            assert draws.shape == (n,)
            assert (draws == twin).all()
            assert (table.reshape(-1)[draws] >= qsim.SAMPLE_CLIP).all()


def test_sample_outcomes_reject_a_table_without_mass():
    for table in (np.zeros(4), np.full(4, np.nan), np.full(3, qsim.SAMPLE_CLIP / 2)):
        with pytest.raises(NormalizationError):
            qsim.sample_outcomes(table, [0.5])


def test_sample_outcomes_peak_within_one_working_copy():
    # a 16 MiB law with dust below the clip: one copy, clipped, renormalized
    # and summed into its CDF in place, plus the clip's one-byte mask
    law = qsim.counter_law(15, 4, 128, 3)
    assert (law < qsim.SAMPLE_CLIP).any()
    before = law.copy()
    uniforms = np.random.default_rng(3).random(1000)
    peak = oracles.peak_traced_bytes(qsim.sample_outcomes, law, uniforms)
    assert peak <= 1.25 * law.nbytes
    assert np.array_equal(law, before)


# ---------------------------------------------------------------- rep streams

#: seeds of 1 to 5 words: with the rep index they pad the 4-word pool (one
#: and two), fill it exactly (three) and reach the extra-entropy loop (four, five)
STREAM_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**130 - 1)

#: successive draws compared per rep
STREAM_DRAWS = 64


def assert_streams_are_default_rng(seed, reps):
    words = qsim._seed_words(seed, reps)
    state, inc = oracles.seed_states(seed, reps)
    assert words.shape == (reps, 4) and state[0].shape == (reps,)
    draws = qsim._uniform(*qsim._block(state, inc, qsim._jumps(STREAM_DRAWS)))
    rounds, readings = qsim.rep_draws(seed, reps, None)
    assert not rounds.any() and np.array_equal(readings, draws[0])
    for i in range(reps):
        assert np.array_equal(words[i], np.random.SeedSequence([seed, i]).generate_state(4, np.uint64))
        assert np.array_equal(draws[:, i], np.random.default_rng([seed, i]).random(STREAM_DRAWS))


@pytest.mark.parametrize("reps", [1, 1000])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_rep_streams_are_default_rng_bit_for_bit(seed, reps):
    assert_streams_are_default_rng(seed, reps)


@given(st.integers(0, 2**130 - 1), st.integers(1, 64))
def test_rep_streams_are_default_rng_for_any_seed(seed, reps):
    assert_streams_are_default_rng(seed, reps)


@given(st.integers(0, 2**130 - 1), st.integers(1, 40), st.integers(0, 3), st.integers(1, 80))
def test_block_draws_equal_sequential_draws(seed, reps, skip, n):
    # the jump-ahead block from any state, against n single steps
    state, inc = oracles.seed_states(seed, reps)
    for _ in range(skip):
        state = oracles.pcg_step(state, inc)
    block = qsim._uniform(*qsim._block(state, inc, qsim._jumps(n)))
    rows = tuple(w[1:3] for w in state), tuple(w[1:3] for w in inc)
    sequential = []
    for _ in range(n):
        state = oracles.pcg_step(state, inc)
        sequential.append(qsim._uniform(*state))
    assert np.array_equal(block, np.stack(sequential))
    assert np.array_equal(qsim._uniform(*qsim._block(*rows, qsim._jumps(n))), block[:, 1:3])


@given(st.integers(0, 2**130 - 1), st.integers(1, 40), st.integers(1, 80))
def test_first_block_draws_equal_block_after_seeding(seed, reps, n):
    # the first block, read off the seed words, against a block after numpy's seeding step
    (hi, lo), inc = qsim._first_block(qsim._seed_words(seed, reps, 0), n)
    state, seeded_inc = oracles.seed_states(seed, reps)
    expected_hi, expected_lo = qsim._block(state, seeded_inc, qsim._jumps(n))
    assert all(map(np.array_equal, inc, seeded_inc))
    assert hi.shape == (n, reps) and np.array_equal(hi, expected_hi) and np.array_equal(lo, expected_lo)


def test_chunked_draws_equal_one_chunk(monkeypatch):
    def draws():
        return [*qsim.rep_draws(7, 100, None), *qsim.rep_draws(7, 100, 0.3)]

    expected = draws()
    monkeypatch.setattr(qsim, "_BLOCK_ELEMENTS", 7)
    assert all(map(np.array_equal, draws(), expected))


def test_flag_round_blocks_stay_within_the_chunk_size(monkeypatch):
    # at accept 0.001 the tail asks for 6929 rounds; the block stops at
    # _BLOCK_ELEMENTS of them and the reps past it draw further blocks
    # the first block and the further ones are each one _block call
    sizes = []
    block = qsim._block
    monkeypatch.setattr(qsim, "_block", lambda x, inc, jumps: sizes.append(len(jumps[0])) or block(x, inc, jumps))
    monkeypatch.setattr(qsim, "_BLOCK_ELEMENTS", 64)
    rounds, readings = qsim.rep_draws(3, 5, 0.001)
    assert max(sizes) == 65
    for i in range(5):
        twin = np.random.default_rng([3, i])
        assert rounds[i] == oracles.draw_flag_rounds(0.001, twin) and readings[i] == twin.random()


def test_pending_reps_draw_further_blocks(monkeypatch):
    # at accept 0.001 and a tail of 1/2 a block holds 693 rounds, 5 reps to a
    # chunk of 2^12 uniforms; about half the reps miss each block, so some
    # need three or more blocks and the pending reps of a chunk are not adjacent
    blocks = []
    block = qsim._block
    monkeypatch.setattr(qsim, "_block", lambda x, inc, jumps: blocks.append((len(jumps[0]), len(x[0]))) or block(x, inc, jumps))
    monkeypatch.setattr(qsim, "_FLAG_TAIL", 0.5)
    monkeypatch.setattr(qsim, "_BLOCK_ELEMENTS", 1 << 12)
    for seed in (3, 2**100 + 7):
        blocks.clear()
        rounds, readings = qsim.rep_draws(seed, 20, 0.001)
        flags = blocks[0][0] - 1
        assert (rounds > 2 * flags).any()
        assert blocks[0][1] == 5 and any(0 < reps < 5 for _, reps in blocks)
        further = [np.flatnonzero(rounds[lo : lo + 5] > flags) for lo in range(0, 20, 5)]
        assert any((np.diff(ids) > 1).any() for ids in further)
        for i in range(20):
            twin = np.random.default_rng([seed, i])
            assert rounds[i] == oracles.draw_flag_rounds(0.001, twin)
            assert readings[i] == twin.random()


def test_rep_draws_peak_within_24_bytes_per_rep():
    # the results take 16 B per rep; chunked seeding and drawing keep the peak near them
    for accept in (None, 8 / 15):
        assert oracles.peak_traced_bytes(qsim.rep_draws, 2**100 + 7, 10**6, accept) <= 24 * 10**6


def test_rep_streams_hold_at_most_64_bytes_per_rep():
    # once rep_draws returns, only its two result arrays stay allocated
    tracemalloc.start()
    try:
        rounds, readings = qsim.rep_draws(0, 10**6, None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rounds.shape == readings.shape == (10**6,) and held <= 64 * 10**6


def test_rep_streams_seed_in_chunks_within_40_bytes_per_rep():
    # at accept 0.27 a block holds 23 flag rounds, so about 400 chunks of
    # about 2500 reps are seeded one by one; the peak stays near the 16 B/rep results
    assert oracles.peak_traced_bytes(qsim.rep_draws, 2**100 + 7, 10**6, 0.27) <= 40 * 10**6


def test_a_100_rep_command_seeds_in_one_chunk(monkeypatch):
    calls = []
    seed_words = qsim._seed_words
    monkeypatch.setattr(qsim, "_seed_words", lambda *args: calls.append(args) or seed_words(*args))
    for accept in (None, 8 / 15):
        qsim.rep_draws(42, 100, accept)
    assert calls == [(42, 100, 0)] * 2


@pytest.mark.parametrize("seed", [0, 2**100 + 7])
def test_chunked_seeding_equals_default_rng_across_chunk_edges(seed, monkeypatch):
    # chunks of 7 reps without a flag, and of 5 at accept 1 (one round and the reading each)
    monkeypatch.setattr(qsim, "_BLOCK_ELEMENTS", 21)
    _, readings = qsim.rep_draws(seed, 23, None)
    rounds, after_flag = qsim.rep_draws(seed, 23, 1.0)
    assert (rounds == 1).all()
    for i in range(23):
        draws = np.random.default_rng([seed, i]).random(2)
        assert readings[i] == draws[0] and after_flag[i] == draws[1]


def test_rep_streams_refuse_reps_past_one_seed_word_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="reps exceed cap"):
            qsim.rep_draws(0, qsim.MAX_REPS + 1, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# ---------------------------------------------------------------- angles

def test_grover_angles_edges():
    assert oracles.GroverAngles.from_counts(10, 0).theta == 0.0
    assert oracles.GroverAngles.from_counts(10, 10).theta == pytest.approx(math.pi / 2)
    with pytest.raises(DomainError):
        oracles.GroverAngles.from_counts(10, 11)


@given(st.integers(1, 100000), st.data())
def test_grover_angles_consistency(dimension, data):
    marked = data.draw(st.integers(0, dimension))
    angles = oracles.GroverAngles.from_counts(dimension, marked)
    assert 0.0 <= angles.theta <= math.pi / 2
    assert math.sin(angles.theta) ** 2 * dimension == pytest.approx(marked, abs=1e-12 * dimension)


# ---------------------------------------------------------------- norm policing

def test_operations_reject_denormalized_states():
    # a state that is not normalized cannot be built, so no operation receives one
    with pytest.raises(NormalizationError):
        oracles.StateVector(np.full(4, 0.4, complex))


def test_finish_rejects_nan_amplitudes():
    with pytest.raises(NormalizationError):
        oracles.StateVector(np.full(4, np.nan, complex))


def test_counter_law_rejects_a_drifted_power_table(monkeypatch):
    # the law's one norm check: the power table's mean row norm^2
    table = qsim._plane_power_table
    for bad in (lambda *args: table(*args) * (1 + 1e-9), lambda *args: np.full_like(table(*args), np.nan)):
        monkeypatch.setattr(qsim, "_plane_power_table", bad)
        with pytest.raises(NormalizationError, match=r"norm\^2 drifted to .*NORM_TOL = 1e-10.*\(8, 2\)"):
            qsim.counter_law(15, 4, 8, 2)


def test_exact_distribution_rejects_nan_state():
    # built past the constructor's check, so that exact_distribution's own check is what fails
    nan_state = object.__new__(oracles.StateVector)
    object.__setattr__(nan_state, "amplitudes", np.full((4, 2), np.nan, complex))
    with pytest.raises(NormalizationError):
        oracles.exact_distribution(nan_state)


def test_rep_streams_check_their_seed_and_reps():
    with pytest.raises(DomainError, match="reps must be >= 1"):
        qsim.rep_draws(0, 0, None)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        qsim.rep_draws(-1, 3, None)
