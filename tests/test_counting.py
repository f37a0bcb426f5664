import functools
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from carmsim import counting, numtheory, qsim
from carmsim.errors import CapacityError, DomainError, NormalizationError

import oracles


# ---------------------------------------------------------------- kernel

def test_kernel_removable_limits():
    # l = f (integer): the j = 0 limit is exactly 1
    assert counting.dirichlet_kernel(0.0, 8) == 1.0
    assert counting.dirichlet_kernel(3 - 3.0, 8) == 1.0
    # mirror peak l + f = P: limit is (-1)^(P-1)
    assert counting.dirichlet_kernel(8.0, 8) == -1.0
    assert counting.dirichlet_kernel(9.0, 9) == 1.0
    assert counting.dirichlet_kernel(16.0, 8) == 1.0  # j = 2, even


def test_kernel_integer_f_zeros():
    # integer f, l not congruent to +-f: numerator sin(pi * integer) = 0
    for l in range(8):
        value = counting.dirichlet_kernel(l - 2.0, 8)
        if l == 2:
            assert value == 1.0
        else:
            assert value == pytest.approx(0.0, abs=1e-15)


def test_kernel_direct_formula_example():
    # (l=0, f=1.5, P=8, sign -) computed straight from the definition
    expected = math.sin(math.pi * -1.5) / (8 * math.sin(math.pi * -1.5 / 8))
    assert counting.dirichlet_kernel(-1.5, 8) == pytest.approx(expected, rel=1e-14)


def test_kernel_array_and_validation():
    values = counting.dirichlet_kernel(np.array([0.0, 1.3, 8.0]), 8)
    assert values.shape == (3,)
    assert values[0] == 1.0 and values[2] == -1.0
    with pytest.raises(DomainError):
        counting.dirichlet_kernel(1.0, 1)


@given(st.integers(2, 64), st.floats(-64.0, 64.0, allow_nan=False))
def test_kernel_magnitude_bounded(p, x):
    assert abs(counting.dirichlet_kernel(x, p)) <= 1.0 + 1e-12


@given(st.integers(2, 64), st.floats(0.0, 32.0), st.integers(0, 63))
def test_kernel_matches_raw_formula_away_from_singularities(p, f, l):
    if l >= p or f > p / 2:
        return
    x = l - f
    if abs(math.sin(math.pi * x / p)) < 1e-6:
        return
    raw = math.sin(math.pi * x) / (p * math.sin(math.pi * x / p))
    assert counting.dirichlet_kernel(x, p) == pytest.approx(raw, abs=1e-10)


def kernel_arguments(p):
    """Arguments in [-3P, 3P]: multiples of P, half-integers, points within 1e-12 of j P, and any float."""
    near = st.builds(lambda j, e: j * p + e, st.integers(-3, 3), st.floats(-1e-12, 1e-12))
    return st.lists(
        st.one_of(
            st.integers(-3, 3).map(lambda j: float(j * p)),
            st.integers(-6 * p, 6 * p).map(lambda h: h / 2),
            near,
            st.floats(-3.0 * p, 3.0 * p),
        ),
        min_size=1,
        max_size=40,
    )


@given(st.integers(2, 1024).flatmap(lambda p: st.tuples(st.just(p), kernel_arguments(p))))
def test_kernel_equals_the_reference_bit_for_bit(case):
    # the kernel skips the sign and range-reduction work where it is exact
    # to skip; the result must not move by one bit, even or odd P
    p, xs = case
    x = np.array(xs)
    expected = oracles.dirichlet_kernel_reference(x, p)
    got = counting.dirichlet_kernel(x, p)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert counting.dirichlet_kernel(xs[0], p) == float(expected[0])


# ---------------------------------------------------------------- closed-form law

def test_distribution_no_marks():
    dist = counting.exact_count_joint(20, 0, 8, 1)
    assert dist[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(dist[1:], 0.0, atol=1e-14)


def test_distribution_integer_peak_example():
    # D=4, t=1: theta = pi/6, P=12 puts f = 2 exactly
    dist = counting.exact_count_joint(4, 1, 12, 1)
    assert dist[2] == pytest.approx(0.5, abs=1e-12)
    assert dist[10] == pytest.approx(0.5, abs=1e-12)
    others = np.delete(dist, [2, 10])
    assert np.allclose(others, 0.0, atol=1e-12)


def test_distribution_all_marked():
    dist = counting.exact_count_joint(9, 9, 8, 1)
    assert dist[4] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 300), st.data(), st.sampled_from([4, 8, 16, 32]))
def test_distribution_symmetry_and_norm(dimension, data, p):
    marked = data.draw(st.integers(0, dimension))
    dist = counting.exact_count_joint(dimension, marked, p, 1)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    for l in range(1, p):
        assert dist[l] == pytest.approx(dist[p - l], abs=1e-12)


def test_closed_form_law_checks_its_mass(monkeypatch):
    kernel = counting.dirichlet_kernel
    monkeypatch.setattr(counting, "dirichlet_kernel", lambda x, p: 1.01 * kernel(x, p))
    for registers in (1, 2, 3):
        with pytest.raises(NormalizationError):
            counting.exact_count_joint(15, 4, 8, registers)


def test_closed_form_law_rejects_nan(monkeypatch):
    monkeypatch.setattr(counting, "dirichlet_kernel", lambda x, p: np.full(np.shape(x), np.nan))
    with pytest.raises(NormalizationError):
        counting.exact_count_joint(15, 4, 8, 1)


@pytest.mark.parametrize("dimension,marked,p", [
    (15, 4, 8), (15, 4, 16), (60, 17, 32), (200, 100, 4), (7, 7, 8), (33, 0, 16),
])
def test_distribution_matches_dense(dimension, marked, p):
    closed = counting.exact_count_joint(dimension, marked, p, 1)
    dense = oracles.count_distribution_dense(np.arange(dimension) < marked, p)
    assert np.abs(closed - dense).max() < 1e-10


def test_joint_matches_dense_r2():
    dimension, marked, p = 15, 4, 8
    closed = counting.exact_count_joint(dimension, marked, p, 2)
    state = oracles.controlled_grover_powers((p, p), np.arange(dimension) < marked)
    state = oracles.qft(oracles.qft(state, 0), 1)
    dense = oracles.marginal(state, [0, 1])
    assert np.abs(closed - dense).max() < 1e-10


def test_joint_equals_one_kernel_call_per_peak():
    # the stacked peaks' one kernel call, against a call per peak, bit for bit
    for dimension in (1, 2, 15, 60, 119):
        for marked in sorted({0, 1, dimension // 3, dimension // 2, dimension}):
            for p, registers in ((4, 3), (5, 2), (8, 3), (16, 2), (32, 2)):
                f = counting.peak_position(dimension, marked, p)
                l = np.arange(p)
                expected = functools.reduce(np.multiply.outer, [counting.dirichlet_kernel(l + f, p) ** 2] * registers)
                expected += functools.reduce(np.multiply.outer, [counting.dirichlet_kernel(l - f, p) ** 2] * registers)
                expected *= 0.5
                assert counting.exact_count_joint(dimension, marked, p, registers).tobytes() == expected.tobytes()


def test_closed_form_state_matches_dense_amplitudes():
    rng = np.random.default_rng(5)
    for dimension, p in ((15, 8), (40, 16), (9, 4)):
        mask = rng.random(dimension) < 0.3
        state = oracles.controlled_grover_powers((p,), mask)
        state = oracles.qft(state, 0)
        predicted = oracles.closed_form_state(mask, p)
        assert np.abs(state.amplitudes - predicted).max() < 1e-10


def _expand_plane(plane: np.ndarray, dimension: int, marked: int) -> np.ndarray:
    """Two-plane grid (..., 2) back to (..., D) with base values v < marked marked."""
    is_marked = np.arange(dimension) < marked
    scale = np.where(
        is_marked, 1 / math.sqrt(max(marked, 1)), 1 / math.sqrt(max(dimension - marked, 1))
    )
    return plane[..., np.where(is_marked, 0, 1)] * scale


@pytest.mark.parametrize("dims", [(3, 5), (5, 3), (2, 3, 4), (4, 2, 2, 3)])
@pytest.mark.parametrize("dimension,marked", [(15, 4), (9, 0), (9, 9), (40, 13)])
def test_two_plane_matches_dense_on_unequal_registers(dims, dimension, marked):
    plane = oracles.two_plane_grover_powers(dims, dimension, marked)
    dense = oracles.controlled_grover_powers(dims, np.arange(dimension) < marked)
    assert plane.amplitudes.shape == dims + (2,)
    assert np.abs(_expand_plane(plane.amplitudes, dimension, marked) - dense.amplitudes).max() <= 1e-10


#: the certify benchmark's special composites, at the CLI's default P = 16, R = 2
BENCHMARK_SPECIALS = (15, 341, 561, 645, 1105, 1387)


def _with_benchmark_specials(test):
    for k in BENCHMARK_SPECIALS:
        test = example((k, numtheory.number_facts(k).t_k), (16, 2))(test)
    return test


@given(
    st.integers(1, 200).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
    st.sampled_from([(p, r) for p in (4, 8, 16) for r in (1, 2, 3) if p**r <= 512]),
)
@example((15, 4), (64, 3))
@_with_benchmark_specials
def test_two_plane_matches_dense_and_closed_form(dimension_marked, p_r):
    (dimension, marked), (p, r) = dimension_marked, p_r
    plane = oracles.two_plane_grover_powers((p,) * r, dimension, marked)
    dense = oracles.controlled_grover_powers((p,) * r, np.arange(dimension) < marked)
    assert plane.amplitudes.shape == (p,) * r + (2,)
    assert np.abs(_expand_plane(plane.amplitudes, dimension, marked) - dense.amplitudes).max() < 1e-10
    for axis in range(r):
        plane = oracles.qft(plane, axis)
        dense = oracles.qft(dense, axis)
    assert np.abs(_expand_plane(plane.amplitudes, dimension, marked) - dense.amplitudes).max() < 1e-10
    law = qsim.counter_law(dimension, marked, p, r)
    assert np.abs(law - oracles.exact_distribution(plane)).max() < 1e-10
    assert np.abs(law - counting.exact_count_joint(dimension, marked, p, r)).max() < 1e-10


@pytest.mark.parametrize(
    "dimension, marked, p, r",
    [(100, 7.5, 16, 1), (10**7, 56.7, 64, 1), (1000, 0.25, 8, 2), (15, 3.999, 16, 2)]
    + [(100, marked, 16, 1) for marked in (math.nan, math.inf, -0.5, 100.5)],
)
def test_counter_law_takes_a_fractional_marked_count(dimension, marked, p, r):
    if 0 <= marked <= dimension:
        law = qsim.counter_law(dimension, marked, p, r)
        assert np.abs(law - counting.exact_count_joint(dimension, marked, p, r)).max() < 1e-10
    else:
        with pytest.raises(DomainError):
            qsim.counter_law(dimension, marked, p, r)


def test_two_plane_validation():
    with pytest.raises(DomainError):
        qsim.counter_law(10, 11, 4)
    with pytest.raises(DomainError):
        qsim.counter_law(0, 0, 4)
    with pytest.raises(DomainError):
        qsim.counter_law(10, 3, 4, registers=0)
    with pytest.raises(CapacityError):
        qsim.counter_law(15, 4, 4096, 3)
    # the base dimension never counts against the cap
    assert qsim.counter_law(10**15, 7, 256).shape == (256,)


@pytest.mark.parametrize("args", [(15, 4, 64, 3), (15, 4, 32, 4), (341, 200, 16, 2), (15, 4, 4, 12), (65000, 13, 256, 1)])
def test_counter_law_chunks_equal_one_whole_product(args, monkeypatch):
    # a chunk of one leading row, of 7 cells (one row) and the default, against
    # a chunk that takes the whole second product at once
    chunked = [qsim.counter_law(*args)]
    for cells in (1, 7):
        monkeypatch.setattr(qsim, "_LAW_CHUNK", cells)
        chunked.append(qsim.counter_law(*args))
    monkeypatch.setattr(qsim, "_LAW_CHUNK", 1 << 62)
    whole = qsim.counter_law(*args)
    assert all(law.tobytes() == whole.tobytes() for law in chunked)


#: sha256 of counter_law(*args).tobytes(); at R >= 3 they fix the (m_i m_j) m_k
#: order of the products, which the oracles only check to 1e-10
PINNED_LAWS = {
    (15, 4, 16, 3): "d844cfc6111a6455e2e32b0ff28b19576714783fb01f18b76cce8512a868cf56",
    (341, 200, 8, 4): "afeebd3f1396019c22321de25ea6871370f5baed1b5e53892f337eab55731091",
    (1387, 36, 16, 3): "36c92f947acf7245052ae367ba78483ae40f0226c5b505b9e36f7fdc6e1de5eb",
    (15, 4, 64, 3): "bb9c42b45146d1e3c2d55736e3ba08ce4b82395a9fefe00dee2f9284d75fd0a8",
}


@pytest.mark.parametrize("args", list(PINNED_LAWS))
def test_counter_law_bytes_are_pinned(args):
    assert hashlib.sha256(qsim.counter_law(*args).tobytes()).hexdigest() == PINNED_LAWS[args]


def test_count_distribution_peak_within_12_bytes_per_cell():
    # the law is 8 bytes a cell; the second factor's product joins it in chunks
    # of 2^16 cells (16 of the 64 leading rows), the only other table
    cells = 64**3
    peak = oracles.peak_traced_bytes(qsim.counter_law, 15, 4, 64, 3)
    assert peak <= 12 * cells


# ---------------------------------------------------------------- error bound

def test_error_bound_formula():
    assert counting.estimate_error_bound(100, 8, 0) == pytest.approx(
        math.pi**2 * 100 / 64, rel=1e-14
    )
    expected = math.pi * (10**4 / 128) * (math.pi / 128 + 2 * math.sqrt(7 / 10**4))
    assert counting.estimate_error_bound(10**4, 128, 7) == pytest.approx(expected, rel=1e-14)


def test_error_bound_monotone_in_q():
    values = [counting.estimate_error_bound(10**4, q, 7) for q in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        counting.estimate_error_bound(100, 1, 5)


@given(st.integers(2, 400), st.data(), st.sampled_from([8, 16, 32, 64]))
def test_peak_outcomes_within_bound(dimension, data, p):
    marked = data.draw(st.integers(0, dimension))
    f = counting.peak_position(dimension, marked, p)
    bound = counting.estimate_error_bound(dimension, p, marked)
    peaks = {math.floor(f) % p, math.ceil(f) % p, (p - math.floor(f)) % p, (p - math.ceil(f)) % p}
    for estimate in oracles.per_rep(*counting.decode_outcomes(sorted(peaks), dimension, p, t_ref=marked)):
        assert abs(estimate.t_tilde - marked) <= bound + 1e-9


# ---------------------------------------------------------------- decoding

def test_estimate_folding():
    (est,) = oracles.per_rep(*counting.decode_outcomes([120], 10**4, 128, t_ref=7))
    assert est.f_tilde == 8.0
    assert est.theta_tilde == pytest.approx(math.pi * 8 / 128)
    assert est.t_tilde == pytest.approx(10**4 * math.sin(math.pi * 8 / 128) ** 2)
    assert est.error_bound == pytest.approx(counting.estimate_error_bound(10**4, 128, 7))


def test_estimate_serialization_keys():
    (est,) = oracles.per_rep(*counting.decode_outcomes([3], 100, 16, t_ref=4))
    assert set(est.to_json_dict()) == {"l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"}


# ---------------------------------------------------------------- run_count

@given(st.lists(st.floats(0, 1e12), min_size=1, max_size=200), st.data())
def test_median_t_tilde_equals_numpy_median(values, data):
    # the median over the reps, each rep reading its value through the index
    index = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=200))
    estimates = [SimpleNamespace(t_tilde=v) for v in values]
    per_rep = [values[i] for i in index]
    assert counting.median_t_tilde(estimates, np.array(index)) == float(np.median(per_rep))


def test_run_count_empty_marked():
    estimates = oracles.per_rep(*counting.run_count(50, 0, 16, seed=3, reps=20))
    assert all(e.t_tilde == 0.0 and e.measured_l == 0 for e in estimates)
    assert all(not e.in_ansatz for e in estimates)


def test_run_count_seed_determinism():
    a = oracles.per_rep(*counting.run_count(60, 9, 16, seed=11, reps=25))
    b = oracles.per_rep(*counting.run_count(60, 9, 16, seed=11, reps=25))
    assert [e.measured_l for e in a] == [e.measured_l for e in b]
    c = oracles.per_rep(*counting.run_count(60, 9, 16, seed=12, reps=25))
    assert [e.measured_l for e in a] != [e.measured_l for e in c]


def test_run_count_capacity():
    with pytest.raises(CapacityError):
        oracles.count_distribution_dense(np.zeros(10**6, bool), 256)
    with pytest.raises(DomainError):
        counting.run_count(50, 0, 16, seed=0, reps=0)
    with pytest.raises(DomainError):
        counting.run_count(50, 0, 2, seed=0, reps=1)  # certification's P >= 4 rule
    with pytest.raises(DomainError):
        counting.run_count(50, 0, 16, seed=-1, reps=1)


def test_run_count_estimates_concentrate():
    estimates = oracles.per_rep(*counting.run_count(100, 25, 16, seed=2, reps=200))
    bound = counting.estimate_error_bound(100, 16, 25)
    hits = sum(1 for e in estimates if abs(e.t_tilde - 25) <= bound)
    assert hits / len(estimates) >= 8 / math.pi**2


# ---------------------------------------------------------------- peak probability

def test_peak_probability_integer_f():
    # D=4, t=2: theta = pi/4, f = P/4 integer for P multiple of 4
    result = counting.peak_success_probability(4, 2, 16)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.in_ansatz


def test_peak_probability_example():
    result = counting.peak_success_probability(10**4, 7, 128)
    assert result.in_ansatz
    assert result.value >= 8 / math.pi**2
    dist = counting.exact_count_joint(10**4, 7, 128, 1)
    assert result.value == sum(dist[i] for i in (1, 2, 126, 127))


def test_peak_probability_out_of_ansatz():
    result = counting.peak_success_probability(100, 0, 16)
    assert not result.in_ansatz
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.value == counting.exact_count_joint(100, 0, 16, 1)[0]


@given(st.integers(2, 250), st.data(), st.sampled_from([8, 16, 32]))
def test_peak_probability_floor(dimension, data, p):
    marked = data.draw(st.integers(0, dimension))
    result = counting.peak_success_probability(dimension, marked, p)
    if result.in_ansatz:
        assert result.value >= 8 / math.pi**2 - 1e-12
