"""Cost function and simplified-model fitting tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spinfoam_oqs.amplitudes import TransitionMatrix, label_str
from spinfoam_oqs.bathfit import (
    CostHistogram,
    FitProblem,
    TwoVertexModel,
    _sample_costs,
    admissible_triple_basis,
    chain_target,
    cost,
    fit_bath,
    sample_cost_distribution,
    standard_model,
)
from spinfoam_oqs.recoupling import triangle_ok


def test_cost_identical_vectors():
    a = np.array([1.0 + 1j, 2.0, -0.5j])
    assert cost(a, a) == 0.0


def test_cost_antipodal_vectors():
    a = np.array([1.0, -2.0, 0.5])
    assert cost(a, -a) == pytest.approx(2.0)


def test_cost_rejects_zero_norm():
    with pytest.raises(ValueError):
        cost(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("scale", [1.6e-162, 1e-200, 1e160, 1e300])
def test_cost_survives_tiny_and_huge_norms(scale):
    # |v|^2 underflows below ~1e-154 and overflows above ~1e154; the cost
    # must not see a zero norm or lose the direction.
    a = np.array([0.0, 0.3 + 0.4j, -1.2])
    b = np.array([1.0, 0.5j, 0.25])
    assert cost(scale * a, b) == pytest.approx(cost(a, b), abs=1e-15)
    assert cost(a, scale * b) == pytest.approx(cost(a, b), abs=1e-15)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    st.floats(0.01, 100.0),
    st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_cost_bounded_and_scale_invariant(a_parts, b_parts, sa, sb):
    a = np.array(a_parts[:2]) + 1j * np.array(a_parts[2:])
    b = np.array(b_parts[:2]) + 1j * np.array(b_parts[2:])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    c = cost(a, b)
    assert 0.0 <= c <= 2.0 + 1e-12
    assert cost(sa * a, sb * b) == pytest.approx(c, abs=1e-12)
    # complex global phases divide out too
    assert cost(a * np.exp(0.7j), b) == pytest.approx(
        cost(a * np.exp(0.7j), b * 1.0), abs=1e-12
    )


def test_admissible_triple_basis_properties():
    basis = admissible_triple_basis(10, seed=0)
    assert len(basis) == 10
    assert len(set(basis)) == 10
    for triple in basis:
        assert triangle_ok(*triple)


def test_admissible_triple_basis_exhaustion_error():
    with pytest.raises(ValueError):
        admissible_triple_basis(50, j_min="1/2", j_max="1", seed=0, max_attempts=500)


@pytest.fixture(scope="module")
def basis():
    return admissible_triple_basis(10, seed=0)


@pytest.fixture(scope="module")
def model(basis):
    return standard_model(basis)


def test_model_tables_have_no_dead_labels(model):
    t_in, t_out = model.tables()
    assert np.all(np.any(t_in != 0, axis=1))
    assert np.all(np.any(t_out != 0, axis=1))


def test_realizable_target_recovered(basis, model):
    rng = np.random.default_rng(3)
    true_params = rng.uniform(-1.0, 1.0, model.n_params)
    target = TransitionMatrix(
        tuple(label_str(b) for b in basis), model.matrix(true_params)
    )
    result = fit_bath(FitProblem(target, model, seed=7))
    assert result.cost <= 1e-6
    assert result.status == "ok"


def test_fit_deterministic(basis, model):
    target = chain_target(2, basis)
    r1 = fit_bath(FitProblem(target, model, seed=11))
    r2 = fit_bath(FitProblem(target, model, seed=11))
    assert r1.cost == r2.cost
    assert np.array_equal(r1.params, r2.params)
    assert r1.evaluations == r2.evaluations


def test_fit_beats_random_sampling(basis, model):
    target = chain_target(2, basis)
    problem = FitProblem(target, model, seed=11)
    result = fit_bath(problem)
    hist = sample_cost_distribution(problem, 1000)
    assert result.cost < hist.mean


def test_fit_reported_cost_matches_returned_params(basis, model):
    target = chain_target(2, basis)
    problem = FitProblem(target, model, seed=5)
    result = fit_bath(problem)
    assert problem.cost_at(result.params) == pytest.approx(result.cost, abs=1e-12)


def test_min_cost_non_increasing_over_chain_length(basis, model):
    results = []
    for vertices in (2, 3, 4):
        target = chain_target(vertices, basis)
        results.append(fit_bath(FitProblem(target, model, seed=11)).cost)
    assert results[0] >= results[1] >= results[2]


def test_sample_cost_distribution_histogram(basis, model):
    target = chain_target(2, basis)
    problem = FitProblem(target, model, seed=11)
    hist = sample_cost_distribution(problem, 500)
    assert hist.n_samples == 500
    assert len(hist.bin_left) == 20
    assert hist.bin_left[0] == 0.0
    assert hist.bin_left[-1] == pytest.approx(1.9)
    assert 0.0 <= hist.minimum <= hist.mean <= hist.maximum <= 2.0
    # density integrates to one over the binning
    assert sum(d * CostHistogram.BIN_WIDTH for d in hist.density) == pytest.approx(1.0)
    assert sum(hist.counts) == 500


def test_sample_single_draw(basis, model):
    target = chain_target(2, basis)
    hist = sample_cost_distribution(FitProblem(target, model, seed=2), 1)
    assert sum(hist.counts) == 1
    assert hist.minimum == hist.maximum == hist.mean


def test_sample_deterministic_and_order_free(basis, model):
    target = chain_target(2, basis)
    problem = FitProblem(target, model, seed=11)
    h1 = sample_cost_distribution(problem, 200)
    h2 = sample_cost_distribution(problem, 200)
    assert h1.density == h2.density
    # per-draw seeding: the first 100 of a 200-draw run match a 100-draw run
    h3 = sample_cost_distribution(problem, 100)
    assert h3.minimum >= h1.minimum - 1e-15


def test_histogram_csv_format(basis, model):
    target = chain_target(2, basis)
    hist = sample_cost_distribution(FitProblem(target, model, seed=1), 50)
    lines = hist.to_csv().strip().split("\n")
    assert lines[0] == "bin_left,density"
    assert len(lines) == 21


def test_vertex_tables_built_once(basis, monkeypatch):
    import spinfoam_oqs.bathfit as bathfit

    model = standard_model(basis)
    tables = model.tables()
    assert model.tables() is tables
    assert not tables[0].flags.writeable and not tables[1].flags.writeable

    def no_vertex(*args):
        raise AssertionError("vertex table rebuilt")

    monkeypatch.setattr(bathfit, "pr_vertex", no_vertex)
    target = TransitionMatrix(
        tuple(label_str(b) for b in basis), model.matrix(np.ones(model.n_params))
    )
    problem = FitProblem(target, model, seed=0)
    assert problem.tables is tables
    assert problem.cost_at(np.ones(model.n_params)) <= 1e-12


def test_two_vertex_model_parameter_count(model):
    assert model.n_params == 18
    with pytest.raises(ValueError):
        model.matrix(np.ones(3))


def test_one_triple_model_recovers_its_own_target():
    base = ((1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 1))
    single_bath = (("1", "2", "2"),)
    tiny = TwoVertexModel(base, single_bath, single_bath)
    target = TransitionMatrix(
        tuple(label_str(b) for b in base), tiny.matrix(np.ones(2))
    )
    result = fit_bath(FitProblem(target, tiny, seed=0))
    assert result.status == "ok"
    assert result.evaluations == 1
    assert result.cost <= 1e-12


def test_fit_problem_rejects_zero_norm_target():
    base = ((1, 1, 2), (1, 2, 2))
    single_bath = (("1", "2", "2"),)
    tiny = TwoVertexModel(base, single_bath, single_bath)
    dead = TransitionMatrix(("a", "b"), np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        FitProblem(dead, tiny, seed=0)


@pytest.mark.parametrize("dead_side", ["in", "out"])
def test_fit_problem_rejects_dead_vertex_table(dead_side):
    # ("1/2", "1/2", "1") meets none of the basis triples in a tetrahedron,
    # so that vertex's amplitude table is all zero
    base = ((1, 1, 2), (1, 2, 2), (2, 2, 2))
    dead, live = (("1/2", "1/2", "1"),), (("1", "2", "2"),)
    baths = (dead, live) if dead_side == "in" else (live, dead)
    model = TwoVertexModel(base, *baths)
    target = TransitionMatrix(
        tuple(label_str(b) for b in base), np.ones((3, 3), dtype=complex)
    )
    with pytest.raises(ValueError, match=f"^{dead_side} vertex"):
        FitProblem(target, model, seed=0)


# --- closed-form fit and batched sampling against retained references ------


class _FixedTables:
    """Model stand-in whose vertex tables are given directly."""

    def __init__(self, table_in, table_out):
        self._tables = (table_in, table_out)
        self.basis = tuple(range(table_in.shape[0]))
        self.n_params = table_in.shape[1] + table_out.shape[1]

    def tables(self):
        return self._tables


def _model_cost(problem, theta):
    table_in, table_out = problem.tables
    k = table_in.shape[1]
    flat = np.outer(table_out @ theta[k:], table_in @ theta[:k])
    if not np.any(flat):
        return 2.0
    return cost(problem.target.flatten(), flat)


def _nelder_mead_reference(problem, restarts=2, max_evals=2000):
    """Best cost of the simplex search the closed form replaced.

    Restarts from all-ones and seeded uniform points; the budget is smaller
    than the old default, which can only raise the reference's cost.
    """
    best = math.inf

    def objective(theta):
        nonlocal best
        value = _model_cost(problem, theta)
        best = min(best, value)
        return value

    rng = np.random.default_rng(problem.seed)
    n = problem.model.n_params
    starts = [np.ones(n)] + [rng.uniform(-1.0, 1.0, n) for _ in range(restarts)]
    for x0 in starts:
        objective(x0)
        minimize(objective, x0, method="Nelder-Mead", options={
            "xatol": 1e-8, "fatol": 1e-8, "maxfev": max_evals, "adaptive": True,
        })
    return best


def _per_draw_costs(problem, n):
    """The per-draw sampling loop the batched sampler replaced."""
    table_in, table_out = problem.tables
    k = table_in.shape[1]
    target_flat = problem.target.flatten()
    target_unit = target_flat / np.linalg.norm(target_flat)
    values = np.empty(n)
    for i in range(n):
        rng = np.random.default_rng([problem.seed, i])
        draws = rng.exponential(1.0, k)
        theta_in = draws / draws.sum()
        draws = rng.exponential(1.0, problem.model.n_params - k)
        theta_out = draws / draws.sum()
        flat = np.outer(table_out @ theta_out, table_in @ theta_in).reshape(-1)
        norm = np.linalg.norm(flat)
        values[i] = 2.0 if norm == 0 else float(np.linalg.norm(flat / norm - target_unit))
    return values


@st.composite
def _vertex_table(draw, d):
    """Small integer table, real or complex, often rank-deficient.

    Integer entries keep every nonzero eigenvalue of Re(T^H T) above 1e-9
    of the largest (their product is a positive integer and the largest is
    at most 160), so the fit's 1e-12 cut drops only exact null directions.
    """
    k = draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    table = np.array(draw(st.lists(entries, min_size=d * k, max_size=d * k)), dtype=complex)
    if draw(st.booleans()):
        table = table + 1j * np.array(
            draw(st.lists(entries, min_size=d * k, max_size=d * k))
        )
    table = table.reshape(d, k)
    for j in range(k):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            table[:, j] = 0
        elif kind == "copy":
            table[:, j] = draw(st.sampled_from([1, -1])) * table[:, draw(st.integers(0, k - 1))]
    assume(np.any(table))
    return table


@st.composite
def _table_problem(draw, realizable=False):
    d = draw(st.integers(1, 5))
    table_in, table_out = draw(_vertex_table(d)), draw(_vertex_table(d))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if realizable:
        entries = np.outer(
            table_out @ rng.uniform(-1.0, 1.0, table_out.shape[1]),
            table_in @ rng.uniform(-1.0, 1.0, table_in.shape[1]),
        )
    else:
        entries = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assume(np.linalg.norm(entries) > 1e-6)
    target = TransitionMatrix(tuple(str(i) for i in range(d)), entries)
    return FitProblem(target, _FixedTables(table_in, table_out), seed=seed)


@given(_table_problem())
@settings(max_examples=40, deadline=None)
def test_closed_form_fit_is_the_global_minimum(problem):
    result = fit_bath(problem)
    assert result.status == "ok" and result.evaluations == 1
    assert result.cost == pytest.approx(_model_cost(problem, result.params), abs=1e-15)
    assert result.cost <= _nelder_mead_reference(problem) + 1e-12
    rng = np.random.default_rng(problem.seed + 1)
    for _ in range(200):
        theta = rng.uniform(-1.0, 1.0, problem.model.n_params)
        assert result.cost <= _model_cost(problem, theta) + 1e-12


@given(_table_problem(realizable=True))
@settings(max_examples=100, deadline=None)
def test_closed_form_fit_recovers_realizable_targets(problem):
    assert fit_bath(problem).cost <= 1e-12


def test_closed_form_fit_keeps_weak_directions():
    # The in-vertex columns are nearly parallel (Gram eigenvalue ratio
    # 6e-8) and the target lies along their small difference: the fit
    # must keep that direction and resolve it without squaring the
    # table's condition number.
    weak = np.array([[1.0, 1.0], [1.0, 1.001]], dtype=complex)
    strong = np.array([[1.0, 0.0], [2.0, 1.0j]])
    entries = np.outer(strong @ np.array([0.3, -0.7]), weak @ np.array([1.0, -1.0]))
    problem = FitProblem(
        TransitionMatrix(("0", "1"), entries), _FixedTables(weak, strong), seed=0
    )
    assert fit_bath(problem).cost <= 1e-12


def _pinned_problem(seed, table_in, table_out):
    """A ``_table_problem`` draw given by its seed and its two tables."""
    d = len(table_in)
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    target = TransitionMatrix(tuple(str(i) for i in range(d)), entries)
    tables = _FixedTables(np.array(table_in, dtype=complex), np.array(table_out, dtype=complex))
    return FitProblem(target, tables, seed=seed)


# Each cost is the distance between two unit vectors whose components are
# rounded at the scale of 1, so the two summation orders may differ by a
# few ulps of 1 even where the cost itself is small.  At these two draws
# they are 5 ulps apart (1.1e-15 near 1.42 and 1.54, draws 941 and 823),
# which an absolute 1e-15 rejected.
@example(_pinned_problem(266, [[0, 0, 0, 1], [0, 0, 0, 0]], [[1, 1, -2, 0], [0, 1, 0, 0]]))
@example(_pinned_problem(1, [[1]], [[-1j, 1j, 0, 1 + 1j]]))
@given(_table_problem())
@settings(max_examples=8, deadline=None)
def test_batched_sampling_matches_per_draw_loop(problem):
    for n in (1, 511, 512, 513, 1025):
        reference = _per_draw_costs(problem, n)
        ulps = np.abs(_sample_costs(problem, n) - reference) / np.spacing(np.maximum(reference, 1.0))
        assert ulps.max() <= 8
        hist = sample_cost_distribution(problem, n)
        edges = np.round(np.arange(0.0, 2.1, 0.1), 10)
        assert hist.counts == tuple(int(c) for c in np.histogram(reference, bins=edges)[0])
