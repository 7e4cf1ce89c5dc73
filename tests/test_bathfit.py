"""Cost function and simplified-model fitting tests."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spinfoam_oqs import bathfit
from spinfoam_oqs.amplitudes import TransitionMatrix, label_str, pr_vertex
from spinfoam_oqs.bathfit import (
    CostHistogram,
    FitProblem,
    RetryBudgetExhausted,
    TwoVertexModel,
    _DIRECT_BELOW,
    _SAMPLE_CHUNK,
    _sample_costs,
    admissible_triple_basis,
    chain_target,
    cost,
    fit_bath,
    sample_cost_distribution,
    standard_model,
)
from spinfoam_oqs.recoupling import Spin, triangle_ok


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
    for seed in range(50):
        basis = admissible_triple_basis(10, seed=seed)
        assert len(basis) == 10
        assert len(set(basis)) == 10
        for triple in basis:
            assert triangle_ok(*triple)
            assert list(triple) == sorted(triple)
            assert all(Spin(1) <= s <= Spin(5) for s in triple)


def test_admissible_triple_basis_deterministic():
    assert admissible_triple_basis(20, "0", "3", seed=42) == admissible_triple_basis(
        20, "0", "3", seed=42
    )


def test_admissible_triple_basis_reaches_every_triple_of_a_small_range():
    every = {
        triple for triple in itertools.combinations_with_replacement(range(3), 3)
        if sum(triple) % 2 == 0 and triple[2] <= triple[0] + triple[1]
    }
    basis = admissible_triple_basis(len(every), "0", "1", seed=0)
    assert {tuple(s.twice_j for s in triple) for triple in basis} == every
    # A range of one spin has one labeling.
    assert admissible_triple_basis(1, "2", "2", seed=0) == ((Spin(4),) * 3,)


def test_admissible_triple_basis_exhaustion_error():
    with pytest.raises(ValueError):
        admissible_triple_basis(50, j_min="1/2", j_max="1", seed=0, max_attempts=500)
    # The attempts ran out before the range did: 2j 2..6 holds 18 sorted triples.
    with pytest.raises(ValueError, match=(
        r"^found 16 distinct admissible triples in 100 attempts; \[1, 3\] holds 18; asked for 20$"
    )):
        admissible_triple_basis(20, "1", "3", seed=6, max_attempts=100)
    with pytest.raises(ValueError, match=r"^empty spin range \[1, 1/2\]$"):
        admissible_triple_basis(2, "1", "1/2")


def test_admissible_triple_basis_budget_exhaustion():
    # Three spins 1/2 never close a triangle: their sum is not an integer.
    with pytest.raises(RetryBudgetExhausted, match="within 1000 resamples$"):
        admissible_triple_basis(1, "1/2", "1/2", seed=0)


def _basis_outcome(dim, j_min, j_max, seed, max_attempts):
    """A basis as its sorted 2j triples, or its exception as 'Type: message'."""
    try:
        basis = admissible_triple_basis(dim, j_min, j_max, seed=seed, max_attempts=max_attempts)
    except (ValueError, RetryBudgetExhausted) as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(",".join(str(s.twice_j) for s in triple) for triple in basis)


def test_admissible_triple_basis_matches_its_record():
    # fixtures/triple_basis.json maps "dim j_min j_max seed max_attempts" to
    # the _basis_outcome of the sampler that labeled a one-node spin network
    # per attempt: dim 1-20, j_min 0, 1/2 and 1, j_max 3/2, 5/2 and 3, and
    # seeds 0-7 at max_attempts 100, plus edge cases at their own arguments.
    # Error messages were re-recorded once, when the exhaustion message began
    # to count attempts and the range's triples; no basis changed then.
    path = Path(__file__).parent / "fixtures" / "triple_basis.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    changed = []
    for key, outcome in record.items():
        dim, j_min, j_max, seed, max_attempts = key.split()
        if _basis_outcome(int(dim), j_min, j_max, int(seed), int(max_attempts)) != outcome:
            changed.append(key)
    assert not changed, f"{len(changed)} of {len(record)} bases changed, first {changed[:5]}"


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
    assert cost(target.flatten(), model.flattened(result.params)) == pytest.approx(
        result.cost, abs=1e-12
    )


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
    # one stream read row by row: the first m draws of a run are an m-draw
    # run, byte for byte, also where the runs' chunks end apart
    for m, n in ((100, 200), (513, 1025)):
        first = _sample_costs(problem, n)[:m]
        assert first.tobytes() == _sample_costs(problem, m).tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_fit_problem_rejects_bad_seed(basis, model, seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        FitProblem(chain_target(2, basis), model, seed=seed)


def test_fit_problem_takes_numpy_integer_seed(basis, model):
    problem = FitProblem(chain_target(2, basis), model, seed=np.int64(2**40))
    assert type(problem.seed) is int and problem.seed == 2**40


def test_histogram_csv_format(basis, model, tmp_path):
    from spinfoam_oqs.scenario import histogram_csv, write_output

    target = chain_target(2, basis)
    hist = sample_cost_distribution(FitProblem(target, model, seed=1), 50)
    write_output(tmp_path / "histogram.csv", histogram_csv(hist))
    lines = (tmp_path / "histogram.csv").read_text(encoding="utf-8").strip().split("\n")
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

    monkeypatch.setattr(bathfit, "vertex_amplitudes", no_vertex)
    target = TransitionMatrix(
        tuple(label_str(b) for b in basis), model.matrix(np.ones(model.n_params))
    )
    problem = FitProblem(target, model, seed=0)
    assert problem.tables is tables
    assert cost(target.flatten(), model.flattened(np.ones(model.n_params))) <= 1e-12


def test_vertex_tables_match_the_per_entry_scalar_fill(model):
    # Signed zeros included: a non-admissible entry is its phase times 0.0.
    triples = (model.bath_triples_in, model.bath_triples_out)
    for table, baths in zip(model.tables(), triples):
        scalar = np.array(
            [[pr_vertex(*label, *bath) for bath in baths] for label in model.basis],
            dtype=complex,
        )
        assert table.tobytes() == scalar.tobytes()


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


def test_two_vertex_model_parses_its_spins_when_made():
    single_bath = (("1", "2", "2"),)
    with pytest.raises(ValueError, match="Invalid literal"):
        TwoVertexModel(((1, 1, 2),), (("x", "1", "1"),), single_bath)
    with pytest.raises(ValueError, match=r"label \(1,1\) does not fill 3 slots"):
        TwoVertexModel(((1, 1),), single_bath, single_bath)


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


def _per_draw_weights(problem, n):
    """Each draw's in- and out-vertex weights, row by row from the one
    ``default_rng(seed)`` stream.  They are left unnormalized: the cost and
    the summation condition ignore each vertex's scale."""
    k = problem.tables[0].shape[1]
    rng = np.random.default_rng(problem.seed)
    for _ in range(n):
        yield rng.exponential(1.0, k), rng.exponential(1.0, problem.model.n_params - k)


def _per_draw_costs(problem, n):
    """Each draw's ``bathfit.cost`` on its own outer product; 2 where it is zero."""
    weights = _per_draw_weights(problem, n)
    return np.array([_model_cost(problem, np.concatenate(w)) for w in weights])


def _summation_condition(problem, n):
    """Per draw, the condition number of its weighted sums sum_j theta_j t_ij.

    The larger over both vertices of || sum_j |theta_j t_ij| || over
    || sum_j theta_j t_ij ||: rounding in a sum is bounded by a multiple of
    the sum of its terms' magnitudes, so cancelling sums can differ by that
    many more ulps between two summation orders.  A sum that cancels to
    exactly zero has no bound.
    """
    table_in, table_out = problem.tables
    cond = np.empty(n)
    for i, weights in enumerate(_per_draw_weights(problem, n)):
        ratios = []
        for table, theta in zip((table_in, table_out), weights):
            magnitude = np.linalg.norm(np.abs(table) @ theta)
            value = np.linalg.norm(table @ theta)
            ratios.append(1.0 if magnitude == 0 else magnitude / value if value else math.inf)
        cond[i] = max(ratios)
    return cond


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


# Bound on |sampled - per-draw| at a draw of cost c, in units of u = 2**-53:
# * Weights.  The batched and the per-draw products sum w = sum_j theta_j t_j
#   in different orders, each within k u kappa |w| of the exact sum (k
#   terms, kappa the draw's summation condition).  The unit outer product
#   moves by at most 2 (|dw_out| / |w_out| + |dw_in| / |w_in|), and the
#   cost, a distance from the target, by no more: 8 k kappa.
# * The reference.  Normalizing d^2 products and taking the norm of their
#   difference from the unit target, plus the final square root: d^2 + 6.
# * The bilinear form.  The overlap is two d-term sums whose terms are
#   bounded by |w_out| |w_in| (Cauchy-Schwarz, |T| = 1), and the two norms
#   add d + 3: rho is off by (3d + 7) u, 2 - 2 rho by 2 (3d + 7) u + 4 u,
#   and c = sqrt(2 - 2 rho) by (3d + 9) u / c.  Below _DIRECT_BELOW the
#   direct form takes over, so c is floored there.
# Over 300 random problems of 1025 draws the largest error was 0.40 of this
# bound (3e-12 at a small cost); the median problem's largest was 0.06.
def _cost_tolerance(problem, reference):
    d = problem.target.dim
    k = max(table.shape[1] for table in problem.tables)
    kappa = _summation_condition(problem, len(reference))
    floor = np.maximum(reference, _DIRECT_BELOW)
    return 2.0**-53 * (8 * k * kappa + d * d + 6 + (3 * d + 9) / floor)


# Tables whose weighted sums cancel, where the summation orders differ most.
@example(_pinned_problem(266, [[0, 0, 0, 1], [0, 0, 0, 0]], [[1, 1, -2, 0], [0, 1, 0, 0]]))
@example(_pinned_problem(1, [[1]], [[-1j, 1j, 0, 1 + 1j]]))
@example(_pinned_problem(0, [[-1, -1, 0, 0]], [[-1 - 1j, -1 - 1j, -2 + 2j, 2 + 2j]]))
# Nearly parallel columns, whose weighted sums cancel: norms and overlap
# taken as quadratic forms in theta of the tables' k x k Gram and cross
# matrices lose that cancellation to round-off; the row sums of w keep it.
@example(_pinned_problem(29, [[-1, 1.001]], [[2]]))
@example(_pinned_problem(314, [[3, -2.999]], [[1 + 1j]]))
@given(_table_problem())
@settings(max_examples=8, deadline=None)
def test_batched_sampling_matches_per_draw_loop(problem):
    reference = _per_draw_costs(problem, 1025)
    tolerance = _cost_tolerance(problem, reference)
    for n in (1, 511, 512, 513, 1025):
        assert np.all(np.abs(_sample_costs(problem, n) - reference[:n]) <= tolerance[:n])
        hist = sample_cost_distribution(problem, n)
        edges = np.round(np.arange(0.0, 2.1, 0.1), 10)
        assert hist.counts == tuple(int(c) for c in np.histogram(reference[:n], bins=edges)[0])


def _stream_zeroing(positions):
    """A ``default_rng`` whose stream reads 0.0 at the given positions."""
    real = np.random.default_rng

    class Stream:
        def __init__(self, seed):
            self._rng, self._read = real(seed), 0

        def _zeroed(self, values):
            flat = values.reshape(-1)
            flat[[p - self._read for p in positions if 0 <= p - self._read < flat.size]] = 0.0
            self._read += flat.size
            return values

        def standard_exponential(self, size):
            return self._zeroed(self._rng.standard_exponential(size))

        def exponential(self, scale, size):
            return self._zeroed(self._rng.exponential(scale, size))

    return Stream


@st.composite
def _draw_0_problem(draw):
    """A table problem whose target is tied to draw 0 of its stream.

    ``exact``: the model at draw 0, computed from the stream's first chunk
    of draws; ``near``: that model moved by 10**-e of its norm;
    ``opposite``: its negative; ``random``: a random target; ``dead``: a random target, with draw 0's
    in- or out-vertex weights zeroed in the stream.
    """
    d = draw(st.integers(1, 5))
    table_in, table_out = draw(_vertex_table(d)), draw(_vertex_table(d))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["exact", "near", "opposite", "random", "dead"]))
    k, n_params = table_in.shape[1], table_in.shape[1] + table_out.shape[1]
    theta = np.random.default_rng(seed).standard_exponential((_SAMPLE_CHUNK, n_params))
    model = np.outer((theta[:, k:] @ table_out.T)[0], (theta[:, :k] @ table_in.T)[0])
    rng = np.random.default_rng(seed + 1)
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    shift = 10.0 ** -draw(st.integers(3, 11)) * np.linalg.norm(model) / np.linalg.norm(noise)
    entries = {
        "exact": model,
        "near": model + shift * noise,
        "opposite": -model,
        "random": noise,
        "dead": noise,
    }[kind]
    assume(np.any(entries))
    zeroed = draw(st.sampled_from([range(k), range(k, n_params)])) if kind == "dead" else ()
    target = TransitionMatrix(tuple(str(i) for i in range(d)), entries)
    return FitProblem(target, _FixedTables(table_in, table_out), seed=seed), kind, zeroed


@given(_draw_0_problem())
@settings(max_examples=60, deadline=None)
def test_sampled_costs_are_the_costs_of_their_draws(case):
    problem, kind, zeroed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", _stream_zeroing(zeroed))
        sampled = _sample_costs(problem, 600)
        reference = _per_draw_costs(problem, 600)
        tolerance = _cost_tolerance(problem, reference)
    assert np.all(np.abs(sampled - reference) <= tolerance)
    assert np.all((0.0 <= sampled) & (sampled <= 2.0))
    if kind == "exact":
        assert sampled[0] <= 1e-12
    if kind == "dead":
        assert sampled[0] == reference[0] == 2.0


def _recording_stream(blocks):
    """A ``default_rng`` that appends each block of exponentials it gives."""
    real = np.random.default_rng

    class Stream:
        def __init__(self, seed):
            self._rng = real(seed)

        def standard_exponential(self, size):
            values = self._rng.standard_exponential(size)
            blocks.append(values.copy())
            return values

    return Stream


def _random_tables_problem(seed, d, n_params):
    """A random target and two random vertex tables sharing n_params weights."""
    rng = np.random.default_rng(seed)
    k = n_params // 2

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    target = TransitionMatrix(tuple(str(i) for i in range(d)), complex_normal(d, d))
    tables = _FixedTables(complex_normal(d, k), complex_normal(d, n_params - k))
    return FitProblem(target, tables, seed=seed)


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
@pytest.mark.parametrize("seed, n_params", [(11, 18), (2**64 + 5, 7)])
def test_draws_are_rows_of_one_stream(seed, n, n_params):
    # The sampler reads default_rng(seed) once, at most _SAMPLE_CHUNK rows
    # at a time; its draws are the rows of one (n, n_params) block.
    problem = _random_tables_problem(seed, 3, n_params)
    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", _recording_stream(blocks))
        _sample_costs(problem, n)
    assert all(0 < len(block) <= _SAMPLE_CHUNK for block in blocks)
    reference = np.random.default_rng(seed).standard_exponential((n, n_params))
    assert np.concatenate(blocks).tobytes() == reference.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 7, 511, 513, 1024, 2000])
def test_chunk_size_never_changes_a_draw(chunk):
    problem = _random_tables_problem(5, 4, 9)
    n = 1025
    reference = _per_draw_costs(problem, n)
    tolerance = _cost_tolerance(problem, reference)
    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bathfit, "_SAMPLE_CHUNK", chunk)
        patch.setattr(np.random, "default_rng", _recording_stream(blocks))
        sampled = _sample_costs(problem, n)
    assert [len(block) for block in blocks[:-1]] == [chunk] * (len(blocks) - 1)
    stream = np.random.default_rng(problem.seed).standard_exponential((n, 9))
    assert np.concatenate(blocks).tobytes() == stream.tobytes()
    assert np.all(np.abs(sampled - reference) <= tolerance)


@pytest.mark.parametrize(
    "scale_in, scale_out", [(1e-160, 1.0), (1e-170, 1.0), (1.0, 1e160), (1e160, 1e160)]
)
def test_sampled_costs_ignore_each_vertex_tables_scale(scale_in, scale_out):
    # Unscaled, |w|^2 of tables this small underflows and of tables this
    # large overflows; the cost itself ignores each vertex's scale.
    problem = _random_tables_problem(5, 4, 9)
    reference = _per_draw_costs(problem, 600)
    table_in, table_out = problem.tables
    scaled = FitProblem(
        problem.target, _FixedTables(scale_in * table_in, scale_out * table_out), seed=problem.seed
    )
    error = np.abs(_sample_costs(scaled, 600) - reference)
    assert np.all(error <= _cost_tolerance(problem, reference))
