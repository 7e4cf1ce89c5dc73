"""Amplitude backend tests: foam contraction, analytic vertex, kappa."""

import contextlib
import math
import sys
import threading
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfoam_oqs.amplitudes import (
    AsymptoticParams,
    BoundaryState,
    DegenerateSteadyStateError,
    Foam2Complex,
    FoamProvider,
    KappaMatrix,
    LinkWeight,
    MissingBoundaryError,
    ProviderError,
    TiedGaussianBath,
    TransitionMatrix,
    asymptotic_vertex,
    bridged_pair_foam,
    cascade_pair_foam,
    chain_foam,
    disconnected_pair_foam,
    interference_weight,
    kappa_from_W,
    label_spins,
    label_str,
    pr_transition,
    pr_vertex,
    single_vertex_foam,
    transition_matrix,
    two_level_rho11,
)
from spinfoam_oqs import amplitudes, recoupling
from spinfoam_oqs.recoupling import Spin, as_spin, wigner6j
from spinfoam_oqs.scenario import ScenarioConfig


# --- vertex amplitude -------------------------------------------------------

def test_pr_vertex_all_ones():
    # total spin 6 is even, so the sign is +1
    assert pr_vertex(1, 1, 1, 1, 1, 1) == pytest.approx(wigner6j(1, 1, 1, 1, 1, 1))


def test_pr_vertex_triangle_violation():
    assert pr_vertex(1, 1, 3, 1, 1, 1) == 0


def test_pr_vertex_all_zeros():
    assert pr_vertex(0, 0, 0, 0, 0, 0) == 1.0


def test_pr_vertex_half_integer_total_is_complex():
    value = pr_vertex("1/2", 1, "1/2", 1, "1/2", 1)
    assert abs(value.real) < 1e-15
    assert abs(value.imag) > 0


# --- foam transitions --------------------------------------------------------

def test_single_vertex_delta_pinned_equals_vertex():
    foam = single_vertex_foam()
    pins = BoundaryState.delta({i: 1 for i in range(6)})
    assert pr_transition(foam, pins, j_max=2) == pytest.approx(
        pr_vertex(1, 1, 1, 1, 1, 1)
    )


def test_zero_weight_boundary_term_contributes_nothing():
    foam = single_vertex_foam()
    # a term landing on a triangle-violating assignment vanishes silently
    state = BoundaryState.superposition(
        [
            (1.0, {i: 1 for i in range(6)}),
            (1.0, {0: "1/2", 1: "1/2", 2: "1/2", 3: "1/2", 4: "1/2", 5: "1/2"}),
        ]
    )
    assert pr_transition(foam, state, j_max=2) == pytest.approx(
        pr_vertex(1, 1, 1, 1, 1, 1)
    )


def test_disconnected_factorization():
    pair = disconnected_pair_foam()
    one = single_vertex_foam()
    a = {i: 1 for i in range(6)}
    b = {0: "1/2", 1: "1/2", 2: 1, 3: "1/2", 4: "1/2", 5: 1}
    state = BoundaryState.delta(a).merged(
        BoundaryState.delta({k + 6: v for k, v in b.items()})
    )
    w_pair = pr_transition(pair, state, j_max=2)
    w_a = pr_transition(one, BoundaryState.delta(a), j_max=2)
    w_b = pr_transition(one, BoundaryState.delta(b), j_max=2)
    assert w_pair == pytest.approx(w_a * w_b, abs=1e-14)
    assert abs(w_pair) > 0


def test_chain_contraction_matches_brute_force():
    foam = chain_foam(2, internal_range=(Spin(0), Spin(4)))
    pins = BoundaryState.delta({i: 1 for i in range(6)})
    fast = pr_transition(foam, pins, j_max=2)
    brute = 0j
    phases = (1, 1j, -1, -1j)
    for t1 in range(5):
        for t2 in range(5):
            for t3 in range(5):
                weight = 1.0 + 0j
                for t in (t1, t2, t3):
                    weight *= phases[t % 4] * (t + 1)
                brute += (
                    weight
                    * pr_vertex(1, 1, 1, Spin(t1), Spin(t2), Spin(t3))
                    * pr_vertex(Spin(t1), Spin(t2), Spin(t3), 1, 1, 1)
                )
    assert fast == pytest.approx(brute, abs=1e-12)


def test_missing_boundary_spins_error_lists_faces():
    foam = single_vertex_foam()
    partial = BoundaryState.delta({0: 1, 1: 1, 2: 1})
    with pytest.raises(MissingBoundaryError) as err:
        pr_transition(foam, partial, j_max=2)
    assert "[3, 4, 5]" in str(err.value)


def test_truncation_self_consistency():
    # single vertex, one pinned link, Gaussian bath decaying before cutoff
    foam = single_vertex_foam()
    state = BoundaryState.delta({0: 1}).merged(
        BoundaryState.gaussian({l: 0.5 for l in range(1, 6)})
    )
    w_lo = pr_transition(foam, state, j_max="9/2")
    w_hi = pr_transition(foam, state, j_max=5)
    assert abs(w_hi - w_lo) <= 1e-5 * abs(w_lo)


def test_foam_validation():
    with pytest.raises(ValueError):
        Foam2Complex(((0, 1, 2, 3, 4),), {f: f for f in range(5)}, {})
    with pytest.raises(ValueError):
        Foam2Complex(
            ((0, 1, 2, 3, 4, 5),),
            {f: f for f in range(5)},
            {},
        )
    # boundary face shared by two vertices is rejected
    with pytest.raises(ValueError):
        Foam2Complex(
            ((0, 1, 2, 3, 4, 5), (0, 6, 7, 8, 9, 10)),
            {f: f for f in range(11)},
            {},
        )


# --- transition matrices ----------------------------------------------------

def test_foam_provider_hermitian_modulus_for_symmetric_bath():
    foam = disconnected_pair_foam()
    bath = BoundaryState.gaussian(
        {l: 0.8 for l in list(range(1, 6)) + list(range(7, 12))}
    )
    provider = FoamProvider(foam, in_links=(0,), out_links=(6,), bath=bath, j_max=2)
    W = transition_matrix(provider, ["1/2", "1", "3/2", "2"])
    assert np.allclose(np.abs(W.entries), np.abs(W.entries.T), atol=1e-12)


def test_provider_error_carries_context():
    class Broken:
        def matrix(self, labels):
            raise RuntimeError("boom")

    with pytest.raises(ProviderError) as err:
        transition_matrix(Broken(), ["1/2", "1"])
    assert "basis (1/2, 1)" in str(err.value) and "boom" in str(err.value)


def test_callable_bath_is_rejected_at_construction():
    def tied(n_label, m_label):
        return BoundaryState.gaussian({1: float(as_spin(m_label).j)})

    with pytest.raises(TypeError) as err:
        FoamProvider(single_vertex_foam(), (0,), (3,), bath=tied, j_max=2)
    assert "bath" in str(err.value)


def test_tied_bath_rejects_link_indices_that_are_not_integers():
    for in_links, out_links, bad in (
        ([1.5, 2], [7], "1.5"), ([1], [7.9], "7.9"), ([True], [3], "True"), ([1], ["3"], "'3'"),
    ):
        with pytest.raises(TypeError, match=f"must be integer link indices, got {bad}$"):
            TiedGaussianBath(in_links, out_links)
    bath = TiedGaussianBath(np.array([1, 2]), [np.int64(7)])
    assert (bath.in_links, bath.out_links) == ((1, 2), (7,))
    assert all(type(l) is int for l in bath.links)


def test_tied_bath_rejects_tuple_labels():
    bath = TiedGaussianBath((1, 2), (4, 5))
    provider = FoamProvider(single_vertex_foam(), (0,), (3,), bath=bath, j_max=2)
    with pytest.raises(ProviderError) as err:
        transition_matrix(provider, ["1", ("1/2", "1", "3/2")])
    assert "(1/2,1,3/2)" in str(err.value)


# --- one contraction per W vs the per-entry fill ------------------------------

def reference_vertex_tensor(tjs):
    """Signed 6j over the full product of six per-slot 2j grids."""
    T = np.zeros([len(g) for g in tjs], dtype=complex)
    for index in np.ndindex(*T.shape):
        face = [tjs[k][i] for k, i in enumerate(index)]
        if min(face) >= 0:
            T[index] = pr_vertex(*(Spin(t) for t in face))
    return T


def scalar_fill_vertex_tensor(tjs, pattern):
    """The vertex tensor filled one scalar ``wigner6j`` call per admissible entry."""
    n_axes = max(pattern) + 1
    dims = [0] * n_axes
    face = []
    for k, axis in enumerate(pattern):
        dims[axis] = len(tjs[k])
        shape = [1] * n_axes
        shape[axis] = -1
        face.append(np.array(tjs[k], dtype=np.int64).reshape(shape))
    ok = np.ones(dims, dtype=bool)
    for a, b, c in amplitudes._VERTEX_TRIADS:
        ta, tb, tc = face[a], face[b], face[c]
        ok &= ((ta + tb + tc) % 2 == 0) & (np.abs(ta - tb) <= tc) & (tc <= ta + tb)
    admissible = np.stack([np.broadcast_to(f, dims)[ok] for f in face], axis=1)
    phases = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
    T = np.zeros(dims, dtype=complex)
    T[ok] = [
        phases[sum(tj) % 4] * wigner6j(*[Spin(t) for t in tj])
        for tj in admissible.tolist()
    ]
    return T


def test_vertex_tensor_matches_full_product():
    rng = np.random.default_rng(3)
    for _ in range(5):
        tjs = [tuple(sorted(int(t) for t in rng.choice(6, 3, replace=False))) for _ in range(6)]
        assert np.array_equal(
            amplitudes._vertex_tensor(tjs, (0, 1, 2, 3, 4, 5)), reference_vertex_tensor(tjs)
        )
    # Slots 0, 2 and 4 on one label axis take one index, and a label spin
    # above j_max (-1) leaves its index zero.
    label = [(2, 4, -1), (2, 4, 0), (2, 4, 2)]
    tjs = [label[0], (0, 2, 4), label[1], (0, 2), label[2], (0, 1, 2, 4)]
    full = reference_vertex_tensor(tjs)
    shared = amplitudes._vertex_tensor(tjs, (0, 1, 0, 2, 0, 3))
    assert np.array_equal(shared, np.einsum("iaibic->iabc", full))
    assert not shared[2].any() and shared[0].any() and shared[1].any()


@st.composite
def vertex_tensor_cases(draw):
    # Slot k joins the axis of an earlier slot or opens a new one, so the
    # pattern numbers axes by first appearance and may repeat any of them.
    pattern = [0]
    for _ in range(5):
        pattern.append(draw(st.integers(0, max(pattern) + 1)))
    two_j = st.integers(-1, 9)  # -1 is the off-grid label
    grids = [
        tuple(draw(st.lists(two_j, min_size=1, max_size=4, unique=True)))
        for _ in range(max(pattern) + 1)
    ]
    return [grids[a] for a in pattern], tuple(pattern)


@given(vertex_tensor_cases())
@settings(max_examples=150, deadline=None)
def test_batched_vertex_tensor_is_bit_identical_to_scalar_fill(case):
    tjs, pattern = case
    batched = amplitudes._vertex_tensor(tjs, pattern)
    scalar = scalar_fill_vertex_tensor(tjs, pattern)
    assert batched.shape == scalar.shape
    assert batched.tobytes() == scalar.tobytes()  # signed zeros included


def fresh_tensor_cache(max_entries=amplitudes._TENSOR_CACHE_MAX_ENTRIES):
    """An empty tensor cache bounded by ``max_entries``, for one ``with`` block."""
    stack = contextlib.ExitStack()
    for name, value in (("_TENSOR_CACHE", OrderedDict()), ("_tensor_cache_entries", 0),
                        ("_TENSOR_CACHE_MAX_ENTRIES", max_entries)):
        stack.enter_context(mock.patch.object(amplitudes, name, value))
    return stack


@st.composite
def cube_gather_cases(draw):
    # A 2j bound and a few vertex tensors under it, gathered in the drawn
    # order from one cube.  Slots sharing an axis each take their own
    # values along it, as the slots of a label do; a slot alone on its
    # axis takes the full grid, a run of 2j values (a slice of the cube)
    # or any values, off-grid -1 included.
    top = draw(st.integers(0, 9))
    spin = st.integers(-1, top)
    full = tuple(range(top + 1))
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        pattern = [0]
        for _ in range(5):
            pattern.append(draw(st.integers(0, max(pattern) + 1)))
        size = [draw(st.integers(1, 4)) for _ in range(max(pattern) + 1)]
        tjs = []
        for axis in pattern:
            kind = "shared" if pattern.count(axis) > 1 else draw(st.sampled_from(("full", "run", "any")))
            if kind == "shared":
                grid = draw(st.lists(spin, min_size=size[axis], max_size=size[axis]))
            elif kind == "full" and top <= 5:
                grid = full
            elif kind == "run":
                lo = draw(st.integers(0, top))
                grid = range(lo, draw(st.integers(lo, top)) + 1)
            else:
                grid = draw(st.lists(spin, min_size=1, max_size=4, unique=True))
            tjs.append(tuple(grid))
        cases.append((tuple(tjs), tuple(pattern)))
    if top <= 5 and draw(st.booleans()):  # the whole cube, which completes it
        cases.insert(draw(st.integers(0, len(cases))), ((full,) * 6, (0, 1, 2, 3, 4, 5)))
    return top, cases


@given(cube_gather_cases())
@settings(max_examples=120, deadline=None)
def test_gathered_tensors_are_the_vertex_tensors_in_any_fill_order(case):
    top, cases = case
    for bound in (amplitudes._TENSOR_CACHE_MAX_ENTRIES, (top + 1) ** 6 - 1):
        with fresh_tensor_cache(bound):
            for tjs, pattern in cases:
                gathered = amplitudes._gathered_tensor(tjs, pattern, top)
                built = amplitudes._vertex_tensor(tjs, pattern)
                assert gathered.shape == built.shape
                assert gathered.tobytes() == built.tobytes()  # signed zeros included
                assert not gathered.flags.writeable
            assert (amplitudes._cube(top) is None) == (bound < (top + 1) ** 6)


def test_one_W_computes_only_the_symbols_its_tensors_touch():
    # 64 and 138 are the 6j cache entries one W left from cleared caches
    # when each vertex tensor was built by _vertex_tensor alone, which
    # computes the admissible entries of that tensor and nothing else.
    # Every symbol of 2j <= 4 is 65 entries and of 2j <= 8 is 882.
    cascade = ScenarioConfig.from_file(Path(__file__).parent.parent / "scenarios" / "cascade_pr3d.json")
    bridged = FoamProvider(
        bridged_pair_foam((Spin(0), Spin(8))), (0, 1, 2), (3, 4, 5),
        bath=BoundaryState.gaussian({6: 0.6, 7: 0.8, 8: 1.0, 9: 1.2}), j_max=4,
    )
    for provider, labels, entries in ((cascade.provider, cascade.labels, 64),
                                      (bridged, ["0", "1", "2", "3", "4"], 138)):
        counts = []
        for bound in (amplitudes._TENSOR_CACHE_MAX_ENTRIES, 0):  # cube, then _vertex_tensor
            recoupling.clear_cache()
            with fresh_tensor_cache(bound):
                transition_matrix(provider, labels)
            counts.append(recoupling.cache_info()["entries"])
        assert counts == [entries, entries]


# (foam, in links, out links); every other boundary link is a bath link.
FUSED_FOAMS = {
    "single_vertex": (lambda r: single_vertex_foam(), (0, 1, 2), (3, 4, 5)),
    "single_vertex_bath": (lambda r: single_vertex_foam(), (0,), (3,)),
    "chain2": (lambda r: chain_foam(2, r), (0, 1, 2), (3, 4, 5)),
    "chain3": (lambda r: chain_foam(3, r), (0, 1, 2), (3, 4, 5)),
    "bridged_pair": (bridged_pair_foam, (0, 1, 2), (3, 4, 5)),
    "cascade_pair": (cascade_pair_foam, (0,), (3,)),
    "disconnected_pair": (lambda r: disconnected_pair_foam(), (0,), (6,)),
}


# Foams whose fused W is also checked under a tied gaussian bath.
TIED_FOAMS = ("cascade_pair", "disconnected_pair")


def _spin_str(twice_j):
    return str(Spin(twice_j))


@st.composite
def fused_cases(draw):
    name = draw(st.sampled_from(sorted(FUSED_FOAMS)))
    build, in_links, out_links = FUSED_FOAMS[name]
    two_jmax = draw(st.integers(2, 4))
    top = draw(st.integers(0, two_jmax + 2))
    foam = build((Spin(0), Spin(top)))
    slots = len(in_links)
    # Spins run up to one above j_max, whose entries must come out zero.
    spin = st.integers(0, two_jmax + 1)
    if slots == 3 and draw(st.booleans()):
        label = st.tuples(spin, spin, spin).filter(
            lambda t: (sum(t) % 2 == 0 and abs(t[0] - t[1]) <= t[2] <= t[0] + t[1])
        ).map(lambda t: tuple(_spin_str(x) for x in t))
    elif slots == 1 and draw(st.booleans()):
        label = spin.map(lambda t: (_spin_str(t),))
    else:
        label = spin.map(_spin_str)
    labels = draw(st.lists(label, min_size=1, max_size=3, unique=True))

    bath_links = sorted(set(foam.boundary_links) - set(in_links) - set(out_links))
    if name in TIED_FOAMS and draw(st.booleans()):
        # Each bath link follows the in or the out label at random, so one
        # vertex may carry both label axes.  Gaussian centres must be
        # positive, so spin 0 is left out.
        sides = [draw(st.sampled_from(["in", "out"])) for _ in bath_links]
        bath = TiedGaussianBath(
            [l for l, side in zip(bath_links, sides) if side == "in"],
            [l for l, side in zip(bath_links, sides) if side == "out"],
        )
        label = st.integers(1, two_jmax + 1).map(_spin_str)
        labels = draw(st.lists(label, min_size=1, max_size=3, unique=True))
        return FoamProvider(foam, in_links, out_links, bath=bath, j_max=Spin(two_jmax)), labels
    bath = None
    if bath_links:
        # Gaussian terms keep most amplitudes nonzero.  Delta terms after
        # the first may pin a spin above j_max, whose empty support drops
        # the term.
        def term(kind, spins):
            if kind == "gaussian":
                centers = st.floats(0.05, 1.5, allow_nan=False)
                return {l: LinkWeight("gaussian", draw(centers)) for l in bath_links}
            return {l: LinkWeight("delta", Spin(draw(spins))) for l in bath_links}

        kinds = st.sampled_from(["gaussian", "delta"])
        terms = [(1.0, term(draw(kinds), st.integers(0, two_jmax)))]
        for _ in range(draw(st.integers(0, 2))):
            weight = draw(st.sampled_from([0.5, 0.0, -0.7 + 0.4j]))
            terms.append((weight, term(draw(kinds), spin)))
        bath = BoundaryState(terms)
    provider = FoamProvider(foam, in_links, out_links, bath=bath, j_max=Spin(two_jmax))
    return provider, labels


def entrywise_W(provider, labels):
    """W from one ``pr_transition`` per entry: delta pins merged with the bath.

    A tied bath becomes, for entry (n, m), gaussians centred on the spin of
    m on its in-links and on the spin of n on its out-links.
    """
    d = len(labels)
    W = np.zeros((d, d), dtype=complex)
    for n in range(d):
        for m in range(d):
            pins = dict(zip(provider.in_links, label_spins(labels[m], len(provider.in_links))))
            pins.update(zip(provider.out_links, label_spins(labels[n], len(provider.out_links))))
            state = BoundaryState.delta(pins)
            bath = provider.bath
            if isinstance(bath, TiedGaussianBath):
                centers = {l: float(as_spin(labels[m]).j) for l in bath.in_links}
                centers.update({l: float(as_spin(labels[n]).j) for l in bath.out_links})
                bath = BoundaryState.gaussian(centers)
            if bath is not None:
                state = state.merged(bath)
            W[n, m] = pr_transition(provider.foam, state, provider.j_max)
    return W


@given(fused_cases())
@settings(max_examples=150, deadline=None)
def test_fused_W_matches_entrywise(case):
    provider, labels = case
    fused = transition_matrix(provider, labels).entries
    reference = entrywise_W(provider, labels)
    assert np.max(np.abs(fused - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("name", TIED_FOAMS)
def test_fused_tied_W_covers_half_integer_and_off_grid_labels(name):
    # jmax 2: 1/2 and 3/2 are half-integer, 5/2 lies above jmax.  In
    # cascade_pair the shared internal face keeps W from factorizing.
    build, in_links, out_links = FUSED_FOAMS[name]
    foam = build((Spin(0), Spin(4)))
    bath_links = sorted(set(foam.boundary_links) - set(in_links) - set(out_links))
    in_vertex = {foam.boundary_faces.get(f) for f in foam.vertex_faces[0]}
    bath = TiedGaussianBath(
        [l for l in bath_links if l in in_vertex], [l for l in bath_links if l not in in_vertex]
    )
    provider = FoamProvider(foam, in_links, out_links, bath=bath, j_max=2)
    labels = ["1/2", "1", "3/2", "5/2"]
    fused = transition_matrix(provider, labels).entries
    reference = entrywise_W(provider, labels)
    assert np.max(np.abs(fused - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert not fused[3].any() and not fused[:, 3].any()
    assert np.abs(fused[:3, :3]).max() > 0
    if name == "cascade_pair":
        assert np.linalg.matrix_rank(fused[:3, :3], tol=1e-12 * np.abs(fused).max()) > 1


def test_fused_W_label_above_jmax_gives_zero_entries():
    foam = chain_foam(2, internal_range=(Spin(0), Spin(4)))
    provider = FoamProvider(foam, (0, 1, 2), (3, 4, 5), bath=None, j_max=2)
    W = transition_matrix(provider, ["1", "2", "3"]).entries
    assert not W[2].any() and not W[:, 2].any()
    assert np.abs(W[:2, :2]).min() > 0


def test_fused_W_missing_bath_links_names_faces():
    foam = cascade_pair_foam(internal_range=(Spin(0), Spin(4)))
    partial = BoundaryState.gaussian({l: 0.2 for l in (1, 2, 4, 5, 6, 7)})
    for bath, faces in ((partial, "[8, 9]"), (None, "[1, 2, 4, 5, 6, 7, 8, 9]")):
        provider = FoamProvider(foam, (0,), (3,), bath=bath, j_max=2)
        with pytest.raises(MissingBoundaryError) as err:
            transition_matrix(provider, ["0", "1"])
        assert f"boundary faces {faces} (links {faces})" in str(err.value)


def test_concurrent_fills_keep_the_tensor_cache_consistent():
    # From an empty cache the threads insert the chains' label-free middle
    # tensors concurrently, and the j_max = 4 providers fill one 2j <= 8
    # cube on first touch: the chain3 middle is that whole cube, which
    # its gather completes while the other foams fill parts of it.
    providers = [
        FoamProvider(
            chain_foam(3, internal_range=(Spin(1), Spin(top))),
            (0, 1, 2), (3, 4, 5), bath=None, j_max="5/2",
        )
        for top in (3, 4, 5)
    ] + [
        FoamProvider(chain_foam(3, (Spin(0), Spin(4))), (0, 1, 2), (3, 4, 5), bath=None, j_max=4),
        FoamProvider(bridged_pair_foam((Spin(0), Spin(4))), (0, 1, 2), (3, 4, 5),
                     bath=BoundaryState.gaussian({6: 0.7, 7: 0.9, 8: 1.1, 9: 1.3}), j_max=4),
        FoamProvider(cascade_pair_foam((Spin(0), Spin(4))), (0,), (3,),
                     bath=BoundaryState.gaussian({l: 0.3 for l in (1, 2, 4, 5, 6, 7, 8, 9)}), j_max=4),
        FoamProvider(disconnected_pair_foam(), (0,), (6,),
                     bath=TiedGaussianBath((1, 2, 3, 4, 5), (7, 8, 9, 10, 11)), j_max=4),
    ]
    labels = ["1", "2", "3"]  # spin 3 is off the grid of j_max = 5/2
    results = []

    def worker(offset):
        order = list(range(len(providers)))
        for i in (order[offset:] + order[:offset]) * 2:
            results.append((i, transition_matrix(providers[i], labels).entries))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_tensor_cache():
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            with amplitudes._cache_lock:
                cached = sum(T.size for T in amplitudes._TENSOR_CACHE.values())
                assert amplitudes._tensor_cache_entries == cached
                assert 8 in amplitudes._TENSOR_CACHE
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 * 2 * len(providers)
    with fresh_tensor_cache(0):  # every tensor built on its own, nothing cached
        serial = [transition_matrix(p, labels).entries for p in providers]
    assert all(np.array_equal(W, serial[i]) for i, W in results)


# --- kappa -------------------------------------------------------------------

def test_kappa_all_ones():
    W = TransitionMatrix(("1", "2"), np.ones((2, 2), dtype=complex))
    k = kappa_from_W(W)
    assert np.allclose(k.entries, 0.5)


def test_kappa_diagonal_W_gives_identity():
    W = TransitionMatrix(("1", "2"), np.diag([0.3 + 0j, 2.0]))
    k = kappa_from_W(W)
    assert np.allclose(k.entries, np.eye(2))


def test_kappa_factorized_is_column_independent():
    w = np.array([0.8, 0.3 + 0.2j])
    W = TransitionMatrix(("1", "2"), np.outer(w.conj(), w))
    k = kappa_from_W(W, "over_n")
    expected = np.abs(w) ** 2 / np.sum(np.abs(w) ** 2)
    for m in range(2):
        assert np.allclose(k.entries[:, m], expected)


def test_kappa_columns_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        entries = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = kappa_from_W(TransitionMatrix(("a", "b", "c", "d"), entries))
        assert np.max(np.abs(k.entries.sum(axis=0) - 1.0)) < 1e-12


def test_kappa_over_m_rows_sum_to_one():
    rng = np.random.default_rng(1)
    entries = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    k = kappa_from_W(TransitionMatrix(("a", "b", "c"), entries), "over_m")
    assert np.max(np.abs(k.entries.sum(axis=1) - 1.0)) < 1e-12


def test_kappa_zero_column_names_state():
    entries = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError) as err:
        kappa_from_W(TransitionMatrix(("lo", "hi"), entries))
    assert "hi" in str(err.value)


@pytest.mark.parametrize(
    "convention, entries, message",
    [
        ("over_n", [[1.0, 0.0], [1.0, 0.0]], "all-zero amplitude column for in state(s) ['hi']"),
        ("over_m", [[1.0, 1.0], [0.0, 0.0]], "all-zero amplitude row for out state(s) ['hi']"),
    ],
)
def test_kappa_dead_state_message_per_convention(convention, entries, message):
    W = TransitionMatrix(("lo", "hi"), np.array(entries, dtype=complex))
    with pytest.raises(ValueError) as err:
        kappa_from_W(W, convention)
    assert str(err.value) == message


def test_kappa_matrix_rejects_bad_normalization():
    with pytest.raises(ValueError):
        KappaMatrix(("a", "b"), np.array([[0.5, 0.5], [0.4, 0.5]]), "over_n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("convention", ["over_n", "over_m"])
def test_kappa_matrix_rejects_non_finite_rates(bad, convention):
    # every comparison with NaN is false, so the range and sum checks alone
    # would let [[nan, 0], [0, 1]] through
    with pytest.raises(ValueError, match="non-finite"):
        KappaMatrix(("a", "b"), np.array([[bad, 0.0], [0.0, 1.0]]), convention)


# --- analytic vertex ----------------------------------------------------------

PARAMS = AsymptoticParams(
    gamma_immirzi=1.0, regge_action=1.0, alpha=1.0, n_plus_abs=2.0
)


def test_asymptotic_vertex_alpha_zero_modulus():
    p = AsymptoticParams(alpha=0.0, n_plus_abs=3.0)
    for lam in (0.5, 1.0, 4.0):
        assert abs(asymptotic_vertex(lam, p)) == pytest.approx(3.0 / lam**12)


def test_asymptotic_vertex_interference():
    # lambda gamma S = pi/2 makes the two branches anti-align for alpha=1
    p = AsymptoticParams(
        gamma_immirzi=1.0, regge_action=math.pi / 2, alpha=1.0, n_plus_abs=1.0
    )
    assert abs(asymptotic_vertex(1.0, p)) == pytest.approx(0.0, abs=1e-12)
    assert interference_weight(1.0, p) == pytest.approx(abs(np.exp(1j * math.pi) + 1.0))


def test_asymptotic_vertex_phase_invariance():
    base = AsymptoticParams(alpha=0.3 + 0.1j, n_plus_abs=1.5)
    shifted = AsymptoticParams(
        alpha=0.3 + 0.1j, n_plus_abs=1.5, phase_offset=math.pi, chi_plus_m=1.5
    )
    for lam in (0.7, 2.3):
        assert abs(asymptotic_vertex(lam, base)) == pytest.approx(
            abs(asymptotic_vertex(lam, shifted))
        )


def test_asymptotic_vertex_domain_error():
    with pytest.raises(ValueError):
        asymptotic_vertex(0.0, PARAMS)
    with pytest.raises(ValueError):
        asymptotic_vertex(-1.0, PARAMS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_asymptotic_backend_rejects_numbers_that_are_not_finite(bad):
    for name in ("gamma_immirzi", "regge_action", "alpha", "n_plus_abs", "phase_offset",
                 "chi_plus_m"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            AsymptoticParams(**{name: bad})
    with pytest.raises(ValueError, match="alpha must be finite"):
        AsymptoticParams(alpha=complex(0.5, bad))
    for call in (asymptotic_vertex, interference_weight):
        with pytest.raises(ValueError, match="positive and finite"):
            call(bad, PARAMS)
    with pytest.raises(ValueError, match="positive and finite"):
        two_level_rho11(bad, 1.0, PARAMS)
    with pytest.raises(ValueError, match="positive and finite"):
        two_level_rho11(1.0, bad, PARAMS)


@pytest.mark.parametrize(
    "lam1, lam2, alpha, phase",
    [(1.0, 2.0, 0.0, 0.0), (0.7, 1.9, 1.0, 0.3), (2.5, 1.2, 0.5 + 0.5j, math.pi),
     (3.1, 0.4, -0.8 + 0.1j, 1.7)],
)
def test_two_level_rho11_from_the_asymptotic_vertex(lam1, lam2, alpha, phase):
    # f(lambda) = lambda**12 |A(lambda)|: the two branches e^{i osc} and
    # alpha e^{-i osc} have the modulus |e^{2 i osc} + alpha| of the
    # interference weight, and the carried phases cancel.
    p = AsymptoticParams(gamma_immirzi=0.9, regge_action=1.3, alpha=alpha, n_plus_abs=1.7,
                         phase_offset=phase, chi_plus_m=phase / math.pi)

    def f(lam):
        return lam**12 * abs(asymptotic_vertex(lam, p))

    for lam in (lam1, lam2):
        assert f(lam) == pytest.approx(interference_weight(lam, p), rel=1e-13)
    a, b = lam1**4 * f(lam2), lam2**4 * f(lam1)
    assert two_level_rho11(lam1, lam2, p) == pytest.approx(a / (a + b), rel=1e-13)


def test_two_level_equal_scales_is_half():
    assert two_level_rho11(1.3, 1.3, PARAMS) == 0.5


def test_two_level_alpha_zero_closed_form():
    p = AsymptoticParams(alpha=0.0)
    assert two_level_rho11(1.0, 2.0, p) == pytest.approx(1.0 / 17.0, abs=1e-15)


def test_two_level_extreme_ratio():
    p = AsymptoticParams(alpha=0.0)
    assert two_level_rho11(1e-3, 1.0, p) < 1e-10


def test_two_level_complement_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        l1, l2 = rng.uniform(0.2, 5.0, 2)
        for alpha in (0.0, 1.0, 0.5 + 0.5j):
            p = AsymptoticParams(alpha=alpha)
            assert two_level_rho11(l1, l2, p) + two_level_rho11(l2, l1, p) == 1.0


@pytest.mark.parametrize(
    "lam1, lam2, params, message",
    [
        (1e100, 2.0, PARAMS, r"lambda\*\*4 is not finite"),
        (1e70, 2.0, AsymptoticParams(gamma_immirzi=1e300, regge_action=1e10),
         "phase 2 lambda gamma S is not finite"),
        (1.0, 2.0, AsymptoticParams(alpha=1e308, n_plus_abs=1e308),
         "interference weight is not finite"),
        (1e77, 1e77, AsymptoticParams(alpha=1e308), "are infinite"),
    ],
    ids=["fourth_power", "phase", "weight", "both_rates"],
)
def test_two_level_names_a_quantity_that_is_not_finite(lam1, lam2, params, message):
    with pytest.raises(ValueError, match=message):
        two_level_rho11(lam1, lam2, params)


def test_two_level_rates_whose_sum_overflows():
    # Each rate is finite, their sum is not: the shares are still exact.
    p = AsymptoticParams(alpha=0.0)
    assert two_level_rho11(1e77, 1e77, p) == 0.5
    assert two_level_rho11(1e77, 2.0, p) == 1.0
    assert two_level_rho11(1e77, 9e76, p) + two_level_rho11(9e76, 1e77, p) == 1.0


def test_two_level_degenerate_error():
    # a vanishing oscillation with alpha = -1 makes f exactly zero
    p = AsymptoticParams(gamma_immirzi=1.0, regge_action=0.0, alpha=-1.0)
    with pytest.raises(DegenerateSteadyStateError):
        two_level_rho11(1.0, 2.0, p)


def test_label_str():
    assert label_str("3/2") == "3/2"
    assert label_str(("1/2", 1, "3/2")) == "(1/2,1,3/2)"
