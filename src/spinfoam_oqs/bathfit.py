"""Fit a simplified two-vertex model to a target amplitude table.

The simplified model is a pair of unconnected tetrahedral vertices whose
free boundary spins carry a linear superposition of basis assignments.
The model table is rank one and linear in real weights on each vertex,
so the distance between unit-normalized flattened amplitude tables has a
closed-form global minimum: the top singular pair of the whitened
cross-Gram matrix (Hotelling's canonical correlations).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .amplitudes import TransitionMatrix, label_spins, vertex_amplitudes
from .recoupling import Spin, as_spin


def cost(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance of the unit-normalized complex vectors, in [0, 2].

    Invariant under independent global complex rescaling of either input.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("cost inputs must have equal length")
    return float(np.linalg.norm(_unit(a) - _unit(b)))


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v|."""
    v = _in_range(v)
    return v / np.linalg.norm(v)


def _in_range(v: np.ndarray) -> np.ndarray:
    """v, divided by its largest |entry| when that lies outside (1e-150,
    1e150), so that sums of squares of its entries cannot underflow or
    overflow."""
    scale = np.max(np.abs(v), initial=0.0)
    if scale == 0:
        raise ValueError("cost inputs must have nonzero norm")
    return v / scale if not 1e-150 < scale < 1e150 else v


@dataclass(frozen=True)
class TwoVertexModel:
    """Factorized amplitudes W[n, m] = Wv_out(n) * Wv_in(m).

    Each vertex amplitude is linear in its bath weights:
    Wv(label; theta) = sum_b theta_b * vertex(label spins, bath triple b).
    """

    basis: tuple
    bath_triples_in: tuple[tuple[Spin, Spin, Spin], ...]
    bath_triples_out: tuple[tuple[Spin, Spin, Spin], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "bath_triples_in",
            tuple(tuple(as_spin(s) for s in t) for t in self.bath_triples_in),
        )
        object.__setattr__(
            self,
            "bath_triples_out",
            tuple(tuple(as_spin(s) for s in t) for t in self.bath_triples_out),
        )

    @property
    def n_params(self) -> int:
        return len(self.bath_triples_in) + len(self.bath_triples_out)

    def _amplitude_table(self, triples) -> np.ndarray:
        labels = np.array(
            [[s.twice_j for s in label_spins(label, 3)] for label in self.basis], dtype=np.int64
        ).reshape(-1, 3)
        baths = np.array([[s.twice_j for s in t] for t in triples], dtype=np.int64).reshape(-1, 3)
        rows = np.hstack([np.repeat(labels, len(baths), axis=0), np.tile(baths, (len(labels), 1))])
        table = vertex_amplitudes(rows).reshape(len(labels), len(baths))
        table.flags.writeable = False
        return table

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            self._amplitude_table(self.bath_triples_in),
            self._amplitude_table(self.bath_triples_out),
        )

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The (read-only) in and out vertex tables, built on first use."""
        return self._tables

    def matrix(self, params: Sequence[float]) -> np.ndarray:
        theta = np.asarray(params, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters")
        k = len(self.bath_triples_in)
        table_in, table_out = self.tables()
        w_in = table_in @ theta[:k]
        w_out = table_out @ theta[k:]
        return np.outer(w_out, w_in)

    def flattened(self, params: Sequence[float]) -> np.ndarray:
        """The model table as one vector, as ``perfbench/checks.py`` recomputes a fit's cost."""
        return self.matrix(params).reshape(-1)


@dataclass(frozen=True)
class FitProblem:
    """Target table and simplified model; the seed drives the cost sampling."""

    target: TransitionMatrix
    model: TwoVertexModel
    seed: int = 0
    tables: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        if self.model.n_params < 1:
            raise ValueError("model needs at least one parameter")
        if self.target.dim != len(self.model.basis):
            raise ValueError("target dimension does not match the model basis")
        if np.linalg.norm(self.target.flatten()) == 0:
            raise ValueError("target amplitude table has zero norm")
        tables = self.model.tables()
        for side, table in zip(("in", "out"), tables):
            if not np.any(table):
                raise ValueError(
                    f"{side} vertex amplitude table is all zero: no bath triple "
                    "couples to any basis label"
                )
        object.__setattr__(self, "tables", tables)


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    cost: float
    evaluations: int
    seed: int
    status: str  # always "ok": the minimum is found in closed form


# Gram eigenvalues below this fraction of the largest span the table's
# numerical null space; their directions carry no amplitude.
_NULL_RATIO = 1e-12


def _whitened_range(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitening weights and their orthonormal images under the table.

    The real Gram matrix Re(T^H T) of a complex table T is the Gram matrix
    of the stacked real table [Re T; Im T], so its eigenvectors V and
    eigenvalues s^2 come from that table's SVD without squaring the
    condition number.  Returns the real weights V / s, which satisfy
    W^T Re(T^H T) W = I, and T W, whose columns are orthonormal.
    """
    d = table.shape[0]
    u, s, vt = np.linalg.svd(np.vstack([table.real, table.imag]), full_matrices=False)
    keep = s**2 > _NULL_RATIO * s[0] ** 2
    return vt[keep].T / s[keep], u[:d, keep] + 1j * u[d:, keep]


def fit_bath(problem: FitProblem) -> FitResult:
    """Global minimum of the cost over real weights, in closed form.

    With w_out = A x and w_in = B y, the cost is sqrt(2 - 2 rho) where
    rho = x^T M y / (|A x| |B y| |T|) and M = Re(A^H T conj(B)).  Whitening
    both vertex Gram matrices turns the maximum of rho into the top
    singular value of the whitened M; its singular vectors give the
    weights.  The reported cost is evaluated at the returned parameters.
    """
    table_in, table_out = problem.tables
    white_in, image_in = _whitened_range(table_in)
    white_out, image_out = _whitened_range(table_out)
    # The whitened M is Re(U_out^H T conj(U_in)) with U = table @ whitener.
    u, _, vt = np.linalg.svd(
        np.real(image_out.conj().T @ problem.target.entries @ image_in.conj())
    )
    theta_in, theta_out = white_in @ vt[0], white_out @ u[:, 0]
    flat = np.outer(table_out @ theta_out, table_in @ theta_in)
    return FitResult(
        params=np.concatenate([theta_in, theta_out]),
        cost=cost(problem.target.flatten(), flat),
        evaluations=1,
        seed=problem.seed,
        status="ok",
    )


@dataclass(frozen=True)
class CostHistogram:
    """Binned cost density with bin width 0.1 over [0, 2]."""

    bin_left: tuple[float, ...]
    density: tuple[float, ...]
    counts: tuple[int, ...]
    minimum: float
    maximum: float
    mean: float
    n_samples: int

    BIN_WIDTH = 0.1


# Bath triples covering every link-parity pattern, with pair sums large
# enough to keep the triangle rules satisfiable against labels up to 5/2.
PARITY_COVERING_BATH: tuple[tuple[str, str, str], ...] = (
    ("1", "2", "2"),
    ("2", "2", "2"),
    ("3/2", "3/2", "3/2"),
    ("3/2", "3/2", "2"),
    ("2", "2", "3/2"),
    ("3/2", "2", "3/2"),
    ("2", "3/2", "2"),
    ("2", "3/2", "3/2"),
    ("3/2", "2", "2"),
)


class RetryBudgetExhausted(RuntimeError):
    """A random spin triple failed to satisfy the triangle rule within the retry budget."""


# Redraws of one attempt's three spins before the attempt gives up.
_MAX_REDRAWS = 1000


def admissible_triple_basis(
    n_labels: int,
    j_min="1/2",
    j_max="5/2",
    seed: int = 0,
    max_attempts: int = 10000,
) -> tuple[tuple[Spin, Spin, Spin], ...]:
    """Distinct admissible spin triples, each sorted, in the order first drawn.

    Attempt a draws three 2j values uniformly from [2 j_min, 2 j_max] with
    ``random.Random(seed + a)`` and redraws all three, up to 1000 times,
    until they satisfy the triangle rule (RetryBudgetExhausted otherwise).
    Each basis element is the boundary of a single trivalent node, the
    reduced state used throughout the fitting pipeline.
    """
    lo, hi = as_spin(j_min), as_spin(j_max)
    if lo.twice_j > hi.twice_j:
        raise ValueError(f"empty spin range [{lo}, {hi}]")
    twice_j = range(lo.twice_j, hi.twice_j + 1)
    labels: list[tuple[int, int, int]] = []
    attempt = 0
    while len(labels) < n_labels:
        if attempt >= max_attempts:
            # Sorted a <= b <= c close a triangle when c <= a + b and the sum is even.
            held = sum(1 for a, b, c in itertools.combinations_with_replacement(twice_j, 3)
                       if (a + b + c) % 2 == 0 and c <= a + b)
            raise ValueError(
                f"found {len(labels)} distinct admissible triples in {attempt} attempts; "
                f"[{lo}, {hi}] holds {held}; asked for {n_labels}"
            )
        rng = random.Random(seed + attempt)
        attempt += 1
        for _ in range(1 + _MAX_REDRAWS):
            a, b, c = rng.choice(twice_j), rng.choice(twice_j), rng.choice(twice_j)
            if (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b:
                break
        else:  # the triple labels the links of one trivalent node, node 0
            raise RetryBudgetExhausted(
                f"no admissible labeling found for node 0 within {_MAX_REDRAWS} resamples"
            )
        triple = tuple(sorted((a, b, c)))
        if triple not in labels:
            labels.append(triple)
    return tuple(tuple(Spin(t) for t in triple) for triple in labels)


# The parity-covering bath as spins, parsed once.
_STANDARD_BATH = tuple(tuple(as_spin(s) for s in t) for t in PARITY_COVERING_BATH)


def standard_model(basis) -> TwoVertexModel:
    """Two-vertex model with the parity-covering bath on both vertices."""
    return TwoVertexModel(tuple(basis), _STANDARD_BATH, _STANDARD_BATH)


def basis_from_network_file(path) -> tuple[tuple[Spin, Spin, Spin], ...]:
    """Read basis triples from a textual spin-network file.

    Every trivalent node of the network contributes one reduced-state
    label: the sorted spins of its three incident links.
    """
    from .spin_network import parse_network

    with open(path, "r", encoding="utf-8") as fh:
        net = parse_network(fh.read())
    labels: list[tuple[Spin, Spin, Spin]] = []
    for node in sorted(net.nodes):
        incident = net.incident_links(node)
        if len(incident) != 3:
            raise ValueError(
                f"node {node} has valence {len(incident)}; basis nodes must be trivalent"
            )
        triple = tuple(sorted((l.spin for l in incident), key=lambda s: s.twice_j))
        labels.append(triple)
    if not labels:
        raise ValueError("network file contains no nodes")
    return tuple(labels)


def chain_target(
    n_vertices: int,
    basis,
    internal_max="2",
    j_max="5/2",
) -> TransitionMatrix:
    """Amplitude table of a one-edge-glued chain foam over the basis."""
    from .amplitudes import FoamProvider, chain_foam, transition_matrix

    foam = chain_foam(
        n_vertices, internal_range=(Spin(0), as_spin(internal_max))
    )
    provider = FoamProvider(
        foam, in_links=(0, 1, 2), out_links=(3, 4, 5), bath=None, j_max=j_max
    )
    return transition_matrix(provider, list(basis))


# Draws per batch of the sampler; bounds the (chunk, n_params) draws and
# the (chunk, d) vertex weights held at once.  Chunks are consecutive
# row-major blocks of one stream, so the chunk size never changes a draw.
_SAMPLE_CHUNK = 512

# Below this cost, 2 - 2 rho has cancelled to an error of about 1e-16 / c,
# so the cost is recomputed from the unit model table itself.
_DIRECT_BELOW = 1e-6


def _real_lift(table: np.ndarray) -> np.ndarray:
    """The real (k, 2d) map of weights theta to [Re w, Im w], w = table theta.

    The table is first brought into range as ``_unit`` does; the cost
    ignores each vertex's scale.
    """
    table = _in_range(table)
    return np.hstack([table.real.T, table.imag.T])


def _sample_costs(problem: FitProblem, n: int) -> np.ndarray:
    """Cost at each of n seeded draws from the per-vertex weight simplexes.

    One real (n_params, 4d) lift maps a chunk of draws to the real and
    imaginary parts of both vertices' weights, and one real (2d, 2d) block
    maps w_in to conj(T) w_in, so the overlap and both norms are real row
    dots over the terms of the complex d-term sums; no complex array is
    made per chunk.
    """
    table_in, table_out = problem.tables
    target_unit = _unit(problem.target.entries)
    k, d = table_in.shape[1], len(target_unit)
    lift = np.zeros((problem.model.n_params, 4 * d))
    lift[:k, : 2 * d], lift[k:, 2 * d :] = _real_lift(table_in), _real_lift(table_out)
    # [Re w_in, Im w_in] @ conj_target = [Re v, -Im v] with v = conj(T) w_in,
    # so Re(w_out . v) is the row dot of [Re w_out, Im w_out] with it.
    re, im = target_unit.real.T, target_unit.imag.T
    conj_target = np.block([[re, im], [im, -re]])
    rng = np.random.default_rng(problem.seed)

    values = np.empty(n)
    for lo in range(0, n, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, n)
        # One exponential per parameter: normalized per vertex, they are a
        # uniform point on each weight simplex, and the cost ignores the
        # normalization.
        theta = rng.standard_exponential((hi - lo, problem.model.n_params))
        # Per draw, [[Re w_in, Im w_in], [Re w_out, Im w_out]].
        weights = (theta @ lift).reshape(hi - lo, 2, 2 * d)
        # The cost is sqrt(2 - 2 rho), rho = Re<T, w_out w_in^T> / norms,
        # without forming the (chunk, d^2) outer products.
        overlap = np.einsum("ni,ni->n", weights[:, 1], weights[:, 0] @ conj_target)
        norms = np.sqrt(np.einsum("nvi,nvi->nv", weights, weights))
        norm = norms[:, 0] * norms[:, 1]
        dead = norm == 0
        rho = overlap / np.where(dead, 1.0, norm)
        chunk = np.where(dead, 2.0, np.sqrt(np.clip(2.0 - 2.0 * rho, 0.0, 4.0)))
        for row in np.flatnonzero(chunk < _DIRECT_BELOW):
            parts = weights[row].reshape(2, 2, d)
            w_in, w_out = parts[:, 0] + 1j * parts[:, 1]
            chunk[row] = np.linalg.norm(_unit(np.outer(w_out, w_in)) - target_unit)
        values[lo:hi] = chunk
    return values


def sample_cost_distribution(problem: FitProblem, n: int) -> CostHistogram:
    """Cost values at random model parameters, binned with width 0.1.

    Parameters are drawn uniformly from the per-vertex weight simplexes:
    draw i normalizes each vertex's share of row i of one
    ``np.random.default_rng(problem.seed)`` stream of exponentials, read
    row-major n_params at a time.  The first m draws of a run are
    therefore the draws of an m-draw run.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    values = _sample_costs(problem, n)
    edges = np.round(np.arange(0.0, 2.0 + CostHistogram.BIN_WIDTH, CostHistogram.BIN_WIDTH), 10)
    counts, _ = np.histogram(values, bins=edges)
    density = counts / (n * CostHistogram.BIN_WIDTH)
    return CostHistogram(
        bin_left=tuple(float(e) for e in edges[:-1]),
        density=tuple(float(d) for d in density),
        counts=tuple(int(c) for c in counts),
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=float(values.mean()),
        n_samples=n,
    )
