"""Fit a simplified two-vertex model to a target amplitude table.

The simplified model is a pair of unconnected tetrahedral vertices whose
free boundary spins carry a linear superposition of basis assignments.
The model table is rank one and linear in real weights on each vertex,
so the distance between unit-normalized flattened amplitude tables has a
closed-form global minimum: the top singular pair of the whitened
cross-Gram matrix (Hotelling's canonical correlations).
"""

from __future__ import annotations

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
    """v / |v|; entries far from 1 are rescaled first so |v|^2 cannot
    underflow or overflow."""
    scale = np.max(np.abs(v), initial=0.0)
    if scale == 0:
        raise ValueError("cost inputs must have nonzero norm")
    if not 1e-150 < scale < 1e150:
        v = v / scale
    return v / np.linalg.norm(v)


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


def admissible_triple_basis(
    n_labels: int,
    j_min="1/2",
    j_max="5/2",
    seed: int = 0,
    max_attempts: int = 10000,
) -> tuple[tuple[Spin, Spin, Spin], ...]:
    """Distinct admissible spin triples sampled from random node labelings.

    Each basis element is the boundary of a single trivalent node, the
    reduced state used throughout the fitting pipeline.
    """
    from .spin_network import NetworkTemplate, random_network

    lo, hi = as_spin(j_min), as_spin(j_max)
    template = NetworkTemplate(
        nodes=(0,),
        link_ends=((0, 0, None), (1, 0, None), (2, 0, None)),
        spin_ranges={i: (lo, hi) for i in range(3)},
    )
    labels: list[tuple[Spin, Spin, Spin]] = []
    attempt = 0
    while len(labels) < n_labels:
        if attempt >= max_attempts:
            raise ValueError(
                f"only {len(labels)} distinct admissible triples exist in "
                f"[{lo}, {hi}]; asked for {n_labels}"
            )
        net = random_network(template, seed=seed + attempt)
        attempt += 1
        triple = tuple(
            sorted((l.spin for l in net.links), key=lambda s: s.twice_j)
        )
        if triple not in labels:
            labels.append(triple)
    return tuple(labels)


def standard_model(basis) -> TwoVertexModel:
    """Two-vertex model with the parity-covering bath on both vertices."""
    bath = tuple(tuple(as_spin(s) for s in t) for t in PARITY_COVERING_BATH)
    return TwoVertexModel(tuple(basis), bath, bath)


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


# Draws per batch of the sampler; bounds the (chunk, d^2) work arrays of the
# cost evaluation and the Python ints held while seeding.
_SAMPLE_CHUNK = 512

# SeedSequence's hash constants and PCG64's LCG multiplier, as NumPy defines
# them (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h).
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int, n: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each i < n.

    SeedSequence hashes its entropy words with constants that do not depend
    on the data, so the pools and output words of all n sequences come from
    the same uint32 array operations.  The entropy is the seed's
    little-endian 32-bit words followed by i as one word.
    """
    if n >= 2**32:
        raise ValueError(f"n must be below 2**32 (one 32-bit draw index), got {n}")
    entropy = []
    while True:
        entropy.append(np.full(n, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(n, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # Eight output words cycled from the pool, paired little-endian.
    out_const, halves = _INIT_B, []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ out_const
        out_const = out_const * _MULT_B & _MASK32
        value = value * out_const
        halves.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)], axis=1)


def _pcg64_states(words: np.ndarray) -> tuple[list[int], list[int]]:
    """``state`` and ``inc`` of PCG64 seeded with each row's 64-bit words.

    PCG64 sets ``inc = seq << 1 | 1`` and takes two LCG steps around
    adding the initial state, with ``state = w0 w1`` and ``seq = w2 w3``.
    The words become Python ints, so the arithmetic is mod 2**128.
    """
    w = words.astype(object)
    inc = ((w[:, 2] << 64 | w[:, 3]) << 1 | 1) & _MASK128
    state = (((w[:, 0] << 64 | w[:, 1]) + inc) * _PCG64_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()


def _draws(seed: int, n: int, n_params: int) -> np.ndarray:
    """Row i is ``default_rng([seed, i]).exponential(1.0, n_params)``.

    One generator is restarted at each row's derived state instead of
    building n generators.  States are derived a chunk at a time, which
    keeps n of their Python ints from being held at once.
    """
    words = _seed_words(seed, n)
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    restart = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((n, n_params))
    for lo in range(0, n, _SAMPLE_CHUNK):
        states, incs = _pcg64_states(words[lo:lo + _SAMPLE_CHUNK])
        for row, state, inc in zip(draws[lo:lo + _SAMPLE_CHUNK], states, incs):
            restart["state"] = {"state": state, "inc": inc}
            bitgen.state = restart
            generator.standard_exponential(out=row)
    return draws


def _sample_costs(problem: FitProblem, n: int) -> np.ndarray:
    """Cost at each of n seeded draws from the per-vertex weight simplexes."""
    table_in, table_out = problem.tables
    target_flat = problem.target.flatten()
    target_unit = target_flat / np.linalg.norm(target_flat)

    # One exponential per parameter; normalizing each vertex's half gives
    # a uniform point on that vertex's weight simplex.
    draws = _draws(problem.seed, n, problem.model.n_params)
    k = table_in.shape[1]
    theta_in, theta_out = draws[:, :k], draws[:, k:]
    theta_in /= theta_in.sum(axis=1, keepdims=True)
    theta_out /= theta_out.sum(axis=1, keepdims=True)

    values = np.empty(n)
    for lo in range(0, n, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, n)
        w_in = theta_in[lo:hi] @ table_in.T
        w_out = theta_out[lo:hi] @ table_out.T
        flat = (w_out[:, :, None] * w_in[:, None, :]).reshape(hi - lo, -1)
        norm = np.linalg.norm(flat, axis=1)
        dead = norm == 0
        # In place, each row becomes its unit vector minus the target's.
        flat /= np.where(dead, 1.0, norm)[:, None]
        flat -= target_unit
        values[lo:hi] = np.where(dead, 2.0, np.linalg.norm(flat, axis=1))
    return values


def sample_cost_distribution(problem: FitProblem, n: int) -> CostHistogram:
    """Cost values at random model parameters, binned with width 0.1.

    Parameters are drawn uniformly from the per-vertex weight simplexes:
    draw i normalizes each vertex's share of the first n_params
    exponentials of ``np.random.default_rng([problem.seed, i])``.  The
    starting states of all n streams are derived in one vectorized pass,
    without building a generator per draw.  Each draw depends only on the
    seed and its index, so the first m draws of a run are the draws of an
    m-draw run.  Raises ``ValueError`` unless 1 <= n < 2**32: the index
    enters the seed as one 32-bit word.
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
