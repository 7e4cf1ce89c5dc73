"""Transition-amplitude providers and damping-matrix assembly.

Two backends fill the complex transition matrix W:

* a 3D recoupling backend that contracts products of tetrahedral vertex
  amplitudes (signed 6j symbols) over a small 2-complex, with boundary
  spins pinned or weighted by a boundary state;
* a large-spin analytic vertex with two interfering stationary-phase
  branches, used for closed-form two-level studies.

From W, normalized damping rates kappa are derived as squared moduli with
either normalization convention (over the out index by default).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .recoupling import _TRIADS, Spin, as_spin, wigner6j, wigner6j_batch

GAUSSIAN_TAIL_CUT = 1e-8
KAPPA_NORMALIZATION_TOL = 1e-12  # how far a kappa column (over_n) or row (over_m) sums from 1

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k for k mod 4
_PHASE_TABLE = np.array(_PHASES)


class DegenerateSteadyStateError(ValueError):
    """Both interference weights vanish; the two-level balance is undefined."""


class MissingBoundaryError(ValueError):
    """Boundary faces without a pinned or weighted spin assignment."""


class ProviderError(RuntimeError):
    """Amplitude provider failed while filling a matrix entry or the matrix."""


def vertex_amplitudes(rows) -> np.ndarray:
    """Signed tetrahedral vertex amplitude (-1)^(sum j) * {6j} of each row of
    an (N, 6) int64 array of 2j values.  A half-integer total spin makes the
    sign a complex unit, which is kept so enclosing sums interfere correctly."""
    return _PHASE_TABLE[rows.sum(axis=1) % 4] * wigner6j_batch(rows)


def pr_vertex(j1, j2, j3, j4, j5, j6) -> complex:
    """One signed vertex amplitude through the scalar ``wigner6j``: the
    reference ``vertex_amplitudes`` is checked against."""
    spins = tuple(as_spin(j) for j in (j1, j2, j3, j4, j5, j6))
    return _PHASES[sum(s.twice_j for s in spins) % 4] * wigner6j(*spins)


# ---------------------------------------------------------------------------
# Foam 2-complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Foam2Complex:
    """Small 2-complex whose vertices each expose six face slots.

    ``boundary_faces`` maps a face id to the boundary-network link it ends
    on; ``internal_faces`` maps a face id to its summed spin range.  A face
    id may appear in several vertices (shared face), but boundary faces
    must touch exactly one vertex.
    """

    vertex_faces: tuple[tuple[int, ...], ...]
    boundary_faces: Mapping[int, int]
    internal_faces: Mapping[int, tuple[Spin, Spin]]

    def __post_init__(self):
        object.__setattr__(self, "boundary_faces", dict(self.boundary_faces))
        object.__setattr__(self, "internal_faces", dict(self.internal_faces))
        declared = set(self.boundary_faces) | set(self.internal_faces)
        if set(self.boundary_faces) & set(self.internal_faces):
            raise ValueError("a face cannot be both boundary and internal")
        used: dict[int, int] = {}
        for v, faces in enumerate(self.vertex_faces):
            if len(faces) != 6:
                raise ValueError(f"vertex {v} exposes {len(faces)} faces, expected 6")
            for f in faces:
                used[f] = used.get(f, 0) + 1
                if f not in declared:
                    raise ValueError(f"face {f} of vertex {v} is undeclared")
        for f in self.boundary_faces:
            if used.get(f, 0) != 1:
                raise ValueError(f"boundary face {f} must touch exactly one vertex")
        for f in self.internal_faces:
            if f not in used:
                raise ValueError(f"internal face {f} touches no vertex")


def single_vertex_foam() -> Foam2Complex:
    """One tetrahedral vertex, all six faces on the boundary (links 0..5)."""
    return Foam2Complex(
        vertex_faces=((0, 1, 2, 3, 4, 5),),
        boundary_faces={f: f for f in range(6)},
        internal_faces={},
    )


def disconnected_pair_foam() -> Foam2Complex:
    """Two vertices with no shared faces; boundary links 0..11."""
    return Foam2Complex(
        vertex_faces=((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)),
        boundary_faces={f: f for f in range(12)},
        internal_faces={},
    )


def chain_foam(
    n_vertices: int,
    internal_range: tuple[Spin, Spin] | None = None,
) -> Foam2Complex:
    """Chain of vertices glued one-by-one, three shared faces per gluing.

    The first vertex keeps three boundary faces (links 0,1,2, the in slot),
    the last keeps three (links 3,4,5, the out slot); every gluing
    contributes three internal faces.
    """
    if n_vertices < 2:
        raise ValueError("a chain needs at least 2 vertices")
    lo, hi = internal_range if internal_range is not None else (Spin(0), Spin(8))
    next_face = 0

    def take(k):
        nonlocal next_face
        out = tuple(range(next_face, next_face + k))
        next_face += k
        return out

    in_faces = take(3)
    shared = [take(3) for _ in range(n_vertices - 1)]
    out_faces = take(3)

    vertex_faces = []
    for v in range(n_vertices):
        left = in_faces if v == 0 else shared[v - 1]
        right = out_faces if v == n_vertices - 1 else shared[v]
        vertex_faces.append(tuple(left) + tuple(right))

    boundary = {f: i for i, f in enumerate(in_faces)}
    boundary.update({f: 3 + i for i, f in enumerate(out_faces)})
    internal = {f: (lo, hi) for grp in shared for f in grp}
    return Foam2Complex(tuple(vertex_faces), boundary, internal)


def bridged_pair_foam(internal_range: tuple[Spin, Spin] | None = None) -> Foam2Complex:
    """Two vertices sharing a single face, four free boundary links.

    Boundary links: 0,1,2 = in slot (vertex 0), 3,4,5 = out slot
    (vertex 1), 6..9 = bath links (two per vertex).  Face 12 is shared and
    summed.
    """
    lo, hi = internal_range if internal_range is not None else (Spin(0), Spin(8))
    return Foam2Complex(
        vertex_faces=((0, 1, 2, 6, 7, 12), (12, 8, 9, 3, 4, 5)),
        boundary_faces={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9},
        internal_faces={12: (lo, hi)},
    )


def cascade_pair_foam(internal_range: tuple[Spin, Spin] | None = None) -> Foam2Complex:
    """Two vertices sharing one face, arranged so one boundary link per
    vertex sits in a triangle with the shared face.

    Link 0 (vertex 0) and link 3 (vertex 1) are those distinguished
    single-link slots; the spins of links 7 and 8 close the triangles
    around the shared face 12 and therefore gate how far the shared spin
    can stray from the slot labels.  Links 1,2,4,5,6,9 are free bath
    links.
    """
    lo, hi = internal_range if internal_range is not None else (Spin(0), Spin(8))
    return Foam2Complex(
        vertex_faces=((0, 7, 12, 6, 1, 2), (3, 8, 12, 9, 4, 5)),
        boundary_faces={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9},
        internal_faces={12: (lo, hi)},
    )


# ---------------------------------------------------------------------------
# Boundary states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkWeight:
    """Per-link weight profile over the spin grid.

    Delta profiles pin a grid spin; gaussian profiles weigh the grid by
    exp(-(j - j0)^2 / sqrt(j0)) around a positive (not necessarily
    half-integer) center.
    """

    kind: str  # "delta" | "gaussian"
    center: Spin | float

    def __post_init__(self):
        if self.kind == "delta":
            object.__setattr__(self, "center", as_spin(self.center))
        elif self.kind == "gaussian":
            j0 = float(
                self.center.j if isinstance(self.center, Spin) else self.center
            )
            if j0 <= 0:
                raise ValueError("gaussian weight needs a positive center")
            object.__setattr__(self, "center", j0)
        else:
            raise ValueError(f"unknown link weight kind {self.kind!r}")

    def vector(self, top: int) -> np.ndarray:
        """Weights of the 2j values 0..``top``."""
        if self.kind == "delta":
            return np.array(
                [1.0 if t == self.center.twice_j else 0.0 for t in range(top + 1)], dtype=complex
            )
        j0 = float(self.center)
        w = np.array(
            [math.exp(-((t / 2 - j0) ** 2) / math.sqrt(j0)) for t in range(top + 1)],
            dtype=float,
        )
        w[w < GAUSSIAN_TAIL_CUT * w.max()] = 0.0
        return w.astype(complex)


class BoundaryState:
    """Finite superposition of product weights over boundary links."""

    def __init__(self, terms: Sequence[tuple[complex, Mapping[int, LinkWeight]]]):
        self.terms: tuple[tuple[complex, dict[int, LinkWeight]], ...] = tuple(
            (complex(w), dict(links)) for w, links in terms
        )
        if not self.terms or all(w == 0 for w, _ in self.terms):
            raise ValueError("boundary state needs at least one nonzero term")
        links0 = set(self.terms[0][1])
        for _, links in self.terms:
            if set(links) != links0:
                raise ValueError("all terms must cover the same links")

    @property
    def links(self) -> frozenset[int]:
        return frozenset(self.terms[0][1])

    @classmethod
    def delta(cls, assignment: Mapping[int, Spin | float | str], weight: complex = 1.0):
        return cls(
            [(weight, {l: LinkWeight("delta", as_spin(s)) for l, s in assignment.items()})]
        )

    @classmethod
    def gaussian(cls, centers: Mapping[int, Spin | float], weight: complex = 1.0):
        return cls([(weight, {l: LinkWeight("gaussian", s) for l, s in centers.items()})])

    @classmethod
    def superposition(cls, terms: Sequence[tuple[complex, Mapping[int, Spin | float | str]]]):
        return cls(
            [
                (w, {l: LinkWeight("delta", as_spin(s)) for l, s in assignment.items()})
                for w, assignment in terms
            ]
        )

    def merged(self, other: "BoundaryState") -> "BoundaryState":
        """Product state over the disjoint union of the two link sets."""
        if self.links & other.links:
            raise ValueError("cannot merge boundary states sharing links")
        merged = [
            (wa * wb, {**la, **lb})
            for wa, la in self.terms
            for wb, lb in other.terms
        ]
        return BoundaryState(merged)


@dataclass(frozen=True)
class TiedGaussianBath:
    """Gaussian bath whose centres follow the pinned basis labels.

    For the entry W[n, m], each in-link is weighted by a gaussian centred
    on the spin of the in label m and each out-link by one centred on the
    spin of the out label n.  Labels must be single spins.
    """

    in_links: tuple[int, ...]
    out_links: tuple[int, ...]

    def __post_init__(self):
        for name in ("in_links", "out_links"):
            links = tuple(getattr(self, name))
            for l in links:
                if isinstance(l, bool) or not isinstance(l, (int, np.integer)):
                    raise TypeError(f"tied bath {name} must be integer link indices, got {l!r}")
            object.__setattr__(self, name, tuple(int(l) for l in links))
        if set(self.in_links) & set(self.out_links):
            raise ValueError("a tied bath link cannot follow both labels")

    @property
    def links(self) -> frozenset[int]:
        return frozenset(self.in_links + self.out_links)

    def tables(self, labels, top: int) -> dict[int, tuple[int, np.ndarray]]:
        """Per link: (open axis, weight table with one row per label over 2j = 0..``top``).

        In-links take the column axis 1 and out-links the row axis 0.
        """
        rows = []
        for label in labels:
            if isinstance(label, (tuple, list)):
                raise ValueError(
                    f"a tied gaussian bath needs single-spin labels, got {label_str(label)}"
                )
            rows.append(LinkWeight("gaussian", as_spin(label)).vector(top))
        table = np.array(rows).reshape(len(labels), top + 1)
        out = {l: (1, table) for l in self.in_links}
        out.update({l: (0, table) for l in self.out_links})
        return out


# ---------------------------------------------------------------------------
# 3D transition amplitude
# ---------------------------------------------------------------------------

# Every vertex tensor is gathered from one "cube" per 2j bound J: the
# signed amplitude at each entry of six 2j values from 0 to J.  Entries
# that fail a triad are zero from the start; the others are unfilled
# until a gather first meets them.  The cubes, keyed by J, are the only
# tensor cache.  Their summed entries stay within the bound below: a J
# whose cube alone exceeds it builds each tensor afresh, and a new cube
# that would take the sum past it clears the others first.
_CUBES: dict[int, np.ndarray] = {}
_TENSOR_CACHE_MAX_ENTRIES = 1 << 20
_cache_lock = threading.Lock()

# NaN in both parts, so that an entry another thread has half written
# still reads as unfilled; fills write values that do not depend on order.
_UNFILLED = complex(math.nan, math.nan)

# Stands in for a label spin above j_max.  Every face lies in two triads
# and -1 fails the triangle rule in any position, so tensor entries at
# that label index stay zero, as the empty delta support of the spin does
# on the per-entry path.
_OFF_GRID = -1


def _triangle(ta, tb, tc) -> np.ndarray:
    """Where the broadcast 2j values satisfy the triangle rule."""
    return ((ta + tb + tc) % 2 == 0) & (np.abs(ta - tb) <= tc) & (tc <= ta + tb)


def _vertex_tensor(tjs: Sequence[tuple[int, ...]], pattern: tuple[int, ...]) -> np.ndarray:
    """Tetrahedral amplitudes over the distinct face axes of one vertex.

    ``tjs[k]`` lists the 2j values along the axis of slot k, and
    ``pattern[k]`` numbers that axis by first appearance; slots on one
    axis (the faces pinned to one basis label) take one index, so the
    tensor has one dimension per distinct axis.  Each triad's triangle
    rule is checked over the grid at once; the 6j symbols of the entries
    where all four hold come from one batched lookup, and every other
    entry is zero.
    """
    n_axes = max(pattern) + 1
    dims = [0] * n_axes
    face = []
    for k, axis in enumerate(pattern):
        dims[axis] = len(tjs[k])
        shape = [1] * n_axes
        shape[axis] = -1
        face.append(np.array(tjs[k], dtype=np.int64).reshape(shape))
    ok = np.ones(dims, dtype=bool)
    for a, b, c in _TRIADS:
        ok &= _triangle(face[a], face[b], face[c])
    index = np.nonzero(ok)
    rows = np.stack([face[k].ravel()[index[axis]] for k, axis in enumerate(pattern)], axis=1)
    T = np.zeros(dims, dtype=complex)
    T[index] = vertex_amplitudes(rows)
    T.flags.writeable = False
    return T


def _admissible_entries(n: int) -> np.ndarray:
    """Flat indices of the admissible entries of an (n,)*6 cube over slots
    (a, b, c, d, e, f): each (a, b, c, d, e) that closes triads abc and
    dec, times each f that closes aef and dbf.  Touches no cube entry."""
    a, b, c = np.ix_(*(np.arange(n),) * 3)
    closed = _triangle(a, b, c)  # symmetric in its three spins
    front = np.flatnonzero(closed[:, :, :, None, None] & closed)
    a, b, d, e = front // n**4, front // n**3 % n, front // n % n, front % n
    pairs = closed.reshape(n * n, n)
    back = np.flatnonzero(pairs[a * n + e] & pairs[d * n + b])
    return front[back // n] * n + back % n


def _cube(top: int) -> np.ndarray | None:
    """The cube of 2j bound ``top``, made on first use; None when its
    (top + 1)^6 entries exceed the cache bound.  It stays writable until
    a gather has filled all of it."""
    n = top + 1
    if n**6 > _TENSOR_CACHE_MAX_ENTRIES:
        return None
    with _cache_lock:
        cube = _CUBES.get(top)
        if cube is None:
            if sum(c.size for c in _CUBES.values()) + n**6 > _TENSOR_CACHE_MAX_ENTRIES:
                _CUBES.clear()
            cube = np.zeros(n**6, dtype=complex)
            cube[_admissible_entries(n)] = _UNFILLED
            cube = _CUBES[top] = cube.reshape((n,) * 6)
    return cube


def _gathered_tensor(tjs: Sequence[tuple[int, ...]], pattern: tuple[int, ...], top: int) -> np.ndarray:
    """``_vertex_tensor(tjs, pattern)`` gathered from the cube of 2j bound
    ``top``, which every value in ``tjs`` but ``_OFF_GRID`` lies under.

    A slot alone on its axis over a run of consecutive 2j values is a
    slice; every other axis is one gather over its slots.  Entries at an
    off-grid label are zeroed, and only the unfilled entries left get
    their amplitudes, which are written back to the cube.  The result is
    a new C-ordered array, like ``_vertex_tensor``'s, so contractions over
    it sum in the same order; over the whole cube it is the cube itself,
    filled and read-only.
    """
    cube = _cube(top)
    if cube is None:
        return _vertex_tensor(tjs, pattern)
    filled = not cube.flags.writeable  # read before gathering: a filled cube stays so
    slots = [[k for k, a in enumerate(pattern) if a == axis] for axis in range(max(pattern) + 1)]
    cut, gathers = [slice(None)] * 6, []
    for axis, ks in enumerate(slots):
        grid = tuple(tjs[ks[0]])
        if len(ks) == 1 and grid and grid[0] >= 0 and grid == tuple(range(grid[0], grid[0] + len(grid))):
            cut[ks[0]] = slice(grid[0], grid[0] + len(grid))
        else:
            gathers.append(axis)
    X, held = cube[tuple(cut)], list(pattern)  # held: the tensor axis of each dim of X
    for axis in gathers:
        at = [i for i, a in enumerate(held) if a == axis]
        rest = [i for i in range(X.ndim) if i not in at]
        X = X.transpose(at + rest)[tuple(np.array(tjs[k], dtype=np.intp) for k in slots[axis])]
        held = [axis] + [held[i] for i in rest]
    whole = X.size == cube.size and not gathers
    if whole:
        T = cube
    elif gathers:
        T = np.ascontiguousarray(X.transpose(np.argsort(held)))
    else:
        T = X.copy()
    for axis in gathers:
        if any(_OFF_GRID in tjs[k] for k in slots[axis]):
            off = np.logical_or.reduce([np.array(tjs[k]) == _OFF_GRID for k in slots[axis]])
            T[(slice(None),) * axis + (off,)] = 0
    if not filled:
        unfilled = np.isnan(T)
        if unfilled.any():
            index = np.nonzero(unfilled)
            rows = np.stack([np.array(tjs[k])[index[axis]] for k, axis in enumerate(pattern)], axis=1)
            values = vertex_amplitudes(rows)
            with _cache_lock:
                if cube.flags.writeable:
                    cube[tuple(rows.T)] = values
            if not whole:
                T[index] = values
        if whole:
            with _cache_lock:
                cube.flags.writeable = False
    T.flags.writeable = False
    return T


def _contract_foam(
    foam: Foam2Complex,
    terms: Sequence[tuple[complex, Mapping[int, LinkWeight | tuple[int, np.ndarray]]]],
    top: int,
    pins: Mapping[int, tuple[int, tuple[int, ...]]] | None = None,
    shape: tuple[int, ...] = (),
) -> np.ndarray:
    """Contract the foam against weighted boundary terms, one einsum each.

    Every spin is its 2j value, and ``top`` is 2j_max.  ``pins`` maps a
    boundary link to ``(axis, twice_js)``: its faces take output axis
    ``axis`` of ``shape``, with 2j ``twice_js[i]`` at index i.  The other
    boundary links are weighted by each term's link weights: a LinkWeight,
    or ``(axis, table)`` for a weight that follows the labels, whose row i
    weighs 2j = 0..``top`` at index i of output axis ``axis``.  Internal
    faces are summed with the (-1)^j (2j+1) measure over their range
    clipped to ``top``.  Returns an array of ``shape``.
    """
    pins = pins or {}
    needed = set(foam.boundary_faces.values())
    missing = needed - set(pins) - set(terms[0][1])
    if missing:
        faces = sorted(f for f, l in foam.boundary_faces.items() if l in missing)
        raise MissingBoundaryError(
            f"boundary faces {faces} (links {sorted(missing)}) have no assignment"
        )

    free, measures = {}, {}
    for f, (lo, hi) in foam.internal_faces.items():
        tjs = tuple(range(lo.twice_j, min(hi.twice_j, top) + 1))
        if not tjs:
            raise ValueError(f"internal face {f} has an empty grid under j_max={Spin(top)}")
        if tjs not in measures:
            measures[tjs] = np.array([_PHASES[t % 4] * (t + 1) for t in tjs], dtype=complex)
        free[f] = (tjs, measures[tjs])

    pinned = {f: pins[l] for f, l in foam.boundary_faces.items() if l in pins}
    order = sorted(set(foam.internal_faces) | (set(foam.boundary_faces) - set(pinned)))
    axis_of = {f: i for i, f in enumerate(order)}
    open_ids = [len(order) + a for a in range(len(shape))]
    label_grid = {}
    for f, (axis, tjs) in pinned.items():
        axis_of[f] = open_ids[axis]
        label_grid[f] = tuple(t if t <= top else _OFF_GRID for t in tjs)

    built: dict[tuple, np.ndarray] = {}
    total = np.zeros(shape, dtype=complex)
    for weight, link_weights in terms:
        if weight == 0:
            continue
        grids = dict(label_grid)
        weights = []
        for f, link in foam.boundary_faces.items():
            if f in pinned:
                continue
            link_weight = link_weights[link]
            if isinstance(link_weight, LinkWeight):
                vec, axes = link_weight.vector(top), [axis_of[f]]
                support = np.flatnonzero(vec)
            else:
                axis, vec = link_weight
                axes = [open_ids[axis], axis_of[f]]
                support = np.flatnonzero(vec.any(axis=0))
            if support.size == 0:
                break
            grids[f] = tuple(int(t) for t in support)
            weights.append((vec[..., support], axes))
        else:
            for f, (tjs, vec) in free.items():
                grids[f] = tjs
                weights.append((vec, [axis_of[f]]))
            args = []
            for faces in foam.vertex_faces:
                axes = [axis_of[f] for f in faces]
                distinct = list(dict.fromkeys(axes))
                pattern = tuple(distinct.index(a) for a in axes)
                tjs = tuple(grids[f] for f in faces)
                key = (tjs, pattern)
                T = built.get(key)
                if T is None:
                    T = built[key] = _gathered_tensor(tjs, pattern, top)
                args.extend((T, distinct))
            for vec, axes in weights:
                args.extend((vec, axes))
            used = {a for axes in args[1::2] for a in axes}
            for i, n in zip(open_ids, shape):
                if i not in used:
                    args.extend((np.ones(n), [i]))
            args.append(open_ids)
            total += weight * _einsum(args)
    return total


# Greedy contraction paths by operand shapes and subscripts.  A path is a
# few tuples; the search is most of a small contraction's cost.
_EINSUM_PATHS: dict[tuple, list] = {}
_EINSUM_PATHS_MAX = 1 << 12


def _einsum(args: list) -> np.ndarray:
    """``np.einsum(*args, optimize=True)``, reusing the greedy path."""
    key = tuple(a.shape if isinstance(a, np.ndarray) else tuple(a) for a in args)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(*args, optimize="greedy")[0]
        with _cache_lock:
            if len(_EINSUM_PATHS) >= _EINSUM_PATHS_MAX:
                _EINSUM_PATHS.clear()
            _EINSUM_PATHS[key] = path
    return np.einsum(*args, optimize=path)


def pr_transition(
    foam: Foam2Complex,
    boundary: BoundaryState,
    j_max: Spin | float | str = Spin(8),
) -> complex:
    """Contract the foam amplitude against a boundary state.

    Internal faces are summed with the (-1)^j (2j+1) measure over their
    declared range clipped to ``j_max``; overall normalization is fixed to
    one (all downstream rates divide it out).  Summation order is
    deterministic.
    """
    return complex(_contract_foam(foam, boundary.terms, as_spin(j_max).twice_j))


# ---------------------------------------------------------------------------
# Transition matrices and damping rates
# ---------------------------------------------------------------------------

def label_spins(label, n_slots: int) -> tuple[Spin, ...]:
    """A basis label is one spin (replicated) or a tuple of slot spins."""
    if isinstance(label, (tuple, list)):
        spins = tuple(as_spin(s) for s in label)
        if len(spins) != n_slots:
            raise ValueError(f"label {label!r} does not fill {n_slots} slots")
        return spins
    return (as_spin(label),) * n_slots


def label_str(label) -> str:
    try:
        if isinstance(label, (tuple, list)):
            return "(" + ",".join(str(as_spin(s)) for s in label) + ")"
        return str(as_spin(label))
    except (ValueError, TypeError):
        return str(label)


@dataclass(frozen=True)
class TransitionMatrix:
    """Complex amplitudes W[n, m]: out state n (row), in state m (column)."""

    basis: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] != len(self.basis):
            raise ValueError("entries must be square and match the basis")
        if not np.all(np.isfinite(e)):
            raise ValueError("non-finite transition amplitude")
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def flatten(self) -> np.ndarray:
        return self.entries.reshape(-1)


@dataclass(frozen=True)
class KappaMatrix:
    """Non-negative normalized damping rates kappa[n, m].

    Under the ``over_n`` convention each column (fixed in state m) sums to
    one; under ``over_m`` each row does.
    """

    basis: tuple[str, ...]
    entries: np.ndarray
    convention: str = "over_n"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] != len(self.basis):
            raise ValueError("entries must be square and match the basis")
        if not np.all(np.isfinite(e)):
            raise ValueError("non-finite kappa rate")
        if np.any(e < -1e-15) or np.any(e > 1 + KAPPA_NORMALIZATION_TOL):
            raise ValueError("kappa entries must lie in [0, 1]")
        if self.convention not in ("over_n", "over_m"):
            raise ValueError(f"unknown convention {self.convention!r}")
        sums = e.sum(axis=0) if self.convention == "over_n" else e.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > KAPPA_NORMALIZATION_TOL:
            raise ValueError(
                f"{self.convention} normalization violated: sums={sums}"
            )
        object.__setattr__(self, "entries", np.clip(e, 0.0, 1.0))

    @property
    def dim(self) -> int:
        return len(self.basis)


class FoamProvider:
    """Pins in/out slots of a foam boundary and weights the rest by a bath.

    ``bath`` is a BoundaryState over the non-pinned boundary links, or a
    TiedGaussianBath whose link weights follow the pinned labels.  Either
    way ``matrix`` fills all of W with one contraction per bath term.
    """

    def __init__(
        self,
        foam: Foam2Complex,
        in_links: Sequence[int],
        out_links: Sequence[int],
        bath: BoundaryState | TiedGaussianBath | None = None,
        j_max: Spin | float | str = Spin(8),
    ):
        if bath is not None and not isinstance(bath, (BoundaryState, TiedGaussianBath)):
            raise TypeError(
                "bath must be a BoundaryState, a TiedGaussianBath or None, "
                f"got {type(bath).__name__}"
            )
        self.foam = foam
        self.in_links = tuple(in_links)
        self.out_links = tuple(out_links)
        self.bath = bath
        self.j_max = as_spin(j_max)

    def matrix(self, labels) -> np.ndarray:
        """All of W, one contraction per bath term.

        Faces on in-links take the open column axis m and faces on
        out-links the row axis n, each over the label spins of its slot;
        a tied bath's links carry their weight tables on the same axes.
        """
        pins: dict[int, tuple[int, tuple[int, ...]]] = {}
        for axis, links in ((1, self.in_links), (0, self.out_links)):
            spins = [label_spins(label, len(links)) for label in labels]
            for k, link in enumerate(links):
                pins[link] = (axis, tuple(s[k].twice_j for s in spins))
        if self.bath is None:
            terms = ((1.0, {}),)
        else:
            if self.bath.links & pins.keys():
                raise ValueError("cannot merge boundary states sharing links")
            if isinstance(self.bath, TiedGaussianBath):
                terms = ((1.0, self.bath.tables(labels, self.j_max.twice_j)),)
            else:
                terms = self.bath.terms
        return _contract_foam(self.foam, terms, self.j_max.twice_j, pins, (len(labels),) * 2)


def transition_matrix(provider, basis: Sequence) -> TransitionMatrix:
    """Fill W[n, m] over all basis pairs with ``provider.matrix(labels)``.

    Provider failures are re-raised with the basis attached.
    """
    labels = list(basis)
    names = tuple(label_str(l) for l in labels)
    try:
        entries = provider.matrix(labels)
    except MissingBoundaryError:
        raise
    except Exception as exc:  # noqa: BLE001 - context per contract
        raise ProviderError(
            f"amplitude provider failed over basis ({', '.join(names)}): {exc}"
        ) from exc
    return TransitionMatrix(names, entries)


def kappa_from_W(W: TransitionMatrix, convention: str = "over_n") -> KappaMatrix:
    """Normalized squared amplitudes |W|^2 as damping probabilities."""
    if convention not in ("over_n", "over_m"):
        raise ValueError(f"unknown convention {convention!r}")
    axis = 0 if convention == "over_n" else 1  # over_n sums each in column, over_m each out row
    sq = np.abs(W.entries) ** 2
    norms = sq.sum(axis=axis, keepdims=True)
    dead = np.flatnonzero(norms == 0)
    if dead.size:
        side = "column for in" if axis == 0 else "row for out"
        raise ValueError(f"all-zero amplitude {side} state(s) {[W.basis[i] for i in dead]}")
    return KappaMatrix(W.basis, sq / norms, convention)


# ---------------------------------------------------------------------------
# Large-spin analytic vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticParams:
    """Parameters of the two-branch large-spin vertex amplitude.

    ``alpha`` weighs the counter-rotating branch relative to the
    co-rotating one; ``phase_offset`` and ``chi_plus_m`` are carried but
    cancel in the modulus.
    """

    gamma_immirzi: float = 1.0
    regge_action: float = 1.0
    alpha: complex = 0.0
    n_plus_abs: float = 1.0
    phase_offset: float = 0.0
    chi_plus_m: float = 0.0

    def __post_init__(self):
        for name in ("gamma_immirzi", "regge_action", "alpha", "phase_offset", "chi_plus_m"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.n_plus_abs < math.inf:
            raise ValueError(f"n_plus_abs must be positive and finite, got {self.n_plus_abs}")


def asymptotic_vertex(lam: float, p: AsymptoticParams) -> complex:
    """Large-spin vertex amplitude at scale lambda.

    The modulus is independent of the carried phases; only the relative
    branch weight alpha and the oscillation frequency survive in rates.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"scale parameter must be positive and finite, got {lam}")
    phase = np.exp(1j * math.pi * p.chi_plus_m) * np.exp(1j * lam * p.phase_offset)
    osc = lam * p.gamma_immirzi * p.regge_action
    branches = np.exp(1j * osc) + p.alpha * np.exp(-1j * osc)
    return complex(phase * p.n_plus_abs * branches / lam**12)


def interference_weight(lam: float, p: AsymptoticParams) -> float:
    """|e^{2 i lambda gamma S} + alpha| |N+|, the oscillatory rate factor."""
    if not 0 < lam < math.inf:
        raise ValueError(f"scale parameter must be positive and finite, got {lam}")
    osc = 2.0 * lam * p.gamma_immirzi * p.regge_action
    if not math.isfinite(osc):
        raise ValueError(f"phase 2 lambda gamma S is not finite for lambda={lam}")
    with np.errstate(over="ignore"):
        weight = float(abs(np.exp(1j * osc) + p.alpha) * p.n_plus_abs)
    if not math.isfinite(weight):
        raise ValueError(f"interference weight is not finite for lambda={lam}")
    return weight


def two_level_rho11(lam1: float, lam2: float, p: AsymptoticParams) -> float:
    """Steady ground-level population of the two-scale reduced system.

    rho11 = lam1^4 f(lam2) / (lam1^4 f(lam2) + lam2^4 f(lam1)) with
    f the interference weight.  The larger share is evaluated as the
    complement of the smaller so that swapping the arguments sums to
    exactly one in floating point.
    """
    if not (0 < lam1 < math.inf and 0 < lam2 < math.inf):
        raise ValueError(f"scale parameters must be positive and finite, got {lam1}, {lam2}")
    try:
        a = lam1**4 * interference_weight(lam2, p)
        b = lam2**4 * interference_weight(lam1, p)
    except OverflowError:
        raise ValueError(f"lambda**4 is not finite for lambda1={lam1}, lambda2={lam2}") from None
    if a == 0.0 and b == 0.0:
        raise DegenerateSteadyStateError(
            "both interference weights vanish; steady state undefined"
        )
    if a == b == math.inf:
        raise ValueError("both rates lambda1**4 f(lambda2) and lambda2**4 f(lambda1) are infinite")
    if a + b == math.inf:  # halving is exact at this size, and the halves' sum is finite
        a, b = a / 2, b / 2
    s = a + b
    if a <= b:
        return float(a / s)
    return float(1.0 - b / s)
