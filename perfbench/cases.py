"""Seeded case generators, one per workload.

Each generator is an endless stream of cases built from ``random.Random``
seeded with the workload name and the seed, so the same seed always gives
the same cases.  Cases come in blocks: every block holds the same mix of
shapes (foam kind, ``jmax``, ``d``, vertex count) in a shuffled order, and
the seed varies what the shapes leave open (basis spins, bath centres,
rates, trajectory length, initial state).  The runner only stops between
blocks, so every run measures the same mix whatever the seed.

This module uses the standard library only: the runner imports it before
it times the package import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
# The shipped network file of the ``fit_v2_from_network`` scenario.
FIT_NETWORK = ROOT / "scenarios" / "fit_basis.net"

SAMPLE_N = 10000


@dataclass(frozen=True)
class Case:
    """One unit of closed-loop work: a config plus the subcommands run on it."""

    case_id: str
    shape: dict
    commands: tuple[str, ...]
    config: dict
    files: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        s = self.shape
        return f"{s['backend']}/{s['foam']}/{s['bath']}"


def spin_str(twice_j: int) -> str:
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def _shape(backend, foam, bath, jmax, d, steps) -> dict:
    return {"backend": backend, "foam": foam, "bath": bath, "jmax": jmax,
            "d": d, "steps": steps}


# ---------------------------------------------------------------------------
# foam_batch: pr3d evolve scenarios
# ---------------------------------------------------------------------------

# (foam kind, chain vertices or None).  Pinning three slot links to one
# replicated label needs an integer spin (j + j + j must be an integer), so
# bridged_pair and chain take integer bases; gaussian_tied needs positive
# centres, so disconnected_pair leaves out spin 0.
_FOAM_SLOTS = (
    ("cascade_pair", None), ("bridged_pair", None), ("disconnected_pair", None),
    ("chain", 2), ("chain", 3),
)
_FOAM_JMAX = (2, 3, 4)


def _allowed_spins(kind: str, jmax: int) -> list[int]:
    if kind in ("bridged_pair", "chain"):
        return list(range(0, 2 * jmax + 1, 2))
    if kind == "disconnected_pair":
        return list(range(1, 2 * jmax + 1))
    return list(range(0, 2 * jmax + 1))


def _initial(rng: random.Random, labels: list[str]):
    if rng.random() < 0.5:
        return rng.choice(labels)
    a, b = rng.sample(labels, 2)
    return {"superposition": [[a, round(rng.uniform(0.3, 1.0), 6)],
                              [b, round(rng.uniform(0.3, 1.0), 6)]]}


def foam_dims(kind: str, jmax: int) -> list[int]:
    return list(range(3, min(6, len(_allowed_spins(kind, jmax))) + 1))


def foam_case(rng: random.Random, case_id: str, kind: str, vertices, jmax: int, d: int) -> Case:
    allowed = _allowed_spins(kind, jmax)
    basis = [spin_str(t) for t in sorted(rng.sample(allowed, d))]
    steps = rng.randint(100, 200)
    cfg = {
        "backend": "pr3d",
        "normalization": "over_n",
        "jmax": str(jmax),
        "basis": basis,
        "evolution": {"g": round(rng.uniform(0.2, 0.8), 6), "steps": steps,
                      "initial": _initial(rng, basis)},
    }
    if rng.random() < 0.5:
        cfg["coherences"] = [[0, 1]]
    bath_kind = "gaussian"
    if kind == "cascade_pair":
        cfg["foam"] = {"kind": kind, "internal_max": str(jmax)}
        cfg["in_links"], cfg["out_links"] = [0], [3]
        centers = {str(l): round(rng.uniform(0.02, 0.1), 6) for l in (7, 8)}
        centers.update({str(l): round(rng.uniform(0.15, 0.4), 6) for l in (1, 2, 4, 5, 6, 9)})
        cfg["bath"] = {"kind": "gaussian", "centers": centers}
    elif kind == "bridged_pair":
        cfg["foam"] = {"kind": kind, "internal_max": str(jmax)}
        cfg["in_links"], cfg["out_links"] = [0, 1, 2], [3, 4, 5]
        cfg["bath"] = {"kind": "gaussian",
                       "centers": {str(l): round(rng.uniform(0.5, 1.2), 6) for l in (6, 7, 8, 9)}}
    elif kind == "disconnected_pair":
        cfg["foam"] = {"kind": kind}
        cfg["in_links"], cfg["out_links"] = [0], [6]
        cfg["bath"] = {"kind": "gaussian_tied", "in": [1, 2, 3, 4, 5], "out": [7, 8, 9, 10, 11]}
        bath_kind = "gaussian_tied"
    else:
        cfg["foam"] = {"kind": "chain", "vertices": vertices, "internal_max": str(jmax)}
        cfg["in_links"], cfg["out_links"] = [0, 1, 2], [3, 4, 5]
        bath_kind = "none"
    foam = kind if vertices is None else f"{kind}{vertices}"
    return Case(case_id, _shape("pr3d", foam, bath_kind, jmax, d, steps),
                ("evolve",), cfg)


def _foam_block(rng: random.Random, prefix: str, index: int) -> list[Case]:
    # d steps through its range from block to block, the same for every
    # seed, since W's cost grows with d^2.
    slots = [(k, v, j) for k, v in _FOAM_SLOTS for j in _FOAM_JMAX]
    slots = [(k, v, j, dims[(index + n) % len(dims)])
             for n, (k, v, j) in enumerate(slots) for dims in [foam_dims(k, j)]]
    rng.shuffle(slots)
    return [foam_case(rng, f"{prefix}{i}", *slot) for i, slot in enumerate(slots)]


# ---------------------------------------------------------------------------
# relax_wide / relax_long: explicit_kappa scenarios
# ---------------------------------------------------------------------------

def random_kappa(rng: random.Random, d: int, density: float, classes: int) -> list[list[float]]:
    """Column-normalized rates with ``density * d`` nonzeros per column.

    With ``classes`` > 1 the states split into that many groups with no
    rate between them, so the generator has at least that many steady
    states; a column then holds at most its group's size of nonzeros.
    """
    order = list(range(d))
    rng.shuffle(order)
    group = {s: i % classes for i, s in enumerate(order)}
    kappa = [[0.0] * d for _ in range(d)]
    for m in range(d):
        peers = [n for n in range(d) if group[n] == group[m]]
        support = rng.sample(peers, min(len(peers), max(1, round(density * d))))
        weights = [rng.uniform(0.05, 1.0) for _ in support]
        total = sum(weights)
        for n, w in zip(support, weights):
            kappa[n][m] = w / total
    return kappa


def _mixed_state(rng: random.Random, d: int) -> dict:
    """A A^dagger / tr for a random complex A, as [re, im] cells."""
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
    rho = [[sum(a[i][k] * a[j][k].conjugate() for k in range(d)) for j in range(d)]
           for i in range(d)]
    tr = sum(rho[i][i].real for i in range(d))
    return {"matrix": [[[rho[i][j].real / tr, rho[i][j].imag / tr] for j in range(d)]
                       for i in range(d)]}


def kappa_case(rng: random.Random, case_id: str, d: int, steps: int, density: float,
               classes: int, commands: tuple[str, ...], g_range: tuple[float, float]) -> Case:
    labels = [str(i) for i in range(d)]
    pick = rng.random()
    if pick < 1 / 3:
        initial = rng.choice(labels)
    elif pick < 2 / 3:
        initial = _initial(rng, labels)
    else:
        initial = _mixed_state(rng, d)
    cfg = {
        "backend": "explicit_kappa",
        "normalization": "over_n",
        "kappa": random_kappa(rng, d, density, classes),
        "evolution": {"g": round(rng.uniform(*g_range), 6), "steps": steps, "initial": initial},
    }
    if rng.random() < 0.5:
        cfg["coherences"] = [[0, 1]]
    bath = "dense" if density >= 1.0 else f"sparse{classes}"
    return Case(case_id, _shape("explicit_kappa", "none", bath, None, d, steps), commands, cfg)


def _wide_block(rng: random.Random, prefix: str, index: int) -> list[Case]:
    # Half the rates of each column are nonzero.  The generator's cost grows
    # with that number, so it is fixed by d alone, and the two d = 16 slots
    # are the heaviest fifth of a block: the tail rank falls inside them.
    slots = [(d, classes) for d in (8, 10, 12, 14, 16) for classes in (1, 2)]
    rng.shuffle(slots)
    return [
        kappa_case(rng, f"{prefix}{i}", d, rng.randint(50, 100), 0.5,
                   classes, ("evolve", "steady-state"), (0.2, 0.8))
        for i, (d, classes) in enumerate(slots)
    ]


def _long_block(rng: random.Random, prefix: str, index: int) -> list[Case]:
    # One trajectory length from each quarter of 2000-4000 steps per block.
    dims = [3, 4, 5, 6]
    rng.shuffle(dims)
    return [
        kappa_case(rng, f"{prefix}{i}", d, 2000 + 500 * i + rng.randrange(500), 1.0, 1,
                   ("evolve",), (0.05, 0.3))
        for i, d in enumerate(dims)
    ]


# ---------------------------------------------------------------------------
# fit_sample: fit then sample
# ---------------------------------------------------------------------------

def fit_case(rng: random.Random, case_id: str, vertices: int, dim) -> Case:
    """A fit config on a seeded basis of ``dim`` triples, or on the shipped
    network file when ``dim`` is None."""
    cfg = {
        "vertices": vertices,
        "seed": rng.randrange(1 << 20),
        "internal_max": "2",
        "j_max": "5/2",
        "restarts": 5,
        "max_evals_per_restart": 4000,
    }
    files = {}
    if dim is None:
        cfg["basis_file"] = "fit_basis.net"
        files["fit_basis.net"] = FIT_NETWORK.read_text(encoding="utf-8")
        dim, basis = 10, "network"
    else:
        cfg["dim"] = dim
        cfg["basis_seed"] = rng.randrange(1 << 20)
        basis = "basis_seed"
    return Case(case_id, _shape("fit", f"chain{vertices}", basis, "5/2", dim, None),
                ("fit", "sample"), cfg, files)


def _fit_block(rng: random.Random, prefix: str, index: int) -> list[Case]:
    # Half the cases have 3 vertices and 4 vertices cost the most, so the
    # median and the tail rank of a short batch fall among cases of like
    # cost.  The basis size steps through 8-10 from block to block.
    dim = 8 + index % 3
    slots = [(2, dim), (3, dim), (3, None), (4, dim)]
    rng.shuffle(slots)
    return [fit_case(rng, f"{prefix}{i}", v, d) for i, (v, d) in enumerate(slots)]


BLOCKS = {
    "foam_batch": _foam_block,
    "relax_wide": _wide_block,
    "relax_long": _long_block,
    "fit_sample": _fit_block,
}
WORKLOADS = tuple(BLOCKS)


def blocks(workload: str, seed: int) -> Iterator[list[Case]]:
    """Endless, seed-determined sequence of case blocks for a workload."""
    make = BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, f"{workload}-s{seed}-b{index}-", index)
        index += 1
