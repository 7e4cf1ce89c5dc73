"""Labeled-graph model of spin-networks.

Networks are immutable after construction.  Nodes carry dense integer ids,
links carry a half-integer spin and an oriented (source, target) pair where
either endpoint may be dangling (None).  Admissibility is enforced at
trivalent nodes only; higher-valence nodes carry an opaque intertwiner
index and skip the triangle check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .recoupling import Spin, triangle_ok


class DisconnectedSubsetError(ValueError):
    """Node subset for a cut does not induce a connected subgraph."""

    def __init__(self, components: list[list[int]]):
        self.components = components
        super().__init__(
            f"node subset is disconnected; components: {components}"
        )


class AmbiguousPairingError(ValueError):
    """Dangling ends cannot be paired without provenance or an explicit pairing."""


class _Zero:
    """Weight-0 result of an incompatible gluing (a value, not an error)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO"

    def __bool__(self) -> bool:
        return False


ZERO = _Zero()


@dataclass(frozen=True)
class Link:
    """Oriented link; a None endpoint is a dangling end."""

    link_id: int
    source: int | None
    target: int | None
    spin: Spin

    def __post_init__(self):
        if self.source is None and self.target is None:
            raise ValueError(f"link {self.link_id} has no attached endpoint")

    @property
    def dangling(self) -> bool:
        return self.source is None or self.target is None

    def endpoints(self) -> tuple[int, ...]:
        return tuple(e for e in (self.source, self.target) if e is not None)


class SpinNetwork:
    """Spin-labeled graph with optional intertwiner indices at nodes."""

    def __init__(
        self,
        nodes: Iterable[int],
        links: Iterable[Link],
        intertwiners: Mapping[int, int] | None = None,
    ):
        self.nodes: frozenset[int] = frozenset(nodes)
        self.links: tuple[Link, ...] = tuple(links)
        self.intertwiners: dict[int, int] = dict(intertwiners or {})
        seen = set()
        for link in self.links:
            if link.link_id in seen:
                raise ValueError(f"duplicate link id {link.link_id}")
            seen.add(link.link_id)
            for end in link.endpoints():
                if end not in self.nodes:
                    raise ValueError(
                        f"link {link.link_id} references unknown node {end}"
                    )

    def link(self, link_id: int) -> Link:
        for l in self.links:
            if l.link_id == link_id:
                return l
        raise KeyError(link_id)

    def incident_links(self, node: int) -> list[Link]:
        return [
            l for l in self.links
            for end in l.endpoints() if end == node
        ]

    def valence(self, node: int) -> int:
        return sum(1 for l in self.links for end in l.endpoints() if end == node)

    def dangling_links(self) -> list[Link]:
        return [l for l in self.links if l.dangling]

    def _signature(self):
        return (
            self.nodes,
            frozenset(
                (l.link_id, l.source, l.target, l.spin.twice_j) for l in self.links
            ),
            tuple(sorted(self.intertwiners.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinNetwork):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} nodes={len(self.nodes)} "
            f"links={len(self.links)} dangling={len(self.dangling_links())}>"
        )


def validate(net: SpinNetwork) -> tuple[bool, list[str]]:
    """Check triangle admissibility at every trivalent node.

    Returns (ok, diagnostics); diagnostics name each violated node.  Nodes
    with a declared valence other than 3 carry an opaque intertwiner and
    are skipped.
    """
    diagnostics = []
    for node in sorted(net.nodes):
        incident = [l.spin for l in net.links for end in l.endpoints() if end == node]
        if len(incident) != 3:
            if node not in net.intertwiners and len(incident) > 0:
                diagnostics.append(
                    f"node {node}: valence {len(incident)} without declared intertwiner"
                )
            continue
        if not triangle_ok(*incident):
            spins = ", ".join(str(s) for s in incident)
            diagnostics.append(f"node {node}: spins ({spins}) violate the triangle rule")
    return (not diagnostics, diagnostics)


@dataclass(frozen=True)
class BoundaryEnd:
    """A dangling link end of a sub-spin-network, with its spin."""

    link_id: int
    spin: Spin


class SubSpinNetwork(SpinNetwork):
    """Connected portion of a spin-network with dangling boundary links.

    ``provenance`` maps local link ids to the parent link ids of the cut
    that produced this part, which lets ``union`` re-pair boundaries
    without an explicit pairing argument.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        links: Iterable[Link],
        intertwiners: Mapping[int, int] | None = None,
        provenance: Mapping[int, int] | None = None,
        require_connected: bool = True,
    ):
        super().__init__(nodes, links, intertwiners)
        self.provenance: dict[int, int] = dict(provenance or {})
        if require_connected and self.nodes:
            comps = _components(self)
            if len(comps) > 1:
                raise DisconnectedSubsetError(comps)

    @property
    def boundary(self) -> tuple[BoundaryEnd, ...]:
        return tuple(
            BoundaryEnd(l.link_id, l.spin) for l in self.links if l.dangling
        )


def _components(net: SpinNetwork) -> list[list[int]]:
    adjacency: dict[int, set[int]] = {n: set() for n in net.nodes}
    for l in net.links:
        ends = l.endpoints()
        if len(ends) == 2:
            adjacency[ends[0]].add(ends[1])
            adjacency[ends[1]].add(ends[0])
    unseen = set(net.nodes)
    comps = []
    while unseen:
        start = min(unseen)
        stack, comp = [start], []
        unseen.discard(start)
        while stack:
            n = stack.pop()
            comp.append(n)
            for m in adjacency[n]:
                if m in unseen:
                    unseen.discard(m)
                    stack.append(m)
        comps.append(sorted(comp))
    return comps


def extract_sub(
    net: SpinNetwork, node_subset: Iterable[int]
) -> tuple[SubSpinNetwork, SubSpinNetwork]:
    """Cut ``net`` along ``node_subset`` into (part, complement).

    Links crossing the cut appear as dangling ends on both parts with the
    same spin and remember the parent link id, so ``union`` restores the
    original network exactly.
    """
    subset = set(node_subset)
    unknown = subset - net.nodes
    if unknown:
        raise ValueError(f"unknown nodes in subset: {sorted(unknown)}")
    if not subset:
        raise ValueError("node subset is empty")

    induced_links = [
        l for l in net.links
        if l.endpoints() and all(e in subset for e in l.endpoints())
    ]
    probe = SpinNetwork(subset, induced_links)
    comps = _components(probe)
    if len(comps) > 1:
        raise DisconnectedSubsetError(comps)

    def side(members: set[int]) -> SubSpinNetwork:
        kept_links = []
        provenance = {}
        for l in net.links:
            ends = l.endpoints()
            inside = [e for e in ends if e in members]
            if not inside:
                continue
            if len(inside) == len(ends):
                kept_links.append(l)
            else:
                src = l.source if l.source in members else None
                tgt = l.target if l.target in members else None
                kept_links.append(Link(l.link_id, src, tgt, l.spin))
                provenance[l.link_id] = l.link_id
        inter = {n: i for n, i in net.intertwiners.items() if n in members}
        return SubSpinNetwork(
            members, kept_links, inter, provenance, require_connected=False
        )

    part = side(subset)
    complement = side(net.nodes - subset)
    return part, complement


def _resolve_pairing(
    a: SubSpinNetwork,
    b: SubSpinNetwork,
    pairing: Sequence[tuple[int, int]] | None,
) -> list[tuple[int, int]] | None:
    """Return [(a_link, b_link)] pairs, None if boundaries cannot match 1-1."""
    a_ends = [l.link_id for l in a.dangling_links()]
    b_ends = [l.link_id for l in b.dangling_links()]
    if pairing is not None:
        pairs = [(int(x), int(y)) for x, y in pairing]
        if sorted(x for x, _ in pairs) != sorted(a_ends):
            return None
        if sorted(y for _, y in pairs) != sorted(b_ends):
            return None
        return pairs
    if len(a_ends) != len(b_ends):
        return None
    if not a_ends:
        return []
    a_prov = {a.provenance.get(i): i for i in a_ends if a.provenance.get(i) is not None}
    b_prov = {b.provenance.get(i): i for i in b_ends if b.provenance.get(i) is not None}
    if set(a_prov) == set(b_prov) and len(a_prov) == len(a_ends):
        return [(a_prov[p], b_prov[p]) for p in sorted(a_prov)]
    if len(a_ends) == 1:
        return [(a_ends[0], b_ends[0])]
    raise AmbiguousPairingError(
        f"{len(a_ends)} dangling ends on each side with no usable provenance; "
        "pass an explicit pairing"
    )


def union(
    a: SubSpinNetwork,
    b: SubSpinNetwork,
    pairing: Sequence[tuple[int, int]] | None = None,
):
    """Glue two sub-spin-networks; returns the joined SpinNetwork or ZERO.

    ZERO (weight-0 contribution) is returned exactly when a paired spin
    mismatches, the boundaries cannot be matched one-to-one, or a
    reattached node violates the triangle rule.
    """
    pairs = _resolve_pairing(a, b, pairing)
    if pairs is None:
        return ZERO

    for a_id, b_id in pairs:
        if a.link(a_id).spin != b.link(b_id).spin:
            return ZERO

    clash = a.nodes & b.nodes
    node_map = {}
    if clash:
        offset = max(a.nodes | b.nodes, default=-1) + 1
        for n in sorted(b.nodes):
            node_map[n] = n + offset if n in clash else n
    else:
        node_map = {n: n for n in b.nodes}

    used_ids = {l.link_id for l in a.links}
    paired_b = {b_id: a_id for a_id, b_id in pairs}

    def fresh_id(start: int) -> int:
        while start in used_ids:
            start += 1
        used_ids.add(start)
        return start

    links = []
    for l in a.links:
        if l.dangling and l.link_id in dict(pairs):
            continue  # glued below
        links.append(l)

    a_by_id = {l.link_id: l for l in a.links}
    for l in b.links:
        if l.link_id in paired_b:
            a_id = paired_b[l.link_id]
            al = a_by_id[a_id]
            parent = a.provenance.get(a_id)
            merged_id = parent if parent is not None and parent not in {
                x.link_id for x in links
            } else a_id
            # Orientation: keep the side that carried a source, else a -> b.
            if al.source is not None and l.target is not None:
                src, tgt = al.source, node_map[l.target]
            elif al.target is not None and l.source is not None:
                src, tgt = node_map[l.source], al.target
            else:
                src = al.source if al.source is not None else al.target
                tgt = node_map[l.source if l.source is not None else l.target]
            links.append(Link(merged_id, src, tgt, al.spin))
        else:
            new_id = l.link_id if l.link_id not in used_ids else fresh_id(l.link_id)
            used_ids.add(new_id)
            links.append(
                Link(
                    new_id,
                    node_map[l.source] if l.source is not None else None,
                    node_map[l.target] if l.target is not None else None,
                    l.spin,
                )
            )

    nodes = set(a.nodes) | {node_map[n] for n in b.nodes}
    inter = dict(a.intertwiners)
    inter.update({node_map[n]: i for n, i in b.intertwiners.items()})
    glued = SpinNetwork(nodes, links, inter)

    ok, _diag = validate(glued)
    if not ok:
        return ZERO
    return glued


# ---------------------------------------------------------------------------
# Textual graph reader: one record per node and per link.
#
#   node <id> [intertwiner]
#   link <id> <source|-> <target|-> <2j>
# ---------------------------------------------------------------------------

def parse_network(text: str) -> SpinNetwork:
    nodes: list[int] = []
    inter: dict[int, int] = {}
    links: list[Link] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) not in (2, 3):
                raise ValueError(f"line {lineno}: malformed node record")
            nodes.append(int(parts[1]))
            if len(parts) == 3:
                inter[int(parts[1])] = int(parts[2])
        elif kind == "link":
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: malformed link record")
            link_id = int(parts[1])
            src = None if parts[2] == "-" else int(parts[2])
            tgt = None if parts[3] == "-" else int(parts[3])
            links.append(Link(link_id, src, tgt, Spin(int(parts[4]))))
        else:
            raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    return SpinNetwork(nodes, links, inter)
