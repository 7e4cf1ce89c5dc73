"""Graph model tests: validation, cuts, gluing, the textual reader."""

import itertools
import random

import pytest

from spinfoam_oqs.recoupling import Spin, as_spin
from spinfoam_oqs.spin_network import (
    ZERO,
    AmbiguousPairingError,
    DisconnectedSubsetError,
    Link,
    SpinNetwork,
    SubSpinNetwork,
    extract_sub,
    parse_network,
    union,
    validate,
)


def theta_graph(spins=("1", "1", "1")):
    """Two nodes joined by three parallel links (smallest closed graph)."""
    links = [Link(i, 0, 1, as_spin(s)) for i, s in enumerate(spins)]
    return SpinNetwork([0, 1], links)


def single_node(spins, node=0, start_link=0):
    links = [
        Link(start_link + i, node, None, as_spin(s)) for i, s in enumerate(spins)
    ]
    return SubSpinNetwork([node], links, require_connected=False)


def test_validate_single_trivalent_node():
    ok, diag = validate(single_node(("1/2", "1/2", 1)))
    assert ok and not diag


def test_validate_flags_violating_node():
    ok, diag = validate(single_node(("1/2", "1/2", "1/2")))
    assert not ok
    assert len(diag) == 1
    assert "node 0" in diag[0]


def test_validate_theta_graph():
    ok, _ = validate(theta_graph((1, 1, 1)))
    assert ok


def test_validate_skips_declared_higher_valence():
    links = [Link(i, 0, None, as_spin(1)) for i in range(4)]
    net = SpinNetwork([0], links, intertwiners={0: 0})
    ok, diag = validate(net)
    assert ok and not diag


def test_extract_full_subset_gives_empty_complement():
    net = theta_graph()
    part, complement = extract_sub(net, [0, 1])
    assert part == net
    assert not complement.nodes
    assert union(part, complement) == net


def test_extract_one_node_of_theta():
    net = theta_graph((1, "3/2", "1/2"))
    part, complement = extract_sub(net, [0])
    assert sorted(l.spin.twice_j for l in part.dangling_links()) == [1, 2, 3]
    assert sorted(l.spin.twice_j for l in complement.dangling_links()) == [1, 2, 3]
    # matching spins link-by-link through provenance
    for end in part.dangling_links():
        twin = [l for l in complement.dangling_links() if l.link_id == end.link_id]
        assert twin and twin[0].spin == end.spin


def test_extract_disconnected_subset_errors_with_components():
    # two theta graphs side by side
    links = [Link(i, 0, 1, as_spin(1)) for i in range(3)]
    links += [Link(3 + i, 2, 3, as_spin(1)) for i in range(3)]
    net = SpinNetwork([0, 1, 2, 3], links)
    with pytest.raises(DisconnectedSubsetError) as err:
        extract_sub(net, [0, 2])
    assert err.value.components == [[0], [2]]


def test_round_trip_identity_over_all_connected_subsets():
    # square of four nodes with a diagonal, mixed spins
    links = [
        Link(0, 0, 1, as_spin(1)),
        Link(1, 1, 2, as_spin("1/2")),
        Link(2, 2, 3, as_spin(1)),
        Link(3, 3, 0, as_spin("1/2")),
        Link(4, 0, 2, as_spin("1/2")),
        Link(5, 1, 3, as_spin("1/2")),
    ]
    net = SpinNetwork([0, 1, 2, 3], links)
    adjacency = {
        0: {1, 2, 3},
        1: {0, 2, 3},
        2: {0, 1, 3},
        3: {0, 1, 2},
    }
    for size in (1, 2, 3, 4):
        for subset in itertools.combinations(range(4), size):
            chosen = set(subset)
            # connectivity check against the known adjacency
            seen = {min(chosen)}
            frontier = [min(chosen)]
            while frontier:
                n = frontier.pop()
                for m in adjacency[n] & chosen:
                    if m not in seen:
                        seen.add(m)
                        frontier.append(m)
            if seen != chosen:
                continue
            part, complement = extract_sub(net, subset)
            assert union(part, complement) == net


def test_union_spin_mismatch_gives_zero():
    a = single_node(("1/2", 1, 1))
    b = SubSpinNetwork(
        [1],
        [
            Link(0, None, 1, as_spin("1/2")),
            Link(1, None, 1, as_spin("3/2")),
            Link(2, None, 1, as_spin(1)),
        ],
        require_connected=False,
    )
    assert union(a, b, pairing=[(0, 0), (1, 1), (2, 2)]) is ZERO


def test_union_inadmissible_node_gives_zero():
    a = single_node(("1/2", "1/2", "1/2"))
    b = SubSpinNetwork(
        [1],
        [Link(i, None, 1, as_spin("1/2")) for i in range(3)],
        require_connected=False,
    )
    assert union(a, b, pairing=[(0, 0), (1, 1), (2, 2)]) is ZERO


def test_union_boundary_count_mismatch_is_zero():
    a = single_node(("1/2", "1/2"))
    b = single_node(("1/2",), node=1)
    assert union(a, b) is ZERO


def test_union_ambiguous_pairing_errors():
    a = SubSpinNetwork(
        [0],
        [Link(10, 0, None, as_spin(1)), Link(11, 0, None, as_spin(1)),
         Link(12, 0, None, as_spin(1))],
        require_connected=False,
    )
    b = SubSpinNetwork(
        [1],
        [Link(20, None, 1, as_spin(1)), Link(21, None, 1, as_spin(1)),
         Link(22, None, 1, as_spin(1))],
        require_connected=False,
    )
    with pytest.raises(AmbiguousPairingError):
        union(a, b)
    # explicit pairing resolves it
    glued = union(a, b, pairing=[(10, 20), (11, 21), (12, 22)])
    assert isinstance(glued, SpinNetwork)
    assert len(glued.dangling_links()) == 0


def test_union_renumbers_clashing_nodes_and_links():
    # Both parts number their nodes {0, 1} and their links 0 and 1, so b's
    # nodes move past a's and its unpaired links take the next free ids.
    def part(ends):
        links = [Link(i, 0, 1, as_spin(1)) for i in (0, 1)]
        links += [Link(l, node, None, as_spin(1)) for l, node in zip(ends, (0, 1))]
        return SubSpinNetwork([0, 1], links)

    glued = union(part((5, 6)), part((7, 8)), pairing=[(5, 7), (6, 8)])
    assert glued.nodes == frozenset({0, 1, 2, 3})
    assert {l.link_id: l.endpoints() for l in glued.links} == {
        0: (0, 1), 1: (0, 1), 2: (2, 3), 3: (2, 3), 5: (0, 2), 6: (1, 3),
    }
    assert validate(glued) == (True, [])


def test_zero_is_falsy_value_not_exception():
    assert not ZERO
    assert repr(ZERO) == "ZERO"


def test_parse_network_reads_links_and_dangling_ends():
    text = "node 0\nnode 1 0\nlink 0 0 1 1\nlink 1 0 1 2\nlink 2 0 1 3\n"
    assert parse_network(text) == SpinNetwork(
        [0, 1], [Link(i, 0, 1, Spin(i + 1)) for i in range(3)], {1: 0}
    )
    # A '-' marks a dangling end; '#' starts a comment.
    text = "node 0  # one end\nlink 0 0 - 1\nlink 1 - 0 2\nlink 2 0 - 3\n"
    net = parse_network(text)
    ends = [(0, None), (None, 0), (0, None)]
    assert net == SpinNetwork([0], [Link(i, *ends[i], Spin(i + 1)) for i in range(3)])
    assert sorted(l.link_id for l in net.dangling_links()) == [0, 1, 2]


def test_parse_rejects_malformed_records():
    with pytest.raises(ValueError):
        parse_network("node zero\n")
    with pytest.raises(ValueError):
        parse_network("edge 0 1 2 3\n")


def _random_admissible_network(seed):
    """The complete graph on four nodes, its six link spins drawn from
    1/2..2 until every node satisfies the triangle rule."""
    rng = random.Random(seed)
    ends = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
    while True:
        links = [Link(i, a, b, Spin(rng.randint(1, 4))) for i, (a, b) in enumerate(ends)]
        net = SpinNetwork(range(4), links)
        if validate(net)[0]:
            return net


def test_union_zero_only_for_mismatch_or_inadmissibility():
    # random cuts of random valid graphs always glue back; tampering with
    # exactly one boundary spin always yields ZERO
    rng = random.Random(31)
    for seed in range(40):
        net = _random_admissible_network(seed)
        subset = rng.choice(([0], [0, 1], [0, 1, 2], [1, 3], [2]))
        try:
            part, complement = extract_sub(net, subset)
        except DisconnectedSubsetError:
            continue
        assert union(part, complement) == net

        # tamper with one dangling spin of the part
        victim = rng.choice(part.dangling_links())
        bumped = Spin(victim.spin.twice_j + 2)
        tampered_links = [
            Link(l.link_id, l.source, l.target, bumped if l.link_id == victim.link_id else l.spin)
            for l in part.links
        ]
        tampered = SubSpinNetwork(
            part.nodes, tampered_links, part.intertwiners, part.provenance,
            require_connected=False,
        )
        assert union(tampered, complement) is ZERO
