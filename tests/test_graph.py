import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctw.fixtures import complete_graph, cycle_graph, path_graph
from lctw.graph import (
    Graph,
    Graph6Error,
    components_after_removal,
    is_biconnected,
    parse_graph6,
    separates,
    write_graph6,
)

from helpers import random_graph


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.m == 1


def test_graph6_k4_frozen():
    k4 = complete_graph(4)
    assert write_graph6(k4) == "C~"
    assert parse_graph6("C~") == k4


def test_graph6_c5_frozen():
    c5 = cycle_graph(5)
    assert write_graph6(c5) == "Dhc"
    assert parse_graph6("Dhc") == c5


def test_graph6_header_variant():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_roundtrip_fixture(fig):
    g, _ = fig
    assert parse_graph6(write_graph6(g)).edges == g.edges


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~~~")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D")  # n=5 needs 2 body bytes
    assert "truncated" in str(err.value)
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C~~")  # one byte too many
    assert err.value.offset == 2
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C" + chr(30))
    assert err.value.offset == 1


def test_graph6_padding_bits_are_ignored():
    # C5 is "Dhc": ten matrix bits and two padding bits, here both set
    c5, padded = cycle_graph(5), parse_graph6("Dhf")
    assert (padded.n, padded.edges, padded.adj, padded.nbr_mask, hash(padded)) == (c5.n, c5.edges, c5.adj, c5.nbr_mask, hash(c5))
    assert write_graph6(padded) == "Dhc"


def test_write_graph6_rejects_large():
    with pytest.raises(ValueError):
        write_graph6(Graph(63, []))


def test_graph6_roundtrip_against_reference():
    # cross-check both directions against the networkx codec on 200 random graphs
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        mine = write_graph6(g)
        ref = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert mine == ref
        back = parse_graph6(ref)
        assert back == g


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=120)
@given(st.integers(0, 61), st.data())
def test_graph6_roundtrip_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, chosen)
    assert parse_graph6(write_graph6(g)) == g


def test_biconnected_examples(fig):
    g, _ = fig
    assert is_biconnected(complete_graph(4))
    assert is_biconnected(complete_graph(3))
    assert not is_biconnected(path_graph(3))
    assert not is_biconnected(Graph(2, [(0, 1)]))
    assert not is_biconnected(Graph(1, []))
    assert is_biconnected(g)
    assert not is_biconnected(Graph(6, complete_graph(3).edges | {(2, 3), (3, 4), (4, 5), (5, 3)}))


def brute_biconnected(g):
    def connected(h, skip=None):
        verts = [v for v in range(h.n) if v != skip]
        if not verts:
            return True
        adj = h.adj  # built from the masks on every read
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    return g.n >= 3 and connected(g) and all(connected(g, skip=v) for v in range(g.n))


def test_biconnected_agrees_with_bruteforce():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        assert is_biconnected(g) == brute_biconnected(g)


def test_components_after_removal_fixture(fig):
    g, nm = fig
    s = [nm[x] for x in "abcd"]
    blocks = components_after_removal(g, s)
    assert blocks == ((nm["v1"],), (nm["v2"],), (nm["v3"], nm["v4"]), (nm["v5"],))


def test_components_after_removal_trivial():
    c5 = cycle_graph(5)
    assert components_after_removal(c5, []) == (tuple(range(5)),)
    assert components_after_removal(c5, [0, 1]) == ((2, 3, 4),)
    with pytest.raises(ValueError):
        components_after_removal(c5, [9])


def test_components_blocks_pairwise_nonadjacent():
    rng = random.Random(33)
    for _ in range(100):
        n = rng.randint(2, 11)
        g = random_graph(rng, n, 0.3)
        s = {v for v in range(n) if rng.random() < 0.3}
        blocks = components_after_removal(g, s)
        flat = [v for b in blocks for v in b]
        assert sorted(flat) == sorted(set(range(n)) - s)
        for i, b1 in enumerate(blocks):
            for b2 in blocks[i + 1 :]:
                assert not any(g.has_edge(u, v) for u in b1 for v in b2)


def test_separates_fixture(fig):
    g, nm = fig
    s = [nm[x] for x in "abcd"]
    assert separates(g, s, [nm["v1"], nm["v5"]])
    assert not separates(g, s, [nm["v3"], nm["v4"]])
    assert not separates(g, s, s)  # x inside s
