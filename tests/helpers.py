"""Helpers shared by the test modules."""

from hypothesis import strategies as st

from lctw.graph import Graph


def random_graph(rng, n, p):
    """The graph on n vertices keeping each pair uv, u < v in lexicographic
    order, when ``rng.random() < p``: one draw per pair."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def blob_mutations(td, n):
    """The blob of td and mutated ones: bags and edges listed in reverse,
    entries and edges repeated, a tree edge dropped, a bag vertex replaced
    by an id that is negative, out of range, huge, True or 1.0, first or last,
    and the ends of the first tree edge given as a float and as a bool."""
    bags, edges = [list(b) for b in td.bags], sorted(td.tree_edges)
    yield bags, edges
    yield [b[::-1] for b in bags], [(b, a) for a, b in reversed(edges)]
    yield [b + b[:1] for b in bags], edges + edges[:1]
    yield bags, edges[1:]
    for bad in (-1, n, 10**12, True, 1.0):
        yield [[bad] + bags[0][1:]] + bags[1:], edges
        yield bags[:-1] + [bags[-1][:-1] + [bad]], edges
    if edges:
        (a, b), rest = edges[0], edges[1:]
        yield bags, [(a, float(b))] + rest
        yield bags, [(bool(a), b)] + rest


BLOB_VERTEX = st.one_of(
    st.integers(-2, 9), st.sampled_from([10**12, 1.0, 2.5]), st.booleans(), st.none(), st.text(max_size=1)
)
BLOB_BAG = st.one_of(
    st.lists(st.integers(0, 9), max_size=5),
    st.lists(BLOB_VERTEX, max_size=5),
    st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=3),  # unhashable entries
    BLOB_VERTEX,
)
BLOB_EDGE = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(-1, 6), st.sampled_from([1.0, True, 7])),
    st.lists(st.integers(0, 6), max_size=3),
    st.none(),
)
