"""Simple undirected graphs: construction, graph6 text I/O, separation predicates.

Vertices are integer ids 0..n-1.  Graphs are immutable after construction and
every operation in this module is a pure function of its inputs, so instances
can be shared freely across concurrent workers.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

__all__ = [
    "Graph",
    "Graph6Error",
    "parse_graph6",
    "write_graph6",
    "is_biconnected",
    "components_after_removal",
    "component_masks",
    "neighbour_unions",
    "separates",
    "vertex_mask",
]

GRAPH6_MAX_N = 62  # single-byte size form only


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection: bit v set iff v is in it."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` is a frozenset of (u, v) pairs with u < v; ``adj`` holds sorted
    neighbor tuples and ``nbr_mask`` the same adjacency as bitmasks (bit v of
    ``nbr_mask[u]`` set iff uv is an edge).
    """

    __slots__ = ("n", "edges", "adj", "nbr_mask", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.edges = frozenset(norm)
        self.adj = tuple(tuple(sorted(_bits(m))) for m in masks)
        self.nbr_mask = tuple(masks)
        self._hash = hash((n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6 text (single-byte size form, n <= 62).

    Bit layout per the de-facto graph6 specification: after the size byte
    (n + 63) come ceil(n(n-1)/2 / 6) bytes, each carrying six bits offset by
    63, covering the upper triangle of the adjacency matrix in column-major
    order x(0,1), x(0,2), x(1,2), x(0,3), ...  Padding bits after the last
    matrix bit are ignored, set or not.  Only the set bits of the body are
    walked, each mapped to its (row, col) by a table per n, and the graph is
    built from the neighbour masks and lists they fill, without normalising
    its edges again.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string: missing header byte", 0)
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("multi-byte size form not supported (n > 62)", 0)
    if not 63 <= head <= 126:
        raise Graph6Error(f"malformed header byte {s[0]!r}", 0)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit stream: expected {nbytes} body bytes, got {len(body)}", len(s)
        )
    if len(body) > nbytes:
        raise Graph6Error("unexpected bytes after graph6 body", 1 + nbytes)
    if body and not "?" <= min(body) <= max(body) <= "~":
        i = next(i for i, ch in enumerate(body) if not "?" <= ch <= "~")
        raise Graph6Error(f"out-of-range character {body[i]!r}", 1 + i)
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    bits >>= 6 * nbytes - nbits  # drop padding
    cells = _graph6_cells(n)
    masks = [0] * n
    adj = [[] for _ in range(n)]
    edges = []
    while bits:  # highest bit first: columns, then rows, ascending, so adj comes sorted
        k = bits.bit_length() - 1
        bits ^= 1 << k
        row, col = cell = cells[k]
        masks[row] |= 1 << col
        masks[col] |= 1 << row
        adj[row].append(col)
        adj[col].append(row)
        edges.append(cell)
    return _graph_of(masks, adj, edges)


def _graph_of(masks: list[int], adj: list[list[int]], edges: list[tuple[int, int]]) -> Graph:
    """``Graph(len(masks), edges)`` without checking or normalising again,
    given its neighbour masks, its sorted neighbour lists and its edges, each
    as (u, v) with u < v."""
    g = Graph.__new__(Graph)
    g.n = len(masks)
    g.edges = frozenset(edges)
    g.adj = tuple(map(tuple, adj))
    g.nbr_mask = tuple(masks)
    g._hash = hash((g.n, g.edges))
    return g


@cache
def _graph6_cells(n: int) -> tuple[tuple[int, int], ...]:
    """The (row, col) of each bit of an n-vertex graph6 body once padding is
    dropped, indexed from the lowest bit: the last matrix bit comes first.
    Kept per n, so at most 63 tables (n <= 62)."""
    return tuple((row, col) for col in range(1, n) for row in range(col))[::-1]


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line; inverse of parse_graph6.  Each edge
    sets its one bit of the body."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte size form caps n at {GRAPH6_MAX_N}, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    pad = (6 - nbits % 6) % 6
    top = nbits + pad - 1  # the bit of x(0,1); x(row, col) sits col(col-1)/2 + row below it
    bits = 0
    for row, col in g.edges:
        bits |= 1 << top - (col * (col - 1) // 2 + row)
    out = [chr(g.n + 63)]
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(chr(((bits >> shift) & 0x3F) + 63))
    return "".join(out)


def is_biconnected(g: Graph) -> bool:
    """True iff g is connected, has >= 3 vertices, and has no articulation vertex.

    Single iterative depth-first traversal with low-link values; the test
    suite validates it against the delete-one-vertex brute force.
    """
    return _biconnected(g.adj)


def _biconnected(adj: Sequence[Sequence[int]]) -> bool:
    """``is_biconnected`` of the graph whose vertex v has the neighbours
    ``adj[v]``."""
    n = len(adj)
    if n < 3:
        return False
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    disc[0] = low[0] = 0
    counter = 1
    root_children = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = counter
                counter += 1
                if v == 0:
                    root_children += 1
                stack.append((w, iter(adj[w])))
                break
            elif w != parent[v]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:  # v has no unvisited neighbour left
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != 0 and low[v] >= disc[p]:
                    return False  # p is an articulation vertex
    if counter != n:
        return False  # disconnected
    return root_children <= 1


def components_after_removal(g: Graph, s: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of G - S, each a sorted tuple, ordered by minimum vertex."""
    s_mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        s_mask |= 1 << v
    return tuple(tuple(_bits(comp)) for comp in component_masks(g, ((1 << g.n) - 1) & ~s_mask))


def component_masks(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on a vertex bitmask, as
    bitmasks ordered by minimum vertex."""
    comps = []
    rem = mask
    while rem:
        comp = _spread(g.nbr_mask, rem & -rem, mask)
        comps.append(comp)
        rem &= ~comp
    return comps


def _spread(masks: Sequence[int], seed: int, within: int) -> int:
    """The items reachable from the bitmask ``seed`` through the bitmask
    ``within`` (a negative one, ``~x``, allows all but x), where bit j of
    ``masks[i]`` is set iff items i and j are adjacent: vertices of a graph
    or nodes of a tree."""
    reach = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~reach
        reach |= frontier
    return reach


def neighbour_unions(masks: tuple[int, ...]) -> list[int]:
    """For every subset X of the positions of ``masks``, indexed by X's bits,
    the union of the masks at those positions: given the neighbourhood masks of
    consecutive vertices, the neighbourhood of every subset of them."""
    unions = [0]
    for m in masks:
        unions += [u | m for u in unions]
    return unions


def separates(g: Graph, s: Iterable[int], x: Iterable[int]) -> bool:
    """True iff removing s leaves two vertices of x in different components."""
    s_set = set(s)
    outside = [v for v in set(x) if v not in s_set]
    if len(outside) < 2:
        return False
    blocks = components_after_removal(g, s_set)
    where = {}
    for i, block in enumerate(blocks):
        for v in block:
            where[v] = i
    first = where[outside[0]]
    return any(where[v] != first for v in outside[1:])
