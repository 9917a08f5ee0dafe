"""Simple undirected graphs: construction, graph6 text I/O, separation predicates.

Vertices are integer ids 0..n-1.  A graph is stored only as its neighbour
masks, one int per vertex; ``Graph(n, edges)`` checks and builds them, and
``_from_masks`` is the one builder that takes masks as given.  Graphs are
immutable after construction and every operation in this module is a pure
function of its inputs, so instances can be shared freely across concurrent
workers.
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
    """Immutable simple undirected graph on vertices 0..n-1, stored only as
    its neighbour masks: bit v of ``nbr_mask[u]`` is set iff uv is an edge.
    ``edges`` ((u, v) pairs with u < v), ``adj`` (sorted neighbour tuples) and
    the rest are computed from the masks on each read, for callers outside
    the package: its own algorithms read the masks."""

    __slots__ = ("n", "nbr_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.nbr_mask = tuple(masks)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, m in enumerate(self.nbr_mask) for v in _bits(m >> u + 1 << u + 1))

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_bits(m)) for m in self.nbr_mask)

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.nbr_mask)) // 2

    def degree(self, v: int) -> int:
        return self.nbr_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.nbr_mask[u] >> v & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.nbr_mask == other.nbr_mask

    def __hash__(self):
        return hash(self.nbr_mask)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _from_masks(masks: Iterable[int]) -> Graph:
    """The graph with neighbour masks ``masks``, taken as given: the one
    builder that trusts its input to be symmetric, loop-free and in range."""
    g = Graph.__new__(Graph)
    g.nbr_mask = masks = tuple(masks)
    g.n = len(masks)
    return g


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
    built from the neighbour masks they fill.
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
    while bits:
        low = bits & -bits
        bits ^= low
        row, col = cells[low.bit_length() - 1]
        masks[row] |= 1 << col
        masks[col] |= 1 << row
    return _from_masks(masks)


@cache
def _graph6_cells(n: int) -> tuple[tuple[int, int], ...]:
    """The (row, col) of each bit of an n-vertex graph6 body once padding is
    dropped, indexed from the lowest bit: the last matrix bit comes first.
    Kept per n, so at most 63 tables (n <= 62)."""
    return tuple((row, col) for col in range(1, n) for row in range(col))[::-1]


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line; inverse of parse_graph6.  Column col
    of the matrix is the lower neighbour mask of vertex col, so the body's
    matrix bits, last bit first, are those masks laid end to end; one string
    reversal puts them in order."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte size form caps n at {GRAPH6_MAX_N}, got {n}")
    nbits = n * (n - 1) // 2
    pad = (6 - nbits % 6) % 6
    rev = 0  # bit col(col-1)/2 + row is x(row, col)
    for col, m in enumerate(g.nbr_mask):
        rev |= (m & (1 << col) - 1) << col * (col - 1) // 2
    bits = int(f"{rev:0{nbits}b}"[::-1], 2) << pad
    out = [chr(n + 63)]
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(chr(((bits >> shift) & 0x3F) + 63))
    return "".join(out)


def is_biconnected(g: Graph) -> bool:
    """True iff g is connected, has >= 3 vertices, and has no articulation vertex.
    The test suite validates it against the delete-one-vertex brute force."""
    return _biconnected(g.nbr_mask)


def _biconnected(masks: Sequence[int]) -> bool:
    """``is_biconnected`` of the graph with neighbour masks ``masks``: one
    depth-first walk from vertex 0 with low-link values.  A finished vertex's
    low value is the least depth its subtree reaches by an edge up the path,
    to its parent included, so a non-root vertex cuts the graph iff a child's
    low value is its own depth.  Once the root's first child is finished, an
    unseen vertex means the graph is disconnected or the root cuts it."""
    n = len(masks)
    if n < 3 or not masks[0]:
        return False
    depth = [0] * n
    low = [0] * n
    path = [0]
    on_path, unseen = 1, (1 << n) - 2
    while True:
        v = path[-1]
        nxt = masks[v] & unseen
        if nxt:
            wb = nxt & -nxt
            w = wb.bit_length() - 1
            unseen ^= wb
            on_path |= wb
            depth[w] = low[w] = len(path)
            path.append(w)
            continue
        path.pop()
        if len(path) == 1:
            return not unseen
        on_path ^= 1 << v
        lo, up = low[v], masks[v] & on_path  # the parent and the back edges
        while up:
            ub = up & -up
            up ^= ub
            d = depth[ub.bit_length() - 1]
            if d < lo:
                lo = d
        p = path[-1]
        if lo == depth[p]:
            return False  # p is an articulation vertex
        if lo < low[p]:
            low[p] = lo


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
    ``masks[i]`` is set iff items i and j are adjacent: vertices of a graph,
    or nodes of a decomposition's tree (every production walk of one)."""
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


def _relabelled(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """The neighbour masks of the graph with neighbour masks ``masks``
    relabelled so that its vertex ``order[i]`` becomes vertex i."""
    at = [0] * len(order)  # at[v]: the bit of v's position in the order
    for i, v in enumerate(order):
        at[v] = 1 << i
    out = []
    for v in order:
        m, r = masks[v], 0
        while m:
            low = m & -m
            m ^= low
            r |= at[low.bit_length() - 1]
        out.append(r)
    return out


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
