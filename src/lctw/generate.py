"""Reproducible graph generation: k-trees, 2-connected partial k-trees, and
exhaustive small corpora.

Random k-trees grow by attaching each new vertex to a uniformly random
existing k-clique, drawn by its index in creation order and read off the bags
(``_clique``, the one clique rule, which the exhaustive walk uses too); a
fixed seed fully determines the output.  Every generated k-tree ships with its
natural full decomposition (one bag per added vertex), which remains valid for
any spanning subgraph.  A draw runs without objects: the k-tree comes as upper
neighbour masks, and a partial k-tree's draw fills the sorted neighbour lists
of the edges it keeps, on which its 2-connectivity is tested; only the
accepted draw becomes a ``Graph``, from its neighbour masks, and gets its
decomposition.

Exhaustive corpora are deduplicated by an exact key: colour refinement splits
the vertices into canonical classes, and a backtracking search takes the
maximal adjacency string over the orders that list those classes in colour
order.  Each class found is sorted by ``canonical_key``, the same search over
all orders.  Both searches keep only maximal rows, cut prefixes below the best
string and try one of each set of twins; the cost of ``canonical_key`` still
grows with the automorphism group, so exhaustive corpora are capped at 8
vertices.  Above that, exhaustiveness is not claimed.  The walk keys and
tests graphs as neighbour-mask tuples; only class representatives become
``Graph`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .decomposition import TreeDecomposition
from .graph import Graph, _biconnected, _graph_of, _spread, is_biconnected

__all__ = [
    "GenSpec",
    "GenerationError",
    "generate_k_tree",
    "generate_partial_k_tree",
    "exhaustive_small",
    "canonical_key",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 8


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance; the seed fully determines output."""

    n: int
    k: int
    seed: int = 0
    delete_probability: float = 0.0
    require_biconnected: bool = False
    retry_budget: int = 200

    def __post_init__(self):
        if self.n < self.k + 1:
            raise GenerationError(f"k-tree generation needs n >= k+1, got n={self.n}, k={self.k}")
        if not 0.0 <= self.delete_probability < 1.0:
            raise GenerationError(f"delete probability must be in [0,1), got {self.delete_probability}")


def generate_k_tree(spec: GenSpec) -> tuple[Graph, TreeDecomposition]:
    """A random k-tree plus its natural full width-k decomposition.

    Start from the clique on vertices 0..k-1; each vertex k..n-1 attaches to a
    random existing k-clique, adding a bag (clique + vertex) hung off a node
    whose bag contains that clique.
    """
    up, bags, tree_edges = _k_tree(spec.n, spec.k, spec.seed)
    return _kept_graph(*_subgraph(up, lambda: 1.0, 0.0)), TreeDecomposition(bags, tree_edges)


def _k_tree(n: int, k: int, seed: int) -> tuple[list[int], list, list]:
    """``generate_k_tree``'s upper neighbour masks (bit v of ``up[u]`` set for
    each edge uv with u < v), bags and tree edges, before any object is built
    from them.

    Vertex v picks clique i of the 1 + k(v - k) cliques so far by one
    ``randrange``; ``_clique`` reads it off the bags, and its home, the node
    whose bag first held it, is (i - 1) // k (node 0 for the base clique).
    The bag is the clique plus v, sorted since v is the largest vertex so far.
    """
    randrange = random.Random(seed).randrange
    up = [(1 << k) - (2 << u) for u in range(k)] + [0] * (n - k)  # the clique on 0..k-1
    bags: list[tuple[int, ...]] = []
    tree_edges: list[tuple[int, int]] = []
    for v in range(k, n):
        i = randrange(1 + k * (v - k))
        q = _clique(bags, i, k)
        node = v - k
        bags.append(q + (v,))
        if node > 0:
            tree_edges.append(((i - 1) // k if i else 0, node))
        bit = 1 << v
        for u in q:
            up[u] |= bit
    return up, bags, tree_edges


def _clique(bags: Sequence[tuple[int, ...]], i: int, k: int) -> tuple[int, ...]:
    """Clique i, in creation order, of the k-tree grown by attaching vertex
    k + t to a k-clique, its bag ``bags[t]`` being that clique plus the vertex.

    Clique 0 is 0..k-1.  Attaching v to q adds the k cliques of the
    (k-1)-subsets of q, in ``combinations`` order, plus v; the j-th of them
    leaves out q[k-1-j].  So clique i >= 1 is the bag of node (i - 1) // k
    without its entry at k - 1 - (i - 1) % k, and it is sorted when the bag is.
    """
    if i == 0:
        return tuple(range(k))
    node, j = divmod(i - 1, k)
    bag = bags[node]
    return bag[: k - 1 - j] + bag[k - j :]


def _subgraph(up: list[int], draw: Callable[[], float], p: float) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The sorted neighbour lists and the edges (each as (u, v) with u < v) of
    the spanning subgraph of the graph with upper neighbour masks ``up`` that
    keeps an edge iff ``draw() >= p``.  The edges are asked in ascending
    (u, v) order, u upward and then the bits of ``up[u]``, so each vertex gets
    its lower neighbours before its upper ones, both ascending."""
    adj: list[list[int]] = [[] for _ in up]
    edges = []
    for u, m in enumerate(up):
        nbrs = adj[u]
        while m:
            low = m & -m
            m ^= low
            if draw() >= p:
                v = low.bit_length() - 1
                nbrs.append(v)
                adj[v].append(u)
                edges.append((u, v))
    return adj, edges


def _kept_graph(adj: list[list[int]], edges: list[tuple[int, int]]) -> Graph:
    """The graph with sorted neighbour lists ``adj`` and edges ``edges``, built
    from its neighbour masks without normalising again."""
    masks = [0] * len(adj)
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return _graph_of(masks, adj, edges)


def generate_partial_k_tree(spec: GenSpec) -> tuple[Graph, TreeDecomposition]:
    """A spanning subgraph of a random k-tree, with the k-tree's decomposition.

    Edges are dropped independently with the configured probability, one
    ``random()`` per k-tree edge in ascending (u, v) order.  When
    2-connectivity is required, failed draws are retried with fresh derived
    seeds up to the retry budget; exhausting it signals an overly aggressive
    deletion policy.  A draw fills only the neighbour lists and the edge list
    of the edges it keeps, and its 2-connectivity is tested on those lists: a
    vertex of degree below 2 rejects it before the low-link walk.  Only the
    accepted draw becomes a ``Graph``, built from its masks without
    normalising again, and only it gets the natural decomposition, not yet
    validated.
    """
    rng = random.Random(spec.seed)
    for _ in range(max(1, spec.retry_budget)):
        up, bags, tree_edges = _k_tree(spec.n, spec.k, rng.getrandbits(64))
        adj, edges = _subgraph(up, rng.random, spec.delete_probability)
        if spec.require_biconnected and not (min(map(len, adj)) > 1 and _biconnected(adj)):
            continue
        return _kept_graph(adj, edges), TreeDecomposition(bags, tree_edges)
    raise GenerationError(
        f"no 2-connected draw within {spec.retry_budget} retries "
        f"(n={spec.n}, k={spec.k}, p={spec.delete_probability})"
    )


def canonical_key(g: Graph, max_n: int = EXHAUSTIVE_CAP) -> tuple[int, int]:
    """Exact isomorphism key: (n, lexicographically maximal adjacency string).

    Backtracking over all vertex orderings (``_max_string`` with one class
    holding every vertex).  Cost grows with the automorphism group, hence the
    vertex cap; twin pruning takes the symmetric groups of twins off it.  The
    exhaustive walk sorts its classes by this key but deduplicates on the
    cheaper ``_class_key``.
    """
    n = g.n
    if n > max_n:
        raise GenerationError(f"canonical labeling is capped at n <= {max_n}, got {n}")
    return n, _max_string(g.nbr_mask, [range(n)])


def _class_key(masks: tuple[int, ...]) -> tuple[int, int]:
    """Exact isomorphism key of the graph with neighbour masks ``masks``: (n,
    maximal adjacency string over the orders that list the colour classes of
    ``_colour_classes`` in colour order).

    The classes are canonical, so isomorphic graphs search the same orders up
    to relabelling; the string determines the adjacency matrix, so
    non-isomorphic graphs differ.  Not equal to ``canonical_key``, but it
    induces the same partition at a fraction of the search.
    """
    return len(masks), _max_string(masks, _colour_classes(masks))


def _colour_classes(masks: tuple[int, ...]) -> list[list[int]]:
    """The stable colour-refinement partition of the vertices of the graph
    with neighbour masks ``masks``, in colour order.

    The first colours are the degrees.  Each round names a vertex's colour by
    the rank of its signature (old colour, sorted neighbour colours) among the
    round's distinct signatures, so colours depend on the graph only, not on
    its labelling.  A round that splits no class is stable.
    """
    adj = [[u for u in range(len(masks)) if m >> u & 1] for m in masks]
    colour = [len(nbrs) for nbrs in adj]
    count = len(set(colour))
    while True:
        get = colour.__getitem__
        sigs = [(colour[v], tuple(sorted(map(get, nbrs)))) for v, nbrs in enumerate(adj)]
        names = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [names[sig] for sig in sigs]
        if len(names) == count:
            break
        count = len(names)
    classes: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(colour):
        classes[c].append(v)
    return classes


def _max_string(masks: tuple[int, ...], classes: Sequence[Sequence[int]]) -> int:
    """The lexicographically maximal adjacency string (the rows of the upper
    triangle, row d holding the adjacency of the d-th vertex to the earlier
    ones) of the graph with neighbour masks ``masks``, over the vertex orders
    that list ``classes`` one after another.

    Backtracking that keeps at every level only the candidates of the current
    class whose row is maximal, cuts a prefix below the best completed
    string's, and tries only one of each set of twins: swapping two unplaced
    twins (neighbourhoods equal outside the pair) is an automorphism fixing the
    prefix, so their subtrees give the same strings.
    """
    n = len(masks)
    pools = [cls for cls in classes for _ in cls]  # the class each position draws from
    total = n * (n - 1) // 2
    best = -1

    def rec(perm: tuple[int, ...], placed: int, bits: int):
        nonlocal best
        depth = len(perm)
        if depth == n:
            if bits > best:
                best = bits
            return
        maxrow, cands = -1, []
        for v in pools[depth]:
            if (placed >> v) & 1:
                continue
            row = 0
            mv = masks[v]
            for u in perm:
                row = (row << 1) | ((mv >> u) & 1)
            if row > maxrow:
                maxrow, cands = row, [v]
            elif row == maxrow:
                cands.append(v)
        nbits = (bits << depth) | maxrow
        if nbits < best >> (total - depth * (depth + 1) // 2):
            return
        tried: list[int] = []
        for v in cands:
            mv = masks[v]
            for u in tried:
                if mv & ~(1 << u) == masks[u] & ~(1 << v):
                    break  # v is a twin of u
            else:
                tried.append(v)
                rec(perm + (v,), placed | (1 << v), nbits)

    rec((), 0, 0)
    return best


def _all_k_trees(n: int, k: int) -> list[Graph]:
    """All k-trees on exactly n labeled vertices over all construction choices,
    deduplicated up to isomorphism.  A state holds the edges and the bags so
    far; each choice is the index of a clique, read by ``_clique`` as in
    ``_k_tree``."""
    base_edges = frozenset((u, v) for u, v in combinations(range(k), 2))
    states = [(base_edges, ())]
    for v in range(k, n):
        nxt = []
        for edges, bags in states:
            for i in range(1 + k * (v - k)):
                q = _clique(bags, i, k)
                nxt.append((edges | frozenset((u, v) for u in q), bags + (q + (v,),)))
        states = nxt
    seen_labeled = set()
    seen_classes = set()
    out = []
    for edges, _ in states:
        if edges in seen_labeled:
            continue
        seen_labeled.add(edges)
        g = Graph(n, edges)
        key = _class_key(g.nbr_mask)
        if key not in seen_classes:
            seen_classes.add(key)
            out.append(g)
    return out


def _biconnected_without(masks: tuple[int, ...], u: int, v: int) -> bool:
    """Whether a 2-connected graph stays 2-connected without its edge uv, given
    the neighbour masks ``masks`` with uv already removed.

    The graph less uv is still connected, so it is 2-connected unless some
    vertex x cuts it, and only a vertex other than u and v can: the graph less
    x is connected, so x cuts it exactly when it leaves u and v apart.  Such
    an x lies on every u-v path, so when u and v have a common neighbour w,
    only w is tried.
    """
    common = masks[u] & masks[v]
    suspects = common & -common if common else ((1 << len(masks)) - 1) ^ (1 << u) ^ (1 << v)
    start, goal = 1 << u, 1 << v
    while suspects:
        x = suspects & -suspects
        if not _spread(masks, start, ~x) & goal:
            return False
        suspects ^= x
    return True


def exhaustive_small(n_max: int, k: int) -> Iterator[Graph]:
    """All k-trees on <= n_max vertices and all their 2-connected spanning
    subgraphs, one per isomorphism class, sorted by ``canonical_key``.

    Every intermediate graph between a k-tree and a 2-connected spanning
    subgraph is itself 2-connected (it still contains the subgraph), so a
    depth-first edge-deletion walk pruned at the first loss of 2-connectivity
    reaches every class.  The walk runs on neighbour masks: it tests each
    one-edge-deleted child with ``_biconnected_without``, deduplicates on
    ``_class_key``, and builds a ``Graph`` and computes the sort key once per
    class, for its first-reached representative.
    """
    if n_max > EXHAUSTIVE_CAP:
        raise GenerationError(f"exhaustive corpora are capped at n <= {EXHAUSTIVE_CAP}")
    if k > n_max - 1:
        raise GenerationError(f"need n_max >= k+1, got n_max={n_max}, k={k}")
    for n in range(k, n_max + 1):
        visited: set[tuple[int, int]] = set()
        found: list[tuple[int, Graph]] = []
        stack = [t.nbr_mask for t in _all_k_trees(n, k) if is_biconnected(t)]
        walked: set[tuple[int, ...]] = set()  # neighbour masks already keyed
        while stack:
            masks = stack.pop()
            if masks in walked:
                continue  # its class is already visited
            walked.add(masks)
            key = _class_key(masks)
            if key in visited:
                continue
            visited.add(key)
            g = _graph(masks)
            found.append((canonical_key(g)[1], g))
            for u, v in sorted(g.edges):
                rest = list(masks)
                rest[u] ^= 1 << v
                rest[v] ^= 1 << u
                rest = tuple(rest)
                if rest not in walked and _biconnected_without(rest, u, v):
                    stack.append(rest)
        found.sort(key=lambda kg: kg[0])  # keys are unique per class
        yield from (g for _, g in found)


def _graph(masks: tuple[int, ...]) -> Graph:
    """The graph with neighbour masks ``masks``."""
    n = len(masks)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1])
