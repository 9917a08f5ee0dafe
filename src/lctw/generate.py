"""Reproducible graph generation: k-trees, 2-connected partial k-trees, and
exhaustive small corpora.

Random k-trees grow by attaching each new vertex to a uniformly random
existing k-clique, drawn by its index in creation order and read off the bags
(``_clique``, the one clique rule, which the exhaustive walk uses too); a
fixed seed fully determines the output.  Every generated k-tree ships with its
natural full decomposition (one bag per added vertex), which remains valid for
any spanning subgraph.  A draw runs without objects: the k-tree comes as
neighbour masks, and a partial k-tree's draw fills the neighbour masks of the
edges it keeps, on which its 2-connectivity is tested; only the accepted draw
becomes a ``Graph``, by ``graph._from_masks``, and gets its decomposition.

Exhaustive corpora are deduplicated by an exact key: colour refinement splits
the vertices into canonical classes, and a backtracking search takes the
maximal adjacency string over the orders that list those classes in colour
order.  Each class found is sorted by ``canonical_key``, the same search over
all orders.  Both searches keep only maximal rows, cut prefixes below the best
string and try one of each set of twins; the cost of ``canonical_key`` still
grows with the automorphism group, so exhaustive corpora are capped at 8
vertices.  Above that, exhaustiveness is not claimed.  The labelled k-trees
the walk starts from, and every graph it keys and tests, are neighbour-mask
tuples; only class representatives become ``Graph`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .decomposition import TreeDecomposition
from .graph import Graph, _biconnected, _bits, _from_masks, _spread, vertex_mask

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
        if self.k < 1:
            raise GenerationError(f"k must be at least 1, got {self.k}")
        if self.retry_budget < 1:
            raise GenerationError(f"retry budget must be at least 1, got {self.retry_budget}")
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
    nbr, bags, tree_edges = _k_tree(spec.n, spec.k, spec.seed)
    return _from_masks(nbr), TreeDecomposition(bags, tree_edges)


def _k_tree(n: int, k: int, seed: int) -> tuple[list[int], list, list]:
    """``generate_k_tree``'s neighbour masks, bags and tree edges, before any
    object is built from them.

    Vertex v picks clique i of the 1 + k(v - k) cliques so far by one
    ``randrange``; ``_clique`` reads it off the bags, and its home, the node
    whose bag first held it, is (i - 1) // k (node 0 for the base clique).
    The bag is the clique plus v, sorted since v is the largest vertex so far.
    """
    randrange = random.Random(seed).randrange
    nbr = [((1 << k) - 1) ^ (1 << u) for u in range(k)] + [0] * (n - k)  # the clique on 0..k-1
    bags: list[tuple[int, ...]] = []
    tree_edges: list[tuple[int, int]] = []
    for v in range(k, n):
        i = randrange(1 + k * (v - k))
        q = _clique(bags, i, k)
        node = v - k
        bags.append(q + (v,))
        if node > 0:
            tree_edges.append(((i - 1) // k if i else 0, node))
        bit, own = 1 << v, 0
        for u in q:
            nbr[u] |= bit
            own |= 1 << u
        nbr[v] = own
    return nbr, bags, tree_edges


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


def _subgraph(nbr: list[int], draw: Callable[[], float], p: float) -> list[int]:
    """The neighbour masks of the spanning subgraph of the graph with
    neighbour masks ``nbr`` that keeps an edge iff ``draw() >= p``.  The
    edges are asked in ascending (u, v) order: u upward, then the neighbours
    of u above it, ascending."""
    kept = [0] * len(nbr)
    for u, m in enumerate(nbr):
        higher, bit = m >> u + 1 << u + 1, 1 << u
        while higher:
            low = higher & -higher
            higher ^= low
            if draw() >= p:
                kept[u] |= low
                kept[low.bit_length() - 1] |= bit
    return kept


def generate_partial_k_tree(spec: GenSpec) -> tuple[Graph, TreeDecomposition]:
    """A spanning subgraph of a random k-tree, with the k-tree's decomposition.

    Edges are dropped independently with the configured probability, one
    ``random()`` per k-tree edge in ascending (u, v) order.  When
    2-connectivity is required, failed draws are retried with fresh derived
    seeds up to the retry budget; exhausting it signals an overly aggressive
    deletion policy.  A draw fills only the neighbour masks of the edges it
    keeps, and its 2-connectivity is tested on those masks: a vertex of degree
    below 2 rejects it before the low-link walk.  Only the accepted draw
    becomes a ``Graph``, and only it gets the natural decomposition, not yet
    validated.
    """
    rng = random.Random(spec.seed)
    for _ in range(spec.retry_budget):
        nbr, bags, tree_edges = _k_tree(spec.n, spec.k, rng.getrandbits(64))
        kept = _subgraph(nbr, rng.random, spec.delete_probability)
        if spec.require_biconnected and not (min(map(int.bit_count, kept)) > 1 and _biconnected(kept)):
            continue
        return _from_masks(kept), TreeDecomposition(bags, tree_edges)
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


def _all_k_trees(n: int, k: int) -> list[tuple[int, ...]]:
    """The neighbour masks of all k-trees on exactly n labeled vertices over
    all construction choices, one per isomorphism class.  A state holds the
    neighbour masks and the bags so far; each choice is the index of a
    clique, read by ``_clique`` as in ``_k_tree``."""
    states = [(tuple(((1 << k) - 1) ^ (1 << u) for u in range(k)) + (0,) * (n - k), ())]
    for v in range(k, n):
        nxt = []
        bit = 1 << v
        for masks, bags in states:
            for i in range(1 + k * (v - k)):
                q = _clique(bags, i, k)
                grown = list(masks)
                for u in q:
                    grown[u] |= bit
                grown[v] = vertex_mask(q)
                nxt.append((tuple(grown), bags + (q + (v,),)))
        states = nxt
    seen, out = set(), []
    for masks in dict.fromkeys(masks for masks, _ in states):  # each labelled k-tree once
        key = _class_key(masks)
        if key not in seen:
            seen.add(key)
            out.append(masks)
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
        stack = [masks for masks in _all_k_trees(n, k) if _biconnected(masks)]
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
            g = _from_masks(masks)
            found.append((canonical_key(g)[1], g))
            for u, m in enumerate(masks):  # each edge uv, u < v, in ascending order
                for v in _bits(m >> u + 1 << u + 1):
                    child = list(masks)
                    child[u] ^= 1 << v
                    child[v] ^= 1 << u
                    child = tuple(child)
                    if child not in walked and _biconnected_without(child, u, v):
                        stack.append(child)
        found.sort(key=lambda kg: kg[0])  # keys are unique per class
        yield from (g for _, g in found)
