"""Reproducible graph generation: k-trees, 2-connected partial k-trees, and
exhaustive small corpora.

Random k-trees grow by attaching each new vertex to a uniformly random
existing k-clique from an incrementally maintained clique list; a fixed seed
fully determines the output.  Every generated k-tree ships with its natural
full decomposition (one bag per added vertex), which remains valid for any
spanning subgraph.

Exhaustive corpora are deduplicated by exact canonical labeling, which is
brute force with prefix pruning and therefore capped at 8 vertices; above
that, duplicates would only cost redundant checks and exhaustiveness is not
claimed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .decomposition import TreeDecomposition
from .graph import Graph, is_biconnected

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
    edges, bags, tree_edges = _k_tree(spec.n, spec.k, spec.seed)
    return Graph(spec.n, edges), TreeDecomposition(bags, tree_edges)


def _k_tree(n: int, k: int, seed: int) -> tuple[list, list, list]:
    """``generate_k_tree``'s edges (each as (u, v) with u < v), bags and tree
    edges, before any object is built from them."""
    rng = random.Random(seed)
    base = tuple(range(k))
    edges = [(u, v) for u, v in combinations(base, 2)]
    cliques = [base]
    clique_home = {base: 0}
    bags: list[tuple[int, ...]] = []
    tree_edges: list[tuple[int, int]] = []
    for v in range(k, n):
        q = cliques[rng.randrange(len(cliques))]
        node = len(bags)
        bags.append(tuple(sorted(q + (v,))))
        if node > 0:
            tree_edges.append((clique_home[q], node))
        edges.extend((u, v) for u in q)
        for sub in combinations(q, k - 1):
            newq = tuple(sorted(sub + (v,)))
            cliques.append(newq)
            clique_home[newq] = node
    return edges, bags, tree_edges


def generate_partial_k_tree(spec: GenSpec) -> tuple[Graph, TreeDecomposition]:
    """A spanning subgraph of a random k-tree, with the k-tree's decomposition.

    Edges are dropped independently with the configured probability.  When
    2-connectivity is required, failed draws are retried with fresh derived
    seeds up to the retry budget; exhausting it signals an overly aggressive
    deletion policy.  Each draw builds only the kept graph; the decomposition
    is built once, for the accepted draw.
    """
    rng = random.Random(spec.seed)
    for _ in range(max(1, spec.retry_budget)):
        edges, bags, tree_edges = _k_tree(spec.n, spec.k, rng.getrandbits(64))
        g = Graph(spec.n, [e for e in sorted(edges) if rng.random() >= spec.delete_probability])
        if spec.require_biconnected and not is_biconnected(g):
            continue
        return g, TreeDecomposition(bags, tree_edges)
    raise GenerationError(
        f"no 2-connected draw within {spec.retry_budget} retries "
        f"(n={spec.n}, k={spec.k}, p={spec.delete_probability})"
    )


def canonical_key(g: Graph, max_n: int = EXHAUSTIVE_CAP) -> tuple[int, int]:
    """Exact isomorphism key: (n, lexicographically maximal adjacency string).

    Backtracking over vertex orderings, keeping at every level only the
    candidates whose adjacency row to the already-placed prefix is maximal;
    equal-row candidates are all explored, so the result is exact.  Cost grows
    with the automorphism group, hence the vertex cap.
    """
    n = g.n
    if n > max_n:
        raise GenerationError(f"canonical labeling is capped at n <= {max_n}, got {n}")
    if n <= 1:
        return n, 0
    masks = g.nbr_mask
    best = -1

    def rec(perm: tuple[int, ...], placed: int, bits: int):
        nonlocal best
        depth = len(perm)
        if depth == n:
            if bits > best:
                best = bits
            return
        rows: dict[int, list[int]] = {}
        for v in range(n):
            if (placed >> v) & 1:
                continue
            row = 0
            mv = masks[v]
            for u in perm:
                row = (row << 1) | ((mv >> u) & 1)
            rows.setdefault(row, []).append(v)
        maxrow = max(rows)
        nbits = (bits << depth) | maxrow
        # prune against the best completed string's prefix
        if best >= 0:
            done = depth * (depth + 1) // 2
            total = n * (n - 1) // 2
            if nbits < (best >> (total - done)):
                return
        for v in rows[maxrow]:
            rec(perm + (v,), placed | (1 << v), nbits)

    rec((), 0, 0)
    return n, best


def _all_k_trees(n: int, k: int) -> list[Graph]:
    """All k-trees on exactly n labeled vertices over all construction choices,
    deduplicated up to isomorphism."""
    base_edges = frozenset((u, v) for u, v in combinations(range(k), 2))
    states = [(base_edges, (tuple(range(k)),))]
    for v in range(k, n):
        nxt = []
        for edges, cliques in states:
            for q in cliques:
                new_edges = edges | frozenset((min(u, v), max(u, v)) for u in q)
                new_cliques = cliques + tuple(
                    tuple(sorted(sub + (v,))) for sub in combinations(q, k - 1)
                )
                nxt.append((new_edges, new_cliques))
        states = nxt
    seen_labeled = set()
    seen_canon = set()
    out = []
    for edges, _ in states:
        if edges in seen_labeled:
            continue
        seen_labeled.add(edges)
        g = Graph(n, edges)
        key = canonical_key(g)
        if key not in seen_canon:
            seen_canon.add(key)
            out.append(g)
    return out


def exhaustive_small(n_max: int, k: int) -> Iterator[Graph]:
    """All k-trees on <= n_max vertices and all their 2-connected spanning
    subgraphs, deduplicated by canonical isomorphism form.

    Every intermediate graph between a k-tree and a 2-connected spanning
    subgraph is itself 2-connected (it still contains the subgraph), so a
    depth-first edge-deletion walk pruned at the first loss of 2-connectivity
    reaches every class.
    """
    if n_max > EXHAUSTIVE_CAP:
        raise GenerationError(f"exhaustive corpora are capped at n <= {EXHAUSTIVE_CAP}")
    if k > n_max - 1:
        raise GenerationError(f"need n_max >= k+1, got n_max={n_max}, k={k}")
    for n in range(k, n_max + 1):
        visited: set[tuple[int, int]] = set()
        found: list[tuple[int, Graph]] = []
        stack = [t for t in _all_k_trees(n, k) if is_biconnected(t)]
        walked: set[frozenset] = set()  # edge sets already keyed
        while stack:
            g = stack.pop()
            if g.edges in walked:
                continue  # its class is already visited
            walked.add(g.edges)
            key = canonical_key(g)
            if key in visited:
                continue
            visited.add(key)
            found.append((key[1], g))
            for e in sorted(g.edges):
                h = Graph(n, g.edges - {e})
                if is_biconnected(h):
                    stack.append(h)
        found.sort(key=lambda kg: kg[0])  # keys are unique per class
        yield from (g for _, g in found)
