import itertools
import random

import pytest

from lctw.decomposition import exact_treewidth, validate
from lctw.generate import (
    EXHAUSTIVE_CAP,
    GenerationError,
    GenSpec,
    canonical_key,
    exhaustive_small,
    generate_k_tree,
    generate_partial_k_tree,
)
from lctw.graph import Graph, is_biconnected, write_graph6


def test_genspec_validation():
    with pytest.raises(GenerationError):
        GenSpec(n=3, k=3)  # n < k+1
    with pytest.raises(GenerationError):
        GenSpec(n=5, k=3, delete_probability=1.0)


def test_generate_k_tree_smallest():
    g, td = generate_k_tree(GenSpec(n=4, k=3, seed=9))
    assert g.m == 6 and td.bags == ((0, 1, 2, 3),)
    g5, td5 = generate_k_tree(GenSpec(n=5, k=3, seed=1))
    assert td5.node_count == 2
    a, b = td5.bags
    assert len(set(a) & set(b)) == 3


def test_generate_k_tree_properties():
    g, td = generate_k_tree(GenSpec(n=12, k=3, seed=42))
    assert validate(g, td) == []
    assert td.is_full and td.width == 3
    assert td.node_count == g.n - 3
    assert exact_treewidth(g)[0] == 3


def test_generate_k_tree_deterministic():
    a = generate_k_tree(GenSpec(n=10, k=3, seed=7))
    b = generate_k_tree(GenSpec(n=10, k=3, seed=7))
    assert a[0] == b[0] and a[1].bags == b[1].bags and a[1].tree_edges == b[1].tree_edges
    c = generate_k_tree(GenSpec(n=10, k=3, seed=8))
    assert c[0] != a[0] or c[1].bags != a[1].bags  # different seed, different draw


def test_generate_partial_k_tree_no_deletion_is_k_tree():
    spec = GenSpec(n=9, k=3, seed=5, delete_probability=0.0)
    g, td = generate_partial_k_tree(spec)
    assert g.m == 3 * 9 - 6  # k-tree edge count for k=3


def test_generate_partial_k_tree_corpus_properties():
    for i in range(40):
        spec = GenSpec(n=8 + i % 7, k=3, seed=i, delete_probability=0.3, require_biconnected=True)
        g, td = generate_partial_k_tree(spec)
        assert is_biconnected(g)
        assert validate(g, td) == []
        assert exact_treewidth(g)[0] <= 3


def test_generate_partial_4_tree_corpus():
    for i in range(15):
        spec = GenSpec(n=9 + i % 5, k=4, seed=i, delete_probability=0.3, require_biconnected=True)
        g, _ = generate_partial_k_tree(spec)
        assert is_biconnected(g)
        assert exact_treewidth(g)[0] <= 4


def test_generate_partial_k_tree_retry_exhaustion():
    spec = GenSpec(n=12, k=3, seed=0, delete_probability=0.9, require_biconnected=True, retry_budget=10)
    with pytest.raises(GenerationError):
        generate_partial_k_tree(spec)


def test_generate_partial_k_tree_deterministic_stream():
    spec = GenSpec(n=10, k=3, seed=77, delete_probability=0.25, require_biconnected=True)
    a, _ = generate_partial_k_tree(spec)
    b, _ = generate_partial_k_tree(spec)
    assert a == b


def test_canonical_key_permutation_invariant():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_key(g) == canonical_key(h)


def test_canonical_key_separates_nonisomorphic():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(path) != canonical_key(star)


def test_canonical_key_cap():
    with pytest.raises(GenerationError):
        canonical_key(Graph(9, []))


def test_canonical_key_counts_biconnected_classes():
    # frozen reference counts of 2-connected graphs: 1, 3, 10 for n = 3, 4, 5
    for n, expect in [(3, 1), (4, 3), (5, 10)]:
        keys = set()
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            if is_biconnected(g):
                keys.add(canonical_key(g))
        assert len(keys) == expect


def test_exhaustive_small_n4():
    graphs = list(exhaustive_small(4, 3))
    by_n = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    assert len(by_n[3]) == 1  # the triangle
    assert len(by_n[4]) == 3  # K4, K4 minus an edge, C4
    sizes = sorted(g.m for g in by_n[4])
    assert sizes == [4, 5, 6]


def test_exhaustive_small_matches_bruteforce_n5():
    mine = {canonical_key(g) for g in exhaustive_small(5, 3) if g.n == 5}
    brute = set()
    pairs = list(itertools.combinations(range(5), 2))
    for bits in range(1 << len(pairs)):
        g = Graph(5, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
        if is_biconnected(g) and exact_treewidth(g)[0] <= 3:
            brute.add(canonical_key(g))
    assert mine == brute and len(mine) == 9


def test_exhaustive_small_frozen_counts():
    # regression values established on first derivation
    assert sum(1 for _ in exhaustive_small(5, 3)) == 13
    assert sum(1 for _ in exhaustive_small(6, 3)) == 60


def test_exhaustive_small_all_members_qualify():
    for g in exhaustive_small(6, 3):
        assert is_biconnected(g)
        assert exact_treewidth(g)[0] <= 3


def test_exhaustive_small_deterministic():
    a = [write_graph6(g) for g in exhaustive_small(5, 3)]
    b = [write_graph6(g) for g in exhaustive_small(5, 3)]
    assert a == b


def test_exhaustive_small_caps():
    with pytest.raises(GenerationError):
        list(exhaustive_small(EXHAUSTIVE_CAP + 1, 3))
    with pytest.raises(GenerationError):
        list(exhaustive_small(3, 3))  # k > n_max - 1


def test_exhaustive_small_keys_each_labelled_graph_once(monkeypatch):
    import lctw.generate as generate

    calls = []
    real = generate.canonical_key

    def counting(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(generate, "canonical_key", counting)
    graphs = list(exhaustive_small(7, 3))
    assert len(graphs) == 382
    assert len(calls) == 2339  # 3197 when a labelled graph reached twice is keyed twice


def test_generate_partial_k_tree_builds_one_decomposition(monkeypatch):
    import lctw.generate as generate

    built = []
    real = generate.TreeDecomposition

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(generate, "TreeDecomposition", counting)
    draws = []
    real_k_tree = generate._k_tree

    def recording(*args):
        draws.append(args)
        return real_k_tree(*args)

    monkeypatch.setattr(generate, "_k_tree", recording)
    spec = GenSpec(n=12, k=3, seed=3, delete_probability=0.45, require_biconnected=True)
    g, td = generate_partial_k_tree(spec)
    assert len(draws) > 1 and len(built) == 1  # rejected draws build no decomposition
    kt, natural = generate_k_tree(GenSpec(n=12, k=3, seed=draws[-1][2]))
    assert g.edges <= kt.edges and td.bags == natural.bags and td.tree_edges == natural.tree_edges
