import hashlib
import itertools
import json
import random
import sys

import networkx as nx
import pytest

from lctw.decomposition import TreeDecomposition, exact_treewidth, validate
from lctw.fixtures import complete_graph, cycle_graph, path_graph
from lctw.generate import (
    EXHAUSTIVE_CAP,
    GenerationError,
    GenSpec,
    _biconnected_without,
    _class_key,
    _colour_classes,
    canonical_key,
    exhaustive_small,
    generate_k_tree,
    generate_partial_k_tree,
)
from lctw.graph import Graph, is_biconnected, write_graph6


def _complement(g):
    return Graph(g.n, [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)])


def _symmetric_graphs():
    """Vertex-transitive graphs: colour refinement leaves one class, so the
    search alone must absorb the symmetry."""
    cube = Graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])
    k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    wagner = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    return [cycle_graph(8), cube, k44, k33, wagner, _complement(cycle_graph(8))]


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _random_graph(n, p, rng):
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])


def _labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def _search_nodes(key, g):
    """Number of backtracking nodes (calls of the search's inner ``rec``) that
    ``key(g)`` visits."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "rec" and frame.f_code.co_filename.endswith("generate.py"):
            nodes += 1

    sys.setprofile(profile)
    try:
        key(g)
    finally:
        sys.setprofile(None)
    return nodes


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 4, "k": 0}, "k must be at least 1, got 0"),
        ({"n": 6, "k": -2}, "k must be at least 1, got -2"),
        ({"n": 8, "k": 3, "retry_budget": 0}, "retry budget must be at least 1, got 0"),
        ({"n": 8, "k": 3, "retry_budget": -5}, "retry budget must be at least 1, got -5"),
    ],
)
def test_gen_spec_refuses_what_corpus_spec_refuses(fields, message):
    # no edgeless "0-tree", and no draw that cannot be retried
    with pytest.raises(GenerationError, match=message):
        GenSpec(**fields)
    assert generate_partial_k_tree(GenSpec(n=8, k=1, seed=2, retry_budget=1))[0].m == 7  # k = 1 and one retry still draw


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
    graphs = [_random_graph(rng.randint(1, 7), 0.4, rng) for _ in range(150)]
    graphs += [_random_graph(n, p, rng) for n in (7, 8) for p in (0.3, 0.5, 0.7) for _ in range(20)]
    graphs += _symmetric_graphs()
    for g in graphs:
        for _ in range(3):
            h = _relabelled(g, rng)
            assert canonical_key(g) == canonical_key(h)
            assert _class_key(g.nbr_mask) == _class_key(h.nbr_mask)


def test_class_key_and_canonical_key_partition_all_small_graphs():
    # frozen class counts of all graphs on n = 1..6 vertices
    for n, expect in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        pairing = {}
        for g in _labelled_graphs(n):
            pairing.setdefault(_class_key(g.nbr_mask), set()).add(canonical_key(g))
        assert len(pairing) == expect
        assert all(len(canon) == 1 for canon in pairing.values())
        assert len(set().union(*pairing.values())) == expect


def test_colour_classes_are_stable():
    rng = random.Random(4)
    graphs = [path_graph(6), cycle_graph(7), complete_graph(5)] + _symmetric_graphs()
    graphs += [_random_graph(n, p, rng) for n in (6, 7, 8) for p in (0.3, 0.5) for _ in range(15)]
    for g in graphs:
        classes = _colour_classes(g.nbr_mask)
        assert sorted(v for cls in classes for v in cls) == list(range(g.n))
        # equitable: within a class, every vertex has as many neighbours in each class
        for cls in classes:
            for other in classes:
                assert len({sum(g.has_edge(v, u) for u in other) for v in cls}) == 1
    assert _colour_classes(path_graph(6).nbr_mask) == [[0, 5], [1, 4], [2, 3]]  # two rounds past the degrees


def test_twin_pruning_searches_one_order_of_k8_and_its_complement():
    for g in (complete_graph(8), Graph(8, [])):
        assert _search_nodes(canonical_key, g) == 9  # one node per depth 0..8
        assert _search_nodes(_class_key, g.nbr_mask) == 9


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

    calls = {"canonical_key": 0, "_class_key": 0, "_biconnected_without": 0}
    for name in calls:
        real = getattr(generate, name)

        def counting(g, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(g, *args)

        monkeypatch.setattr(generate, name, counting)
    graphs = list(exhaustive_small(7, 3))
    assert len(graphs) == 382
    # 3197 class keys when a labelled graph reached twice is keyed twice
    # 4237 connectivity tests when a child already walked is built and tested
    # again; 3379 is_biconnected calls when each child was built as a Graph
    # (3369 children and the 10 k-trees)
    assert calls == {"canonical_key": 382, "_class_key": 2339, "_biconnected_without": 3369}


def test_mask_connectivity_test_matches_is_biconnected():
    # The walk tests a child of a 2-connected graph on masks; is_biconnected on
    # the built child is the oracle, over every edge of every 2-connected graph
    # on 3..5 vertices and of random ones on 6..8.
    rng = random.Random(8)
    graphs = [g for n in range(3, 6) for g in _labelled_graphs(n)]
    graphs += [_random_graph(n, p, rng) for n in (6, 7, 8) for p in (0.4, 0.6) for _ in range(40)]
    verdicts = set()
    for g in filter(is_biconnected, graphs):
        for u, v in g.edges:
            child = Graph(g.n, g.edges - {(u, v)})
            verdict = is_biconnected(child)
            assert _biconnected_without(child.nbr_mask, u, v) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_exhaustive_small_order_pin():
    text = "\n".join(write_graph6(g) for g in exhaustive_small(7, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "353ce0fa521d1427232739ffdc016e5e717db7858d9f0894d5863b97874bf5fc"
    )


def _degree_bucket(g):
    return g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n)))


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_exhaustive_representatives_pairwise_non_isomorphic():
    buckets = {}
    for g in exhaustive_small(7, 3):
        buckets.setdefault(_degree_bucket(g), []).append(_nx(g))
    assert sum(map(len, buckets.values())) == 382
    for reps in buckets.values():
        for a, b in itertools.combinations(reps, 2):
            assert not nx.is_isomorphic(a, b)


def test_exhaustive_walk_graphs_isomorphic_to_their_representative(monkeypatch):
    import lctw.generate as generate

    walked = []
    real = generate._class_key

    def recording(masks):
        walked.append(masks)
        return real(masks)

    monkeypatch.setattr(generate, "_class_key", recording)
    reps = {real(g.nbr_mask): g for g in exhaustive_small(6, 3)}
    assert len(reps) == 60 and len(walked) > len(reps)
    for masks in walked:
        g = Graph(len(masks), [(u, v) for u, m in enumerate(masks) for v in range(u) if m >> v & 1])
        assert nx.is_isomorphic(_nx(g), _nx(reps[_class_key(masks)]))


def test_generate_partial_k_tree_builds_one_decomposition(monkeypatch):
    # rejected draws are tested on neighbour lists: only the accepted draw
    # becomes a Graph (counted at object creation, whichever path builds it)
    # and gets a decomposition
    import lctw.generate as generate
    import lctw.graph

    built = []
    real = generate.TreeDecomposition

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(generate, "TreeDecomposition", counting)
    graphs = []

    class Counted(Graph):
        __slots__ = ()

        def __new__(cls, *args):
            graphs.append(args)
            return super().__new__(cls)

    for module in (generate, lctw.graph):
        monkeypatch.setattr(module, "Graph", Counted)
    draws = []
    real_k_tree = generate._k_tree

    def recording(*args):
        draws.append(args)
        return real_k_tree(*args)

    monkeypatch.setattr(generate, "_k_tree", recording)
    spec = GenSpec(n=12, k=3, seed=3, delete_probability=0.45, require_biconnected=True)
    g, td = generate_partial_k_tree(spec)
    assert len(draws) > 1 and len(built) == 1 and len(graphs) == 1  # rejected draws build neither
    assert td.valid_for is None  # not validated
    kt, natural = generate_k_tree(GenSpec(n=12, k=3, seed=draws[-1][2]))
    assert g.edges <= kt.edges and td.bags == natural.bags and td.tree_edges == natural.tree_edges


def _reference_k_tree(n: int, k: int, seed: int) -> tuple[list, list, list]:
    """``generate._k_tree`` before the generator moved to neighbour masks,
    verbatim: edges as (u, v) with u < v, bags and tree edges."""
    rng = random.Random(seed)
    base = tuple(range(k))
    edges = [(u, v) for u, v in itertools.combinations(base, 2)]
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
        for sub in itertools.combinations(q, k - 1):
            newq = tuple(sorted(sub + (v,)))
            cliques.append(newq)
            clique_home[newq] = node
    return edges, bags, tree_edges


def _reference_generate_k_tree(spec):
    edges, bags, tree_edges = _reference_k_tree(spec.n, spec.k, spec.seed)
    return Graph(spec.n, edges), TreeDecomposition(bags, tree_edges)


def _reference_generate_partial_k_tree(spec):
    """The draw before the generator moved to neighbour masks, verbatim: a
    normalised ``Graph`` per draw from the sorted edge list."""
    rng = random.Random(spec.seed)
    for _ in range(max(1, spec.retry_budget)):
        edges, bags, tree_edges = _reference_k_tree(spec.n, spec.k, rng.getrandbits(64))
        g = Graph(spec.n, [e for e in sorted(edges) if rng.random() >= spec.delete_probability])
        if spec.require_biconnected and not is_biconnected(g):
            continue
        return g, TreeDecomposition(bags, tree_edges)
    raise GenerationError(
        f"no 2-connected draw within {spec.retry_budget} retries "
        f"(n={spec.n}, k={spec.k}, p={spec.delete_probability})"
    )


def _outcome(generate, spec):
    """Every field of the generated graph and decomposition, or the error text."""
    try:
        g, td = generate(spec)
    except GenerationError as exc:
        return str(exc)
    return (g.n, g.edges, g.adj, g.nbr_mask, hash(g)), (td.bags, td.tree_edges, td.node_adj, td.width, td.is_full)


def test_generator_matches_the_reference_draw():
    # the same random stream decides the same k-tree and the same kept edges,
    # and exhausting the retries raises the same error
    errors = 0
    for k in range(1, 6):
        for n in range(k + 1, k + 10):
            seed = 1000 * k + n
            assert _outcome(generate_k_tree, GenSpec(n=n, k=k, seed=seed)) == _outcome(
                _reference_generate_k_tree, GenSpec(n=n, k=k, seed=seed)
            )
            for p in (0.0, 0.25, 0.45):
                for biconnected in (False, True):
                    spec = GenSpec(
                        n=n, k=k, seed=seed, delete_probability=p, require_biconnected=biconnected, retry_budget=15
                    )
                    mine = _outcome(generate_partial_k_tree, spec)
                    assert mine == _outcome(_reference_generate_partial_k_tree, spec), spec
                    errors += isinstance(mine, str)
    assert 0 < errors < 200  # both outcomes are compared


def test_retry_exhaustion_names_the_spec():
    spec = GenSpec(n=11, k=2, seed=5, delete_probability=0.6, require_biconnected=True, retry_budget=7)
    with pytest.raises(GenerationError) as exc:
        generate_partial_k_tree(spec)
    assert str(exc.value) == "no 2-connected draw within 7 retries (n=11, k=2, p=0.6)"
    assert str(exc.value) == _outcome(_reference_generate_partial_k_tree, spec)


# sha256 of json.dumps(corpus_tasks(parse_corpus_spec(spec, seed=seed)),
# sort_keys=True), computed before the generator moved to neighbour masks:
# the bench workloads at seed 0, the acceptance corpora, k = 1 without
# 2-connectivity and k = 5
CORPUS_TASK_DIGESTS = [
    ("k=3,n=9..14,p=0.25,count=1000", 0, "7d4ef9ad0a440280507be50b1d5fd0ac6b771df737320f49b12da9a94799c546"),
    ("k=4,n=8..13,p=0.3,count=2500", 0, "f5ed312bd9492c7f2401230701e0c4e66a00b03598772012618f644855b0054f"),
    ("mode=exhaustive,k=3,nmax=7", 0, "fe10bd56fb41c1745a1b583699631d6957bd2395f54e5f4508fcfda36d34cf6c"),
    ("k=3,n=9..14,count=1000,p=0.25", 20260808, "4a91e38f65be52c43249d1473656704f660db72e01d1f6f5bd044c0ac69f1383"),
    ("k=3,n=5..9,count=10000,p=0.45", 206, "c49918d1aa4e6f74b562c595ebf7101267bc41543ba77eed6b40547066cbdb26"),
    ("k=4,n=8..13,count=1000,p=0.3", 0, "5c65ac4c9324b3dc12de6c2df359509d287a193745c0a6639d0a08227e935eec"),
    ("k=4,n=8..13,count=1000,p=0.3", 4071, "f2bdb5f5feb98f0bf5bd8cce15ac51dff792d0d3d019989d800c7f85dc088c56"),
    ("k=1,n=2..12,count=300,p=0.2,biconnected=0", 0, "603a96a9af4e2ab0dc55ea9a373f427440902212d36a8518b1773e21a3e090e0"),
    ("k=5,n=6..14,count=300,p=0.3", 0, "5c06b4b92dd9923325abbf7b6452175af8b74162fe1ecd91299940856236a949"),
]


@pytest.mark.parametrize("spec, seed, digest", CORPUS_TASK_DIGESTS)
def test_corpus_task_streams_are_pinned(spec, seed, digest, corpus):
    tasks = corpus(spec, seed)
    assert hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest() == digest
