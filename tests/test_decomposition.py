import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctw.cycles import PathSegment
from lctw.decomposition import (
    DEFAULT_TREEWIDTH_CAP,
    DecompositionError,
    TreeDecomposition,
    TreewidthCapExceeded,
    branch_at,
    branch_of_route,
    branch_of_vertex,
    branch_union,
    check_separator_property,
    exact_treewidth,
    full_tree_decomposition,
    has_treewidth_at_most_2,
    require_valid,
    validate,
)
from lctw.fixtures import complete_graph, path_graph, petersen
from lctw.generate import GenSpec, exhaustive_small, generate_k_tree, generate_partial_k_tree
from lctw.graph import Graph, component_masks, is_biconnected, parse_graph6

from helpers import BLOB_BAG, BLOB_EDGE, blob_mutations, random_graph


def test_validate_single_bag_k4(k4):
    td = TreeDecomposition([(0, 1, 2, 3)], [])
    assert validate(k4, td) == []
    assert td.width == 3 and td.is_full


def test_validate_reports_missing_vertex_and_edge(k4):
    td = TreeDecomposition([(0, 1, 2)], [])
    problems = validate(k4, td)
    assert any("vertex 3" in p for p in problems)
    assert any("edge (0,3)" in p for p in problems)


def test_validate_reports_disconnected_subtree():
    g = Graph(3, [(0, 1), (1, 2)])
    td = TreeDecomposition([(0, 1), (1, 2), (0,)], [(0, 1), (1, 2)])
    problems = validate(g, td)
    assert any("subtree-connectivity" in p and "vertex 0" in p for p in problems)


def test_validate_reports_tree_shape():
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition([(0, 1), (0, 1)], [])
    assert any("tree-shape" in p for p in validate(g, td))


def test_validate_builds_no_bag_tuples_of_a_decomposition_made_from_masks():
    # one made from bag masks is read off them whether it passes or fails,
    # and fails with what the same bags given as tuples fail with
    import lctw.decomposition as decomposition

    g = path_graph(5)
    td = decomposition._from_bag_masks([0b111, 0b1110, 0b11100], [(0, 1), (1, 2)])
    assert validate(g, td) == [] and td._bags is None
    for h, problems in (
        (Graph(5, set(g.edges) | {(0, 4)}), ["edge-cover: edge (0,4) is in no bag"]),
        (path_graph(4), ["bag-range: node 2 holds out-of-range vertex 4"]),
        (path_graph(6), ["vertex-cover: vertex 5 is in no bag", "edge-cover: edge (4,5) is in no bag"]),
    ):
        assert validate(h, td) == problems and td._bags is None
        assert validate(h, TreeDecomposition([(0, 1, 2), (1, 2, 3), (2, 3, 4)], td.tree_edges)) == problems


def test_exact_treewidth_known_values(k4, c5, petersen_graph, fig):
    assert exact_treewidth(k4)[0] == 3
    assert exact_treewidth(c5)[0] == 2
    assert exact_treewidth(petersen_graph)[0] == 4
    assert exact_treewidth(fig[0])[0] == 3
    assert exact_treewidth(path_graph(6))[0] == 1
    assert exact_treewidth(Graph(3, []))[0] == 0


def test_exact_treewidth_cap():
    with pytest.raises(TreewidthCapExceeded):
        exact_treewidth(Graph(30, []), cap=24)


def test_exact_treewidth_decomposition_validates():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        width, td = exact_treewidth(g)
        assert validate(g, td) == []
        assert td.width == width


def brute_force_treewidth(g):
    """Minimum over all elimination orders of the maximum elimination degree."""
    best = g.n
    g_adj = g.adj  # built from the masks on every read: once per graph, not per order
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g_adj[v]) for v in range(g.n)}
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            if width >= best:
                break
            nbrs = adj.pop(v)
            for a in nbrs:
                adj[a].discard(v)
                adj[a].update(nbrs - {a})
        else:
            best = min(best, width)
    return best


def test_exact_treewidth_agrees_with_bruteforce():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.25, 0.45, 0.7]))
        assert exact_treewidth(g)[0] == brute_force_treewidth(g)
    # larger spot checks up to the invariant's n <= 9 bound
    for n, seed in ((8, 1), (8, 2), (9, 3)):
        g = random_graph(random.Random(seed), n, 0.35)
        assert exact_treewidth(g)[0] == brute_force_treewidth(g)


def full_table_treewidth(g):
    """Reference exact treewidth: the dynamic program over every subset S of
    eliminated vertices, tw(S) = min over v in S of max(tw(S - v), |Q(v, S - v)|)
    where Q counts the outside neighbors of v's component in G[S].  2^n states."""
    n = g.n
    if n == 1:
        return 0, TreeDecomposition([(0,)], [])
    nbr = g.nbr_mask
    full = (1 << n) - 1
    size = 1 << n
    tw = [0] * size
    pick = [0] * size
    tw[0] = -1
    for s_mask in range(1, size):
        best = n + 1
        bestv = -1
        for comp in component_masks(g, s_mask):
            outside = 0
            c = comp
            while c:
                low = c & -c
                outside |= nbr[low.bit_length() - 1]
                c ^= low
            q = (outside & ~s_mask).bit_count()
            c = comp
            while c:
                low = c & -c
                c ^= low
                prev = tw[s_mask ^ low]
                cand = q if q > prev else prev
                if cand < best:
                    best = cand
                    bestv = low.bit_length() - 1
        tw[s_mask] = best
        pick[s_mask] = bestv
    width = tw[full]
    order = []
    s_mask = full
    while s_mask:
        v = pick[s_mask]  # the vertex eliminated last within s_mask
        order.append(v)
        s_mask ^= 1 << v
    order.reverse()
    td = set_decomposition_from_order(g, order)
    return width, td


def set_decomposition_from_order(g, order):
    """Reference tree decomposition induced by an elimination order (fill-in
    simulation on vertex sets)."""
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(a) for a in g.adj]
    bags = []
    higher_of = []
    for v in order:
        higher = {u for u in adj[v] if pos[u] > pos[v]}
        bags.append(tuple(sorted({v} | higher)))
        higher_of.append(higher)
        for a in higher:
            adj[a].discard(v)
            for b in higher:
                if a != b:
                    adj[a].add(b)
    edges = []
    for i, higher in enumerate(higher_of):
        if higher:
            edges.append((i, min(pos[u] for u in higher)))  # the node of the earliest-eliminated higher vertex
        elif i + 1 < len(order):
            edges.append((i, i + 1))  # keep the tree connected across components
    return TreeDecomposition(bags, edges)


def _differential_corpus():
    """Graphs on which the search must return the reference's decomposition:
    the exhaustive k = 3, nmax = 7 and k = 4, nmax = 6 corpora, 320 random
    G(n <= 11, p) and 80 random G(12, p) from sparse (often disconnected or
    with cut vertices) to dense, two K7 joined by a bridge, and Petersen."""
    yield from exhaustive_small(7, 3)
    yield from exhaustive_small(6, 4)
    rng = random.Random(2012)
    for i in range(400):
        n = rng.randint(1, 11) if i < 320 else 12
        yield random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.45, 0.6, 0.8]))
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    yield Graph(14, k7 + [(u + 7, v + 7) for u, v in k7] + [(6, 7)])
    yield petersen()


def test_exact_treewidth_matches_the_full_table():
    seen = {"disconnected": 0, "cut vertex": 0, "2-connected": 0, "dense": 0}
    count = 0
    for g in _differential_corpus():
        width, td = exact_treewidth(g)
        ref_width, ref_td = full_table_treewidth(g)
        assert (width, td.bags, td.tree_edges) == (ref_width, ref_td.bags, ref_td.tree_edges), g.edges
        count += 1
        if len(component_masks(g, (1 << g.n) - 1)) > 1:
            seen["disconnected"] += 1
        elif g.n >= 3:
            seen["2-connected" if is_biconnected(g) else "cut vertex"] += 1
        seen["dense"] += g.n >= 8 and 2 * g.m >= 0.6 * g.n * (g.n - 1)
    assert count > 700 and min(seen.values()) >= 15, seen


def test_decomposition_from_order_matches_the_set_construction():
    from lctw.decomposition import _decomposition_from_order

    rng = random.Random(7)
    for i, g in enumerate(_differential_corpus()):
        if i % 3:
            continue
        order = list(range(g.n))
        rng.shuffle(order)
        td, ref = _decomposition_from_order(g, order), set_decomposition_from_order(g, order)
        assert (td.bags, td.tree_edges) == (ref.bags, ref.tree_edges)


def test_treewidth_at_most_2_agrees_with_exact():
    # the differential corpus holds the nmax = 7 exhaustive graphs, random
    # graphs from sparse to dense and Petersen; edgeless graphs reduce to
    # nothing, and so does the empty graph, whose treewidth is undefined here
    rng = random.Random(13)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.35, 0.6])) for _ in range(150)]
    graphs += [*_differential_corpus(), *(Graph(n, []) for n in range(1, 8))]
    verdicts = set()
    for g in graphs:
        verdict = has_treewidth_at_most_2(g)
        assert verdict == (exact_treewidth(g)[0] <= 2), g.edges
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert has_treewidth_at_most_2(Graph(0, []))


def test_full_tree_decomposition_k4(k4):
    td = full_tree_decomposition(k4, 3)
    assert td.bags == ((0, 1, 2, 3),)
    assert td.is_full and td.width == 3


def test_full_tree_decomposition_fixture(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    assert validate(g, td) == []
    assert td.is_full and td.width == 3
    assert td.node_count == g.n - 3  # n - k bags for connected graphs
    assert (0, 1, 2, 3) in td.bags  # the clique {a,b,c,d} must occupy some bag


def test_full_tree_decomposition_pads_below_width(c5):
    td = full_tree_decomposition(c5, 3)
    assert validate(c5, td) == [] and td.is_full and td.width == 3


def test_full_tree_decomposition_errors():
    with pytest.raises(DecompositionError):
        full_tree_decomposition(complete_graph(3), 3)  # n < k+1
    with pytest.raises(DecompositionError):
        full_tree_decomposition(complete_graph(5), 3)  # tw exceeds k


def test_full_tree_decomposition_refuses_an_invalid_base(k4):
    missing_edge = TreeDecomposition([(0, 1, 2), (1, 2, 3)], [(0, 1)])  # edge (0,3) in no bag
    with pytest.raises(DecompositionError, match="invalid decomposition: edge-cover"):
        full_tree_decomposition(k4, 3, base=missing_edge)
    assert missing_edge.valid_for is None


def test_require_valid_remembers_a_pass_per_graph(monkeypatch):
    import lctw.decomposition as decomposition

    g, td = generate_k_tree(GenSpec(n=7, k=3, seed=4))
    calls = []
    real = decomposition.validate

    def counting(graph, dec):
        calls.append(graph)
        return real(graph, dec)

    monkeypatch.setattr(decomposition, "validate", counting)
    require_valid(g, td)
    require_valid(g, td)
    full_tree_decomposition(g, 3, base=td)
    assert calls == [g] and td.valid_for is g
    # one more edge, between two vertices no bag holds together: the mark
    # belongs to g, so td is checked afresh for h and refused
    u, v = next(
        (u, v) for u in range(g.n) for v in range(u + 1, g.n)
        if not any(u in bag and v in bag for bag in td.bags)
    )
    h = Graph(g.n, set(g.edges) | {(u, v)})
    with pytest.raises(DecompositionError, match=f"edge-cover: edge \\({u},{v}\\)"):
        require_valid(h, td)
    assert calls == [g, h] and td.valid_for is g
    # the oracle itself is not memoised
    assert real(h, td) == [f"edge-cover: edge ({u},{v}) is in no bag"]
    assert real(g, td) == [] and real(g, td) == []


def test_full_tree_decomposition_from_generated_k_trees():
    for seed in range(25):
        g, natural = generate_k_tree(GenSpec(n=5 + seed % 8, k=3, seed=seed))
        assert validate(g, natural) == [] and natural.is_full
        td = full_tree_decomposition(g, 3, base=natural)
        assert validate(g, td) == [] and td.is_full and td.width == 3
        assert td.node_count == g.n - 3


def test_full_tree_decomposition_random_partial(small_corpus):
    for g, natural in small_corpus[:30]:
        td = full_tree_decomposition(g, 3, base=natural)
        assert validate(g, td) == [] and td.is_full and td.width == 3


def test_full_tree_decomposition_returns_a_full_base_as_is(small_corpus):
    # a full width-3 base has nothing to contract, pad or splice
    for g, natural in small_corpus:
        assert natural.is_full and natural.width == 3
        assert full_tree_decomposition(g, 3, base=natural) is natural
    # a full base of a smaller width is padded as before
    g, natural = generate_k_tree(GenSpec(n=6, k=2, seed=3))
    td = full_tree_decomposition(g, 3, base=natural)
    assert td is not natural and td.is_full and td.width == 3


# The set-based construction that the mask one in lctw.decomposition
# replaced, kept verbatim as the reference it must match.
def set_full_tree_decomposition(
    g: Graph,
    k: int,
    base: TreeDecomposition | None = None,
    cap: int = DEFAULT_TREEWIDTH_CAP,
) -> TreeDecomposition:
    """A width-k decomposition with all bags of size k+1 and adjacent bags sharing k.

    Requires tw(g) <= k and n >= k+1.  ``base`` may supply a starting
    decomposition (e.g. the natural one from a generated k-tree), which must
    pass ``require_valid``; otherwise an optimal one is computed.  A base that
    is already full of width k is returned as is.  When tw(g) < k the bags are
    padded up to width exactly k by the same deterministic rules.
    """
    if g.n < k + 1:
        raise DecompositionError(
            f"no full decomposition of width {k} on {g.n} < {k + 1} vertices: "
            "a bag of size k+1 cannot exist"
        )
    if base is None:
        width, base = exact_treewidth(g, cap=cap)
        if width > k:
            raise DecompositionError(f"treewidth {width} exceeds requested width {k}")
    else:
        if base.width > k:
            raise DecompositionError(f"base decomposition width {base.width} exceeds {k}")
        require_valid(g, base)
        if base.is_full and base.width == k:
            return base  # nothing to contract, pad or splice

    bags = {i: set(b) for i, b in enumerate(base.bags)}
    nbrs = {i: set(base.node_adj[i]) for i in range(base.node_count)}

    def contract_subset_bags():
        changed = True
        while changed:
            changed = False
            for t in sorted(bags):
                for u in sorted(nbrs[t]):
                    if bags[t] <= bags[u]:
                        for w in nbrs[t]:
                            if w != u:
                                nbrs[w].discard(t)
                                nbrs[w].add(u)
                                nbrs[u].add(w)
                        nbrs[u].discard(t)
                        del bags[t]
                        del nbrs[t]
                        changed = True
                        break
                if changed:
                    break

    contract_subset_bags()
    # Pad undersized bags from adjacent bags, smallest vertex id first.  Each
    # round either grows a bag or contracts, so this terminates.
    while any(len(b) < k + 1 for b in bags.values()):
        grew = False
        for t in sorted(bags):
            if len(bags[t]) >= k + 1:
                continue
            pool = sorted(
                v for u in sorted(nbrs[t]) for v in bags[u] if v not in bags[t]
            )
            for v in pool:
                bags[t].add(v)
                grew = True
                if len(bags[t]) == k + 1:
                    break
        contract_subset_bags()
        if not grew and any(len(b) < k + 1 for b in bags.values()):
            raise DecompositionError("padding stalled; graph too small or disconnected badly")

    # Splice one-swap chains across edges sharing fewer than k vertices.
    out_bags = {t: frozenset(b) for t, b in bags.items()}
    out_edges = set()
    next_id = max(bags) + 1
    done = set()
    for t in sorted(bags):
        for u in sorted(nbrs[t]):
            key = (min(t, u), max(t, u))
            if key in done:
                continue
            done.add(key)
            a, b = key
            drop = sorted(bags[a] - bags[b])
            add = sorted(bags[b] - bags[a])
            prev = a
            cur = set(bags[a])
            for i in range(len(drop) - 1):
                cur = set(cur)
                cur.discard(drop[i])
                cur.add(add[i])
                out_bags[next_id] = frozenset(cur)
                out_edges.add((prev, next_id))
                prev = next_id
                next_id += 1
            out_edges.add((prev, b))

    relabel = {t: i for i, t in enumerate(sorted(out_bags))}
    return TreeDecomposition(
        [sorted(out_bags[t]) for t in sorted(out_bags)],
        [(relabel[a], relabel[b]) for a, b in out_edges],
    )


def _fields(td):
    """Everything a decomposition answers about its shape."""
    return td.bags, td.tree_edges, td.node_adj, td.node_nbr_mask, td.width, td.is_full, td.masks


def _full_outcome(build, g, k, base=None):
    """The shape of the decomposition ``build`` returns, or the refusal it raises."""
    try:
        td = build(g, k, base)
    except DecompositionError as e:
        return "refused", str(e)
    return _fields(td)


@pytest.fixture(scope="module")
def exhaustive_nmax8(corpus):
    """Criterion 1's exhaustive corpus, every class of 2-connected partial
    3-trees with n <= 8, as graphs."""
    return [parse_graph6(task["graph6"]) for task in corpus("mode=exhaustive,k=3,nmax=8")]


def _full_differential_cases(exhaustive):
    """(graph, k, base) triples on which the mask construction must return
    the set reference's decomposition, or refuse with its message: the graphs
    ``exhaustive`` at k = 3; 1,200 random G(n <= 13, p) with p from 0.05 to
    0.6, each at k = 3, 4 and 5 (n < k+1 and treewidth > k refusals among
    them); natural width-1 and width-2 bases of k-trees and partial k-trees,
    padded to widths 3 and 4; an invalid base and a base too wide."""
    for g in exhaustive:
        yield g, 3, None
    rng = random.Random(1403)
    for _ in range(1200):
        g = random_graph(rng, rng.randint(1, 13), rng.choice([0.05, 0.1, 0.2, 0.3, 0.45, 0.6]))
        for k in (3, 4, 5):
            yield g, k, None
    for seed in range(60):
        for w in (1, 2):
            spec = GenSpec(n=w + 1 + seed % 11, k=w, seed=seed, delete_probability=0.3 * (seed % 3 == 2))
            g, natural = (generate_partial_k_tree if seed % 3 == 2 else generate_k_tree)(spec)
            for k in (3, 4):
                yield g, k, natural
    g, natural = generate_k_tree(GenSpec(n=8, k=3, seed=5))
    yield g, 2, natural
    yield complete_graph(4), 3, TreeDecomposition([(0, 1, 2), (1, 2, 3)], [(0, 1)])


def test_full_tree_decomposition_matches_the_set_reference(monkeypatch, exhaustive_nmax8):
    import lctw.decomposition as decomposition

    # both constructions start from the same exact decomposition of a graph:
    # compute it once, the test's cost being the treewidth search
    once = functools.lru_cache(maxsize=None)(exact_treewidth)
    monkeypatch.setattr(decomposition, "exact_treewidth", once)
    monkeypatch.setattr(sys.modules[__name__], "exact_treewidth", once)
    refused, built = set(), 0
    for g, k, base in _full_differential_cases(exhaustive_nmax8):
        out = _full_outcome(full_tree_decomposition, g, k, base)
        assert out == _full_outcome(set_full_tree_decomposition, g, k, base), (g.edges, k)
        if out[0] == "refused":
            refused.add(out[1].split(" ")[0])
        else:
            built += 1
    assert refused == {"no", "treewidth", "base", "invalid"} and built > 5000, (refused, built)


def test_built_decompositions_match_the_constructor(monkeypatch, exhaustive_nmax8):
    import lctw.decomposition as decomposition

    # every decomposition this module builds from masks, exact or full, holds
    # no bag tuples until its bags are read, then reads as the constructor
    # reads its bags and tree edges, and is valid: the constructor and
    # validate are the independent path
    real, built = decomposition._built, []

    def recorded(g, masks, edges):
        td = real(g, masks, edges)
        built.append((g, td))
        return td

    monkeypatch.setattr(decomposition, "_built", recorded)
    rng = random.Random(2604)
    graphs = exhaustive_nmax8 + [
        random_graph(rng, rng.randint(1, 13), rng.choice([0.05, 0.1, 0.2, 0.3, 0.45, 0.6])) for _ in range(600)
    ]
    for g in graphs:
        width, td = exact_treewidth(g)
        for k in range(max(width, 1), min(g.n - 1, 4) + 1):
            full_tree_decomposition(g, k, base=td)
    fulls = len(built) - len(graphs)  # one exact decomposition per graph, the rest full
    assert fulls > 8000, fulls
    for g, td in built:
        assert td._bags is None, g.edges
        assert _fields(td) == _fields(TreeDecomposition(td.bags, td.tree_edges)), g.edges
        assert validate(g, td) == [] and td.valid_for is g


def test_branch_at_path_decomposition():
    g = path_graph(5)
    td = TreeDecomposition([(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)])
    left = branch_at(td, 1, 0)
    right = branch_at(td, 1, 2)
    assert left.nodes == frozenset({0}) and left.vertices == frozenset({0})
    assert right.nodes == frozenset({2, 3}) and right.vertices == frozenset({3, 4})
    with pytest.raises(DecompositionError):
        branch_at(td, 1, 1)


def test_branch_of_vertex(fig):
    g, nm = fig
    td = full_tree_decomposition(g, 3)
    t = td.bags.index((0, 1, 2, 3))
    br = branch_of_vertex(td, t, nm["v5"])
    assert nm["v5"] in br.vertices
    with pytest.raises(DecompositionError):
        branch_of_vertex(td, t, nm["a"])  # vertex in the bag


def test_branch_union_cases(k4):
    td = TreeDecomposition([(0, 1, 2, 3)], [])
    bu = branch_union(td, 0, (0, 1, 2))
    assert bu.nodes == frozenset() and bu.vertices == frozenset()
    with pytest.raises(DecompositionError):
        branch_union(td, 0, (0, 1))  # not a triple
    with pytest.raises(DecompositionError):
        branch_union(td, 0, (0, 1, 9))


def test_branch_union_attached_vertex():
    # 3-tree: K4 plus vertex 4 attached to triangle {0,1,2}
    g, td = generate_k_tree(GenSpec(n=5, k=3, seed=0))
    # bags: {0,1,2,3} and some {x,y,z,4}; find the triple shared by both bags
    t = 0
    delta = tuple(sorted(set(td.bags[0]) & set(td.bags[1])))
    bu = branch_union(td, t, delta)
    assert bu.nodes == frozenset({1})
    assert 4 in bu.vertices


def test_branch_of_route(fig):
    g, nm = fig
    td = full_tree_decomposition(g, 3)
    t = td.bags.index((0, 1, 2, 3))
    inside = branch_of_route(td, t, (0, 1, 3))  # wholly inside the bag
    assert inside.is_empty
    br = branch_of_route(td, t, (nm["a"], nm["v5"], nm["c"]))
    assert nm["v5"] in br.vertices
    with pytest.raises(DecompositionError):
        branch_of_route(td, t, (nm["v5"], nm["v1"]))  # spans two branches


def test_separator_property_fixture_exhaustive(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    for a, b in sorted(td.tree_edges):
        for t, tp in ((a, b), (b, a)):
            side_u = branch_at(td, t, tp).vertices - set(td.bags[t])
            side_v = branch_at(td, tp, t).vertices - set(td.bags[tp])
            for u in side_u:
                for v in side_v:
                    assert check_separator_property(g, td, (t, tp), u, v)


def test_separator_property_generated_k_trees():
    for seed in range(12):
        g, td = generate_k_tree(GenSpec(n=9, k=3, seed=100 + seed))
        for a, b in sorted(td.tree_edges):
            side_u = branch_at(td, a, b).vertices - set(td.bags[a])
            side_v = branch_at(td, b, a).vertices - set(td.bags[b])
            for u in side_u:
                for v in side_v:
                    assert check_separator_property(g, td, (a, b), u, v)


def test_separator_property_precondition_errors(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    a, b = sorted(td.tree_edges)[0]
    u_bag = td.bags[a][0]
    with pytest.raises(DecompositionError):
        check_separator_property(g, td, (a, b), u_bag, u_bag)
    with pytest.raises(DecompositionError):
        check_separator_property(g, td, (a, a), 0, 1)


_PATH_TD = TreeDecomposition([(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)])  # of path_graph(5)
_SEPARATES = functools.partial(check_separator_property, path_graph(5), _PATH_TD)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: branch_at(_PATH_TD, 1, 1), DecompositionError, "branch undefined: node coincides with the removed node",
            id="branch_at-same-node",
        ),
        pytest.param(
            lambda: branch_of_vertex(_PATH_TD, 1, 2), DecompositionError,
            "branch of vertex 2 at node 1 undefined: vertex is in the bag", id="branch_of_vertex-in-bag",
        ),
        pytest.param(
            lambda: branch_of_vertex(_PATH_TD, 1, 7), DecompositionError, "vertex 7 appears in no bag",
            id="branch_of_vertex-in-no-bag",
        ),
        pytest.param(
            lambda: branch_union(_PATH_TD, 0, (0, 1)), DecompositionError, "delta must be a triple, got [0, 1]",
            id="branch_union-not-a-triple",
        ),
        pytest.param(
            lambda: branch_union(_PATH_TD, 0, (0, 1, 2)), DecompositionError, "delta must be contained in the bag of t",
            id="branch_union-off-the-bag",
        ),
        pytest.param(
            lambda: branch_union(TreeDecomposition([(0, 1, 2)], []), 0, (0, 1, 2)), DecompositionError,
            "branch unions are defined on full width-3 decompositions", id="branch_union-not-full",
        ),
        pytest.param(
            lambda: branch_of_route(_PATH_TD, 1, (0, 3)), DecompositionError, "route spans several branches at node 1: 0 vs 3",
            id="branch_of_route-two-branches",
        ),
        pytest.param(
            lambda: _SEPARATES((0, 2), 4, 4), DecompositionError, "(0,2) is not a tree edge", id="separator-not-a-tree-edge"
        ),
        pytest.param(
            lambda: _SEPARATES((1, 2), 1, 4), DecompositionError, "u=1 must lie outside the bag of node 1",
            id="separator-u-in-bag",
        ),
        pytest.param(
            lambda: _SEPARATES((1, 2), 4, 3), DecompositionError, "v=3 must lie outside the bag of node 2",
            id="separator-v-in-bag",
        ),
        pytest.param(
            lambda: _SEPARATES((1, 2), 0, 0), DecompositionError, "u=0 is not in the branch of 1 toward 2",
            id="separator-u-off-branch",
        ),
        pytest.param(
            lambda: _SEPARATES((1, 2), 4, 4), DecompositionError, "v=4 is not in the branch of 2 toward 1",
            id="separator-v-off-branch",
        ),
        pytest.param(lambda: PathSegment(()), ValueError, "a path segment needs at least one vertex", id="PathSegment-empty"),
        pytest.param(
            lambda: PathSegment((0, 1, 0)), ValueError, "path vertices must be pairwise distinct", id="PathSegment-repeated"
        ),
    ],
)
def test_reference_functions_refuse_with_their_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def _td3_corpus(small_corpus):
    """Decompositions with their graphs: the small corpus's natural ones and
    their full width-3 versions, and the full width-3 decompositions of the
    exhaustive nmax = 6 corpus."""
    from lctw.generate import exhaustive_small

    for g, natural in small_corpus:
        yield g, natural
        yield g, full_tree_decomposition(g, 3, base=natural)
    for g in exhaustive_small(6, 3):
        if g.n >= 4:
            yield g, full_tree_decomposition(g, 3)


def test_side_masks_match_branch_at_and_branch_union(small_corpus):
    from lctw.decomposition import side_masks
    from lctw.graph import vertex_mask
    from lctw.transversal import build_families

    edges = triples = 0
    for g, td in _td3_corpus(small_corpus):
        require_valid(g, td)  # side masks are defined on valid decompositions only
        sides = side_masks(td)
        assert side_masks(td) is sides  # kept on the decomposition
        assert sorted(sides) == sorted(e for a, b in td.tree_edges for e in ((a, b), (b, a)))
        assert td.masks == tuple(vertex_mask(bag) for bag in td.bags)
        for t, u in sides:
            assert sides[t, u] == vertex_mask(branch_at(td, t, u).vertices)
            edges += 1
        if not (td.is_full and td.width == 3):
            continue
        for t in range(td.node_count):
            inside = build_families(g, td, t, ()).inside  # no family is read
            bag_triples = list(itertools.combinations(td.bags[t], 3))
            assert list(inside) == [vertex_mask(delta) for delta in bag_triples]  # keyed in combinations order
            for delta in bag_triples:
                assert inside[vertex_mask(delta)] == vertex_mask(delta) | vertex_mask(branch_union(td, t, delta).vertices)
                triples += 1
    assert edges > 1000 and triples > 1000


class _ReferenceTreeDecomposition:
    """``TreeDecomposition.__init__`` before ``is_full`` was derived on first
    read and the tree was stored as node masks, with a tree-edge end naming a
    node only when it is an exact int (so not a bool or a float): the
    reference for every field the constructor sets."""

    def __init__(self, bags, tree_edges):
        self.bags = tuple(tuple(sorted(set(b))) for b in bags)
        if not self.bags:
            raise DecompositionError("a tree decomposition needs at least one node")
        norm = set()
        for a, b in tree_edges:
            named = type(a) is int and type(b) is int
            if not named or a == b or not (0 <= a < len(self.bags) and 0 <= b < len(self.bags)):
                raise DecompositionError(f"bad tree edge ({a},{b})")
            norm.add((a, b) if a < b else (b, a))
        self.tree_edges = frozenset(norm)
        adj = [[] for _ in self.bags]
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        self.node_adj = tuple(tuple(sorted(x)) for x in adj)
        self.node_nbr_mask = tuple(sum(1 << u for u in x) for x in self.node_adj)
        self.width = max(len(b) for b in self.bags) - 1
        k = self.width
        self.is_full = all(len(b) == k + 1 for b in self.bags) and all(
            len(set(self.bags[a]) & set(self.bags[b])) == k for a, b in norm
        )
        self.valid_for = None
        self.sides = None
        self._masks = None


def _constructed(cls, bags, edges):
    """The fields ``cls(bags, edges)`` sets, by repr so that 1, 1.0 and True
    differ, or the type and text of what it raises."""
    try:
        td = cls(bags, edges)
    except Exception as exc:
        return type(exc), str(exc)
    fields = (td.bags, sorted(td.tree_edges), td.node_adj, td.node_nbr_mask, td.width, td.is_full, td.valid_for, td.sides, td._masks)
    return tuple(map(repr, fields))


def test_constructor_sets_the_fields_of_the_reference(small_corpus):
    # a blob that passes require_valid reads the same is_full off its masks
    cases = list(_td3_corpus(small_corpus))
    cases += [(g, exact_treewidth(g)[1]) for g, _ in small_corpus]
    two_k4 = ((0, 1, 2, 3), (2, 3, 4, 5))  # bags of one size sharing 2 < 3 vertices: not full
    cases.append((Graph(6, [e for bag in two_k4 for e in itertools.combinations(bag, 2)]), TreeDecomposition(two_k4, [(0, 1)])))
    seen = set()
    for g, td in cases:
        for bags, edges in blob_mutations(td, g.n):
            mine = _constructed(TreeDecomposition, bags, edges)
            assert mine == _constructed(_ReferenceTreeDecomposition, bags, edges), (bags, edges)
            seen.add(mine[5] if len(mine) > 2 else mine[0])  # is_full, or the refusal
            if len(mine) > 2 and not validate(g, fresh := TreeDecomposition(bags, edges)):
                require_valid(g, fresh)
                assert repr(fresh.is_full) == mine[5], (bags, edges)
                seen.add(("valid", mine[5]))
    assert seen == {"True", "False", DecompositionError, ("valid", "True"), ("valid", "False")}


@settings(max_examples=300, deadline=None)
@given(bags=st.lists(BLOB_BAG, max_size=7), edges=st.lists(BLOB_EDGE, max_size=7))
def test_constructor_matches_the_reference_on_any_blob(bags, edges):
    # malformed blobs keep their fields or raise the same error as before
    assert _constructed(TreeDecomposition, bags, edges) == _constructed(_ReferenceTreeDecomposition, bags, edges)
