import itertools
import random
import tracemalloc
from operator import attrgetter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lctw.cycles as cycles_module
from lctw.cycles import (
    DEFAULT_ENUMERATION_CAP,
    Cycle,
    EnumerationBudgetExceeded,
    EnumerationCapExceeded,
    LongestCycleSet,
    PathSegment,
    _degree_order,
    _subset_tables,
    check_enumeration_cap,
    enumerate_longest_cycles,
    join,
    longest_cycle_length_td,
    parts,
    tails,
)
from lctw.decomposition import DecompositionError, TreeDecomposition, exact_treewidth, full_tree_decomposition
from lctw.fixtures import complete_graph, cycle_graph, path_graph
from lctw.generate import GenSpec, exhaustive_small, generate_partial_k_tree
from lctw.graph import Graph, parse_graph6, vertex_mask
from lctw.harness import corpus_tasks, parse_corpus_spec
from lctw.transversal import compute_lct

from helpers import random_graph


def brute_force_longest_cycles(g):
    """Independent enumeration: vertex subsets, then all cyclic orders."""
    best = 0
    found = set()
    for k in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # direction dedup
                seq = (first,) + perm
                if all(g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)):
                    if k > best:
                        best = k
                        found = set()
                    if k == best:
                        found.add(Cycle(seq).vertices)
    return best, found


def test_enumerate_trivial_examples(k4, c5):
    lcs = enumerate_longest_cycles(k4)
    assert lcs.length == 4 and len(lcs.cycles) == 3  # (4-1)!/2 Hamiltonian cycles
    lcs5 = enumerate_longest_cycles(c5)
    assert lcs5.length == 5 and len(lcs5.cycles) == 1
    tri = enumerate_longest_cycles(complete_graph(3))
    assert tri.length == 3 and len(tri.cycles) == 1


def test_enumerate_acyclic():
    lcs = enumerate_longest_cycles(path_graph(5))
    assert lcs.length == 0 and lcs.cycles == ()


def test_enumerate_petersen_frozen(petersen_graph):
    lcs = enumerate_longest_cycles(petersen_graph)
    assert lcs.length == 9
    assert len(lcs.cycles) == 20


def test_enumerate_matches_bruteforce():
    rng = random.Random(91)
    for _ in range(90):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
        lcs = enumerate_longest_cycles(g)
        blen, bset = brute_force_longest_cycles(g)
        assert lcs.length == blen
        assert set(lcs.cycles) == bset
    graphs = [random_graph(random.Random(seed), 10, 0.3) for seed in (3, 4)]
    graphs += [complete_graph(k) for k in range(3, 8)]  # Hamiltonian: the root bound ends the search at vertex 0
    for g in graphs:
        lcs = enumerate_longest_cycles(g)
        blen, bset = brute_force_longest_cycles(g)
        assert (lcs.length, set(lcs.cycles)) == (blen, bset)


def networkx_longest_cycles(g):
    """Independent oracle: networkx's simple cycles, kept at the longest length."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    cycles = [c for c in nx.simple_cycles(h) if len(c) >= 3]
    best = max(map(len, cycles), default=0)
    return best, {Cycle(tuple(c)).vertices for c in cycles if len(c) == best}


def partial_4_trees(count):
    """Random 2-connected partial 4-trees with their natural decompositions."""
    for i in range(count):
        spec = GenSpec(n=9 + i % 4, k=4, seed=4000 + i, delete_probability=0.3, require_biconnected=True)
        yield generate_partial_k_tree(spec)


def test_enumerate_matches_networkx_on_partial_4_trees():
    # Mostly Hamiltonian, so the thin-vertex cut often has no room to spare;
    # odd and even n split the subset tables into unequal and equal halves.
    hamiltonian = 0
    for g, _ in partial_4_trees(40):
        lcs = enumerate_longest_cycles(g)
        assert (lcs.length, set(lcs.cycles)) == networkx_longest_cycles(g)
        hamiltonian += lcs.length == g.n
    assert hamiltonian >= 25  # 29 of 40
    # Degenerate tables: empty halves, and graphs whose search closes nothing.
    for g in [Graph(0, []), Graph(1, []), Graph(2, [(0, 1)]), path_graph(7), Graph(6, [(0, 1), (1, 2), (3, 4)])]:
        lcs = enumerate_longest_cycles(g)
        assert (lcs.length, lcs.cycles) == (0, ()) and networkx_longest_cycles(g) == (0, set())


def test_enumerate_with_narrow_tables_matches_networkx(monkeypatch):
    # Two-vertex tables nest joined tables at n = 9..12 as n > 18 does at the
    # default width.
    monkeypatch.setattr(cycles_module, "TABLE_BITS", 2)
    for g, _ in partial_4_trees(12):
        lcs = enumerate_longest_cycles(g)
        assert (lcs.length, set(lcs.cycles)) == networkx_longest_cycles(g)


def reference_longest_cycles(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP, max_steps: int | None = None) -> LongestCycleSet:
    """The search before siblings shared their free component and searched
    states were remembered, kept verbatim as the reference the search must
    match: every sibling walks its own reachable set, and every state is
    searched however often it is reached.  It runs in the search's own vertex
    order, so its steps bound the search's graph by graph."""
    check_enumeration_cap(g.n, cap)
    n = g.n
    order = _degree_order(g.nbr_mask)
    bit = [0] * n  # bit[v]: the bit of v's position in order, its id in the search
    for i, v in enumerate(order):
        bit[v] = 1 << i
    nbr = tuple(sum(map(bit.__getitem__, g.adj[v])) for v in order)
    h = n // 2
    low_half = (1 << h) - 1
    (ones0, twos0), (ones1, twos1) = _subset_tables(nbr[:h]), _subset_tables(nbr[h:])
    best = 0
    found: list[tuple[int, ...]] = []
    steps = 0
    for s in range(n):
        if n - s < best:
            break  # a cycle rooted at s uses only vertices >= s
        s_bit = 1 << s
        allowed = ((1 << n) - 1) & ~((s_bit << 1) - 1)  # vertices > s
        if (nbr[s] & allowed).bit_count() < 2:
            continue  # no second vertex with a last vertex above it
        path = [s]
        used = s_bit
        target = 0  # root neighbours above path[1]: the possible last vertices
        stack = [nbr[s] & allowed]  # untried successors per path vertex
        while stack:
            untried = stack[-1]
            if not untried:
                stack.pop()
                used ^= 1 << path.pop()
                continue
            wb = untried & -untried
            stack[-1] = untried ^ wb
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise EnumerationBudgetExceeded(
                    f"enumeration exceeded {max_steps} steps; no partial results"
                )
            depth = len(path)  # path vertices before wb
            if depth == 1:
                target = nbr[s] & -(wb << 1)
                if not target:
                    continue
            elif wb & target:
                if depth + 1 > best:
                    best = depth + 1
                    found = []
                if depth + 1 == best:
                    found.append((*path, wb.bit_length() - 1))
            # Vertices reachable from wb through free ones bound the extension.
            free = allowed & ~used & ~wb
            comp = wb
            while True:
                grown = comp | (ones0[comp & low_half] | ones1[comp >> h]) & free
                if grown == comp:
                    break
                comp = grown
            room = depth + comp.bit_count() - best
            if room < 0 or not comp & target:
                continue  # too few vertices left, or no way back to the root
            if not room:  # every reachable vertex must be on the closing path
                lo, hi = (comp | s_bit) & low_half, (comp | s_bit) >> h
                if comp & ~wb & ~(twos0[lo] | twos1[hi] | ones0[lo] & ones1[hi]):
                    continue
            path.append(wb.bit_length() - 1)
            used |= wb
            stack.append(nbr[path[-1]] & free)
    cycles = sorted((Cycle(tuple(map(order.__getitem__, seq))) for seq in found), key=attrgetter("vertices"))
    return LongestCycleSet(best, tuple(cycles), tuple(vertex_mask(c.vertices) for c in cycles), steps=steps)


def corpus_graphs(spec: str) -> list[Graph]:
    return [parse_graph6(t["graph6"]) for t in corpus_tasks(parse_corpus_spec(spec, seed=0))]


def differential_graphs():
    """Exhaustive n <= 7, seed-0 random k = 3, 4 and 5 corpora, and random
    G(n <= 10), empty, disconnected and acyclic ones among them.  140 of the
    150 k = 3, n = 15..18 graphs are not Hamiltonian, so the thin-vertex cut
    often runs with room to spare."""
    graphs = list(exhaustive_small(7, 3))
    specs = ["k=3,n=9..14,count=150,p=0.25", "k=3,n=15..18,count=150,p=0.25"]
    for spec in specs + ["k=4,n=8..13,count=120,p=0.3", "k=5,n=8..12,count=40,p=0.3"]:
        graphs += corpus_graphs(spec)
    rng = random.Random(21)
    graphs += [random_graph(rng, rng.randint(0, 10), rng.choice([0.15, 0.3, 0.5, 0.7])) for _ in range(100)]
    return graphs + [Graph(0, []), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), path_graph(9)]


def assert_matches_reference(graphs):
    for g in graphs:
        new, ref = enumerate_longest_cycles(g), reference_longest_cycles(g)
        count, vertex_sets = len(new), new.vertex_sets  # held from the search, before the tuples are built
        assert (new.length, new.cycles) == (ref.length, tuple(c.vertices for c in ref.cycles))
        assert (count, vertex_sets) == (len(new.cycles), tuple(sorted(set(new.masks))))
        assert all(new.masks[i] == vertex_mask(new.cycles[i]) for i in range(len(new)))
        assert new.steps <= ref.steps


def test_enumerate_matches_the_reference_search(monkeypatch, petersen_graph):
    fixtures = [petersen_graph, complete_graph(8)]
    graphs = differential_graphs()
    assert_matches_reference(graphs + fixtures)
    # Two-vertex tables nest joined tables from n = 9 on, as n > 18 does at the
    # default width.
    monkeypatch.setattr(cycles_module, "TABLE_BITS", 2)
    assert_matches_reference(graphs[::10] + fixtures)


def test_enumerate_beyond_default_cap_in_bounded_memory():
    # 2^20-entry half tables at n = 40 would take over 100 MB
    tracemalloc.start()
    try:
        lcs = enumerate_longest_cycles(cycle_graph(40), cap=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lcs.length, lcs.cycles, lcs.masks) == (40, (tuple(range(40)),), ((1 << 40) - 1,))
    assert peak < 2_000_000


def test_a_stored_longest_cycle_is_a_vertex_tuple_and_a_mask():
    # 27,702 Hamiltonian longest cycles.  Held with lct computed, a family
    # member retained 150 bytes as the search's path, and 198 once its
    # canonical tuple and mask were read; a frozen Cycle with its cached mask
    # held 334.
    g = random_graph(random.Random(1), 12, 0.55)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = enumerate_longest_cycles(g)
        res = compute_lct(g, family)
        retained = [tracemalloc.get_traced_memory()[0] - before]
        assert len(family.cycles) == len(family.masks) == len(family)
        retained.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert (family.length, len(family), res.lct) == (12, 27_702, 1)
    assert max(retained) / len(family) <= 250


def test_remembered_states_stay_in_bounded_memory():
    # Under one second vertex the search remembers up to 179 states of the
    # seed-57 graph and up to 2,664 of the seed-47 graph.  Both have L < n, so
    # more than one root is searched.  Each graph is enumerated once
    # untraced first, so the traced peak holds the search and not the
    # interpreter's first-call allocations: the seed-47 peak is 0.29 MB warm
    # against 0.41 MB cold.
    for seed, length, steps, bound in [(57, 17, 397, 400_000), (47, 15, 9_679, 360_000)]:
        spec = GenSpec(n=18, k=4, seed=seed, delete_probability=0.4, require_biconnected=True)
        g, _ = generate_partial_k_tree(spec)
        enumerate_longest_cycles(g)
        tracemalloc.start()
        try:
            lcs = enumerate_longest_cycles(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lcs.length, lcs.steps) == (length, steps)
        assert peak < bound


def test_step_budget_boundary(petersen_graph, small_corpus):
    # K8's search copies remembered states, which take no steps.  The seed-47
    # n = 18 graph takes 9,679 steps over several roots, so the last step is
    # tried deep under a later root.
    seed_47, _ = generate_partial_k_tree(GenSpec(n=18, k=4, seed=47, delete_probability=0.4, require_biconnected=True))
    for g in [petersen_graph, complete_graph(8), seed_47] + [g for g, _ in small_corpus[:4]]:
        lcs = enumerate_longest_cycles(g)
        assert enumerate_longest_cycles(g, max_steps=lcs.steps).cycles == lcs.cycles
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_longest_cycles(g, max_steps=lcs.steps - 1)
    assert enumerate_longest_cycles(seed_47).steps == 9_679
    # The first step tries a second vertex, so a budget of 0 refuses any graph
    # with a cycle; an acyclic path takes no step.
    with pytest.raises(EnumerationBudgetExceeded, match="exceeded 0 steps"):
        enumerate_longest_cycles(petersen_graph, max_steps=0)
    assert enumerate_longest_cycles(path_graph(9), max_steps=0).length == 0


def test_family_size_budget_boundary(petersen_graph):
    # The kept family peaks at the final one on these graphs.  K4's three
    # cycles are all appended, since paths of at most four vertices are never
    # remembered; K8's search copies most of its 2,520 from remembered states.
    dense = random_graph(random.Random(1), 12, 0.55)
    for g in [complete_graph(4), petersen_graph, complete_graph(8), dense]:
        lcs = enumerate_longest_cycles(g)
        assert enumerate_longest_cycles(g, max_cycles=len(lcs)).cycles == lcs.cycles
        with pytest.raises(EnumerationBudgetExceeded, match=f"more than {len(lcs) - 1} longest cycles"):
            enumerate_longest_cycles(g, max_cycles=len(lcs) - 1)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_longest_cycles(dense, max_cycles=1_000)


@pytest.mark.parametrize(
    "spec, steps, cycles",
    [
        ("k=3,n=9..14,count=150,p=0.25", 29_863, 905),
        ("k=4,n=8..13,count=120,p=0.3", 43_730, 3_999),
        ("mode=exhaustive,k=3,nmax=7", 10_476, 1_473),
    ],
)
def test_search_work_is_pinned(spec, steps, cycles):
    # Seed-0 corpora of the bench workloads' shapes: a faster step must take
    # the same steps, not only return the same families.
    families = [enumerate_longest_cycles(g) for g in corpus_graphs(spec)]
    assert (sum(f.steps for f in families), sum(map(len, families))) == (steps, cycles)


def test_enumerate_deterministic_order(petersen_graph):
    a = enumerate_longest_cycles(petersen_graph)
    b = enumerate_longest_cycles(petersen_graph)
    assert a.cycles == b.cycles
    assert list(a.cycles) == sorted(a.cycles)


def test_enumeration_caps():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_longest_cycles(Graph(19, []), cap=18)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_longest_cycles(complete_graph(8), max_steps=5)


def relabelling_corpus(small_corpus, petersen_graph, rng):
    graphs = [g for g, _ in small_corpus] + [petersen_graph]
    return graphs + [random_graph(rng, rng.randint(3, 11), rng.choice([0.25, 0.4, 0.6])) for _ in range(200)]


def test_enumerate_is_invariant_under_vertex_permutation(small_corpus, petersen_graph):
    # The search runs in its own vertex order; a permuted input, mapped back,
    # must give the same family whatever labels the input came with.
    rng = random.Random(12)
    for g in relabelling_corpus(small_corpus, petersen_graph, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        inverse = {p: v for v, p in enumerate(perm)}
        permuted = enumerate_longest_cycles(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        mapped = sorted(Cycle(tuple(inverse[v] for v in c)).vertices for c in permuted.cycles)
        family = enumerate_longest_cycles(g)
        assert (permuted.length, mapped) == (family.length, list(family.cycles))


def _smallest_last_order(masks: tuple[int, ...]) -> list[int]:
    """The vertices of the graph with neighbour masks ``masks`` in the order
    the smallest-last procedure (Matula & Beck, J. ACM 1983) removes them: each
    step removes a vertex of least degree among those left, the lower id on
    ties.  So the first vertex has least degree, and each vertex has at most
    degeneracy-many neighbours after it.  The search ran in this order before
    degree order, which takes fewer steps; it is kept as the alternate order
    the search's families must not depend on."""
    degree = list(map(int.bit_count, masks))
    order = []
    left = (1 << len(masks)) - 1
    for _ in masks:
        v = degree.index(min(degree))
        order.append(v)
        degree[v] = 2 * len(masks)  # stays above every degree left as v's neighbours go
        left ^= 1 << v
        rest = masks[v] & left
        while rest:
            low = rest & -rest
            rest ^= low
            degree[low.bit_length() - 1] -= 1
    return order


def test_degree_order(small_corpus, petersen_graph):
    rng = random.Random(14)
    for g in relabelling_corpus(small_corpus, petersen_graph, rng):
        adj = g.adj
        key = {v: (len(adj[v]), sum(len(adj[u]) for u in adj[v]), v) for v in range(g.n)}
        assert _degree_order(g.nbr_mask) == sorted(range(g.n), key=key.__getitem__)


# The seed-0 corpora of the three bench workloads at their 20-second sizes.
WORKLOAD_CORPORA = ["k=3,n=9..14,count=1000,p=0.25", "k=4,n=8..13,count=2500,p=0.3", "mode=exhaustive,k=3,nmax=7"]


def test_families_do_not_depend_on_the_search_order(monkeypatch):
    # Every cycle is rooted at its lowest search vertex and mapped back to the
    # graph's labels, so the order changes only the work, never the family;
    # degree order takes fewer steps than smallest-last order on each corpus.
    for spec in WORKLOAD_CORPORA:
        graphs = corpus_graphs(spec)
        ours = [enumerate_longest_cycles(g) for g in graphs]
        with monkeypatch.context() as m:
            m.setattr(cycles_module, "_degree_order", _smallest_last_order)
            theirs = [enumerate_longest_cycles(g) for g in graphs]
        for a, b in zip(ours, theirs):
            assert (a.length, len(a), a.vertex_sets) == (b.length, len(b), b.vertex_sets)
            assert a.cycles == b.cycles
        assert sum(f.steps for f in ours) < sum(f.steps for f in theirs)


def test_smallest_last_order(small_corpus, petersen_graph):
    rng = random.Random(13)
    for g in relabelling_corpus(small_corpus, petersen_graph, rng):
        order = _smallest_last_order(g.nbr_mask)
        assert sorted(order) == list(range(g.n))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        degeneracy = max(nx.core_number(h).values(), default=0)
        adj = g.adj  # built from the masks on every read
        for i, v in enumerate(order):
            left = set(order[i:])
            assert len(left & set(adj[v])) <= degeneracy  # neighbours after v
            # v has least degree among the vertices left, the lowest id on ties
            degree = {u: len(left & set(adj[u])) for u in left}
            assert (degree[v], v) == min((d, u) for u, d in degree.items())


# Seed-0 step totals in smallest-last order before siblings shared their free
# component and searched states were remembered, and the share of them now allowed.
SMALLEST_LAST_STEPS = {"k=4,n=8..13,count=300,p=0.3": (295_135, 0.6), "k=3,n=9..14,count=300,p=0.25": (144_627, 0.75)}
# The same totals before thin vertices were cut at every slack, and the share
# of them now allowed.
THIN_CUT_STEPS = {"k=4,n=8..13,count=300,p=0.3": (152_981, 0.75), "k=3,n=9..14,count=300,p=0.25": (97_013, 0.7)}
# The same totals in smallest-last order after the thin-vertex cut, the last
# order before degree order, and the share of them now allowed.
DEGREE_ORDER_STEPS = {"k=4,n=8..13,count=300,p=0.3": (106_033, 0.97), "k=3,n=9..14,count=300,p=0.25": (63_201, 0.9)}


@pytest.mark.parametrize(
    "spec, label_order_steps, bound",
    [("k=4,n=8..13,count=300,p=0.3", 406_089, 0.75), ("k=3,n=9..14,count=300,p=0.25", 173_840, 0.9)],
)
def test_smallest_last_order_cuts_enumeration_steps(spec, label_order_steps, bound):
    # Seed-0 step totals with the search in the generator's labels: 406,089
    # and 173,840.  In smallest-last order they were 295,135 and 144,627;
    # shared free components and remembered states cut them to 152,981 and
    # 97,013, the thin-vertex cut at every slack to 106,033 and 63,201, and
    # degree order to 100,913 and 53,776.
    tasks = corpus_tasks(parse_corpus_spec(spec, seed=0))
    steps = sum(enumerate_longest_cycles(parse_graph6(t["graph6"])).steps for t in tasks)
    assert steps <= bound * label_order_steps
    smallest_last_steps, cut = SMALLEST_LAST_STEPS[spec]
    assert steps <= cut * smallest_last_steps
    before_thin_cut_steps, thin_cut = THIN_CUT_STEPS[spec]
    assert steps <= thin_cut * before_thin_cut_steps
    before_degree_order_steps, degree_cut = DEGREE_ORDER_STEPS[spec]
    assert steps <= degree_cut * before_degree_order_steps


def test_thin_vertex_cut_takes_the_smallest_last_order_below_label_order():
    # The verify_k3_random graph that set the smallest-last order's p99 (n = 14,
    # L = 11, 53 longest cycles) took 2,645 steps in label order and 3,120 in
    # smallest-last order with shared components and remembered states; the
    # thin-vertex cut took it to 1,325, and degree order to 1,227.
    lcs = enumerate_longest_cycles(parse_graph6("M~nCgio@``CCk?cG?"))
    assert (lcs.length, len(lcs), lcs.steps) == (11, 53, 1_227)


def test_cycle_canonical_form():
    c = Cycle((2, 0, 1, 3))
    assert c.vertices[0] == 0
    assert c.vertices[1] < c.vertices[-1]
    with pytest.raises(ValueError):
        Cycle((0, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1, 1))


@settings(max_examples=80)
@given(st.integers(3, 9), st.integers(0, 8), st.booleans())
def test_cycle_canonical_invariance(k, rot, flip):
    seq = tuple(range(10, 10 + k))
    rotated = seq[rot % k :] + seq[: rot % k]
    if flip:
        rotated = tuple(reversed(rotated))
    assert Cycle(rotated) == Cycle(seq)


def test_cycle_from_sequence_validates(k4):
    with pytest.raises(ValueError):
        Cycle.from_sequence(cycle_graph(5), (0, 1, 3))


def test_parts_fixture_example(fig):
    g, nm = fig
    c2 = Cycle.from_sequence(g, [nm["v3"], nm["v4"], nm["c"], nm["a"], nm["b"]])
    segs = parts(c2, [nm["a"], nm["b"], nm["c"]])
    by_len = sorted(len(s) for s in segs)
    assert by_len == [1, 1, 3]
    ends = {tuple(sorted(s.ends)) for s in segs}
    assert ends == {(nm["a"], nm["c"]), (nm["a"], nm["b"]), (nm["b"], nm["c"])}


def test_parts_trivial():
    tri = Cycle((0, 1, 2))
    assert [len(p) for p in parts(tri, (0, 1, 2))] == [1, 1, 1]
    c6 = Cycle(tuple(range(6)))
    segs = parts(c6, (0, 3))
    assert sorted(len(s) for s in segs) == [3, 3]
    with pytest.raises(ValueError):
        parts(c6, (0,))


def test_parts_reconstruction():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(3, 9)
        cyc = Cycle(tuple(rng.sample(range(12), n)))
        marks = rng.sample(cyc.vertices, rng.randint(2, n))
        segs = parts(cyc, marks)
        assert len(segs) == len(marks)
        acc = segs[0]
        for s in segs[1:]:
            acc = join(acc, s)
        assert isinstance(acc, Cycle)
        assert acc == cyc


def test_tails():
    p = PathSegment((0, 1, 2))
    a, b = tails(p, 1)
    assert a.vertices == (0, 1) and b.vertices == (1, 2)
    a, b = tails(p, 0)
    assert a.vertices == (0,) and b.vertices == (0, 1, 2)
    with pytest.raises(ValueError):
        tails(p, 9)


def test_tails_fixture(fig):
    g, nm = fig
    p2 = PathSegment.from_sequence(g, [nm["v3"], nm["c"], nm["d"], nm["b"], nm["v4"]])
    a, b = tails(p2, nm["d"])
    assert a.vertices == (nm["v3"], nm["c"], nm["d"])
    assert b.vertices == (nm["d"], nm["b"], nm["v4"])


def test_join_cases(fig):
    # two internally disjoint a-b paths of lengths 2 and 3 close into a 5-cycle
    p = PathSegment((0, 2, 1))
    q = PathSegment((0, 3, 4, 1))
    out = join(p, q)
    assert isinstance(out, Cycle) and len(out) == 5
    # sharing an internal vertex -> undefined
    assert join(PathSegment((0, 2, 1)), PathSegment((0, 2, 3))) is None
    g, nm = fig
    ca = PathSegment.from_sequence(g, [nm["c"], nm["a"]])
    ab = PathSegment.from_sequence(g, [nm["a"], nm["b"]])
    out = join(ca, ab)
    assert isinstance(out, PathSegment)
    assert out.vertices in ((nm["c"], nm["a"], nm["b"]), (nm["b"], nm["a"], nm["c"]))


def test_join_single_vertex_overlap():
    assert join(PathSegment((0,)), PathSegment((0,))).vertices == (0,)


def test_td_dp_trivial(k4, c5):
    td = full_tree_decomposition(k4, 3)
    assert longest_cycle_length_td(k4, td) == 4
    w, td5 = exact_treewidth(c5)
    assert longest_cycle_length_td(c5, td5) == 5


def test_td_dp_invalid_decomposition(k4):
    bad = TreeDecomposition([(0, 1)], [])
    with pytest.raises(DecompositionError):
        longest_cycle_length_td(k4, bad)


def two_triangles():
    """Triangles {0,1,2} and {3,4,5} joined by edge (2,3), with each triangle in
    its own child of the bag (2,3): the join sees a closed side on both."""
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    return g, TreeDecomposition([(2, 3), (0, 1, 2), (3, 4, 5)], [(0, 1), (0, 2)])


def test_td_dp_two_closed_sides_do_not_join():
    g, td = two_triangles()
    assert longest_cycle_length_td(g, td) == 3 == enumerate_longest_cycles(g).length


def test_td_dp_matches_enumeration_on_corpus(small_corpus):
    for g, natural in small_corpus + list(partial_4_trees(40)):
        lcs = enumerate_longest_cycles(g)
        assert longest_cycle_length_td(g, natural) == lcs.length


def test_td_dp_is_independent_of_enumeration(monkeypatch, petersen_graph):
    def refuse(*args, **kwargs):
        raise AssertionError("the DP oracle must not call into the enumerator")

    monkeypatch.setattr(cycles_module, "enumerate_longest_cycles", refuse)
    monkeypatch.setattr(cycles_module, "_subset_tables", refuse)
    _, td = exact_treewidth(petersen_graph)
    assert longest_cycle_length_td(petersen_graph, td) == 9
    assert longest_cycle_length_td(*two_triangles()) == 3


def test_td_dp_matches_enumeration_arbitrary():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5]))
        width, td = exact_treewidth(g)
        assert longest_cycle_length_td(g, td) == enumerate_longest_cycles(g).length


def test_longest_cycles_pairwise_intersection(small_corpus):
    # every pair of longest cycles in a 2-connected graph shares >= 2 vertices
    for g, _ in small_corpus[:25]:
        lcs = enumerate_longest_cycles(g)
        for c, d in itertools.combinations(lcs.cycles, 2):
            assert len(set(c) & set(d)) >= 2
