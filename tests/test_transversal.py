from itertools import combinations

import pytest

from lctw.classify import BagContext, Fencing, Posture, cross_or_fence, cycle_posture, k_intersect
from lctw.cycles import Cycle, enumerate_longest_cycles
from lctw.decomposition import (
    DecompositionError,
    TreeDecomposition,
    exact_treewidth,
    full_tree_decomposition,
    require_valid,
)
from lctw.fixtures import complete_graph, path_graph
from lctw.generate import GenSpec, generate_partial_k_tree
from lctw.graph import Graph, vertex_mask
from lctw.harness import CampaignOptions, _verify_graph
from lctw.transversal import (
    FAIL,
    PASS,
    PREMISE_NOT_MET,
    VACUOUS_PASS,
    GraphFacts,
    ScanOutOfScope,
    TransversalResult,
    TripleFamilies,
    build_families,
    check_fenced_or_shared,
    check_pairwise_and_common,
    compute_lct,
    conjecture_scan,
)


@pytest.fixture(scope="module")
def k23():
    g = Graph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    td = TreeDecomposition([(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1)])
    require_valid(g, td)  # build_families reads side masks, defined once td is validated
    return g, td


def test_compute_lct_trivial(k4, c5):
    res = compute_lct(c5, enumerate_longest_cycles(c5))
    assert res.lct == 1 and res.witness == (0,)  # unique cycle: hit anywhere
    res = compute_lct(k4, enumerate_longest_cycles(k4))
    assert res.lct == 1  # every vertex lies on all three Hamiltonian cycles


def test_compute_lct_petersen(petersen_graph):
    family = enumerate_longest_cycles(petersen_graph)
    res = compute_lct(petersen_graph, family)
    assert res.lct == 2
    assert res.witness == (0, 1)  # lexicographically least among minima
    assert family.length == 9 and len(family) == 20
    # witness hits every longest cycle; no single vertex does
    for c in family.cycles:
        assert set(res.witness) & set(c)
    assert not any(all(v in c for c in family.cycles) for v in range(10))


def test_compute_lct_acyclic_error():
    with pytest.raises(ValueError):
        compute_lct(path_graph(4), enumerate_longest_cycles(path_graph(4)))


def test_build_families_disjoint_and_consistent(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    lcs = enumerate_longest_cycles(g)
    for t in range(td.node_count):
        fams = build_families(g, td, t, lcs)
        assert not set(fams.x2) & set(fams.fenced3)
        for delta in combinations(td.bags[t], 3):
            tf = fams.by_triple[vertex_mask(delta)]
            for pair in combinations(delta, 2):
                for c, _ in tf.jump2[vertex_mask(pair)]:
                    assert set(c) & set(delta) == set(pair)
            for c, _ in tf.jump3:
                assert set(c) & set(delta) == set(delta)


def _route_families(g, td, t, cycles):
    """build_families stated on routes, as before the mask classification:
    k_intersect, cross_or_fence and cycle_posture per cycle, each read as a
    ``Cycle`` and listed as its family member."""
    ctx = BagContext(td, t)
    bag = set(ctx.bag)
    x2, fenced3 = [], []
    for c, m in cycles:
        count, _ = k_intersect(Cycle(c), bag)
        fen = cross_or_fence(g, Cycle(c), bag)
        if fen is Fencing.CROSSES and count == 2:
            x2.append((c, m))
        elif fen is Fencing.FENCED and count <= 3:
            fenced3.append((c, m))
    by_triple = {}
    for delta in combinations(ctx.bag, 3):
        jump2 = {p: [] for p in combinations(delta, 2)}
        jump3 = []
        for c, m in cycles:
            count, inter = k_intersect(Cycle(c), delta)
            if count >= 2 and cycle_posture(BagContext(td, t, delta), Cycle(c)).tag is Posture.JUMP:
                (jump2[inter] if count == 2 else jump3).append((c, m))
        exact3 = tuple((c, m) for c, m in cycles if set(c) & bag == set(delta))
        by_triple[delta] = (exact3, {p: tuple(v) for p, v in jump2.items()}, tuple(jump3))
    return tuple(x2), tuple(fenced3), by_triple


def _by_tuples(fams, bag):
    """``fams.by_triple``, keyed by triple masks and its 2-jump families by
    pair masks, as (exact3, jump2, jump3) keyed by vertex tuples."""
    triples = list(combinations(bag, 3))
    assert list(fams.by_triple) == [vertex_mask(delta) for delta in triples]
    out = {}
    for delta in triples:
        tf = fams.by_triple[vertex_mask(delta)]
        pairs = list(combinations(delta, 2))
        assert sorted(tf.jump2) == sorted(map(vertex_mask, pairs))
        out[delta] = (tf.exact3, {p: tf.jump2[vertex_mask(p)] for p in pairs}, tf.jump3)
    return out


def test_build_families_matches_route_reference(small_corpus, fig, k23):
    fg, _ = fig
    cases = [(g, full_tree_decomposition(g, 3, base=natural)) for g, natural in small_corpus]
    cases += [(fg, full_tree_decomposition(fg, 3)), k23]
    nodes = 0
    for g, td in cases:
        lcs = enumerate_longest_cycles(g)
        for t in range(td.node_count):
            fams = build_families(g, td, t, lcs)
            assert (fams.x2, fams.fenced3, _by_tuples(fams, td.bags[t])) == _route_families(g, td, t, lcs)
            nodes += 1
    assert nodes > 300


def test_build_families_k23(k23):
    g, td = k23
    lcs = enumerate_longest_cycles(g)
    fams = build_families(g, td, 1, lcs)
    tf = fams.by_triple[vertex_mask((0, 1, 2))]
    assert all(len(tf.jump2[vertex_mask(p)]) == 1 for p in ((0, 1), (0, 2), (1, 2)))
    assert tf.jump3 == ()
    assert fams.x2 == ()  # every longest cycle meets the bag 3 times


def test_check_fenced_or_shared_fixture(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    facts = GraphFacts(g, td)
    out = check_fenced_or_shared(facts)
    assert out["status"] == PASS and facts.lct.lct == 1
    assert out == {"status": PASS, "detail": "all longest cycles share a vertex"}


def test_check_fenced_or_shared_corpus(small_corpus):
    for g, natural in small_corpus[:25]:
        td = full_tree_decomposition(g, 3, base=natural)
        assert check_fenced_or_shared(GraphFacts(g, td))["status"] == PASS


def test_check_fenced_or_shared_preconditions(petersen_graph, c5):
    td = full_tree_decomposition(c5, 3)
    with pytest.raises(ValueError):
        check_fenced_or_shared(GraphFacts(path_graph(4), td))  # not 2-connected
    _, tdp = exact_treewidth(petersen_graph)
    with pytest.raises(ValueError):
        check_fenced_or_shared(GraphFacts(petersen_graph, tdp))  # width 4 decomposition


def test_check_pairwise_and_common_k23(k23):
    g, td = k23
    facts = GraphFacts(g, td)
    out = check_pairwise_and_common(facts, 1, vertex_mask((0, 1, 2)))
    assert out["status"] == PASS
    component, common_vertex = out["witness"]
    assert component == [3] and common_vertex == 3


def _table_entries(facts, *checks):
    """The entries the check table records for ``checks`` on facts."""
    record = {}
    _verify_graph(facts, record, CampaignOptions(checks=checks))
    return record["checks"]


def test_check_pairwise_and_common_premise_not_met(k4, k23):
    # a triple with an empty 2-jump family is no context, so no check runs there
    facts = GraphFacts(k4, TreeDecomposition([(0, 1, 2, 3)], []))
    assert facts.contexts == ()
    facts = GraphFacts(*k23)
    assert (1, vertex_mask((0, 1, 4))) not in facts.contexts and (1, vertex_mask((0, 1, 2))) in facts.contexts


def test_contexts_need_all_three_2_jump_families(k23):
    # every pair of (0, 1, 2) is met by some longest cycle and jumped at both
    # nodes; with one 2-jump family emptied at node 1 that context drops out
    from dataclasses import replace
    from types import SimpleNamespace

    triple = vertex_mask((0, 1, 2))
    facts = GraphFacts(*k23)
    assert facts.contexts == ((0, triple), (1, triple))
    facts = GraphFacts(*k23)
    real = facts.families

    def emptied(t):
        by_triple = dict(real(t).by_triple)
        if t == 1:
            fams = by_triple[triple]
            by_triple[triple] = replace(fams, jump2={**fams.jump2, vertex_mask((0, 1)): ()})
        return SimpleNamespace(by_triple=by_triple)

    facts.families = emptied
    assert facts.contexts == ((0, triple),)


def _stub_context(cycles, components):
    """Facts whose node 0 holds the triple (0, 1, 2) with inside set 0..5:
    ``cycles`` are its 2-jump members, each filed under the pair it meets,
    and ``components`` the components of G - bag, as vertex tuples."""
    from types import SimpleNamespace

    members = [(c, vertex_mask(c)) for c in cycles]
    jump2 = {vertex_mask(p): tuple(m for m in members if m[1] & 7 == vertex_mask(p)) for p in ((0, 1), (0, 2), (1, 2))}
    node = SimpleNamespace(
        by_triple={7: TripleFamilies((), jump2, ())},
        inside={7: 0b111111},
        components=tuple(map(vertex_mask, components)),
    )
    return SimpleNamespace(g=Graph(6, []), families=lambda t: node)


def test_check_pairwise_and_common_fails_both_ways():
    # the first cycle meets the others in different components, and the last
    # two meet at vertex 2 alone, in the bag
    facts = _stub_context([(0, 1, 3, 4), (0, 2, 3), (1, 2, 4)], [(3,), (4,), (5,)])
    assert check_pairwise_and_common(facts, 0, 7) == {
        "status": FAIL,
        "detail": "no qualifying component carries all pairwise intersections",
        "witness": [[0, 2, 3], [1, 2, 4]],
    }
    # one component carries every pairwise meet, but no vertex lies on all three
    facts = _stub_context([(0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5)], [(3, 4, 5)])
    assert check_pairwise_and_common(facts, 0, 7) == {
        "status": FAIL,
        "detail": "jump families share no vertex inside the triple",
        "witness": [[3, 4, 5]],
    }


def test_contexts_build_no_family_where_no_pair_is_met(monkeypatch, k4):
    # K4's longest cycles are Hamiltonian, so each meets a triple whole and no
    # pair of it is met: contexts leaves every triple out before any family
    # of the node is built
    import lctw.transversal as transversal

    def refuse(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(transversal, "build_families", refuse)
    assert GraphFacts(k4, TreeDecomposition([(0, 1, 2, 3)], [])).contexts == ()


def test_jump_checkers_state_the_empty_2_jump_premise_alike(k4):
    # K4 in one bag has no branch, so no cycle jumps; lct is forced above 1 so
    # that the escape check reaches the same premise
    facts = GraphFacts(k4, TreeDecomposition([(0, 1, 2, 3)], []))
    facts.lct = TransversalResult(2, (0, 1))
    assert facts.contexts == ()
    assert _table_entries(facts, "jump_families", "escape_cycle") == {
        "jump_families": {"status": PREMISE_NOT_MET, "premise_met": 0, "contexts": 4},
        "escape_cycle": {"status": PREMISE_NOT_MET, "premise_met": 0},
    }


def test_check_escape_cycle_premises(k4, k23):
    unmet = {"escape_cycle": {"status": PREMISE_NOT_MET, "premise_met": 0}}
    facts = GraphFacts(k4, TreeDecomposition([(0, 1, 2, 3)], []))
    assert facts.lct.lct == 1 and _table_entries(facts, "escape_cycle") == unmet
    facts = GraphFacts(*k23)
    assert facts.lct.lct == 1 and facts.contexts  # lct = 1 again, though the jump premise holds
    assert _table_entries(facts, "escape_cycle") == unmet


def test_conjecture_scan_consistent(small_corpus, petersen_graph):
    for g, natural in small_corpus[:10]:
        finding = conjecture_scan(GraphFacts(g, natural))
        assert finding["finding"] == "consistent" and finding["lct"] == 1
    finding = conjecture_scan(GraphFacts(petersen_graph))
    assert finding["finding"] == "consistent" and finding["lct"] == 2


def test_conjecture_scan_preconditions():
    with pytest.raises(ScanOutOfScope):
        conjecture_scan(GraphFacts(path_graph(5)))
    with pytest.raises(ScanOutOfScope):
        conjecture_scan(GraphFacts(complete_graph(6)))  # treewidth 5


def test_conjecture_scan_refuses_an_invalid_or_wide_td(k4):
    with pytest.raises(DecompositionError, match="invalid decomposition"):
        conjecture_scan(GraphFacts(k4, TreeDecomposition([(0, 1, 2), (1, 2, 3)], [(0, 1)])))  # edge (0,3) uncovered
    with pytest.raises(ValueError, match="width <= 4"):
        k6 = complete_graph(6)
        conjecture_scan(GraphFacts(k6, TreeDecomposition([tuple(range(6))], [])))


def test_conjecture_scan_partial_4_trees():
    for seed in range(10):
        spec = GenSpec(n=10, k=4, seed=seed, delete_probability=0.3, require_biconnected=True)
        g, natural = generate_partial_k_tree(spec)
        finding = conjecture_scan(GraphFacts(g, natural))
        assert finding["finding"] == "consistent"
        assert finding["lct"] <= 2


def _premise_facts(g, lct=None):
    """Facts of g, with lct forced to the given value."""
    facts = GraphFacts(g)
    if lct is not None:
        facts.lct = TransversalResult(lct, facts.lct.witness)
    return facts


def test_min_cycle_length_premise_gate(k4, c5, fig):
    # (facts, 2-connected, treewidth 3, lct, L, entry)
    k5_minus_edge = Graph(5, [e for e in combinations(range(5), 2) if e != (0, 1)])
    with_pendant = Graph(fig[0].n + 1, [*fig[0].edges, (0, fig[0].n)])  # a cut vertex
    vacuous = {"status": VACUOUS_PASS, "detail": "premise empty: lct = 1 or wrong width/connectivity"}
    cases = [
        (_premise_facts(k4), True, True, 1, 4, vacuous),
        (_premise_facts(k5_minus_edge, 2), True, True, 2, 5, {"status": PASS, "detail": "longest cycle length 5"}),
        (_premise_facts(k4, 2), True, True, 2, 4, {"status": FAIL, "detail": "longest cycle length 4"}),
        (_premise_facts(c5, 2), True, False, 2, 5, vacuous),  # treewidth 2
        (_premise_facts(with_pendant, 2), False, True, 2, 9, {"status": "out-of-scope"}),  # the lct gate
    ]
    for facts, biconnected, tw_eq_3, lct, length, entry in cases:
        assert (facts.biconnected, facts.tw_eq_3, facts.lct.lct, facts.cycles.length) == (biconnected, tw_eq_3, lct, length)
        assert _table_entries(facts, "min_length_side") == {"min_length_side": entry}


def test_two_cross_jump_vacuous(fig):
    g, _ = fig
    td = full_tree_decomposition(g, 3)
    facts = GraphFacts(g, td)
    assert facts.lct.lct == 1
    entry = {"status": VACUOUS_PASS, "detail": "premise empty: lct = 1"}
    assert _table_entries(facts, "two_cross_jump") == {"two_cross_jump": entry}


def test_graph_facts_are_freed_without_the_cyclic_collector(fig):
    # the families closure must not hold the facts object: a reference cycle
    # leaves every graph's facts to the cyclic collector, whose pauses showed
    # as a higher per-graph p99 on small-graph campaigns
    import gc
    import weakref

    g, _ = fig
    facts = GraphFacts(g)
    facts.families(0).fenced3
    ref = weakref.ref(facts)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del facts
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
