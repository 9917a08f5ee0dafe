import random
from itertools import combinations

import pytest

from lctw.classify import (
    BagContext,
    Fencing,
    Posture,
    Side,
    cross_or_fence,
    cycle_posture,
    k_intersect,
    path_side,
    s_equivalent,
    vertex_side,
)
from lctw.cycles import Cycle, PathSegment, enumerate_longest_cycles, parts
from lctw.decomposition import TreeDecomposition, exact_treewidth, full_tree_decomposition
from lctw.fixtures import complete_graph
from lctw.generate import GenSpec, generate_k_tree
from lctw.graph import Graph, components_after_removal, separates, vertex_mask


@pytest.fixture(scope="module")
def fig_routes(fig):
    g, nm = fig
    return {
        "g": g,
        "nm": nm,
        "S": [nm[x] for x in "abcd"],
        "P1": PathSegment.from_sequence(g, [nm["v1"], nm["a"], nm["v5"]]),
        "P2": PathSegment.from_sequence(g, [nm["v3"], nm["c"], nm["d"], nm["b"], nm["v4"]]),
        "C1": Cycle.from_sequence(g, [nm["v1"], nm["b"], nm["v2"], nm["d"]]),
        "C2": Cycle.from_sequence(g, [nm["v3"], nm["v4"], nm["c"], nm["a"], nm["b"]]),
    }


def test_k_intersect_fixture(fig_routes):
    nm, S = fig_routes["nm"], fig_routes["S"]
    assert k_intersect(fig_routes["P1"], S) == (1, (nm["a"],))
    count, at = k_intersect(fig_routes["P2"], S)
    assert count == 3 and set(at) == {nm["b"], nm["c"], nm["d"]}
    assert k_intersect(fig_routes["C1"], S)[0] == 2
    assert k_intersect(Cycle((5, 6, 7)), (0, 1)) == (0, ())


def test_cross_or_fence_fixture(fig_routes):
    g, S = fig_routes["g"], fig_routes["S"]
    nm = fig_routes["nm"]
    assert cross_or_fence(g, fig_routes["P1"], S) is Fencing.CROSSES
    assert cross_or_fence(g, fig_routes["P2"], S) is Fencing.FENCED
    assert cross_or_fence(g, fig_routes["C1"], S) is Fencing.CROSSES
    assert cross_or_fence(g, fig_routes["C2"], S) is Fencing.FENCED
    assert cross_or_fence(g, PathSegment.from_sequence(g, [nm["c"], nm["d"]]), S) is Fencing.FENCED
    abd = Cycle.from_sequence(g, [nm["a"], nm["b"], nm["d"]])
    assert cross_or_fence(g, abd, S) is Fencing.FENCED


def test_cross_or_fence_dichotomy():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(3, 10)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        lcs = enumerate_longest_cycles(g)
        if not lcs.length:
            continue
        s = rng.sample(range(n), rng.randint(1, n))
        for c in map(Cycle, lcs.cycles):
            tag = cross_or_fence(g, c, s)
            assert tag in (Fencing.CROSSES, Fencing.FENCED)
            assert (tag is Fencing.CROSSES) == separates(g, s, c.vertex_set)


def test_s_equivalent_fixture(fig_routes):
    g, nm, S = fig_routes["g"], fig_routes["nm"], fig_routes["S"]
    other = PathSegment.from_sequence(g, [nm["v1"], nm["b"], nm["c"], nm["d"], nm["v2"]])
    assert s_equivalent(fig_routes["P2"], other, S)
    eq_cycle = Cycle.from_sequence(g, [nm["v1"], nm["b"], nm["c"], nm["v5"], nm["a"]])
    assert s_equivalent(fig_routes["C2"], eq_cycle, S)
    assert s_equivalent(fig_routes["P1"], fig_routes["P1"], S)


def test_s_equivalent_is_equivalence_relation():
    rng = random.Random(4)
    routes = [Cycle(tuple(rng.sample(range(10), rng.randint(3, 6)))) for _ in range(12)]
    s = (0, 2, 4, 6)
    for x in routes:
        assert s_equivalent(x, x, s)
        for y in routes:
            assert s_equivalent(x, y, s) == s_equivalent(y, x, s)
            for z in routes:
                if s_equivalent(x, y, s) and s_equivalent(y, z, s):
                    assert s_equivalent(x, z, s)


def test_bag_context_rejects_other_widths(c5):
    _, td2 = exact_treewidth(c5)  # width-2 decomposition
    with pytest.raises(ValueError):
        BagContext(td2, 0)
    td3 = full_tree_decomposition(c5, 3)
    BagContext(td3, 0)  # fine


def test_vertex_side_triple_and_fourth_vertex(k4):
    td = TreeDecomposition([(0, 1, 2, 3)], [])
    ctx = BagContext(td, 0, (0, 1, 2))
    for v in (0, 1, 2):
        assert vertex_side(ctx, v) is Side.INSIDE
    assert vertex_side(ctx, 3) is Side.OUTSIDE  # no neighbor bag holds the triple


def test_vertex_side_attached_vertex_inside():
    g, td = generate_k_tree(GenSpec(n=5, k=3, seed=0))
    delta = tuple(sorted(set(td.bags[0]) & set(td.bags[1])))
    ctx = BagContext(td, 0, delta)
    assert vertex_side(ctx, 4) is Side.INSIDE  # vertex 4 was attached to the triple
    fourth = next(v for v in td.bags[0] if v not in delta)
    assert vertex_side(ctx, fourth) is Side.OUTSIDE


def test_path_side_cases():
    # K_{2,3}-style: triple {0,1,2}, inner vertex 3, outer vertex 4
    g = Graph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    td = TreeDecomposition([(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1)])
    ctx = BagContext(td, 1, (0, 1, 2))
    inner = PathSegment.from_sequence(g, [0, 3, 1])
    outer = PathSegment.from_sequence(g, [0, 4, 1])
    assert path_side(ctx, inner) is Side.INSIDE
    assert path_side(ctx, outer) is Side.OUTSIDE
    with pytest.raises(ValueError):
        path_side(ctx, PathSegment((0, 3)))  # only one endpoint in the triple


def test_path_side_single_triple_edge():
    g, td = generate_k_tree(GenSpec(n=5, k=3, seed=0))
    delta = tuple(sorted(set(td.bags[0]) & set(td.bags[1])))
    ctx = BagContext(td, 0, delta)
    edge = PathSegment.from_sequence(g, delta[:2])
    assert path_side(ctx, edge) is Side.INSIDE


def test_cycle_posture_jump_and_errors():
    g = Graph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    td = TreeDecomposition([(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1)])
    ctx = BagContext(td, 1, (0, 1, 2))
    jumper = Cycle.from_sequence(g, [0, 3, 1, 4])
    post = cycle_posture(ctx, jumper)
    assert post.tag is Posture.JUMP and post.intersect_count == 2
    with pytest.raises(ValueError):
        cycle_posture(ctx, Cycle((0, 3, 4)))  # meets triple only once


def test_cycle_posture_inside_and_bag_internal(k4):
    g, td = generate_k_tree(GenSpec(n=5, k=3, seed=0))
    delta = tuple(sorted(set(td.bags[0]) & set(td.bags[1])))
    ctx0 = BagContext(td, 0, delta)
    inner_cycle = Cycle.from_sequence(g, [delta[0], 4, delta[1]])
    assert cycle_posture(ctx0, inner_cycle).tag is Posture.INSIDE
    # a cycle entirely inside the bag is classified inside by convention
    td_k4 = TreeDecomposition([(0, 1, 2, 3)], [])
    ctx = BagContext(td_k4, 0, (0, 1, 2))
    in_bag = Cycle.from_sequence(complete_graph(4), [0, 1, 3])
    assert cycle_posture(ctx, in_bag).tag is Posture.INSIDE


def test_cycle_posture_outside():
    # triple {0,1,2}: one part through the fourth bag vertex 3, the other
    # through vertex 4 whose branch bag omits the triple -- both outside
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    td = TreeDecomposition([(0, 1, 2, 3), (0, 1, 3, 4)], [(0, 1)])
    ctx = BagContext(td, 0, (0, 1, 2))
    outside_cycle = Cycle.from_sequence(g, [0, 3, 1, 4])
    post = cycle_posture(ctx, outside_cycle)
    assert post.tag is Posture.OUTSIDE


def test_posture_consistency_with_parts(small_corpus):
    # inside iff all parts inside; outside iff all parts outside
    for g, natural in small_corpus[:20]:
        td = full_tree_decomposition(g, 3, base=natural)
        lcs = enumerate_longest_cycles(g)
        for t in range(td.node_count):
            for delta in combinations(td.bags[t], 3):
                ctx = BagContext(td, t, delta)
                for c in map(Cycle, lcs.cycles):
                    if len(c.vertex_set & set(delta)) < 2 or c.vertex_set <= set(td.bags[t]):
                        continue
                    sides = [path_side(ctx, p) for p in parts(c, delta)]
                    post = cycle_posture(ctx, c)
                    if post.tag is Posture.INSIDE:
                        assert all(s is Side.INSIDE for s in sides)
                    elif post.tag is Posture.OUTSIDE:
                        assert all(s is Side.OUTSIDE for s in sides)
                    else:
                        assert post.intersect_count in (2, 3)
                        assert Side.INSIDE in sides and Side.OUTSIDE in sides


def test_fenced_cycles_live_in_one_branch(small_corpus):
    # every longest cycle fenced by a bag with a vertex outside it maps all its
    # outside vertices into a single branch
    from lctw.decomposition import branch_of_route, branch_of_vertex

    checked = 0
    for g, natural in small_corpus[:20]:
        td = full_tree_decomposition(g, 3, base=natural)
        lcs = enumerate_longest_cycles(g)
        for t in range(td.node_count):
            bag = set(td.bags[t])
            for c in map(Cycle, lcs.cycles):
                if cross_or_fence(g, c, bag) is not Fencing.FENCED:
                    continue
                outside = c.vertex_set - bag
                if not outside:
                    assert branch_of_route(td, t, c.vertices).is_empty
                    continue
                branches = {branch_of_vertex(td, t, v).nodes for v in outside}
                assert len(branches) == 1
                checked += 1
    assert checked  # the corpus produced fenced cycles with outside vertices


def test_inside_membership_matches_reachability(small_corpus):
    # decomposition-side inside vertices coincide with components whose branch
    # lies in the triple's branch union
    from lctw.decomposition import branch_of_vertex, branch_union

    for g, natural in small_corpus[:15]:
        td = full_tree_decomposition(g, 3, base=natural)
        for t in range(td.node_count):
            for delta in combinations(td.bags[t], 3):
                ctx = BagContext(td, t, delta)
                bu = branch_union(td, t, delta)
                inside = {v for v in range(g.n) if vertex_side(ctx, v) is Side.INSIDE}
                expect = set(delta)
                for block in components_after_removal(g, td.bags[t]):
                    br = branch_of_vertex(td, t, block[0])
                    if br.nodes <= bu.nodes:
                        expect.update(block)
                assert inside == expect


def test_bag_masks_match_route_classification(small_corpus):
    # the mask fencing and posture against cross_or_fence and cycle_posture,
    # every longest cycle at every node and triple
    from lctw.transversal import build_families

    checked = 0
    for g, natural in small_corpus:
        td = full_tree_decomposition(g, 3, base=natural)
        lcs = enumerate_longest_cycles(g)
        for t in range(td.node_count):
            node = build_families(g, td, t, lcs)
            for c, m in lcs:
                assert node.fenced(m) == (cross_or_fence(g, Cycle(c), td.bags[t]) is Fencing.FENCED)
                for delta in combinations(td.bags[t], 3):
                    if len(set(c) & set(delta)) >= 2:
                        assert node.posture(c, m, vertex_mask(delta)) is cycle_posture(BagContext(td, t, delta), Cycle(c)).tag
                        checked += 1
    assert checked > 1000
