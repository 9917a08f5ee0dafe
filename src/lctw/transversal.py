"""Longest-cycle transversals and the per-bag cycle families with their checks.

lct(G) is the minimum size of a vertex set meeting every longest cycle.  The
computation is staged exhaustion: all single vertices, then all pairs, then
triples, and so on in lexicographic order, so the reported witness is the
lexicographically least among the minimum-size transversals and minimality is
verified exhaustively by construction.

Every fact a check reads is derived once per graph by ``GraphFacts``: its
2-connectivity, a decomposition, the longest cycles, lct, the full width-3
decomposition and the per-bag families, one ``CycleFamilies`` per node that
holds the node's bitmasks and classifies each family from them.  The checkers
and the conjecture scan take that object.

Every checker returns its record entry: a dict with a "status" and, where it
has them, a "detail" and a JSON-ready "witness".  A check on a whole graph
takes the facts; a per-triple check takes the facts and a context of
``facts.contexts``: a node t of ``facts.td3`` and a triple of its bag where
all three 2-jump families are nonempty, the per-triple premise.  A checker
tests no premise, so it runs only where its hypotheses hold: the graph-level
premises (lct > 1, treewidth 3) are rows of ``harness.CHECKS``, which record
"premise-not-met", or "vacuous-pass" for a premise-empty side condition.  The
conjecture scan likewise returns the entries of its record.

A triple is its vertex mask throughout: the triples of a bag with mask
``bag`` are ``bag ^ 1 << v`` for v in the bag, listed by ``_triples``, and
the pairs of a triple ``dmask`` are ``dmask ^ 1 << v``.  Vertex tuples of a
triple or a pair are made only where text is written: a record's detail or
first failure and ``lctw inspect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Callable

from .classify import Posture
from .cycles import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MAX_CYCLES,
    LongestCycleSet,
    check_enumeration_cap,
    enumerate_longest_cycles,
)
from .decomposition import (
    DEFAULT_TREEWIDTH_CAP,
    DecompositionError,
    TreeDecomposition,
    check_treewidth_cap,
    exact_treewidth,
    full_tree_decomposition,
    has_treewidth_at_most_2,
    require_valid,
    side_masks,
)
from .graph import Graph, _bits, component_masks, is_biconnected, vertex_mask

__all__ = [
    "PASS",
    "FAIL",
    "PREMISE_NOT_MET",
    "VACUOUS_PASS",
    "TransversalResult",
    "CycleFamilies",
    "TripleFamilies",
    "GraphFacts",
    "ScanOutOfScope",
    "compute_lct",
    "build_families",
    "check_fenced_or_shared",
    "check_pairwise_and_common",
    "check_escape_cycle",
    "conjecture_scan",
    "check_equivalent_two_cross_jump",
]

PASS = "pass"
FAIL = "fail"
PREMISE_NOT_MET = "premise-not-met"
VACUOUS_PASS = "vacuous-pass"


@dataclass(frozen=True)
class TransversalResult:
    """Minimum hitting set over the vertex sets of all longest cycles."""

    lct: int
    witness: tuple[int, ...]


def compute_lct(g: Graph, family: LongestCycleSet) -> TransversalResult:
    """Exact lct over g's longest cycles, with the lexicographically least
    minimum witness."""
    if family.length == 0:
        raise ValueError("graph is acyclic: transversal number undefined")
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            probe = vertex_mask(combo)
            if all(m & probe for m in family.vertex_sets):
                return TransversalResult(size, combo)
    raise AssertionError("unreachable: the full vertex set hits every cycle")


Member = tuple[tuple[int, ...], int]  # a longest cycle: its vertex tuple and vertex mask


@dataclass(frozen=True)
class TripleFamilies:
    """Families attached to one triple of a bag."""

    exact3: tuple[Member, ...]  # longest cycles meeting the bag exactly at the triple
    jump2: dict[int, tuple[Member, ...]]  # 2-jump families per pair, keyed by the pair's mask
    jump3: tuple[Member, ...]  # 3-jump family


class CycleFamilies:
    """Longest-cycle families at one node of a full width-3 decomposition of
    g: the 2-crossing set, the fenced at-most-3-intersecting set, and
    per-triple exact/jump families, each a tuple of the family's (vertex
    tuple, vertex mask) pairs.  Only the node's masks are built up front: the
    bag's mask and ``inside``, the inside set of each of the bag's triples
    keyed by the triple's mask in ``_triples`` order.  The components of
    G - bag, which only fencing and the pairwise-and-common check read, and
    each family are built on first read and kept; ``by_triple`` is keyed as
    ``inside``."""

    def __init__(self, cycles: LongestCycleSet, mask: int, inside: dict[int, int], g: Graph):
        self.cycles = cycles
        self.mask = mask
        self.inside = inside
        self.g = g

    @cached_property
    def components(self) -> tuple[int, ...]:
        return tuple(component_masks(self.g, ((1 << self.g.n) - 1) & ~self.mask))

    def fenced(self, m: int) -> bool:
        """``cross_or_fence`` against the bag is FENCED for the cycle with
        vertex mask m: its vertices off the bag meet at most one component of
        G - bag."""
        off = m & ~self.mask
        return sum(1 for comp in self.components if comp & off) <= 1

    def posture(self, vertices: tuple[int, ...], m: int, dmask: int) -> Posture:
        """The tag of ``cycle_posture`` for the cycle ``vertices``, with vertex
        mask m, against the triple with mask dmask, which it meets at least
        twice.  A part is inside iff it is an edge within the triple or meets
        the inside set: on a valid decomposition no component of G - bag
        straddles that set and the fourth bag vertex has no inside neighbour,
        so each part off the bag lies wholly on one side."""
        if not m & ~self.mask:
            return Posture.INSIDE
        off, inside = m & ~dmask, self.inside[dmask]
        if not off & ~inside:
            return Posture.INSIDE
        if off & inside or any(
            (dmask >> u) & (dmask >> v) & 1 for u, v in zip(vertices, vertices[1:] + vertices[:1])
        ):
            return Posture.JUMP
        return Posture.OUTSIDE

    @cached_property
    def x2(self) -> tuple[Member, ...]:
        return tuple((c, m) for c, m in self.cycles if not self.fenced(m) and (m & self.mask).bit_count() == 2)

    @cached_property
    def fenced3(self) -> tuple[Member, ...]:
        return tuple((c, m) for c, m in self.cycles if self.fenced(m) and (m & self.mask).bit_count() <= 3)

    @cached_property
    def by_triple(self) -> dict[int, TripleFamilies]:
        by_triple: dict[int, TripleFamilies] = {}
        for dmask in self.inside:
            exact3 = tuple((c, m) for c, m in self.cycles if m & self.mask == dmask)
            jump2: dict[int, list[Member]] = {dmask ^ 1 << v: [] for v in _bits(dmask)}
            jump3: list[Member] = []
            for c, m in self.cycles:
                hit = m & dmask
                if hit.bit_count() < 2 or self.posture(c, m, dmask) is not Posture.JUMP:
                    continue
                if hit == dmask:
                    jump3.append((c, m))
                else:
                    jump2[hit].append((c, m))
            by_triple[dmask] = TripleFamilies(exact3, {p: tuple(v) for p, v in jump2.items()}, tuple(jump3))
        return by_triple


def _triples(bag: int) -> list[int]:
    """The triple masks of the bag with mask ``bag`` in ascending order, the
    ``combinations`` order of their vertex tuples: dropping a lower vertex
    leaves a larger mask, so the list made low bit first is reversed."""
    out, rest = [], bag
    while rest:
        low = rest & -rest
        out.append(bag ^ low)
        rest ^= low
    out.reverse()
    return out


def build_families(g: Graph, td: TreeDecomposition, t: int, cycles: LongestCycleSet) -> CycleFamilies:
    """The families of every longest cycle against the bag of node t of the
    full width-3 decomposition td and all four of its triples: the node's
    masks now, each family on first read.  A full decomposition's adjacent
    bags share a triple, their masks' intersection, so each neighbour u adds
    its branch, ``side_masks(td)[t, u]``, to the inside set of that triple:
    the triple's ``branch_union`` as masks.  No bag tuple is read; like
    ``side_masks``, it refuses a td that never passed ``require_valid``."""
    masks, sides = td.masks, side_masks(td)
    bag = masks[t]
    inside = {dmask: dmask for dmask in _triples(bag)}
    rest = td.node_nbr_mask[t]
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        inside[bag & masks[u]] |= sides[t, u]
    return CycleFamilies(cycles, bag, inside, g)


class GraphFacts:
    """The per-graph facts every check reads, each derived on first read and
    kept, so each is computed at most once per graph.

    ``td``, when given, must pass ``require_valid`` for g; without one an
    optimal decomposition is computed.  The caps and the budgets apply to the
    exact treewidth program and the cycle enumeration; ``max_steps=None``
    leaves the enumeration's steps unbudgeted."""

    def __init__(
        self,
        g: Graph,
        td: TreeDecomposition | None = None,
        *,
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
        treewidth_cap: int = DEFAULT_TREEWIDTH_CAP,
        max_steps: int | None = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ):
        self.g = g
        self.given_td = td
        self.enumeration_cap = enumeration_cap
        self.treewidth_cap = treewidth_cap
        self.max_steps = max_steps
        self.max_cycles = max_cycles
        self.td3_error = ""  # why td3 is None, once td3 is read

    @cached_property
    def biconnected(self) -> bool:
        return is_biconnected(self.g)

    @cached_property
    def td(self) -> TreeDecomposition:
        """The given decomposition, else an optimal one, whose width is then the
        treewidth.  The one cap rule: before the exact treewidth search, refuse
        n beyond the treewidth cap, then, when the graph is 2-connected and so
        its cycles are enumerated next, beyond the enumeration cap."""
        if self.given_td is not None:
            require_valid(self.g, self.given_td)
            return self.given_td
        check_treewidth_cap(self.g.n, self.treewidth_cap)
        if self.biconnected:
            check_enumeration_cap(self.g.n, self.enumeration_cap)
        return exact_treewidth(self.g, cap=self.treewidth_cap)[1]

    @cached_property
    def tw_eq_3(self) -> bool:
        """Treewidth exactly 3: an optimal td shows it by its width; a given
        one bounds it from above, and the degree reduction rules out <= 2."""
        if self.given_td is None:
            return self.td.width == 3
        return self.td.width <= 3 and not has_treewidth_at_most_2(self.g)

    @cached_property
    def cycles(self) -> LongestCycleSet:
        return enumerate_longest_cycles(
            self.g, cap=self.enumeration_cap, max_steps=self.max_steps, max_cycles=self.max_cycles
        )

    @cached_property
    def lct(self) -> TransversalResult:
        return compute_lct(self.g, family=self.cycles)

    @cached_property
    def td3(self) -> TreeDecomposition | None:
        """The full width-3 decomposition built on td, or None with the reason
        in ``td3_error``."""
        if self.g.n < 4:
            self.td3_error = "no width-3 decomposition (n < 4)"
            return None
        try:
            return full_tree_decomposition(self.g, 3, base=self.td)
        except DecompositionError as exc:
            self.td3_error = str(exc)
            return None

    @cached_property
    def families(self) -> Callable[[int], CycleFamilies]:
        """The families at node t of td3 as a function of t, built on first use
        and kept, so that all checks of one graph share one build per node and
        each family is classified at most once per node, when a check first
        reads it.  The closure holds no self: a reference cycle would leave
        every graph's facts to the cyclic garbage collector."""
        g, td3, cycles = self.g, self.td3, self.cycles
        return cache(lambda t: build_families(g, td3, t, cycles))

    @cached_property
    def contexts(self) -> tuple[tuple[int, int], ...]:
        """The (node, triple mask) contexts of td3 where all three 2-jump
        families at the triple are nonempty, the per-triple lemmas' premise,
        by node and then in ``_triples`` order.  A pair's 2-jump cycles meet
        the triple at just that pair, so a triple with a pair no longest cycle
        meets so is left out before any family is built."""
        vertex_sets, families = self.cycles.vertex_sets, self.families
        out = []
        for t, bag in enumerate(self.td3.masks):
            for dmask in _triples(bag):
                hits = {m & dmask for m in vertex_sets}
                if all(dmask ^ 1 << v in hits for v in _bits(dmask)) and all(families(t).by_triple[dmask].jump2.values()):
                    out.append((t, dmask))
        return tuple(out)


def check_fenced_or_shared(facts: GraphFacts) -> dict:
    """At every bag of ``facts.td3``: lct == 1, or some longest cycle is fenced
    by the bag and meets it at most three times.  A failing node would
    contradict the theory this tool checks, so failures list the node ids."""
    if not facts.biconnected:
        raise ValueError("check requires a 2-connected graph")
    if facts.td3 is None:
        raise ValueError("check requires a full width-3 decomposition")
    if facts.lct.lct == 1:
        return {"status": PASS, "detail": "all longest cycles share a vertex"}
    failing = [t for t in range(facts.td3.node_count) if not facts.families(t).fenced3]
    return {"status": FAIL if failing else PASS, "failing_nodes": failing}


def check_pairwise_and_common(facts: GraphFacts, t: int, dmask: int) -> dict:
    """At a context (t, dmask) of ``facts.contexts``, where all three 2-jump
    families at the triple with mask dmask of node t are nonempty, verify that

    (i) some qualifying component contains a vertex of every pairwise
        intersection of the jump-family cycles, and
    (ii) a single vertex inside the triple lies on all of them.
    """
    node = facts.families(t)
    fams = node.by_triple[dmask]
    family = [c for p in sorted(fams.jump2) for c in fams.jump2[p]] + list(fams.jump3)
    inside = node.inside[dmask]
    blocks = [b for b in node.components if b & inside]  # components in the triple's branch union
    pairs = list(combinations(family, 2))
    meets = [m & k for (_, m), (_, k) in pairs]
    block = next((b for b in blocks if all(m & b for m in meets)), None)
    if block is None:
        (c, _), (d, _) = next(p for p, m in zip(pairs, meets) if not any(m & b for b in blocks))
        return {
            "status": FAIL,
            "detail": "no qualifying component carries all pairwise intersections",
            "witness": [list(c), list(d)],
        }
    witness_component = [v for v in range(facts.g.n) if block >> v & 1]
    common = inside
    for _, m in family:
        common &= m
    if not common:
        return {"status": FAIL, "detail": "jump families share no vertex inside the triple", "witness": [witness_component]}
    return {"status": PASS, "witness": [witness_component, (common & -common).bit_length() - 1]}  # least vertex


def check_escape_cycle(facts: GraphFacts, t: int, dmask: int) -> dict:
    """On a graph with lct > 1, at a context (t, dmask) of ``facts.contexts``,
    where every pair of the triple with mask dmask of node t has a
    2-jumping longest cycle: some longest cycle meets the bag at most once,
    or is outside the triple, or is inside and meets it twice, or is inside,
    meets it three times and is fenced by it: its vertices off the triple lie
    in one component of G - triple."""
    node = facts.families(t)
    apart = component_masks(facts.g, ((1 << facts.g.n) - 1) & ~dmask)  # the components of G - triple
    for c, m in facts.cycles:
        if (m & node.mask).bit_count() <= 1:
            shape = "a longest cycle meets the bag at most once"
        elif (count := (m & dmask).bit_count()) < 2:
            continue
        elif (tag := node.posture(c, m, dmask)) is Posture.OUTSIDE:
            shape = "a longest cycle is outside the triple"
        elif tag is Posture.INSIDE and count == 2:
            shape = "an inside longest cycle meets the triple twice"
        elif tag is Posture.INSIDE and count == 3 and any(not m & ~dmask & ~comp for comp in apart):
            shape = "an inside longest cycle meets the triple thrice, fenced by it"
        else:
            continue
        return {"status": PASS, "detail": shape, "witness": [list(c)]}
    return {"status": FAIL, "detail": "no longest cycle satisfies any of the stated shapes"}


class ScanOutOfScope(ValueError):
    """The graph is outside the conjecture scan's premise: it is not
    2-connected, or its decomposition is wider than 4."""


def conjecture_scan(facts: GraphFacts) -> dict:
    """Scan one 2-connected graph of treewidth <= 4 for a 2-vertex transversal
    and return its record entries: the finding ("consistent" or
    "COUNTEREXAMPLE"), lct, L, the number of longest cycles and the lct
    witness.

    Findings are reported, never asserted.  A counterexample (lct >= 3) also
    carries an exhaustive refutation, [u, v, the missing cycle's vertex list]
    per vertex pair: one longest cycle missing both, so the finding
    re-verifies without this tool.

    ``facts.td`` certifies the bound: a given decomposition must have width
    <= 4; without one the exact treewidth must be.  A graph outside either
    premise raises ``ScanOutOfScope``."""
    if not facts.biconnected:
        raise ScanOutOfScope("conjecture scan requires a 2-connected graph")
    width = facts.td.width
    if width > 4:
        raise ScanOutOfScope(f"conjecture scan requires treewidth <= 4, got a decomposition of width {width}")
    res, cycles = facts.lct, facts.cycles
    found = {"lct": res.lct, "L": cycles.length, "longest_cycles": len(cycles), "witness": list(res.witness)}
    if res.lct <= 2:
        return {"finding": "consistent", **found}
    pairs = combinations(range(facts.g.n), 2)
    refutation = [[u, v, list(next(c for c, m in cycles if not m & (1 << u | 1 << v)))] for u, v in pairs]
    return {"finding": "COUNTEREXAMPLE", **found, "refutation": refutation}


def check_equivalent_two_cross_jump(facts: GraphFacts) -> dict:
    """On a graph with lct > 1: when all 2-crossing longest cycles at a bag
    of ``facts.td3`` meet it in the same pair, each of them must jump both
    triples containing that pair.  Vacuous when no bag has such a family;
    the lct premise, empty on every graph where all longest cycles
    intersect, is the check's row in ``harness.CHECKS``."""
    met_anywhere = False
    for t in range(facts.td3.node_count):
        fams = facts.families(t)
        x2 = fams.x2
        if not x2:
            continue
        meet = x2[0][1] & fams.mask
        if any(m & fams.mask != meet for _, m in x2[1:]):
            continue
        met_anywhere = True
        for c, m in x2:
            for w in _bits(fams.mask & ~meet):
                dmask = meet | 1 << w
                if (c, m) not in fams.by_triple[dmask].jump2[meet]:
                    return {
                        "status": FAIL,
                        "detail": f"2-crossing cycle fails to jump triple {tuple(_bits(dmask))} at node {t}",
                        "witness": [list(c)],
                    }
    if not met_anywhere:
        return {"status": VACUOUS_PASS, "detail": "no bag with an equivalent 2-crossing family"}
    return {"status": PASS}
