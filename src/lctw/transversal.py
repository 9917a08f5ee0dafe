"""Longest-cycle transversals and the per-bag cycle families with their checks.

lct(G) is the minimum size of a vertex set meeting every longest cycle.  The
computation is staged exhaustion: all single vertices, then all pairs, then
triples, and so on in lexicographic order, so the reported witness is the
lexicographically least among the minimum-size transversals and minimality is
verified exhaustively by construction.

Checkers return outcomes, not booleans: "premise-not-met" is a first-class
result distinct from pass/fail so that a checker never reports a spurious
failure on an instance outside its hypotheses, and "vacuous-pass" counts
premise-empty side conditions separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from typing import Callable

from .classify import BagContext, BagMasks, Posture, bag_masks, s_equivalent
from .cycles import (
    DEFAULT_ENUMERATION_CAP,
    Cycle,
    LongestCycleSet,
    check_enumeration_cap,
    enumerate_longest_cycles,
)
from .decomposition import TreeDecomposition, exact_treewidth, require_valid
from .graph import Graph, is_biconnected, separates, vertex_mask

__all__ = [
    "PASS",
    "FAIL",
    "PREMISE_NOT_MET",
    "VACUOUS_PASS",
    "TransversalResult",
    "CycleFamilies",
    "TripleFamilies",
    "FencedOrSharedReport",
    "CheckOutcome",
    "ConjectureFinding",
    "compute_lct",
    "build_families",
    "node_families",
    "check_fenced_or_shared",
    "check_pairwise_and_common",
    "check_escape_cycle",
    "conjecture_scan",
    "check_min_cycle_length_premise",
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
    family: LongestCycleSet


@dataclass(frozen=True)
class CheckOutcome:
    status: str
    detail: str = ""
    witness: tuple = ()


def compute_lct(
    g: Graph,
    cap: int = DEFAULT_ENUMERATION_CAP,
    max_steps: int | None = None,
    family: LongestCycleSet | None = None,
) -> TransversalResult:
    """Exact lct with the lexicographically least minimum witness."""
    if family is None:
        family = enumerate_longest_cycles(g, cap=cap, max_steps=max_steps)
    if family.length == 0:
        raise ValueError("graph is acyclic: transversal number undefined")
    masks = [c.mask for c in family.cycles]
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            probe = vertex_mask(combo)
            if all(m & probe for m in masks):
                return TransversalResult(size, combo, family)
    raise AssertionError("unreachable: the full vertex set hits every cycle")


@dataclass(frozen=True)
class TripleFamilies:
    """Families attached to one triple of a bag."""

    exact3: tuple[Cycle, ...]  # longest cycles meeting the bag exactly at the triple
    jump2: dict[tuple[int, int], tuple[Cycle, ...]]  # 2-jump families per pair
    jump3: tuple[Cycle, ...]  # 3-jump family


@dataclass(frozen=True)
class CycleFamilies:
    """Longest-cycle families at one bag: the 2-crossing set, the fenced
    at-most-3-intersecting set, and per-triple exact/jump families.  Only the
    bag's mask facts are built up front; each family is classified from them
    on first read and kept."""

    ctx: BagContext
    cycles: LongestCycleSet
    masks: BagMasks

    @cached_property
    def x2(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if not self.masks.fenced(c) and (c.mask & self.masks.bag).bit_count() == 2)

    @cached_property
    def fenced3(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if self.masks.fenced(c) and (c.mask & self.masks.bag).bit_count() <= 3)

    @cached_property
    def by_triple(self) -> dict[tuple[int, ...], TripleFamilies]:
        masks = self.masks
        by_triple: dict[tuple[int, ...], TripleFamilies] = {}
        for delta in combinations(self.ctx.bag, 3):
            dmask = vertex_mask(delta)
            exact3 = tuple(c for c in self.cycles if c.mask & masks.bag == dmask)
            jump2: dict[tuple[int, int], list[Cycle]] = {p: [] for p in combinations(delta, 2)}
            jump3: list[Cycle] = []
            for c in self.cycles:
                hit = c.mask & dmask
                if hit.bit_count() < 2 or masks.posture(c, delta) is not Posture.JUMP:
                    continue
                if hit == dmask:
                    jump3.append(c)
                else:
                    jump2[tuple(v for v in delta if hit >> v & 1)].append(c)
            by_triple[delta] = TripleFamilies(exact3, {p: tuple(v) for p, v in jump2.items()}, tuple(jump3))
        return by_triple


def build_families(g: Graph, ctx: BagContext, cycles: LongestCycleSet) -> CycleFamilies:
    """The families of every longest cycle against one bag and all four of its
    triples: the bag's masks now, each family on first read."""
    return CycleFamilies(ctx, cycles, bag_masks(g, ctx))


def node_families(
    g: Graph, td: TreeDecomposition, cycles: LongestCycleSet | None
) -> Callable[[int], CycleFamilies]:
    """The families at node t of td as a function of t, built on first use and
    kept, so that all checks of one graph share one build per node and each
    family is classified at most once per node, when a check first reads it."""
    return cache(lambda t: build_families(g, BagContext(td, t), cycles))


@dataclass(frozen=True)
class FencedOrSharedReport:
    """Per-node disjunction outcomes: transversal number 1, or a fenced longest
    cycle meeting the bag at most three times exists."""

    lct: int
    per_node: tuple[str, ...]  # PASS / FAIL per decomposition node
    failing_nodes: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failing_nodes


def check_fenced_or_shared(
    g: Graph,
    td: TreeDecomposition,
    cycles: LongestCycleSet | None = None,
    result: TransversalResult | None = None,
    families: Callable[[int], CycleFamilies] | None = None,
) -> FencedOrSharedReport:
    """At every bag: lct == 1, or some longest cycle is fenced by the bag and
    meets it at most three times.  A failing node would contradict the theory
    this tool checks, so failures carry the node id."""
    if not is_biconnected(g):
        raise ValueError("check requires a 2-connected graph")
    if not td.is_full or td.width != 3:
        raise ValueError("check requires a full width-3 decomposition")
    if cycles is None:
        cycles = enumerate_longest_cycles(g)
    if result is None:
        result = compute_lct(g, family=cycles)
    families = families or node_families(g, td, cycles)
    statuses = tuple(PASS if result.lct == 1 or families(t).fenced3 else FAIL for t in range(td.node_count))
    failing = tuple(t for t, status in enumerate(statuses) if status == FAIL)
    return FencedOrSharedReport(result.lct, statuses, failing)


def check_pairwise_and_common(
    g: Graph,
    ctx: BagContext,
    cycles: LongestCycleSet | None = None,
    families: Callable[[int], CycleFamilies] | None = None,
) -> CheckOutcome:
    """When all three 2-jump families at the triple are nonempty, verify that

    (i) some qualifying component contains a vertex of every pairwise
        intersection of the jump-family cycles, and
    (ii) a single vertex inside the triple lies on all of them.
    """
    if ctx.delta is None:
        raise ValueError("check needs a distinguished triple")
    if cycles is None:
        cycles = enumerate_longest_cycles(g)
    node = (families or node_families(g, ctx.td, cycles))(ctx.t)
    fams = node.by_triple[ctx.delta]
    if any(not fams.jump2[p] for p in fams.jump2):
        empty = [p for p in sorted(fams.jump2) if not fams.jump2[p]]
        return CheckOutcome(PREMISE_NOT_MET, f"empty 2-jump families at pairs {empty}")
    family = [c for p in sorted(fams.jump2) for c in fams.jump2[p]] + list(fams.jump3)
    inside = node.masks.inside[ctx.delta]
    blocks = [b for b in node.masks.components if b & inside]  # components in the triple's branch union
    pairs = list(combinations(family, 2))
    meets = [c.mask & d.mask for c, d in pairs]
    block = next((b for b in blocks if all(m & b for m in meets)), None)
    if block is None:
        c, d = next(p for p, m in zip(pairs, meets) if not any(m & b for b in blocks))
        return CheckOutcome(
            FAIL,
            "no qualifying component carries all pairwise intersections",
            (c.vertices, d.vertices),
        )
    witness_component = tuple(v for v in range(g.n) if block >> v & 1)
    common = inside
    for c in family:
        common &= c.mask
    if not common:
        return CheckOutcome(
            FAIL,
            "jump families share no vertex inside the triple",
            (witness_component,),
        )
    return CheckOutcome(PASS, witness=(witness_component, (common & -common).bit_length() - 1))  # least vertex


def check_escape_cycle(
    g: Graph,
    ctx: BagContext,
    cycles: LongestCycleSet | None = None,
    result: TransversalResult | None = None,
    families: Callable[[int], CycleFamilies] | None = None,
) -> CheckOutcome:
    """When lct > 1 and every pair of the triple has a 2-jumping longest cycle,
    some longest cycle meets the bag at most once, or is outside the triple,
    or is inside and meets it twice, or is inside, meets it three times and is
    fenced by it."""
    if ctx.delta is None:
        raise ValueError("check needs a distinguished triple")
    if cycles is None:
        cycles = enumerate_longest_cycles(g)
    if result is None:
        result = compute_lct(g, family=cycles)
    if result.lct <= 1:
        return CheckOutcome(PREMISE_NOT_MET, "all longest cycles share a vertex (lct = 1)")
    node = (families or node_families(g, ctx.td, cycles))(ctx.t)
    fams = node.by_triple[ctx.delta]
    if any(not fams.jump2[p] for p in fams.jump2):
        empty = [p for p in sorted(fams.jump2) if not fams.jump2[p]]
        return CheckOutcome(PREMISE_NOT_MET, f"empty 2-jump families at pairs {empty}")
    dmask = vertex_mask(ctx.delta)
    for c in cycles:
        if (c.mask & node.masks.bag).bit_count() <= 1:
            return CheckOutcome(PASS, "a longest cycle meets the bag at most once", (c.vertices,))
        count = (c.mask & dmask).bit_count()
        if count < 2:
            continue
        tag = node.masks.posture(c, ctx.delta)
        if tag is Posture.OUTSIDE:
            return CheckOutcome(PASS, "a longest cycle is outside the triple", (c.vertices,))
        if tag is Posture.INSIDE and count == 2:
            return CheckOutcome(PASS, "an inside longest cycle meets the triple twice", (c.vertices,))
        if tag is Posture.INSIDE and count == 3 and not separates(g, ctx.delta, c.vertex_set):
            return CheckOutcome(
                PASS, "an inside longest cycle meets the triple thrice, fenced by it", (c.vertices,)
            )
    return CheckOutcome(FAIL, "no longest cycle satisfies any of the stated shapes")


@dataclass(frozen=True)
class ConjectureFinding:
    """Outcome of scanning one graph for a two-vertex transversal.

    Findings are reported, never asserted.  A counterexample (lct >= 3) carries
    an exhaustive refutation: for every vertex pair, one longest cycle missing
    both, so the finding re-verifies without this tool.
    """

    status: str  # "consistent" | "COUNTEREXAMPLE"
    lct: int
    length: int
    cycle_count: int
    witness: tuple[int, ...]
    refutation: tuple[tuple[int, int, tuple[int, ...]], ...] = field(default=())


def conjecture_scan(
    g: Graph,
    cap: int = DEFAULT_ENUMERATION_CAP,
    max_steps: int | None = None,
    td: TreeDecomposition | None = None,
) -> ConjectureFinding:
    """Scan one 2-connected graph of treewidth <= 4 for a 2-vertex transversal.

    A given ``td`` certifies the bound: it must pass ``require_valid`` (free
    when a pass is remembered on it) and have width <= 4.  Without one the
    exact treewidth is computed."""
    if not is_biconnected(g):
        raise ValueError("conjecture scan requires a 2-connected graph")
    check_enumeration_cap(g.n, cap)  # before the 2^n treewidth program, which would only end in this refusal
    if td is None:
        width, _ = exact_treewidth(g)
    else:
        require_valid(g, td)
        width = td.width
    if width > 4:
        raise ValueError(f"conjecture scan requires treewidth <= 4, got a decomposition of width {width}")
    res = compute_lct(g, cap=cap, max_steps=max_steps)
    if res.lct <= 2:
        return ConjectureFinding("consistent", res.lct, res.family.length, len(res.family), res.witness)
    refutation = []
    for u, v in combinations(range(g.n), 2):
        missed = next(c for c in res.family if u not in c.vertex_set and v not in c.vertex_set)
        refutation.append((u, v, missed.vertices))
    return ConjectureFinding(
        "COUNTEREXAMPLE", res.lct, res.family.length, len(res.family), res.witness, tuple(refutation)
    )


def check_min_cycle_length_premise(
    two_connected: bool, tw_is_3: bool, lct: int, length: int
) -> CheckOutcome:
    """Longest cycles have length >= 5 whenever the headline premises hold.

    The premise (2-connected, treewidth 3, lct > 1) is provably empty, so on
    real corpora this counts vacuous passes rather than testing anything."""
    if not (two_connected and tw_is_3 and lct > 1):
        return CheckOutcome(VACUOUS_PASS, "premise empty: lct = 1 or wrong width/connectivity")
    return CheckOutcome(PASS if length >= 5 else FAIL, f"longest cycle length {length}")


def check_equivalent_two_cross_jump(
    g: Graph,
    td: TreeDecomposition,
    cycles: LongestCycleSet,
    lct: int,
    families: Callable[[int], CycleFamilies] | None = None,
) -> CheckOutcome:
    """When lct > 1 and all 2-crossing longest cycles at a bag meet it in the
    same pair, each of them must jump both triples containing that pair.

    Premise-gated like the length side condition; vacuous on every graph where
    all longest cycles intersect."""
    if lct <= 1:
        return CheckOutcome(VACUOUS_PASS, "premise empty: lct = 1")
    families = families or node_families(g, td, cycles)
    met_anywhere = False
    for t in range(td.node_count):
        fams = families(t)
        bag = set(td.bags[t])
        x2 = fams.x2
        if not x2:
            continue
        if not all(s_equivalent(x2[0], c, bag) for c in x2[1:]):
            continue
        met_anywhere = True
        pair = tuple(sorted(x2[0].vertex_set & bag))
        triples = [tuple(sorted(set(pair) | {w})) for w in td.bags[t] if w not in pair]
        for c in x2:
            for delta in triples:
                if c not in fams.by_triple[delta].jump2[pair]:
                    return CheckOutcome(
                        FAIL,
                        f"2-crossing cycle fails to jump triple {delta} at node {t}",
                        (c.vertices,),
                    )
    if not met_anywhere:
        return CheckOutcome(VACUOUS_PASS, "no bag with an equivalent 2-crossing family")
    return CheckOutcome(PASS)
