"""Position vocabulary for cycles and paths relative to a decomposition bag.

Bulk classification uses BagMasks, built once per node of a full width-3
decomposition by ``bag_masks(g, td, t)``: the bag, the components of G - bag
and each triple's inside set as bitmasks, so fencing and posture are mask
tests with no components or parts rebuilt per cycle.  The route-level
functions (``vertex_side``, ``path_side``, ``cycle_posture``) are the
reference the masks are tested against; BagContext, a node with an optional
distinguished triple, is only their argument type.  They read inside/outside
membership off the decomposition (bag membership along the union of branches
whose bags contain the triple), not graph reachability; on valid
decompositions the two coincide and the test suite asserts that coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .cycles import Cycle, PathSegment, parts
from .decomposition import TreeDecomposition, branch_union, side_masks
from .graph import Graph, component_masks, separates, vertex_mask

__all__ = [
    "Side",
    "Fencing",
    "Posture",
    "BagContext",
    "CyclePosture",
    "BagMasks",
    "k_intersect",
    "cross_or_fence",
    "s_equivalent",
    "vertex_side",
    "path_side",
    "cycle_posture",
    "bag_masks",
]


class Side(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


class Fencing(Enum):
    CROSSES = "crosses"
    FENCED = "fenced"


class Posture(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    JUMP = "jump"


@dataclass(frozen=True)
class BagContext:
    """A node of a full width-3 decomposition with its 4-vertex bag and an
    optional distinguished triple within the bag: the argument of the
    route-level reference functions."""

    td: TreeDecomposition
    t: int
    delta: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.td.is_full or self.td.width != 3:
            raise ValueError("bag contexts require a full width-3 decomposition")
        if not 0 <= self.t < self.td.node_count:
            raise ValueError(f"node {self.t} out of range")
        if self.delta is not None:
            d = tuple(sorted(set(self.delta)))
            if len(d) != 3 or not set(d) <= set(self.bag):
                raise ValueError(f"delta must be a triple inside the bag, got {self.delta}")
            object.__setattr__(self, "delta", d)

    @property
    def bag(self) -> tuple[int, ...]:
        return self.td.bags[self.t]

    @cached_property
    def inside_vertices(self) -> frozenset[int]:
        """Vertices of the triple plus everything in a bag of its branch union."""
        if self.delta is None:
            raise ValueError("context has no distinguished triple")
        bu = branch_union(self.td, self.t, self.delta)
        inside = set(self.delta)
        for x in bu.nodes:
            inside.update(self.td.bags[x])
        return frozenset(inside)


@dataclass(frozen=True)
class CyclePosture:
    tag: Posture
    intersect_count: int
    intersection: tuple[int, ...]

    def __post_init__(self):
        if self.tag is Posture.JUMP and self.intersect_count not in (2, 3):
            raise ValueError(f"a jumping cycle meets the triple 2 or 3 times, got {self.intersect_count}")


def k_intersect(x: Cycle | PathSegment, s: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Size and content of the intersection of a cycle/path with a vertex set."""
    inter = tuple(sorted(x.vertex_set & set(s)))
    return len(inter), inter


def cross_or_fence(g: Graph, x: Cycle | PathSegment, s: Iterable[int]) -> Fencing:
    """Exactly one of CROSSES (s separates the route's vertices) or FENCED."""
    return Fencing.CROSSES if separates(g, s, x.vertex_set) else Fencing.FENCED


def s_equivalent(x: Cycle | PathSegment, y: Cycle | PathSegment, s: Iterable[int]) -> bool:
    """Whether two routes meet the marker set in the same vertices."""
    ss = set(s)
    return (x.vertex_set & ss) == (y.vertex_set & ss)


def vertex_side(ctx: BagContext, v: int) -> Side:
    """Inside iff v belongs to the triple or appears in a bag of its branch union."""
    return Side.INSIDE if v in ctx.inside_vertices else Side.OUTSIDE


def path_side(ctx: BagContext, p: PathSegment) -> Side:
    """Side of a triple-part: inside iff every vertex is inside.

    Note the fourth bag vertex is always outside the triple (no branch bag can
    hold it), so parts routed through it are outside parts.
    """
    if ctx.delta is None:
        raise ValueError("context has no distinguished triple")
    dset = set(ctx.delta)
    a, b = p.ends
    if a == b or a not in dset or b not in dset or len(p.vertex_set & dset) != 2:
        raise ValueError("segment must meet the triple exactly at its two distinct endpoints")
    inside = ctx.inside_vertices
    return Side.INSIDE if all(v in inside for v in p.vertices) else Side.OUTSIDE


def cycle_posture(ctx: BagContext, c: Cycle) -> CyclePosture:
    """Inside / outside / jump classification of a cycle against the triple.

    Requires the cycle to meet the triple at least twice.  A cycle contained
    entirely in the bag is inside by convention: it lives in the empty branch,
    so the part sides are not consulted.
    """
    if ctx.delta is None:
        raise ValueError("context has no distinguished triple")
    count, inter = k_intersect(c, ctx.delta)
    if count < 2:
        raise ValueError(f"posture undefined: cycle meets the triple {count} < 2 times")
    if c.vertex_set <= set(ctx.bag):
        return CyclePosture(Posture.INSIDE, count, inter)
    sides = [path_side(ctx, p) for p in parts(c, ctx.delta)]
    if all(s is Side.INSIDE for s in sides):
        return CyclePosture(Posture.INSIDE, count, inter)
    if all(s is Side.OUTSIDE for s in sides):
        return CyclePosture(Posture.OUTSIDE, count, inter)
    return CyclePosture(Posture.JUMP, count, inter)


@dataclass(frozen=True)
class BagMasks:
    """Bitmask facts of one node of a full width-3 decomposition: the bag, the
    components of G - bag, and the inside set of each of the bag's triples.
    A cycle is read as a family member is held: its vertex tuple and its
    vertex mask."""

    bag: int
    components: tuple[int, ...]
    inside: dict[tuple[int, ...], int]

    def fenced(self, mask: int) -> bool:
        """``cross_or_fence`` against the bag is FENCED for the cycle with
        vertex mask ``mask``: its vertices off the bag meet at most one
        component of G - bag."""
        off = mask & ~self.bag
        return sum(1 for comp in self.components if comp & off) <= 1

    def posture(self, vertices: tuple[int, ...], mask: int, delta: tuple[int, ...]) -> Posture:
        """The tag of ``cycle_posture`` for the cycle ``vertices``, with vertex
        mask ``mask``, against a triple that it meets at least twice.  A part is
        inside iff it is an edge within the triple or meets the inside set: on a
        valid decomposition no component of G - bag straddles that set and the
        fourth bag vertex has no inside neighbour, so each part off the bag lies
        wholly on one side."""
        if not mask & ~self.bag:
            return Posture.INSIDE
        dmask = vertex_mask(delta)
        off = mask & ~dmask
        if not off & ~self.inside[delta]:
            return Posture.INSIDE
        if off & self.inside[delta] or any(
            (dmask >> u) & (dmask >> v) & 1 for u, v in zip(vertices, vertices[1:] + vertices[:1])
        ):
            return Posture.JUMP
        return Posture.OUTSIDE


def bag_masks(g: Graph, td: TreeDecomposition, t: int) -> BagMasks:
    """The mask facts of node t of the full width-3 decomposition td.  A full
    decomposition's adjacent bags share a triple, so each neighbour u adds its
    branch, ``side_masks(td)[t, u]``, to the inside set of one triple: the
    triple's ``branch_union`` as masks."""
    bag = td.masks[t]
    inside = {delta: vertex_mask(delta) for delta in combinations(td.bags[t], 3)}
    for u in td.node_adj[t]:
        inside[tuple(v for v in td.bags[u] if bag >> v & 1)] |= side_masks(td)[t, u]
    return BagMasks(bag, tuple(component_masks(g, ((1 << g.n) - 1) & ~bag)), inside)
