"""Position vocabulary for cycles and paths relative to a decomposition bag.

The route-level functions (``vertex_side``, ``path_side``, ``cycle_posture``,
``cross_or_fence``) are the reference: bulk classification is done on masks
by ``transversal.CycleFamilies``, one per node of a full width-3
decomposition, and tested against these functions.  BagContext, a node with
an optional distinguished triple, is only their argument type.  They read
inside/outside membership off the decomposition (bag membership along the
union of branches whose bags contain the triple), not graph reachability; on
valid decompositions the two coincide and the test suite asserts that
coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .cycles import Cycle, PathSegment, parts
from .decomposition import TreeDecomposition, branch_union
from .graph import Graph, separates

__all__ = [
    "Side",
    "Fencing",
    "Posture",
    "BagContext",
    "CyclePosture",
    "k_intersect",
    "cross_or_fence",
    "s_equivalent",
    "vertex_side",
    "path_side",
    "cycle_posture",
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
