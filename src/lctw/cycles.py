"""Cycles and cycle segments: exact enumeration of all longest cycles, an
independent length oracle over tree decompositions, and the segment algebra
(parts between marked vertices, tails at a vertex, path/cycle concatenation).

Enumeration is complete by contract: every longest cycle is found by one
search pass that prunes only branches unable to close a cycle of the best
length so far, which never exceeds the longest.  Its three cuts are exact for
that reason:

* one orientation: a cycle is walked only in the direction whose last vertex
  lies above its second, so the path may close only on a root neighbour above
  the second vertex; the other direction closes the same cycle;
* reachability: the path can grow only by vertices reachable from its head
  through free ones, and must close on one of them;
* thin vertices: a reachable vertex other than the head on the closing path
  needs two neighbours among the reachable vertices and the root, so a thin
  one, with fewer, is left out; the path may leave out only as many reachable
  vertices as it has to spare over the best.  The thin set is computed once
  per free component, at any slack, and cuts all its siblings at once.

Two more savings change no branch's outcome, only how often it is worked out:

* shared free components: the vertices a successor can reach through free ones
  form its component among the free vertices, the same for every sibling in
  it, so siblings share one walk, and a component cut by length or by the
  closing targets drops all its siblings at once (the best only grows).  The
  cuts keep or drop every sibling in a component as they do the first, so past
  the second vertex, which fixes the closing targets, a sibling in a component
  met at the same best skips them;
* remembered states: under one root and second vertex, what a path closes
  beyond its head depends only on its vertex set, its head and the best, as in
  Held & Karp's subset-and-end-vertex states (J. SIAM 1962).  A state searched
  without raising the best is remembered, and reached again by another order
  of the same vertices at the same best, its closings are copied onto the new
  prefix in place of a second search.  The table is emptied for each second
  vertex and holds at most one entry per state reached under it.

The search runs on the graph relabelled in degree order: by ascending degree,
then ascending sum of the neighbours' degrees, then id.  So the early roots,
which the later ones never revisit, have few second vertices and closing
targets.  The order is chosen by measurement: on the seed-0 k = 3 random, k = 4
random and exhaustive n <= 7 corpora the search takes 15%, 3% and 10% fewer
steps in it than in smallest-last removal order.  The search keeps the
family's count and its distinct vertex sets, which is all that lct and the
vertex-set checks read; the cycles are mapped back to the graph's own labels
as canonical tuples, with their masks, only when a check first reads them.
The search emits only simple cycles, so a family member is a plain tuple and
mask; ``Cycle`` is the validated type for routes given from outside the
search.

Under each root the search is one flat loop over arrays indexed by the
path's length: the path, the untried successors, the last free component met
and the remembered-state key of each depth.  So a step pushes and pops no
list.  A try of a second vertex fixes the closing targets and empties the
table of remembered states.

Budgets, on steps and on the size of the family kept, fail loudly rather than
sampling, because downstream checks require the complete family.  The family
budget defaults to ``DEFAULT_MAX_CYCLES``.

The length oracle, ``longest_cycle_length_td``, is a dynamic program over a
nice refinement of a tree decomposition and shares nothing with the search.
Its state is ``(ends, closed)``: per bag vertex, free, interior, or a path end
naming the vertex at that path's other end; ``closed`` marks one finished
cycle.  One link step adds a path step between two bag vertices.  It is the
whole edge introduce, and a join links each right-side path into the left
state.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .decomposition import TreeDecomposition, require_valid
from .graph import Graph, _bits, _relabelled, neighbour_unions

__all__ = [
    "Cycle",
    "PathSegment",
    "LongestCycleSet",
    "EnumerationCapExceeded",
    "EnumerationBudgetExceeded",
    "check_enumeration_cap",
    "enumerate_longest_cycles",
    "longest_cycle_length_td",
    "parts",
    "tails",
    "join",
]

DEFAULT_ENUMERATION_CAP = 18
DEFAULT_MAX_CYCLES = 1_000_000  # about 200 MB of kept family at 198 bytes a cycle
_UNBOUNDED = 1 << 62  # the limit of an absent step budget: no search comes near it
TABLE_BITS = 9  # vertices per subset table of the enumeration: 2^9 entries each


class EnumerationCapExceeded(RuntimeError):
    pass


class EnumerationBudgetExceeded(RuntimeError):
    """The step budget ran out, or the family kept grew past its size budget;
    no partial result is returned."""


def _over_budget(what: str) -> EnumerationBudgetExceeded:
    return EnumerationBudgetExceeded(f"enumeration {what}; no partial results")


def check_enumeration_cap(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Refuse n vertices as enumeration would; callers run this before costlier
    steps (exact treewidth) that would only end in the same refusal."""
    if n > cap:
        raise EnumerationCapExceeded(f"enumeration needs n <= {cap}, got {n}")


def _canonical(seq: tuple[int, ...]) -> tuple[int, ...]:
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if rot[1] < rot[-1]:
        return rot
    return rot[:1] + rot[:0:-1]


@dataclass(frozen=True, order=True)
class Cycle:
    """A simple cycle, stored canonically: the rotation starting at the minimum
    vertex whose second element is the smaller of that vertex's two neighbors."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.vertices)
        if len(seq) < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {len(seq)}")
        if len(set(seq)) != len(seq):
            raise ValueError("cycle vertices must be pairwise distinct")
        object.__setattr__(self, "vertices", _canonical(seq))

    @classmethod
    def from_sequence(cls, g: Graph, seq) -> "Cycle":
        seq = tuple(seq)
        for a, b in zip(seq, seq[1:] + seq[:1]):
            if not g.has_edge(a, b):
                raise ValueError(f"({a},{b}) is not an edge of the host graph")
        return cls(seq)

    def __len__(self):
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class PathSegment:
    """A simple path given by its vertex sequence; a single vertex is a
    length-zero segment (it arises as a tail at an endpoint)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.vertices)
        if not seq:
            raise ValueError("a path segment needs at least one vertex")
        if len(set(seq)) != len(seq):
            raise ValueError("path vertices must be pairwise distinct")
        object.__setattr__(self, "vertices", seq)

    @classmethod
    def from_sequence(cls, g: Graph, seq) -> "PathSegment":
        seq = tuple(seq)
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"({a},{b}) is not an edge of the host graph")
        return cls(seq)

    def __len__(self):
        return len(self.vertices) - 1  # edge count

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) if a < b else (b, a) for a, b in zip(self.vertices, self.vertices[1:])
        )


class LongestCycleSet:
    """The complete family of longest cycles of one graph.

    ``length``, the count ``len(family)`` and ``vertex_sets``, the sorted
    distinct vertex masks of the cycles, are set when the family is made.
    ``cycles``, each cycle's canonical vertex tuple, sorted, and ``masks``, its
    vertex mask at the same index, are built on first read; the search's own
    paths are dropped then.  Iterating the family yields the (tuple, mask)
    pairs.  A question about vertex sets only, such as a transversal or a
    pairwise meet, reads ``vertex_sets``: a Hamiltonian family has one,
    however many cycles it holds.

    length == 0 with no cycles iff the graph is acyclic.  ``steps`` counts the
    successors the search pass tried on the relabelled graph, the quantity a
    ``max_steps`` budget bounds.  Siblings dropped with their free component
    or by the thin-vertex cut, and the subtrees of remembered states copied in
    place of a search, take no steps, so one step stands for more work than a
    try of its own.
    """

    __slots__ = ("length", "steps", "vertex_sets", "_count", "_cycles", "_masks", "_paths", "_order")

    def __init__(self, length: int, cycles, masks, steps: int = 0):
        self.length, self.steps = length, steps
        self._cycles, self._masks = tuple(cycles), tuple(masks)
        self._count = len(self._cycles)
        self.vertex_sets = tuple(sorted(set(self._masks)))

    @classmethod
    def _from_search(cls, length, steps, vertex_sets, paths, order) -> "LongestCycleSet":
        """The family of the search's ``paths``, over its relabelled vertices:
        vertex i of a path is ``order[i]`` of the graph."""
        family = cls.__new__(cls)
        family.length, family.steps, family.vertex_sets = length, steps, vertex_sets
        family._count, family._cycles, family._paths, family._order = len(paths), None, paths, order
        return family

    def _built(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        if self._cycles is None:  # map the paths back to the graph's labels, once
            order = self._order
            self._cycles = tuple(sorted(_canonical(tuple(map(order.__getitem__, p))) for p in self._paths))
            bits = [1 << v for v in range(len(order))]
            self._masks = tuple(sum(map(bits.__getitem__, c)) for c in self._cycles)
            self._paths = self._order = None
        return self._cycles, self._masks

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return self._built()[0]

    @property
    def masks(self) -> tuple[int, ...]:
        return self._built()[1]

    def __iter__(self):
        return zip(*self._built())

    def __len__(self):
        return self._count


def enumerate_longest_cycles(
    g: Graph,
    cap: int = DEFAULT_ENUMERATION_CAP,
    max_steps: int | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> LongestCycleSet:
    """All distinct longest cycles of g, canonically deduplicated and sorted.

    The search runs on g relabelled along ``_degree_order``: vertex i of the
    search is ``order[i]``, so root 0 has least degree, and vertices of equal
    degree come by the sum of their neighbours' degrees, then by id.
    ``steps``, and the ``max_steps`` budget, count successor tries of that
    relabelled search.  The search keeps the distinct vertex masks of the
    cycles of the best length so far: a closing adds its mask, a longer cycle
    restarts them with the family, and a copied remembered slice adds none,
    since a state's key holds its vertex set.  Each distinct mask is mapped
    back to g's labels once, into ``vertex_sets``; the cycles are mapped back,
    canonicalised and sorted as vertex tuples with their masks only when
    ``cycles``, ``masks`` or iteration first reads them.
    ``max_cycles`` bounds the family kept while searching, the cycles of the
    best length so far: it is checked before a cycle is kept or remembered
    closings are copied, never per step, so the kept family never exceeds it.
    A read of the tuples copies the family once more.  Either budget, once
    exceeded, raises ``EnumerationBudgetExceeded``.

    Each root's search is one flat loop that keeps its state in arrays
    indexed by d, the number of path vertices: the path itself, each head's
    untried successors, the last free component met among them, and the
    head's remembered-state key.  At d = 1 the loop tries second vertices:
    each fixes ``target``, empties ``searched`` and forgets the last
    component met, so it runs the component, length and thin cuts itself.  A
    try of a second vertex and a try of a later successor are both one step.

    One backtracking pass over paths rooted at each cycle's minimum vertex keeps
    the best length closed so far and the cycles of that length, dropping them
    when a longer cycle closes.  Each cycle is walked in one direction only: once
    the second vertex is fixed, the path may close only on a root neighbour
    above it (``target``), so a root needs two neighbours above it and a second
    vertex needs a nonempty ``target``.  A step to a new head is cut when the
    vertices reachable from it through free ones cannot bring the path up to
    the best, or include no ``target`` vertex; or when the path cannot leave
    out all the thin ones among them other than the head.  A vertex is thin
    when it has fewer than two neighbours among the reachable vertices and the
    root, so it cannot be on the closing path past the head; ``room``, the
    number of reachable vertices beyond those the path needs to reach the
    best, bounds how many it may leave out.  This holds at any ``room``, and at
    ``room`` 0 it is the tight case: every reachable vertex but the head must
    be interior to the closing path.  Each cut removes only branches that close
    no cycle of at least the best length, and the best never exceeds the
    longest length L, so no longest cycle is lost and the family is complete.
    Roots stop once fewer than best vertices remain from the root up.

    Siblings share their reachable set: it is the component of the free
    vertices, those above the root and off the path, that holds the
    successor, so each path vertex keeps the last component met, and a
    sibling inside it skips the walk.  A component cut by length or by
    ``target``, or with two thin vertices more than ``room``, drops all its
    untried siblings at once: no vertex in it closes a cycle of the best
    length, the best only grows, and later second vertices have smaller
    ``target`` sets.  With one thin vertex more than ``room`` only its thin
    siblings are kept, since a thin head leaves one fewer to leave out.  So
    the siblings left in a component pass the cuts as the first one met did,
    while the best and ``target`` stay: past the second vertex, where
    ``target`` is fixed, they skip the cuts, and a longer cycle forgets every
    kept component.  A second vertex runs them afresh, as each has its own
    ``target``.  The thin set is computed only for a component that passes
    the length and ``target`` cuts.

    Under one second vertex the subtree of a path depends only on its vertex
    set, its head and the best.  A subtree that ends with
    the best unchanged left its closings as one slice of the found list, and
    the set and head key that slice in ``searched``; the same state pushed
    again at the same best appends the slice's suffixes after the new prefix
    and skips the subtree.  ``searched`` is emptied for each second vertex (its
    ``target`` differs), an entry is stale once the best grows (the found list
    restarts), and paths of at most four vertices need no key, since the root
    and the second vertex are fixed.  So the table holds at most one entry per
    state reached under one second vertex, and a ``max_steps`` budget admits
    more work per step than it would without the table.

    Reachability and the thin set read per-half subset tables
    (``_subset_tables``): one breadth-first level is two lookups.  A half wider
    than ``TABLE_BITS`` (n > 18) is split again, so the tables hold
    O(n 2^TABLE_BITS) entries whatever the cap.
    """
    check_enumeration_cap(g.n, cap)
    n = g.n
    order = _degree_order(g.nbr_mask)
    nbr = tuple(_relabelled(g.nbr_mask, order))  # vertex i of the search is order[i]
    h = n // 2
    low_half = (1 << h) - 1
    (ones0, twos0), (ones1, twos1) = _subset_tables(nbr[:h]), _subset_tables(nbr[h:])
    shift = n.bit_length()  # a state's key: the vertex mask below its head, then the head
    limit = _UNBOUNDED if max_steps is None else max_steps
    best = 0
    found: list[tuple[int, ...]] = []
    sets: set[int] = set()  # the distinct vertex masks of found
    steps = 0
    # Per-depth arrays, indexed by d, the number of path vertices: path[d - 1]
    # is the head.  Its untried successors and the last free component met
    # among them are ``rest`` and ``comp`` while it is the head, and
    # untried[d] and comps[d] while a longer path is searched; pushed[d] holds
    # its key, with best and len(found) at its push.
    path = [0] * (n + 1)
    untried = [0] * (n + 1)
    comps = [0] * (n + 1)
    pushed: list = [None] * (n + 1)
    for s in range(n):
        if n - s < best:
            break  # a cycle rooted at s uses only vertices >= s
        s_bit = 1 << s
        allowed = ((1 << n) - 1) & ~((s_bit << 1) - 1)  # vertices > s
        rest = nbr[s] & allowed  # the untried second vertices
        if rest.bit_count() < 2:
            continue  # no second vertex with a last vertex above it
        path[0] = s
        used = s_bit
        comp = 0
        d = 1
        while True:
            if not rest:  # the head's successors are all tried: back up
                if d > 4:  # the head's state is keyed
                    key, pushed_best, first = pushed[d]
                    if pushed_best == best:
                        searched[key] = (best, first, len(found))
                elif d == 1:
                    break
                d -= 1
                used ^= 1 << path[d]
                rest, comp = untried[d], comps[d]
                continue
            wb = rest & -rest
            rest ^= wb
            steps += 1
            if steps > limit:
                raise _over_budget(f"exceeded {max_steps} steps")
            w = wb.bit_length() - 1
            if d == 1:  # a second vertex fixes the closing targets, so it runs the cuts itself
                target = nbr[s] & -(wb << 1)  # root neighbours above wb: the possible last vertices
                if not target:
                    continue
                searched: dict[int, tuple[int, int, int]] = {}  # key -> (best, first, last) of found
                comp = 0
            elif wb & target:
                if d >= best:  # a longer cycle closes; the kept components passed the cuts at a smaller best
                    best = d + 1
                    found, sets = [], set()
                    comps = [0] * (n + 1)
                    comp = 0
                if d + 1 == best:
                    if len(found) >= max_cycles:
                        raise _over_budget(f"kept more than {max_cycles} longest cycles")
                    found.append((*path[:d], w))
                    sets.add(used | wb)
            if not wb & comp:
                # The vertices reachable from wb through free ones, which
                # bound the extension.  The cuts below keep or drop each
                # sibling in this component as they do wb, so one that is
                # still untried at the same best and ``target`` skips them.
                free = allowed & ~used
                comp = wb | nbr[w] & free
                while True:
                    grown = comp | (ones0[comp & low_half] | ones1[comp >> h]) & free
                    if grown == comp:
                        break
                    comp = grown
                room = d + comp.bit_count() - best
                if room < 0 or not comp & target:
                    rest &= ~comp  # too few vertices left, or no way back to the root
                    continue
                # A thin vertex, one with fewer than two neighbours in the
                # component and the root, cannot be on the closing path
                # unless it is the head, and the path may leave out at
                # most room vertices of the component.
                lo, hi = (comp | s_bit) & low_half, (comp | s_bit) >> h
                thin = comp & ~(twos0[lo] | twos1[hi] | ones0[lo] & ones1[hi])
                over = thin.bit_count() - room
                if over > 0:
                    rest &= thin | ~comp if over == 1 else ~comp
                    if over > 1 or not wb & thin:
                        continue
            if d > 3:  # a state of at most four vertices has one path to it
                key = used << shift | w
                hit = searched.get(key)
                if hit is not None and hit[0] == best:
                    if len(found) + hit[2] - hit[1] > max_cycles:
                        raise _over_budget(f"kept more than {max_cycles} longest cycles")
                    prefix = (*path[:d], w)  # a copy keeps its source's vertex set, already in sets
                    found += [prefix + c[d + 1 :] for c in found[hit[1] : hit[2]]]
                    continue
                pushed[d + 1] = key, best, len(found)
            untried[d], comps[d] = rest, comp
            path[d] = w
            used |= wb
            d += 1
            rest = nbr[w] & allowed & ~used
            comp = 0
    labels = [1 << v for v in order]  # labels[i]: the bit of search vertex i in g
    vertex_sets = sorted(sum(b for i, b in enumerate(labels) if m >> i & 1) for m in sets)
    return LongestCycleSet._from_search(best, steps, tuple(vertex_sets), found, order)


def _degree_order(masks: tuple[int, ...]) -> list[int]:
    """The vertices of the graph with neighbour masks ``masks`` by ascending
    degree, then ascending sum of their neighbours' degrees, then id."""
    degree = list(map(int.bit_count, masks))
    nbr_degrees = []
    for m in masks:
        total = 0
        while m:
            low = m & -m
            m ^= low
            total += degree[low.bit_length() - 1]
        nbr_degrees.append(total)
    return sorted(range(len(masks)), key=lambda v: (degree[v], nbr_degrees[v]))  # stable: ids break ties


def _subset_tables(masks: tuple[int, ...]) -> tuple:
    """Tables over every subset X of len(masks) consecutive vertices, indexed by
    X's bits relative to the first: ones[X] is the union of the neighbourhoods
    ``masks`` of X, twos[X] the vertices with at least two neighbours in X.
    Over more than ``TABLE_BITS`` vertices both are ``_JoinedTable``s of the
    two halves' tables, so they hold O(len(masks) 2^TABLE_BITS) entries."""
    if len(masks) > TABLE_BITS:
        h = len(masks) // 2
        halves = _subset_tables(masks[:h]), _subset_tables(masks[h:])
        return _JoinedTable(h, halves, False), _JoinedTable(h, halves, True)
    ones, twos = neighbour_unions(masks), [0]
    for m in masks:
        twos += [t | o & m for o, t in zip(ones, twos)]  # zip stops at the subsets before m
    return ones, twos


class _JoinedTable:
    """``ones`` or ``twos`` over a subset, read from the tables of its low
    ``h`` vertices and of the rest, as the enumeration reads its two halves."""

    __slots__ = ("h", "low", "halves", "twos")

    def __init__(self, h: int, halves, twos: bool):
        self.h, self.low, self.halves, self.twos = h, (1 << h) - 1, halves, twos

    def __getitem__(self, x: int) -> int:
        (ones0, twos0), (ones1, twos1) = self.halves
        lo, hi = x & self.low, x >> self.h
        if self.twos:
            return twos0[lo] | twos1[hi] | ones0[lo] & ones1[hi]
        return ones0[lo] | ones1[hi]


def parts(c: Cycle, s) -> list[PathSegment]:
    """Segments of a cycle between consecutive marked vertices.

    Each segment starts and ends in s with no marked vertex inside;
    concatenating all segments in cyclic order reconstructs the cycle, and the
    segment count equals the number of marked vertices on the cycle.
    """
    marked = set(s) & set(c.vertices)
    if len(marked) < 2:
        raise ValueError(f"need at least 2 marked vertices on the cycle, got {len(marked)}")
    seq = c.vertices
    k = len(seq)
    idxs = [i for i, v in enumerate(seq) if v in marked]
    out = []
    for j, a in enumerate(idxs):
        b = idxs[(j + 1) % len(idxs)] + (k if j + 1 == len(idxs) else 0)
        out.append(PathSegment(tuple(seq[i % k] for i in range(a, b + 1))))
    return out


def tails(p: PathSegment, v: int) -> tuple[PathSegment, PathSegment]:
    """Split a path at v into the two subpaths meeting only at v."""
    if v not in p.vertices:
        raise ValueError(f"vertex {v} is not on the path")
    i = p.vertices.index(v)
    return PathSegment(p.vertices[: i + 1]), PathSegment(p.vertices[i:])


def join(p: PathSegment, q: PathSegment) -> PathSegment | Cycle | None:
    """Union of two segments if it forms a path or a cycle, else None.

    The union is taken as a graph (vertex union, edge union); None marks the
    'undefined' outcome when the union is neither a path nor a cycle.
    """
    edges = set(p.edge_set()) | set(q.edge_set())
    verts = set(p.vertices) | set(q.vertices)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    if any(len(nb) > 2 for nb in adj.values()):
        return None
    start = min(verts)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(verts):
        return None
    degree1 = sorted(v for v in verts if len(adj[v]) == 1)
    if not degree1:
        if len(verts) == 1:
            return PathSegment((start,))
        walk = [start]
        prev = None
        while True:
            nxt = [w for w in adj[walk[-1]] if w != prev]
            prev = walk[-1]
            if nxt[0] == start:
                break
            walk.append(nxt[0])
        return Cycle(tuple(walk))
    if len(degree1) == 2:
        walk = [degree1[0]]
        prev = None
        while len(walk) < len(verts):
            nxt = [w for w in adj[walk[-1]] if w != prev]
            prev = walk[-1]
            walk.append(nxt[0])
        return PathSegment(tuple(walk))
    return None


# --- Longest-cycle length via dynamic programming over a nice refinement ---

FREE, INNER = -1, -2  # ``ends`` entries of a vertex of degree 0 and of degree 2


def longest_cycle_length_td(g: Graph, td: TreeDecomposition) -> int:
    """Length of a longest cycle computed over a tree decomposition.

    Independent of the backtracking enumerator.  A state is ``(ends, closed)``
    with one ``ends`` entry per bag vertex: ``FREE`` (degree 0), ``INNER``
    (degree 2), or, for a path end, the vertex at that path's other end;
    ``closed`` marks one finished cycle.  Each state keeps the most edges of
    any partial solution it describes.  One link step (``_link``) adds a path
    step between two bag vertices; it is the whole edge introduce, and a join
    links each right-side path into the left state.  Transitions follow a nice
    refinement with explicit edge-introduce nodes, so time is exponential only
    in the decomposition width.  td must pass ``require_valid``.
    """
    require_valid(g, td)
    stack: list[dict] = []
    for kind, payload, bag in _nice_ops(g, td):
        if kind == "leaf":
            stack.append({((), False): 0})
        elif kind == "join":
            right = stack.pop()
            stack.append(_dp_join(stack.pop(), right, bag))
        else:
            stack.append(_UNARY[kind](stack.pop(), payload, bag))
    return stack.pop().get(((), True), 0)


def _nice_ops(g: Graph, td: TreeDecomposition):
    """Post-order op list (kind, payload, bag) for the nice refinement rooted
    at node 0; every bag is a sorted tuple."""

    def moves(src, dst):  # forget src - dst, then introduce dst - src
        cur = set(src)
        out = []
        for v in sorted(cur - set(dst)):
            cur.discard(v)
            out.append(("forget", v, tuple(sorted(cur))))
        for v in sorted(set(dst) - cur):
            cur.add(v)
            out.append(("intro", v, tuple(sorted(cur))))
        return out

    order = [0]
    parent = {0: None}
    for t in order:  # breadth-first, so reversed order builds children first
        for w in _bits(td.node_nbr_mask[t]):
            if w != parent[t]:
                parent[w] = t
                order.append(w)
    built: dict[int, list] = {}
    for t in reversed(order):
        bag = td.bags[t]
        subs = [built.pop(c) + moves(td.bags[c], bag) for c in _bits(td.node_nbr_mask[t]) if c != parent[t]]
        ops = subs[0] if subs else [("leaf", None, ())] + moves((), bag)
        for sub in subs[1:]:
            ops = ops + sub + [("join", None, bag)]
        built[t] = ops
    ops = built[0] + moves(td.bags[0], ())

    # Place each edge once, right after the first post-order op whose bag has
    # both ends; a valid decomposition leaves none unplaced.  unplaced[u]
    # holds the neighbours of u whose edge to it is still unplaced.
    unplaced = list(g.nbr_mask)
    placed = []
    for op in ops:
        placed.append(op)
        for u, v in combinations(op[2], 2):
            if unplaced[u] >> v & 1:
                unplaced[u] ^= 1 << v
                unplaced[v] ^= 1 << u
                placed.append(("edge", (u, v), op[2]))
    return placed


def _put(out: dict, state, length: int) -> None:
    if state is not None and out.get(state, -1) < length:
        out[state] = length


def _link(state, bag, u, v):
    """The state after a path step between bag vertices u and v, or None when
    the step is impossible: at an interior vertex, on a closed state, or
    closing a cycle while another path is open."""
    ends, closed = state
    pu, pv = bag.index(u), bag.index(v)
    a, b = ends[pu], ends[pv]
    if closed or a == INNER or b == INNER:
        return None
    ends = list(ends)
    ends[pu] = ends[pv] = INNER
    if a == v:  # u and v end one path: the step closes it
        return None if any(e >= 0 for e in ends) else (tuple(ends), True)
    # The joined path runs from x to y; a free u or v is one of them.
    x, y = (u if a == FREE else a), (v if b == FREE else b)
    ends[bag.index(x)], ends[bag.index(y)] = y, x
    return tuple(ends), False


def _dp_intro(states, v, bag):
    pos = bag.index(v)
    return {
        (ends[:pos] + (FREE,) + ends[pos:], closed): length
        for (ends, closed), length in states.items()
    }


def _dp_forget(states, v, bag):
    pos = bisect_left(bag, v)  # bag here is the post-forget bag
    out: dict = {}
    for (ends, closed), length in states.items():
        if ends[pos] < 0:  # a path end can never be completed once forgotten
            _put(out, (ends[:pos] + ends[pos + 1:], closed), length)
    return out


def _dp_edge(states, uv, bag):
    out = dict(states)
    for state, length in states.items():
        _put(out, _link(state, bag, *uv), length + 1)
    return out


def _dp_join(left, right, bag):
    out: dict = {}
    for state2, l2 in right.items():
        ends2, closed2 = state2
        inner = [i for i, e in enumerate(ends2) if e == INNER]
        paths = [(v, w) for v, w in zip(bag, ends2) if w > v]  # each path once
        for state1, l1 in left.items():
            ends1, closed1 = state1
            if closed1 or closed2:  # a closed side joins only an empty side
                if 0 in (l1, l2):
                    _put(out, state1 if closed1 else state2, l1 + l2)
                continue
            if any(ends1[i] != FREE for i in inner):
                continue
            ends = list(ends1)
            for i in inner:
                ends[i] = INNER
            state = (tuple(ends), False)
            for v, w in paths:
                state = _link(state, bag, v, w)
                if state is None:
                    break
            _put(out, state, l1 + l2)
    return out


_UNARY = {"intro": _dp_intro, "forget": _dp_forget, "edge": _dp_edge}
