"""Tree decompositions: validation, exact treewidth, full decompositions, branches.

Exact treewidth is the dynamic program over elimination orders (states are
sets of already-eliminated vertices), run as a memoised search bounded from
above by the min-degree elimination width and started from all vertices but
0, since any vertex ends some optimal elimination order: sparse graphs visit
few of the 2^n states, dense ones up to all of them, so n is capped.  Full
decompositions (every bag of size k+1, adjacent bags sharing exactly k
vertices) are produced constructively from any valid decomposition: contract
subset bags (a heap of the nodes a merge or a padding may have made
contractible), pad undersized bags from neighbours, then splice one-swap
chains across edges whose intersection is still too small.  The construction
works on two lists indexed by node id, one of bag masks and one of masks of
neighbouring node ids; a node merged away is marked dead in a third list
rather than removed, so ids stay put until the splice numbers the live nodes
in ascending order.  Its loops walk masks lowest bit first, inline.

A decomposition holds its tree once, as node neighbour masks, and its bags
in the form it was made in: bag tuples (``TreeDecomposition(bags, edges)``)
or bag masks (``_from_bag_masks``: a task blob, or one built here).  That
form alone decides how ``validate`` and ``is_full`` read the bags; the other
form is derived on first read.  ``validate`` is the one validator: it reads
one mask per bag, passes at once when tree shape, vertex and edge cover and
a count of bag sizes against tree-edge intersections show a decomposition,
and else lists each violation off the same masks.  One built here, exact or
full, is valid by construction and marked valid for its graph, so
``require_valid`` checks only decompositions from outside.  Tree walks are
``_spread`` over the node masks, but for the BFS order of ``_rooted`` and the
set-based reference's ``_reach``.  Branch masks (``side_masks``, valid
decompositions only) are built on first read and kept.  All tie-breaking is
by ascending vertex/node id, so output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable

from .graph import Graph, _bits, _spread, neighbour_unions, separates, vertex_mask

__all__ = [
    "TreeDecomposition",
    "Branch",
    "BranchUnion",
    "DecompositionError",
    "TreewidthCapExceeded",
    "validate",
    "require_valid",
    "check_treewidth_cap",
    "exact_treewidth",
    "has_treewidth_at_most_2",
    "full_tree_decomposition",
    "branch_at",
    "branch_of_vertex",
    "branch_union",
    "branch_of_route",
    "side_masks",
    "check_separator_property",
]

DEFAULT_TREEWIDTH_CAP = 24


class DecompositionError(ValueError):
    pass


class TreewidthCapExceeded(RuntimeError):
    """Exact treewidth refused: n exceeds the configured cap.

    Signals that a larger budget is needed; heuristic fallbacks are out of scope.
    """


class TreeDecomposition:
    """A tree of bags over a host graph's vertices.

    Nodes are ids 0..node_count-1.  The tree is stored once, as node masks:
    bit u of ``node_nbr_mask[t]`` is set iff tu is a tree edge, listed as a
    (low, high) pair in ``tree_edges``; ``node_adj`` derives neighbour tuples
    from the masks on each read, for callers outside the package.  The
    constructor keeps each bag as ``tuple(sorted(set(bag)))`` and builds
    ``masks`` on first read; one made from bag masks (``_from_masks``) builds
    ``bags`` on first read.  ``width`` is max bag size minus one.  ``is_full``
    is derived on first read and kept: every bag has width+1 vertices and
    every tree edge shares exactly width vertices.
    ``valid_for`` is the graph this decomposition last passed ``require_valid``
    for, or was built for by this module, or None; ``sides`` is its
    ``side_masks`` table once read, or None, and only a decomposition with
    ``valid_for`` set has one.
    """

    __slots__ = ("_bags", "tree_edges", "node_nbr_mask", "width", "valid_for", "sides", "_masks", "_is_full", "_from_masks")

    def __init__(self, bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]]):
        self._bags = bags = tuple(tuple(sorted(set(b))) for b in bags)
        _set_tree(self, len(bags), tree_edges)
        self.width = max(map(len, bags)) - 1
        self.valid_for = self.sides = self._masks = self._is_full = None
        self._from_masks = False

    @property
    def bags(self) -> tuple[tuple[int, ...], ...]:
        if self._bags is None:
            self._bags = tuple(tuple(_bits(m)) for m in self._masks)
        return self._bags

    @property
    def node_adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_bits(m)) for m in self.node_nbr_mask)

    @property
    def is_full(self) -> bool:
        """Read off the bag masks' bit counts when td was made from bag masks,
        else off its bag tuples as sets."""
        if self._is_full is None:
            k = self.width
            if self._from_masks:
                masks = self._masks
                self._is_full = all(m.bit_count() == k + 1 for m in masks) and all(
                    (masks[a] & masks[b]).bit_count() == k for a, b in self.tree_edges
                )
            else:
                bags = self.bags
                self._is_full = all(len(b) == k + 1 for b in bags) and all(
                    len(set(bags[a]).intersection(bags[b])) == k for a, b in self.tree_edges
                )
        return self._is_full

    @property
    def masks(self) -> tuple[int, ...]:
        """One vertex mask per bag, built on first read: a bag not yet validated
        may name a vertex no mask can hold (negative, or far beyond the graph)."""
        if self._masks is None:
            self._masks = tuple(map(vertex_mask, self.bags))
        return self._masks

    @property
    def node_count(self) -> int:
        return len(self.node_nbr_mask)

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.node_count}, width={self.width}, full={self.is_full})"


def _set_tree(td: TreeDecomposition, nodes: int, edges: Iterable[tuple[int, int]]) -> None:
    """Set the tree of td on nodes 0..nodes-1, its ``tree_edges`` and
    ``node_nbr_mask``, from the node pairs ``edges``: no nodes, or a pair of
    ids that are not distinct exact ints (so no bool or float) in range, is
    refused."""
    if not nodes:
        raise DecompositionError("a tree decomposition needs at least one node")
    nbr = [0] * nodes
    norm = set()
    for a, b in edges:
        if not (type(a) is type(b) is int and a != b and 0 <= a < nodes and 0 <= b < nodes):
            raise DecompositionError(f"bad tree edge ({a},{b})")
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        norm.add((a, b) if a < b else (b, a))
    td.tree_edges = frozenset(norm)
    td.node_nbr_mask = tuple(nbr)


def _from_bag_masks(masks: Iterable[int], edges: Iterable[tuple[int, int]]) -> TreeDecomposition:
    """The decomposition with bag masks ``masks`` and tree edges ``edges``,
    valid for no graph yet: its width is read off the masks' bit counts and
    its bag tuples only on first read of ``bags``.  No masks, or a tree edge
    the constructor refuses, is refused with the constructor's message."""
    td = TreeDecomposition.__new__(TreeDecomposition)
    td._masks = masks = tuple(masks)
    _set_tree(td, len(masks), edges)
    td.width = max(map(int.bit_count, masks)) - 1
    td._bags = td._is_full = td.valid_for = td.sides = None
    td._from_masks = True
    return td


def _built(g: Graph, masks: list[int], edges: list[tuple[int, int]]) -> TreeDecomposition:
    """The decomposition with bag masks ``masks`` and tree edges ``edges`` that
    a construction of this module built for g, marked valid for g without
    running ``validate``.  It is full when its bags are all of one size: both
    constructions then make adjacent bags of size k + 1 share k vertices (an
    exact one ends in a singleton bag, so has one bag size only at width 0)."""
    td = _from_bag_masks(masks, edges)
    td._is_full = min(map(int.bit_count, td._masks)) == td.width + 1
    td.valid_for = g
    return td


def validate(g: Graph, td: TreeDecomposition) -> list[str]:
    """Check the three decomposition conditions plus tree shape.

    Returns a list of violation strings (empty means valid); each violation
    names the failed condition and a witness.  Violations are data, not errors.
    This is the unmemoised oracle: it checks afresh on every call.  Consumers
    that need a valid decomposition call ``require_valid`` instead.

    One mask per bag is read in the form td was made in: ``_masks``, or the
    bag tuples, where only an exact int in range names a vertex (not ``1.0``
    or ``True``).  td passes at once on tree shape, no out-of-range entry,
    every vertex u in a bag and no neighbour of u off ``cover[u]``, the union
    of the bags holding u, and sum |B_t| - sum over tree edges |B_a & B_b| =
    n: each covered vertex adds the number of components of the forest its
    holding nodes induce, 1 iff they are connected.  Else each fault is listed.
    """
    out = []
    nodes, node_nbr, n = td.node_count, td.node_nbr_mask, g.n
    if len(td.tree_edges) != nodes - 1:
        out.append(f"tree-shape: {nodes} nodes need {nodes - 1} edges, found {len(td.tree_edges)}")
    reached = _spread(node_nbr, 1, (1 << nodes) - 1).bit_count()
    if reached != nodes:
        out.append(f"tree-shape: tree is disconnected (reached {reached} of {nodes} nodes)")
    if td._from_masks:
        masks = td._masks
        if max(masks) >> n:
            out += [f"bag-range: node {t} holds out-of-range vertex {v}" for t, m in enumerate(masks) for v in _bits(m >> n << n)]
            masks = [m & (1 << n) - 1 for m in masks]
    else:
        masks = [0] * nodes
        for t, bag in enumerate(td.bags):
            for v in bag:
                if type(v) is int and 0 <= v < n:
                    masks[t] |= 1 << v
                else:
                    out.append(f"bag-range: node {t} holds out-of-range vertex {v}")
    cover = [0] * n
    count = 0  # sum |B_t|, less sum |B_a & B_b| once the edges are read
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            cover[low.bit_length() - 1] |= m
            count += 1
    for a, b in td.tree_edges:
        count -= (masks[a] & masks[b]).bit_count()
    if not out and count == n and 0 not in cover and not any(nbr & ~c for nbr, c in zip(g.nbr_mask, cover)):
        return []
    out += [f"vertex-cover: vertex {v} is in no bag" for v, c in enumerate(cover) if not c]
    out += [
        f"edge-cover: edge ({u},{v}) is in no bag"
        for u, (nbr, c) in enumerate(zip(g.nbr_mask, cover))
        for v in _bits(nbr >> u + 1 << u + 1 & ~c)
    ]
    out += [
        f"subtree-connectivity: nodes holding vertex {v} are disconnected"
        for v in range(n)
        for ts in [sum(1 << t for t, m in enumerate(masks) if m >> v & 1)]  # the nodes holding v
        if _spread(node_nbr, ts & -ts, ts) != ts
    ]
    return out


def _reach(td: TreeDecomposition, start: int, inside=None, avoid: int = -1) -> set[int]:
    """Tree nodes reachable from ``start`` without entering node ``avoid``,
    through nodes in ``inside`` when it is given: the set-based walk of the
    ``branch_*`` reference only, independent of ``_spread``."""
    seen = {start}
    stack = [start]
    while stack:
        for w in _bits(td.node_nbr_mask[stack.pop()]):
            if w != avoid and w not in seen and (inside is None or w in inside):
                seen.add(w)
                stack.append(w)
    return seen


def require_valid(g: Graph, td: TreeDecomposition) -> None:
    """Raise ``DecompositionError`` naming the first violation unless td is
    valid for g.  A full passing ``validate`` marks td valid for this graph
    object (graphs are immutable), so asking again costs nothing; a
    decomposition this module built for g (exact or full) is marked valid when
    built, so it is never validated."""
    if td.valid_for is g:
        return
    problems = validate(g, td)
    if problems:
        raise DecompositionError(f"invalid decomposition: {problems[0]}")
    td.valid_for = g


def check_treewidth_cap(n: int, cap: int = DEFAULT_TREEWIDTH_CAP) -> None:
    """Refuse n vertices as exact treewidth would."""
    if n > cap:
        raise TreewidthCapExceeded(f"exact treewidth needs n <= {cap}, got {n}")


def exact_treewidth(g: Graph, cap: int = DEFAULT_TREEWIDTH_CAP) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with an optimal decomposition.

    tw(S), the width of eliminating the vertex set S first, is the minimum
    over v in S of max(tw(S - v), q), where q counts the outside neighbours
    of v's component in G[S]; tw(V) is the treewidth.  A memoised search
    ``solve(S, ub)`` returns tw(S) when it is below ub, else ub, which it
    keeps as a lower bound for S.  It scans components by lowest vertex and
    vertices low bit first, skips a component whose q cannot beat the best so
    far and takes a candidate only on strict improvement, so each vertex it
    picks is the first optimal one, whatever the bound.  The top-level bound
    is the min-degree elimination width plus 1.  Over the whole vertex set
    V the search would take its first candidate, vertex 0 eliminated last,
    and then only prove that no later one beats it: every vertex v ends an
    optimal elimination order (a maximum cardinality search from v on an
    optimal chordal completion orders it so), so tw(V) = tw(V - v) for every
    v.  The search therefore starts at V - {0}.  Sparse graphs visit few
    subsets; the worst case is all 2^n, held in three bytearrays of 2^n
    bytes (48 MiB at the default cap of 24), so n is capped.  The
    decomposition is built valid for g.
    """
    n = g.n
    check_treewidth_cap(n, cap)
    if n == 0:
        raise DecompositionError("treewidth of the empty graph is undefined here")
    if n == 1:
        return 0, _built(g, [1], [])
    nbr = g.nbr_mask
    h = n // 2
    low_half = (1 << h) - 1
    ones0, ones1 = neighbour_unions(nbr[:h]), neighbour_unions(nbr[h:])
    size = 1 << n
    known = bytearray(size)  # tw(S) + 1 once solved, else 0
    lower = bytearray(size)  # a bound tw(S) >= lower[S] from an unsolved search
    pick = bytearray(size)  # the vertex eliminated last within a solved S

    def solve(s: int, ub: int) -> int:
        if not s:
            return -1
        best = ub
        rem = s
        while rem:
            comp = rem & -rem
            while True:  # grow the component of rem's lowest vertex in G[S]
                out = ones0[comp & low_half] | ones1[comp >> h]
                grown = comp | out & s
                if grown == comp:
                    break
                comp = grown
            rem ^= comp
            q = (out & ~s).bit_count()
            if q >= best:
                continue
            c = comp
            while c:
                low = c & -c
                c ^= low
                t = s ^ low
                if lower[t] >= best:
                    continue  # tw(S - v) >= best: no improvement
                prev = known[t] - 1 if known[t] else solve(t, best)
                if prev < best:  # q < best, so this is max(q, prev) < best
                    best = q if q > prev else prev
                    pick[s] = low.bit_length() - 1
                    if best == q:
                        break  # no later vertex of this component goes below q
        if best < ub:
            known[s] = best + 1
        lower[s] = best
        return best

    s_mask = size - 2  # every vertex but 0, eliminated before it
    width = solve(s_mask, _min_degree_width(nbr) + 1)
    order = [0] * n  # vertex 0 is eliminated last
    for i in range(n - 2, -1, -1):
        order[i] = v = pick[s_mask]  # the vertex eliminated last within s_mask
        s_mask ^= 1 << v
    return width, _decomposition_from_order(g, order)


def _min_degree_width(nbr: tuple[int, ...]) -> int:
    """Width of the min-degree elimination order (least degree in the filled
    graph, lower id on ties): an upper bound on the treewidth.  It stops once
    at most width + 1 vertices are left: none of them can have more than
    width neighbours left."""
    adj = list(nbr)
    left = (1 << len(adj)) - 1
    width = 0
    while left.bit_count() > width + 1:
        v, least = -1, len(adj)
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            d = (adj[low.bit_length() - 1] & left).bit_count()
            if d < least:
                v, least = low.bit_length() - 1, d
        left ^= 1 << v
        width = max(width, least)
        higher = rest = adj[v] & left
        while rest:
            low = rest & -rest
            rest ^= low
            adj[low.bit_length() - 1] |= higher ^ low
    return width


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Tree decomposition induced by an elimination order (fill-in simulation).

    Works on the filled neighbour masks: the bag of the i-th vertex is it and
    its filled neighbours eliminated later (``left``), and its tree parent is
    the node of the earliest of those, else node i + 1 (joining components).
    The result is built valid for g."""
    n = len(order)
    adj = list(g.nbr_mask)
    pos = [0] * n  # pos[v]: v's position in the order, so its node
    for i, v in enumerate(order):
        pos[v] = i
    left = (1 << n) - 1
    bags = []
    edges = []
    for i, v in enumerate(order):
        left ^= 1 << v
        higher = rest = adj[v] & left
        parent = n
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            adj[u] |= higher
            if pos[u] < parent:
                parent = pos[u]
        bags.append(higher | 1 << v)
        if higher:
            edges.append((i, parent))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return _built(g, bags, edges)


def has_treewidth_at_most_2(g: Graph) -> bool:
    """Decide tw(G) <= 2 by the classical degree reduction.

    Repeatedly delete vertices of degree <= 1 and contract degree-2 vertices
    into an edge between their neighbors; tw <= 2 iff this empties the graph.
    Each pass tries the vertices left in ascending order, on neighbour masks
    of the graph left.
    """
    nbr = list(g.nbr_mask)
    left = (1 << g.n) - 1
    while left:
        before = left
        for v in _bits(before):
            m = nbr[v]
            if m.bit_count() > 2:
                continue
            left ^= 1 << v
            x = m & -m
            y = m ^ x  # the other neighbour, if any: contracting v joins x and y
            for a, b in ((x, y), (y, x)):
                if a:
                    u = a.bit_length() - 1
                    nbr[u] = nbr[u] & ~(1 << v) | b
        if left == before:
            return False
    return True


def full_tree_decomposition(
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
    padded up to width exactly k by the same deterministic rules.  Any other
    result is built valid for g.
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

    size = k + 1
    bags = list(base.masks)  # node id -> bag mask
    nodes = len(bags)
    nbrs = list(base.node_nbr_mask)  # node id -> mask of its neighbours' ids
    live = [True] * nodes  # False once merged away
    dirty = list(range(nodes))  # a heap of the nodes that may lie in a neighbour's bag
    while True:
        # Contract: merge the least node whose bag lies in a neighbour's bag
        # into the least such neighbour, until no bag lies in a neighbour's.
        # Bags are fixed meanwhile, and a merge of t into u changes the
        # neighbours of u and of t's other neighbours only, so it dirties
        # just those nodes: every node that can merge is dirty, and the least
        # dirty node is popped first.
        while dirty:
            t = heappop(dirty)
            if not live[t]:
                continue
            bag = bags[t]
            rest = nbrs[t]
            while rest:
                low = rest & -rest
                if not bag & ~bags[low.bit_length() - 1]:
                    break  # low is the least neighbour whose bag holds t's
                rest ^= low
            else:
                continue  # no neighbour's bag holds t's
            u = low.bit_length() - 1
            t_bit = 1 << t
            rest = nbrs[t] ^ low
            while rest:
                w_bit = rest & -rest
                rest ^= w_bit
                w = w_bit.bit_length() - 1
                nbrs[w] = nbrs[w] ^ t_bit | low
                heappush(dirty, w)
            nbrs[u] = (nbrs[u] | nbrs[t]) & ~(t_bit | low)
            heappush(dirty, u)
            live[t] = False
        short = [t for t in range(nodes) if live[t] and bags[t].bit_count() < size]
        if not short:
            break
        # Pad each undersized bag with the lowest vertices of its neighbours'
        # bags.  Every neighbour's bag holds a vertex outside it, so each
        # round grows a bag; a lone node holds all n >= k+1 vertices.  A
        # padded node and its neighbours are dirty again.
        for t in short:
            pool = 0
            rest = nbrs[t]
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                pool |= bags[u]
                heappush(dirty, u)
            heappush(dirty, t)
            bag = bags[t]
            pool &= ~bag
            for _ in range(size - bag.bit_count()):
                bag |= pool & -pool
                pool &= pool - 1
            bags[t] = bag

    # Splice one-swap chains across edges sharing fewer than k vertices, the
    # edges in sorted order.  All bags now hold k+1 vertices, so an edge's two
    # bags differ in as many vertices each way, and the chain swaps the
    # lowest vertex off one side for the lowest onto the other, all but the
    # last pair.
    at = [0] * nodes  # live node id -> output node id
    out_bags = []
    for t in range(nodes):
        if live[t]:
            at[t] = len(out_bags)
            out_bags.append(bags[t])
    out_edges = []
    for a in range(nodes):
        if not live[a]:
            continue
        cur = bags[a]
        upper = nbrs[a] >> a + 1 << a + 1
        while upper:
            low = upper & -upper
            upper ^= low
            b = low.bit_length() - 1
            prev, other = at[a], bags[b]
            drop, add = cur & ~other, other & ~cur
            chain = cur
            while drop & drop - 1:  # more than one swap left
                d, e = drop & -drop, add & -add
                drop ^= d
                add ^= e
                chain ^= d | e
                out_edges.append((prev, len(out_bags)))
                prev = len(out_bags)
                out_bags.append(chain)
            out_edges.append((prev, at[b]))
    return _built(g, out_bags, out_edges)


@dataclass(frozen=True)
class Branch:
    """One component of the decomposition tree with node ``anchor`` removed.

    ``vertices`` is the union of the component's bags minus the anchor's bag.
    """

    anchor: int
    nodes: frozenset[int]
    vertices: frozenset[int]

    @property
    def is_empty(self) -> bool:
        return not self.nodes


@dataclass(frozen=True)
class BranchUnion:
    """Union of branches at neighbors of ``anchor`` whose bags contain a fixed triple."""

    anchor: int
    nodes: frozenset[int]
    vertices: frozenset[int]


def _branch_vertices(td: TreeDecomposition, t: int, nodes: frozenset[int]) -> frozenset[int]:
    verts = set()
    for x in nodes:
        verts.update(td.bags[x])
    return frozenset(verts - set(td.bags[t]))


def branch_at(td: TreeDecomposition, t: int, other: int) -> Branch:
    """The component of T - t containing node ``other``."""
    if other == t:
        raise DecompositionError("branch undefined: node coincides with the removed node")
    nodes = frozenset(_reach(td, other, avoid=t))
    return Branch(t, nodes, _branch_vertices(td, t, nodes))


def branch_of_vertex(td: TreeDecomposition, t: int, v: int) -> Branch:
    """The branch of T at t holding vertex v; v must lie outside the bag of t."""
    if v in td.bags[t]:
        raise DecompositionError(f"branch of vertex {v} at node {t} undefined: vertex is in the bag")
    holders = [x for x in range(td.node_count) if v in td.bags[x]]
    if not holders:
        raise DecompositionError(f"vertex {v} appears in no bag")
    return branch_at(td, t, holders[0])


def branch_union(td: TreeDecomposition, t: int, delta: Iterable[int]) -> BranchUnion:
    """Union of branches at neighbors of t whose bags contain the triple delta."""
    dset = set(delta)
    if len(dset) != 3:
        raise DecompositionError(f"delta must be a triple, got {sorted(dset)}")
    if not dset <= set(td.bags[t]):
        raise DecompositionError("delta must be contained in the bag of t")
    if not td.is_full or td.width != 3:
        raise DecompositionError("branch unions are defined on full width-3 decompositions")
    nodes: set[int] = set()
    for u in _bits(td.node_nbr_mask[t]):
        if dset <= set(td.bags[u]):
            nodes.update(_reach(td, u, avoid=t))
    fnodes = frozenset(nodes)
    return BranchUnion(t, fnodes, _branch_vertices(td, t, fnodes))


def branch_of_route(td: TreeDecomposition, t: int, vertices: Iterable[int]) -> Branch:
    """Branch holding a path or cycle fenced by the bag of t.

    All vertices outside the bag must share one branch (guaranteed for fenced
    routes on valid decompositions); a route inside the bag maps to the
    explicit empty branch.
    """
    outside = [v for v in set(vertices) if v not in td.bags[t]]
    if not outside:
        return Branch(t, frozenset(), frozenset())
    br = branch_of_vertex(td, t, outside[0])
    for v in outside[1:]:
        if v not in br.vertices:
            raise DecompositionError(
                f"route spans several branches at node {t}: {outside[0]} vs {v}"
            )
    return br


def _rooted(td: TreeDecomposition) -> tuple[list[int], list[int]]:
    """A BFS order of td's tree from node 0, children in ascending id order,
    and each node's parent in it (node 0's is 0): the rooted walk of
    ``side_masks`` and of the nice refinement in ``cycles``."""
    node_nbr = td.node_nbr_mask
    order, parent, seen = [0], [0] * len(node_nbr), 1
    for p in order:  # grows while it is read
        rest = node_nbr[p] & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            parent[c] = p
            order.append(c)
    return order, parent


def side_masks(td: TreeDecomposition) -> dict[tuple[int, int], int]:
    """For every directed tree edge (t, u), the vertex set of
    ``branch_at(td, t, u)`` as a mask: the vertices in the bags on u's side of
    T - t, off the bag of t.  Built on first read and kept on td (immutable).

    Defined on a valid decomposition only: one that passed ``require_valid``
    or was built here, else ``DecompositionError``.  One rooted pass builds
    the table: the BFS order of ``_rooted``, then ``down[t]``, the union of the
    bags in t's subtree, child before parent, and ``full = down[0]``.  For a
    child c of p, ``sides[p, c] = down[c] - bag(p)`` and ``sides[c, p] =
    full - down[c]``: by subtree connectivity the bags off c's subtree meet
    ``down[c]`` only inside the bag of c."""
    if td.sides is None:
        if td.valid_for is None:
            raise DecompositionError("side masks need a decomposition that passed require_valid")
        masks = td.masks
        order, parent = _rooted(td)
        down = list(masks)
        for c in reversed(order[1:]):
            down[parent[c]] |= down[c]
        full = down[0]
        td.sides = sides = {}
        for c in order[1:]:
            p = parent[c]
            sides[p, c] = down[c] & ~masks[p]
            sides[c, p] = full & ~down[c]
    return td.sides


def check_separator_property(
    g: Graph, td: TreeDecomposition, edge: tuple[int, int], u: int, v: int
) -> bool:
    """Whether the shared bag of a tree edge separates u from v.

    Preconditions: u outside the bag of t, v outside the bag of t', u in the
    branch of t holding t', v in the branch of t' holding t.  On any valid
    decomposition the result is always True; the invariant suite asserts this.
    """
    t, tp = edge
    if (min(t, tp), max(t, tp)) not in td.tree_edges:
        raise DecompositionError(f"({t},{tp}) is not a tree edge")
    if u in td.bags[t]:
        raise DecompositionError(f"u={u} must lie outside the bag of node {t}")
    if v in td.bags[tp]:
        raise DecompositionError(f"v={v} must lie outside the bag of node {tp}")
    if u not in branch_at(td, t, tp).vertices:
        raise DecompositionError(f"u={u} is not in the branch of {t} toward {tp}")
    if v not in branch_at(td, tp, t).vertices:
        raise DecompositionError(f"v={v} is not in the branch of {tp} toward {t}")
    shared = set(td.bags[t]) & set(td.bags[tp])
    return separates(g, shared, {u, v})
