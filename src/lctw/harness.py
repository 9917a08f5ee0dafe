"""Verification campaigns: per-graph check evaluation, JSON-lines reports,
counterexample bundles, and the auxiliary directed-forest diagnostic.

Records are one JSON object per line, schema-versioned, and self-contained:
every outcome is re-derivable from the graph6 string alone.  Reports are
reproducible byte-for-byte for a fixed config and seed, except the timing
field "ms".  Workers fan out over graphs in chunks sized to the corpus, each
worker evaluating a chunk and handing back its finished report lines; the
parent tallies them and writes them in input order, so worker count never
changes report content.  A corpus of at most one graph runs in-process.

Exit codes: 0 all checks passed or premise-not-met, 2 configuration error
or a record with status error, 3 check failure, 4 conjecture counterexample
found.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from hashlib import sha1
from itertools import combinations
from multiprocessing import Pool

from .cycles import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MAX_CYCLES,
    Cycle,
    EnumerationBudgetExceeded,
    EnumerationCapExceeded,
    enumerate_longest_cycles,
    longest_cycle_length_td,
)
from .decomposition import (
    DEFAULT_TREEWIDTH_CAP,
    DecompositionError,
    TreeDecomposition,
    TreewidthCapExceeded,
    _from_bag_masks,
    require_valid,
    side_masks,
)
from .generate import GenSpec, exhaustive_small, generate_partial_k_tree
from .graph import Graph, _bits, component_masks, parse_graph6, write_graph6
from .transversal import (
    FAIL,
    PASS,
    PREMISE_NOT_MET,
    VACUOUS_PASS,
    GraphFacts,
    Member,
    ScanOutOfScope,
    check_escape_cycle,
    check_equivalent_two_cross_jump,
    check_fenced_or_shared,
    check_pairwise_and_common,
    compute_lct,
    conjecture_scan,
)

SCHEMA = "lctw.report/1"
BUNDLE_SCHEMA = "lctw.bundle/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILURE = 3
EXIT_COUNTEREXAMPLE = 4

DEFAULT_CHECKS = ("shared_vertex", "pairwise_overlap", "fenced_or_shared", "edge_separator", "families", "min_length_side", "two_cross_jump")

# Caps and budgets a graph can exceed; its record is out-of-scope, not an error.
CAP_ERRORS = (EnumerationCapExceeded, EnumerationBudgetExceeded, TreewidthCapExceeded)


@dataclass(frozen=True)
class CampaignOptions:
    checks: tuple[str, ...] = DEFAULT_CHECKS
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    treewidth_cap: int = DEFAULT_TREEWIDTH_CAP
    max_steps: int | None = None
    max_cycles: int = DEFAULT_MAX_CYCLES
    strict_preconditions: bool = False

    def __post_init__(self):
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; known: {','.join(CHECKS)}")


@dataclass(frozen=True)
class CorpusSpec:
    """Parsed --generate string; the seed fully determines the task stream."""

    mode: str = "random"
    k: int = 3
    n_lo: int = 8
    n_hi: int = 14
    count: int = 100
    delete_probability: float = 0.25
    require_biconnected: bool = True
    seed: int = 0
    n_max_exhaustive: int = 8
    retry_budget: int = 200

    def __post_init__(self):
        """Refuse a spec no corpus can be drawn from, named by its spec keys."""
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.n_lo > self.n_hi:
            raise ValueError(f"n range {self.n_lo}..{self.n_hi} is empty")
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if self.retry_budget < 1:
            raise ValueError(f"retries must be at least 1, got {self.retry_budget}")


def _n_range(val: str) -> dict:
    lo, hi = val.split("..") if ".." in val else (val, val)
    return {"n_lo": int(lo), "n_hi": int(hi)}


def _biconnected(val: str) -> dict:
    if val not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"biconnected must be 1, true, yes, 0, false or no, got {val!r}")
    return {"require_biconnected": val in ("1", "true", "yes")}


# Corpus spec key -> the CorpusSpec fields its value sets.
_SPEC_KEYS = {
    "k": lambda val: {"k": int(val)},
    "n": _n_range,
    "count": lambda val: {"count": int(val)},
    "p": lambda val: {"delete_probability": float(val)},
    "biconnected": _biconnected,
    "seed": lambda val: {"seed": int(val)},
    "nmax": lambda val: {"n_max_exhaustive": int(val)},
    "retries": lambda val: {"retry_budget": int(val)},
}


def parse_corpus_spec(text: str, seed: int = 0) -> CorpusSpec:
    """Parse 'k=3,n=9..14,count=1000,p=0.25' style corpus descriptions; a
    key given twice is refused."""
    fields: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad corpus spec fragment {chunk!r}: expected key=value")
        key, val = (part.strip() for part in chunk.split("=", 1))
        if key in fields:
            raise ValueError(f"corpus spec key {key!r} given twice")
        fields[key] = val
    kw: dict = {"mode": fields.pop("mode", "random"), "seed": seed}
    for key, val in fields.items():
        if key not in _SPEC_KEYS:
            raise ValueError(f"unknown corpus spec key {key!r}")
        kw.update(_SPEC_KEYS[key](val))
    return CorpusSpec(**kw)


def corpus_tasks(spec: CorpusSpec) -> list[dict]:
    """Materialize the task list for a corpus spec (deterministic in the seed)."""
    import random

    tasks = []
    if spec.mode == "exhaustive":
        for g in exhaustive_small(spec.n_max_exhaustive, spec.k):
            tasks.append({"graph6": write_graph6(g), "source": f"exhaustive(k={spec.k})"})
        return tasks
    if spec.mode != "random":
        raise ValueError(f"unknown corpus mode {spec.mode!r}")
    rng = random.Random(spec.seed)
    for i in range(spec.count):
        n = rng.randint(spec.n_lo, spec.n_hi)
        gs = GenSpec(
            n=n,
            k=spec.k,
            seed=rng.getrandbits(64),
            delete_probability=spec.delete_probability,
            require_biconnected=spec.require_biconnected,
            retry_budget=spec.retry_budget,
        )
        g, td = generate_partial_k_tree(gs)
        tasks.append(
            {
                "graph6": write_graph6(g),
                "source": f"random(k={spec.k},seed={spec.seed},i={i})",
                "td": {"bags": [list(b) for b in td.bags], "edges": [list(e) for e in sorted(td.tree_edges)]},
            }
        )
    return tasks


def file_tasks(path: str) -> list[dict]:
    tasks = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tasks.append({"graph6": line, "source": f"{path}:{i + 1}"})
    return tasks


def _task_td(g: Graph, task: dict, max_width: int) -> TreeDecomposition | None:
    """The task's decomposition once it passes ``require_valid`` for g with
    width <= max_width, else None: the caller computes one.  Each bag entry
    is read once, into its bag's mask: an entry that is not an exact int
    makes the blob ignored at once, and one that is no vertex of g makes it
    ignored once the tree edges are read.  Only a malformed blob raises: no
    bags, or a tree edge the constructor refuses, with its message."""
    if not task.get("td"):
        return None
    n, masks, in_range = g.n, [], True
    for bag in task["td"]["bags"]:
        mask = 0
        for v in bag:
            if type(v) is not int:
                return None
            if 0 <= v < n:
                mask |= 1 << v
            else:
                in_range = False
        masks.append(mask)
    td = _from_bag_masks(masks, task["td"]["edges"])
    if not in_range or td.width > max_width:
        return None
    try:
        require_valid(g, td)
    except DecompositionError:
        return None
    return td


def check_edge_separators(g: Graph, td: TreeDecomposition) -> dict:
    """Exhaustive separator-property sweep over all tree edges and vertex pairs:
    the branch of t toward t' is ``side_masks(td)[t, t']``, and a pair
    violates the property when both vertices lie in one component of G minus
    the shared bag S.  td must have passed ``require_valid``, for g or for a
    graph on g's vertices with fewer edges; ``side_masks`` refuses one that
    never did.  For a tree edge (a, b) its sides A and B are then disjoint
    and cover G - S, so a component of G - S meets both only if an edge of G
    joins A and B.  That test reads the neighbour masks, and only an edge
    that passes it has its components walked to list pairs."""
    sides = side_masks(td)
    nbr_mask, masks = g.nbr_mask, td.masks
    violations = []
    pairs = 0
    for a, b in sorted(td.tree_edges):
        sa, sb = sides[a, b], sides[b, a]
        pairs += 2 * sa.bit_count() * sb.bit_count()
        # With c the child of p on this edge, the sides are down[c] - bag(p) and
        # full - down[c] (``side_masks``), so they are disjoint, and their union
        # is full - (down[c] & bag(p)) = V - S: every vertex is in some bag, and
        # by subtree connectivity down[c] meets bag(p) inside bag(c) only.
        if not _joined(nbr_mask, sa, sb):
            continue
        side = {a: sa, b: sb}
        leaks = [c for c in component_masks(g, ((1 << g.n) - 1) & ~(masks[a] & masks[b])) if c & sa and c & sb]
        for t, tp in ((a, b), (b, a)):
            for u in range(g.n):
                for v in range(g.n):
                    if side[t] >> u & side[tp] >> v & 1 and any(c >> u & c >> v & 1 for c in leaks):
                        violations.append([t, tp, u, v])
    status = PASS if not violations else FAIL
    return {"status": status, "pairs": pairs, "violations": violations}


def _joined(nbr_mask: tuple[int, ...], x: int, y: int) -> bool:
    """Whether an edge of the graph with neighbour masks ``nbr_mask`` joins
    the vertex sets x and y."""
    while x:
        low = x & -x
        if nbr_mask[low.bit_length() - 1] & y:
            return True
        x ^= low
    return False


def check_family_consistency(td: TreeDecomposition, families) -> dict:
    """Per node, the premise of the mask posture: no component of G - bag
    straddles the inside set of a triple, so the inside sets read off the
    decomposition agree with graph reachability, whole components at a time.
    A component straddles the inside set I exactly when an edge of G joins
    I - bag and V - bag - I, which the neighbour masks show without walking
    a component."""
    for t in range(td.node_count):
        node = families(t)
        nbr_mask = node.g.nbr_mask
        off = ((1 << node.g.n) - 1) & ~node.mask
        for dmask, inside in node.inside.items():
            branch = inside & off  # 0 when no neighbour's bag holds the triple
            if branch and _joined(nbr_mask, branch, off & ~inside):
                return {"status": FAIL, "detail": f"node {t}: a component straddles the inside set of {list(_bits(dmask))}"}
    return {"status": PASS}


def _context_sweep(facts: GraphFacts, check) -> dict:
    """Run a per-triple check at every context of facts, naming the first that fails."""
    out: dict = {}
    for t, dmask in facts.contexts:
        entry = check(facts, t, dmask)
        if entry["status"] == FAIL:
            out.setdefault("first_failure", {"node": t, "delta": list(_bits(dmask)), "detail": entry["detail"]})
    status = FAIL if "first_failure" in out else (PASS if facts.contexts else PREMISE_NOT_MET)
    return {**out, "status": status, "premise_met": len(facts.contexts)}


_CONTRADICTION_CANDIDATE = "contradiction configuration candidate: inspect manually"


def directed_forest_diagnostic(facts: GraphFacts) -> dict:
    """Build the auxiliary directed forest over the decomposition edges of
    facts.td3 and follow it.

    An arc t -> t' exists when some longest cycle fenced by the bag of t,
    meeting it at most three times, lives in the branch toward t'.  The last
    arc of a maximal directed path would exhibit two antipodal fenced longest
    cycles; on a genuine width-3 graph that configuration never completes, and
    the diagnostic records where the construction halts.
    """
    if not facts.biconnected:
        raise ValueError("diagnostic requires a 2-connected graph")
    td = facts.td3 if facts.tw_eq_3 else None
    if td is None:
        raise ValueError("diagnostic requires treewidth exactly 3")
    families = facts.families
    sides = side_masks(td)

    def toward(t: int, tp: int) -> Member | None:
        """The first fenced cycle at t, as its (vertex tuple, vertex mask), that
        lies on tp's side of T - t: a validated td3 puts all of its vertices
        off the bag of t in one branch."""
        return next((member for member in families(t).fenced3 if member[1] & sides[t, tp]), None)

    arcs = [(t, tp) for a, b in sorted(td.tree_edges) for t, tp in ((a, b), (b, a)) if toward(t, tp) is not None]
    out = {
        "schema": SCHEMA,
        "graph6": write_graph6(facts.g),
        "lct": facts.lct.lct,
        "arc_count": len(arcs),
        "arcs": [list(a) for a in arcs],
        "fenced_family_sizes": [len(families(t).fenced3) for t in range(td.node_count)],
    }
    if not arcs:
        out["halt"] = "empty-forest: no fenced cycle selects a branch"
        return out
    path = [min(t for t, _ in arcs)]
    while nxt := [tp for t, tp in arcs if t == path[-1] and tp not in path]:
        path.append(min(nxt))
    out["maximal_path"] = path
    t, tp = path[-2], path[-1]
    cyc_c, cyc_d = toward(t, tp), toward(tp, t)
    out["last_arc"] = [t, tp]
    if cyc_d is None:
        out["halt"] = f"no-returning-cycle: no fenced cycle at node {tp} lives toward node {t}"
        return out
    shared = td.masks[t] & td.masks[tp]
    (c, c_mask), (d, d_mask) = cyc_c, cyc_d
    inter = c_mask & d_mask
    out["antipodal_pair"] = {"C": list(c), "D": list(d)}
    out["pair_checks"] = {  # the bags of adjacent nodes of td3 differ in one vertex each
        "private_of_t_off_C": not c_mask & td.masks[t] & ~shared,
        "private_of_tp_off_D": not d_mask & td.masks[tp] & ~shared,
        "intersection_in_shared": not inter & ~shared,
        "intersection_at_least_2": inter.bit_count() >= 2,
    }
    if facts.lct.lct == 1:
        out["halt"] = (
            "all longest cycles share a vertex: no longest cycle avoiding a shared "
            "bag vertex exists, so the contradiction step cannot proceed"
        )
    else:
        out["halt"] = _CONTRADICTION_CANDIDATE
    return out


def _pairwise_overlap(f: GraphFacts) -> dict:
    """Every two longest cycles share at least two vertices.  Two with one
    vertex set share at least three, so only distinct vertex sets are paired;
    on a failure the cycles are scanned in order for the first failing pair."""
    if all((m & k).bit_count() >= 2 for m, k in combinations(f.cycles.vertex_sets, 2)):
        return {"status": PASS}
    pairs = combinations(f.cycles, 2)
    c, d = next((c, d) for (c, m), (d, k) in pairs if (m & k).bit_count() < 2)
    return {"status": FAIL, "witness": [list(c), list(d)]}


def _dforest(f: GraphFacts) -> dict:
    diag = directed_forest_diagnostic(f)
    out = {"status": PASS, "halt": diag["halt"], "arcs": diag["arc_count"]}
    # with lct > 1 a completed antipodal pair contradicts the theory checked
    if diag["halt"] == _CONTRADICTION_CANDIDATE:
        out.update(status=FAIL, witness=[diag["antipodal_pair"]["C"], diag["antipodal_pair"]["D"]])
    return out


def _td_oracle(f: GraphFacts) -> dict:
    dp_len = longest_cycle_length_td(f.g, f.td)  # td passed require_valid when td3 was built on it
    return {"status": PASS if dp_len == f.cycles.length else FAIL, "dp": dp_len, "enum": f.cycles.length}


# Check name -> (scope gate, premise, check), the one place that says when a
# check runs: _verify_graph applies the gate, then the premise, then the check.
# A gate resolves to the entry of a graph out of the check's scope, or None; a
# premise is None or a (predicate on the facts, entry when unmet) pair; a check
# takes the facts and returns the entry stored under record["checks"][name],
# per triple via _context_sweep.  The td3 gate gives the triangle out-of-scope
# where the decomposition gate gives premise-not-met; the criterion-1 digest
# pins that entry.  Lambdas look functions up at each call, so patches apply.
CHECKS = {
    "shared_vertex": ("partial_3_tree", None, lambda f: {"status": PASS if f.lct.lct == 1 else FAIL}),
    "pairwise_overlap": ("cycle", None, _pairwise_overlap),
    "fenced_or_shared": ("decomposition", None, lambda f: check_fenced_or_shared(f)),
    "edge_separator": ("decomposition", None, lambda f: check_edge_separators(f.g, f.td3)),
    "families": ("decomposition", None, lambda f: check_family_consistency(f.td3, f.families)),
    "min_length_side": (  # the premise is provably empty: this counts vacuous passes
        "lct",
        (
            lambda f: f.tw_eq_3 and f.lct.lct > 1,
            {"status": VACUOUS_PASS, "detail": "premise empty: lct = 1 or wrong width/connectivity"},
        ),
        lambda f: {"status": PASS if (L := f.cycles.length) >= 5 else FAIL, "detail": f"longest cycle length {L}"},
    ),
    "two_cross_jump": (
        "td3",
        (lambda f: f.lct.lct > 1, {"status": VACUOUS_PASS, "detail": "premise empty: lct = 1"}),
        lambda f: check_equivalent_two_cross_jump(f),
    ),
    "jump_families": (  # four triples in each 4-vertex bag
        "decomposition",
        None,
        lambda f: {**_context_sweep(f, check_pairwise_and_common), "contexts": 4 * f.td3.node_count},
    ),
    "escape_cycle": (
        "decomposition",
        (lambda f: f.lct.lct > 1, {"status": PREMISE_NOT_MET, "premise_met": 0}),
        lambda f: _context_sweep(f, check_escape_cycle),
    ),
    "dforest": (
        "decomposition",
        (lambda f: f.tw_eq_3, {"status": PREMISE_NOT_MET, "detail": "treewidth below 3"}),
        _dforest,
    ),
    "td_oracle": ("decomposition", None, _td_oracle),
}


def _evaluate(task: dict, opts: CampaignOptions, fields: tuple[str, ...], max_width: int, body) -> dict:
    """The record frame both evaluators share: parse the graph, record its
    graph6 form and ``fields``, take the task's decomposition when it is valid
    with width <= max_width, run ``body`` on the graph's facts and time it all.
    A cap or budget refusal, or a graph outside the conjecture scan's
    premise, makes the record out-of-scope with the reason in "error", as
    ``_verify_graph`` does for the empty graph; any
    other exception, an unreadable graph or decomposition blob included, makes
    it an error.  A graph6 string that does not parse is kept as given."""
    started = time.monotonic()
    record: dict = {"schema": SCHEMA, "source": task.get("source", ""), "graph6": task.get("graph6", "")}
    try:
        g = parse_graph6(task["graph6"])
        record.update({"graph6": write_graph6(g), **{name: getattr(g, name) for name in fields}})
        facts = GraphFacts(
            g,
            _task_td(g, task, max_width),
            enumeration_cap=opts.enumeration_cap,
            treewidth_cap=opts.treewidth_cap,
            max_steps=opts.max_steps,
            max_cycles=opts.max_cycles,
        )
        body(facts, record, opts)
    except Exception as exc:
        record["status"] = "out-of-scope" if isinstance(exc, (*CAP_ERRORS, ScanOutOfScope)) else "error"
        record["error"] = str(exc)
    record["ms"] = int((time.monotonic() - started) * 1000)
    return record


def _verify_graph(facts: GraphFacts, record: dict, opts: CampaignOptions) -> None:
    if not facts.g.n:  # the empty graph has no decomposition, so no check applies
        record.update(status="out-of-scope", error="verify needs a graph with at least one vertex")
        return
    checks: dict[str, dict] = {}
    record["checks"] = checks
    td = facts.td
    if facts.given_td is None:
        record["tw"] = td.width  # td is optimal
    biconn = facts.biconnected
    tw_le_3 = td.width <= 3  # a valid decomposition's width bounds the treewidth; an optimal one's is it
    in_scope = biconn and tw_le_3
    record.update({"biconnected": biconn, "tw_le_3": tw_le_3, "tw_eq_3": facts.tw_eq_3})
    if opts.strict_preconditions and not in_scope:
        record["status"] = "out-of-scope"
        return
    if biconn:  # a 2-connected graph has a cycle
        result = facts.lct
        record.update({"L": facts.cycles.length, "longest_cycles": len(facts.cycles), "lct": result.lct})
        record["lct_witness"] = list(result.witness)
    td3 = facts.td3 if in_scope else None
    out_of_scope = {"status": "out-of-scope"}
    no_td3 = {"status": PREMISE_NOT_MET, "detail": facts.td3_error}
    partial_3_tree = "needs a 2-connected partial 3-tree with a cycle"
    gates = {
        "cycle": None if biconn else {**out_of_scope, "detail": "needs a 2-connected graph with a cycle"},
        "lct": None if biconn else out_of_scope,
        "partial_3_tree": None if in_scope else {**out_of_scope, "detail": partial_3_tree},
        "td3": None if td3 else out_of_scope,
        "decomposition": (None if td3 else no_td3) if in_scope else out_of_scope,
    }
    for name in opts.checks:
        gate, premise, check = CHECKS[name]
        unmet = gates[gate] or (premise and not premise[0](facts) and premise[1])
        checks[name] = dict(unmet) if unmet else check(facts)
    record["status"] = "fail" if any(c.get("status") == FAIL for c in checks.values()) else "ok"


def _scan_graph(facts: GraphFacts, record: dict, opts: CampaignOptions) -> None:
    record.update(conjecture_scan(facts), status="ok")


def evaluate_task(task: dict, opts: CampaignOptions) -> dict:
    """Run the configured checks on one graph; returns a self-contained record."""
    return _evaluate(task, opts, ("n", "m"), 3, _verify_graph)


def evaluate_conjecture_task(task: dict, opts: CampaignOptions) -> dict:
    """Scan one graph for a two-vertex transversal; returns a self-contained record."""
    return _evaluate(task, opts, ("n",), 4, _scan_graph)


@dataclass
class CampaignSummary:
    total: int = 0
    ok: int = 0
    failed: int = 0
    out_of_scope: int = 0
    errors: int = 0
    counterexamples: int = 0
    vacuous: dict = field(default_factory=dict)
    bundles: list = field(default_factory=list)


# Record outcome -> the summary count it adds to; any other outcome is ok.
_TALLY = {"fail": "failed", "COUNTEREXAMPLE": "counterexamples", "out-of-scope": "out_of_scope", "error": "errors"}


def _report_line(task: dict, opts: CampaignOptions, evaluate) -> tuple[str, str, tuple[str, ...]]:
    """One task's whole share of a campaign, run where the task is evaluated:
    its report line, the summary count it adds to and the names of its
    vacuous-pass checks, in check order."""
    record = evaluate(task, opts)
    count = _TALLY.get(record.get("finding")) or _TALLY.get(record.get("status"), "ok")
    vacuous = tuple(name for name, chk in record.get("checks", {}).items() if chk.get("status") == VACUOUS_PASS)
    return json.dumps(record, sort_keys=True) + "\n", count, vacuous


def _run_tasks(tasks: list[dict], opts, evaluate, workers: int):
    """``_report_line`` of every task, in input order.  At most one worker per
    task is started, so a corpus of one task runs in this process; each
    worker takes chunks of about a quarter of its share, as ``Pool.map`` does."""
    report_line = partial(_report_line, opts=opts, evaluate=evaluate)
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(report_line, tasks)
        return
    with Pool(workers) as pool:
        yield from pool.imap(report_line, tasks, chunksize=-(-len(tasks) // (4 * workers)))


def _run_campaign(tasks, opts, evaluate, out_stream, ce_dir, workers, bundle):
    """Tally and write the report line of every task, and persist a failing
    or counterexample record with ``bundle`` when ``ce_dir`` is set.  The exit
    code is 4 on a counterexample, else 3 on a check failure, else 2 on an
    error record, else 0."""
    summary = CampaignSummary()
    for line, count, vacuous in _run_tasks(tasks, opts, evaluate, workers):
        summary.total += 1
        setattr(summary, count, getattr(summary, count) + 1)
        if ce_dir and count in ("failed", "counterexamples"):
            summary.bundles.append(bundle(ce_dir, json.loads(line)))
        for name in vacuous:
            summary.vacuous[name] = summary.vacuous.get(name, 0) + 1
        out_stream.write(line)
    if summary.counterexamples or summary.failed:
        return (EXIT_COUNTEREXAMPLE if summary.counterexamples else EXIT_CHECK_FAILURE), summary
    return (EXIT_CONFIG if summary.errors else EXIT_OK), summary


def run_verify(tasks, opts: CampaignOptions, out_stream, ce_dir=None, workers: int = 1):
    return _run_campaign(tasks, opts, evaluate_task, out_stream, ce_dir, workers, write_failure_bundle)


def run_conjecture(tasks, opts: CampaignOptions, out_stream, ce_dir=None, workers: int = 1):
    bundle = partial(write_conjecture_bundle, opts=opts)
    return _run_campaign(tasks, opts, evaluate_conjecture_task, out_stream, ce_dir, workers, bundle)


def _bundle_path(ce_dir, record) -> str:
    import os

    os.makedirs(ce_dir, exist_ok=True)
    digest = sha1(record["graph6"].encode()).hexdigest()[:12]
    return str(ce_dir) + os.sep + f"ce-{digest}.txt"


def write_failure_bundle(ce_dir, record) -> str:
    path = _bundle_path(ce_dir, record)
    failing = [n for n, c in record.get("checks", {}).items() if c.get("status") == FAIL]
    lines = [
        BUNDLE_SCHEMA,
        "kind: check-failure",
        f"graph6: {record['graph6']}",
        f"failed-checks: {','.join(failing)}",
        f"record: {json.dumps(record, sort_keys=True)}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_conjecture_bundle(ce_dir, record, opts: CampaignOptions = CampaignOptions()) -> str:
    """Self-contained counterexample evidence: graph6, the longest-cycle family,
    and for every vertex pair one longest cycle avoiding it.  ``opts`` are the
    campaign's, under whose enumeration cap and budgets the record was found:
    the family is enumerated again under them, and the bundle records the cap
    and the family budget for re-verification."""
    path = _bundle_path(ce_dir, record)
    g = parse_graph6(record["graph6"])
    cycles = enumerate_longest_cycles(g, opts.enumeration_cap, opts.max_steps, opts.max_cycles)
    lines = [
        BUNDLE_SCHEMA,
        "kind: conjecture-counterexample",
        f"graph6: {record['graph6']}",
        f"lct: {record['lct']}",
        f"longest-cycle-length: {record['L']}",
        f"longest-cycle-count: {record['longest_cycles']}",
        f"enumeration-cap: {opts.enumeration_cap}",
        f"max-cycles: {opts.max_cycles}",
        "cycles:",
    ]
    lines.extend("  " + " ".join(map(str, c)) for c in cycles.cycles)
    lines.append("refutation:")
    for u, v, missed in record.get("refutation", []):
        lines.append(f"  pair {u} {v} missed-by " + " ".join(map(str, missed)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def verify_conjecture_bundle(path: str) -> tuple[bool, str]:
    """Re-verify a counterexample bundle from scratch: recompute the family and
    transversal number under the bundle's enumeration cap (18 when it names
    none) and family budget (``DEFAULT_MAX_CYCLES`` when it names none),
    compare the bundled lct, length, count and family, each cycle listed once,
    and check every refutation line against the family.  A malformed bundle is
    refused with its reason, and so is one whose family that budget cannot
    hold."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != BUNDLE_SCHEMA:
        return False, "unknown bundle schema"
    fields, rows, section = {}, {"cycles:": [], "refutation:": []}, None
    for ln in lines[1:]:
        if ln in rows:
            section = ln
        elif section and ln.startswith("  "):
            rows[section].append(ln.split())
        elif ": " in ln:
            key, val = ln.split(": ", 1)
            fields[key] = val
    try:  # a bad graph6 or cycle raises a ValueError; a graph past the bundled cap cannot be re-checked
        g = parse_graph6(fields["graph6"])
        lct, length, count = (int(fields[key]) for key in ("lct", "longest-cycle-length", "longest-cycle-count"))
        listed = [Cycle(tuple(map(int, row))).vertices for row in rows["cycles:"]]
        refutation = [(int(u), int(v), Cycle(tuple(map(int, c))).vertices) for _, u, v, _, *c in rows["refutation:"]]
        family = enumerate_longest_cycles(
            g,
            cap=int(fields.get("enumeration-cap", DEFAULT_ENUMERATION_CAP)),
            max_cycles=int(fields.get("max-cycles", DEFAULT_MAX_CYCLES)),
        )
        res = compute_lct(g, family=family)
    except (KeyError, ValueError, EnumerationCapExceeded) as exc:
        return False, f"malformed bundle: {exc!r}"
    except EnumerationBudgetExceeded as exc:
        return False, f"cannot re-verify: {exc}"
    if res.lct != lct:
        return False, f"recomputed lct {res.lct} != bundled {lct}"
    if family.length != length:
        return False, "longest cycle length mismatch"
    if len(family) != count:
        return False, f"recomputed longest-cycle count {len(family)} != bundled {count}"
    if len(set(listed)) < len(listed):
        return False, "a cycle is listed twice"
    if sorted(listed) != list(family.cycles):
        return False, "cycle family mismatch"
    if res.lct >= 3:
        members = set(listed)
        for u, v, missed in refutation:
            if missed not in members or u in missed or v in missed:
                return False, f"bad refutation line for pair ({u},{v})"
        if {(u, v) for u, v, _ in refutation} != set(combinations(range(g.n), 2)):
            return False, "refutation does not cover every vertex pair"
    return True, "bundle re-verified"
