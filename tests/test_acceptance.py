"""Acceptance campaign.

Each test prints one PASS/FAIL line and enforces its stated tolerance:

 1. transversal number 1 on the exhaustive n<=8 corpus plus 1000 seeded
    random 2-connected width-<=3 instances (n in [9,14]), within 10 minutes;
 2. pairs of longest cycles share >= 2 vertices on 500 arbitrary seeded
    2-connected graphs (n <= 12), zero tolerance;
 3. at every decomposition node: transversal 1 or a fenced at-most-3 cycle,
    zero failures;
 4. decomposition-DP cycle length equals exhaustive enumeration on 500 corpus
    graphs, exact;
 5. the bundled nine-vertex fixture reproduces all its documented
    separation facts;
 6. Petersen regression: longest cycle 9, 20 longest cycles, transversal 2;
 7. every constructed full decomposition validates and the edge-separator
    property holds exhaustively, zero violations;
 8. pairwise/common-vertex checks pass on every premise-satisfying instance
    in a 10000-instance seeded search;
 9. 1000 seeded 2-connected width-<=4 instances scanned for two-vertex
    transversals, findings persisted, counterexamples (if any) re-verified
    from their bundles;
10. the campaign of criterion 1 is byte-deterministic modulo timing fields.
"""

import hashlib
import io
import json
import time
from itertools import combinations

import pytest

from lctw.cycles import enumerate_longest_cycles, longest_cycle_length_td
from lctw.classify import Fencing, cross_or_fence, k_intersect, s_equivalent
from lctw.cycles import Cycle, PathSegment
from lctw.decomposition import full_tree_decomposition, validate
from lctw.fixtures import petersen, separation_fixture
from lctw.generate import GenSpec, generate_partial_k_tree
from lctw.graph import parse_graph6
from lctw.harness import (
    CampaignOptions,
    run_conjecture,
    run_verify,
    verify_conjecture_bundle,
)
from lctw.transversal import compute_lct

WORKERS = 2
CRIT1_EXHAUSTIVE = "mode=exhaustive,k=3,nmax=8"
CRIT1_RANDOM = "k=3,n=9..14,count=1000,p=0.25"
CRIT1_SEED = 20260808
CRIT1_DIGEST = "a5d69c60ce3b7d9ed01c5c74502aeff2968a8bd44de99b58272c28eaecd2d091"
CRIT8_SPEC = "k=3,n=5..9,count=10000,p=0.45"
CRIT8_SEED = 206
CRIT9_SPEC = "k=4,n=8..13,count=1000,p=0.3"
CRIT9_SEED = 4071


def _announce(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus_tasks_c1(corpus):
    return corpus(CRIT1_EXHAUSTIVE), corpus(CRIT1_RANDOM, CRIT1_SEED)


def _strip(text):
    """The report with the timing field ``ms`` dropped from every record."""
    out = []
    for line in text.splitlines():
        r = json.loads(line)
        r.pop("ms", None)
        out.append(json.dumps(r, sort_keys=True))
    return "\n".join(out)


def _run_campaign(tasks):
    buf = io.StringIO()
    code, summary = run_verify(tasks, CampaignOptions(), buf, workers=WORKERS)
    return code, summary, buf.getvalue()


@pytest.fixture(scope="module")
def campaign_c1(corpus_tasks_c1):
    exhaustive, rand = corpus_tasks_c1
    started = time.monotonic()
    code, summary, text = _run_campaign(exhaustive + rand)
    seconds = time.monotonic() - started
    records = [json.loads(line) for line in text.splitlines()]
    return {
        "code": code,
        "summary": summary,
        "text": text,
        "records": records,
        "seconds": seconds,
        "n_exhaustive": len(exhaustive),
    }


def test_criterion_01_all_longest_cycles_share_a_vertex(campaign_c1):
    recs = campaign_c1["records"]
    in_scope = [r for r in recs if r.get("checks", {}).get("shared_vertex", {}).get("status") != "out-of-scope"]
    bad = [r for r in in_scope if r["checks"]["shared_vertex"]["status"] != "pass"]
    ok = not bad and campaign_c1["code"] == 0 and campaign_c1["seconds"] < 600
    _announce(
        1,
        ok,
        f"{len(in_scope)}/{len(recs)} in-scope instances "
        f"({campaign_c1['n_exhaustive']} exhaustive + 1000 random), transversal 1 on all, "
        f"{campaign_c1['seconds']:.0f}s",
    )


def test_criterion_01_behaviour_digest(campaign_c1):
    # the frozen behaviour anchor: any change to a record, ms aside, moves it
    digest = hashlib.sha256(_strip(campaign_c1["text"]).encode()).hexdigest()
    assert digest == CRIT1_DIGEST


def test_criterion_02_pairwise_intersection_arbitrary_graphs():
    import random

    rng = random.Random(555)
    checked = 0
    violations = 0
    while checked < 500:
        n = rng.randint(4, 12)
        p = 0.35 if n <= 8 else (0.55 if n <= 10 else 0.65)
        spec = GenSpec(
            n=n, k=n - 1, seed=rng.getrandbits(64), delete_probability=p, require_biconnected=True
        )
        try:
            g, _ = generate_partial_k_tree(spec)
        except Exception:
            continue
        lcs = enumerate_longest_cycles(g)
        if lcs.length == 0:
            continue
        checked += 1
        for c, d in combinations(lcs.cycles, 2):
            if len(set(c) & set(d)) < 2:
                violations += 1
                break
    _announce(2, violations == 0, f"500 arbitrary 2-connected graphs, {violations} violations")


def test_criterion_03_fenced_cycle_disjunction(campaign_c1):
    recs = campaign_c1["records"]
    applicable = [
        r for r in recs if r.get("checks", {}).get("fenced_or_shared", {}).get("status") in ("pass", "fail")
    ]
    bad = [r for r in applicable if r["checks"]["fenced_or_shared"]["status"] != "pass"]
    _announce(3, not bad, f"disjunction holds at every node of {len(applicable)} decompositions")


def test_criterion_04_dp_oracle_equivalence(corpus_tasks_c1):
    _, rand = corpus_tasks_c1
    mismatches = 0
    for task in rand[:500]:
        g = parse_graph6(task["graph6"])
        from lctw.decomposition import TreeDecomposition

        td = TreeDecomposition(
            [tuple(b) for b in task["td"]["bags"]], [tuple(e) for e in task["td"]["edges"]]
        )
        if longest_cycle_length_td(g, td) != enumerate_longest_cycles(g).length:
            mismatches += 1
    _announce(4, mismatches == 0, f"500 corpus graphs, {mismatches} oracle mismatches")


def test_criterion_05_fixture_caption_facts():
    g, nm = separation_fixture()
    S = [nm[x] for x in "abcd"]
    p1 = PathSegment.from_sequence(g, [nm["v1"], nm["a"], nm["v5"]])
    p2 = PathSegment.from_sequence(g, [nm["v3"], nm["c"], nm["d"], nm["b"], nm["v4"]])
    c1 = Cycle.from_sequence(g, [nm["v1"], nm["b"], nm["v2"], nm["d"]])
    c2 = Cycle.from_sequence(g, [nm["v3"], nm["v4"], nm["c"], nm["a"], nm["b"]])
    facts = [
        cross_or_fence(g, p1, S) is Fencing.CROSSES and k_intersect(p1, S)[0] == 1,
        cross_or_fence(g, p2, S) is Fencing.FENCED and k_intersect(p2, S)[0] == 3,
        cross_or_fence(g, c1, S) is Fencing.CROSSES and k_intersect(c1, S)[0] == 2,
        cross_or_fence(g, c2, S) is Fencing.FENCED and k_intersect(c2, S)[0] == 3,
        cross_or_fence(g, PathSegment.from_sequence(g, [nm["c"], nm["d"]]), S) is Fencing.FENCED,
        cross_or_fence(g, Cycle.from_sequence(g, [nm["a"], nm["b"], nm["d"]]), S) is Fencing.FENCED,
        s_equivalent(p2, PathSegment.from_sequence(g, [nm["v1"], nm["b"], nm["c"], nm["d"], nm["v2"]]), S),
        s_equivalent(c2, Cycle.from_sequence(g, [nm["v1"], nm["b"], nm["c"], nm["v5"], nm["a"]]), S),
    ]
    _announce(5, all(facts), f"{sum(facts)}/8 fixture facts reproduced")


def test_criterion_06_petersen_regression():
    g = petersen()
    lcs = enumerate_longest_cycles(g)
    res = compute_lct(g, family=lcs)
    ok = lcs.length == 9 and len(lcs.cycles) == 20 and res.lct == 2
    _announce(6, ok, f"length {lcs.length}, {len(lcs.cycles)} longest cycles, transversal {res.lct}")


def test_criterion_07_decomposition_invariants(campaign_c1, corpus_tasks_c1):
    recs = campaign_c1["records"]
    sep_checks = [r.get("checks", {}).get("edge_separator", {}) for r in recs]
    ran = [c for c in sep_checks if c.get("status") in ("pass", "fail")]
    violations = sum(len(c.get("violations", [])) for c in ran)
    pairs = sum(c.get("pairs", 0) for c in ran)
    # re-validate a deterministic sample of constructed decompositions directly
    _, rand = corpus_tasks_c1
    revalidated = 0
    for task in rand[:200]:
        g = parse_graph6(task["graph6"])
        td = full_tree_decomposition(g, 3)
        assert validate(g, td) == [] and td.is_full and td.width == 3
        revalidated += 1
    ok = violations == 0 and ran
    _announce(
        7,
        bool(ok),
        f"{len(ran)} decompositions, {pairs} separator pairs, {violations} violations; "
        f"{revalidated} rebuilt and revalidated",
    )


def test_criterion_08_premise_satisfying_search(corpus):
    tasks = corpus(CRIT8_SPEC, CRIT8_SEED)
    buf = io.StringIO()
    opts = CampaignOptions(checks=("jump_families", "escape_cycle"))
    code, summary = run_verify(tasks, opts, buf, workers=WORKERS)
    met = fails = instances = 0
    for line in buf.getvalue().splitlines():
        r = json.loads(line)
        chk = r["checks"]["jump_families"]
        met += chk.get("premise_met", 0)
        if chk.get("premise_met"):
            instances += 1
        if chk["status"] == "fail":
            fails += 1
    ok = fails == 0 and len(tasks) == 10000 and met > 0
    _announce(
        8,
        ok,
        f"10000 instances searched, {met} premise-satisfying contexts on {instances} instances, "
        f"{fails} conclusion failures",
    )


def test_criterion_09_two_vertex_transversal_scan(tmp_path, corpus):
    tasks = corpus(CRIT9_SPEC, CRIT9_SEED)
    report = tmp_path / "findings.jsonl"
    ce_dir = tmp_path / "ce"
    with open(report, "w") as out:
        code, summary = run_conjecture(tasks, CampaignOptions(), out, ce_dir=str(ce_dir), workers=WORKERS)
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    persisted = len(recs) == 1000
    counterexamples = [r for r in recs if r.get("finding") == "COUNTEREXAMPLE"]
    reverified = all(verify_conjecture_bundle(b)[0] for b in summary.bundles)
    consistent = sum(1 for r in recs if r.get("finding") == "consistent")
    ok = persisted and reverified and summary.errors == 0
    _announce(
        9,
        ok,
        f"1000 findings persisted: {consistent} consistent, {len(counterexamples)} counterexamples"
        + (", all bundles re-verified" if counterexamples else " (nothing to re-verify)"),
    )


def test_criterion_10_report_determinism(campaign_c1, corpus_tasks_c1):
    exhaustive, rand = corpus_tasks_c1
    code, summary, text = _run_campaign(exhaustive + rand)
    ok = _strip(text) == _strip(campaign_c1["text"])
    _announce(10, ok, "two identically-seeded campaign runs agree byte-for-byte modulo timings")
