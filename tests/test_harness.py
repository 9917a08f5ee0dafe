import dataclasses
import io
import json
import multiprocessing
import random
from functools import partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lctw.cycles
import lctw.harness as harness
import lctw.transversal as transversal
from lctw.cli import main
from lctw.cycles import DEFAULT_MAX_CYCLES, Cycle, EnumerationCapExceeded, LongestCycleSet, enumerate_longest_cycles
from lctw.fixtures import complete_graph, cycle_graph, path_graph, petersen
from lctw.graph import Graph, parse_graph6, vertex_mask, write_graph6
from lctw.harness import (
    CHECKS,
    DEFAULT_CHECKS,
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG,
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    CampaignOptions,
    check_edge_separators,
    check_family_consistency,
    corpus_tasks,
    directed_forest_diagnostic,
    evaluate_conjecture_task,
    evaluate_task,
    parse_corpus_spec,
    run_conjecture,
    run_verify,
    verify_conjecture_bundle,
    write_conjecture_bundle,
)
from lctw.transversal import FAIL, PASS, PREMISE_NOT_MET, GraphFacts, TransversalResult, build_families, conjecture_scan


def _records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def test_parse_corpus_spec():
    spec = parse_corpus_spec("k=3,n=9..14,count=50,p=0.3,biconnected=1", seed=5)
    assert (spec.k, spec.n_lo, spec.n_hi, spec.count, spec.seed) == (3, 9, 14, 50, 5)
    spec = parse_corpus_spec("mode=exhaustive,k=3,nmax=5")
    assert spec.mode == "exhaustive" and spec.n_max_exhaustive == 5
    with pytest.raises(ValueError):
        parse_corpus_spec("bogus")
    with pytest.raises(ValueError):
        parse_corpus_spec("unknown=1")


def test_parse_corpus_spec_reads_every_key():
    spec = parse_corpus_spec("k=4, n=7, count=3, p=0.5, biconnected=no, seed=9, nmax=6, retries=17", seed=1)
    assert (spec.mode, spec.k, spec.n_lo, spec.n_hi, spec.count) == ("random", 4, 7, 7, 3)
    assert (spec.delete_probability, spec.require_biconnected, spec.seed) == (0.5, False, 9)
    assert (spec.n_max_exhaustive, spec.retry_budget) == (6, 17)
    assert parse_corpus_spec("biconnected=yes,,").require_biconnected
    with pytest.raises(ValueError, match="bad corpus spec fragment 'bogus': expected key=value"):
        parse_corpus_spec("k=3,bogus")
    with pytest.raises(ValueError, match="unknown corpus spec key 'unknown'"):
        parse_corpus_spec("k=3,unknown=1")


def test_campaign_options_graph_facts_and_cli_flags_share_their_cap_defaults():
    import argparse
    import inspect

    from lctw.cli import _add_cap_flags, _caps
    from lctw.cycles import DEFAULT_ENUMERATION_CAP
    from lctw.decomposition import DEFAULT_TREEWIDTH_CAP

    parser = argparse.ArgumentParser()
    _add_cap_flags(parser)
    flags = _caps(parser.parse_args([]))
    facts = {name: inspect.signature(GraphFacts).parameters[name].default for name in flags}
    options = {name: getattr(CampaignOptions(), name) for name in flags}
    defaults = {"enumeration_cap": DEFAULT_ENUMERATION_CAP, "treewidth_cap": DEFAULT_TREEWIDTH_CAP}
    assert flags == facts == options == {**defaults, "max_cycles": DEFAULT_MAX_CYCLES}


def test_evaluate_task_fixture_record(fig):
    g, _ = fig
    rec = evaluate_task({"graph6": write_graph6(g), "source": "t"}, CampaignOptions())
    assert rec["schema"] == harness.SCHEMA
    assert rec["status"] == "ok"
    assert rec["lct"] == 1 and rec["L"] == 9
    assert rec["checks"]["shared_vertex"]["status"] == "pass"
    assert rec["checks"]["edge_separator"]["status"] == "pass"
    assert rec["checks"]["min_length_side"]["status"] == "vacuous-pass"


def test_evaluate_task_parse_error():
    rec = evaluate_task({"graph6": "~nope"}, CampaignOptions())
    assert rec["status"] == "error"
    assert "offset" in rec["error"]


def test_conjecture_parse_error_keeps_the_graph6_input():
    rec = evaluate_conjecture_task({"graph6": "~nope", "source": "t"}, CampaignOptions())
    assert rec["status"] == "error" and rec["graph6"] == "~nope"
    assert "offset" in rec["error"]


@pytest.mark.parametrize("run", [run_verify, run_conjecture])
def test_error_records_exit_with_the_config_code(run):
    code, summary = run([{"graph6": "~nope"}], CampaignOptions(), io.StringIO(), workers=1)
    assert code == EXIT_CONFIG and summary.errors == 1 and summary.ok == 0


def test_failures_and_counterexamples_take_precedence_over_errors(monkeypatch):
    def mutated(graph, **kw):
        return TransversalResult(2, (0, 1))

    def fake_scan(facts):
        return {"finding": "COUNTEREXAMPLE", "lct": 3, "L": 4, "longest_cycles": 3, "witness": [0, 1, 2]}

    monkeypatch.setattr(transversal, "compute_lct", mutated)
    monkeypatch.setattr(harness, "conjecture_scan", fake_scan)
    tasks = [{"graph6": "~nope"}, {"graph6": write_graph6(complete_graph(4))}]
    code, summary = run_verify(tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert code == EXIT_CHECK_FAILURE and summary.errors == summary.failed == 1
    code, summary = run_conjecture(tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert code == EXIT_COUNTEREXAMPLE and summary.errors == summary.counterexamples == 1


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_cli_campaign_with_an_error_record_exits_2(tmp_path, capsys, command):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("~nope\n")
    assert main([command, "--corpus", str(corpus), "--workers", "1"]) == EXIT_CONFIG
    assert "1 errors" in capsys.readouterr().err


def test_run_verify_exhaustive_small_corpus():
    tasks = corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=5"))
    buf = io.StringIO()
    code, summary = run_verify(tasks, CampaignOptions(), buf, workers=1)
    assert code == EXIT_OK
    recs = _records(buf)
    assert len(recs) == 13  # frozen class count for n <= 5
    assert all(r["status"] == "ok" for r in recs)
    assert all(r["checks"]["shared_vertex"]["status"] in ("pass", "out-of-scope") for r in recs)


def test_strict_preconditions_marks_out_of_scope(petersen_graph):
    rec = evaluate_task(
        {"graph6": write_graph6(petersen_graph)},
        CampaignOptions(strict_preconditions=True),
    )
    assert rec["status"] == "out-of-scope"
    assert "checks" in rec and not rec["checks"]


def test_lenient_mode_runs_applicable_checks(petersen_graph):
    rec = evaluate_task({"graph6": write_graph6(petersen_graph)}, CampaignOptions())
    assert rec["status"] == "ok"
    assert rec["checks"]["shared_vertex"]["status"] == "out-of-scope"
    assert rec["checks"]["pairwise_overlap"]["status"] == "pass"  # applies to any 2-connected graph


def test_injected_fault_yields_failure_and_bundle(tmp_path, monkeypatch, fig):
    g, _ = fig

    real = transversal.compute_lct

    def mutated(graph, **kw):
        res = real(graph, **kw)
        return TransversalResult(2, res.witness)

    monkeypatch.setattr(transversal, "compute_lct", mutated)
    tasks = [{"graph6": write_graph6(g)}]
    buf = io.StringIO()
    code, summary = run_verify(tasks, CampaignOptions(), buf, ce_dir=str(tmp_path), workers=1)
    assert code == EXIT_CHECK_FAILURE
    rec = _records(buf)[0]
    assert rec["status"] == "fail"
    assert rec["checks"]["shared_vertex"]["status"] == "fail"
    assert summary.bundles and (tmp_path / summary.bundles[0].split("/")[-1]).exists()


def test_run_conjecture_consistent_and_empty():
    tasks = corpus_tasks(parse_corpus_spec("k=4,n=8..10,count=12,p=0.3", seed=3))
    buf = io.StringIO()
    code, summary = run_conjecture(tasks, CampaignOptions(), buf, workers=1)
    assert code == EXIT_OK and summary.counterexamples == 0
    assert all(r["finding"] == "consistent" for r in _records(buf))
    buf = io.StringIO()
    code, summary = run_conjecture([], CampaignOptions(), buf, workers=1)
    assert code == EXIT_OK and summary.total == 0
    assert buf.getvalue() == ""


def test_run_conjecture_file_passthrough(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(write_graph6(petersen()) + "\n")
    buf = io.StringIO()
    code, summary = run_conjecture(
        harness.file_tasks(str(corpus)), CampaignOptions(), buf, workers=1
    )
    rec = _records(buf)[0]
    assert code == EXIT_OK
    assert rec["finding"] == "consistent" and rec["lct"] == 2


def test_fake_counterexample_exit_code_and_fraud_detection(tmp_path, monkeypatch):
    # force a counterexample finding on a graph whose true lct is 1; the
    # harness must exit with the distinct code and the bundle re-verification
    # must expose the fraud
    def fake_scan(g, **kw):
        found = {"lct": 3, "L": 4, "longest_cycles": 3, "witness": [0, 1, 2]}
        return {"finding": "COUNTEREXAMPLE", **found, "refutation": [[0, 1, [0, 2, 1, 3]]]}

    monkeypatch.setattr(harness, "conjecture_scan", fake_scan)
    tasks = [{"graph6": write_graph6(complete_graph(4))}]
    buf = io.StringIO()
    code, summary = run_conjecture(tasks, CampaignOptions(), buf, ce_dir=str(tmp_path), workers=1)
    assert code == EXIT_COUNTEREXAMPLE
    assert summary.counterexamples == 1 and summary.bundles
    ok, detail = verify_conjecture_bundle(summary.bundles[0])
    assert not ok and "lct" in detail


def test_conjecture_bundle_enumerates_under_the_campaign_cap(tmp_path, monkeypatch):
    # a counterexample beyond the default cap of 18 but within the campaign's
    def fake_scan(g, **kw):
        return {"finding": "COUNTEREXAMPLE", "lct": 3, "L": 19, "longest_cycles": 1, "witness": [0, 1, 2]}

    monkeypatch.setattr(harness, "conjecture_scan", fake_scan)
    tasks = [{"graph6": write_graph6(cycle_graph(19))}]
    opts = CampaignOptions(enumeration_cap=20)
    code, summary = run_conjecture(tasks, opts, io.StringIO(), ce_dir=str(tmp_path), workers=1)
    assert code == EXIT_COUNTEREXAMPLE
    lines = open(summary.bundles[0]).read().splitlines()
    cycles = lines[lines.index("cycles:") + 1 : lines.index("refutation:")]
    assert cycles == ["  " + " ".join(map(str, range(19)))]
    assert "enumeration-cap: 20" in lines
    # re-verified under the bundled cap, the fake lct of 3 is exposed
    ok, detail = verify_conjecture_bundle(summary.bundles[0])
    assert not ok and "lct" in detail


def _family_budget_by_default(monkeypatch, budget):
    """Make the harness's enumeration keep at most ``budget`` cycles unless
    told otherwise, as the default budget does for a family past it."""
    real = harness.enumerate_longest_cycles

    def enumerate_within(g, cap=lctw.cycles.DEFAULT_ENUMERATION_CAP, max_steps=None, max_cycles=budget):
        return real(g, cap=cap, max_steps=max_steps, max_cycles=max_cycles)

    monkeypatch.setattr(harness, "enumerate_longest_cycles", enumerate_within)


def test_conjecture_bundle_enumerates_under_the_campaign_budgets(tmp_path, monkeypatch):
    # K6's 60 Hamiltonian cycles are past the default family budget but within
    # the campaign's, so the bundle lists them all instead of the run ending in
    # a traceback
    _family_budget_by_default(monkeypatch, 5)

    def fake_scan(g, **kw):
        return {"finding": "COUNTEREXAMPLE", "lct": 3, "L": 6, "longest_cycles": 60, "witness": [0, 1, 2]}

    monkeypatch.setattr(harness, "conjecture_scan", fake_scan)
    tasks = [{"graph6": write_graph6(complete_graph(6))}]
    code, summary = run_conjecture(tasks, CampaignOptions(max_cycles=60), io.StringIO(), ce_dir=str(tmp_path), workers=1)
    assert code == EXIT_COUNTEREXAMPLE
    lines = open(summary.bundles[0]).read().splitlines()
    assert lines.index("refutation:") - lines.index("cycles:") - 1 == 60


def test_a_bundle_past_the_enumeration_budget_is_refused(tmp_path):
    # re-verifying a bundle whose family its budget cannot hold (as the
    # default cannot hold K11's 1,814,400 Hamiltonian cycles) returns a
    # reason, not a traceback
    record = {"graph6": write_graph6(complete_graph(6)), "lct": 3, "L": 6, "longest_cycles": 60, "refutation": []}
    path = write_conjecture_bundle(str(tmp_path), record)
    text = open(path).read()
    assert f"max-cycles: {DEFAULT_MAX_CYCLES}\n" in text
    with open(path, "w") as fh:
        fh.write(text.replace(f"max-cycles: {DEFAULT_MAX_CYCLES}\n", "max-cycles: 5\n"))
    assert verify_conjecture_bundle(path) == (
        False,
        "cannot re-verify: enumeration kept more than 5 longest cycles; no partial results",
    )


def test_a_bundle_re_verifies_under_the_budget_it_was_written_with(tmp_path, monkeypatch):
    # K6's 60 Hamiltonian cycles, written under a campaign budget of 60 while
    # the default budget keeps 5: the bundle names its budget, and
    # re-verification enumerates under it, not under the default
    _family_budget_by_default(monkeypatch, 5)
    record = {"graph6": write_graph6(complete_graph(6)), "lct": 1, "L": 6, "longest_cycles": 60, "refutation": []}
    path = write_conjecture_bundle(str(tmp_path), record, CampaignOptions(max_cycles=60))
    assert "max-cycles: 60" in open(path).read().splitlines()
    assert verify_conjecture_bundle(path) == (True, "bundle re-verified")


def test_bundle_roundtrip_on_true_values(tmp_path):
    # a bundle holding the true facts for the Petersen graph re-verifies
    record = {
        "graph6": write_graph6(petersen()),
        "lct": 2,
        "L": 9,
        "longest_cycles": 20,
        "refutation": [],
    }
    path = write_conjecture_bundle(str(tmp_path), record)
    ok, detail = verify_conjecture_bundle(path)
    assert ok, detail
    # tampering with the claimed transversal number must be caught
    text = open(path).read().replace("lct: 2", "lct: 3")
    with open(path, "w") as fh:
        fh.write(text)
    ok, detail = verify_conjecture_bundle(path)
    assert not ok


def test_counterexample_scan_bundle_re_verifies_and_refuses_tampering(tmp_path):
    # three disjoint triangles, declared 2-connected: the lct >= 3 branch of
    # the scan, and the refutation checks of the bundle re-verification
    g = Graph(9, [(a + i, a + j) for a in (0, 3, 6) for i, j in ((0, 1), (1, 2), (0, 2))])
    facts = GraphFacts(g)
    facts.biconnected = True
    record = {"graph6": write_graph6(g), **conjecture_scan(facts)}
    assert record["finding"] == "COUNTEREXAMPLE"
    assert (record["lct"], record["witness"], record["L"], record["longest_cycles"]) == (3, [0, 3, 6], 3, 3)
    assert len(record["refutation"]) == 36
    path = write_conjecture_bundle(str(tmp_path), record)
    assert verify_conjecture_bundle(path) == (True, "bundle re-verified")
    text = open(path).read()
    rows = [ln for ln in text.splitlines(True) if ln.startswith("  pair ")]
    assert rows[0] == "  pair 0 1 missed-by 3 4 5\n"
    for tampered, reason in (
        (text.replace(rows[1], ""), "refutation does not cover every vertex pair"),
        (text.replace(rows[0], "  pair 0 1 missed-by 0 1 2\n"), "bad refutation line for pair (0,1)"),
    ):
        with open(path, "w") as fh:
            fh.write(tampered)
        assert verify_conjecture_bundle(path) == (False, reason)


def _list_first_cycle_twice(text):
    head, cycles = text.split("cycles:\n")
    return f"{head}cycles:\n{cycles.splitlines()[0]}\n{cycles}"


def _swap_first_cycle_for_a_non_member(text):
    # (4, 5) is no edge of the Petersen graph, so no longest cycle of it runs
    # 0 1 2 3 4 5 6 7 8: the rows stay distinct and only the family differs
    head, cycles = text.split("cycles:\n")
    return f"{head}cycles:\n" + cycles.replace(cycles.splitlines()[0], "  0 1 2 3 4 5 6 7 8", 1)


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (lambda text: "".join(ln for ln in text.splitlines(True) if not ln.startswith("graph6:")), "KeyError"),
        (lambda text: text.replace("cycles:\n", "cycles:\n  0 1\n"), "ValueError"),
        (lambda text: text.replace(f"graph6: {write_graph6(petersen())}", "graph6: !"), "Graph6Error"),
        (lambda text: text.replace("longest-cycle-count: 20", "longest-cycle-count: 21"), "longest-cycle count 20"),
        (_list_first_cycle_twice, "a cycle is listed twice"),
        (lambda text: text.replace("enumeration-cap: 18", "enumeration-cap: 9"), "EnumerationCapExceeded"),
        (lambda text: text.replace("lctw.bundle/1\n", "lctw.bundle/2\n", 1), "unknown bundle schema"),
        (lambda text: text.replace("longest-cycle-length: 9", "longest-cycle-length: 10"), "longest cycle length mismatch"),
        (_swap_first_cycle_for_a_non_member, "cycle family mismatch"),
    ],
    ids=["no-graph6", "two-vertex-cycle", "bad-graph6", "wrong-count", "cycle-twice", "cap-below-n", "schema", "wrong-length", "foreign-cycle"],
)
def test_a_malformed_or_inconsistent_bundle_is_refused(tmp_path, tamper, reason):
    record = {"graph6": write_graph6(petersen()), "lct": 2, "L": 9, "longest_cycles": 20, "refutation": []}
    path = write_conjecture_bundle(str(tmp_path), record)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(tamper(text))
    ok, detail = verify_conjecture_bundle(path)
    assert not ok and reason in detail


def _run_campaigns(checks):
    """Run the corpus build, verify with ``checks`` and the conjecture scan
    over a random k = 3 corpus and the nmax = 6 exhaustive corpus."""
    for spec in ("k=3,n=7..10,count=40,p=0.25", "mode=exhaustive,k=3,nmax=6"):
        tasks = corpus_tasks(parse_corpus_spec(spec, seed=5))
        for run, opts in ((run_verify, CampaignOptions(checks=checks)), (run_conjecture, CampaignOptions())):
            _, summary = run(tasks, opts, io.StringIO(), workers=1)
            assert summary.total == len(tasks) and summary.errors == 0, (spec, run.__name__)


def _campaigns_without(monkeypatch, cls, names):
    """``_run_campaigns`` with every check, with the properties ``names`` of
    ``cls`` failing the test when read."""
    reads = []

    def guarded(name):
        def read(obj):
            reads.append(name)
            pytest.fail(f"{cls.__name__}.{name} read during a campaign")

        return property(read)

    for name in names:
        monkeypatch.setattr(cls, name, guarded(name))
    _run_campaigns(tuple(CHECKS))
    assert reads == []


def test_campaigns_read_only_the_neighbour_masks(monkeypatch):
    # Graph.adj and Graph.edges rebuild the adjacency from the masks on every
    # read, so the corpus build, every check and the conjecture scan must not
    # read them
    _campaigns_without(monkeypatch, Graph, ("adj", "edges"))


def test_campaigns_read_only_the_node_masks(monkeypatch):
    # TreeDecomposition.node_adj rebuilds the tree's adjacency from its node
    # masks on every read, so no campaign code may read it
    from lctw.decomposition import TreeDecomposition

    _campaigns_without(monkeypatch, TreeDecomposition, ("node_adj",))


def test_campaigns_build_no_bag_tuples(monkeypatch):
    # the exact and full decompositions hold bag masks only, and every check
    # reads triples as masks: no campaign builds the bag tuples of a
    # decomposition built here.  td_oracle's nice-op DP reads bag tuples by
    # design, so it is left out
    from lctw.decomposition import TreeDecomposition

    built = []
    read = TreeDecomposition.bags.fget

    def bags(td):
        if td._bags is None:
            built.append(td)
            pytest.fail("bag tuples built during a campaign")
        return read(td)

    monkeypatch.setattr(TreeDecomposition, "bags", property(bags))
    _run_campaigns(tuple(name for name in CHECKS if name != "td_oracle"))
    assert built == []


def _mixed_tasks():
    """A random corpus with an error, an out-of-scope and a tree task spread
    through it: 44 tasks, chunks of 6 at workers=2, four chunks a worker."""
    tasks = corpus_tasks(parse_corpus_spec("k=3,n=7..11,count=40,p=0.3", seed=77))
    extra = [{"graph6": "~nope", "source": "bad"}, {"graph6": "?", "source": "empty"}]
    extra += [{"graph6": write_graph6(g), "source": "extra"} for g in (path_graph(5), complete_graph(6))]
    for i, task in zip((3, 17, 29, 41), extra):
        tasks.insert(i, task)
    return tasks


def _stripped(buf):
    return [{**r, "ms": None} for r in _records(buf)]


def test_report_determinism_across_workers():
    # exit code, every summary field and the report modulo ms agree between
    # the serial path and a pool, for both campaigns
    tasks = _mixed_tasks()
    summaries = {}
    for run in (run_verify, run_conjecture):
        outs = []
        for workers in (1, 2):
            buf = io.StringIO()
            code, summary = run(tasks, CampaignOptions(), buf, workers=workers)
            outs.append((code, dataclasses.asdict(summary), _stripped(buf)))
        assert outs[0] == outs[1], run.__name__
        code, summaries[run], records = outs[0]
        assert code == EXIT_CONFIG and len(records) == len(tasks) and summaries[run]["errors"] == 1
    verify, scan = summaries[run_verify], summaries[run_conjecture]
    assert verify["ok"] == len(tasks) - 2 and verify["out_of_scope"] == 1  # the empty graph
    assert verify["vacuous"]["min_length_side"] > 0 and not scan["vacuous"]
    assert scan["ok"] == len(tasks) - 4 and scan["out_of_scope"] == 3  # the empty graph, the tree and K6


def _stub_clock(monkeypatch):
    # every record's ms is 0, so records and bundles compare byte for byte
    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=lambda: 0.0))


def test_parallel_failure_bundles_match_the_serial_ones(monkeypatch, tmp_path):
    # a bundle is written from the record the worker serialized: under fork,
    # where the workers inherit the patched row, a pool writes the same
    # bundles, report and summary as the serial path
    _stub_clock(monkeypatch)
    monkeypatch.setattr(harness, "Pool", multiprocessing.get_context("fork").Pool)
    gate, premise, _ = CHECKS["shared_vertex"]
    monkeypatch.setitem(CHECKS, "shared_vertex", (gate, premise, lambda f: {"status": FAIL, "detail": "forced"}))
    tasks = _mixed_tasks()
    outs = []
    for workers in (1, 2):
        buf, ce_dir = io.StringIO(), tmp_path / f"w{workers}"
        code, summary = run_verify(tasks, CampaignOptions(), buf, ce_dir=str(ce_dir), workers=workers)
        bundles = [(Path(path).name, Path(path).read_bytes()) for path in summary.bundles]
        assert sorted(name for name, _ in bundles) == sorted(path.name for path in ce_dir.iterdir())
        outs.append((code, summary.failed, summary.vacuous, buf.getvalue(), bundles))
    assert outs[0] == outs[1]
    code, failed, _, report, bundles = outs[0]
    assert code == EXIT_CHECK_FAILURE and failed == len(bundles) > 10
    lines = report.splitlines()  # each bundle holds its record's report line as written
    assert all(text.decode().splitlines()[-1].removeprefix("record: ") in lines for _, text in bundles)


def test_campaigns_of_at_most_one_task_never_start_a_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness, "Pool", refuse)
    task = {"graph6": write_graph6(complete_graph(4))}
    for run in (run_verify, run_conjecture):
        for tasks in ([task], []):
            buf = io.StringIO()
            code, summary = run(tasks, CampaignOptions(), buf, workers=2)
            assert code == EXIT_OK and summary.total == summary.ok == len(tasks) == len(_records(buf))


def test_pools_take_one_worker_per_task_and_chunks_of_a_quarter_share(monkeypatch):
    # Pool.map's rule: len(tasks) / (4 * workers), rounded up
    started = []

    class SerialPool:
        def __init__(self, workers):
            self.workers = workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            started.append((self.workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(harness, "Pool", SerialPool)
    task = {"graph6": write_graph6(complete_graph(4))}
    for count, workers in ((40, 2), (33, 2), (10, 8), (3, 8), (2, 2)):
        _, summary = run_conjecture([task] * count, CampaignOptions(), io.StringIO(), workers=workers)
        assert summary.ok == count
    assert started == [(2, 5), (2, 5), (8, 1), (3, 1), (2, 1)]


def test_directed_forest_diagnostic_instances(fig):
    g, _ = fig
    diag = directed_forest_diagnostic(GraphFacts(g))
    # Hamiltonian longest cycles meet every bag four times: empty forest
    assert diag["arc_count"] == 0
    assert "empty-forest" in diag["halt"]
    assert diag["lct"] == 1
    # frozen instance with one arc and no returning cycle
    g2 = parse_graph6("GntWr_")
    diag2 = directed_forest_diagnostic(GraphFacts(g2))
    assert diag2["arc_count"] >= 1
    assert "no-returning-cycle" in diag2["halt"]


def test_directed_forest_corpus_sweep_statistics(small_corpus):
    from lctw.decomposition import has_treewidth_at_most_2
    from lctw.graph import is_biconnected

    halts = {}
    for g, natural in small_corpus:
        if not is_biconnected(g) or has_treewidth_at_most_2(g):
            continue
        diag = directed_forest_diagnostic(GraphFacts(g))
        key = diag["halt"].split(":")[0]
        halts[key] = halts.get(key, 0) + 1
        # on genuine width-3 graphs the construction never completes the
        # contradiction configuration
        assert "contradiction configuration candidate" not in diag["halt"]
    assert halts  # swept something


def _forest_reference(facts):
    """The directed forest as first stated, on set branches: t -> t' when
    ``branch_of_route`` puts a fenced cycle of t in the branch holding t'."""
    from lctw.decomposition import branch_of_route

    td, families = facts.td3, facts.families

    def lives_toward(t, tp, c):
        return tp in branch_of_route(td, t, c).nodes

    arcs = []
    for a, b in sorted(td.tree_edges):
        for t, tp in ((a, b), (b, a)):
            if any(lives_toward(t, tp, c) for c, _ in families(t).fenced3):
                arcs.append((t, tp))
    out = {"arcs": [list(a) for a in arcs]}
    if not arcs:
        return {**out, "halt": "empty-forest: no fenced cycle selects a branch"}
    arc_map = {}
    for t, tp in arcs:
        arc_map.setdefault(t, []).append(tp)
    path = [min(arc_map)]
    while True:
        nxt = [x for x in arc_map.get(path[-1], []) if x not in path]
        if not nxt:
            break
        path.append(min(nxt))
    out["maximal_path"] = path
    t, tp = path[-2], path[-1]
    cyc_c = next(c for c, _ in families(t).fenced3 if lives_toward(t, tp, c))
    cyc_d = next((d for d, _ in families(tp).fenced3 if lives_toward(tp, t, d)), None)
    out["last_arc"] = [t, tp]
    if cyc_d is None:
        return {**out, "halt": f"no-returning-cycle: no fenced cycle at node {tp} lives toward node {t}"}
    out["antipodal_pair"] = {"C": list(cyc_c), "D": list(cyc_d)}
    if facts.lct.lct == 1:
        out["halt"] = (
            "all longest cycles share a vertex: no longest cycle avoiding a shared "
            "bag vertex exists, so the contradiction step cannot proceed"
        )
    else:
        out["halt"] = "contradiction configuration candidate: inspect manually"
    return out


def test_directed_forest_matches_the_set_branch_reference(small_corpus):
    keys = ("arcs", "maximal_path", "last_arc", "antipodal_pair", "halt")
    halts = set()
    for g, natural in small_corpus:
        for td in (natural, None):
            facts = GraphFacts(g, td)
            if not (facts.biconnected and facts.tw_eq_3):
                continue
            diag = directed_forest_diagnostic(facts)
            ref = _forest_reference(GraphFacts(g, td))
            assert {k: diag.get(k) for k in keys} == {k: ref.get(k) for k in keys}
            halts.add(diag["halt"].split(":")[0])
    assert {"empty-forest", "no-returning-cycle"} <= halts


def test_directed_forest_preconditions(c5):
    from lctw.fixtures import path_graph

    with pytest.raises(ValueError):
        directed_forest_diagnostic(GraphFacts(path_graph(4)))
    with pytest.raises(ValueError):
        directed_forest_diagnostic(GraphFacts(c5))  # treewidth 2


def test_cli_inspect_and_exit_codes(capsys):
    assert main(["inspect", "C~"]) == 0
    out = capsys.readouterr().out
    assert "treewidth: 3" in out and "lct: 1" in out
    assert main(["inspect", "~bad"]) == EXIT_CONFIG


def test_cli_inspect_families(capsys):
    assert main(["inspect", "Dhc", "--families"]) == 0
    out = capsys.readouterr().out
    assert "triple" in out
    assert main(["inspect", "FiuqO", "--families"]) == 0
    assert capsys.readouterr().out == FIUQO_FAMILIES


# nonzero exact3, jump2 and jump3 counts: the printed form of triples and pairs
FIUQO_FAMILIES = """\
graph6: FiuqO
n: 7  m: 11
biconnected: yes
treewidth: 3
full decomposition (width 3):
  node 0: {0,1,4,6}
  node 1: {0,2,3,5}
  node 2: {0,1,3,4}
  node 3: {0,1,2,3}
  edges: 0-2 1-3 2-3
longest cycle length: 6
longest cycles: 6
enumeration steps: 33
lct: 1  witness: {1}
node 0 bag {0,1,4,6}:
  2-crossing: 0  fenced<=3: 3
  triple {0,1,4}: exact3 2, jump2 {'01': 0, '04': 0, '14': 1}, jump3 3
  triple {0,1,6}: exact3 0, jump2 {'01': 1, '06': 0, '16': 1}, jump3 3
  triple {0,4,6}: exact3 0, jump2 {'04': 2, '06': 0, '46': 1}, jump3 3
  triple {1,4,6}: exact3 1, jump2 {'14': 0, '16': 0, '46': 0}, jump3 4
node 1 bag {0,2,3,5}:
  2-crossing: 0  fenced<=3: 4
  triple {0,2,3}: exact3 0, jump2 {'02': 1, '03': 2, '23': 1}, jump3 2
  triple {0,2,5}: exact3 1, jump2 {'02': 0, '05': 2, '25': 1}, jump3 3
  triple {0,3,5}: exact3 2, jump2 {'03': 0, '05': 1, '35': 1}, jump3 4
  triple {2,3,5}: exact3 1, jump2 {'23': 0, '25': 1, '35': 2}, jump3 3
node 2 bag {0,1,3,4}:
  2-crossing: 0  fenced<=3: 0
  triple {0,1,3}: exact3 0, jump2 {'01': 1, '03': 0, '13': 1}, jump3 4
  triple {0,1,4}: exact3 1, jump2 {'01': 0, '04': 0, '14': 1}, jump3 5
  triple {0,3,4}: exact3 0, jump2 {'03': 0, '04': 1, '34': 1}, jump3 4
  triple {1,3,4}: exact3 1, jump2 {'13': 0, '14': 0, '34': 0}, jump3 5
node 3 bag {0,1,2,3}:
  2-crossing: 0  fenced<=3: 0
  triple {0,1,2}: exact3 1, jump2 {'01': 1, '02': 0, '12': 1}, jump3 3
  triple {0,1,3}: exact3 2, jump2 {'01': 1, '03': 0, '13': 1}, jump3 4
  triple {0,2,3}: exact3 0, jump2 {'02': 1, '03': 2, '23': 1}, jump3 2
  triple {1,2,3}: exact3 1, jump2 {'12': 1, '13': 1, '23': 0}, jump3 3
"""


def test_cli_inspect_petersen(capsys):
    assert main(["inspect", write_graph6(petersen())]) == 0
    out = capsys.readouterr().out
    assert "treewidth: 4" in out
    assert "longest cycle length: 9" in out
    steps = enumerate_longest_cycles(petersen()).steps
    assert f"longest cycles: 20\nenumeration steps: {steps}\n" in out
    assert "lct: 2" in out


def test_cli_inspect_empty_graph_is_config_error(capsys):
    assert main(["inspect", "?"]) == EXIT_CONFIG
    assert "error: treewidth of the empty graph" in capsys.readouterr().err


def test_the_empty_graph_is_out_of_scope_in_both_evaluators(tmp_path):
    # no decomposition exists, so neither campaign applies: the record says
    # why, and a verify corpus holding the empty graph exits 0
    for evaluate in (evaluate_task, evaluate_conjecture_task):
        rec = evaluate({"graph6": "?"}, CampaignOptions())
        assert (rec["status"], rec["n"]) == ("out-of-scope", 0) and rec["error"]
        assert "checks" not in rec
    corpus = tmp_path / "empty.g6"
    corpus.write_text("?\n")
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", str(corpus), "--workers", "1", "--out", str(report)]) == EXIT_OK
    assert [json.loads(line)["status"] for line in report.read_text().splitlines()] == ["out-of-scope"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["inspect", "GntWr_", "--tw-cap", "7"], "exact treewidth needs n <= 7, got 8"),
        (["directed-forest", "GntWr_", "--tw-cap", "7"], "exact treewidth needs n <= 7, got 8"),
        (["directed-forest", "GntWr_", "--max-n", "7"], "enumeration needs n <= 7, got 8"),
    ],
)
def test_cli_single_graph_lowered_cap_is_config_error(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_verify_and_generate(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    assert main(["generate", "--spec", "k=3,n=7..9,count=5,p=0.2", "--seed", "4", "--out", str(corpus)]) == 0
    assert len(corpus.read_text().splitlines()) == 5
    report = tmp_path / "rep.jsonl"
    rc = main(["verify", "--corpus", str(corpus), "--workers", "1", "--out", str(report)])
    assert rc == EXIT_OK
    assert len(report.read_text().splitlines()) == 5
    rc = main(["verify", "--corpus", str(tmp_path / "missing.g6"), "--workers", "1"])
    assert rc == EXIT_CONFIG


CLI_CORPUS = {
    "generate": ["--spec", "k=3,n=7..9,count=2,p=0.2"],
    "verify": ["--generate", "k=3,n=7..9,count=2,p=0.2", "--workers", "1"],
    "conjecture": ["--generate", "k=4,n=8..9,count=2,p=0.3", "--workers", "1"],
}


@pytest.mark.parametrize("command", ["generate", "verify", "conjecture"])
def test_cli_unwritable_out_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "report"
    assert main([command, *CLI_CORPUS[command], "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(out) in err


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_cli_uncreatable_counterexample_dir_is_config_error(tmp_path, capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = tmp_path / "report.jsonl"
    argv = [command, *CLI_CORPUS[command], "--counterexample-dir", str(blocker / "ce"), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()  # refused before the report is opened


def test_cli_verify_strict_preconditions(tmp_path):
    corpus = tmp_path / "pet.g6"
    corpus.write_text(write_graph6(petersen()) + "\n")
    report = tmp_path / "rep.jsonl"
    rc = main(
        ["verify", "--corpus", str(corpus), "--workers", "1", "--strict-preconditions", "--out", str(report)]
    )
    assert rc == EXIT_OK
    rec = json.loads(report.read_text().splitlines()[0])
    assert rec["status"] == "out-of-scope"


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_cli_campaign_over_the_family_budget_is_out_of_scope(tmp_path, capsys, command):
    # Petersen is 2-connected with treewidth 4 and has 20 longest cycles.
    corpus = tmp_path / "pet.g6"
    corpus.write_text(write_graph6(petersen()) + "\n")
    report = tmp_path / "rep.jsonl"
    argv = [command, "--corpus", str(corpus), "--workers", "1", "--max-cycles", "5", "--out", str(report)]
    assert main(argv) == EXIT_OK
    rec = json.loads(report.read_text())
    assert (rec["status"], rec["error"]) == (
        "out-of-scope",
        "enumeration kept more than 5 longest cycles; no partial results",
    )
    assert "1 out-of-scope" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "conjecture", "inspect", "directed-forest"])
def test_cli_negative_family_budget_is_config_error(capsys, command):
    args = CLI_CORPUS.get(command, [write_graph6(petersen())])
    with pytest.raises(SystemExit) as exc:  # refused while parsing, before any graph is read
        main([command, *args, "--max-cycles", "-1"])
    assert exc.value.code == EXIT_CONFIG
    assert "--max-cycles: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-n", "--tw-cap"])
@pytest.mark.parametrize("command", ["verify", "conjecture", "inspect", "directed-forest"])
def test_cli_negative_cap_is_config_error(capsys, command, flag):
    # a negative cap would make every graph out-of-scope and the run exit 0
    args = CLI_CORPUS.get(command, [write_graph6(petersen())])
    with pytest.raises(SystemExit) as exc:  # refused while parsing, before any graph is read
        main([command, *args, flag, "-1"])
    assert exc.value.code == EXIT_CONFIG
    assert f"{flag}: must be >= 0, got -1" in capsys.readouterr().err


def test_default_workers_are_the_cpus_the_process_may_use(monkeypatch):
    # under taskset or a cpuset the affinity, not the machine, bounds the pool
    import os

    from lctw.cli import _workers

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert [_workers(SimpleNamespace(workers=w)) for w in (None, 0, 3)] == [1, 1, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers(SimpleNamespace(workers=None)) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _workers(SimpleNamespace(workers=None)) == 1


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_cli_negative_workers_is_config_error(capsys, command):
    # a negative count ran serially and exited 0
    with pytest.raises(SystemExit) as exc:  # refused while parsing, before any graph is read
        main([command, *CLI_CORPUS[command], "--workers", "-3"])
    assert exc.value.code == EXIT_CONFIG
    assert "--workers: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "g, reason",
    [
        (complete_graph(6), "conjecture scan requires treewidth <= 4, got a decomposition of width 5"),
        (path_graph(5), "conjecture scan requires a 2-connected graph"),
    ],
    ids=["K6", "not-2-connected"],
)
def test_cli_conjecture_outside_its_premise_is_out_of_scope(tmp_path, capsys, g, reason):
    corpus = tmp_path / "g.g6"
    corpus.write_text(write_graph6(g) + "\n")
    report = tmp_path / "rep.jsonl"
    assert main(["conjecture", "--corpus", str(corpus), "--workers", "1", "--out", str(report)]) == EXIT_OK
    rec = json.loads(report.read_text())
    assert (rec["status"], rec["error"]) == ("out-of-scope", reason)
    assert "1 out-of-scope, 0 errors" in capsys.readouterr().err


def test_cli_directed_forest(capsys):
    g2 = "GntWr_"
    assert main(["directed-forest", g2]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["arc_count"] >= 1


@pytest.mark.parametrize(
    "argv, code, stream, lines",
    [
        (["inspect", write_graph6(path_graph(4))], 0, "out", ["longest cycle: none (acyclic)"]),
        (
            ["inspect", write_graph6(cycle_graph(3))],
            0,
            "out",
            ["full decomposition: none (no width-3 decomposition (n < 4))", "lct: 1  witness: {0}"],
        ),
        (
            ["inspect", write_graph6(complete_graph(5)), "--families"],
            0,
            "out",
            ["families: need a full width-3 decomposition (treewidth <= 3, n >= 4)"],
        ),
        (["directed-forest", write_graph6(path_graph(4))], EXIT_CONFIG, "err", ["error: diagnostic requires a 2-connected graph"]),
        (["directed-forest", write_graph6(complete_graph(5))], EXIT_CONFIG, "err", ["error: diagnostic requires treewidth exactly 3"]),
    ],
    ids=["inspect-acyclic", "inspect-no-td3", "inspect-families-width-4", "dforest-not-2-connected", "dforest-width-4"],
)
def test_cli_single_graph_ends_cleanly_outside_the_premises(capsys, argv, code, stream, lines):
    # each of lines is printed, the last of them as the last line
    assert main(argv) == code
    printed = getattr(capsys.readouterr(), stream).splitlines()
    assert set(lines) <= set(printed) and printed[-1] == lines[-1]


def test_cli_conjecture(tmp_path):
    report = tmp_path / "findings.jsonl"
    rc = main(
        [
            "conjecture",
            "--generate",
            "k=4,n=8..10,count=6,p=0.3",
            "--seed",
            "2",
            "--workers",
            "1",
            "--out",
            str(report),
        ]
    )
    assert rc == EXIT_OK
    recs = [json.loads(x) for x in report.read_text().splitlines()]
    assert len(recs) == 6 and all(r["finding"] == "consistent" for r in recs)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("k=0,count=3", "k must be at least 1, got 0"),
        ("n=9..4,count=3", "n range 9..4 is empty"),
        ("count=-1", "count must be non-negative, got -1"),
        ("retries=0,count=3", "retries must be at least 1, got 0"),
    ],
    ids=["k", "n", "count", "retries"],
)
def test_cli_out_of_range_corpus_spec_is_config_error(tmp_path, capsys, spec, message):
    # refused when parsed, before any draw and before the output is opened
    out = tmp_path / "corpus.g6"
    assert main(["generate", "--spec", spec, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_cli_generation_retry_exhaustion_is_config_error():
    rc = main(["verify", "--generate", "k=3,n=10,count=3,p=0.85", "--seed", "1", "--workers", "1"])
    assert rc == EXIT_CONFIG


def _chain_with_uncovered_edge():
    """Three bags in a path, each a clique, plus the edge (0, 5) that no bag
    covers: the decomposition passes ``require_valid`` for the graph without
    that edge, but not for the graph returned, so separators leak."""
    from lctw.decomposition import TreeDecomposition, require_valid
    from lctw.graph import Graph

    bags = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
    cliques = {(u, v) for bag in bags for u in bag for v in bag if u < v}
    td = TreeDecomposition(bags, [(0, 1), (1, 2)])
    require_valid(Graph(6, cliques), td)
    return Graph(6, cliques | {(0, 5)}), td


def _separator_reference(g, td):
    """The sweep stated pair by pair with check_separator_property."""
    from lctw.decomposition import branch_at, check_separator_property

    pairs, violations = 0, []
    for a, b in sorted(td.tree_edges):
        for t, tp in ((a, b), (b, a)):
            for u in sorted(branch_at(td, t, tp).vertices):
                for v in sorted(branch_at(td, tp, t).vertices):
                    pairs += 1
                    if not check_separator_property(g, td, (t, tp), u, v):
                        violations.append([t, tp, u, v])
    return {"status": "fail" if violations else "pass", "pairs": pairs, "violations": violations}


def test_edge_separator_sweep_matches_pairwise_reference(small_corpus):
    from lctw.decomposition import full_tree_decomposition

    for g, natural in small_corpus:
        td = full_tree_decomposition(g, 3, base=natural)
        assert check_edge_separators(g, td) == _separator_reference(g, td)
    g, td = _chain_with_uncovered_edge()
    sweep = check_edge_separators(g, td)
    assert sweep == _separator_reference(g, td)
    assert sweep["status"] == "fail" and len(sweep["violations"]) > 1


def test_families_check_flags_a_straddling_component():
    from lctw.cycles import enumerate_longest_cycles

    g, td = _chain_with_uncovered_edge()
    # at node 1 the component {0, 5} of G - bag meets the inside set {0,1,2,3}
    # of triple (1, 2, 3) and its complement
    cycles = enumerate_longest_cycles(g)
    out = check_family_consistency(td, lambda t: build_families(g, td, t, cycles))
    assert out["status"] == "fail" and out["detail"].startswith("node 1:")


def _family_consistency_reference(td, families):
    """check_family_consistency stated on the components of G - bag."""
    for t in range(td.node_count):
        node = families(t)
        for delta in combinations(td.bags[t], 3):
            inside = node.inside[vertex_mask(delta)]
            if any(comp & inside and comp & ~inside for comp in node.components):
                return {"status": FAIL, "detail": f"node {t}: a component straddles the inside set of {list(delta)}"}
    return {"status": PASS}


def _validate_reference(g, td):
    """validate stated on node lists and sets; a bag entry names a vertex
    only when it is an exact int (so not a bool or a float)."""
    from lctw.decomposition import _reach

    out = []
    nodes = td.node_count
    if len(td.tree_edges) != nodes - 1:
        out.append(f"tree-shape: {nodes} nodes need {nodes - 1} edges, found {len(td.tree_edges)}")
    reached = len(_reach(td, 0))
    if reached != nodes:
        out.append(f"tree-shape: tree is disconnected (reached {reached} of {nodes} nodes)")
    holders: dict[int, list[int]] = {v: [] for v in range(g.n)}  # vertex -> nodes holding it
    for t, bag in enumerate(td.bags):
        for v in bag:
            if type(v) is int and v in holders:
                holders[v].append(t)
            else:
                out.append(f"bag-range: node {t} holds out-of-range vertex {v}")
    out += [f"vertex-cover: vertex {v} is in no bag" for v, ts in holders.items() if not ts]
    out += [
        f"edge-cover: edge ({u},{v}) is in no bag"
        for u, v in sorted(g.edges)
        if set(holders[u]).isdisjoint(holders[v])
    ]
    out += [
        f"subtree-connectivity: nodes holding vertex {v} are disconnected"
        for v, ts in holders.items()
        if ts and len(_reach(td, ts[0], set(ts))) != len(ts)
    ]
    return out


def _vertex_on_both_sides_of_an_edge():
    """A path of four bags where vertex 0 is held by the two end bags only and
    its one neighbour by all four: across the middle tree edge vertex 0 lies
    on both sides, which subtree connectivity rules out, so ``require_valid``
    refuses it and the mask checks never see it."""
    from lctw.decomposition import TreeDecomposition

    return Graph(2, [(0, 1)]), TreeDecomposition([(0, 1), (1,), (1,), (0, 1)], [(0, 1), (1, 2), (2, 3)])


def _decomposition_cases(small_corpus):
    """(g, td) pairs: the small corpus with its generator decompositions and
    their full width-3 decompositions, the exhaustive nmax = 6 corpus with
    its optimal and full width-3 decompositions, the chain with an uncovered
    edge and the path with a vertex on both sides of an edge."""
    from lctw.decomposition import full_tree_decomposition

    cases = [_chain_with_uncovered_edge(), _vertex_on_both_sides_of_an_edge()]
    for g, natural in small_corpus:
        cases += [(g, natural), (g, full_tree_decomposition(g, 3, base=natural))]
    for task in corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=6")):
        facts = GraphFacts(parse_graph6(task["graph6"]))
        cases += [(facts.g, facts.td)] + ([(facts.g, facts.td3)] if facts.td3 is not None else [])
    return cases


def _mutations(g, td, ids=False):
    """(label, graph, decomposition) for g and td and mutations of them that
    break a decomposition condition: a bag vertex dropped, a vertex dropped
    from every bag, a tree edge dropped, an edge no bag covers added and, with
    ``ids``, a bag vertex replaced by an id that is negative, out of range,
    True or 1.0."""
    from lctw.decomposition import TreeDecomposition

    bags, edges = [list(b) for b in td.bags], sorted(td.tree_edges)
    last = len(bags) - 1

    def first_replaced(t, new):  # the bags with bag t's first vertex replaced by the vertices ``new``
        return [new + b[1:] if x == t else b for x, b in enumerate(bags)]

    out = [("as given", g, td)]
    out += [(f"vertex {bags[t][0]} dropped from bag {t}", g, TreeDecomposition(first_replaced(t, []), edges)) for t in sorted({0, last})]
    v = bags[last][-1]
    out.append((f"vertex {v} dropped from every bag", g, TreeDecomposition([[w for w in b if w != v] for b in bags], edges)))
    if edges:
        out.append((f"tree edge {edges[0]} dropped", g, TreeDecomposition(bags, edges[1:])))
    uncovered = [(u, w) for u, w in combinations(range(g.n), 2) if not any(u in b and w in b for b in bags)]
    if uncovered:
        out.append((f"uncovered edge {uncovered[0]} added", Graph(g.n, g.edges | {uncovered[0]}), td))
    if ids:
        for bad in (-1, g.n, True, 1.0):
            out.append((f"vertex id {bad!r} in bag 0", g, TreeDecomposition(first_replaced(0, [bad]), edges)))
    return out


def test_validate_matches_the_set_reference(small_corpus):
    from lctw.decomposition import validate

    failing = set()
    for g, td in _decomposition_cases(small_corpus):
        for label, h, mutant in _mutations(g, td, ids=True):
            problems = validate(h, mutant)
            assert problems == _validate_reference(h, mutant), label
            failing |= {p.split(":")[0] for p in problems}
    assert failing == {"tree-shape", "bag-range", "vertex-cover", "edge-cover", "subtree-connectivity"}


def test_mask_checks_match_their_component_walks(small_corpus):
    # the separator sweep and the family check decide on neighbour masks and
    # walk components only to list a failure.  A mutant that fails
    # require_valid is refused by both; every other one, valid for its graph
    # or, with an uncovered edge added, for the graph without it, agrees with
    # the walks, and both checks see failures there (the family check on the
    # chain alone)
    from lctw.decomposition import DecompositionError, require_valid, side_masks

    seen = set()
    for g, td in _decomposition_cases(small_corpus):
        for label, h, mutant in _mutations(g, td):
            if mutant.valid_for is None:
                try:
                    require_valid(h, mutant)
                except DecompositionError:
                    for read in (side_masks, partial(check_edge_separators, h), partial(build_families, h, t=0, cycles=())):
                        with pytest.raises(DecompositionError, match="require_valid"):
                            read(mutant)
                    seen.add(("refused", label.split()[0]))  # "as" given, "vertex" or "tree" edge dropped
                    continue
            sweep = check_edge_separators(h, mutant)
            assert sweep == _separator_reference(h, mutant), label
            seen.add(("separator", sweep["status"]))
            if not mutant.is_full or mutant.width != 3:
                continue  # the families are defined on full width-3 decompositions
            families = partial(build_families, h, mutant, cycles=())
            out = check_family_consistency(mutant, families)
            assert out == _family_consistency_reference(mutant, families), label
            seen.add(("families", out["status"]))
    assert seen == {(check, status) for check in ("separator", "families") for status in (PASS, FAIL)} | {
        ("refused", kind) for kind in ("as", "vertex", "tree")
    }


def test_side_mask_readers_refuse_a_decomposition_never_validated():
    from lctw.decomposition import DecompositionError, TreeDecomposition, require_valid, side_masks

    g, chain = _chain_with_uncovered_edge()
    h = Graph(g.n, g.edges - {(0, 5)})
    td = TreeDecomposition(chain.bags, chain.tree_edges)
    reads = (side_masks, partial(build_families, h, t=1, cycles=()), partial(check_edge_separators, h))
    for read in reads:
        with pytest.raises(DecompositionError, match="require_valid"):
            read(td)
    assert td.sides is None
    require_valid(h, td)
    assert side_masks(td) == side_masks(chain)
    assert build_families(h, td, 1, ()).inside == build_families(h, chain, 1, ()).inside
    sweep = check_edge_separators(h, td)
    assert sweep == _separator_reference(h, td) and sweep["status"] == PASS


def test_the_joined_test_is_the_sweeps_only_fast_test(monkeypatch):
    # with the edge test forced false the sweep skips every tree edge, so it
    # misses the leak through the uncovered edge (0, 5) that the walk finds
    g, td = _chain_with_uncovered_edge()
    reference = _separator_reference(g, td)
    assert check_edge_separators(g, td) == reference and reference["status"] == FAIL
    monkeypatch.setattr(harness, "_joined", lambda nbr_mask, x, y: False)
    assert check_edge_separators(g, td) != reference


@pytest.mark.parametrize("checks", [DEFAULT_CHECKS, ("jump_families", "escape_cycle"), tuple(CHECKS)])
def test_families_built_at_most_once_per_node(monkeypatch, checks):
    import lctw.transversal as transversal

    built = []
    real = transversal.build_families

    def counting(g, td, t, cycles):
        built.append(t)
        return real(g, td, t, cycles)

    monkeypatch.setattr(transversal, "build_families", counting)
    # a graph where the jump premise holds at two contexts and dforest runs
    rec = evaluate_task({"graph6": "HSxoOEB"}, CampaignOptions(checks=checks))
    assert rec["status"] == "ok"
    assert built and len(built) == len(set(built))


def test_default_checks_classify_no_cycle(monkeypatch):
    # with lct = 1 the default checks stop at their premise and read only the
    # node masks: no family is classified, so fencing and posture never run
    from lctw.transversal import CycleFamilies

    def refuse(*args):
        raise AssertionError("a family was classified")

    monkeypatch.setattr(CycleFamilies, "fenced", refuse)
    monkeypatch.setattr(CycleFamilies, "posture", refuse)
    tasks = corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=6")) + [{"graph6": "HSxoOEB"}]
    records = [evaluate_task(task, CampaignOptions(checks=DEFAULT_CHECKS)) for task in tasks]
    assert [rec["status"] for rec in records] == ["ok"] * len(tasks)
    # the triangle has no width-3 decomposition, every other graph has one
    families = [(rec["n"], rec["checks"]["families"]["status"]) for rec in records]
    assert families == [(n, PASS if n >= 4 else PREMISE_NOT_MET) for n, _ in families]
    assert sum(n >= 4 for n, _ in families) > 40


def test_campaign_reads_tree_edge_sides_from_the_side_mask_table(monkeypatch):
    # every check reads branch vertex sets as masks from side_masks: the
    # set-based branch functions, the reference, are never called
    def refuse(*args, **kwargs):
        raise AssertionError("a set-based branch function ran")

    for module in ("lctw.decomposition", "lctw.classify", "lctw.harness"):
        for name in ("branch_at", "branch_union", "branch_of_vertex", "branch_of_route"):
            monkeypatch.setattr(f"{module}.{name}", refuse, raising=False)
    tasks = corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=6")) + [{"graph6": "HSxoOEB"}]
    records = [evaluate_task(task, CampaignOptions(checks=tuple(CHECKS))) for task in tasks]
    assert [rec["status"] for rec in records] == ["ok"] * len(tasks)
    assert records[-1]["checks"]["dforest"]["status"] == PASS


def test_treewidth_at_most_2_is_decided_once_per_graph(monkeypatch):
    # the directed forest reads facts.tw_eq_3 and does not decide it again; a
    # given td only bounds the treewidth, so the degree reduction decides
    # tw <= 2 once, while an optimal td shows it by its width and the
    # reduction never runs
    from lctw.decomposition import exact_treewidth, has_treewidth_at_most_2

    calls = []

    def counting(g):
        calls.append(g)
        return has_treewidth_at_most_2(g)

    for module in ("lctw.transversal", "lctw.harness"):
        monkeypatch.setattr(f"{module}.has_treewidth_at_most_2", counting, raising=False)
    td = exact_treewidth(parse_graph6("HSxoOEB"))[1]
    blob = {"bags": [list(b) for b in td.bags], "edges": [list(e) for e in sorted(td.tree_edges)]}
    for task, decided in (({"graph6": "HSxoOEB", "td": blob}, 1), ({"graph6": "HSxoOEB"}, 0)):
        calls.clear()
        rec = evaluate_task(task, CampaignOptions(checks=tuple(CHECKS)))
        assert rec["status"] == "ok" and rec["checks"]["dforest"]["status"] == PASS and rec["tw_eq_3"]
        assert len(calls) == decided


def test_unknown_check_is_rejected_up_front():
    with pytest.raises(ValueError, match="bogus"):
        CampaignOptions(checks=("shared_vertex", "bogus"))


def test_large_trees_without_td_evaluate_fast():
    # exact treewidth on a tree bounds its search by the min-degree width, so a
    # 24-vertex tree given only as graph6 is decided in milliseconds, not the
    # minutes a table over all 2^24 subsets takes
    import random
    import time

    from lctw.graph import Graph

    rng = random.Random(24)
    tree = Graph(24, [(v, rng.randrange(v)) for v in range(1, 24)])
    for g in (path_graph(24), tree):
        start = time.perf_counter()
        rec = evaluate_task({"graph6": write_graph6(g)}, CampaignOptions())
        assert time.perf_counter() - start < 10
        assert rec["status"] == "ok" and rec["tw"] == 1 and not rec["biconnected"]
        assert {c["status"] for c in rec["checks"].values()} == {"out-of-scope"}


def test_a_large_hamiltonian_family_evaluates_fast():
    # K9's 20,160 longest cycles share one vertex set: lct and the pairwise
    # meets read that one set, where a scan of the 203 million pairs of
    # cycles took over half a minute
    import time

    start = time.perf_counter()
    rec = evaluate_task({"graph6": write_graph6(complete_graph(9))}, CampaignOptions())
    assert time.perf_counter() - start < 2
    assert (rec["status"], rec["longest_cycles"], rec["lct"]) == ("ok", 20_160, 1)
    assert rec["checks"]["pairwise_overlap"] == {"status": PASS}


def test_cap_overrun_is_out_of_scope_in_both_evaluators(monkeypatch):
    from lctw.generate import GenSpec, generate_partial_k_tree

    g, td = generate_partial_k_tree(GenSpec(n=20, k=3, seed=1, delete_probability=0.25, require_biconnected=True))
    blob = {"bags": [list(b) for b in td.bags], "edges": [list(e) for e in sorted(td.tree_edges)]}
    rec = evaluate_task({"graph6": write_graph6(g), "td": blob}, CampaignOptions())
    assert rec["status"] == "out-of-scope" and "n <= 18" in rec["error"]
    rec = evaluate_task({"graph6": write_graph6(path_graph(25))}, CampaignOptions())  # not 2-connected
    assert rec["status"] == "out-of-scope" and "exact treewidth needs n <= 24" in rec["error"]

    def no_treewidth(*args, **kwargs):
        raise AssertionError("the cap is checked before exact treewidth")

    monkeypatch.setattr("lctw.decomposition.exact_treewidth", no_treewidth)
    monkeypatch.setattr("lctw.transversal.exact_treewidth", no_treewidth)
    task = {"graph6": write_graph6(g)}  # no td: both evaluators would need exact treewidth
    rec = evaluate_task(task, CampaignOptions())
    assert rec["status"] == "out-of-scope" and "n <= 18" in rec["error"]
    assert evaluate_conjecture_task(task, CampaignOptions())["status"] == "out-of-scope"
    code, summary = run_conjecture([task], CampaignOptions(), io.StringIO(), workers=1)
    assert code == EXIT_OK and summary.out_of_scope == 1 and summary.errors == 0


def test_cli_verify_unknown_check_is_config_error(capsys):
    rc = main(["verify", "--checks", "shared_vertex,bogus", "--generate", "k=3,n=8,count=2", "--workers", "2"])
    assert rc == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "bogus" in err


def _three_tree_26():
    from lctw.generate import GenSpec, generate_k_tree

    return write_graph6(generate_k_tree(GenSpec(n=26, k=3, seed=0))[0])


def test_cli_inspect_beyond_treewidth_cap_is_config_error(capsys):
    assert main(["inspect", _three_tree_26()]) == EXIT_CONFIG
    assert "treewidth" in capsys.readouterr().err


def test_cli_directed_forest_beyond_cap_is_config_error(capsys):
    assert main(["directed-forest", _three_tree_26()]) == EXIT_CONFIG
    assert "treewidth" in capsys.readouterr().err


def test_enumeration_cap_is_checked_before_treewidth(monkeypatch, capsys):
    from lctw.generate import GenSpec, generate_k_tree

    g = generate_k_tree(GenSpec(n=20, k=3, seed=0))[0]

    def no_treewidth(*args, **kwargs):
        raise AssertionError("the enumeration cap is checked before exact treewidth")

    monkeypatch.setattr("lctw.decomposition.exact_treewidth", no_treewidth)
    monkeypatch.setattr("lctw.transversal.exact_treewidth", no_treewidth)
    with pytest.raises(EnumerationCapExceeded):
        directed_forest_diagnostic(GraphFacts(g))
    assert main(["inspect", write_graph6(g)]) == EXIT_CONFIG
    assert main(["inspect", write_graph6(g), "--max-n", "19"]) == EXIT_CONFIG
    assert main(["directed-forest", write_graph6(g)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("enumeration needs n <=") == 3


# a tree-edge end names a node only when it is an exact int, so 1.0 and True
# name none, though both equal node 1
MALFORMED_TD = [({"edges": []}, "'bags'"), ({"bags": [[0, 1, 2, 3, 4]], "edges": [[0, 5]]}, "bad tree edge (0,5)")]
MALFORMED_TD += [({"bags": [[0, 1, 2, 3, 4]] * 2, "edges": [[0, bad]]}, f"bad tree edge (0,{bad})") for bad in (1.0, True)]


@pytest.mark.parametrize("blob, error", MALFORMED_TD)
def test_malformed_td_blob_is_an_error_record_in_both_evaluators(blob, error):
    task = {"graph6": write_graph6(complete_graph(5)), "td": blob}
    for evaluate in (evaluate_task, evaluate_conjecture_task):
        rec = evaluate(task, CampaignOptions())
        assert rec["status"] == "error" and rec["error"] == error


@pytest.mark.parametrize("vertex", [-1, 10**12, 1.0, True])
def test_td_blob_naming_a_vertex_off_the_graph_falls_back_to_exact_treewidth(vertex):
    # bag masks are built on first read, after validation: a bag vertex no
    # mask can hold, or an entry that is not an exact int (1.0 and True in
    # place of vertex 1), is a bag-range violation, and in both evaluators
    # the graph gets the exact decomposition it would get without a blob
    from lctw.decomposition import TreeDecomposition, validate
    from lctw.generate import GenSpec, generate_k_tree

    g, td = generate_k_tree(GenSpec(n=7, k=3, seed=4))
    bags = [list(b) for b in td.bags]
    assert bags[0][1] == 1
    bags[0][1] = vertex
    assert f"bag-range: node 0 holds out-of-range vertex {vertex}" in validate(g, TreeDecomposition(bags, td.tree_edges))
    task = {"graph6": write_graph6(g), "td": {"bags": bags, "edges": [list(e) for e in sorted(td.tree_edges)]}}
    assert evaluate_task(task, CampaignOptions())["tw"] == 3
    for evaluate in (evaluate_task, evaluate_conjecture_task):
        rec = evaluate(task, CampaignOptions())
        bare = evaluate({"graph6": task["graph6"]}, CampaignOptions())
        assert rec["status"] == "ok" and {**rec, "ms": None} == {**bare, "ms": None}


@pytest.mark.parametrize("entry", [None, "a", [1]], ids=["null", "string", "list"])
def test_td_blob_mixing_ints_with_other_entries_falls_back_to_exact_treewidth(entry):
    # an entry that is not an exact int is out of range also beside ints it
    # does not compare with, or when it is unhashable: the blob is ignored
    # before any bag is sorted, and both evaluators give the bare graph's record
    from lctw.generate import GenSpec, generate_k_tree

    g, td = generate_k_tree(GenSpec(n=7, k=3, seed=4))
    bags = [list(b) for b in td.bags]
    bags[0][1] = entry
    task = {"graph6": write_graph6(g), "td": {"bags": bags, "edges": [list(e) for e in sorted(td.tree_edges)]}}
    for evaluate in (evaluate_task, evaluate_conjecture_task):
        rec = evaluate(task, CampaignOptions())
        bare = evaluate({"graph6": task["graph6"]}, CampaignOptions())
        assert rec["status"] == "ok" and {**rec, "ms": None} == {**bare, "ms": None}


def test_td_wider_than_three_falls_back_to_the_optimal_decomposition():
    # a valid one-bag decomposition of width 4 does not bound the treewidth
    # by 3: the verify task computes the optimal one, as without a blob
    g = Graph(5, [e for e in combinations(range(5), 2) if e != (0, 1)])
    task = {"graph6": write_graph6(g), "td": {"bags": [list(range(5))], "edges": []}}
    rec = evaluate_task(task, CampaignOptions())
    bare = evaluate_task({"graph6": task["graph6"]}, CampaignOptions())
    assert rec["status"] == bare["status"] == "ok" and rec["tw"] == bare["tw"] == 3
    assert {**rec, "ms": None} == {**bare, "ms": None}


def test_malformed_td_blob_does_not_abort_a_campaign():
    good = {"graph6": write_graph6(complete_graph(5))}
    buf = io.StringIO()
    code, summary = run_verify([good, {**good, "td": MALFORMED_TD[0][0]}], CampaignOptions(), buf, workers=2)
    assert summary.total == 2 and summary.errors == 1 and summary.ok == 1
    assert [r["status"] for r in _records(buf)] == ["ok", "error"]


def test_cli_inspect_computes_treewidth_once(monkeypatch, capsys):
    import lctw.decomposition

    calls = []
    real = lctw.decomposition.exact_treewidth

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lctw.decomposition, "exact_treewidth", counting)
    monkeypatch.setattr(transversal, "exact_treewidth", counting)
    assert main(["inspect", "IheA@GUAo"]) == 0
    assert len(calls) == 1
    assert "full decomposition (width 4):" in capsys.readouterr().out  # Petersen


def test_each_decomposition_is_validated_at_most_once_per_graph(monkeypatch):
    import importlib

    import lctw.decomposition

    verify_tasks = corpus_tasks(parse_corpus_spec("k=3,n=8..12,count=20,p=0.25", seed=5))
    verify_tasks += corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=5"))
    conjecture_tasks = corpus_tasks(parse_corpus_spec("k=4,n=8..11,count=20,p=0.3", seed=5))
    calls = []
    real = lctw.decomposition.validate

    def counting(g, td):
        calls.append(g)
        return real(g, td)

    for name in ("lctw", "lctw.decomposition", "lctw.cycles", "lctw.classify", "lctw.transversal",
                 "lctw.harness", "lctw.generate", "lctw.cli"):
        monkeypatch.setattr(importlib.import_module(name), "validate", counting, raising=False)
    code, summary = run_verify(verify_tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert summary.ok == len(verify_tasks) == 33
    code, summary = run_conjecture(conjecture_tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert summary.ok == len(conjecture_tasks)
    assert 0 < len(calls) <= len(verify_tasks) + len(conjecture_tasks)
    # the decomposition DP of td_oracle reads a decomposition already checked
    calls.clear()
    opts = CampaignOptions(checks=DEFAULT_CHECKS + ("td_oracle",))
    code, summary = run_verify(verify_tasks, opts, io.StringIO(), workers=1)
    assert summary.ok == len(verify_tasks)
    assert 0 < len(calls) <= len(verify_tasks)


def test_only_a_task_td_is_validated(monkeypatch):
    # the exact decomposition and td3 are built valid, so a graph evaluated
    # without a td runs validate zero times, whatever the checks read, and a
    # task td runs it exactly once
    import lctw.decomposition

    calls = []
    real = lctw.decomposition.validate

    def counting(g, td):
        calls.append(g)
        return real(g, td)

    monkeypatch.setattr(lctw.decomposition, "validate", counting)
    opts = CampaignOptions(checks=tuple(CHECKS))
    bare = corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=6"))
    assert [evaluate_task(task, opts)["status"] for task in bare] == ["ok"] * len(bare)
    assert calls == []
    for task in corpus_tasks(parse_corpus_spec("k=3,n=8..10,count=5,p=0.25", seed=5)):
        calls.clear()
        assert evaluate_task(task, opts)["status"] == "ok"
        assert len(calls) == 1


def test_default_campaigns_build_no_cycle_tuples(monkeypatch):
    # lct, the pairwise meets and the triple premises read the family's
    # vertex sets; on these corpora (lct <= 2) no default check reads a cycle's
    # vertex tuple, so no family is mapped back to canonical tuples
    calls = []
    real = lctw.cycles._canonical

    def counting(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(lctw.cycles, "_canonical", counting)
    tasks = corpus_tasks(parse_corpus_spec("k=3,n=9..14,count=100,p=0.25"))
    code, summary = run_verify(tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert (code, summary.ok) == (EXIT_OK, 100)
    tasks = corpus_tasks(parse_corpus_spec("k=4,n=8..13,count=100,p=0.3"))
    code, summary = run_conjecture(tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert (code, summary.ok) == (EXIT_OK, 100)
    assert calls == []
    assert len(enumerate_longest_cycles(complete_graph(4)).cycles) == len(calls) == 3  # a read builds them


def test_default_campaigns_walk_no_component(monkeypatch):
    # on this corpus (lct = 1) the separator sweep and the family check decide
    # on neighbour masks and no default check reads a node's components, so no
    # component is walked; the families are still built once per td3 node
    import lctw.graph

    walks, built = [], []
    real_walk, real_build = lctw.graph.component_masks, transversal.build_families

    def walk(g, mask):
        walks.append(mask)
        return real_walk(g, mask)

    def build(g, td, t, cycles):
        built.append((td, t))
        return real_build(g, td, t, cycles)

    for module in (lctw.graph, harness, transversal):
        monkeypatch.setattr(module, "component_masks", walk)
    monkeypatch.setattr(transversal, "build_families", build)
    tasks = corpus_tasks(parse_corpus_spec("k=3,n=9..14,count=100,p=0.25"))
    code, summary = run_verify(tasks, CampaignOptions(), io.StringIO(), workers=1)
    assert (code, summary.ok) == (EXIT_OK, 100)
    assert walks == []
    tds = {id(td): td for td, _ in built}
    assert len(tds) == 100
    assert sorted((id(td), t) for td, t in built) == sorted((key, t) for key, td in tds.items() for t in range(td.node_count))


def test_pairwise_overlap_reports_the_first_thin_pair_in_order():
    # No 2-connected graph has two longest cycles sharing fewer than two
    # vertices, so the families are drawn by hand: 4-cycles on 7 vertices,
    # several orders of one vertex set among them, given to the facts.
    rng = random.Random(5)
    failures = 0
    for _ in range(300):
        sets = [rng.sample(range(7), 4) for _ in range(rng.randint(1, 4))]
        routes = {Cycle(tuple(rng.sample(vs, 4))).vertices for vs in sets for _ in range(3)}
        cycles = sorted(routes)
        facts = GraphFacts(complete_graph(7))
        facts.cycles = LongestCycleSet(4, cycles, [vertex_mask(c) for c in cycles])
        # the ordered scan over all pairs of cycles
        thin = next(([list(c), list(d)] for c, d in combinations(cycles, 2) if len(set(c) & set(d)) < 2), None)
        failures += thin is not None
        assert harness._pairwise_overlap(facts) == ({"status": PASS} if thin is None else {"status": FAIL, "witness": thin})
    assert 50 < failures < 250


_TD_VERTEX = st.one_of(
    st.integers(-3, 12), st.sampled_from([10**12, -(2**70)]), st.floats(), st.booleans(), st.none(), st.text(max_size=2)
)
_TD_BAG = st.one_of(st.lists(_TD_VERTEX, max_size=6), _TD_VERTEX)
_TD_EDGE = st.one_of(st.lists(st.integers(-2, 8), max_size=3), st.integers(), st.none(), st.text(max_size=2))
_TD_BLOB = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.fixed_dictionaries(
        {},
        optional={
            "bags": st.one_of(st.lists(_TD_BAG, max_size=6), _TD_BAG),
            "edges": st.one_of(st.lists(_TD_EDGE, max_size=6), _TD_EDGE),
        },
    ),
)


def _parses(text: str) -> bool:
    try:
        parse_graph6(text)
    except ValueError:
        return False
    return True


_SMALL_GRAPH6 = [write_graph6(g) for g in (complete_graph(5), petersen(), path_graph(4))] + ["HSxoOEB", "?", "Bw"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    g6=st.one_of(st.text(max_size=12).filter(lambda s: not _parses(s)), st.sampled_from(_SMALL_GRAPH6)),
    td=_TD_BLOB,
    caps=st.fixed_dictionaries(
        {}, optional={name: st.just(0) for name in ("enumeration_cap", "treewidth_cap", "max_cycles", "max_steps")}
    ),
)
def test_every_task_gives_one_record_with_a_status(g6, td, caps):
    # graph6 text that does not parse, td blobs of every shape, caps of 0:
    # each evaluator returns one JSON-ready record with a status, never raises
    task = {"graph6": g6, "source": "hypothesis"} | ({} if td is None else {"td": td})
    for evaluate in (evaluate_task, evaluate_conjecture_task):
        rec = evaluate(task, CampaignOptions(**caps))
        assert rec["status"] in ("ok", "fail", "out-of-scope", "error")
        assert rec["graph6"] == g6 or _parses(g6)
        assert json.loads(json.dumps(rec)) == rec


def _refusal_from_verify(g6, capsys):
    rec = evaluate_task({"graph6": g6}, CampaignOptions())
    assert rec["status"] == "out-of-scope"
    return rec["error"]


def _refusal_from_conjecture(g6, capsys):
    rec = evaluate_conjecture_task({"graph6": g6}, CampaignOptions())
    assert rec["status"] == "out-of-scope"
    return rec["error"]


def _refusal_from_cli(command):
    def refusal(g6, capsys):
        assert main([command, g6]) == EXIT_CONFIG
        return capsys.readouterr().err

    return refusal


@pytest.mark.parametrize(
    "entry",
    [_refusal_from_verify, _refusal_from_conjecture, _refusal_from_cli("inspect"), _refusal_from_cli("directed-forest")],
    ids=["evaluate_task", "evaluate_conjecture_task", "inspect", "directed-forest"],
)
@pytest.mark.parametrize(
    "n, refusal", [(26, "exact treewidth needs n <= 24, got 26"), (20, "enumeration needs n <= 18, got 20")]
)
def test_one_cap_rule_at_every_entry_point(monkeypatch, capsys, entry, n, refusal):
    # a 3-tree is 3-connected: beyond the treewidth cap it gets that refusal,
    # within it but beyond the enumeration cap the enumeration refusal, and
    # the 2^n treewidth program never runs
    from lctw.generate import GenSpec, generate_k_tree

    def no_treewidth(*args, **kwargs):
        raise AssertionError("exact treewidth ran beyond a cap")

    monkeypatch.setattr("lctw.decomposition.exact_treewidth", no_treewidth)
    monkeypatch.setattr("lctw.transversal.exact_treewidth", no_treewidth)
    assert refusal in entry(write_graph6(generate_k_tree(GenSpec(n=n, k=3, seed=0))[0]), capsys)


def test_each_graph_fact_is_computed_once(monkeypatch):
    # every check on a graph where the jump premise holds and dforest runs
    counts = {}
    for name in ("is_biconnected", "exact_treewidth", "enumerate_longest_cycles", "compute_lct",
                 "full_tree_decomposition"):
        real = getattr(transversal, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(transversal, name, counting)
    rec = evaluate_task({"graph6": "HSxoOEB"}, CampaignOptions(checks=tuple(CHECKS)))
    assert rec["status"] == "ok" and rec["checks"]["dforest"]["status"] == PASS
    assert counts == dict.fromkeys(counts, 1) and len(counts) == 5


def test_checks_are_looked_up_at_call_time(monkeypatch):
    # the check table reads the module bindings at each call, so a wrapper
    # installed on them (the traced benchmark's spans) sees every run
    calls = dict.fromkeys(("check_edge_separators", "check_family_consistency", "check_fenced_or_shared"), 0)
    for name in calls:
        real = getattr(harness, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counting)
    rec = evaluate_task({"graph6": "HSxoOEB"}, CampaignOptions())
    assert rec["status"] == "ok"
    assert calls == dict.fromkeys(calls, 1)


def test_the_jump_sweeps_run_once_per_context(monkeypatch, corpus):
    # the escape check's lct premise is its table row, so on an lct = 1
    # corpus its body never runs; each sweep calls its check once per context
    # of facts.contexts, in order, and with lct forced to 2 both sweeps do
    calls = {"check_pairwise_and_common": [], "check_escape_cycle": []}
    for name in calls:
        real = getattr(harness, name)

        def counting(facts, t, dmask, _real=real, _name=name):
            calls[_name].append((t, dmask))
            return _real(facts, t, dmask)

        monkeypatch.setattr(harness, name, counting)
    opts = CampaignOptions(checks=("jump_families", "escape_cycle"))
    swept = 0
    for task in corpus("k=3,n=5..9,count=10000,p=0.45", seed=206)[:2000]:  # criterion 8's corpus
        for forced in (False, True):
            g = parse_graph6(task["graph6"])
            facts = GraphFacts(g, harness._task_td(g, task, 3))
            if forced:
                facts.lct = TransversalResult(2, facts.lct.witness)
            for made in calls.values():
                made.clear()
            harness._verify_graph(facts, {}, opts)
            assert facts.lct.lct == (2 if forced else 1)
            assert calls["check_escape_cycle"] == (list(facts.contexts) if forced else [])
            assert calls["check_pairwise_and_common"] == list(facts.contexts)
            swept += len(facts.contexts)
    assert swept >= 10, swept


@pytest.mark.parametrize("lct, status", [(1, PASS), (2, FAIL)])
def test_dforest_fails_on_a_contradiction_candidate(lct, status):
    # stubbed fenced families give node 0 and node 1 of HSxoOEB's decomposition
    # one fenced triangle each, living toward the other node: the forest's
    # maximal path ends in an antipodal pair.  With lct forced to 2 that pair
    # is the contradiction candidate and the check fails with it as witness.
    from types import SimpleNamespace

    facts = GraphFacts(parse_graph6("HSxoOEB"))
    fenced = {t: ((c, vertex_mask(c)),) for t, c in ((0, (0, 2, 4)), (1, (6, 7, 8)))}
    facts.families = lambda t: SimpleNamespace(fenced3=fenced.get(t, ()))
    facts.lct = TransversalResult(lct, facts.lct.witness)
    record = {}
    harness._verify_graph(facts, record, CampaignOptions(checks=("dforest",)))
    out = record["checks"]["dforest"]
    assert facts.tw_eq_3 and out["status"] == status and out["arcs"] == 2
    if lct == 1:
        assert out["halt"].startswith("all longest cycles share a vertex")
        assert "witness" not in out
    else:
        assert out["halt"] == "contradiction configuration candidate: inspect manually"
        assert out["witness"] == [[0, 2, 4], [6, 7, 8]]
    pair_checks = directed_forest_diagnostic(facts)["pair_checks"]
    assert pair_checks == {
        "private_of_t_off_C": True,
        "private_of_tp_off_D": True,
        "intersection_in_shared": True,
        "intersection_at_least_2": False,
    }


ALL_CHECKS_PREMISE_GRAPHS = ("HSxoOEB", "GsJ?aS", "FiuqO", "Go^@S_", "Ds[", "DXs", "Dik", "DFw")
ALL_CHECKS_DIGESTS = {
    "as is": (EXIT_OK, "5b9996d3f0a90f94d15dc07dfb07797586b43039a0cedd5e90b0e3a98c677e3f"),
    "lct forced to 2": (EXIT_CHECK_FAILURE, "4d9af59677d73e9f7d137dc4baec33b5f76fbcc3cae8285e23db46f2a4aaebae"),
}


@pytest.mark.parametrize("variant", sorted(ALL_CHECKS_DIGESTS))
def test_all_checks_report_digest(monkeypatch, variant):
    # every check, the non-default ones included, on graphs that meet the jump
    # premises; with lct forced up to 2 (the real witness kept) the fail and
    # pass paths of fenced_or_shared, two_cross_jump, min_length_side and
    # escape_cycle run too.  Any change to a record, ms aside, moves a digest.
    import hashlib

    tasks = corpus_tasks(parse_corpus_spec("mode=exhaustive,k=3,nmax=7"))
    tasks += corpus_tasks(parse_corpus_spec("k=3,n=8..12,count=200,p=0.3", seed=0))
    tasks += [{"graph6": g6, "source": "premise"} for g6 in ALL_CHECKS_PREMISE_GRAPHS]
    tasks.append({"graph6": write_graph6(petersen()), "source": "petersen"})
    if variant == "lct forced to 2":
        real = transversal.compute_lct

        def mutated(graph, **kw):
            res = real(graph, **kw)
            return TransversalResult(max(res.lct, 2), res.witness)

        monkeypatch.setattr(transversal, "compute_lct", mutated)
    buf = io.StringIO()
    code, _ = run_verify(tasks, CampaignOptions(checks=tuple(CHECKS)), buf, workers=1)
    lines = []
    for rec in _records(buf):
        rec.pop("ms", None)
        lines.append(json.dumps(rec, sort_keys=True))
    assert (code, hashlib.sha256("\n".join(lines).encode()).hexdigest()) == ALL_CHECKS_DIGESTS[variant]
