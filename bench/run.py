"""Campaign benchmark for lctw.

    python3 bench/run.py --workload verify_k3_random --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json at the root.  Each
run is a batch campaign with one caller, a closed loop: the whole corpus is
submitted through the public campaign API (``corpus_tasks`` then
``run_verify`` or ``run_conjecture``) and the caller waits for every record.
The seed only reaches lctw through the corpus spec.

``--trace 0`` measures the end-to-end metrics with tracing off:

* set-up builds the corpus ``SETUP_BUILDS`` times; ``setup_s`` is the median;
* serial passes (``workers=1``) repeat while the next one is expected to end
  within ``--seconds``; parallel passes (``workers=nproc``) the same within
  half of it.  A random corpus holds ``graphs_per_second * --seconds``
  graphs, so it gets one pass of each; the exhaustive corpus is fixed and
  small, so it gets several, and its throughputs are medians over them;
* per-graph times are the gaps between consecutive writes on the report
  stream of the serial passes, not the records' integer ``ms`` field;
* every time is scaled to a reference machine speed by probes run between
  records and around each build (``speed.py``); the raw wall-clock values
  are printed next to the scaled ones.

``--trace 1`` builds the corpus and runs one serial pass untraced, then
repeats both with every public lctw function wrapped in a span
(``spans.py``).  It reports the per-layer metrics, prints the per-layer share
table and the tracing overhead, and writes the spans to ``bench/out/``.

Every run passes a correctness gate: the report, with ``ms`` stripped, must
hash to the digest frozen in ``digests.json`` for its workload, corpus and
seed (a seed with no frozen digest skips this check only), every report of
the run must be identical to the first modulo ``ms``, and no record may fail
or error.  A run that fails the gate reports ``correct: false`` and counts
every record as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

SETUP_BUILDS = 3


@dataclass(frozen=True)
class Workload:
    kind: str  # "verify" or "conjecture"
    spec: str  # corpus spec without its count
    graphs_per_second: int  # random corpus size per second of --seconds; 0 for exhaustive


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "verify_k3_random": Workload("verify", "k=3,n=9..14,p=0.25", 50),
    "exhaustive_k3": Workload("verify", "mode=exhaustive,k=3,nmax=7", 0),
    "conjecture_k4": Workload("conjecture", "k=4,n=8..13,p=0.3", 125),
}


def import_lctw():
    """Import lctw from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import lctw
        from lctw import harness
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import lctw from {src}: {exc}")
    if Path(lctw.__file__).resolve().parent != src / "lctw":
        raise SystemExit(f"bench: lctw was imported from {lctw.__file__}, not from {src}")
    return harness


def corpus_spec(workload: Workload, seconds: float) -> str:
    if not workload.graphs_per_second:
        return workload.spec
    return f"{workload.spec},count={max(1, round(workload.graphs_per_second * seconds))}"


def digest_key(workload_name: str, spec: str, seed: int) -> str:
    """The exhaustive corpus does not depend on the seed, so neither does its key."""
    if spec.startswith("mode=exhaustive"):
        return f"{workload_name} {spec}"
    return f"{workload_name} {spec} seed={seed}"


def report_digest(text: str) -> str:
    """sha256 of the report with ``ms`` stripped from every record."""
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("ms", None)
        lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def build_corpus(harness, spec: str, seed: int) -> list[dict]:
    return harness.corpus_tasks(harness.parse_corpus_spec(spec, seed=seed))


class StampedReport:
    """Report stream that timestamps each record as the campaign writes it.

    With ``probe`` set, each write also runs the speed probe outside the
    measured gaps: a gap runs from the stamp after the previous record's
    probe to the stamp before this record.  At ``workers=1`` a gap is the
    graph's wall time."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.chunks: list[str] = []
        self.ends: list[float] = []
        self.starts: list[float] = []
        self.probes: list[float] = []

    def write(self, text: str) -> None:
        self.ends.append(time.perf_counter())
        self.chunks.append(text)
        if self.probe:
            self.probes.append(speed.probe())
        self.starts.append(time.perf_counter())


@dataclass
class Pass:
    workers: int
    wall_s: float
    ref_s: float  # wall time without the probes, scaled to the reference speed
    gaps_s: list[float]  # scaled gaps between records; per graph at workers=1
    text: str
    code: int
    total: int
    failed: int
    errors: int


def campaign(harness, kind: str, tasks: list[dict], workers: int, probe: bool = True) -> Pass:
    run = harness.run_verify if kind == "verify" else harness.run_conjecture
    out = StampedReport(probe)
    started = time.perf_counter()
    code, summary = run(tasks, harness.CampaignOptions(), out, workers=workers)
    wall = time.perf_counter() - started
    gaps = [b - a for a, b in zip([started] + out.starts, out.ends)]
    if probe:
        gaps = [t * k for t, k in zip(gaps, speed.local_scales(out.probes))]
    return Pass(workers, wall, sum(gaps), gaps, "".join(out.chunks), code, summary.total, summary.failed, summary.errors)


def timed_passes(harness, kind: str, tasks: list[dict], workers: int, budget_s: float) -> list[Pass]:
    """At least one pass; another only while it is expected to end within the budget."""
    passes = [campaign(harness, kind, tasks, workers)]
    while sum(p.wall_s for p in passes) + passes[-1].wall_s <= budget_s:
        passes.append(campaign(harness, kind, tasks, workers))
    return passes


def timed_setup(harness, spec: str, seed: int) -> tuple[list[list[dict]], list[float], list[float]]:
    """Build the corpus SETUP_BUILDS times, each between two probe blocks.
    Returns the builds, the raw and the scaled build times."""
    builds, raw, ref = [], [], []
    for _ in range(SETUP_BUILDS):
        probes = speed.probe_block()
        started = time.perf_counter()
        builds.append(build_corpus(harness, spec, seed))
        raw.append(time.perf_counter() - started)
        ref.append(raw[-1] * speed.scale(probes + speed.probe_block()))
    return builds, raw, ref


def gate(harness, kind: str, n_tasks: int, passes: list[Pass], frozen: str | None) -> list[str]:
    """Problems that make the run incorrect; empty when it passes."""
    problems = []
    reference = report_digest(passes[0].text)
    if frozen is not None and reference != frozen:
        problems.append(f"report digest {reference} differs from the frozen {frozen}")
    for p in passes:
        if p.total != n_tasks:
            problems.append(f"workers={p.workers}: {p.total} records for {n_tasks} graphs")
        if report_digest(p.text) != reference:
            problems.append(f"workers={p.workers}: report differs from the first serial report modulo ms")
        if kind == "verify" and (p.code != harness.EXIT_OK or p.failed):
            problems.append(f"workers={p.workers}: run_verify exited {p.code} with {p.failed} failed records")
        if p.errors:
            problems.append(f"workers={p.workers}: {p.errors} records with status error")
    return problems


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile, so the reported value is one measured sample."""
    k = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[k]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def _counts(correct: bool, passes: list[Pass]) -> tuple[int, int]:
    """Records attempted and failed.  A run that fails the gate fails every record."""
    attempted = sum(p.total for p in passes)
    return attempted, attempted if not correct else sum(p.errors for p in passes)


def _result(correct: bool, passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted, failed = _counts(correct, passes)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_timed(harness, name: str, seed: int, seconds: float, digests: dict[str, str]) -> dict:
    workload = WORKLOADS[name]
    spec = corpus_spec(workload, seconds)
    builds, setup_raw, setup_ref = timed_setup(harness, spec, seed)
    tasks = builds[0]
    nproc = len(os.sched_getaffinity(0))
    serial = timed_passes(harness, workload.kind, tasks, 1, seconds)
    rss = _peak_rss_mb()
    parallel = timed_passes(harness, workload.kind, tasks, nproc, seconds / 2)
    passes = serial + parallel
    problems = gate(harness, workload.kind, len(tasks), passes, digests.get(digest_key(name, spec, seed)))
    if any(build != tasks for build in builds):
        problems.append("two corpus builds from one seed differ")

    attempted, failed = _counts(not problems, passes)
    n = len(tasks)
    samples = sorted(s for p in serial for s in p.gaps_s)
    beyond_p99 = len(samples) - round(0.99 * len(samples))
    result = _result(
        not problems,
        passes,
        {
            "setup_s": (statistics.median(setup_ref), "s"),
            "graphs_per_s": (statistics.median(n / p.ref_s for p in serial), "graphs/s"),
            "graphs_per_s_par": (statistics.median(n / p.ref_s for p in parallel), "graphs/s"),
            "graph_ms_p50": (_quantile(samples, 0.50) * 1e3, "ms"),
            "graph_ms_p99": (_quantile(samples, 0.99) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "ok_share": (1 - failed / attempted, "ratio"),
        },
    )
    raw = {
        "setup_s": statistics.median(setup_raw),
        "graphs_per_s": statistics.median(n / p.wall_s for p in serial),
        "graphs_per_s_par": statistics.median(n / p.wall_s for p in parallel),
    }
    notes = {
        "setup_s": f"median of {SETUP_BUILDS} builds",
        "graph_ms_p50": f"{len(samples)} samples",
        "graph_ms_p99": f"{len(samples)} samples, {beyond_p99} beyond",
    }

    print(f"workload {name}: {spec} seed={seed}, {n} graphs, "
          f"{len(serial)} serial passes, {len(parallel)} passes at workers={nproc}")
    print("  times are scaled to the reference machine speed (speed.py); raw wall-clock values,"
          " probe time included, in brackets")
    for metric, body in result["metrics"].items():
        extra = [f"raw {raw[metric]:.4f}"] if metric in raw else []
        extra += [notes[metric]] if metric in notes else []
        print(f"  {metric:<18} {body['value']:>12.4f} {body['unit']:<9}" + (f" ({'; '.join(extra)})" if extra else ""))
    per_graph = [statistics.median(times) for times in zip(*(p.gaps_s for p in serial))]
    print("  slowest graphs (ms, median over serial passes):")
    for ms, task in sorted(zip(per_graph, tasks), key=lambda pair: -pair[0])[:5]:
        print(f"    {ms * 1e3:9.2f}  {task['graph6']}")
    _print_gate(problems)
    return result


def run_traced(harness, name: str, seed: int, seconds: float, digests: dict[str, str]) -> dict:
    workload = WORKLOADS[name]
    spec = corpus_spec(workload, seconds)
    tasks = build_corpus(harness, spec, seed)
    plain = campaign(harness, workload.kind, tasks, 1, probe=False)

    setup_tracer, campaign_tracer = Tracer(), Tracer()
    with setup_tracer:
        started = time.perf_counter()
        traced_tasks = build_corpus(harness, spec, seed)
        traced_setup_s = time.perf_counter() - started
    with campaign_tracer:
        traced = campaign(harness, workload.kind, traced_tasks, 1, probe=False)
    problems = gate(harness, workload.kind, len(tasks), [plain, traced], digests.get(digest_key(name, spec, seed)))
    if traced_tasks != tasks:
        problems.append("the traced corpus build differs from the untraced one")

    setup_fns, campaign_fns = setup_tracer.summary(), campaign_tracer.summary()
    counters = dict(setup_tracer.counters)
    for key, value in campaign_tracer.counters.items():
        counters[key] = counters.get(key, 0) + value
    counters["harness.separator_pairs"] = sum(
        json.loads(line).get("checks", {}).get("edge_separator", {}).get("pairs", 0)
        for line in plain.text.splitlines()
    )
    classes = len(tasks) if spec.startswith("mode=exhaustive") else 0
    layer_self = {
        layer: [
            sum(v["self_s"] for fn, v in fns.items() if fn.startswith(layer + "."))
            for fns in (setup_fns, campaign_fns)
        ]
        for layer in LAYERS
    }

    def value(metric: str) -> float:
        if metric in counters:
            return counters[metric]
        if metric == "generate.keys_per_class":
            return setup_fns["generate.canonical_key"]["calls"] / classes if classes else 0.0
        if metric == "transversal.build_families.per_node":
            nodes = counters.get("decomposition.full_tree_decomposition.nodes", 0)
            return campaign_fns["transversal.build_families"]["calls"] / nodes if nodes else 0.0
        if metric.startswith("layer."):
            return sum(layer_self[metric.split(".")[1]])
        if metric == "trace.setup_s":
            return traced_setup_s
        if metric == "trace.campaign_s":
            return traced.wall_s
        if metric == "trace.overhead":
            return traced.wall_s / plain.wall_s
        fn, stat = metric.rsplit(".", 1)
        fns = setup_fns if fn.startswith("generate.") else campaign_fns
        return fns[fn][stat]

    with open(ROOT / "BENCHMARK.json") as fh:
        layer_metrics = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    result = _result(not problems, [plain, traced], {m: (value(m), unit) for m, unit in layer_metrics})
    OUT.mkdir(exist_ok=True)
    setup_tracer.write(OUT / f"{name}.setup.spans.tsv.gz")
    campaign_tracer.write(OUT / f"{name}.campaign.spans.tsv.gz")

    print(f"workload {name}: {spec} seed={seed}, {len(tasks)} graphs, serial traced run")
    for metric, body in result["metrics"].items():
        print(f"  {metric:<46} {body['value']:>14.4f} {body['unit']}")
    covered = [sum(v[i] for v in layer_self.values()) for i in (0, 1)]
    print("  layer self time       set-up s  share   campaign s  share")
    for layer, (s_setup, s_campaign) in layer_self.items():
        print(
            f"  {layer:<20} {s_setup:9.3f} {s_setup / (covered[0] or 1):6.1%}"
            f" {s_campaign:12.3f} {s_campaign / (covered[1] or 1):6.1%}"
        )
    print(f"  tracing overhead: traced serial pass {traced.wall_s:.3f} s / untraced {plain.wall_s:.3f} s"
          f" = {traced.wall_s / plain.wall_s:.3f}")
    print(f"  spans: {len(setup_tracer.name)} set-up, {len(campaign_tracer.name)} campaign, written to {OUT}")
    _print_gate(problems)
    return result


def _print_gate(problems: list[str]) -> None:
    if problems:
        print("  correctness gate FAILED:")
        for problem in problems:
            print(f"    {problem}")
    else:
        print("  correctness gate passed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness = import_lctw()
    digests = load_digests()
    run = run_traced if args.trace else run_timed
    result = run(harness, args.workload, args.seed, args.seconds, digests)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
