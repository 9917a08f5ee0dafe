"""Tests of the campaign benchmark itself:

    python -m pytest bench

The smoke tests run every workload at a tiny corpus size; the anchor test
reproduces the criterion-1 behaviour digest through the benchmark's own code
path and takes about a minute on 2 CPUs.
"""

import json
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
TINY = 0.2  # --seconds: 10 verify and 25 conjecture graphs; the exhaustive corpus is fixed
SEED = 3

# Work counters that must repeat exactly between two traced runs of one corpus.
DETERMINISTIC_COUNTERS = (
    "cycles.enum_steps",
    "cycles.longest_cycles",
    "generate.canonical_key.calls",
    "transversal.build_families.calls",
    "harness.separator_pairs",
    "decomposition.exact_treewidth.calls",
)

CRITERION_1_DIGEST = "a5d69c60ce3b7d9ed01c5c74502aeff2968a8bd44de99b58272c28eaecd2d091"


def bench(workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(TINY), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout, json.loads(out.stdout.splitlines()[-1])


def test_benchmark_file_matches_the_benchmark():
    assert WORKLOAD_NAMES == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(workload, trace, section):
    stdout, result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: body["unit"] for name, body in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in stdout.splitlines()[:-1] if line.startswith("  ")}
    assert set(expected) <= printed


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counters_repeat_and_load_the_chosen_layers(workload):
    first = bench(workload, 1)[1]["metrics"]
    second = bench(workload, 1)[1]["metrics"]
    for counter in DETERMINISTIC_COUNTERS:
        assert first[counter]["value"] == second[counter]["value"], counter
    calls = {name: body["value"] for name, body in first.items() if name.endswith(".calls")}
    if workload == "conjecture_k4":
        assert calls["classify.cycle_posture.calls"] == 0
        assert calls["transversal.build_families.calls"] == 0
    elif workload == "exhaustive_k3":
        assert calls["decomposition.exact_treewidth.calls"] == calls["cycles.enumerate_longest_cycles.calls"] == 382
    else:
        assert calls["decomposition.exact_treewidth.calls"] == 0
        assert calls["transversal.build_families.calls"] > 0


@pytest.mark.parametrize("frozen_is_right", [True, False])
def test_digest_gate(tmp_path, monkeypatch, capsys, frozen_is_right):
    workload = run.WORKLOADS["verify_k3_random"]
    spec = run.corpus_spec(workload, TINY)
    harness = run.import_lctw()
    report = run.campaign(harness, workload.kind, run.build_corpus(harness, spec, SEED), 1, probe=False)
    digest = run.report_digest(report.text) if frozen_is_right else "0" * 64
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({run.digest_key("verify_k3_random", spec, SEED): digest}))
    monkeypatch.setattr(run, "DIGESTS", digests)

    argv = ["--workload", "verify_k3_random", "--seed", str(SEED), "--seconds", str(TINY)]
    assert run.main(argv) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is frozen_is_right
    if frozen_is_right:
        assert result["failed"] == 0 and result["metrics"]["ok_share"]["value"] == 1.0
    else:
        assert "differs from the frozen" in stdout
        assert result["failed"] == result["attempted"] and result["metrics"]["ok_share"]["value"] == 0.0


def test_criterion_1_anchor():
    harness = run.import_lctw()
    tasks = run.build_corpus(harness, "mode=exhaustive,k=3,nmax=8", 0)
    tasks += run.build_corpus(harness, "k=3,n=9..14,count=1000,p=0.25", 20260808)
    report = run.campaign(harness, "verify", tasks, 2, probe=False)
    assert run.gate(harness, "verify", len(tasks), [report], CRITERION_1_DIGEST) == []
