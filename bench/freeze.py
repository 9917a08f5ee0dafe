"""Freeze the report digests the benchmark's correctness gate compares against.

    python3 bench/freeze.py --seeds 0-24

For every workload and seed, builds the corpus at BENCHMARK.json's
run_seconds, runs the campaign at workers=nproc and stores the digest of the
report with ``ms`` stripped in digests.json, next to those already there.
Run it only on code whose reports are known to be right: a frozen digest
stands for the behaviour every later run must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="for example 0-24 or 1,5,9")
    args = parser.parse_args()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    harness = run.import_lctw()
    digests = run.load_digests()
    workers = len(os.sched_getaffinity(0))
    for name, workload in run.WORKLOADS.items():
        spec = run.corpus_spec(workload, seconds)
        for seed in parse_seeds(args.seeds):
            key = run.digest_key(name, spec, seed)
            if key in digests:
                continue
            tasks = run.build_corpus(harness, spec, seed)
            report = run.campaign(harness, workload.kind, tasks, workers, probe=False)
            problems = run.gate(harness, workload.kind, len(tasks), [report], None)
            if problems:
                raise SystemExit(f"{key}: not frozen: {'; '.join(problems)}")
            digests[key] = run.report_digest(report.text)
            print(key, digests[key], flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
