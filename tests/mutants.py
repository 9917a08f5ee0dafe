"""A standing mutation suite: each row breaks ``src/lctw`` in one known way
and names the tests that must catch it.

Run ``python tests/mutants.py`` from anywhere in the repository.  Each row is
applied to its own copy of ``src/`` in a temporary directory; its tests then
run against that copy, and the row is reported

* killed: every named test failed (or the run outlasted ``TIMEOUT_S``);
* survived: some named test did not fail (it passed, or is no longer found);
* stale: the old text is not in the file exactly once, so the row needs
  rewriting for the current code.

The exit status is 0 only when every row is killed.  pytest does not collect
this file (its name does not start with ``test_``), so the tier-1 suite is
unchanged by it.  Reference: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 1978.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per row; a mutant may turn a loop into one that never ends

# (file under src/, old text, new text, ids of the tests that must fail)
MUTANTS = [
    (
        "lctw/decomposition.py",
        "    if not out and count == n and ",
        "    if True or not out and count == n and ",
        [
            "tests/test_decomposition.py::test_validate_reports_missing_vertex_and_edge",
            "tests/test_decomposition.py::test_validate_builds_no_bag_tuples_of_a_decomposition_made_from_masks",
            "tests/test_harness.py::test_validate_matches_the_set_reference",
        ],
    ),
    (
        "lctw/decomposition.py",
        "(masks[a] & masks[b]).bit_count() == k for a, b in self.tree_edges",
        "(masks[a] & masks[b]).bit_count() >= k - 1 for a, b in self.tree_edges",
        ["tests/test_harness.py::test_task_reader_matches_the_constructor_path"],
    ),
    (
        "lctw/harness.py",
        '    the vertex sets x and y."""\n',
        '    the vertex sets x and y."""\n    return False\n',
        ["tests/test_harness.py::test_the_joined_test_is_the_sweeps_only_fast_test"],
    ),
    (
        "lctw/harness.py",
        "pool.imap(report_line, tasks,",
        "pool.imap_unordered(report_line, tasks,",
        ["tests/test_harness.py::test_pools_take_one_worker_per_task_and_chunks_of_a_quarter_share"],
    ),
    (
        "lctw/decomposition.py",
        "                if type(v) is int and 0 <= v < n:\n",
        "                if 0 <= v < n:\n",
        ["tests/test_harness.py::test_validate_matches_the_set_reference"],
    ),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str:
    """killed, survived or stale: the verdict on one row."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", "-rfE", *tests]
        try:
            summary = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S).stdout
        except subprocess.TimeoutExpired:
            return "killed"  # the named tests hang on the mutant: none of them passes
    failed = [t for t in tests if re.search(rf"^(FAILED|ERROR) {re.escape(t)}(\[| |$)", summary, re.MULTILINE)]
    return "killed" if failed == tests else "survived"


def main() -> int:
    start = time.perf_counter()
    verdicts = []
    for i, (path, old, new, tests) in enumerate(MUTANTS):
        began = time.perf_counter()
        verdicts.append(verdict := run(path, old, new, tests))
        print(f"{i}: {verdict:8} {path}: {old.strip()[:60]!r} ({time.perf_counter() - began:.1f} s)", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
