"""The traced benchmark (bench/run.py --trace 1) names its per-layer metrics
after public functions of the lctw modules; a metric whose function is gone
or private reads nothing.  Checked here, on BENCHMARK.json as it stands."""

import importlib
import inspect
import json
import re
from pathlib import Path

import lctw.harness as harness
from lctw.cycles import LongestCycleSet

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
LAYERS = ("generate", "graph", "decomposition", "cycles", "classify", "transversal", "harness")


def test_every_per_layer_function_metric_names_a_public_function():
    named = []
    for metric in BENCHMARK["per_layer"]:
        m = re.fullmatch(r"(\w+)\.(\w+)\.(calls|s|self_s)", metric["name"])
        if m is None or m.group(1) not in LAYERS:
            continue
        mod = importlib.import_module(f"lctw.{m.group(1)}")
        fn = getattr(mod, m.group(2), None)
        assert not m.group(2).startswith("_"), metric["name"]
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, metric["name"]
        named.append(metric["name"])
    assert len(named) > 20


def test_the_traced_root_functions_exist():
    # the spans of one graph hang under these two
    assert inspect.isfunction(harness.evaluate_task)
    assert inspect.isfunction(harness.evaluate_conjecture_task)


def test_the_family_keeps_the_tracers_counters():
    # the tracer adds family.steps and len(family) to its cycle counters
    family = LongestCycleSet(4, ((0, 1, 2, 3),), (0b1111,), steps=7)
    assert (family.steps, len(family)) == (7, 1)
