"""BENCHMARK.json is generated from spec.py and stays within its format limits."""

import json
import os
import re

from layers import Observations, layer_metrics
from spec import ALIASES, END_TO_END, PER_LAYER, WORKLOADS, render_document

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_generated_from_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert handle.read() == render_document()


def test_document_respects_the_format_limits():
    document = json.loads(render_document())
    assert list(document) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]
    assert len(json.dumps(document)) <= 64 * 1024


def test_every_gated_metric_has_a_meaning_on_every_workload():
    for metric in END_TO_END:
        assert set(ALIASES[metric.name]) == {w.name for w in WORKLOADS}


def test_layer_metrics_produce_exactly_the_per_layer_spec():
    metrics = layer_metrics([], Observations(), {}, traced_wall=1.0, untraced_wall=1.0)
    assert set(metrics) == {layer.name for layer in PER_LAYER}
    workloads = {w.name for w in WORKLOADS}
    for layer in PER_LAYER:
        assert set(layer.on) <= workloads
        assert layer.moves in {m.name for m in END_TO_END}


def test_every_traced_layer_has_a_self_time_metric():
    from spec import SPAN_LAYERS

    self_metrics = [layer.name for layer in PER_LAYER if layer.name.startswith("self_s.")]
    assert self_metrics == [f"self_s.{layer}" for layer in SPAN_LAYERS]
