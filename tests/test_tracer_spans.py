"""The benchmark's per-layer metrics name spans that its tracer records.

`perfbench/run.py --trace 1` looks up every per-layer metric of
`BENCHMARK.json` among the tracer's span names and stops with a KeyError
when a function it names is gone, so the functions those metrics name
stay until the benchmark drops the metric.
"""

import json
from pathlib import Path

import families
from outerspatial import decider, embedding

ROOT = Path(__file__).resolve().parents[1]


def test_every_per_layer_metric_names_a_span():
    (tracing,) = families.perfbench_modules("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decider.decide_outerspatial.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(decider.decide_outerspatial, "__wrapped__")
    assert not hasattr(embedding.cycle_sides, "__wrapped__")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["per_layer"]]
    spanned = [m.rsplit(".", 1)[0] for m in metrics if m.endswith((".s", ".calls"))]
    assert "embedding.cycles_cross" in spanned and "surface.closed_surface" in spanned
    assert sorted(set(spanned) - set(tracer.names)) == []
