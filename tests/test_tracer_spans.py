"""The benchmark's per-layer metrics name spans that its tracer records.

`perfbench/run.py --trace 1` looks up every per-layer metric of
`BENCHMARK.json` among the tracer's span names and stops with a KeyError
when a function it names is gone, so the functions those metrics name
stay until the benchmark drops the metric.
"""

import json
from pathlib import Path

import families
from outerspatial import decider, embedding, oracle

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


def test_component_certificate_is_spanned_where_decider_and_oracle_bind_it():
    """A triangle-fallback `decide` and the exhaustive search each record its span."""
    (tracing,) = families.perfbench_modules("tracing")
    real = embedding.component_certificate
    fan = families.from_cycles({"t1": "oab", "t2": "obc", "t3": "ocd", "t4": "oda"})
    spanned = []
    for module, run in ((decider, decider.decide_outerspatial),
                        (oracle, oracle.brute_force_outerspatial)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert module.component_certificate.__wrapped__ is real
            tracer.active = True
            run(fan)
            tracer.active = False
        finally:
            tracer.uninstall()
        assert module.component_certificate is real
        spanned.append("embedding.component_certificate" in [tracer.names[n] for n in tracer.name])
    assert spanned == [True, True]
