"""The benchmark's per-layer metrics name layers that its tracer wraps.

perfbench names each traced layer by the module that defines the wrapped
function, and a layer that nothing wraps reads 0 on every metric. So a
refactor that moves or renames a traced function would turn its metrics to
0 without failing a run. Every per-layer metric outside the `ops.` and
`trace.` totals must name the layer of some `run.TRACE_SITES` entry.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_per_layer_metric_names_a_traced_layer():
    traced = {spans.layer_name(getattr(owner, attr)) for owner, attr in run.TRACE_SITES}
    layers = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]
              if not m["name"].startswith(("ops.", "trace."))}
    assert layers
    assert not layers - traced, f"per-layer metrics of untraced layers: {sorted(layers - traced)}"
