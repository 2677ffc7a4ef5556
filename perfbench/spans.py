"""Spans and counts recorded at layer boundaries, and the per-layer metrics.

A span is (id, name, parent, start, end); its layer is the part of the name
before the first dot, which is the `vibrancy` module whose public function
the span wraps. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("ingest", "signatures", "clustering", "features", "logit", "pipeline", "synth")
ROOTS = ("pipeline.run", "synth.setup")  # trees whose spans count towards layer self time

# per-layer metric -> the spans whose durations it sums
SPAN_SUMS = {
    "ingest.parse_traffic_s": ("ingest.parse_traffic",),
    "ingest.parse_pois_s": ("ingest.parse_pois",),
    "signatures.build_s": ("signatures.build_signatures", "signatures.concat_tensors"),
    "signatures.relative_risk_s": ("signatures.relative_risk",),
    "signatures.write_s": ("signatures.write",),
    "clustering.select_k_s": ("clustering.select_k",),
    "clustering.kmeans_s": ("clustering.kmeans",),
    "clustering.silhouette_s": ("clustering.silhouette",),
    "clustering.write_s": ("clustering.write",),
    "features.build_s": ("features.filter_rare_labels", "features.build_features"),
    "features.write_s": ("features.write",),
    "logit.fit_s": ("logit.fit_membership_model",),
    "pipeline.hash_s": ("pipeline.hash",),
    "synth.generate_s": ("synth.generate_for_day_types",),
    "synth.write_s": ("synth.write_city",),
    "trace.split_s": ("trace.split",),
}

COUNTS = (
    "ingest.passes", "ingest.rows", "ingest.rows_rejected", "ingest.records_held",
    "clustering.kmeans_calls", "clustering.kmeans_iters", "clustering.kmeans_unconverged",
    "clustering.silhouette_calls", "clustering.silhouette_block_mb",
    "features.pois", "logit.n_iter", "logit.final_grad_norm",
    "pipeline.artifacts", "pipeline.artifact_bytes", "pipeline.scopes", "synth.rows",
)

RUN_TIMES = ("trace.untraced_run_s", "trace.traced_run_s", "trace.overhead_s")

UNITS = {
    "clustering.silhouette_block_mb": "MiB",
    "pipeline.artifact_bytes": "B",
    "logit.final_grad_norm": "1",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def per_layer_names() -> list[str]:
    names = list(SPAN_SUMS) + list(COUNTS) + [f"{layer}.self_s" for layer in LAYERS]
    return sorted(names + list(RUN_TIMES))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def dump(self, path: Path, extra: dict) -> None:
        doc = {"spans": self.spans, "counts": self.counts, **extra}
        path.write_text(json.dumps(doc), encoding="utf-8")


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Span sums, counts and per-layer self time from one traced run.

    A layer's self time is the duration of its spans minus the time their
    child spans cover, over the spans below the roots in ROOTS.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in LAYERS and root_of(s) in ROOTS:
            out[f"{layer}.self_s"] += dur[s["id"]] - child_time[s["id"]]
    for metric, names in SPAN_SUMS.items():
        out[metric] = sum(dur[s["id"]] for s in spans if s["name"] in names)
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    return out
