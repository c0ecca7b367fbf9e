"""Span tracing from outside the package, for the traced benchmark run.

The tracer replaces each public vibeline function listed in install() with
a wrapper, at the module attribute its caller looks up, so calls made
inside `detect_with_timing` or `StreamState.push` are captured too.  A
span records (name, start, end, parent, op); spans stay in memory and
are written out once the run ends.  Self time is a span's duration
minus the time its children cover.  Counts are computed from argument
sizes after the wrapped call returns, so they never inflate a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

# A pixel below this share of the energy map's maximum casts votes that
# cannot move the Hough argmax; sparse voting would skip it.
USEFUL_VOTE_FLOOR = 1e-6

WARM = "warm"   # op id of stream pushes that do not emit
EVAL = "eval"   # op id of the once-per-run evaluate_batch call


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object


class Tracer:
    """In-memory span recorder; `enabled` gates recording per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple] = []  # (op, metric, value)
        self.op = None
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, math.nan, math.nan, parent, self.op))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx].end = end

    def root(self, op, fn, *args, **kwargs):
        """Run fn as op `op` under a root span named 'op'."""
        self.op = op
        idx = self._open("op")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, value in count(bound.arguments):
                    tracer.counts.append((tracer.op, metric, value))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "op": s.op, "start_s": s.start, "end_s": s.end,
                }) + "\n")


def _bytes_read(a):
    yield "core.bytes_read", os.path.getsize(a["path"])


def _pixel_windows(a):
    t, h, w = a["frames01"].shape
    windows = (t - a["window_len"]) // a["hop"] + 1
    yield "spectral.pixel_windows", h * w * windows


def _votes(a):
    feat, grid = a["feature"], a["grid"]
    votes = feat.size * grid.theta_bins
    peak = float(feat.max())
    useful = 0 if peak <= 0 else int((feat >= USEFUL_VOTE_FLOOR * peak).sum())
    yield "hough.votes", votes
    yield "hough.useful_votes", useful * grid.theta_bins


def install(tracer: Tracer, vb) -> None:
    """Wrap every traced layer function where its caller binds it.

    `detect_with_timing` and `load_sequence` are looked up by the CLI at
    call time; the spectral and Hough functions are bound into
    `vibeline.pipeline` at import, so they are wrapped there.
    """
    tracer.wrap(vb.cli, "main", "cli.main")
    tracer.wrap(vb.core, "load_sequence", "core.load_sequence", _bytes_read)
    tracer.wrap(vb.core, "save_sequence", "core.save_sequence")
    tracer.wrap(vb.core.UsSequence, "frames_float", "core.frames_float")
    tracer.wrap(vb.pipeline, "band_energy_from_frames",
                "spectral.band_energy_from_frames", _pixel_windows)
    tracer.wrap(vb.pipeline, "hough_transform", "hough.hough_transform", _votes)
    tracer.wrap(vb.pipeline, "shaft_from_hough", "hough.shaft_from_hough")
    tracer.wrap(vb.hough, "render_truth_map", "hough.render_truth_map")
    tracer.wrap(vb.pipeline, "detect_with_timing", "pipeline.detect_with_timing")
    tracer.wrap(vb.pipeline, "tip_along_line", "pipeline.tip_along_line")
    tracer.wrap(vb.pipeline.StreamState, "push", "pipeline.StreamState.push")
    tracer.wrap(vb.phantom, "synth_sequence", "phantom.synth_sequence")
    tracer.wrap(vb.phantom, "warp_bilinear", "phantom.warp_bilinear")
    tracer.wrap(vb.scoring, "hybrid_loss", "scoring.hybrid_loss")
    tracer.wrap(vb.scoring, "focal_loss_grad", "scoring.focal_loss_grad")
    tracer.wrap(vb.metrics, "evaluate_batch", "metrics.evaluate_batch")


# span name -> per-layer metric fed by the span's self time
SELF_METRIC = {
    "op": "bench.self_ms",
    "cli.main": "cli.self_ms",
    "core.load_sequence": "core.load_ms",
    "core.frames_float": "core.to_float_ms",
    "core.save_sequence": "core.save_ms",
    "spectral.band_energy_from_frames": "spectral.energy_ms",
    "hough.hough_transform": "hough.vote_ms",
    "hough.shaft_from_hough": "hough.decode_ms",
    "hough.render_truth_map": "hough.render_ms",
    "pipeline.detect_with_timing": "pipeline.detect_self_ms",
    "pipeline.tip_along_line": "pipeline.tip_ms",
    "pipeline.StreamState.push": "pipeline.stream_update_ms",
    "phantom.synth_sequence": "phantom.synth_ms",
    "phantom.warp_bilinear": "phantom.warp_ms",
    "scoring.hybrid_loss": "scoring.loss_ms",
    "scoring.focal_loss_grad": "scoring.loss_ms",
}
COUNT_METRICS = ("core.bytes_read", "spectral.pixel_windows", "hough.votes")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans run on one thread and a child lies inside its parent, so the
    children of one span never overlap and their durations add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_ops: list) -> dict:
    """Per-op medians of self times and counts over the traced ops."""
    ops = set(traced_ops)
    selfs = self_times(tracer.spans)
    per_op = {op: {} for op in ops}
    warm_push = []
    eval_ms = 0.0
    for s, own in zip(tracer.spans, selfs):
        if s.op == WARM:
            if s.name == "pipeline.StreamState.push":
                warm_push.append((s.end - s.start) * 1e3)
            continue
        if s.op == EVAL:
            if s.name == "metrics.evaluate_batch":
                eval_ms += (s.end - s.start) * 1e3
            continue
        if s.op in per_op:
            metric = SELF_METRIC[s.name]
            per_op[s.op][metric] = per_op[s.op].get(metric, 0.0) + own * 1e3
    for op, metric, value in tracer.counts:
        if op in per_op:
            per_op[op][metric] = per_op[op].get(metric, 0) + value
    names = sorted(set(SELF_METRIC.values()) | set(COUNT_METRICS))
    out = {m: _median([d.get(m, 0.0) for d in per_op.values()]) for m in names}
    votes = sum(d.get("hough.votes", 0) for d in per_op.values())
    useful = sum(d.get("hough.useful_votes", 0) for d in per_op.values())
    out["hough.useful_vote_ratio"] = useful / votes if votes else 0.0
    out["pipeline.warm_push_ms"] = _median(warm_push)
    out["metrics.eval_ms"] = eval_ms
    return out


def op_span_totals(tracer: Tracer, name: str) -> dict:
    """Total duration in ms of spans called `name`, keyed by op."""
    totals = {}
    for s in tracer.spans:
        if s.name == name:
            totals[s.op] = totals.get(s.op, 0.0) + (s.end - s.start) * 1e3
    return totals


def self_sums(tracer: Tracer) -> dict:
    """Sum of every span's self time in ms, keyed by op."""
    sums = {}
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        sums[s.op] = sums.get(s.op, 0.0) + own * 1e3
    return sums
