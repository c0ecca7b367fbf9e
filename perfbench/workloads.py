"""Inputs, set-up and the closed op loop of each benchmark workload.

One client runs one op at a time and sends the next only after the
previous returns (closed loop).  Every op reaches vibeline through a
module attribute at call time (`vb.core.save_sequence`, not an
imported name), so the traced run's wrappers see the same calls.

batch   one in-process `vibeline detect FILE --out JSON` (cli.main) per
        op on fullsize phantoms; evaluate_batch scores the JSONs once.
stream  one emitting StreamState.push per op while 120-frame phantoms
        with sigma = 1 grey-level sensor noise are replayed.
gen     one training sample per op: synth, save, render, losses.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracing import EVAL, WARM, op_span_totals, self_sums

HIT_ANGLE_DEG = 2.0
HIT_PX = 2.0
NOISE_SIGMA = 1.0          # grey levels, i.i.d. per pixel and frame
GEN_POOL_BASE_SEED = 1000  # gen/batch phantom seeds are base + pool index
XCHECK_TOL = 0.10          # trace vs --timing agreement
SELF_SUM_TOL = 0.05        # summed self times vs measured op latency

# rng stream tags, so each use of the workload seed draws independently
_POOL_ORDER, _STREAM_PHANTOMS, _NOISE, _JITTER = 1, 2, 3, 4

REFERENCE_FILE = Path(__file__).with_name("gen_reference.json")


@dataclass(frozen=True)
class Profile:
    """Input sizes; 'full' is what the benchmark measures."""

    name: str
    height: int
    width: int
    entry: tuple
    needle_length: float
    batch_frames: int
    stream_frames: int
    batch_files: int
    stream_phantoms: int
    pool_size: int
    warmup_ops: int
    min_ops: int


PROFILES = {
    "full": Profile("full", 328, 335, (0.0, 280.0), 260.0, 30, 120,
                    batch_files=6, stream_phantoms=2, pool_size=256,
                    warmup_ops=2, min_ops=100),
    "tiny": Profile("tiny", 64, 64, (0.0, 54.0), 50.0, 30, 40,
                    batch_files=2, stream_phantoms=1, pool_size=8,
                    warmup_ops=1, min_ops=3),
}


@dataclass
class Result:
    """What one measured run produced, before metrics are formatted.

    In the traced run latencies_s holds the traced ops only.
    """

    attempted: int = 0
    failed: int = 0
    hits: int = 0
    wall_s: float = 0.0
    rate_units: float = 0.0    # ops, or frames for stream
    rate_time_s: float = 0.0   # time spent inside ops (or pushes)
    latencies_s: list = field(default_factory=list)
    untraced_latencies_s: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)        # facts for the summary
    layer_extra: dict = field(default_factory=dict)  # per-layer metrics

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.setdefault("failures", []).append(why)


def phantom_spec(vb, prof: Profile, seed: int, frames: int):
    """Invisible needle plus one static distractor, as acceptance 06."""
    return replace(
        vb.phantom.preset("fullsize"),
        height=prof.height, width=prof.width, needle_entry=prof.entry,
        needle_length=prof.needle_length, frame_count=frames,
        visibility=0.0, artifact_count=1, seed=seed,
    )


def gt_path(seq_path: Path) -> Path:
    return seq_path.with_name(seq_path.name[:-len(".vibseq")] + ".gt.json")


def write_sample(vb, prof: Profile, seed: int, out: Path):
    """Synthesize one phantom and write it with its ground truth."""
    seq, gt = vb.phantom.synth_sequence(phantom_spec(vb, prof, seed,
                                                     prof.batch_frames))
    vb.core.save_sequence(seq, out)
    vb.phantom.save_ground_truth(gt, gt_path(out))
    return gt


def _jittered(gt, seed: int):
    """Prediction geometry: truth moved by a fixed per-sample offset."""
    rng = np.random.default_rng([_JITTER, seed])
    d = rng.uniform(-2.0, 2.0, size=4)
    return (gt.theta + d[0], gt.rho + d[1], gt.tip_x + d[2], gt.tip_y + d[3])


def gen_sample(vb, prof: Profile, seed: int, out: Path):
    """One gen op; returns (loss, sum |grad|)."""
    gt = write_sample(vb, prof, seed, out)
    grid = vb.hough.HoughGrid(image_h=prof.height, image_w=prof.width)
    truth = vb.hough.render_truth_map(grid, gt.theta, gt.rho, gt.tip_x, gt.tip_y)
    theta, rho, tx, ty = _jittered(gt, seed)
    tx = min(max(tx, 0.0), prof.width - 1.0)
    ty = min(max(ty, 0.0), prof.height - 1.0)
    pred = vb.hough.render_truth_map(grid, theta, rho, tx, ty)
    loss = vb.scoring.hybrid_loss(pred, truth)
    grad = vb.scoring.focal_loss_grad(pred.shaft, truth.shaft)
    return loss, float(np.abs(grad).sum())


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pool_order(prof: Profile, seed: int) -> list:
    """The workload seed picks which pool samples are used, in what order."""
    rng = np.random.default_rng([_POOL_ORDER, seed])
    return [int(i) for i in rng.permutation(prof.pool_size)]


def record_reference(vb, work: Path) -> dict:
    """Digests and losses of every pool sample, for gen's correctness check."""
    ref = {}
    for prof in PROFILES.values():
        entries = []
        for j in range(prof.pool_size):
            seed = GEN_POOL_BASE_SEED + j
            out = work / "ref.vibseq"
            loss, grad_sum = gen_sample(vb, prof, seed, out)
            entries.append({"seed": seed, "digest": file_digest(out),
                            "gt_digest": file_digest(gt_path(out)),
                            "loss": loss, "grad_abs_sum": grad_sum})
        ref[prof.name] = entries
    return ref


def _angle_err(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def _tip_hit(det: dict, gt) -> bool:
    """Within 2 deg / 2 px of the truth, as evaluate_batch counts a hit."""
    if det["low_confidence"] or det["tip_x_px"] is None or det["tip_y_px"] is None:
        return False
    return (_angle_err(det["theta_deg"], gt.theta) <= HIT_ANGLE_DEG
            and math.hypot(det["tip_x_px"] - gt.tip_x,
                           det["tip_y_px"] - gt.tip_y) <= HIT_PX)


def _capped(start: float, seconds: float) -> bool:
    """Hard end of a run, so it always exits in time."""
    return time.perf_counter() - start >= seconds + min(2.0 * seconds, 60.0)


def _stop(start: float, seconds: float, done: int, min_ops: int) -> bool:
    """Measure for `seconds`, extended (up to a cap) until min_ops ran.

    op_p90_ms needs at least 100 samples for 10 to lie beyond it.
    """
    return _capped(start, seconds) or (
        time.perf_counter() - start >= seconds and done >= min_ops)


def _timed_op(res: Result, tracer, probe, fn, *args):
    """Run one op; returns its result, or the exception it raised.

    In the traced run even ops are traced and odd ops are not, so the
    tracing overhead is measured on interleaved ops of one process.  In
    the untraced run the speed probe is sampled after every op.
    """
    op = res.attempted
    traced = tracer is not None and op % 2 == 0
    if tracer is not None:
        tracer.enabled = traced
    t0 = time.perf_counter()
    try:
        out = tracer.root(op, fn, *args) if traced else fn(*args)
    except Exception as exc:  # an op that raises is a failed op
        out = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        if traced:
            res.traced_ops.append(op)
    res.attempted += 1
    res.rate_time_s += dt
    (res.untraced_latencies_s if tracer is not None and not traced
     else res.latencies_s).append(dt)
    if probe is not None:
        probe.sample()
    return out


# ------------------------------------------------------------------ batch

class Batch:
    name = "batch"

    def __init__(self, vb, prof: Profile, seed: int, work: Path):
        self.vb, self.prof, self.seed, self.work = vb, prof, seed, work

    def setup(self) -> None:
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        order = pool_order(self.prof, self.seed)[: self.prof.batch_files]
        self.files = []
        for j in order:
            out = inputs / f"s{GEN_POOL_BASE_SEED + j}.vibseq"
            self.files.append((out, write_sample(self.vb, self.prof,
                                                 GEN_POOL_BASE_SEED + j, out)))
        for k in range(self.prof.warmup_ops):
            src, _ = self.files[k % len(self.files)]
            self.vb.cli.main(["detect", str(src),
                              "--out", str(self.work / "warmup.json")])

    def run(self, seconds: float, tracer=None, probe=None) -> Result:
        vb, res = self.vb, Result()
        preds, gts, timings = (self.work / d for d in ("preds", "gts", "timings"))
        for d in (preds, gts, timings):
            d.mkdir(exist_ok=True)
        spacing = self.files[0][1].pixel_spacing
        start = time.perf_counter()
        while not _stop(start, seconds, res.attempted, self.prof.min_ops):
            i = res.attempted
            src, gt = self.files[i % len(self.files)]
            out = preds / f"op{i:05d}.json"
            argv = ["detect", str(src), "--out", str(out)]
            if tracer is not None:
                argv += ["--timing", str(timings / f"op{i:05d}.json")]
            code = _timed_op(res, tracer, probe, vb.cli.main, argv)
            det = self._read_detection(out, code)
            if det is None:
                res.fail(f"op {i}: exit {code!r}")
            else:
                shutil.copyfile(gt_path(src), gts / f"op{i:05d}.gt.json")
                res.hits += _tip_hit(det, gt)
        res.wall_s = time.perf_counter() - start
        res.rate_units = res.attempted
        res.layer_extra["pipeline.tip_hit_rate"] = res.hits / res.attempted
        self._evaluate(res, preds, gts, spacing, tracer)
        if tracer is not None:
            self._cross_check(res, tracer, timings)
        return res

    @staticmethod
    def _read_detection(out: Path, code):
        if code not in (0, 3):
            return None
        try:
            det = json.loads(out.read_text())
        except (OSError, ValueError):
            return None
        keys = {"theta_deg", "rho_px", "tip_x_px", "tip_y_px",
                "confidence", "low_confidence"}
        return det if isinstance(det, dict) and keys <= set(det) else None

    def _evaluate(self, res: Result, preds: Path, gts: Path, spacing: float,
                  tracer) -> None:
        """evaluate_batch must count the same hits as the benchmark."""
        if res.attempted == res.failed:
            return
        if tracer is not None:
            tracer.op, tracer.enabled = EVAL, True
        try:
            records, _, _ = self.vb.metrics.evaluate_batch(
                preds, gts, angle_thresh=HIT_ANGLE_DEG,
                tip_thresh=HIT_PX * spacing)
        finally:
            if tracer is not None:
                tracer.enabled = False
        eval_hits = sum(not r.exceeds(HIT_ANGLE_DEG, HIT_PX * spacing)
                        for r in records)
        res.notes["evaluate_batch_hits"] = eval_hits
        if eval_hits != res.hits:
            res.fail(f"evaluate_batch counts {eval_hits} hits, "
                     f"benchmark {res.hits}")

    def _cross_check(self, res: Result, tracer, timings: Path) -> None:
        """Trace spans against the CLI's own --timing for the same ops."""
        spans = {"spectral": op_span_totals(tracer, "spectral.band_energy_from_frames"),
                 "hough": op_span_totals(tracer, "hough.hough_transform")}
        cli = {"spectral": 0.0, "hough": 0.0}
        traced = {"spectral": 0.0, "hough": 0.0}
        for i in res.traced_ops:
            path = timings / f"op{i:05d}.json"
            if not path.exists():
                continue
            timing = json.loads(path.read_text())
            for stage in cli:
                cli[stage] += timing[f"{stage}_ms"]
                traced[stage] += spans[stage].get(i, 0.0)
        for stage in cli:
            dev = abs(traced[stage] / cli[stage] - 1.0) if cli[stage] else 1.0
            res.layer_extra[f"xcheck.{stage}_dev_pct"] = 100.0 * dev
            if dev > XCHECK_TOL:
                res.fail(f"trace {stage} differs from --timing by {100 * dev:.1f}%")


# ----------------------------------------------------------------- stream

def add_sensor_noise(frames: np.ndarray, seed: int, replay: int) -> np.ndarray:
    """uint8 frames plus rounded N(0, NOISE_SIGMA) noise, clipped to 0..255."""
    rng = np.random.default_rng([_NOISE, seed, replay])
    out = np.empty_like(frames)
    for t in range(frames.shape[0]):
        noise = rng.standard_normal(frames.shape[1:], dtype=np.float32)
        noisy = np.rint(frames[t] + NOISE_SIGMA * noise)
        np.clip(noisy, 0, 255, out=noisy)
        out[t] = noisy
    return out


class Stream:
    """Replays end at the last frame, so every replay has the same mix of
    warm-up and emitting pushes and ops_per_s does not depend on where
    the clock ran out."""

    name = "stream"

    def __init__(self, vb, prof: Profile, seed: int, work: Path):
        self.vb, self.prof, self.seed, self.work = vb, prof, seed, work

    def setup(self) -> None:
        vb = self.vb
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([_STREAM_PHANTOMS, self.seed])
        self.phantoms = []
        for k in range(self.prof.stream_phantoms):
            pseed = int(rng.integers(0, 2 ** 31))
            seq, gt = vb.phantom.synth_sequence(
                phantom_spec(vb, self.prof, pseed, self.prof.stream_frames))
            path = self.work / f"stream{k}.vibseq"
            vb.core.save_sequence(seq, path)
            self.phantoms.append((vb.core.load_sequence(path), gt))
        seq = self.phantoms[0][0]
        state = vb.pipeline.StreamState(seq.height, seq.width, seq.fps)
        for t in range(state.warmup + self.prof.warmup_ops - 1):
            state.push(seq.frames[t])

    def run(self, seconds: float, tracer=None, probe=None) -> Result:
        vb, res = self.vb, Result()
        shaft_hits = tip_hits = 0
        start = time.perf_counter()
        replay = 0
        while not _stop(start, seconds, res.attempted, self.prof.min_ops):
            seq, gt = self.phantoms[replay % len(self.phantoms)]
            frames = add_sensor_noise(seq.frames, self.seed, replay)
            state = vb.pipeline.StreamState(seq.height, seq.width, seq.fps)
            last = None
            for t in range(seq.frame_count):
                if _capped(start, seconds):
                    break
                res.rate_units += 1
                if state.frames_seen + 1 < state.warmup:
                    self._warm_push(res, tracer, state, frames[t], replay, t)
                    continue
                det = _timed_op(res, tracer, probe, state.push, frames[t])
                if not isinstance(det, vb.pipeline.Detection):
                    res.fail(f"replay {replay} frame {t}: {det!r}")
                    last = None
                    continue
                angle_ok = _angle_err(det.theta, gt.theta) <= HIT_ANGLE_DEG
                shaft_hits += angle_ok and abs(det.rho - gt.rho) <= HIT_PX
                tip_hits += _tip_hit(det.to_dict(), gt)
                last = (t, det)
            if last is not None and not self._matches_batch(frames, *last, seq.fps):
                res.fail(f"replay {replay}: final emission differs from detect_frames")
            replay += 1
        res.wall_s = time.perf_counter() - start
        res.hits = shaft_hits
        res.notes.update(replays=replay, tip_hits=tip_hits)
        res.layer_extra["pipeline.tip_hit_rate"] = tip_hits / max(res.attempted, 1)
        return res

    @staticmethod
    def _warm_push(res: Result, tracer, state, frame, replay: int, t: int) -> None:
        """A push during warm-up: timed (and traced) but not an op."""
        if tracer is not None:
            tracer.op, tracer.enabled = WARM, True
        t0 = time.perf_counter()
        try:
            det = state.push(frame)
        except Exception as exc:  # a failing warm-up push fails as an op
            det = exc
        res.rate_time_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if det is not None:
            res.attempted += 1
            res.fail(f"replay {replay} frame {t}: during warm-up {det!r}")

    def _matches_batch(self, frames, t: int, det, fps: float) -> bool:
        """Batch detection on the same trailing frames: shaft exact, tip 1 px."""
        warm = self.vb.pipeline.DEFAULT_WARMUP
        window = frames[t + 1 - warm: t + 1].astype(np.float64) / 255.0
        ref, _ = self.vb.pipeline.detect_frames(window, fps)
        if (det.theta, det.rho) != (ref.theta, ref.rho):
            return False
        if det.tip_x is None or ref.tip_x is None:
            return det.tip_x is None and ref.tip_x is None
        return math.hypot(det.tip_x - ref.tip_x, det.tip_y - ref.tip_y) <= 1.0


# -------------------------------------------------------------------- gen

class Gen:
    name = "gen"

    def __init__(self, vb, prof: Profile, seed: int, work: Path):
        self.vb, self.prof, self.seed, self.work = vb, prof, seed, work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        ref = json.loads(REFERENCE_FILE.read_text())[self.prof.name]
        if len(ref) != self.prof.pool_size:
            raise ValueError(f"{REFERENCE_FILE.name} holds {len(ref)} "
                             f"{self.prof.name} samples, expected "
                             f"{self.prof.pool_size}")
        self.reference = ref
        self.order = pool_order(self.prof, self.seed)
        for k in range(self.prof.warmup_ops):
            gen_sample(self.vb, self.prof, ref[self.order[-1 - k]]["seed"],
                       self.work / "warmup.vibseq")

    def run(self, seconds: float, tracer=None, probe=None) -> Result:
        res = Result()
        out = self.work / "sample.vibseq"
        start = time.perf_counter()
        while not _stop(start, seconds, res.attempted, self.prof.min_ops):
            i = res.attempted
            ref = self.reference[self.order[i % len(self.order)]]
            got = _timed_op(res, tracer, probe, gen_sample, self.vb, self.prof,
                            ref["seed"], out)
            if self._matches(got, out, ref):
                res.hits += 1
            else:
                res.fail(f"op {i} (seed {ref['seed']}): {got!r} differs from reference")
        res.wall_s = time.perf_counter() - start
        res.rate_units = res.attempted
        return res

    @staticmethod
    def _matches(got, out: Path, ref: dict) -> bool:
        if isinstance(got, Exception):
            return False
        loss, grad_sum = got
        return (file_digest(out) == ref["digest"]
                and file_digest(gt_path(out)) == ref["gt_digest"]
                and math.isclose(loss, ref["loss"], rel_tol=1e-9)
                and math.isclose(grad_sum, ref["grad_abs_sum"], rel_tol=1e-9))


WORKLOADS = {cls.name: cls for cls in (Batch, Stream, Gen)}


def self_sum_ratio(tracer, res: Result) -> float:
    """Median over traced ops of (sum of span self times) / op latency."""
    sums = self_sums(tracer)
    lat = dict(zip(res.traced_ops, res.latencies_s))
    ratios = [sums.get(op, 0.0) / (lat[op] * 1e3) for op in res.traced_ops]
    return float(statistics.median(ratios)) if ratios else 0.0
