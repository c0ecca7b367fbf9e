#!/usr/bin/env python3
"""vibeline benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload {batch,stream,gen} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src, so
the benchmark measures the checkout it sits in.  Set-up (inputs made
from --seed, written to disk, warm-up ops) runs three times, each in a
fresh process, and setup_s is their median, so import-time work and
caches filled on first call show up in it.  Then the workload's ops run
for --seconds (extended until 100 ops ran, for op_p90_ms).

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layer
functions, traces every other op and prints the per-layer metrics and
cross-checks.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A human-readable summary goes to stderr.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
SETUP_PROBES = 15   # speed-probe samples taken after each set-up
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("hit_rate", "ratio"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("core.load_ms", "ms"),
    ("core.to_float_ms", "ms"),
    ("core.save_ms", "ms"),
    ("core.bytes_read", "bytes"),
    ("spectral.energy_ms", "ms"),
    ("spectral.pixel_windows", "count"),
    ("hough.vote_ms", "ms"),
    ("hough.votes", "count"),
    ("hough.useful_vote_ratio", "ratio"),
    ("hough.decode_ms", "ms"),
    ("hough.render_ms", "ms"),
    ("pipeline.detect_self_ms", "ms"),
    ("pipeline.tip_ms", "ms"),
    ("pipeline.stream_update_ms", "ms"),
    ("pipeline.warm_push_ms", "ms"),
    ("pipeline.tip_hit_rate", "ratio"),
    ("phantom.synth_ms", "ms"),
    ("phantom.warp_ms", "ms"),
    ("scoring.loss_ms", "ms"),
    ("metrics.eval_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("xcheck.spectral_dev_pct", "%"),
    ("xcheck.hough_dev_pct", "%"),
    ("xcheck.self_sum_ratio", "ratio"),
)

VIBELINE_MODULES = ("core", "spectral", "hough", "pipeline", "phantom",
                    "scoring", "metrics", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (missing package, failed set-up)."""


def import_vibeline() -> SimpleNamespace:
    """Import vibeline from this checkout's src/, never from elsewhere."""
    if not (SRC / "vibeline" / "__init__.py").is_file():
        raise BenchError(f"no vibeline package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"vibeline.{m}") for m in VIBELINE_MODULES}
    origin = Path(mods["core"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise BenchError(f"vibeline imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def make_workload(vb, args, tag: str):
    prof = workloads.PROFILES[args.profile]
    work = WORK / f"{args.workload}-{tag}-{os.getpid()}"
    return workloads.WORKLOADS[args.workload](vb, prof, args.seed, work), work


def setup_in_child(args) -> tuple:
    """Time one cold set-up (import included) in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--profile", args.profile, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


def timed_setup(args, tag: str):
    """Import vibeline, make the inputs and run warm-up ops; time it all.

    Returns the set-up time scaled to reference host speed and raw.
    """
    t0 = time.perf_counter()
    vb = import_vibeline()
    wl, work = make_workload(vb, args, tag)
    try:
        wl.setup()
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    raw = time.perf_counter() - t0
    probe = SpeedProbe()
    probe.sample(SETUP_PROBES)
    return vb, wl, work, (raw * probe.factor(), raw)


def end_to_end(res, setup_times, probe: SpeedProbe) -> dict:
    scale = probe.factor()
    local = probe.local_factors()
    if len(local) != len(res.latencies_s):
        raise BenchError(f"{len(local)} speed samples for "
                         f"{len(res.latencies_s)} ops")
    scaled = [x * f for x, f in zip(res.latencies_s, local)]
    lat = sorted(x * 1e3 for x in scaled)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    between_ops = res.rate_time_s - sum(res.latencies_s)  # stream warm-up pushes
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": p90,
        "ops_per_s": res.rate_units / (sum(scaled) + between_ops * scale),
        "hit_rate": res.hits / res.attempted,
        "success_ratio": max(0.0, 1.0 - res.failed / res.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(res, tracer) -> dict:
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(layer_metrics(tracer, res.traced_ops))
    out.update(res.layer_extra)
    traced = statistics.median(res.latencies_s) * 1e3
    untraced = statistics.median(res.untraced_latencies_s or res.latencies_s) * 1e3
    out["trace.op_p50_ms"] = traced
    out["trace.untraced_op_p50_ms"] = untraced
    out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    ratio = workloads.self_sum_ratio(tracer, res)
    out["xcheck.self_sum_ratio"] = ratio
    if abs(ratio - 1.0) > workloads.SELF_SUM_TOL:
        res.fail(f"span self times sum to {ratio:.3f} of the op latency")
    return out


def measure(args) -> dict:
    """Set up, run the ops, and compute the metrics of one run.

    The traced run reports no set-up time, so it sets up only once.
    """
    setups = [] if args.trace else [setup_in_child(args)
                                    for _ in range(SETUP_REPS - 1)]
    vb, wl, work, main_setup = timed_setup(args, "run")
    setups.append(main_setup)
    tracer = probe = None
    try:
        if args.trace:
            tracer = Tracer()
            install(tracer, vb)
        else:
            probe = SpeedProbe()
        res = wl.run(args.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = per_layer(res, tracer)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        res.notes["spans"] = str(spans.relative_to(ROOT))
    else:
        values = end_to_end(res, [scaled for scaled, _ in setups], probe)
        units = dict(END_TO_END)
        lat = [x * 1e3 for x in res.latencies_s]
        res.notes.update(speed_factor=round(probe.factor(), 4),
                         raw_op_p50_ms=round(statistics.median(lat), 3),
                         raw_ops_per_s=round(res.rate_units / res.rate_time_s, 4))
    res.notes.update(setup_s_scaled_raw=[[round(t, 4) for t in st] for st in setups],
                     ops_measured=len(res.latencies_s),
                     run_wall_s=round(res.wall_s, 3))
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }, res.notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full",
                    help="input sizes; 'tiny' is for the smoke test only")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print {\"setup_s\": ...}")
    ap.add_argument("--record-gen-reference", action="store_true",
                    help="rewrite gen_reference.json from the current code")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_gen_reference:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.record_gen_reference:
            vb = import_vibeline()
            work = WORK / f"reference-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                ref = workloads.record_reference(vb, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
            return 0
        if args.setup_only:
            _, _, work, (scaled, raw) = timed_setup(args, "setup")
            shutil.rmtree(work, ignore_errors=True)
            print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
            return 0
        result, notes = measure(args)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine_facts(),
                      **notes}, indent=1), file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
