"""Byte-for-byte output of `vibeline detect` on fullsize phantoms.

detect_reference.json holds the SHA-256 of the detection record, the
--emit-energy map and the --emit-hough channels of one run on each of
four 328x335x30 phantoms built like the benchmark's `batch` inputs:
three as generated, where ~1% of the pixels move, and one with sigma = 1
grey-level sensor noise, where every pixel moves.  The file's last entry
holds the SHA-256 of `vibeline stream`'s output lines on that noisy phantom
built with 40 frames, so the emissions after the 30-frame warm-up each
run the pruned peak search.  A change to the spectral stage, the ring
update or the Hough vote that is meant to keep every output bit must
leave these digests as they are.  To re-record them from the code on
PYTHONPATH:

    PYTHONPATH=src python tests/test_detect_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vibeline import UsSequence, cli, preset, save_sequence, synth_sequence

REFERENCE = Path(__file__).with_name("detect_reference.json")
CASES = [(1000, 0.0), (1127, 0.0), (1255, 0.0), (1000, 1.0)]  # seed, sigma
OUTPUTS = {"record": "s.json", "energy": "e.vibmap", "hough": "h.vibmap"}
STREAM_CASE = (1000, 1.0, 40)  # seed, sigma, frames


def _phantom(seed: int, sigma: float, frames: int = 30):
    spec = replace(preset("fullsize"), height=328, width=335,
                   frame_count=frames, needle_entry=(0.0, 280.0),
                   needle_length=260.0, visibility=0.0, artifact_count=1,
                   seed=seed)
    seq, _ = synth_sequence(spec)
    if sigma:
        rng = np.random.default_rng(seed)
        noisy = np.rint(seq.frames + sigma * rng.standard_normal(seq.frames.shape))
        seq = UsSequence(np.clip(noisy, 0, 255).astype(np.uint8),
                         seq.fps, seq.pixel_spacing)
    return seq


def _detect_digests(work: Path, seed: int, sigma: float) -> dict:
    src = work / "s.vibseq"
    save_sequence(_phantom(seed, sigma), src)
    out = {name: work / file for name, file in OUTPUTS.items()}
    code = cli.main(["detect", str(src), "--out", str(out["record"]),
                     "--emit-energy", str(out["energy"]),
                     "--emit-hough", str(out["hough"])])
    return {"seed": seed, "noise_sigma": sigma, "exit": code,
            **{name: hashlib.sha256(p.read_bytes()).hexdigest()
               for name, p in out.items()}}


def _stream_digest(work: Path, seed: int, sigma: float, frames: int) -> dict:
    src = work / "s.vibseq"
    save_sequence(_phantom(seed, sigma, frames), src)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["stream", str(src)])
    return {"command": "stream", "seed": seed, "noise_sigma": sigma,
            "frames": frames, "exit": code,
            "lines": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_detect_outputs_match_the_recorded_digests(tmp_path, index):
    want = json.loads(REFERENCE.read_text())[index]
    assert (want["seed"], want["noise_sigma"]) == CASES[index]
    assert _detect_digests(tmp_path, *CASES[index]) == want


def test_stream_lines_on_a_noisy_phantom_match_the_recorded_digest(tmp_path):
    want = json.loads(REFERENCE.read_text())[len(CASES)]
    assert _stream_digest(tmp_path, *STREAM_CASE) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ref = [_detect_digests(Path(tmp), *case) for case in CASES]
        ref.append(_stream_digest(Path(tmp), *STREAM_CASE))
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {len(ref)} digests to {REFERENCE}", file=sys.stderr)
