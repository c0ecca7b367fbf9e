"""Vibrating-line detection in grayscale image sequences.

Per-pixel temporal spectra concentrate a vibrating needle's energy at
its drive frequency; a Hough transform of that energy map localizes the
shaft, and the energy profile along the shaft ends at the tip.  This
package provides the spectral front end, the Hough machinery (forward
and probability-weighted inverse), a speckle phantom generator with
exact ground truth, heatmap losses, evaluation metrics, and batch plus
streaming detection pipelines behind one CLI.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule, one row per submodule; each name is
# imported on first access (PEP 562), so `import vibeline.cli` loads no
# numeric library before the CLI has applied --threads
_EXPORTS = {
    "core": ("UsSequence", "load_sequence", "pixel_signal", "save_sequence",
             "write_vibmap", "read_vibmap"),
    "errors": ("VibelineError", "ValidationError", "FormatError",
               "SizeMismatchError", "BoundsError", "GeometryError",
               "NoDetectionError", "NoTipError"),
    "spectral": ("SpectralBasis", "Spectrogram", "SlidingDft", "dft_basis",
                 "nearest_band", "stft", "window_count",
                 "band_energy_from_frames"),
    "hough": ("HoughGrid", "HoughMap", "hough_transform", "line_from_cell",
              "shaft_from_hough", "render_shaft_gt", "render_tip_gt",
              "render_truth_map", "inverse_hough_accumulate",
              "tip_from_hough"),
    "scoring": ("LossParams", "focal_loss", "focal_loss_grad", "hybrid_loss"),
    "phantom": ("PhantomSpec", "preset", "needle_geometry", "warp_bilinear",
                "ground_truth_of", "synth_sequence"),
    "pipeline": ("DetectConfig", "StreamState", "stream_push", "detect",
                 "detect_frames", "detect_with_timing", "tip_along_line",
                 "DEFAULT_CONFIDENCE_MIN", "DEFAULT_WARMUP"),
    "metrics": ("Detection", "GroundTruth", "save_ground_truth",
                "load_ground_truth", "ErrorRecord", "angle_error", "tip_error",
                "ter", "aggregate", "record_from_jsons", "evaluate_batch",
                "write_report_csv"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
