"""Vibrating-line detection in grayscale image sequences.

Per-pixel temporal spectra concentrate a vibrating needle's energy at
its drive frequency; a Hough transform of that energy map localizes the
shaft, and the energy profile along the shaft ends at the tip.  This
package provides the spectral front end, the Hough machinery (forward
and probability-weighted inverse), a speckle phantom generator with
exact ground truth, heatmap losses, evaluation metrics, and batch plus
streaming detection pipelines behind one CLI.
"""

from .core import (UsSequence, load_sequence, make_sequence, pixel_signal,
                   save_sequence, validate_sequence)
from .errors import (BoundsError, FormatError, GeometryError,
                     NoDetectionError, NoTipError, SizeMismatchError,
                     ValidationError, VibelineError)
from .hough import (HoughGrid, HoughMap, hough_transform,
                    inverse_hough_accumulate, line_from_cell, render_shaft_gt,
                    render_tip_gt, render_truth_map, shaft_from_hough,
                    tip_from_hough)
from .metrics import (ErrorRecord, aggregate, angle_error, evaluate_batch,
                      record_from_jsons, ter, tip_error,
                      write_aggregate_json, write_report_csv)
from .phantom import (GroundTruth, PhantomSpec, background_speckle,
                      displacement_field, ground_truth_of, load_ground_truth,
                      needle_geometry, preset, save_ground_truth,
                      synth_sequence, validate_spec, warp_bilinear)
from .pipeline import (DEFAULT_CONFIDENCE_MIN, DEFAULT_WARMUP, DetectConfig,
                       Detection, StreamState, detect, detect_frames,
                       detect_with_timing, emit_hough_channels, stream_push,
                       tip_along_line)
from .scoring import LossParams, focal_loss, focal_loss_grad, hybrid_loss
from .spectral import (EnergyMap, SlidingDft, SpectralBasis, Spectrogram,
                       band_energy_from_frames, band_energy_map, dft_basis,
                       nearest_band, read_vibmap, stft, window_count,
                       write_vibmap)

__version__ = "0.1.0"

__all__ = [
    "UsSequence", "load_sequence", "make_sequence", "pixel_signal",
    "save_sequence", "validate_sequence",
    "VibelineError", "ValidationError", "FormatError", "SizeMismatchError",
    "BoundsError", "GeometryError", "NoDetectionError", "NoTipError",
    "SpectralBasis", "Spectrogram", "SlidingDft", "EnergyMap", "dft_basis",
    "nearest_band", "stft", "window_count", "band_energy_from_frames",
    "band_energy_map", "write_vibmap", "read_vibmap",
    "HoughGrid", "HoughMap", "hough_transform", "line_from_cell",
    "shaft_from_hough", "render_shaft_gt", "render_tip_gt",
    "render_truth_map", "inverse_hough_accumulate", "tip_from_hough",
    "LossParams", "focal_loss", "focal_loss_grad", "hybrid_loss",
    "PhantomSpec", "GroundTruth", "preset", "needle_geometry",
    "validate_spec", "background_speckle", "displacement_field",
    "warp_bilinear", "ground_truth_of", "synth_sequence",
    "save_ground_truth", "load_ground_truth",
    "DetectConfig", "Detection", "StreamState", "stream_push",
    "detect", "detect_frames", "detect_with_timing", "tip_along_line",
    "emit_hough_channels", "DEFAULT_CONFIDENCE_MIN", "DEFAULT_WARMUP",
    "ErrorRecord", "angle_error", "tip_error", "ter", "aggregate",
    "record_from_jsons",
    "evaluate_batch", "write_report_csv", "write_aggregate_json",
    "__version__",
]
