"""Package surface: lazy public names and what an import loads."""

import subprocess
import sys

import numpy as np
import pytest

import vibeline


def test_importing_the_cli_loads_no_numeric_library():
    # --threads only caps BLAS if numpy starts after the CLI sets it
    code = ("import sys, vibeline.cli; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_detection_loads_neither_the_generator_nor_scipy(tmp_path):
    # the tip walk's sampler and entry-border table live in core, so
    # batch and stream detection never import the phantom generator
    from vibeline import make_sequence, save_sequence

    frames = np.random.default_rng(0).integers(0, 256, (30, 32, 32),
                                               dtype=np.uint8)
    seq_path = tmp_path / "a.vibseq"
    save_sequence(make_sequence(frames, fps=30.0, pixel_spacing=0.1),
                  seq_path)
    code = (
        "import sys, vibeline.pipeline\n"
        "banned = {'scipy', 'vibeline.phantom'}\n"
        "print(sorted(banned & set(sys.modules)))\n"
        "from vibeline import cli\n"
        f"codes = [cli.main(['detect', {str(seq_path)!r}, '--out', "
        f"{str(tmp_path / 'a.json')!r}]), cli.main(['stream', "
        f"{str(seq_path)!r}])]\n"
        "print(codes, sorted(banned & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    # random frames hold no needle: both commands exit 3, loading nothing
    assert proc.stderr.splitlines()[-1] == "[3, 3] []"


def test_every_public_name_resolves():
    for name in vibeline.__all__:
        assert getattr(vibeline, name) is not None, name
    assert len(set(vibeline.__all__)) == len(vibeline.__all__)
    assert vibeline.DetectConfig is vibeline.pipeline.DetectConfig


def test_submodules_resolve_as_attributes():
    for name in ("cli", "core", "errors", "hough", "metrics", "phantom",
                 "pipeline", "scoring", "spectral"):
        module = getattr(vibeline, name)
        assert module.__name__ == f"vibeline.{name}"
        assert name in dir(vibeline)
    assert set(vibeline.__all__) <= set(dir(vibeline))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vibeline.no_such_name
