"""Package surface: lazy public names and what an import loads."""

import subprocess
import sys

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
