"""Package surface: lazy public names and what an import loads."""

import ast
import subprocess
import sys
from pathlib import Path

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
    from vibeline import UsSequence, save_sequence

    frames = np.random.default_rng(0).integers(0, 256, (30, 32, 32),
                                               dtype=np.uint8)
    seq_path = tmp_path / "a.vibseq"
    save_sequence(UsSequence(frames, fps=30.0, pixel_spacing=0.1),
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


def test_reading_a_config_or_a_ground_truth_loads_no_scipy(tmp_path):
    # detect --config checks its keys against PhantomSpec, so it loads the
    # generator, which imports no scipy at all; the truth record lives in
    # metrics
    from vibeline import GroundTruth, save_ground_truth

    cfg, gt = tmp_path / "cfg.json", tmp_path / "a.gt.json"
    cfg.write_text('{"vib_freq": 3.0, "seed": 4}')
    save_ground_truth(GroundTruth(30.0, 50.0, 10.0, 12.0, 0.1), gt)
    code = (
        "import sys\n"
        "from vibeline import cli, load_ground_truth\n"
        f"cli._load_config({str(cfg)!r})\n"
        f"load_ground_truth({str(gt)!r})\n"
        "print('vibeline.phantom' in sys.modules, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_gen_and_detect_run_without_scipy(tmp_path):
    # the speckle blur is numpy's own: blocking scipy changes no byte
    gen = ["--seed", "3", "gen", "--height", "96", "--width", "112",
           "--entry-x", "0", "--entry-y", "80", "--length", "80", "--vib-hz",
           "3", "--visibility", "0", "--artifacts", "1"]
    outs = []
    for blocked in (True, False):
        seq_path = tmp_path / f"{blocked}.vibseq"
        code = (
            "import sys\n"
            f"if {blocked}:\n"
            "    sys.modules['scipy'] = None  # any scipy import now fails\n"
            "from vibeline import cli\n"
            f"codes = [cli.main({gen + ['--out', str(seq_path)]!r}), "
            f"cli.main(['detect', {str(seq_path)!r}, '--vib-hz', '3'])]\n"
            "print(codes, 'scipy' in sys.modules and sys.modules['scipy'] is "
            "not None)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[0,", "0]", "False"]
        outs.append(seq_path.read_bytes())
    assert outs[0] == outs[1]


def test_detect_with_a_hough_truth_loads_no_generator(tmp_path):
    # --hough-gt reads the truth with metrics.load_ground_truth
    from vibeline import save_ground_truth, save_sequence, synth_sequence
    from helpers import small_vibrating_spec

    seq, truth = synth_sequence(small_vibrating_spec())
    seq_path, gt = tmp_path / "a.vibseq", tmp_path / "a.gt.json"
    save_sequence(seq, seq_path)
    save_ground_truth(truth, gt)
    code = (
        "import sys\n"
        "from vibeline import cli\n"
        f"code = cli.main(['detect', {str(seq_path)!r}, '--vib-hz', '3', "
        f"'--out', {str(tmp_path / 'a.json')!r}, '--emit-hough', "
        f"{str(tmp_path / 'h.vibmap')!r}, '--hough-gt', {str(gt)!r}])\n"
        "print(code, 'vibeline.phantom' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert (tmp_path / "h.vibmap").exists()


def test_detection_does_not_load_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on first use, ~10 ms of every cold
    # detect; the tip walk takes its 95th percentile from a sort instead
    from vibeline import save_sequence, synth_sequence
    from helpers import small_vibrating_spec

    seq, _ = synth_sequence(small_vibrating_spec())
    seq_path = tmp_path / "a.vibseq"
    save_sequence(seq, seq_path)
    code = (
        "import sys\n"
        "from vibeline import cli\n"
        f"code = cli.main(['detect', {str(seq_path)!r}, '--vib-hz', '3', "
        f"'--out', {str(tmp_path / 'a.json')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # exit 0: a tip was found, so the tip walk ran
    assert proc.stdout.split() == ["0", "False"]


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


@pytest.mark.parametrize("name", ["displacement_field", "background_speckle"])
def test_the_phantoms_uncalled_wrappers_are_gone(name):
    # synthesis reaches the envelope, _displacement and the speckle directly;
    # the names perfbench's tracer wraps or reads still resolve
    with pytest.raises(AttributeError, match=name):
        getattr(vibeline, name)
    assert not hasattr(vibeline.phantom, name)
    assert callable(vibeline.warp_bilinear)
    assert callable(vibeline.UsSequence.frames_float)
    assert vibeline.phantom.save_ground_truth is vibeline.save_ground_truth


@pytest.mark.parametrize("name, module", [("validate_spec", "phantom"),
                                          ("validate_sequence", "core"),
                                          ("make_sequence", "core"),
                                          ("write_aggregate_json", "metrics")])
def test_the_validators_are_gone(name, module):
    # PhantomSpec and UsSequence check themselves when built,
    # UsSequence(frames, fps, pixel_spacing) wraps a stack itself, and
    # eval writes aggregate(...) with the one JSON writer
    with pytest.raises(AttributeError, match=name):
        getattr(vibeline, name)
    assert name not in vibeline.__all__
    assert not hasattr(getattr(vibeline, module), name)


def test_the_sliding_dft_row_view_is_gone():
    # bins.real and bins.imag are the stft column's even and odd rows
    sd = vibeline.SlidingDft(10)
    assert not hasattr(sd, "as_rows") and not hasattr(sd, "n_bins")
    assert sd.bins.shape == (5,)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vibeline.no_such_name


# names imported for other code to read, not used where they are imported:
# perfbench's write_sample resolves phantom.save_ground_truth
_RE_EXPORTED = {("phantom", "save_ground_truth")}


def _unused_imports(tree: ast.Module):
    """Names an import binds but its scope never reads: the module for a
    top-level import, the enclosing function for an import in its body."""
    def visit(scope, nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(node, node.body)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                used = {n.id for n in ast.walk(scope)
                        if isinstance(n, ast.Name)}
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        yield name
            yield from visit(scope, ast.iter_child_nodes(node))
    yield from visit(tree, tree.body)


def test_the_import_check_reads_each_scope():
    code = ("import a\nimport b.c\nimport d as e\n"
            "def f():\n    from m import x, y as z\n    return x + e\n"
            "class C:\n    def g(self):\n        import w\n"
            "b.c\n")
    assert list(_unused_imports(ast.parse(code))) == ["a", "z", "w"]


def test_every_name_a_module_imports_is_used_there():
    unused = []
    for path in sorted(Path(vibeline.__file__).parent.glob("*.py")):
        for name in _unused_imports(ast.parse(path.read_text("utf-8"))):
            if (path.stem, name) not in _RE_EXPORTED:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
