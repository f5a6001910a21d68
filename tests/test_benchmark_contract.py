"""The benchmark's outside view of the library stays true to it.

``perfbench/spans.py`` measures each layer from outside by rebinding names in
``phasorfield.cli``, ``phasorfield.phasor`` and ``phasorfield.reconstruct``.
A wrapped name that disappears, or a decoder that stops reading through a
wrapped call, drops a per-layer metric, and the benchmark run then reports a
malformed result.  These tests load that module read-only and run one tiny
capture per benchmark algorithm through it.

``perfbench/literal.py`` is the benchmark's own literal sum, kept apart from
the library; it must evaluate the same sum as ``phasorfield.oracle``.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phasorfield import NonPlanarRelay, PointList, oracle
from phasorfield.cli import main

from helpers import centered_relay, rel_linf, two_scatterer_slices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def literal():
    return _load("literal")


def test_every_wrapped_name_exists(spans):
    for module_name, attr, _name, _count in spans.WRAPS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


_UNIFORM = {"kind": "uniform", "nx": 8, "ny": 8, "dx": 0.02, "dy": 0.02,
            "x0": -0.07, "y0": -0.07, "z": 0.0}
_SCATTERED = [[-0.07 + 0.0137 * (i % 11), -0.06 + 0.0113 * (i // 11)] for i in range(40)]
_CUBOID = "cuboid:6,6,3,0.02,0.02,0.06,-0.05,-0.05,0.85"

# (relay, CLI flags, grid or None for the planes file, every voxel read once
# per frequency and illumination?)
_CAPTURES = {
    "rsd": (_UNIFORM, ["--algo", "rsd", "--threads", "2"], _CUBOID, True),
    "nursd3": ({"kind": "points_planar", "z": 0.0, "points": _SCATTERED},
               ["--algo", "nursd3"], None, True),
    "nursd3d": ({"kind": "points_3d",
                 "points": [[x, y, 0.002 * (i % 5)] for i, (x, y) in enumerate(_SCATTERED)]},
                ["--algo", "nursd3d"], _CUBOID, False),
    "srsd": (_UNIFORM, ["--algo", "srsd", "--video", "0:4e-9:3"],
             "frustum:8,8,3,0.02,0.02,0.06,-0.07,-0.07,0.85,0.8", True),
}


@pytest.mark.parametrize("algo", sorted(_CAPTURES))
def test_traced_capture_has_every_layer_metric(spans, tmp_path, algo):
    relay, flags, grid, windowed = _CAPTURES[algo]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "relay": relay, "illuminations": [[0.0, 0.0, 0.0]],
        "scatterers": [{"pos": [0.01, -0.01, 0.9]}], "delta_t": 16e-12, "n_bins": 512}))
    dataset = tmp_path / "capture.nls1"
    if grid is None:
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps({"planes": [
            {"z": 0.85, "points": [[0.0, 0.0], [0.03, -0.02]]},
            {"z": 0.93, "points": [[-0.04, 0.01]]}]}))
        grid = f"@{planes}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(scene), "-o", str(dataset)]) == 0
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.capture = 0
            code = main(["reconstruct", str(dataset), "-o", str(tmp_path / "out.vol"),
                         "--lambda-c", "0.04", "--grid", grid, *flags])
        finally:
            tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    for name, _needs, _moves in spans.LAYER_METRICS:
        assert name in metrics and math.isfinite(metrics[name]), name
    if windowed:
        # The decoders compute exactly the voxel values they deliver.
        assert metrics["reconstruct.useful_frac"] == 1.0


@pytest.mark.parametrize("relay", [
    centered_relay(8, 0.02),
    NonPlanarRelay(PointList(np.column_stack([
        centered_relay(8, 0.02).coordinates()[:, :2],
        np.random.default_rng(5).uniform(0.0, 0.05, 64)]))),
], ids=["uniform", "nonplanar"])
def test_the_benchmark_sums_what_the_oracle_sums(literal, relay):
    ill = PointList(np.array([[0.0, 0.0, 0.0], [0.05, -0.03, 0.01]]))
    slices = two_scatterer_slices(relay=relay, illuminations=ill)
    voxels = np.random.default_rng(7).uniform([-0.08, -0.08, 0.85], [0.08, 0.08, 1.05],
                                              size=(40, 3))
    want = oracle.literal_field(slices, voxels)
    got = literal.literal_field(slices.frequencies, slices.coefficients,
                                relay.coordinates(), ill.points, voxels)
    assert rel_linf(got, want) <= 1e-12
