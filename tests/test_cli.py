"""End-to-end command-line behavior, exit codes, and output determinism."""

import dataclasses
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasorfield
from phasorfield import (
    ContainerFormatError,
    CuboidGrid,
    ExplicitVoxels,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    TransientMeasurement,
    UniformGrid2D,
    UniformGrid3D,
    UniformRelay,
    VoxelPlane,
    read_dataset,
    read_volume,
    write_dataset,
    write_volume,
)
from phasorfield.cli import main
from phasorfield.phasor import build_kernel, to_frequency
from phasorfield.reconstruct import _ALGORITHMS, ALGORITHM_NAMES, reconstruct

from helpers import MALFORMED_DATASETS


def _scene_doc(**overrides):
    doc = {
        "relay": {"kind": "uniform", "nx": 8, "ny": 8, "dx": 0.02, "dy": 0.02,
                  "x0": -0.07, "y0": -0.07, "z": 0.0},
        "illuminations": [[0.0, 0.0]],
        "scatterers": [{"pos": [0.01, 0.01, 0.9], "albedo": 1.0}],
        "delta_t": 16e-12,
        "n_bins": 1024,
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A dataset simulated once and shared by the reconstruction tests."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.json"
    scene.write_text(json.dumps(_scene_doc()))
    dataset = root / "capture.nls1"
    assert main(["simulate", str(scene), "-o", str(dataset)]) == 0
    return {"root": root, "scene": scene, "dataset": dataset}


CUBOID = "cuboid:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86"


class TestCalculatorCommands:
    def test_frustum_reference_output(self, capsys):
        assert main(["frustum", "--x-in", "4", "--y-in", "4", "--z-in", "0",
                     "--z-out", "4", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["V_F 277.33", "V_C 64.00", "delta_V 213.33",
                       "increase +333%"]

    def test_sampling_report_output(self, capsys):
        assert main(["sampling-report", "--x-offset", "1", "--z-offset", "2.5",
                     "--lambda-star", "0.04"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["ratio 5", "lambda_sz 0.02", "lambda_sx 0.1",
                       "max_downsample 4"]

    def test_sampling_report_confocal_flag(self, capsys):
        assert main(["sampling-report", "--x-offset", "1", "--z-offset", "2.5",
                     "--lambda-star", "0.04", "--confocal"]) == 0
        assert "lambda_sz 0.01" in capsys.readouterr().out

    _FRUSTUM = {"--x-in": "4", "--y-in": "4", "--z-in": "1", "--z-out": "3", "--alpha": "0.5"}

    @pytest.mark.parametrize("flag, value, message", [
        ("--z-out", "1", "--z-out must exceed --z-in"),
        ("--z-out", "inf", "z_out must be finite"),
        ("--z-in", "nan", "z_in must be finite"),
        ("--alpha", "inf", "alpha must be finite"),
    ])
    def test_frustum_refuses_before_printing(self, capsys, flag, value, message):
        args = dict(self._FRUSTUM, **{flag: value})
        assert main(["frustum"] + [a for kv in args.items() for a in kv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("flags, message", [
        ({"--z-in": "1", "--z-out": "1e200"}, "frustum volume overflows"),
        ({"--z-in": "1", "--z-out": "2", "--alpha": "1e-200"}, "frustum volume overflows"),
        ({"--x-in": "1e-300", "--y-in": "1e-300", "--z-in": "1", "--z-out": "2"},
         "V_C underflows to 0"),
    ])
    def test_frustum_refuses_unrepresentable_volumes(self, capsys, flags, message):
        args = dict(self._FRUSTUM, **flags)
        assert main(["frustum"] + [a for kv in args.items() for a in kv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_frustum_increase_past_a_float_reads_inf(self, capsys):
        args = dict(self._FRUSTUM, **{"--x-in": "1e-160", "--y-in": "1e-160"})
        assert main(["frustum"] + [a for kv in args.items() for a in kv]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "increase +inf%"

    @pytest.mark.parametrize("flag, value", [("--z-offset", "inf"), ("--x-offset", "nan"),
                                             ("--lambda-star", "inf")])
    def test_sampling_report_refuses_non_finite_inputs(self, capsys, flag, value):
        args = {"--x-offset": "0.4", "--z-offset": "1.0", "--lambda-star": "0.04", flag: value}
        assert main(["sampling-report"] + [a for kv in args.items() for a in kv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be finite" in err

    def test_sampling_report_overflowing_ratio_is_unbounded(self, capsys):
        assert main(["sampling-report", "--x-offset", "1e-320", "--z-offset", "0.4",
                     "--lambda-star", "0.04"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ratio inf" and out[-1] == "max_downsample inf"


class TestSimulate:
    def test_writes_dataset_and_sidecar(self, pipeline, capsys):
        assert pipeline["dataset"].exists()
        assert (pipeline["root"] / "capture.nls1.json").exists()

    def test_reruns_are_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "again.nls1"
        assert main(["simulate", str(pipeline["scene"]), "-o", str(out)]) == 0
        assert out.read_bytes() == pipeline["dataset"].read_bytes()

    def test_position_key_alias(self, pipeline, tmp_path):
        doc = _scene_doc()
        doc["scatterers"] = [{"position": [0.01, 0.01, 0.9], "albedo": 1.0}]
        scene = tmp_path / "alias.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "alias.nls1"
        assert main(["simulate", str(scene), "-o", str(out)]) == 0
        assert out.read_bytes() == pipeline["dataset"].read_bytes()

    def test_poisson_noise_respects_seed(self, pipeline, tmp_path):
        args = ["simulate", str(pipeline["scene"])]
        a, b, c = (tmp_path / n for n in ("a.nls1", "b.nls1", "c.nls1"))
        assert main(args + ["-o", str(a), "--poisson-scale", "50", "--seed", "9"]) == 0
        assert main(args + ["-o", str(b), "--poisson-scale", "50", "--seed", "9"]) == 0
        assert main(args + ["-o", str(c), "--poisson-scale", "50", "--seed", "10"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_confocal_scene_needs_no_illuminations(self, tmp_path, capsys):
        doc = _scene_doc(confocal=True, n_bins=2048)
        doc["relay"]["nx"] = doc["relay"]["ny"] = 4
        del doc["illuminations"]
        scene = tmp_path / "confocal.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "confocal.nls1"
        assert main(["simulate", str(scene), "-o", str(out)]) == 0
        assert "16 illumination(s) x 16 detector(s)" in capsys.readouterr().out

    def test_missing_delta_t_is_usage_error(self, tmp_path, capsys):
        doc = _scene_doc()
        del doc["delta_t"]
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(doc))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert "delta_t" in capsys.readouterr().err

    def test_too_many_bins_is_usage_error(self, tmp_path, capsys):
        # 10**15 bins ask for more than 2**47 bytes, so the allocation fails at once.
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps(_scene_doc(n_bins=10**15)))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert "more memory than is available" in capsys.readouterr().err
        assert not (tmp_path / "x.nls1").exists()

    @pytest.mark.parametrize("key", ["n_bins", "relay", "scatterers"])
    def test_missing_scene_field_is_usage_error(self, tmp_path, capsys, key):
        doc = _scene_doc()
        del doc[key]
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(doc))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("relay, key", [
        ({"kind": "points_planar", "z": 0.0}, "points"),
        ({"kind": "points_planar", "points": [[0.0, 0.0]]}, "z"),
        ({"kind": "uniform", "nx": 4, "ny": 4, "dx": 0.02, "dy": 0.02, "x0": 0.0}, "y0"),
        ({"nx": 4}, "kind"),
    ])
    def test_missing_relay_field_is_usage_error(self, tmp_path, capsys, relay, key):
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(_scene_doc(relay=relay)))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_scene_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps([_scene_doc()]))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert "error: scene file must be a JSON object" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene]

    def test_scatterer_without_position_is_usage_error(self, tmp_path, capsys):
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(_scene_doc(scatterers=[{"albedo": 1.0}])))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert "position" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"

# One relay of every kind the README documents, with its illuminations.
README_RELAYS = {
    "uniform": ({"kind": "uniform", "nx": 4, "ny": 4, "dx": 0.02, "dy": 0.02,
                "x0": -0.03, "y0": -0.03, "z": 0.0}, [[0.0, 0.0]]),
    "points_planar": ({"kind": "points_planar", "z": 0.0,
                       "points": [[0.0, 0.0], [0.02, -0.01], [-0.03, 0.02]]}, [[0.0, 0.0]]),
    "points_3d": ({"kind": "points_3d",
                   "points": [[0.0, 0.0, 0.0], [0.02, -0.01, 0.01], [-0.03, 0.02, 0.02]]},
                  [[0.0, 0.0, 0.0]]),
}


def _readme_scene_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("### Scene JSON"):text.index("### Grid specifications")]


def _readme_scene() -> str:
    section = _readme_scene_section()
    return section.split("```json", 1)[1].split("```", 1)[0]


def _readme_pipeline() -> list[list[str]]:
    """The ``simulate`` and ``reconstruct`` commands of the README's "Command
    line" block, continuation lines joined, as argument lists."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Command line"):].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [argv for argv in commands
            if argv[:1] == ["phasorfield"] and argv[1:2] in (["simulate"], ["reconstruct"])]


class TestReadmeScene:
    def test_example_scene_simulates(self, tmp_path):
        scene = tmp_path / "readme.json"
        scene.write_text(_readme_scene())
        assert main(["simulate", str(scene), "-o", str(tmp_path / "readme.nls1")]) == 0

    def test_command_line_example_runs_on_the_example_scene(self, tmp_path, monkeypatch):
        (tmp_path / "scene.json").write_text(_readme_scene())
        monkeypatch.chdir(tmp_path)
        commands = _readme_pipeline()
        assert [argv[1] for argv in commands] == ["simulate", "reconstruct"]
        for argv in commands:
            assert main(argv[1:]) == 0, argv
        assert read_volume("out.vol").grid.count > 0

    def test_documented_relay_kinds_simulate(self, tmp_path):
        section = _readme_scene_section()
        paragraph = section[section.index("Relay kinds:"):]
        kinds = re.findall(r"`(\w+)` \(", paragraph)
        assert sorted(kinds) == sorted(README_RELAYS)
        for kind in kinds:
            scene = tmp_path / f"{kind}.json"
            relay, illuminations = README_RELAYS[kind]
            scene.write_text(json.dumps(_scene_doc(relay=relay, illuminations=illuminations)))
            assert main(["simulate", str(scene), "-o", str(tmp_path / f"{kind}.nls1")]) == 0

    def test_documented_planes_file_parses(self, pipeline, tmp_path):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("### Grid specifications"):text.index("## Algorithms")]
        example = re.search(r"`(\{\"planes\".*?)`", section, re.DOTALL).group(1)
        planes = tmp_path / "planes.json"
        planes.write_text(example)
        out = tmp_path / "readme.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--algo", "nursd2", "--lambda-c", "0.04",
                     "--grid", "@" + str(planes)]) == 0
        voxels = sum(len(plane["points"]) for plane in json.loads(example)["planes"])
        assert read_volume(str(out)).grid.count == voxels


class TestReconstruct:
    def test_pipeline_with_projection(self, pipeline, capsys):
        vol_path = pipeline["root"] / "out.vol"
        pgm_path = pipeline["root"] / "out.pgm"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol_path),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID,
                     "--pgm", str(pgm_path)])
        assert code == 0
        assert "s per illumination" in capsys.readouterr().out
        vol = read_volume(str(vol_path))
        assert vol.grid.kind == "cuboid" and vol.n_frames == 1
        assert pgm_path.read_bytes().startswith(b"P5\n8 8\n255\n")
        # the scatterer sits on the lattice: the peak voxel must be there
        peak = vol.grid.coordinates()[int(np.argmax(np.abs(vol.field)))]
        assert np.allclose(peak[:2], [0.01, 0.01], atol=1e-12)

    def test_reruns_and_threads_are_byte_identical(self, pipeline, tmp_path):
        base = ["reconstruct", str(pipeline["dataset"]), "--algo", "rsd",
                "--lambda-c", "0.04", "--grid", CUBOID]
        a, b, c = (tmp_path / n for n in ("a.vol", "b.vol", "c.vol"))
        assert main(base + ["-o", str(a)]) == 0
        assert main(base + ["-o", str(b)]) == 0
        assert main(base + ["-o", str(c), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_frustum_grid_spec(self, pipeline, tmp_path):
        out = tmp_path / "f.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--algo", "srsd", "--lambda-c", "0.04",
                     "--grid", "frustum:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86,0.7"])
        assert code == 0
        vol = read_volume(str(out))
        assert vol.grid.kind == "frustum" and vol.grid.count == 128

    def test_explicit_planes_file(self, pipeline, tmp_path):
        planes = tmp_path / "planes.json"
        pts = [[x, y] for y in (-0.01, 0.01) for x in (-0.01, 0.01, 0.03)]
        planes.write_text(json.dumps(
            {"planes": [{"z": 0.86, "points": pts}, {"z": 0.94, "points": pts}]}))
        out = tmp_path / "e.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--algo", "nursd2", "--lambda-c", "0.04",
                     "--grid", "@" + str(planes)])
        assert code == 0
        assert read_volume(str(out)).grid.kind == "explicit"

    def test_video_frames(self, pipeline, tmp_path, capsys):
        out = tmp_path / "v.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID,
                     "--video", "0:2e-9:3"])
        assert code == 0
        vol = read_volume(str(out))
        assert vol.n_frames == 3
        assert np.allclose(vol.times, np.linspace(0.0, 2e-9, 3))
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        txt = capsys.readouterr().out
        assert "3 frame(s)" in txt and "frame times: 0 .. 2e-09 s" in txt

    def test_one_frame_video_keeps_its_time(self, pipeline, tmp_path, capsys):
        out = tmp_path / "v1.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID,
                     "--video", "1e-9:2e-9:1"])
        assert code == 0
        vol = read_volume(str(out))
        assert vol.n_frames == 1 and np.array_equal(vol.times, [1e-9])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        assert "frame times: 1e-09 .. 1e-09 s" in capsys.readouterr().out

    def test_video_with_nursd3_starts_at_the_static_field(self, tmp_path):
        # --video renders frames for every algorithm, not only rsd and srsd.
        relay, illuminations = README_RELAYS["points_planar"]
        scene = tmp_path / "s.json"
        scene.write_text(json.dumps(_scene_doc(relay=relay, illuminations=illuminations)))
        dataset = tmp_path / "d.nls1"
        assert main(["simulate", str(scene), "-o", str(dataset)]) == 0
        planes = tmp_path / "planes.json"
        pts = [[-0.01, 0.0], [0.02, 0.01], [0.0, -0.02]]
        planes.write_text(json.dumps(
            {"planes": [{"z": 0.86, "points": pts}, {"z": 0.94, "points": pts[:2]}]}))
        base = ["reconstruct", str(dataset), "--algo", "nursd3", "--lambda-c", "0.04",
                "--grid", "@" + str(planes), "-o"]
        assert main(base + [str(tmp_path / "s.vol")]) == 0
        assert main(base + [str(tmp_path / "v.vol"), "--video", "0:2e-9:3"]) == 0
        static, video = read_volume(str(tmp_path / "s.vol")), read_volume(str(tmp_path / "v.vol"))
        assert video.n_frames == 3 and np.array_equal(video.times, np.linspace(0.0, 2e-9, 3))
        assert np.array_equal(video.frame(0), static.frame(0))
        assert not np.array_equal(video.frame(1), static.frame(0))

    @pytest.mark.parametrize("algo", ["rsd3d", "nursd3d"])
    def test_3d_relay_planes_must_lie_beyond_the_deepest_detection(self, tmp_path, capsys,
                                                                   algo):
        relay, illuminations = README_RELAYS["points_3d"]
        scene = tmp_path / "s.json"
        scene.write_text(json.dumps(_scene_doc(relay=relay, illuminations=illuminations)))
        dataset = tmp_path / "d.nls1"
        assert main(["simulate", str(scene), "-o", str(dataset)]) == 0
        base = ["reconstruct", str(dataset), "-o", str(tmp_path / "x.vol"), "--algo", algo,
                "--lambda-c", "0.04", "--grid"]
        capsys.readouterr()
        for z0 in ("0.02", "0.0"):
            assert main(base + [f"cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,{z0}"]) == 2
            assert "deepest detection (z > 0.02)" in capsys.readouterr().err
        assert main(base + ["cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,0.5"]) == 0
        # The depth lattice pitch went with the virtual slab.
        with pytest.raises(SystemExit) as exc:
            main(base + ["cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,0.5", "--z-pitch", "0.01"])
        assert exc.value.code == 2

    def test_bad_video_spec_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID, "--video", "0:1"])
        assert code == 2
        assert "t_start:t_stop:steps" in capsys.readouterr().err

    def test_unknown_grid_kind_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", "sphere:1,2,3"])
        assert code == 2
        assert "unknown grid kind" in capsys.readouterr().err

    def test_algorithm_relay_mismatch_is_usage_error(self, pipeline, tmp_path):
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "nursd1",
                     "--lambda-c", "0.04", "--grid", CUBOID])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--video", "0:1e-9:1000000000000000"], "more memory than is available"),
        (["--video", "0:nan:3"], "video start and stop times must be finite"),
        (["--video", "0:-inf:3"], "video start and stop times must be finite"),
        (["--lambda-c", "inf"], "lambda_c must be finite"),
    ])
    def test_unusable_numbers_are_usage_errors(self, pipeline, tmp_path, capsys,
                                               flags, message):
        out = tmp_path / "x.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID] + flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_packet_width_beyond_floating_point_is_one_error_line(self, pipeline, tmp_path,
                                                                      capsys):
        out = tmp_path / "x.vol"
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out), "--algo", "rsd",
                     "--lambda-c", "1e-300", "--grid", CUBOID])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_a_t0_whose_phase_overflows_is_one_error_line(self, pipeline, tmp_path, capsys):
        m = read_dataset(str(pipeline["dataset"]))
        dataset, out = tmp_path / "late.nls1", tmp_path / "x.vol"
        write_dataset(dataclasses.replace(m, t0=1e300), str(dataset))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["reconstruct", str(dataset), "-o", str(out), "--algo", "rsd",
                         "--lambda-c", "0.04", "--grid", CUBOID])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: t0 = 1e+300 s")

    def test_arguments_are_parsed_before_the_dataset_is_read(self, tmp_path, capsys):
        code = main(["reconstruct", str(tmp_path / "absent.nls1"),
                     "-o", str(tmp_path / "x.vol"), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID, "--video", "0:1e-9:x"])
        assert code == 2
        assert not (tmp_path / "x.vol").exists()

    @pytest.mark.parametrize("present", [True, False])
    def test_pgm_of_explicit_voxels_is_refused_before_reading(self, pipeline, tmp_path,
                                                              capsys, present):
        # Explicit voxels have no 3D array to project, so nothing is run or written.
        dataset = pipeline["dataset"] if present else tmp_path / "absent.nls1"
        out, pgm = tmp_path / "x.vol", tmp_path / "x.pgm"
        code = main(["reconstruct", str(dataset), "-o", str(out), "--algo", "nursd2",
                     "--lambda-c", "0.04", "--grid", _planes_file(tmp_path, _PLANE_POINTS),
                     "--pgm", str(pgm)])
        assert code == 2
        assert "--pgm needs a cuboid or frustum grid" in capsys.readouterr().err
        assert not out.exists() and not pgm.exists()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = main(["reconstruct", str(tmp_path / "absent.nls1"),
                     "-o", str(tmp_path / "x.vol"), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID])
        assert code == 3


@pytest.fixture(scope="module")
def relay_datasets(tmp_path_factory):
    """One small dataset per README relay kind."""
    root = tmp_path_factory.mktemp("relays")
    out = {}
    for kind, (relay, illuminations) in README_RELAYS.items():
        scene = root / f"{kind}.json"
        scene.write_text(json.dumps(_scene_doc(relay=relay, illuminations=illuminations)))
        out[kind] = root / f"{kind}.nls1"
        assert main(["simulate", str(scene), "-o", str(out[kind])]) == 0
    return out


def _slices(dataset, lambda_c=0.04):
    m = read_dataset(str(dataset))
    return to_frequency(m, build_kernel(lambda_c, m.n_bins, m.delta_t))


def _planes_file(tmp_path, points, z=0.9):
    planes = tmp_path / "planes.json"
    planes.write_text(json.dumps({"planes": [{"z": z, "points": points}]}))
    return "@" + str(planes)


_PLANE_POINTS = [[-0.01, 0.0], [0.02, 0.01], [0.0, -0.025]]

# A value for each algorithm option's flag, its default wherever it has one.
_FLAGS = {"--eps": "1e-6", "--padding": "exact", "--alpha": "0.5", "--beta": "0.5",
          "--lattice-pitch": "0.01", "--scatter": "trilinear"}
# A --grid of each algorithm's kind where it is not CUBOID; None for a planes file.
_GRIDS = {"srsd": "frustum:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86,0.7", "nursd2": None,
          "nursd3": None, "srsd-nursd2": None}


class TestAlgorithmFlags:
    """Each algorithm's own flag reaches it: the written volume is the
    library call's field with that option, cast to complex64."""

    def _run(self, tmp_path, dataset, algo, grid, *flags):
        out = tmp_path / "flag.vol"
        assert main(["reconstruct", str(dataset), "-o", str(out), "--algo", algo,
                     "--lambda-c", "0.04", "--grid", grid, *flags]) == 0
        return read_volume(str(out)).field[0]

    @staticmethod
    def _same(written, field):
        return np.array_equal(written, field.astype(np.complex64))

    def test_alpha_and_beta_reach_srsd_nursd2(self, pipeline, tmp_path):
        grid = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array(_PLANE_POINTS))),))
        written = self._run(tmp_path, pipeline["dataset"], "srsd-nursd2",
                            _planes_file(tmp_path, _PLANE_POINTS),
                            "--alpha", "0.6", "--beta", "0.8")
        slices = _slices(pipeline["dataset"])
        assert self._same(written, reconstruct(slices, grid, "srsd-nursd2",
                                               alpha=0.6, beta=0.8).field[0])
        assert not self._same(written, reconstruct(slices, grid, "srsd-nursd2",
                                                   alpha=0.6).field[0])

    def test_lattice_pitch_reaches_nursd3(self, relay_datasets, tmp_path):
        dataset = relay_datasets["points_planar"]
        grid = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array(_PLANE_POINTS))),))
        written = self._run(tmp_path, dataset, "nursd3", _planes_file(tmp_path, _PLANE_POINTS),
                            "--lattice-pitch", "0.013")
        slices = _slices(dataset)
        assert self._same(written, reconstruct(slices, grid, "nursd3",
                                               lattice_pitch=0.013).field[0])
        assert not self._same(written, reconstruct(slices, grid, "nursd3").field[0])

    def test_padding_none_reaches_rsd(self, pipeline, tmp_path):
        # CUBOID is the relay's own lattice, which padding="none" requires.
        grid = CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.08, -0.07, -0.07, 0.86))
        written = self._run(tmp_path, pipeline["dataset"], "rsd", CUBOID, "--padding", "none")
        slices = _slices(pipeline["dataset"])
        assert self._same(written, reconstruct(slices, grid, "rsd", padding="none").field[0])
        assert not self._same(written, reconstruct(slices, grid, "rsd").field[0])

    def test_scatter_nearest_reaches_rsd3d(self, relay_datasets, tmp_path):
        dataset = relay_datasets["points_3d"]
        spec = "cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,0.5"
        grid = CuboidGrid(UniformGrid3D(4, 4, 2, 0.02, 0.02, 0.05, -0.03, -0.03, 0.5))
        written = self._run(tmp_path, dataset, "rsd3d", spec, "--scatter", "nearest")
        slices = _slices(dataset)
        assert self._same(written, reconstruct(slices, grid, "rsd3d", scatter="nearest").field[0])
        assert not self._same(written, reconstruct(slices, grid, "rsd3d").field[0])

    def test_eps_reaches_nursd3d(self, relay_datasets, tmp_path):
        dataset = relay_datasets["points_3d"]
        spec = "cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,0.5"
        grid = CuboidGrid(UniformGrid3D(4, 4, 2, 0.02, 0.02, 0.05, -0.03, -0.03, 0.5))
        written = self._run(tmp_path, dataset, "nursd3d", spec, "--eps", "1e-2")
        slices = _slices(dataset)
        assert self._same(written, reconstruct(slices, grid, "nursd3d", eps=1e-2).field[0])
        assert not self._same(written, reconstruct(slices, grid, "nursd3d").field[0])

    @pytest.mark.parametrize("algo, flag", [
        (algo, flag) for algo in ALGORITHM_NAMES for flag in _FLAGS
        if flag[2:].replace("-", "_") not in _ALGORITHMS[algo][2]])
    @pytest.mark.parametrize("present", [True, False])
    def test_a_flag_the_algorithm_does_not_take_is_usage_error(self, pipeline, tmp_path, capsys,
                                                               algo, flag, present):
        # Refused before the dataset is read, so a missing one exits 2, not 3.
        grid = _GRIDS.get(algo, CUBOID) or _planes_file(tmp_path, _PLANE_POINTS)
        dataset = pipeline["dataset"] if present else tmp_path / "absent.nls1"
        out = tmp_path / "x.vol"
        assert main(["reconstruct", str(dataset), "-o", str(out), "--algo", algo,
                     "--lambda-c", "0.04", "--grid", grid, flag, _FLAGS[flag]]) == 2
        option = flag[2:].replace("-", "_")
        assert f"error: {algo} takes no option {option}; it takes " in capsys.readouterr().err
        assert not out.exists()

    def test_srsd_nursd2_without_alpha_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(tmp_path / "x.vol"),
                     "--algo", "srsd-nursd2", "--lambda-c", "0.04",
                     "--grid", _planes_file(tmp_path, _PLANE_POINTS)])
        assert code == 2
        assert "alpha" in capsys.readouterr().err


# Runs the CLI argument lists given as JSON in a fresh interpreter where any
# import of scipy or a scipy submodule fails, and prints their exit codes.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from phasorfield.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestWithoutScipy:
    """The FFT-only algorithms run on NumPy alone, and write the bytes they
    write when SciPy is importable."""

    def test_readme_library_example_runs_as_written(self):
        text = README.read_text(encoding="utf-8")
        example = text[text.index("## Library"):].split("```python\n", 1)[1].split("```", 1)[0]
        assert 'reconstruct(slices, grid, "rsd")' in example
        env = {**os.environ, "PYTHONPATH": str(Path(phasorfield.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", 'import sys\nsys.modules["scipy"] = None\n' + example],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_fft_only_paths_run_without_scipy(self, pipeline, relay_datasets, tmp_path):
        runs = {
            "rsd": [str(pipeline["dataset"]), "--algo", "rsd", "--grid", CUBOID,
                    "--threads", "2"],
            "srsd": [str(pipeline["dataset"]), "--algo", "srsd", "--video", "0:2e-9:3",
                     "--grid", "frustum:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86,0.7"],
            "rsd3d": [str(relay_datasets["points_3d"]), "--algo", "rsd3d",
                      "--grid", "cuboid:4,4,2,0.02,0.02,0.05,-0.03,-0.03,0.5"],
        }
        argvs = [["reconstruct", *args, "--lambda-c", "0.04", "-o", str(tmp_path / f"{name}.vol")]
                 for name, args in runs.items()]
        env = {**os.environ, "PYTHONPATH": str(Path(phasorfield.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(runs)
        for name, argv in zip(runs, argvs):
            blocked = (tmp_path / f"{name}.vol").read_bytes()
            assert main(argv[:-1] + [str(tmp_path / f"{name}-scipy.vol")]) == 0
            assert blocked == (tmp_path / f"{name}-scipy.vol").read_bytes()


class TestUnindexableLattices:
    @pytest.mark.parametrize("kind, algo, far, flags", [
        ("uniform", "nursd2", "planes", []),
        ("points_planar", "nursd1", "cuboid", []),
        ("points_planar", "nursd3", "planes", []),
        ("points_planar", "nursd3", None, ["--lattice-pitch", "1e-300"]),
        ("uniform", "rsd", "cuboid", []),
    ])
    def test_lattice_too_large_to_index_is_usage_error(self, relay_datasets, tmp_path, capsys,
                                                       kind, algo, far, flags):
        if far == "cuboid":
            grid = "cuboid:4,4,1,0.02,0.02,0.1,1e300,-0.03,0.9"
        else:
            grid = _planes_file(tmp_path, [[1e300, 0.0] if far else [0.01, 0.0], [0.0, 0.0]])
        out = tmp_path / "x.vol"
        code = main(["reconstruct", str(relay_datasets[kind]), "-o", str(out), "--algo", algo,
                     "--lambda-c", "0.04", "--grid", grid, *flags])
        assert code == 2
        assert "pitches" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_lattice_pitch_is_usage_error(self, relay_datasets, tmp_path, capsys):
        code = main(["reconstruct", str(relay_datasets["points_planar"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "nursd3", "--lambda-c", "0.04",
                     "--grid", _planes_file(tmp_path, _PLANE_POINTS), "--lattice-pitch", "inf"])
        assert code == 2
        assert "lattice pitch must be finite" in capsys.readouterr().err


class TestOverflowingPhases:
    """Inputs whose kernel or frame phases overflow exit 2, naming the plane
    depth or the frame times, before any transform runs."""

    @pytest.mark.parametrize("grid, flags, named", [
        ("cuboid:8,8,2,0.02,0.02,0.1,-0.07,-0.07,1e300", ["--algo", "rsd"],
         "voxel plane at z = 1e+300:"),
        ("cuboid:8,8,2,0.02,0.02,0.1,-0.07,-0.07,1e160", ["--algo", "rsd"],
         "voxel plane at z = 1e+160:"),
        # The widening law starts at the first plane, so the second one overflows.
        ("frustum:8,8,2,0.02,0.02,0.1,-0.07,-0.07,0.9,1e-300", ["--algo", "srsd"],
         "voxel plane at z = 1:"),
        (None, ["--algo", "srsd-nursd2", "--alpha", "1e-300"], "voxel plane at z = 0.9:"),
        (CUBOID, ["--algo", "rsd", "--video", "0:1e300:2"], "frame times up to 1e+300 s"),
    ])
    def test_refused_before_any_transform(self, pipeline, tmp_path, capsys, no_transforms,
                                          grid, flags, named):
        out = tmp_path / "x.vol"
        grid = grid or _planes_file(tmp_path, _PLANE_POINTS)
        code = main(["reconstruct", str(pipeline["dataset"]), "-o", str(out),
                     "--lambda-c", "0.04", "--grid", grid, *flags])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestMalformedInputs:
    @pytest.mark.parametrize("doc, named", [
        ({"voxels": []}, "'planes'"),
        ([{"z": 1.0, "points": [[0.0, 0.0]]}], "'planes'"),
        ({"planes": {"z": 1.0}}, "'planes' as a list"),
        ({"planes": [{"points": [[0.0, 0.0]]}]}, "'z'"),
        ({"planes": [{"z": 1.0}]}, "'points'"),
    ])
    def test_malformed_planes_file_is_usage_error(self, pipeline, tmp_path, capsys,
                                                  doc, named):
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps(doc))
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "nursd2",
                     "--lambda-c", "0.04", "--grid", "@" + str(planes)])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("z", [None, [1.0], "1.0", True])
    def test_non_numeric_plane_depth_is_usage_error(self, pipeline, tmp_path, capsys, z):
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps({"planes": [{"z": z, "points": [[0.0, 0.0]]}]}))
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "nursd2",
                     "--lambda-c", "0.04", "--grid", "@" + str(planes)])
        assert code == 2
        assert "voxel plane 'z' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [[[0.0, None]], [[0.0, "0.1"]], [[0.0, {}]],
                                        [0.0, 0.0], None])
    def test_non_numeric_plane_points_are_usage_error(self, pipeline, tmp_path, capsys,
                                                      points):
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps({"planes": [{"z": 1.0, "points": points}]}))
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "nursd2",
                     "--lambda-c", "0.04", "--grid", "@" + str(planes)])
        assert code == 2
        assert "voxel plane 'points'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(n_bins="1024"), "'n_bins' must be an integer"),
        (lambda d: d.update(n_bins=1024.5), "'n_bins' must be an integer"),
        (lambda d: d.update(delta_t=[16e-12]), "'delta_t' must be a number"),
        (lambda d: d.update(ambient=None), "'ambient' must be a number"),
        (lambda d: d.update(t0="0"), "'t0' must be a number"),
        (lambda d: d["relay"].update(dx=None), "relay 'dx' must be a number"),
        (lambda d: d["relay"].update(nx=[8]), "relay 'nx' must be an integer"),
        (lambda d: d["relay"].update(z="0"), "relay 'z' must be a number"),
        (lambda d: d.update(illuminations=[[0.0, None]]), "'illuminations'"),
        (lambda d: d.update(scatterers=[{"pos": [0.0, "0", 0.9]}]), "scatterer position"),
        (lambda d: d.update(scatterers=[{"pos": None}]), "scatterer position"),
        (lambda d: d.update(scatterers=[{"pos": [0.0, 0.0, 0.9], "albedo": None}]),
         "scatterer 'albedo' must be a number"),
        (lambda d: d.update(scatterers=[5]), "scatterer must be a JSON object"),
        (lambda d: d.update(scatterers=5), "'scatterers' as a list"),
        (lambda d: d.update(relay={"kind": "points_planar", "z": None,
                                   "points": [[0.0, 0.0]]}), "relay 'z' must be a number"),
        (lambda d: d.update(relay={"kind": "points_3d", "points": [[0.0, 0.0, False]]}),
         "relay 'points' must be a number"),
        (lambda d: d.update(relay={"kind": "sphere"}),
         "relay kind must be 'uniform', 'points_planar', or 'points_3d'"),
        (lambda d: d.pop("illuminations"), "non-confocal scene needs 'illuminations'"),
        *((lambda d, k=flag, v=value: d.update({k: v}),
           f"'{flag}' must be true or false, not {json.dumps(value)}")
          for flag in ("confocal", "falloff") for value in ("false", 0, None)),
    ])
    def test_non_numeric_scene_number_is_usage_error(self, tmp_path, capsys, edit, named):
        doc = _scene_doc()
        edit(doc)
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(doc))
        assert main(["simulate", str(scene), "-o", str(tmp_path / "x.nls1")]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene]

    def test_boolean_falloff_is_read(self, tmp_path):
        renders = {}
        for falloff in (True, False):
            scene = tmp_path / f"{falloff}.json"
            scene.write_text(json.dumps(_scene_doc(falloff=falloff)))
            out = tmp_path / f"{falloff}.nls1"
            assert main(["simulate", str(scene), "-o", str(out)]) == 0
            renders[falloff] = read_dataset(str(out)).histograms
        assert not np.array_equal(renders[True], renders[False])

    @pytest.mark.parametrize("algo, grid, flags, named", [
        ("rsd", None, [], "rsd reconstructs onto a cuboid grid"),
        ("srsd", CUBOID, [], "srsd reconstructs onto a frustum grid"),
        ("nursd2", CUBOID, [], "nursd2 reconstructs onto explicit voxels"),
        ("rsd", CUBOID, ["--threads", "0"], "threads must be >= 1"),
        ("rsd", CUBOID, ["--lambda-c", "nan"], "lambda_c must be finite, not nan"),
        ("rsd", CUBOID, ["--lambda-c", "0"], "virtual wavelength must be > 0"),
        ("rsd", CUBOID, ["--threshold", "2"], "retention threshold must lie in (0, 1)"),
        ("rsd", "cuboid:8,8,2,0.02,0.02,0.08,-0.07,-0.07", [],
         "cuboid grid needs nx,ny,nz,dx,dy,dz,x0,y0,z0"),
        ("srsd", "frustum:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86", [],
         "frustum grid needs nx,ny,nz,dx,dy,dz,x0,y0,z0,alpha0[,beta0]"),
        ("rsd", CUBOID, ["--video", "0:1e-9:0"], "video needs at least one frame"),
    ], ids=["rsd-planes", "srsd-cuboid", "nursd2-cuboid", "threads-0", "lambda-c-nan",
            "lambda-c-0", "threshold-2", "cuboid-8-fields", "frustum-9-fields", "video-0-frames"])
    def test_refused_before_the_dataset_is_read(self, tmp_path, capsys, monkeypatch,
                                                algo, grid, flags, named):
        def unread(path, *args):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr("phasorfield.phasor.read_frequency_slices", unread)
        out = tmp_path / "x.vol"
        grid = grid or _planes_file(tmp_path, _PLANE_POINTS)
        code = main(["reconstruct", str(tmp_path / "absent.nls1"), "-o", str(out),
                     "--algo", algo, "--lambda-c", "0.04", "--grid", grid, *flags])
        assert code == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, pipeline, tmp_path, capsys, threads):
        code = main(["reconstruct", str(pipeline["dataset"]),
                     "-o", str(tmp_path / "x.vol"), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID, "--threads", threads])
        assert code == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.vol").exists()

    @pytest.mark.parametrize("malformed", MALFORMED_DATASETS)
    def test_malformed_dataset_is_io_error_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                              malformed):
        edit, _, message = MALFORMED_DATASETS[malformed]
        bad = tmp_path / "bad.nls1"
        bad.write_bytes(edit(pipeline["dataset"].read_bytes()))
        with pytest.raises(ContainerFormatError) as refused:
            read_dataset(str(bad))
        out = tmp_path / "x.vol"
        code = main(["reconstruct", str(bad), "-o", str(out), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {refused.value}\n" and re.search(message, str(refused.value))
        assert not out.exists()

    def test_window_too_short_for_the_wavelength_is_usage_error(self, tmp_path, capsys):
        # A sound file whose 8 bins of 16 ps carry no bin near lambda_c.
        path = tmp_path / "short.nls1"
        write_dataset(TransientMeasurement(UniformRelay(UniformGrid2D(2, 2, 0.1, 0.1, 0.0, 0.0)),
                                           PointList(np.zeros((1, 2))), np.ones((1, 4, 8)),
                                           delta_t=16e-12), str(path))
        out = tmp_path / "x.vol"
        code = main(["reconstruct", str(path), "-o", str(out), "--algo", "rsd",
                     "--lambda-c", "0.5", "--grid", CUBOID])
        assert code == 2
        assert "no DFT bin reaches the retention threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_volume_with_unknown_time_word_is_io_error(self, pipeline, tmp_path, capsys):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]) == 0
        raw = bytearray(vol.read_bytes())
        raw[16:20] = (2).to_bytes(4, "little")
        vol.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["info", str(vol)]) == 3
        assert "time-axis word 2" in capsys.readouterr().err

    def test_volume_with_zero_frames_is_io_error(self, pipeline, tmp_path, capsys):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID, "--video", "0:1e-9:1"]) == 0
        n_voxels = int.from_bytes(vol.read_bytes()[12:16], "little")
        raw = bytearray(vol.read_bytes()[:-8 * (1 + n_voxels)])
        raw[8:12] = bytes(4)
        vol.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["info", str(vol)]) == 3
        assert "volume declares 0 frames" in capsys.readouterr().err

    def test_volume_with_non_finite_frame_time_is_io_error(self, pipeline, tmp_path, capsys):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol), "--algo", "rsd",
                     "--lambda-c", "0.04", "--grid", CUBOID, "--video", "0:1e-9:2"]) == 0
        n_voxels = int.from_bytes(vol.read_bytes()[12:16], "little")
        raw = bytearray(vol.read_bytes())
        # The last of the two frame times precedes the complex64 field.
        end = len(raw) - 8 * 2 * n_voxels
        raw[end - 8:end] = struct.pack("<d", float("nan"))
        vol.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["info", str(vol)]) == 3
        assert "frame time payload contains non-finite values" in capsys.readouterr().err

    def test_dataset_with_trailing_bytes_is_io_error(self, pipeline, tmp_path, capsys):
        padded = tmp_path / "padded.nls1"
        padded.write_bytes(pipeline["dataset"].read_bytes() + b"\0" * 7)
        assert main(["info", str(padded)]) == 3
        assert "7 unexpected byte(s)" in capsys.readouterr().err
        code = main(["reconstruct", str(padded), "-o", str(tmp_path / "x.vol"),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID])
        assert code == 3

    # Header values the constructors refuse: a negative bin width, and zero
    # counts or pitches of the uniform relay (dataset) or the cuboid (volume).
    @pytest.mark.parametrize("offset, value, message", [
        (20, struct.pack("<d", -1.0), "bin width must be > 0"),
        (37, struct.pack("<I", 0), "grid counts must be >= 1"),
        (45, struct.pack("<d", 0.0), "grid pitches must be > 0"),
    ])
    def test_dataset_with_refused_header_is_io_error(self, pipeline, tmp_path, capsys,
                                                     offset, value, message):
        bad = tmp_path / "bad.nls1"
        raw = bytearray(pipeline["dataset"].read_bytes())
        raw[offset:offset + len(value)] = value
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["info", str(bad)]) == 3
        assert message in capsys.readouterr().err
        code = main(["reconstruct", str(bad), "-o", str(tmp_path / "x.vol"),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value, message", [
        (37, struct.pack("<I", 0), "grid counts must be >= 1"),
        (65, struct.pack("<d", 0.0), "grid pitches must be > 0"),
        (12, struct.pack("<I", 7), "declared voxel count does not match grid geometry"),
    ])
    def test_volume_with_refused_grid_is_io_error(self, pipeline, tmp_path, capsys,
                                                  offset, value, message):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]) == 0
        raw = bytearray(vol.read_bytes())
        raw[offset:offset + len(value)] = value
        vol.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["info", str(vol)]) == 3
        assert message in capsys.readouterr().err
        assert main(["metrics", str(vol), str(vol)]) == 3
        assert message in capsys.readouterr().err

    def test_volume_with_trailing_bytes_is_io_error(self, pipeline, tmp_path, capsys):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]) == 0
        vol.write_bytes(vol.read_bytes() + b"x")
        capsys.readouterr()
        assert main(["info", str(vol)]) == 3
        assert "1 unexpected byte(s)" in capsys.readouterr().err


class TestInfoAndMetrics:
    @pytest.mark.parametrize("relay, first, second", [
        (UniformRelay(UniformGrid2D(2, 1, 0.1, 0.1, 0.0, 0.0)),
         "dataset: 1 illumination(s) x 2 detector(s) x 4 bins", "relay kind uniform"),
        (NonUniformPlanarRelay(PointList(np.zeros((3, 2))), 0.0),
         "dataset: 1 illumination(s) x 3 detector(s) x 4 bins", "relay kind nonuniform_planar"),
        (NonPlanarRelay(PointList(np.zeros((1, 3)))),
         "dataset: 1 illumination(s) x 1 detector(s) x 4 bins", "relay kind nonplanar"),
    ])
    def test_info_names_every_relay_kind(self, tmp_path, capsys, relay, first, second):
        path = tmp_path / "d.nls1"
        write_dataset(TransientMeasurement(relay, PointList(np.zeros((1, 3))),
                                           np.ones((1, relay.count, 4)), delta_t=1e-11),
                      str(path))
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == first and out[1].endswith(second)

    @pytest.mark.parametrize("grid, first", [
        (CuboidGrid(UniformGrid3D(2, 1, 3, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0)),
         "volume: 1 frame(s) x 6 voxels on a cuboid grid"),
        (FrustumGrid.linear(UniformGrid2D(2, 2, 0.1, 0.1, 0.0, 0.0, 1.0), [1.0, 1.5], 0.5),
         "volume: 1 frame(s) x 8 voxels on a frustum grid"),
        (ExplicitVoxels((VoxelPlane(1.0, PointList(np.zeros((5, 2)))),)),
         "volume: 1 frame(s) x 5 voxels on a explicit grid"),
    ])
    def test_info_names_every_grid_kind(self, tmp_path, capsys, grid, first):
        path = tmp_path / "v.vol"
        write_volume(ReconstructionVolume(grid, np.ones(grid.count, complex)), str(path))
        assert main(["info", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [first]

    @pytest.mark.parametrize("tag", [5, 15, 19, 255])
    def test_unknown_kind_tag_is_io_error(self, pipeline, tmp_path, capsys, tag):
        vol = tmp_path / "v.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]) == 0
        for path in (vol, pipeline["dataset"]):
            raw = bytearray(path.read_bytes())
            raw[36] = tag  # the kind byte ends the shared framing
            (tmp_path / path.name).write_bytes(bytes(raw))
        bad_vol, bad_dataset = tmp_path / vol.name, tmp_path / pipeline["dataset"].name
        capsys.readouterr()
        for argv in (["info", str(bad_vol)], ["info", str(bad_dataset)],
                     ["metrics", str(bad_vol), str(vol)],
                     ["reconstruct", str(bad_dataset), "-o", str(tmp_path / "x.vol"),
                      "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]):
            assert main(argv) == 3
            assert f"unknown container kind tag {tag}" in capsys.readouterr().err

    def test_info_on_dataset(self, pipeline, capsys):
        assert main(["info", str(pipeline["dataset"])]) == 0
        txt = capsys.readouterr().out
        assert "dataset: 1 illumination(s) x 64 detector(s) x 1024 bins" in txt
        assert "relay kind uniform" in txt

    def test_info_on_corrupt_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nls1"
        bad.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        assert main(["info", str(bad)]) == 3

    def test_metrics_self_comparison(self, pipeline, tmp_path, capsys):
        vol = tmp_path / "m.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04",
                     "--grid", CUBOID]) == 0
        capsys.readouterr()
        assert main(["metrics", str(vol), str(vol)]) == 0
        txt = capsys.readouterr().out
        assert "ssim 1.000000" in txt and "ncc 1.000000" in txt
        assert main(["metrics", str(vol), str(vol), "--align"]) == 0
        assert "shift dx=0 dy=0" in capsys.readouterr().out

    @pytest.mark.parametrize("video, frames", [(None, ("5", "-7", "-1")),
                                               ("0:2e-9:3", ("3", "99", "-4"))])
    def test_metrics_frame_out_of_range_is_usage_error(self, pipeline, tmp_path, capsys,
                                                       video, frames):
        vol = tmp_path / "m.vol"
        assert main(["reconstruct", str(pipeline["dataset"]), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04", "--grid", CUBOID]
                    + (["--video", video] if video else [])) == 0
        n = read_volume(str(vol)).n_frames
        for frame in frames:
            capsys.readouterr()
            assert main(["metrics", str(vol), str(vol), "--frame", frame]) == 2
            assert f"of {n} frame(s)" in capsys.readouterr().err
        assert main(["metrics", str(vol), str(vol), "--frame", str(n - 1)]) == 0


class TestParser:
    def test_no_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_algorithm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["reconstruct", "x.nls1", "-o", "y.vol", "--algo", "fbp",
                  "--lambda-c", "0.04", "--grid", CUBOID])
