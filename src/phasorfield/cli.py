"""Command-line interface.

Subcommands: ``simulate`` renders a scene description to a transient dataset,
``reconstruct`` turns a dataset into a volume (optionally time-resolved),
``metrics`` compares two volumes, ``info`` summarizes a container file,
``sampling-report`` certifies detector downsampling, and ``frustum`` reports
swept-volume statistics of a depth-scaled grid.

Exit codes: 0 on success, 2 for invalid inputs or usage, 3 for I/O and file
format failures.  ``reconstruct`` refuses a flag its ``--algo`` does not take,
a grid of the wrong kind, ``--threads`` below 1 and a ``--lambda-c`` or
``--threshold`` no kernel can use (exit 2) before it reads the dataset.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import metrics as metrics_mod
from . import phasor, sim
# read_dataset stays imported unused: the benchmark's layer spans wrap it by name here.
from .core import (
    ContainerFormatError,
    CuboidGrid,
    ExplicitVoxels,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    UniformGrid2D,
    UniformGrid3D,
    UniformRelay,
    ValidationError,
    VoxelPlane,
    read_container,
    read_dataset,
    read_volume,
    write_dataset,
    write_pgm,
    write_volume,
)
from .reconstruct import ALGORITHM_NAMES, _algorithm, project_max_depth, reconstruct

__all__ = ["main", "entry", "build_parser"]


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _parse_grid(spec: str):
    """Parse a voxel grid description.

    ``cuboid:nx,ny,nz,dx,dy,dz,x0,y0,z0`` — uniform cuboid;
    ``frustum:nx,ny,nz,dx,dy,dz,x0,y0,z0,alpha0[,beta0]`` — depth-scaled grid
    with planes at ``z0 + k*dz`` and the linear widening law anchored at
    ``z0``; ``@planes.json`` — explicit voxels from a JSON file with
    ``{"planes": [{"z": ..., "points": [[x, y], ...]}, ...]}``.
    """
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as f:
            doc = json.load(f)
        planes = _field(doc, "planes", "planes file")
        if not isinstance(planes, list):
            raise ValidationError("planes file must give 'planes' as a list")
        return ExplicitVoxels(tuple(
            VoxelPlane(_number(_field(p, "z", "voxel plane"), "voxel plane 'z'"),
                       PointList(_points(_field(p, "points", "voxel plane"),
                                         "voxel plane 'points'")))
            for p in planes))
    kind, _, rest = spec.partition(":")
    fields = [s for s in rest.split(",") if s != ""]
    if kind == "cuboid":
        if len(fields) != 9:
            raise ValidationError("cuboid grid needs nx,ny,nz,dx,dy,dz,x0,y0,z0")
        nx, ny, nz = (int(v) for v in fields[:3])
        dx, dy, dz, x0, y0, z0 = (float(v) for v in fields[3:])
        return CuboidGrid(UniformGrid3D(nx, ny, nz, dx, dy, dz, x0, y0, z0))
    if kind == "frustum":
        if len(fields) not in (10, 11):
            raise ValidationError(
                "frustum grid needs nx,ny,nz,dx,dy,dz,x0,y0,z0,alpha0[,beta0]")
        nx, ny, nz = (int(v) for v in fields[:3])
        dx, dy, dz, x0, y0, z0, alpha0 = (float(v) for v in fields[3:10])
        beta0 = float(fields[10]) if len(fields) == 11 else None
        base = UniformGrid2D(nx, ny, dx, dy, x0, y0, z=z0)
        zs = z0 + dz * np.arange(nz)
        return FrustumGrid.linear(base, zs, alpha0, beta0)
    raise ValidationError(f"unknown grid kind {kind!r}; use cuboid:, frustum:, or @file")


def _field(doc, key: str, where: str):
    """``doc[key]``, or a validation error naming the missing field."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object giving {key!r}")
    if key not in doc:
        raise ValidationError(f"{where} must give {key!r}")
    return doc[key]


def _number(value, name: str, kind: type = float):
    """A JSON number converted by ``kind``, or a validation error naming the field.

    null, true/false, strings, lists and objects are refused, and so is a
    fractional value where ``kind`` is ``int``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {noun}, not {json.dumps(value)}")
    return kind(value)


def _flag(doc: dict, key: str, default: bool) -> bool:
    """``doc[key]`` (``default`` if absent), or a validation error unless it is
    a JSON boolean."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{key!r} must be true or false, not {json.dumps(value)}")
    return value


def _points(value, name: str) -> np.ndarray:
    """A JSON list of coordinate lists whose coordinates are JSON numbers."""
    if not isinstance(value, list) or not all(isinstance(p, list) for p in value):
        raise ValidationError(f"{name} must be a list of coordinate lists")
    for c in (c for p in value for c in p if type(c) not in (int, float)):
        _number(c, name)  # raises: only exact ints and floats are numbers
    return np.array(value, dtype=float)


def _parse_relay(doc: dict):
    kind = _field(doc, "kind", "relay")
    if kind == "uniform":
        kinds = {"nx": int, "ny": int, "dx": float, "dy": float, "x0": float, "y0": float}
        nx, ny, dx, dy, x0, y0 = (_number(_field(doc, k, "uniform relay"), f"relay {k!r}", t)
                                  for k, t in kinds.items())
        return UniformRelay(UniformGrid2D(nx, ny, dx, dy, x0, y0,
                                          _number(doc.get("z", 0.0), "relay 'z'")))
    if kind == "points_planar":
        return NonUniformPlanarRelay(
            PointList(_points(_field(doc, "points", "relay"), "relay 'points'")),
            _number(_field(doc, "z", "points_planar relay"), "relay 'z'"))
    if kind == "points_3d":
        return NonPlanarRelay(PointList(_points(_field(doc, "points", "relay"),
                                                "relay 'points'")))
    raise ValidationError(
        "relay kind must be 'uniform', 'points_planar', or 'points_3d'")


def _parse_scene(path: str):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValidationError("scene file must be a JSON object")
    delta_t = doc.get("delta_t", doc.get("Δt"))
    if delta_t is None:
        raise ValidationError("scene file must give the bin width 'delta_t'")
    n_bins = _number(_field(doc, "n_bins", "scene file"), "'n_bins'", int)
    relay = _parse_relay(_field(doc, "relay", "scene file"))
    confocal = _flag(doc, "confocal", False)
    illuminations = None
    if not confocal:
        if "illuminations" not in doc:
            raise ValidationError("non-confocal scene needs 'illuminations'")
        illuminations = PointList(_points(doc["illuminations"], "'illuminations'"))
    scatterers = []
    listed = _field(doc, "scatterers", "scene file")
    if not isinstance(listed, list):
        raise ValidationError("scene file must give 'scatterers' as a list")
    for s in listed:
        pos = _field(s, "pos" if isinstance(s, dict) and "pos" in s else "position",
                     "scatterer")
        if not isinstance(pos, list):
            raise ValidationError("scatterer position must be a list of numbers")
        scatterers.append(sim.Scatterer(tuple(_number(v, "scatterer position") for v in pos),
                                        _number(s.get("albedo", 1.0), "scatterer 'albedo'")))
    scene = sim.Scene(tuple(scatterers),
                      ambient=_number(doc.get("ambient", 0.0), "'ambient'"))
    return dict(scene=scene, relay=relay, illuminations=illuminations,
                delta_t=_number(delta_t, "'delta_t'"), n_bins=n_bins,
                t0=_number(doc.get("t0", 0.0), "'t0'"),
                confocal=confocal, falloff=_flag(doc, "falloff", True))


def _parse_video(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError("video spec must be t_start:t_stop:steps")
    t0, t1 = float(parts[0]), float(parts[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValidationError("video start and stop times must be finite")
    steps = int(parts[2])
    if steps < 1:
        raise ValidationError("video needs at least one frame")
    return np.linspace(t0, t1, steps)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _parse_scene(args.scene)
    measurement = sim.simulate(**cfg)
    if args.poisson_scale is not None:
        measurement = sim.add_poisson_noise(measurement, args.poisson_scale, args.seed)
    write_dataset(measurement, args.output)
    print(f"wrote {args.output}: {measurement.n_illum} illumination(s) x "
          f"{measurement.n_detect} detector(s) x {measurement.n_bins} bins")
    return 0


def _cmd_reconstruct(args) -> int:
    grid = _parse_grid(args.grid)
    if args.pgm and isinstance(grid, ExplicitVoxels):
        raise ValidationError("--pgm needs a cuboid or frustum grid: explicit voxel lists "
                              "have no 3D array layout")
    times = _parse_video(args.video) if args.video else None
    options = {k: v for k, v in vars(args).items() if v is not None
               and k in ("eps", "padding", "alpha", "beta", "lattice_pitch", "scatter")}
    _algorithm(args.algo, options, grid)
    if args.threads < 1:
        raise ValidationError("threads must be >= 1")
    phasor._check_packet(args.lambda_c, args.threshold)
    slices = phasor.read_frequency_slices(args.dataset, args.lambda_c, args.threshold)
    started = time.perf_counter()
    volume = reconstruct(slices, grid, args.algo, times=times, threads=args.threads, **options)
    elapsed = time.perf_counter() - started
    write_volume(volume, args.output)
    if args.pgm:
        write_pgm(project_max_depth(volume), args.pgm)
    n_ill = slices.n_illum
    print(f"reconstructed {grid.count} voxels from {n_ill} illumination(s) "
          f"with {slices.n_freq} frequencies in {elapsed:.3f} s "
          f"({elapsed / n_ill:.3f} s per illumination)")
    return 0


def _cmd_metrics(args) -> int:
    vol_a = read_volume(args.volume_a)
    vol_b = read_volume(args.volume_b)
    proj_a = project_max_depth(vol_a, args.frame)
    proj_b = project_max_depth(vol_b, args.frame)
    if args.align:
        dx, dy = metrics_mod.align_by_correlation(proj_a, proj_b)
        proj_a = metrics_mod.apply_shift(proj_a, dx, dy)
        print(f"shift dx={dx} dy={dy}")
    print(f"ssim {metrics_mod.ssim(proj_a, proj_b):.6f}")
    print(f"ncc {metrics_mod.ncc(vol_a.frame(args.frame), vol_b.frame(args.frame)):.6f}")
    return 0


def _cmd_info(args) -> int:
    m = read_container(args.path)
    if isinstance(m, ReconstructionVolume):
        print(f"volume: {m.n_frames} frame(s) x {m.grid.count} voxels on a "
              f"{m.grid.kind} grid")
        if m.times is not None:
            print(f"frame times: {m.times[0]:.6g} .. {m.times[-1]:.6g} s")
        return 0
    print(f"dataset: {m.n_illum} illumination(s) x {m.n_detect} detector(s) x "
          f"{m.n_bins} bins")
    print(f"bin width {m.delta_t:.6g} s, window start {m.t0:.6g} s, "
          f"relay kind {m.relay.kind}")
    return 0


def _cmd_sampling_report(args) -> int:
    rep = phasor.sampling_report(args.x_offset, args.z_offset, args.lambda_star,
                                 confocal=args.confocal)
    print(f"ratio {rep.ratio:.4g}")
    print(f"lambda_sz {rep.lambda_sz:.6g}")
    print(f"lambda_sx {rep.lambda_sx:.6g}")
    print(f"max_downsample {rep.max_downsample:.4g}")
    return 0


def _cmd_frustum(args) -> int:
    beta = args.beta if args.beta is not None else args.alpha
    v_f = phasor.frustum_volume(args.x_in, args.y_in, args.z_in, args.z_out,
                                args.alpha, beta)
    v_c = phasor.cuboid_volume(args.x_in, args.y_in, args.z_in, args.z_out)
    if args.z_out == args.z_in:
        raise ValidationError("--z-out must exceed --z-in: the increase is relative to V_C")
    if v_c == 0.0:
        raise ValidationError("V_C underflows to 0 at these extents, so the increase "
                              "relative to it is undefined")
    increase = (v_f - v_c) / v_c * 100  # inf where the ratio overflows a float
    print(f"V_F {v_f:.2f}")
    print(f"V_C {v_c:.2f}")
    print(f"delta_V {v_f - v_c:.2f}")
    print(f"increase +{round(increase) if math.isfinite(increase) else increase}%")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasorfield",
        description="Phasor-field reconstruction of hidden scenes from "
                    "time-resolved relay-wall measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene description to a dataset")
    p.add_argument("scene", help="scene description JSON file")
    p.add_argument("-o", "--output", required=True, help="output dataset path")
    p.add_argument("--poisson-scale", type=float, default=None,
                   help="apply Poisson photon noise at this mean scale")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a volume from a dataset")
    p.add_argument("dataset", help="input dataset path")
    p.add_argument("-o", "--output", required=True, help="output volume path")
    p.add_argument("--algo", required=True, choices=list(ALGORITHM_NAMES))
    p.add_argument("--lambda-c", type=float, required=True,
                   help="virtual wavelength in meters")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="frequency retention threshold")
    p.add_argument("--grid", required=True,
                   help="cuboid:..., frustum:..., or @planes.json")
    p.add_argument("--eps", type=float, default=None,
                   help="accuracy target of the NUFFTs and of the 3-D paths' depth nodes "
                        "(all but rsd and srsd; default 1e-6)")
    p.add_argument("--alpha", type=float, default=None,
                   help="scale factor (srsd-nursd2)")
    p.add_argument("--beta", type=float, default=None,
                   help="y scale factor (srsd-nursd2; defaults to alpha)")
    p.add_argument("--lattice-pitch", type=float, default=None,
                   help="virtual lattice pitch (nursd3)")
    p.add_argument("--scatter", choices=["nearest", "trilinear"], default=None,
                   help="lateral gridding of rsd3d: nearest node, or bilinear for 'trilinear' "
                        "(default trilinear)")
    p.add_argument("--padding", choices=["exact", "none"], default=None,
                   help="convolution padding (rsd; default exact)")
    p.add_argument("--video", default=None, metavar="T0:T1:STEPS",
                   help="render time-resolved frames at linspace(T0, T1, STEPS)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over frequencies")
    p.add_argument("--pgm", default=None,
                   help="also write a max-depth projection image (binary PGM)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("metrics", help="compare two reconstruction volumes")
    p.add_argument("volume_a", help="volume under test")
    p.add_argument("volume_b", help="reference volume")
    p.add_argument("--align", action="store_true",
                   help="recover and apply an integer shift before ssim")
    p.add_argument("--frame", type=int, default=0, help="frame index")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("info", help="summarize a dataset or volume file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("sampling-report",
                       help="certify detector downsampling for one scatterer")
    p.add_argument("--x-offset", type=float, required=True,
                   help="lateral offset scatterer -> relay point (m)")
    p.add_argument("--z-offset", type=float, required=True,
                   help="depth offset from the relay plane (m)")
    p.add_argument("--lambda-star", type=float, required=True,
                   help="shortest retained wavelength (m)")
    p.add_argument("--confocal", action="store_true")
    p.set_defaults(func=_cmd_sampling_report)

    p = sub.add_parser("frustum", help="swept-volume statistics of a scaled grid")
    p.add_argument("--x-in", type=float, required=True)
    p.add_argument("--y-in", type=float, required=True)
    p.add_argument("--z-in", type=float, required=True)
    p.add_argument("--z-out", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=_cmd_frustum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to allocate
        print(f"error: the input needs more memory than is available: {exc}", file=sys.stderr)
        return 2
    except (ContainerFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
