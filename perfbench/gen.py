"""Generate one run's inputs, in a process of their own.

usage: python3 perfbench/gen.py WORKLOAD SEED OUT_DIR

Draws ``pool`` captures for the workload, capture i from the generator
seeded with (SEED, i), renders each with ``phasorfield.sim``, adds seeded
Poisson noise and writes it with ``core.write_dataset``; explicit-voxel
grids go to ``planes_NNN.json``.  Two worker processes share the captures.
For every capture it also evaluates the benchmark's literal 1/r sum at K
seeded voxels from the float32 histograms the container holds.  It then
writes ``manifest.json``: each capture's CLI arguments, its spot voxels and
expected values, and the SHA-256 of every file written.  The same workload
and seed give byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from phasorfield import sim
from phasorfield.core import (NonPlanarRelay, NonUniformPlanarRelay, PointList, UniformGrid2D,
                              UniformRelay, write_dataset)

from literal import literal_field, phasor_coefficients, voxel_coordinates
from workloads import (DELTA_T, LAMBDA_C, N_BINS, PHOTON_SCALE, WORKLOADS, file_sha256,
                       grid_arg)

SPOT_VOXELS = 16
WORKERS = 2


def _relay(doc: dict):
    if doc["kind"] == "uniform":
        return UniformRelay(UniformGrid2D(doc["nx"], doc["ny"], doc["dx"], doc["dy"],
                                          doc["x0"], doc["y0"], doc["z"]))
    pts = PointList(np.asarray(doc["points"], dtype=float))
    if doc["kind"] == "points_planar":
        return NonUniformPlanarRelay(pts, doc["z"])
    return NonPlanarRelay(pts)


def _capture(workload: str, seed: int, i: int, out_dir: str) -> tuple[dict, dict]:
    """Render capture ``i`` from its own generator; returns its manifest entry and digests."""
    rng = np.random.default_rng([seed, i])
    geo = WORKLOADS[workload].draw(rng)
    relay = _relay(geo["relay"])
    ill2 = np.asarray(geo["illuminations"], dtype=float)
    scene = sim.Scene(tuple(sim.Scatterer(tuple(s)) for s in geo["scatterers"]))
    m = sim.simulate(scene, relay, PointList(ill2), delta_t=DELTA_T, n_bins=N_BINS)
    m = sim.add_poisson_noise(m, PHOTON_SCALE, int(rng.integers(2**31)))
    dataset = os.path.join(out_dir, f"capture_{i:03d}.nls1")
    write_dataset(m, dataset)
    written = [dataset, dataset + ".json"]
    planes = None
    if geo["grid"]["kind"] == "planes":
        planes = os.path.join(out_dir, f"planes_{i:03d}.json")
        with open(planes, "w", encoding="utf-8") as f:
            json.dump({"planes": geo["grid"]["planes"]}, f)
        written.append(planes)
    files = {os.path.basename(path): file_sha256(path) for path in written}

    det = relay.coordinates()
    ill = ill2 if ill2.shape[1] == 3 else np.column_stack(
        [ill2, np.full(len(ill2), det[0, 2])])
    hist = np.asarray(m.histograms, dtype=np.float32).astype(np.float64)
    freqs, coeff = phasor_coefficients(hist, DELTA_T, LAMBDA_C)
    voxels = voxel_coordinates(geo["grid"])
    spot = np.sort(rng.choice(len(voxels), SPOT_VOXELS, replace=False))
    want = literal_field(freqs, coeff, det, ill, voxels[spot])
    capture = {"dataset": dataset, "grid": grid_arg(geo["grid"], planes),
               "n_voxels": len(voxels), "spot_index": spot.tolist(),
               "spot_value": [[float(v.real), float(v.imag)] for v in want]}
    return capture, files


def generate(workload: str, seed: int, out_dir: str) -> dict:
    pool = range(WORKLOADS[workload].pool)
    with ProcessPoolExecutor(WORKERS) as ex:
        futures = [ex.submit(_capture, workload, seed, i, out_dir) for i in pool]
        done = [f.result() for f in futures]
    manifest = {"workload": workload, "seed": seed, "captures": [c for c, _ in done],
                "sha256": {k: v for _, files in done for k, v in files.items()}}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    return manifest


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
