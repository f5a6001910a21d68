"""The phasorfield benchmark: one workload, one seed, one result line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  A separate process first generates the run's captures from the
seed (``gen.py``), each with its own scene and, where the workload says
so, its own geometry.  With ``--trace 0`` the run then times ``import
phasorfield`` plus one cold capture in fresh interpreters (``setup_s``),
warms this process with one capture, and sends captures back to back
through ``phasorfield.cli.main(["reconstruct", ...])`` for S seconds of
capture time, or until every generated capture has been sent once, so that
no input repeats inside the timed loop.  With ``--trace 1`` it spends half
of that untraced and half with the layer spans of ``spans.py`` installed,
and reports per-layer metrics.

Capture timings are reported in seconds of a reference host: they are
multiplied by ``REFERENCE_PROBE_S`` over the time of a fixed probe, so that
the drift in speed of a shared host cancels.  Another process
(``probe.py``) runs the probe after each capture and each set-up, on each
CPU in turn, while this process waits; one scale, from the median probe
time per CPU, serves the whole run.  The probe shares no process with the
captures, so a slower program cannot slow the probe and cancel its own
cost.  ``setup_s`` is not scaled: it is mostly imports, whose cost the
compute probe does not follow.  Unscaled wall times are printed too, under
``wall``; per-layer times from ``--trace 1`` are unscaled.

Every capture is checked outside its timed region: exit code 0, a readable
and finite output volume, the spot check against the literal 1/r sum
within the workload's bounds, and byte-identical output whenever the same
input is reconstructed again (the fresh-interpreter set-ups, and a rerun
of the first input after the loop, also with ``--threads 1`` where the
workload uses threads).  A capture failing any of these counts as failed.
The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from literal import spot_errors
from spans import Tracer
from workloads import WORKLOADS, capture_argv, file_sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# The reference host is one on which the probe takes this long.  On the
# 2-vCPU host that recorded the baseline (Python 3.11, NumPy 2.4) single
# probes read 30-70 ms as the host's speed drifted, and run medians 45-55 ms.
REFERENCE_PROBE_S = 0.040


def _child(script: str, *args: str) -> str:
    """Run a benchmark script in a fresh interpreter and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, str(HERE / script), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return done.stdout


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten captures beyond it: ``(value, percentile)``.

    With fewer than eleven captures no such percentile exists, and the
    maximum is returned as percentile 100.
    """
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


class HostProbe:
    """The host's speed over a run, sampled by ``probe.py`` in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: dict[int, list[float]] = {cpu: [] for cpu in self.cpus}
        self._taken = 0

    def sample(self) -> None:
        """Probe once, on the next CPU in turn, while this process waits for it."""
        cpu = self.cpus[self._taken % len(self.cpus)]
        self._taken += 1
        self.proc.stdin.write(f"{cpu}\n")
        self.proc.stdin.flush()
        self.samples[cpu].append(float(self.proc.stdout.readline()))

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into reference-host seconds.

        The probe time is the mean over CPUs of each CPU's median sample,
        because the vCPUs of a shared host need not run at the same speed
        and a capture may run on any of them.
        """
        probe_s = statistics.mean(statistics.median(v) for v in self.samples.values() if v)
        return REFERENCE_PROBE_S / probe_s

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Harness:
    """The captures of one run, and the checks that decide whether each failed."""

    def __init__(self, workload, manifest: dict, run_dir: Path, probe: HostProbe):
        self.w = workload
        self.captures = manifest["captures"]
        self.output = str(run_dir / "out.vol")
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.spot_err = 0.0
        self.spot_gain_err = 0.0
        self.probe = probe

    def argv(self, i: int, output: str | None = None, threads: str | None = None) -> list[str]:
        c = self.captures[i]
        argv = capture_argv(self.w, c["dataset"], output or self.output, c["grid"])
        if threads is not None:
            argv[argv.index("--threads") + 1] = threads
        return argv

    def run(self, cli, i: int, **kw) -> tuple[float, bool]:
        """One capture of input ``i``: its wall time, and whether it passed.

        The probe and the check run after the clock stops.
        """
        sink = io.StringIO()
        argv = self.argv(i, **kw)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except Exception as exc:  # a traceback fails the capture, not the run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.probe.sample()
        return seconds, self.check(i, rc, self.output)

    def check(self, i: int, rc, output: str) -> bool:
        from phasorfield.core import ContainerFormatError, read_volume

        self.attempted += 1
        reasons = []
        if rc != 0:
            reasons.append(f"exit {rc}")
        else:
            try:
                volume = read_volume(output)
            except (ContainerFormatError, ValueError, OSError) as exc:
                reasons.append(f"{type(exc).__name__}: {exc}")
            else:
                reasons += self._check_volume(i, volume, file_sha256(output))
        if reasons:
            self.failures.append(f"capture {self.attempted} (input {i}): " + "; ".join(reasons))
        return not reasons

    def _check_volume(self, i: int, volume, digest: str) -> list[str]:
        reasons = []
        if volume.times is not None and volume.times[0] != 0.0:
            reasons.append("first frame is not t = 0")
        c = self.captures[i]
        if volume.grid.count != c["n_voxels"]:
            return reasons + [f"{volume.grid.count} voxels, expected {c['n_voxels']}"]
        got = volume.frame(0)[c["spot_index"]]
        want = np.array([complex(re, im) for re, im in c["spot_value"]])
        err, gain = spot_errors(got, want)
        self.spot_err = max(self.spot_err, err)
        self.spot_gain_err = max(self.spot_gain_err, gain)
        if not (err <= self.w.spot_bound and gain <= self.w.gain_bound):
            reasons.append(f"spot_err {err:.3g}, spot_gain_err {gain:.3g} over bound")
        if self.digests.setdefault(i, digest) != digest:
            reasons.append(f"output differs from an earlier run of input {i}")
        return reasons

    def loop(self, cli, seconds: float, inputs: range,
             tracer: Tracer | None = None) -> tuple[list[float], int]:
        """Closed loop over ``inputs``, each once, until ``seconds`` of capture time.

        Returns each capture's wall time and the number that passed their check.
        """
        times: list[float] = []
        passed = 0
        for i in inputs:
            if sum(times) >= seconds:
                break
            if tracer is not None:
                tracer.capture = i
            seconds_i, ok = self.run(cli, i)
            times.append(seconds_i)
            passed += ok
        return times, passed


def setup_times(harness: Harness, run_dir: Path) -> list[float]:
    """Wall times of fresh interpreters' import plus first capture of input 0.

    Each output is checked like the rest, and the probe samples after each.
    """
    times = []
    for k in range(SETUP_REPEATS):
        output = str(run_dir / f"cold_{k}.vol")
        last = _child("cold.py", json.dumps(harness.argv(0, output=output))).splitlines()[-1]
        harness.probe.sample()
        cold = json.loads(last)
        harness.check(0, cold["rc"], output)
        times.append(cold["seconds"])
    return times


def measure(args, workload, run_dir: Path, probe: HostProbe) -> tuple[Harness, dict, dict]:
    _child("gen.py", workload.name, str(args.seed), str(run_dir))
    manifest = json.loads((run_dir / "manifest.json").read_text())
    harness = Harness(workload, manifest, run_dir, probe)
    setup = None if args.trace else setup_times(harness, run_dir)

    import phasorfield.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"phasorfield was imported from {cli.__file__}, not from {SRC}")

    harness.run(cli, 0)  # the cold capture of this process, checked but not timed
    pool = len(harness.captures)
    report = {}
    if args.trace:
        half = 1 + (pool - 1) // 2
        times, _ = harness.loop(cli, args.seconds / 2, range(1, half))
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = harness.loop(cli, args.seconds / 2, range(half, pool), tracer)
        finally:
            tracer.uninstall()
        spans_file = run_dir.parent / f"spans-{workload.name}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layers = tracer.layer_metrics()
        metrics = {name: (layers[name], unit) for name, unit in units.items() if name in layers}
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(times) - 1.0,
            units["trace_overhead_frac"])
        report.update(missing=tracer.missing, spans_file=str(spans_file.relative_to(ROOT)),
                      timed_captures=f"{len(times)} untraced, {len(traced)} traced "
                                     f"of {pool - 1} generated")
    else:
        times, passed = harness.loop(cli, args.seconds, range(1, pool))

    # Determinism: the first input again, and single-threaded where threads are used.
    harness.run(cli, 0)
    if "--threads" in workload.flags:
        harness.run(cli, 0, threads="1")

    failed_frac = len(harness.failures) / harness.attempted
    accuracy = {"spot_err": (harness.spot_err, "1"),
                "spot_gain_err": (harness.spot_gain_err, "1"),
                "failed_frac": (failed_frac, "1")}
    if args.trace:
        metrics.update(accuracy)
    else:
        scale = probe.scale()
        value, pct = tail(times)
        metrics = {
            "capture_s_p50": (statistics.median(times) * scale, "s"),
            "capture_s_tail": (value * scale, "s"),
            "captures_per_s": (passed / (sum(times) * scale), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall = {"capture_s_p50": statistics.median(times), "capture_s_tail": value,
                "captures_per_s": passed / sum(times)}
        report.update({k: v for k, (v, _) in accuracy.items()},
                      tail=f"p{pct:.1f} of n = {len(times)} timed captures "
                           f"({pool - 1} generated)",
                      wall=wall, host_scale=scale)
    report.update(inputs_sha256=manifest["sha256"], failures=harness.failures)
    return harness, metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "phasorfield" / "__init__.py").is_file():
        print(f"error: no phasorfield sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    probe = HostProbe()
    try:
        harness, metrics, report = measure(args, workload, run_dir, probe)
    finally:
        probe.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    for key in ("spot_err", "spot_gain_err", "failed_frac", "tail", "timed_captures",
                "host_scale", "wall"):
        if key in report:
            print(f"{workload.name} {key} {report[key]}")
    for name in report.get("missing", []):
        print(f"MISSING {name}: the tracer found nothing to wrap; its metrics are left out")
    for failure in harness.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"detail": report}, sort_keys=True))
    print(json.dumps({
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
