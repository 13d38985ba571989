"""fiberqed benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli_session, design_scan or saturation_sweep, or `all` to run every
workload in turn (each in a fresh process).  Run it from the repository root;
the package is taken from src/.  With --trace 0 the run is untraced and
reports the end-to-end metrics; with --trace 1 half of the time is untraced,
the same operations are then replayed with layer spans, and the per-layer
metrics are reported.  Every operation's output is checked, untimed.

The report lines name every metric with its unit and sample count; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_session", "design_scan", "saturation_sweep")
SETUP_SAMPLES = 5           # set-ups per run; setup_s is their median
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def make_workload(name: str, seed: int, workdir: Path | None = None):
    import workloads

    if name == "design_scan":
        return workloads.DesignScan(seed)
    if name == "saturation_sweep":
        return workloads.SaturationSweep(seed)
    return workloads.CliSession(seed, workdir)


def metadata(nproc: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"      # a checkout without .git has no commit to read
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "commit": commit,
        "src_lines": src_lines(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def measure_setup(name: str, seed: int, workdir: Path):
    """Time SETUP_SAMPLES set-ups; return (samples, the workload to run).

    An in-process workload is set up in fresh processes, timed from process
    start to ready, and then once more here, untimed.  cli_session's set-up
    (configs, output dirs, one warm-up import child) runs here.  Each sample
    is scaled to the reference machine speed (speed.py).
    """
    import speed
    import workloads

    meter = speed.Speedometer()
    samples, workload = [], None
    for _ in range(SETUP_SAMPLES):
        meter.tick(force=True)
        t0 = time.perf_counter()
        if name == "cli_session":
            shutil.rmtree(workdir, ignore_errors=True)
            workload = make_workload(name, seed, workdir)
            dt = time.perf_counter() - t0
        else:
            argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
            with subprocess.Popen(argv, env=workloads.child_env(), stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                dt = time.perf_counter() - t0
                proc.stdout.read()
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up of {name} failed in a fresh process")
        meter.tick(force=True)
        samples.append(meter.scale(t0, dt))
    return samples, workload or make_workload(name, seed, workdir)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracing
    import workloads

    if trace:
        samples, workload = [], make_workload(name, seed, workdir)
    else:
        samples, workload = measure_setup(name, seed, workdir)
    plain = workload.measure(workload.inputs(), seconds / 2.0 if trace else seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    e2e = workloads.end_to_end(plain, samples or [math.nan], workloads.peak_rss_mb(who))
    phases = [plain]
    if trace:
        tracer = tracing.Tracer()
        replay = workload.inputs(plain.units)
        if workload.in_process:
            with tracing.installed(tracer):
                traced = workload.measure(replay, math.inf, tracer)
            traced.spans = tracer.spans
        else:       # the children record the spans
            traced = workload.measure(replay, math.inf, tracer)
        (ROOT / ".perfbench_run" / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(traced.spans))
        imports = tracing.import_times(sys.executable, workloads.child_env(), workdir)
        metrics = workloads.per_layer(workload, plain, traced, imports, src_lines())
        units = {k: workloads.unit(k) for k in metrics}
        phases.append(traced)
    else:
        metrics = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}

    headline = workload.headline(plain, {k: v for k, (v, _) in e2e.items()})
    headline["op_ms_p50_wall"] = (statistics.median(plain.seconds) * 1e3, "ms",
                                  len(plain.seconds))
    if samples:
        headline["setup_s"] = (e2e["setup_s"][0], "s", len(samples))
    attempted = sum(len(p.seconds) for p in phases)
    failures = [f for p in phases for f in p.failures.values()]
    headline["failed_frac"] = (len(failures) / attempted, "frac", attempted)
    for key, (value, unit, n) in headline.items():
        print(f"{name:<17} {key:<22} {value:>14.6g} {unit:<5} n={n}")
    causes = Counter(error or f"wrong output: {wrong}" for error, wrong in failures)
    for cause, count in causes.most_common():
        print(f"{name:<17} failure x{count}: {cause}")
    for key, value in metrics.items():
        print(f"{name:<17} {key:<52} {value:>14.6g} {units[key]}")
    return {
        "correct": not any(wrong for _, wrong in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fiberqed" / "__init__.py").is_file():
        print(f"error: no fiberqed package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)         # before numpy loads, here and in every child
    cpus = os.sched_getaffinity(0)
    # one CPU for this process and its children, so the speed calibration
    # and the operations it scales run on the same core; the last one, as
    # the first usually also serves interrupts
    os.sched_setaffinity(0, {max(cpus)})
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        print("# meta " + json.dumps(metadata(len(cpus))))
        workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
