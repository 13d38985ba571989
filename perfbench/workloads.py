"""Set-up, measurement loops and metrics of the three workloads.

Every workload runs in one process with one thread (BLAS pinned to one
thread); CLI children run one at a time.  Operation times cover only the
calls into the program; input preparation, the output checks and the speed
calibration (speed.py) run outside the timed region and outside every layer
span.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_COMMANDS = ("params", "spectrum", "normal-modes", "saturation", "mode-profile", "validate")


def child_env() -> dict:
    """The caller's environment (run.py pins BLAS to one thread) with src/ on the path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Phase:
    """One measured pass over the inputs.

    Operation times live in two float arrays and only a failed operation gets
    an entry of its own, so the benchmark's memory does not grow with the
    number of operations a faster program completes: peak_rss_mb measures
    the program, not the benchmark's bookkeeping.
    """

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self.failures: dict[int, tuple[str | None, str | None]] = {}   # index -> (error, wrong)
        #: timed work that is not an operation but counts toward ops_per_s
        #: (saturation_sweep's per-geometry rates and fit), as (start, seconds)
        self.overhead: list[tuple[float, float]] = []
        self.speed = speed.Speedometer()
        self.spans: list[dict] = []
        self.units = 0              # whole units measured, for the traced replay

    def add(self, start: float, seconds: float, error: str | None = None,
            wrong: str | None = None) -> None:
        """Record one operation; error: raised or exited non-zero; wrong: failed its check."""
        if error is not None or wrong is not None:
            self.failures[len(self.seconds)] = (error, wrong)
        self.starts.append(start)
        self.seconds.append(seconds)

    def scaled(self, ok_only: bool = False) -> list[float]:
        """Operation times scaled to the reference machine speed (speed.py)."""
        return [self.speed.scale(t, s) for i, (t, s) in enumerate(zip(self.starts, self.seconds))
                if not (ok_only and i in self.failures)]


def _timed(tracer, fn, *args):
    """Run fn(*args); return (start, seconds, result, error text)."""
    t0 = time.perf_counter()
    try:
        with tracer.span(tracing.BENCH_SPAN) if tracer else nullcontext():
            result = fn(*args)
    except Exception as exc:        # the loop must go on; the cause is reported
        return t0, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter() - t0, result, None


def _untraced(tracer):
    return tracer.pause() if tracer else nullcontext()


def _time_left(deadline: float, last_unit: float) -> bool:
    """Whether another unit of work like the last one ends before the deadline.

    Runs stop between whole units (an operation, a geometry, a script pass),
    so a run measures at most its time and always at least one unit.
    """
    return time.perf_counter() + last_unit <= deadline


# --------------------------------------------------------------------------
# design_scan


class DesignScan:
    in_process = True

    def __init__(self, seed: int):
        import fiberqed
        import fiberqed.oracle  # noqa: F401  (the check's dense solve)

        self.fq = fiberqed
        self.seed = seed
        # warm-up: one full grid cycle of other inputs, not measured
        warm = inputs.design_scan(seed + 1)
        self.measure(itertools.islice(warm, len(inputs.DESIGN_GRID_CYCLE)), math.inf)

    def inputs(self, n: int | None = None):
        """The measured inputs, from the first; the first n for a replay."""
        return itertools.islice(inputs.design_scan(self.seed), n)

    def _operate(self, inp, grid):
        fq = self.fq
        cfg = fq.PhysicalConfig(**inp.config)
        rates = fq.derive_rates(cfg)
        spec = fq.transmission_spectrum(rates, cfg.g1_eff, cfg.g2_eff, grid=grid)
        peaks = fq.peak_find(spec)
        summary = fq.decompose(rates, cfg.g1_eff, cfg.g2_eff)
        reduced = fq.reduced_spectrum(summary, rates, grid=grid)
        return rates, spec, peaks, reduced, fq.peak_find(reduced), cfg.g1_eff, cfg.g2_eff

    def measure(self, source, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        for inp in source:
            unit = time.perf_counter()
            grid = inp.grid()
            phase.speed.tick()
            t0, dt, out, err = _timed(tracer, self._operate, inp, grid)
            wrong = None
            if err is None:
                with _untraced(tracer):
                    wrong = checks.design(inp, *out)
            phase.add(t0, dt, err, wrong)
            phase.units += 1
            if not _time_left(deadline, time.perf_counter() - unit):
                break
        phase.speed.tick(force=True)
        return phase

    def headline(self, phase: Phase, e2e: dict) -> dict:
        n = len(phase.seconds)
        out = {"configs_per_s": (e2e["ops_per_s"], "1/s", n),
               "config_ms_p50": (e2e["op_ms_p50"], "ms", n)}
        if n >= 1000:       # at least ten samples beyond the 99th percentile
            p99 = statistics.quantiles(phase.scaled(), n=100)[98]
            out["config_ms_p99"] = (p99 * 1e3, "ms", n)
        return out


# --------------------------------------------------------------------------
# saturation_sweep


class SaturationSweep:
    in_process = True

    def __init__(self, seed: int, points: int = inputs.SAT_POINTS):
        import fiberqed

        self.fq = fiberqed
        self.physical = fiberqed.PhysicalConfig()
        self.seed, self.points = seed, points
        # warm-up on a three-power geometry of other inputs, not measured
        self.measure(itertools.islice(inputs.saturation_sweep(seed + 1, 3), 1), math.inf)

    def inputs(self, n: int | None = None):
        """The measured geometries, from the first; the first n for a replay."""
        return itertools.islice(inputs.saturation_sweep(self.seed, self.points), n)

    def _g0(self, spec) -> float:
        return self.physical.g1_0 if spec.which_cavity == 1 else self.physical.g2_0

    def _prepare(self, geo):
        rates = self.fq.derive_rates(self.physical)
        fit = self.fq.fit_simplified(self.fq.make_mode_params(r0=geo.r0))
        return rates, fit

    def _solve(self, spec, rates, fit, r0):
        fq = self.fq
        cfg = fq.SaturationConfig(
            which_cavity=spec.which_cavity, g0=self._g0(spec), N_eff=spec.N_eff,
            A_mf=fit.A_mf, power_grid=spec.power_grid, model=spec.model,
            sigma_y_over_x0=spec.sigma, q_prime_x0=fit.qprime * r0,
        )
        return fq.solve_saturation(cfg, rates, lambda_probe=self.physical.lambda_probe)

    def _check(self, spec, curve, rates, fit, r0) -> str | None:
        weight = 1.0
        if spec.model == "quadrature":
            weight = checks.cloud_average(spec.sigma, fit.qprime * r0)
        g = self._g0(spec) * math.sqrt(spec.N_eff * weight)
        g1, g2 = (g, 0.0) if spec.which_cavity == 1 else (0.0, g)
        zero = self.fq.transmission_spectrum(rates, g1, g2, grid=[0.0])
        return checks.saturation(curve, spec.power_grid, float(zero.transmission[0]))

    def measure(self, source, seconds: float, tracer=None) -> Phase:
        """Whole geometries only, so the curve mix is the same in every run."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        for geo in source:
            unit = time.perf_counter()
            phase.speed.tick()
            t0, dt, prepared, err = _timed(tracer, self._prepare, geo)
            phase.overhead.append((t0, dt))
            for spec in geo.curves:
                if err is not None:
                    phase.add(t0, 0.0, err)
                    continue
                rates, fit = prepared
                phase.speed.tick()
                t0, dt, curve, cerr = _timed(tracer, self._solve, spec, rates, fit, geo.r0)
                wrong = None
                if cerr is None:
                    with _untraced(tracer):
                        wrong = self._check(spec, curve, rates, fit, geo.r0)
                phase.add(t0, dt, cerr, wrong)
            phase.units += 1
            if not _time_left(deadline, time.perf_counter() - unit):
                break
        phase.speed.tick(force=True)
        return phase

    def headline(self, phase: Phase, e2e: dict) -> dict:
        n = len(phase.seconds)
        return {"curves_per_s": (e2e["ops_per_s"], "1/s", n),
                "curve_ms_p50": (e2e["op_ms_p50"], "ms", n - len(phase.failures))}


# --------------------------------------------------------------------------
# cli_session


class CliSession:
    in_process = False

    def __init__(self, seed: int, workdir: Path, script=None):
        """Write configs and output dirs; warm the byte-code caches with one import."""
        self.workdir = workdir
        self.script = script if script is not None else inputs.cli_session(seed, workdir)
        for inv in self.script:
            if inv.out:
                (workdir / inv.out).mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-c", "import fiberqed.cli"], env=child_env(),
                       cwd=workdir, check=True)

    def inputs(self, n: int | None = None):
        """Pass numbers; the first n for a replay."""
        return itertools.count() if n is None else range(n)

    def _invoke(self, inv, spans_file: Path | None):
        if inv.out:         # no stale output can pass a check
            shutil.rmtree(self.workdir / inv.out, ignore_errors=True)
        if spans_file is None:
            argv = [sys.executable, "-m", "fiberqed.cli", *inv.argv]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_file), *inv.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=self.workdir,
                              capture_output=True, text=True)
        return t0, time.perf_counter() - t0, proc

    def measure(self, passes, seconds: float, tracer=None) -> Phase:
        """Whole passes of the script.

        `passes` is an iterable of pass indices.  With a tracer the children
        run under launcher.py and their spans are merged into the phase.
        """
        phase = Phase()
        deadline = time.perf_counter() + seconds
        for n in passes:
            unit = time.perf_counter()
            for i, inv in enumerate(self.script):
                spans_file = self.workdir / f"spans-{n}-{i}.json" if tracer else None
                phase.speed.tick()
                t0, dt, proc = self._invoke(inv, spans_file)
                error = wrong = None
                if proc.returncode == 0 or (inv.command == "validate" and "FAIL" in proc.stdout):
                    wrong = checks.cli(inv, proc.stdout, self.workdir)
                else:
                    last = (proc.stderr.strip().splitlines() or [""])[-1]
                    error = f"exit {proc.returncode}: {last}"
                phase.add(t0, dt, error, wrong)
                if spans_file is not None and spans_file.exists():
                    offset = len(phase.spans)
                    for s in json.loads(spans_file.read_text()):
                        if s["parent"] is not None:
                            s["parent"] += offset
                        phase.spans.append(s)
            phase.units += 1
            if not _time_left(deadline, time.perf_counter() - unit):
                break
        phase.speed.tick(force=True)
        return phase

    def headline(self, phase: Phase, e2e: dict) -> dict:
        n = len(phase.seconds)
        return {"session_s": (len(self.script) / e2e["ops_per_s"], "s", n // len(self.script)),
                "invocation_s_p50": (e2e["op_ms_p50"] / 1e3, "s", n)}


# --------------------------------------------------------------------------
# metrics


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A beta-weighted mean of all order statistics: it estimates the same
    median as the middle sample but moves less from run to run when the
    sample is small or its middle falls between two groups of operations.
    """
    from scipy.special import betainc

    n = len(xs)
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(xs)))


def end_to_end(phase: Phase, setup_samples: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics, one definition for every workload.

    Times are scaled to the reference machine speed (speed.py).  ops_per_s
    is successful operations (invocations, configs, curves) per second of
    operation time, failed attempts and saturation_sweep's fits included;
    op_ms_p50 is the median successful operation (Harrell-Davis).
    """
    good = phase.scaled(ok_only=True)
    total = sum(phase.scaled()) + sum(phase.speed.scale(t, s) for t, s in phase.overhead)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(good) / total, "1/s"),
        "op_ms_p50": (hd_median(good) * 1e3 if good else math.nan, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


PER_LAYER = (
    *tracing.IMPORT_PACKAGES, "import.traced_s",
    *(f"cli.{c}.{k}" for c in CLI_COMMANDS for k in ("wall_s", "work_s")), "cli.self_s",
    "params.derive_rates.calls", "params.derive_rates.self_s",
    "linear_response.transmission_spectrum.calls",
    "linear_response.transmission_spectrum.points",
    "linear_response.transmission_spectrum.self_s",
    "linear_response.transmission_spectrum.ns_per_point",
    "normal_modes.peak_find.self_s", "normal_modes.peak_find.ns_per_point",
    "normal_modes.decompose.self_s", "normal_modes.reduced_spectrum.self_s",
    "fiber_mode.fit_simplified.calls", "fiber_mode.fit_simplified.self_s",
    "fiber_mode.g_squared_exact.calls", "fiber_mode.g_squared_exact.points",
    "fiber_mode.g_squared_exact.self_s",
    "saturation.solve_saturation.calls", "saturation.solve_saturation.failed",
    "saturation.solve_saturation.self_s", "saturation.ms_per_power",
    "saturation.roots_per_power", "saturation.wasted_s",
    "oracle.run_validation.self_s", "oracle.bessel_k_series.calls",
    "oracle.bessel_k_series.self_s", "oracle.solve_dense.calls", "oracle.solve_dense.self_s",
    "bench.self_s", "trace.op_s", "trace.overhead_frac", "failed_frac", "src.lines",
)


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("ns_per_point", "ns"), ("ms_per_power", "ms"),
                      ("_frac", "frac")):
        if name.endswith(suffix):
            return u
    return "count"


def per_layer(workload, plain: Phase, traced: Phase, imports: dict, src_lines: int) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0.

    Span times are as measured, not scaled; trace.overhead_frac compares the
    scaled traced and untraced times of the same operations.
    """
    totals = tracing.layer_totals(traced.spans)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(imports)

    def put(prefix: str, *keys: str) -> None:
        for key in keys:
            m[f"{prefix}.{key}"] = totals[prefix][key] if prefix in totals else 0.0

    put("params.derive_rates", "calls", "self_s")
    put("linear_response.transmission_spectrum", "calls", "points", "self_s")
    put("normal_modes.peak_find", "self_s")
    put("normal_modes.decompose", "self_s")
    put("normal_modes.reduced_spectrum", "self_s")
    put("fiber_mode.fit_simplified", "calls", "self_s")
    put("fiber_mode.g_squared_exact", "calls", "points", "self_s")
    put("saturation.solve_saturation", "calls", "failed", "self_s")
    put("oracle.run_validation", "self_s")
    put("oracle.bessel_k_series", "calls", "self_s")
    put("oracle.solve_dense", "calls", "self_s")

    def per_point(name: str, amount: float, scale: float) -> float:
        points = totals[name]["points"] if name in totals else 0.0
        return amount / points * scale if points else 0.0

    ts = "linear_response.transmission_spectrum"
    m[f"{ts}.ns_per_point"] = per_point(ts, m[f"{ts}.self_s"], 1e9)
    pf = "normal_modes.peak_find"
    m[f"{pf}.ns_per_point"] = per_point(pf, m[f"{pf}.self_s"], 1e9)
    ss = "saturation.solve_saturation"
    if ss in totals:
        sat = totals[ss]
        m["saturation.ms_per_power"] = per_point(ss, sat["self_s"] - sat["failed_self_s"], 1e3)
        m["saturation.roots_per_power"] = per_point(ss, sat["roots"], 1.0)
        m["saturation.wasted_s"] = sat["failed_s"]

    if isinstance(workload, CliSession):
        lines = len(workload.script)
        for cmd in CLI_COMMANDS:
            walls = [s for i, s in enumerate(plain.seconds)
                     if workload.script[i % lines].command == cmd]
            works = [s["end"] - s["start"] for s in traced.spans if s["name"] == f"cli.{cmd}"]
            m[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
            m[f"cli.{cmd}.work_s"] = statistics.median(works) if works else 0.0
        m["cli.self_s"] = sum(t["self_s"] for n, t in totals.items() if n.startswith("cli."))
        m["import.traced_s"] = totals["import"]["self_s"] if "import" in totals else 0.0

    def op_time(phase: Phase, scaled: bool) -> float:
        if scaled:
            return sum(phase.scaled()) + sum(phase.speed.scale(*o) for o in phase.overhead)
        return sum(phase.seconds) + sum(s for _, s in phase.overhead)

    layer_self = sum(t["self_s"] for name, t in totals.items() if name != tracing.BENCH_SPAN)
    m["trace.op_s"] = op_time(traced, scaled=False)
    m["bench.self_s"] = m["trace.op_s"] - layer_self
    m["trace.overhead_frac"] = op_time(traced, True) / op_time(plain, True) - 1.0
    failed = len(plain.failures) + len(traced.failures)
    m["failed_frac"] = failed / (len(plain.seconds) + len(traced.seconds))
    m["src.lines"] = src_lines
    return m
