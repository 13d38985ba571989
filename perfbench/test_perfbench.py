"""Tests of the benchmark itself: every workload at a tiny size, the tracing
arithmetic, and output checks that must reject corrupted results."""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import speed
import tracing
import workloads

from fiberqed.saturation import SaturationCurve, SaturationPoint

HERE = Path(__file__).resolve().parent


def _traced(workload, phase):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workload.measure(workload.inputs(phase.units), math.inf, tracer)
    traced.spans = tracer.spans
    return traced


def test_design_scan_tiny_run_and_layer_accounting():
    w = workloads.DesignScan(seed=5)
    plain = w.measure(w.inputs(), 0.0)
    assert len(plain.seconds) == 1 and not plain.failures
    traced = _traced(w, plain)
    assert len(traced.seconds) == 1 and not traced.failures
    m = workloads.per_layer(w, plain, traced, {}, 0)
    assert m["params.derive_rates.calls"] == 1
    assert m["linear_response.transmission_spectrum.calls"] == 1
    assert m["linear_response.transmission_spectrum.points"] == next(w.inputs()).points
    assert m["saturation.solve_saturation.calls"] == 0
    layers = sum(v for k, v in m.items()
                 if k.endswith(".self_s") and k != "bench.self_s")
    assert 0.0 <= m["bench.self_s"] < m["trace.op_s"]
    assert layers + m["bench.self_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)


def test_saturation_sweep_tiny_run_keeps_the_known_defect():
    w = workloads.SaturationSweep(seed=5, points=5)
    plain = w.measure(w.inputs(), 0.0)
    assert len(plain.seconds) == 6
    [(error, wrong)] = plain.failures.values()
    assert wrong is None and "root bracketing failed" in error
    traced = _traced(w, plain)
    m = workloads.per_layer(w, plain, traced, {}, 0)
    assert m["fiber_mode.fit_simplified.calls"] == 1
    assert m["saturation.solve_saturation.calls"] == 6
    assert m["saturation.solve_saturation.failed"] == 1
    assert m["saturation.wasted_s"] > 0.0
    assert m["saturation.roots_per_power"] >= 1.0


def test_cli_session_tiny_run_traced(tmp_path):
    script = inputs.cli_session(3, tmp_path)
    tiny = [inv for inv in script if inv.command in ("params", "normal-modes")][1:3]
    w = workloads.CliSession(3, tmp_path, script=tiny)
    plain = w.measure(w.inputs(), 0.0)
    assert len(plain.seconds) == 2 and not plain.failures
    traced = w.measure(w.inputs(plain.units), math.inf, tracing.Tracer())
    names = {s["name"] for s in traced.spans}
    assert {"import", "cli.params", "cli.normal-modes", "params.derive_rates"} <= names
    m = workloads.per_layer(w, plain, traced, {}, 0)
    assert m["cli.params.wall_s"] > m["cli.params.work_s"] > 0.0


def test_installed_rebinds_every_namespace_and_restores():
    import fiberqed
    import fiberqed.cli
    import fiberqed.oracle
    import fiberqed.params

    original = fiberqed.params.derive_rates
    with tracing.installed(tracing.Tracer()):
        wrapped = fiberqed.params.derive_rates
        assert wrapped is not original
        assert fiberqed.derive_rates is wrapped
        assert fiberqed.cli.derive_rates is wrapped
        assert fiberqed.oracle.derive_rates is wrapped
    assert fiberqed.cli.derive_rates is original and fiberqed.derive_rates is original


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "ok": True, "counts": {}},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "ok": True, "counts": {"points": 7}},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0, "ok": False, "counts": {}},
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == 6.0
    assert totals["b"]["calls"] == 2 and totals["b"]["self_s"] == 4.0
    assert totals["b"]["failed"] == 1 and totals["b"]["failed_s"] == 1.0
    assert totals["b"]["points"] == 7


def test_importtime_counts_outermost_entries_of_a_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.optimize._a",
        "import time:        50 |        150 |       scipy.optimize._b",
        "import time:        30 |         30 |       scipy.optimize._c",
        "import time:        20 |        200 |     fiberqed.fiber_mode",
        "import time:        10 |        400 |   fiberqed",
        "import time:        40 |         40 |     mpmath",
        "import time:         5 |         45 |   fiberqed.oracle",
        "import time:         7 |        500 | fiberqed.cli",
    ])
    got = tracing.parse_importtime(stderr)
    assert got["import.cli_s"] == pytest.approx(500e-6)
    assert got["import.fiber_mode_s"] == pytest.approx(200e-6)
    assert got["import.scipy_optimize_s"] == pytest.approx(180e-6)
    assert got["import.mpmath_s"] == pytest.approx(40e-6)
    assert got["import.oracle_s"] == pytest.approx(45e-6)


def test_phase_keeps_only_failures_apart():
    phase = workloads.Phase()
    phase.add(0.0, 1.0)
    phase.add(1.0, 2.0, error="RuntimeError: x")
    phase.add(3.0, 3.0, wrong="bad")
    assert list(phase.seconds) == [1.0, 2.0, 3.0]
    assert phase.failures == {1: ("RuntimeError: x", None), 2: (None, "bad")}


def test_hd_median_matches_the_median_of_symmetric_samples():
    assert workloads.hd_median([5.0]) == pytest.approx(5.0)
    assert workloads.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert workloads.hd_median([1.0, 2.0, 3.0, 4.0, 100.0]) > 3.0


def test_speedometer_scales_by_the_nearby_kernel_time():
    meter = speed.Speedometer()
    meter._times = [0.0, 1.0, 10.0, 11.0]
    meter._seconds = [speed.REFERENCE_S] * 2 + [2.0 * speed.REFERENCE_S] * 2
    assert meter.scale(0.2, 0.5) == pytest.approx(0.5)       # kernel at reference speed
    assert meter.scale(10.2, 0.5) == pytest.approx(0.25)     # machine twice as slow
    assert meter.scale(5.0, 0.1) == pytest.approx(0.1 / 1.5)  # no kernel run within 1 s


# --------------------------------------------------------------------------
# corrupted outputs must fail their checks


def _design_outputs():
    w = workloads.DesignScan(seed=9)
    inp = next(i for i in w.inputs() if i.config["g1_eff"] > 0 and i.config["g2_eff"] > 0)
    return inp, list(w._operate(inp, inp.grid()))


def test_design_check_rejects_perturbed_transmission():
    inp, out = _design_outputs()
    assert checks.design(inp, *out) is None
    spec = out[1]
    out[1] = dataclasses.replace(spec, transmission=spec.transmission * (1.0 + 1e-6))
    assert "dense solve" in checks.design(inp, *out)


def test_design_check_rejects_negative_reduced_spectrum():
    inp, out = _design_outputs()
    out[3] = dataclasses.replace(out[3], transmission=-out[3].transmission)
    assert "reduced spectrum" in checks.design(inp, *out)


def _curve(ts, roots=1):
    grid = np.geomspace(1e-12, 1e-6, len(ts))
    pts = [SaturationPoint(float(p), t, roots, "low") for p, t in zip(grid, ts)]
    return SaturationCurve(points=pts, n_sat=1.0), grid


def test_saturation_check_rejects_bad_curves():
    good, grid = _curve([0.5, 0.6, 0.7])
    assert checks.saturation(good, grid, 0.5) is None
    assert "T =" in checks.saturation(_curve([0.5, 1.2, 0.7])[0], grid, 0.5)
    assert "roots" in checks.saturation(_curve([0.5, 0.6, 0.7], roots=2)[0], grid, 0.5)
    assert "weak-probe" in checks.saturation(good, grid, 0.4)


def test_cli_check_rejects_short_csv_and_failed_validation(tmp_path):
    inv = inputs.Invocation("spectrum", ("--out", "o"), "o",
                            (("spectrum.csv", inputs.SPECTRUM_HEADER, 3),))
    (tmp_path / "o").mkdir()
    csv = tmp_path / "o" / "spectrum.csv"
    csv.write_text(inputs.SPECTRUM_HEADER + "\n-1,0.1\n0,0.9\n1,0.1\n")
    assert checks.cli(inv, "", tmp_path) is None
    csv.write_text(inputs.SPECTRUM_HEADER + "\n-1,0.1\n0,0.9\n")
    assert "rows" in checks.cli(inv, "", tmp_path)
    csv.write_text(inputs.SPECTRUM_HEADER + "\n-1,0.1\n0,nan\n1,0.1\n")
    assert "bad row" in checks.cli(inv, "", tmp_path)
    validate = inputs.Invocation("validate", ())
    out = "PASS  a\nPASS  b\nFAIL  c: max error 1\nPASS  d\n"
    assert "FAIL  c" in checks.cli(validate, out, tmp_path)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "design_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
