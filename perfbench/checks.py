"""Output checks, run untimed after every operation.

Each check returns None when the output is right and a one-line reason when
it is not.  A failed check counts the operation as failed.  The references
are independent of the code under test: the dense 5x5 solve of the
stationarity equations, the weak-probe spectrum at zero detuning, and plain
shape and range checks on CLI output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: relative agreement required between the closed-form spectrum and the dense
#: solve (the seed agrees to about 1e-15).
DENSE_RTOL = 1e-9

#: relative gap allowed between the lowest-power saturation point and the
#: weak-probe spectrum, per watt of that power.  The gap is the onset of
#: saturation and grows linearly with power; the largest seed slope over the
#: sampled inputs is 7.6e9 / W (cavity 2, N_eff = 10), so 3e10 / W leaves a
#: factor of four.
LOW_POWER_GAP_PER_W = 3e10


def design(inp, rates, spec, peaks, reduced, reduced_peaks, g1, g2) -> str | None:
    """Spectrum against the dense solve at the sampled detunings, plus sanity."""
    from fiberqed.linear_response import ProbeSettings
    from fiberqed.oracle import build_linear_system, solve_dense

    def flux(delta: float, c1: float, c2: float) -> float:
        probe = ProbeSettings(delta_c=delta, delta_a=delta, drive_E1=1.0)
        a2 = solve_dense(build_linear_system(rates, probe, c1, c2)).a2
        return 2.0 * rates.kappa_2r * abs(a2) ** 2

    norm = flux(0.0, 0.0, 0.0)
    for i in inp.check_index:
        want = flux(float(spec.detunings[i]), g1, g2) / norm
        got = float(spec.transmission[i])
        if not abs(got - want) <= DENSE_RTOL * abs(want):
            return f"spectrum[{i}] = {got!r}, dense solve gives {want!r}"
    for name, s in (("spectrum", spec), ("reduced spectrum", reduced)):
        t = np.asarray(s.transmission)
        if t.shape != (inp.points,) or not np.all(np.isfinite(t)) or np.any(t < 0.0):
            return f"{name} is not {inp.points} finite non-negative values"
    lo, hi = inp.grid()[[0, -1]]
    for name, found in (("peaks", peaks), ("reduced peaks", reduced_peaks)):
        for pos, height in found:
            if not (lo <= pos <= hi and math.isfinite(height)):
                return f"{name}: bad peak ({pos!r}, {height!r})"
    return None


def cloud_average(sigma: float, q_prime_x0: float) -> float:
    """Mean coupling weight over a Gaussian cloud, by the trapezoid rule.

    The zero-field atom sum of the quadrature model is N_eff times this.
    """
    u = np.linspace(-12.0, 12.0, 24001)
    ratio2 = (sigma * u) ** 2
    s = np.exp(-2.0 * q_prime_x0 * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5
    return float(np.trapezoid(np.exp(-u * u) * s, u) / math.sqrt(math.pi))


def saturation(curve, power_grid, linear_T0: float) -> str | None:
    """Range and root-count checks, and the weak-probe limit at the lowest power.

    The branch labels are not checked.
    """
    if len(curve.points) != len(power_grid):
        return f"{len(curve.points)} points for {len(power_grid)} powers"
    for pt in curve.points:
        if not 0.0 <= pt.transmission <= 1.0:
            return f"T = {pt.transmission!r} at {pt.P_in!r} W"
        if pt.n_roots % 2 != 1:
            return f"{pt.n_roots} roots at {pt.P_in!r} W"
    p_min = float(power_grid[0])
    gap = abs(curve.points[0].transmission - linear_T0) / linear_T0
    if not gap <= LOW_POWER_GAP_PER_W * p_min:
        return f"lowest-power T is {gap:.3g} (relative) from the weak-probe limit at {p_min:.3g} W"
    return None


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def cli(inv, stdout: str, workdir: Path) -> str | None:
    """CSV headers, row counts and finite values; validate PASS lines.

    Called for invocations that exited with code 0, and for validate also
    when it exited non-zero, since its FAIL lines are an output to check.
    """
    lines = stdout.splitlines()
    if inv.command == "params":
        if len(lines) != 18 or not all(_finite(ln.split()[-1]) for ln in lines[1:]):
            return "params table is not 17 finite rates"
    elif inv.command == "normal-modes":
        if "--kv" in inv.args:
            pairs = [ln.split("=", 1) for ln in lines]
            if len(pairs) != 9 or not all(len(p) == 2 for p in pairs) \
                    or not all(_finite(v) for _, v in pairs[:8]):
                return "normal-modes --kv is not 8 finite values and 'resolved'"
        elif len(lines) < 9 or not all(_finite(ln.split()[-1]) for ln in lines[1:9]):
            return "normal-modes table is not 8 finite values"
    elif inv.command == "validate":
        if len(lines) < 4 or not all(ln.startswith("PASS") for ln in lines):
            return "validate: " + "; ".join(ln for ln in lines if not ln.startswith("PASS"))
    for name, header, rows in inv.csv:
        path = workdir / inv.out / name
        if not path.is_file():
            return f"{name} missing"
        got = path.read_text().splitlines()
        if not got or got[0] != header:
            return f"{name}: header {got[:1]!r}, expected {header!r}"
        if len(got) - 1 != rows:
            return f"{name}: {len(got) - 1} rows, expected {rows}"
        columns = header.split(",")
        for row in got[1:]:
            cells = row.split(",")
            if len(cells) != len(columns) or not all(
                _finite(c) for c, col in zip(cells, columns) if col != "branch"
            ):
                return f"{name}: bad row {row!r}"
    for name in inv.files:
        if not (workdir / inv.out / name).is_file():
            return f"{name} missing"
    return None
