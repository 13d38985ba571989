"""Seeded input generators, one per workload.

Each generator takes only the workload seed; the program under test receives
the generated inputs and nothing else.  The same seed always yields the same
inputs.  Every workload is a closed loop with one client: the next operation
starts only after the previous one has returned and been checked.

Why each workload exists, and which layers it does and does not exercise:

cli_session
    A fixed script of fresh-process ``python -m fiberqed.cli`` invocations
    covering all six subcommands, with defaults and with variants (config
    files with several Lf values and every atom loading, cavity 2, the
    quadrature saturation model, --band, a 4001-point --grid, --svg,
    normal-modes --kv, validate).  It is what a user waits for.  Import
    dominates every call at the seed, so lazy imports, a vectorised mode
    profile, memoised oracles and a faster saturation solver each show their
    share here.  Exercises every layer, the package import included.

design_scan
    In-process scan of the design space: per seeded physical config
    derive_rates -> transmission_spectrum -> peak_find -> decompose ->
    reduced_spectrum -> peak_find.  Grids of 601 (the CLI default), 4001 and
    20001 points in the fixed ratio 6:3:1.  601-point configs are dominated
    by per-call overhead and set the median latency; 4001- and 20001-point
    ones are dominated by per-point kernel time and set the throughput and
    the tail, so a gain for one that costs the other shows.  Exercises params,
    linear_response and normal_modes; bypasses the import (paid once in
    set-up), saturation and oracle.

saturation_sweep
    In-process: per seeded trap geometry (r0), fit_simplified runs first and
    its A_mf and q'*r0 feed six solve_saturation curves of 61 powers.  Five
    span 1 pW - 1 uW; one in six spans 10 aW - 10 mW, which lies outside the
    solver's fixed scan bracket at the seed and fails with "root bracketing
    failed" (a known defect, kept on purpose).  N_eff is log-uniform in
    [10, 3000], which includes the bistable three-root region.  The solver is
    the slowest path in the package; once it is fast the fit's share shows.
    Exercises fiber_mode, saturation and params; bypasses linear_response
    (used only by the untimed check) and the import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MHZ = 2.0 * math.pi * 1e6           # rad/s per MHz

DESIGN_GRID_CYCLE = (601,) * 6 + (4001,) * 3 + (20001,)
DESIGN_CHECK_POINTS = 4             # detunings compared against the dense solve

SAT_POINTS = 61
NARROW_GRID_W = (1e-12, 1e-6)       # 1 pW - 1 uW
WIDE_GRID_W = (1e-17, 1e-2)         # 10 aW - 10 mW
N_EFF_RANGE = (10.0, 3000.0)
SIGMA_RANGE = (0.1, 0.4)


# --------------------------------------------------------------------------
# cli_session


@dataclass(frozen=True)
class Invocation:
    """One fresh-process CLI call and what its output must look like."""

    command: str
    args: tuple[str, ...]               # everything after the subcommand
    out: str | None = None              # output directory name, if any
    csv: tuple[tuple[str, str, int], ...] = ()   # (file, header, rows)
    files: tuple[str, ...] = ()         # other files that must exist

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.args]


SPECTRUM_HEADER = "delta_MHz,transmission"
SATURATION_HEADER = "P_in_pW,transmission,n_roots,branch"
MODE_HEADER = "r_nm,phi_rad,z_nm,g2_exact,g2_simplified"
MODE_ROWS = 31 * 5 * 9              # CLI default [mode] grid


def cli_session(seed: int, workdir: Path) -> list[Invocation]:
    """Write the seeded config files under workdir and return the script.

    Output directories are relative to workdir, which is the children's
    working directory.
    """
    rng = random.Random(seed)
    cfgdir = workdir / "configs"
    cfgdir.mkdir(parents=True, exist_ok=True)

    def lf() -> str:
        return f"{rng.uniform(0.5, 3.0):.4f}"

    def write(name: str, text: str) -> str:
        (cfgdir / name).write_text(text)
        return str(Path("configs") / name)

    c_lf = write("lf.ini", f"[physical]\nLf = {lf()}\n")
    c_cav1 = write("cavity1.ini", f"[physical]\nLf = {lf()}\n[atoms]\nloading = cavity1\n")
    c_cav2 = write("cavity2.ini", f"[physical]\nLf = {lf()}\n[atoms]\nloading = cavity2\n")
    c_none = write("none.ini", f"[physical]\nLf = {lf()}\n[atoms]\nloading = none\n")
    c_both = write(
        "both.ini",
        f"[physical]\nLf = {lf()}\n[atoms]\nloading = both\n"
        f"g1_eff = {rng.uniform(3.0, 12.0):.3f}\ng2_eff = {rng.uniform(3.0, 12.0):.3f}\n",
    )
    c_quad = write(
        "quadrature.ini",
        f"[physical]\nLf = {lf()}\n[atoms]\ng2_eff = {rng.uniform(5.0, 10.0):.3f}\n"
        "[saturation]\nwhich_cavity = 2\nmodel = quadrature\nsigma_y_over_x0 = 0.3\n",
    )
    band = f"{rng.uniform(0.2, 1.5):.3f}"

    def spec(name: str, rows: int) -> tuple[str, str, int]:
        return (name, SPECTRUM_HEADER, rows)

    return [
        Invocation("params", ()),
        Invocation("params", ("--config", c_lf)),
        Invocation("spectrum", ("--out", "o_spec"), "o_spec", (spec("spectrum.csv", 601),)),
        Invocation(
            "spectrum",
            ("--config", c_cav1, "--out", "o_band", "--band", band, "--svg"),
            "o_band",
            (spec("spectrum.csv", 601), spec("spectrum_band_low.csv", 601),
             spec("spectrum_band_high.csv", 601)),
            ("spectrum.svg",),
        ),
        Invocation(
            "spectrum",
            ("--config", c_cav2, "--out", "o_wide", "--grid=-60:60:4001"),
            "o_wide",
            (spec("spectrum.csv", 4001),),
        ),
        Invocation("spectrum", ("--config", c_none, "--out", "o_none"), "o_none",
                   (spec("spectrum.csv", 601),)),
        Invocation("normal-modes", ()),
        Invocation("normal-modes", ("--kv", "--config", c_both)),
        Invocation("saturation", ("--out", "o_sat"), "o_sat",
                   (("saturation.csv", SATURATION_HEADER, 61),)),
        Invocation(
            "saturation",
            ("--config", c_quad, "--out", "o_quad", "--svg"),
            "o_quad",
            (("saturation.csv", SATURATION_HEADER, 61),),
            ("saturation.svg",),
        ),
        Invocation("mode-profile", ("--out", "o_mode"), "o_mode",
                   (("mode_profile.csv", MODE_HEADER, MODE_ROWS),)),
        Invocation("validate", ()),
    ]


# --------------------------------------------------------------------------
# design_scan


@dataclass(frozen=True)
class DesignInput:
    config: dict                # PhysicalConfig keyword arguments
    span: float                 # grid half-width, rad/s
    points: int
    check_index: tuple[int, ...]

    def grid(self) -> np.ndarray:
        return np.linspace(-self.span, self.span, self.points)


def design_scan(seed: int):
    """Endless stream of seeded physical configs.

    Couplings are zero with probability 1/4 each, so every atom loading
    occurs.  Grid sizes repeat DESIGN_GRID_CYCLE in a seeded order, so the
    mix is the same in every run.
    """
    rng = np.random.default_rng(seed)

    def coupling() -> float:
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(0.5, 15.0)) * MHZ

    while True:
        for points in rng.permutation(DESIGN_GRID_CYCLE):
            points = int(points)
            config = dict(
                T1=float(rng.uniform(0.02, 0.6)),
                T2=float(rng.uniform(0.02, 0.6)),
                T3=float(rng.uniform(0.02, 0.6)),
                T4=float(rng.uniform(0.02, 0.6)),
                L1=float(rng.uniform(0.3, 3.0)),
                L2=float(rng.uniform(0.3, 3.0)),
                Lf=float(rng.uniform(0.3, 5.0)),
                alpha1=float(rng.uniform(0.0, 0.08)),
                alpha2=float(rng.uniform(0.0, 0.08)),
                alphaf=float(rng.uniform(0.0, 0.08)),
                g1_eff=coupling(),
                g2_eff=coupling(),
            )
            idx = rng.choice(points, DESIGN_CHECK_POINTS - 1, replace=False)
            check_index = tuple(sorted({points // 2, *map(int, idx)}))  # points // 2 is zero detuning
            yield DesignInput(config, float(rng.uniform(20.0, 80.0)) * MHZ, points, check_index)


# --------------------------------------------------------------------------
# saturation_sweep


@dataclass(frozen=True)
class CurveSpec:
    which_cavity: int
    model: str
    sigma: float
    N_eff: float
    power_grid: np.ndarray = field(repr=False)
    wide: bool


@dataclass(frozen=True)
class Geometry:
    r0: float                   # trap-minimum radius, m
    curves: tuple[CurveSpec, ...]


def saturation_sweep(seed: int, points: int = SAT_POINTS):
    """Endless stream of seeded trap geometries, each with six curves.

    The curve mix per geometry is fixed: one closed-form curve, four
    quadrature curves (cavity 1, cavity 2 and two random cavities) and one
    wide-grid curve with a random cavity and model.  With four quadrature
    curves in five, the median curve lies inside the quadrature group rather
    than at its edge.  N_eff is log-uniform in [10, 3000], stratified within
    each geometry.
    """
    rng = np.random.default_rng(seed)
    narrow = np.geomspace(*NARROW_GRID_W, points)
    wide = np.geomspace(*WIDE_GRID_W, points)
    log_lo, log_hi = np.log(N_EFF_RANGE)
    while True:
        # stratified: one log-uniform draw from each sixth of the N_eff range,
        # in random order, so every geometry covers the one- and three-root
        # regions alike
        strata = iter(rng.permutation(6))

        def curve(cavity, model, grid, is_wide):
            sigma = float(rng.uniform(*SIGMA_RANGE)) if model == "quadrature" else 0.0
            u = (next(strata) + rng.random()) / 6.0
            n_eff = float(math.exp(log_lo + u * (log_hi - log_lo)))
            return CurveSpec(int(cavity), model, sigma, n_eff, grid, is_wide)

        curves = (
            curve(rng.integers(1, 3), "closed_form", narrow, False),
            curve(1, "quadrature", narrow, False),
            curve(2, "quadrature", narrow, False),
            curve(rng.integers(1, 3), "quadrature", narrow, False),
            curve(rng.integers(1, 3), "quadrature", narrow, False),
            curve(rng.integers(1, 3), str(rng.choice(["closed_form", "quadrature"])), wide, True),
        )
        yield Geometry(r0=200e-9 + float(rng.uniform(150e-9, 300e-9)), curves=curves)
