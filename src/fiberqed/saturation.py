"""Semiclassical saturation of the on-resonance transmission.

With atoms in one cavity only and everything on resonance, the nonlinear
steady state collapses to the mean-field absorptive-bistability equation
y = |X| * F(|X|^2) in the scaled drive y and scaled intracavity amplitude
|X| (Lugiato, Prog. Opt. 21, 69 (1984)).  F is read off the linear closed
form of linear_response: there f = 1/(kappa_1p*|a_k|) of the atom cavity k
is affine in g_k^2, so its values f0 without atoms and f1 with N_eff
unsaturated atoms give F(|X|^2) = f0 + (f1 - f0) * term(|X|^2) / N_eff, and
the transmission is T = (f0*|X|/y)^2.  The atom summation term is its
collective closed form (or a Gauss-Hermite quadrature over the radial
density when the cloud width matters).  Because y(|X|) does not depend on
power, one scan over the fixed bracket |X| in [1e-4, 1e3]*sqrt(n_sat)
serves every power of a curve; all real roots are recorded per power, and
the reported branch follows continuation from zero drive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linear_response
from .params import C_VACUUM, DerivedRates, PhysicalConfig

HBAR = 1.054571817e-34          # J s

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(96)


@dataclass(frozen=True)
class SaturationConfig:
    which_cavity: int = 1
    g0: float = 0.0                     # trap-minimum single-atom coupling, rad/s
    N_eff: float = 1.0                  # effective atom number
    # A_mf and q_prime_x0 default to the reference fit, fit_simplified(make_mode_params())
    A_mf: float = 0.14990793687749404   # axial weight of the mode function
    power_grid: np.ndarray = field(default_factory=lambda: np.geomspace(1e-12, 1e-6, 61))
    model: str = "closed_form"          # closed_form | quadrature
    sigma_y_over_x0: float = 0.0        # cloud width / trap radius (quadrature model)
    q_prime_x0: float = 1.1165317785084827  # q' * r0 (quadrature model)

    def validate(self) -> None:
        if self.which_cavity not in (1, 2):
            raise ValueError("which_cavity must be 1 or 2")
        if self.N_eff <= 0.0:
            raise ValueError("N_eff must be positive")
        if self.model not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown saturation model {self.model!r}")
        grid = np.asarray(self.power_grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise ValueError("power grid must be positive and strictly increasing")


@dataclass(frozen=True)
class SaturationPoint:
    P_in: float                 # input power, W
    transmission: float
    n_roots: int
    branch: str                 # "low" | "high"


@dataclass(frozen=True)
class SaturationCurve:
    points: list[SaturationPoint]
    n_sat: float


def saturation_photon_number(g0: float, rates: DerivedRates) -> float:
    """n_sat = gamma_perp * gamma_par / (4 g0^2)."""
    if g0 <= 0.0:
        raise ValueError("g0 must be positive")
    return rates.gamma_perp * rates.gamma_par / (4.0 * g0**2)


def _saturated_fraction(A_mf: float, x2):
    """1 - 1/sqrt((1 + A*x2)(1 + x2)), without cancellation at small x2."""
    return -np.expm1(-0.5 * (np.log1p(A_mf * x2) + np.log1p(x2)))


def _per_unit_field(N_eff: float, A_mf: float, x2: np.ndarray, fraction, zero_field):
    """N_eff * 2/((1+A)*x2) * fraction, and N_eff * zero_field at x2 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            x2 > 0.0,
            N_eff * 2.0 / (1.0 + A_mf) / np.where(x2 > 0.0, x2, 1.0) * fraction,
            N_eff * zero_field,
        )
    return out if out.ndim else float(out)


def collective_saturation_term(N_eff: float, A_mf: float, X_abs2) -> float:
    """Collective atomic response summed over the trap, per unit cooperativity.

    Decreases monotonically from N_eff at zero field to
    2*N_eff/((1+A)*|X|^2) at strong saturation.
    """
    x2 = np.asarray(X_abs2, dtype=float)
    if np.any(x2 < 0.0):
        raise ValueError("X_abs2 must be non-negative")
    return _per_unit_field(N_eff, A_mf, x2, _saturated_fraction(A_mf, x2), 1.0)


def quadrature_saturation_term(
    N_eff: float, A_mf: float, sigma_y_over_x0: float, q_prime_x0: float, X_abs2
) -> float:
    """Gauss-Hermite evaluation of the atom summation over a Gaussian cloud.

    Reduces to collective_saturation_term when sigma_y_over_x0 = 0 (all atoms
    sample the trap-minimum field).
    """
    if sigma_y_over_x0 < 0.0:
        raise ValueError("sigma_y_over_x0 must be non-negative")
    x2 = np.asarray(X_abs2, dtype=float)
    ratio2 = (sigma_y_over_x0 * _GH_NODES) ** 2
    s = np.exp(-2.0 * q_prime_x0 * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5
    f = _saturated_fraction(A_mf, x2[..., np.newaxis] * s)
    integral = np.sum(_GH_WEIGHTS * f, axis=-1) / math.sqrt(math.pi)
    # analytic zero-field limit: f ~ (1+A)*s*x2/2, averaged over the cloud
    s_avg = np.sum(_GH_WEIGHTS * s) / math.sqrt(math.pi)
    return _per_unit_field(N_eff, A_mf, x2, integral, s_avg)


def scaled_drive_from_power(
    P_in, rates: DerivedRates, n_sat: float, lambda_probe: float
) -> float:
    """Invert P_in = y^2 * (2*pi*hbar*c/lambda) * kappa_1p^2/(2*kappa_1l) * n_sat.

    Accepts a scalar power (returns a float) or an array of powers.
    """
    photon_energy = 2.0 * math.pi * HBAR * C_VACUUM / lambda_probe
    scale = photon_energy * rates.kappa_1p**2 / (2.0 * rates.kappa_1l) * n_sat
    y = np.sqrt(np.asarray(P_in, dtype=float) / scale)
    return y if y.ndim else float(y)


def _response_function(cfg: SaturationConfig, rates: DerivedRates):
    """Return (F, prefactor) with y = x*F(x^2) and T = prefactor * x^2 / y^2.

    f0 and f1 come from one unit-drive closed-form call at zero detuning; the
    empty chain has T = 1, so prefactor = f0^2.
    """
    if cfg.model == "closed_form":
        term = functools.partial(collective_saturation_term, cfg.N_eff, cfg.A_mf)
    else:
        term = functools.partial(quadrature_saturation_term, cfg.N_eff, cfg.A_mf,
                                 cfg.sigma_y_over_x0, cfg.q_prime_x0)
    g = np.array([0.0, cfg.g0 * math.sqrt(cfg.N_eff)])
    couplings = (g, 0.0) if cfg.which_cavity == 1 else (0.0, g)
    a_k = linear_response._amplitudes(rates, 0.0, 0.0, 1.0, *couplings)[cfg.which_cavity - 1]
    f0, f1 = 1.0 / (rates.kappa_1p * np.abs(a_k))
    slope = (f1 - f0) / cfg.N_eff

    def F(x2):
        return f0 + slope * term(x2)

    return F, f0 * f0


def _find_roots(F, y: np.ndarray, n_sat: float) -> list[np.ndarray]:
    """Sorted positive roots of x*F(x^2) = y for every drive in y at once.

    x*F(x^2) does not depend on the drive, so one 400-point log scan over the
    fixed bracket [1e-4, 1e3]*sqrt(n_sat) serves all drives; a node where
    x*F(x^2) = y exactly is a root.  All sign changes are refined together
    by Illinois steps of at least 4e-14*x (so both ends close in), then by
    bisection after 20 steps, until each bracket's relative width <= 1e-13.
    """
    sqrt_nsat = math.sqrt(n_sat)
    grid = np.geomspace(1e-4 * sqrt_nsat, 1e3 * sqrt_nsat, 400)
    G = (grid * F(grid * grid))[:, np.newaxis] - y      # (grid node, drive)
    at_node = G == 0.0
    in_cell = G[:-1] * G[1:] < 0.0
    if not np.all(at_node.any(axis=0) | in_cell.any(axis=0)):
        raise RuntimeError(
            "saturation root bracketing failed: no sign change up to |X| = 1e3*sqrt(n_sat)"
        )
    cell, drive = np.nonzero(in_cell)
    a, fa, b, fb = grid[cell], G[cell, drive], grid[cell + 1], G[cell + 1, drive]
    step = 0
    while np.any(np.abs(b - a) > 1e-13 * np.minimum(a, b)):
        if step < 20:
            size = np.clip(np.abs(fb * (b - a) / (fb - fa)), 4e-14 * b, np.abs(b - a))
            c = b + np.sign(a - b) * size
        else:
            c = 0.5 * (a + b)
        fc = c * F(c * c) - y[drive]
        flip = np.sign(fc) != np.sign(fb)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = c, fc
        step += 1
    node, node_drive = np.nonzero(at_node)
    x = np.concatenate([grid[node], 0.5 * (a + b)])
    owner = np.concatenate([node_drive, drive])
    order = np.lexsort((x, owner))
    return np.split(x[order], np.cumsum(np.bincount(owner, minlength=y.size))[:-1])


def solve_saturation(
    cfg: SaturationConfig, rates: DerivedRates, lambda_probe: float = PhysicalConfig.lambda_probe
) -> SaturationCurve:
    """Transmission vs input power along the branch continued from zero drive."""
    cfg.validate()
    n_sat = saturation_photon_number(cfg.g0, rates)
    F, prefactor = _response_function(cfg, rates)
    powers = np.asarray(cfg.power_grid, dtype=float)
    drives = scaled_drive_from_power(powers, rates, n_sat, lambda_probe)

    points, x = [], None
    for P, y, roots in zip(powers, drives, _find_roots(F, drives, n_sat)):
        x = roots[0] if x is None else roots[np.argmin(np.abs(roots - x))]
        points.append(SaturationPoint(P_in=float(P), transmission=float(prefactor * x**2 / y**2),
                                      n_roots=len(roots), branch="low" if x == roots[0] else "high"))
    return SaturationCurve(points=points, n_sat=n_sat)
