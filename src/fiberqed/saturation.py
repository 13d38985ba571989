"""Semiclassical saturation of the on-resonance transmission.

With atoms in one cavity only and everything on resonance, the nonlinear steady state collapses to
the mean-field absorptive-bistability equation y = h(|X|) = |X| * F(|X|^2) in the scaled drive y
and scaled intracavity amplitude |X| (Lugiato, Prog. Opt. 21, 69 (1984)).  F is read off the linear
closed form: f = 1/(kappa_1p*|a_k|) of the atom cavity k is affine in g_k^2, so its values f0
without atoms and f1 with N_eff unsaturated atoms, Python floats from linear_response's
zero-detuning Delta, give F = f0 + (f1 - f0) * P(|X|^2) with P the atom sum per atom, and
T = (f0*|X|/y)^2.  P is a weighted sum over relative couplings s of the saturated fraction
1 - 1/sqrt(p) = u/(p + sqrt(p)), p = 1 + u = (1 + A*xs)(1 + xs), free of cancellation.  The cloud
width sigma_y_over_x0 selects the rule: at 0 the one-node s = w = [1] of the collective closed form
(model = closed_form names it, and needs sigma_y_over_x0 = 0), above 0 the 96-node Gauss-Hermite
rule folded onto its 27 positive nodes of weight above 1e-18 of the largest (within about 1e-17
relative of the full sum).  Because h does not depend on power, one 400-node scan over the fixed
bracket |X| in [1e-4, 1e3]*sqrt(n_sat) serves every power of a curve: a cell brackets y when
min(h_a, h_b) <= y < max(h_a, h_b), a sign change of h > y, so every y with h(first node) <= y <
h(last node) has an odd root count; an even count leaves a root beyond the scan, and raises.  About
4 vectorised passes of safeguarded Newton steps (at most 60), each evaluating h and its exact slope
once per root, refine them; each power takes T from its lowest root, the up-sweep (a down-sweep
would take the highest), on the "high" branch once a falling scan cell lies below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linear_response
from .params import C_VACUUM, DerivedRates, PhysicalConfig, check_cloud_width, check_saturation_choice, holds

HBAR = 1.054571817e-34          # J s

def _check_atom_sum(N_eff, A_mf, q_prime_x0=1.0, X_abs2=0.0) -> None:
    """SaturationConfig's rules on the atom-sum inputs; the caller checks the cloud width first."""
    if not 0.0 < N_eff < math.inf:
        raise ValueError(f"N_eff={N_eff!r} must be positive and finite")
    if not 0.0 <= A_mf <= 1.0:
        raise ValueError(f"axial weight A_mf={A_mf!r} must lie in [0, 1]")
    if not 0.0 < q_prime_x0 < math.inf:
        raise ValueError(f"q_prime_x0={q_prime_x0!r} must be positive and finite")
    if not holds(X_abs2 >= 0.0):       # NaN fails too
        raise ValueError("X_abs2 must be non-negative")


@dataclass(frozen=True)
class SaturationConfig:
    which_cavity: int = 1
    g0: float = 0.0                     # trap-minimum single-atom coupling, rad/s
    N_eff: float = 1.0                  # effective atom number
    # A_mf and q_prime_x0 default to the reference fit, fit_simplified(ModeFunctionParams())
    A_mf: float = 0.14990793786043394   # axial weight of the mode function
    power_grid: np.ndarray = field(default_factory=lambda: np.geomspace(1e-12, 1e-6, 61))
    model: str = "closed_form"          # names the rule: closed_form needs sigma_y_over_x0 = 0
    sigma_y_over_x0: float = 0.0        # cloud width / trap radius: 0 is the one-node rule
    q_prime_x0: float = 1.1165317838328295  # q' * r0, read when sigma_y_over_x0 > 0

    def __post_init__(self) -> None:
        check_saturation_choice(self.which_cavity, self.model, self.sigma_y_over_x0)
        if not 0.0 <= self.g0 < math.inf:       # solve_saturation needs g0 > 0
            raise ValueError(f"g0={self.g0!r} must be non-negative and finite")
        _check_atom_sum(self.N_eff, self.A_mf, self.q_prime_x0)
        linear_response.increasing_grid(
            self.power_grid, "power_grid must be finite, positive and strictly increasing", lo=0.0)


class SaturationPoint(NamedTuple):
    P_in: float                 # input power, W
    transmission: float
    n_roots: int
    branch: str = "low"         # "high" once the up-sweep has passed a bistable window


@dataclass(frozen=True)
class SaturationCurve:
    points: list[SaturationPoint]
    n_sat: float


def saturation_photon_number(g0: float, rates: DerivedRates) -> float:
    """n_sat = gamma_perp * gamma_par / (4 g0^2), which must come out positive and finite."""
    if not rates.gamma_par > 0.0:       # then n_sat is 0 for any g0
        raise ValueError(f"gamma_par={rates.gamma_par!r} rad/s must be positive for a positive n_sat")
    try:
        n_sat = rates.gamma_perp * rates.gamma_par / (4.0 * g0**2) if g0 > 0.0 else 0.0
    except (ZeroDivisionError, OverflowError):      # g0^2 underflows to 0, or overflows
        n_sat = 0.0
    if not 0.0 < n_sat < math.inf:
        raise ValueError("g0 must be positive, and with gamma_perp and gamma_par give a positive, "
                         f"finite n_sat = gamma_perp*gamma_par/(4 g0^2): g0={g0!r} rad/s")
    return n_sat


def _per_unit_field(A_mf: float, x2, s: np.ndarray, w: np.ndarray, slope: bool = False):
    """The atom sum per atom P: 2/((1+A)*x2) times the saturated fraction u/(p + sqrt(p)) at
    couplings s summed with weights w, s @ w at x2 = 0; xs = x2*s is clamped at 1e100 (the fraction
    is 1.0 in floats from ~1e33 on).  With slope, the pair (P, dQ/dx) for Q(x) = x*P(x^2):
    dQ/dx = 2/((1+A)*x2) * sum w*(xs*p'/p^1.5 - fraction), p' = dp/dxs.  A pass allocates xs, u and
    sqrt(p), then writes the fraction and slope rows of one (2, n, k) array in place for one matmul
    with w; each float is formed as in tests/references.py, and only x2 <= 0 or NaN is fixed up."""
    x2 = np.asarray(x2, dtype=float)
    xs = np.minimum(t := x2[..., np.newaxis] * s, 1e100, out=t)     # u, p*sqrt(p) finite
    u = np.multiply(xs, A_mf)
    np.multiply(np.add(u, 1.0 + A_mf, out=u), xs, out=u)       # u = p - 1
    root = np.sqrt(p := u + 1.0, out=p)
    rows = np.empty((1 + slope, *xs.shape))
    fraction = np.add(root, 1.0, out=rows[0])
    np.divide(u, np.add(fraction, u, out=fraction), out=fraction)
    if slope:       # a clamped node adds exactly -fraction: its true xs*p'/p^1.5 is ~1e-50 or less
        term = np.multiply(xs, 2.0 * A_mf, out=rows[1])
        np.multiply(np.add(term, 1.0 + A_mf, out=term), xs, out=term)     # xs*p'
        term /= np.multiply(np.add(u, 1.0, out=u), root, out=u)         # over p*sqrt(p)
        term -= fraction
    out = rows @ w if slope else fraction @ w
    if holds(x2 > 0.0):     # every scan node and root
        out *= 2.0 / (1.0 + A_mf) / x2
    else:       # the others divide by 1, x2 + False is x2, and x2 = 0 reads s @ w: dQ/dx = P at x = 0
        zero = ~(x2 > 0.0)
        out = np.where(zero, s @ w, 2.0 / (1.0 + A_mf) / (x2 + zero) * out)
    return out if out.ndim else float(out)


@functools.cache
def _gauss_hermite():
    """The 96-node Gauss-Hermite rule folded onto its positive nodes, weights doubled and
    over sqrt(pi), less the 21 weighted below 1e-18 of the largest: 27 nodes remain."""
    u, w = np.polynomial.hermite.hermgauss(96)
    keep = (u > 0.0) & (w >= 1e-18 * w.max())
    return u[keep], 2.0 / math.sqrt(math.pi) * w[keep]


def _cloud_rule(sigma_y_over_x0: float, q_prime_x0: float):
    """Relative couplings s of a Gaussian cloud and their weights: one node at zero width."""
    if sigma_y_over_x0 == 0.0:
        return _ONE_NODE
    u, w = _gauss_hermite()
    ratio2 = (sigma_y_over_x0 * u) ** 2
    return np.exp(-2.0 * q_prime_x0 * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5, w


_ONE_NODE = (np.ones(1), np.ones(1))      # every atom samples the trap-minimum field
_UNIT_SCAN = np.geomspace(1e-4, 1e3, 400)   # the scan nodes of |X| over sqrt(n_sat)


def quadrature_saturation_term(N_eff: float, A_mf: float, sigma_y_over_x0: float, q_prime_x0: float,
                               X_abs2) -> float:
    """The atom sum N_eff * P(X_abs2) over a Gaussian cloud, its inputs checked as SaturationConfig
    does.  At sigma_y_over_x0 = 0 every atom samples the trap-minimum field, the rule has one node,
    and the term is the collective one, falling from N_eff at zero field to 2*N_eff/((1+A)*X_abs2)
    at strong saturation, whatever q_prime_x0."""
    check_cloud_width(sigma_y_over_x0)
    _check_atom_sum(N_eff, A_mf, q_prime_x0, X_abs2)
    return N_eff * _per_unit_field(A_mf, X_abs2, *_cloud_rule(sigma_y_over_x0, q_prime_x0))


def scaled_drive_from_power(P_in, rates: DerivedRates, n_sat: float, lambda_probe: float) -> float:
    """Invert P_in = y^2 * (2*pi*hbar*c/lambda) * kappa_1p^2/(2*kappa_1l) * n_sat.

    Accepts a scalar power (returns a float) or an array of powers.
    """
    photon_energy = 2.0 * math.pi * HBAR * C_VACUUM / lambda_probe
    scale = photon_energy * rates.kappa_1p**2 / (2.0 * rates.kappa_1l) * n_sat
    y = np.sqrt(np.asarray(P_in, dtype=float) / scale)
    return y if y.ndim else float(y)


def _response_function(cfg: SaturationConfig, rates: DerivedRates):
    """Return (h, f0, f1): y = h(x) = x*F(x^2) at scaled amplitudes x, h(x, slope=True) the stacked
    pair (h, dh/dx), and F without atoms and with N_eff unsaturated ones, 1/(kappa_1p*|a_k|) of a
    unit drive at zero detuning.  The empty chain has T = 1, so T = (f0*x/y)^2."""
    s, w = _cloud_rule(cfg.sigma_y_over_x0, cfg.q_prime_x0)

    def f(g1_sq, g2_sq):    # damping checked first; |a_1| = m/Delta, |a_2| = v1*v2/Delta
        det, m = linear_response._resonant_det(rates, g1_sq, g2_sq)
        return det / (rates.kappa_1p * (m if cfg.which_cavity == 1 else rates.v1 * rates.v2))

    g_sq = cfg.g0 * cfg.g0 * cfg.N_eff
    f0, f1 = f(0.0, 0.0), f(g_sq, 0.0) if cfg.which_cavity == 1 else f(0.0, g_sq)

    def h(x, slope=False):
        F = _per_unit_field(cfg.A_mf, x * x, s, w, slope)
        F *= f1 - f0
        F += f0
        if slope:
            F[0] *= x       # and F[1] = f0 + (f1 - f0)*dQ/dx is dh/dx
        return F if slope else x * F

    return h, f0, f1


def _brackets(h: np.ndarray, y: np.ndarray):
    """(drive, cell) pairs with min(h[cell], h[cell + 1]) <= y[drive] < max(h[cell], h[cell + 1]),
    a sign change of h > y, drive by drive and up in cell; a cell with a NaN end brackets
    nothing.  y must be non-decreasing: then each cell's drives are one np.searchsorted range."""
    first = np.searchsorted(y, np.minimum(h[:-1], h[1:]))      # a NaN end sorts both past y
    count = np.searchsorted(y, np.maximum(h[:-1], h[1:])) - first
    cell = np.repeat(np.arange(count.size), count)
    drive = np.arange(cell.size) + (first - np.cumsum(count) + count)[cell]
    order = np.argsort(drive, kind="stable")
    return drive[order], cell[order]


def _scan_grid(n_sat: float) -> np.ndarray:
    return math.sqrt(n_sat) * _UNIT_SCAN


def _find_roots(h, y: np.ndarray, n_sat: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Sorted positive roots of h(x) = y for every drive of the non-decreasing y at once,
    drive by drive in one flat array, each drive's number of roots, and the upper node of
    the first falling scan cell (inf when the scan never falls).

    h does not depend on the drive, so one 400-point log scan over the fixed bracket
    [1e-4, 1e3]*sqrt(n_sat) serves all drives; _brackets finds their cells by sorted search,
    and a root on a scan node is that node exactly.  h rises overall, so an even count leaves
    a root beyond the scan: RuntimeError, as for none, and a zero count is named first.  Each
    root starts at the log-log interpolation of its cell and takes Newton steps (exact slope,
    same h call), bisecting when a step leaves the cell shrunk by the sign of h - y, until
    |h - y| <= 2**-50*y or a Newton step <= 1e-14*x: about 4 passes, and RuntimeError if 60
    do not do it.
    """
    grid = _scan_grid(n_sat)
    hn = h(grid)
    drive, cell = _brackets(hn, y)
    per_drive = np.bincount(drive, minlength=y.size)
    if not (per_drive % 2).all():
        raise RuntimeError("saturation root bracketing failed: " + (
            "no sign change up to |X| = 1e3*sqrt(n_sat)" if per_drive.min() == 0 else
            "an even number of sign changes up to |X| = 1e3*sqrt(n_sat) leaves a root beyond the scan"))
    yd, a, b, ha, hb = y[drive], grid[cell], grid[cell + 1], hn[cell], hn[cell + 1]
    rising, tol, done = hb > ha, 2.0**-50 * yd, np.zeros(yd.size, dtype=bool)
    below, above = np.where(rising, a, b), np.where(rising, b, a)     # ends with h < y, h > y
    with np.errstate(divide="ignore", invalid="ignore"):    # a flat or NaN slope bisects
        # log-log interpolation; a node root is h(a) = y in a rising cell, h(b) = y in a falling one
        x = np.where(hb == yd, b, a * (b / a) ** (np.log(yd / ha) / np.log(hb / ha)))
        for _ in range(60):     # bisection alone narrows a 4% cell to adjacent floats in 48
            r, slope = h(x, slope=True)
            r -= yd
            small, high = done | (np.abs(r) <= tol), r > 0.0
            below, above = np.where(high, below, x), np.where(high, x, above)
            new = x - r / slope
            newton = ~done & ((new - below) * (new - above) < 0.0)      # inside the bracket
            done = small | newton & (np.abs(new - x) <= 1e-14 * x)
            x = np.where(newton, new, np.where(small, x, 0.5 * (below + above)))
            if done.all():
                break
        else:
            raise RuntimeError("saturation root refinement did not converge in 60 passes")
    falling = hn[1:] < hn[:-1]
    return x, per_drive, grid[falling.argmax() + 1] if falling.any() else math.inf


def solve_saturation(
    cfg: SaturationConfig, rates: DerivedRates, lambda_probe: float = PhysicalConfig.lambda_probe
) -> SaturationCurve:
    """Transmission vs input power on the up-sweep: each power's lowest root, on the "high"
    branch once a falling scan cell lies below it (it is never on the middle branch)."""
    h, f0, _ = _response_function(cfg, rates)      # first, to name undamped atoms
    n_sat = saturation_photon_number(cfg.g0, rates)
    powers = np.asarray(cfg.power_grid, dtype=float)
    drives = scaled_drive_from_power(powers, rates, n_sat, lambda_probe)
    roots, n_roots, turn = _find_roots(h, drives, n_sat)
    lowest = roots[np.cumsum(n_roots) - n_roots]
    T = f0 * f0 * np.square(lowest) / drives**2
    branch = ["high" if x >= turn else "low" for x in lowest.tolist()]
    points = list(map(SaturationPoint, powers.tolist(), T.tolist(), n_roots.tolist(), branch))
    return SaturationCurve(points=points, n_sat=n_sat)
