"""Normal-mode picture of the cavity-fiber-cavity chain.

The chain hybridizes into one mode with no weight on the connecting fiber
(frequency equal to the bare cavity frequency) and two bright modes shifted
by +/- sqrt(2)*v_tilde.  The fiber-dark mode couples to the two atomic
ensembles with strengths that are independent of the fiber length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linear_response
from .params import DerivedRates
from .linear_response import SpectrumResult


@dataclass(frozen=True)
class NormalModeSummary:
    v_tilde: float              # rms cavity-fiber coupling, rad/s
    gd1: float                  # dark-mode coupling to ensemble 1, rad/s
    gd2: float                  # dark-mode coupling to ensemble 2, rad/s
    kappa_d: float              # dark-mode decay, rad/s (no laser linewidth)
    kappa_plus: float           # decay of both bright modes, rad/s
    splitting_bright: float     # sqrt(2)*v_tilde, rad/s
    rabi_splitting: float       # half-splitting of the dark-mode doublet, rad/s
    resolved: bool              # False when the Rabi radicand is negative
    mode_vectors: np.ndarray    # rows (d, c+, c-) on the basis (a1, a2, b)

    @property
    def kappa_minus(self) -> float:
        return self.kappa_plus


def decompose(rates: DerivedRates, g1: float, g2: float) -> NormalModeSummary:
    """Normal-mode summary for given cavity-fiber rates and couplings."""
    v1, v2 = rates.v1, rates.v2
    if v1 == 0.0 and v2 == 0.0:
        raise ValueError("degenerate input: v1 = v2 = 0 leaves no fiber coupling")

    v_tilde = math.sqrt(0.5 * (v1**2 + v2**2))
    s2v = math.sqrt(2.0) * v_tilde

    gd1 = v2 / s2v * g1
    gd2 = v1 / s2v * g2

    two_vt2 = 2.0 * v_tilde**2
    kappa_d = (v2**2 * rates.kappa_1 + v1**2 * rates.kappa_2) / two_vt2
    kappa_pm = 0.5 * (
        rates.kappa_bloss
        + (v1**2 * rates.kappa_1 + v2**2 * rates.kappa_2) / two_vt2
    )

    # The dark row carries a relative sign between the cavities so that the
    # three rows form an orthogonal matrix; coupling magnitudes are unaffected.
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    mode_vectors = np.array(
        [
            [v2 / s2v, -v1 / s2v, 0.0],
            [v1 / (2.0 * v_tilde), v2 / (2.0 * v_tilde), inv_sqrt2],
            [v1 / (2.0 * v_tilde), v2 / (2.0 * v_tilde), -inv_sqrt2],
        ]
    )

    radicand = gd1**2 + gd2**2 - 0.25 * (kappa_d - rates.gamma_perp) ** 2
    resolved = radicand > 0.0
    rabi = math.sqrt(radicand) if resolved else 0.0

    return NormalModeSummary(
        v_tilde=v_tilde,
        gd1=gd1,
        gd2=gd2,
        kappa_d=kappa_d,
        kappa_plus=kappa_pm,
        splitting_bright=s2v,
        rabi_splitting=rabi,
        resolved=resolved,
        mode_vectors=mode_vectors,
    )


def reduced_spectrum(
    summary: NormalModeSummary,
    rates: DerivedRates,
    grid: np.ndarray | None = None,
) -> SpectrumResult:
    """Transmission of the single-mode reduced model (dark mode + two ensembles).

    The dark mode, damped at kappa_d plus the laser linewidth, is driven with
    the projected unit amplitude v2/(sqrt(2)*v_tilde) and read out through its
    cavity-2 weight.  Normalization matches the full model: the on-resonance
    empty-cavity flux of the full three-mode chain.
    """
    grid = linear_response._checked_grid(grid)

    s2v = summary.splitting_bright
    gp = rates.gamma_perp + 1j * grid
    d = -1j * (rates.v2 / s2v) / (
        summary.kappa_d + rates.gamma_las + 1j * grid
        + (summary.gd1**2 + summary.gd2**2) / gp
    )

    # cavity-2 weight of the dark mode
    a2 = rates.v1 / s2v * d
    flux = 2.0 * rates.kappa_2r * np.abs(a2) ** 2

    transmission, norm = linear_response._normalized(flux, rates, 1.0)
    return SpectrumResult(detunings=grid, transmission=transmission, normalization_flux=norm)


def peak_find(spec: SpectrumResult) -> list[tuple[float, float]]:
    """Local maxima of a spectrum with parabolic sub-grid refinement.

    Returns (detuning, height) pairs ordered by detuning; monotone or flat
    spectra yield an empty list.
    """
    x = np.asarray(spec.detunings, dtype=float)
    y = np.asarray(spec.transmission, dtype=float)
    i = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
    left, mid, right = y[i - 1], y[i], y[i + 1]
    denom = left - 2.0 * mid + right
    shift = np.divide(
        0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0.0
    )
    pos = x[i] + shift * (x[i + 1] - x[i])
    height = mid - 0.25 * (left - right) * shift
    return list(zip(pos, height))
