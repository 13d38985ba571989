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

from .params import DerivedRates
from .linear_response import SpectrumResult, _spectrum


@dataclass(frozen=True)
class NormalModeSummary:
    v_tilde: float              # rms cavity-fiber coupling, rad/s
    gd1: float                  # dark-mode coupling to ensemble 1, rad/s
    gd2: float                  # dark-mode coupling to ensemble 2, rad/s
    kappa_d: float              # dark-mode decay, rad/s (no laser linewidth)
    kappa_plus: float           # decay of both bright modes, rad/s
    rabi_splitting: float       # half-splitting of the dark-mode doublet, rad/s; 0 unresolved
    mode_vectors: np.ndarray    # rows (d, c+, c-) on the basis (a1, a2, b)

    @property
    def splitting_bright(self) -> float:    # sqrt(2)*v_tilde, rad/s
        return math.sqrt(2.0) * self.v_tilde

    @property
    def resolved(self) -> bool:     # False when the Rabi radicand is not positive
        return self.rabi_splitting > 0.0


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
    if not all(map(math.isfinite, (v_tilde, kappa_d, kappa_pm))):     # Python floats overflow silently
        raise RuntimeError(f"overflow: v_tilde={v_tilde!r}, kappa_d={kappa_d!r}, kappa_plus={kappa_pm!r} rad/s")

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
    rabi = math.sqrt(radicand) if radicand > 0.0 else 0.0     # so resolved is rabi > 0

    return NormalModeSummary(
        v_tilde=v_tilde,
        gd1=gd1,
        gd2=gd2,
        kappa_d=kappa_d,
        kappa_plus=kappa_pm,
        rabi_splitting=rabi,
        mode_vectors=mode_vectors,
    )


def reduced_spectrum(summary: NormalModeSummary, rates: DerivedRates, grid: np.ndarray) -> SpectrumResult:
    """Transmission of the single-mode reduced model (dark mode + two ensembles) on grid.

    The dark mode, damped at k = kappa_d + gamma_las, is driven with the projected unit amplitude
    v2/(sqrt(2)*v_tilde) and read out through its cavity-2 weight v1/(sqrt(2)*v_tilde), so
    |a2|^2 = (v1*v2/(2*v_tilde^2))^2 |gamma_perp + i*delta|^2 / |D|^2 with D = (k + i*delta)(gamma_perp
    + i*delta) + gd1^2 + gd2^2.  Normalization matches the full model: the on-resonance empty-cavity
    flux of the full chain, and zero when kappa_2r*v1*v2 == 0.  The grid is required and goes through
    the evaluator of transmission_spectrum, with the same checks, norm and blocks; past overflow, 0.
    """
    k, gp = summary.kappa_d + rates.gamma_las, rates.gamma_perp

    def transmission_at(det0_sq, delta):
        # det0_sq / s2v^4 * (gp^2 + delta^2) / |D|^2 in place, D = (k*gp + gd^2 - delta^2) + i*delta*(k + gp):
        # over the norm, (v1*v2)^2 cancels and |Delta_0|^2 / (2*v_tilde^2)^2 remains
        with np.errstate(all="ignore"):     # from |delta| ~ 1e77 the parts overflow: no numpy warning
            d2 = delta * delta
            den_sq = np.subtract(k * gp + summary.gd1**2 + summary.gd2**2, d2)
            den_sq *= den_sq
            den_sq += d2 * (k + gp) ** 2
            np.add(d2, gp * gp, out=d2)
            d2 *= det0_sq / np.float64(summary.splitting_bright) ** 4
            return np.fmax(np.divide(d2, den_sq, out=d2), 0.0, out=d2)     # a NaN of overflowed parts reads 0

    return _spectrum(rates, grid, transmission_at)


def peak_find(spec: SpectrumResult) -> list[tuple[float, float]]:
    """Local maxima as (detuning, height) pairs of Python floats, ordered by detuning: samples or
    plateaus of equal samples, lower on both sides (not at a grid end, so a flat spectrum gives []).
    A sample, or a plateau of two, is refined by the parabola through three samples, whose vertex lies
    midway in a plateau of two; a longer plateau is reported at its centre, at its height."""
    x, y = np.asarray(spec.detunings, dtype=float), np.asarray(spec.transmission, dtype=float)
    if y.ndim != 1 or y.shape != x.shape:   # a stacked (k, n) spectrum would compare rows
        raise ValueError(f"peak_find: transmission of shape {y.shape} is not the detunings' 1-d {x.shape}")
    peaks = []
    # one vectorised pass finds every rise that does not go on: a maximum or a plateau's start
    for i in (np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1).tolist():
        left, mid, right = y[i - 1:i + 2].tolist()
        j = i + 1                   # then the first sample past the plateau
        while y.item(j) == mid and j + 1 < y.size:
            j += 1
        if not y.item(j) < mid:     # the plateau rises again, or reaches the grid's end
            continue
        if j > i + 2:
            peaks.append((0.5 * (x.item(i) + x.item(j - 1)), mid))
            continue
        shift = 0.5 * (left - right) / denom if (denom := left - 2.0 * mid + right) != 0.0 else 0.0
        peaks.append((x.item(i) + shift * (x.item(i + 1) - x.item(i)), mid - 0.25 * (left - right) * shift))
    return peaks
