"""Weak-drive steady state of the three-mode, two-ensemble chain.

The closed-form solution eliminates the fiber mode and the atomic
coherences, leaving the cavity-2 amplitude as a ratio of two complex
factors; the remaining amplitudes follow by back-substitution.  All
expressions broadcast over numpy arrays of detunings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TWO_PI, DerivedRates

#: Denominator magnitude below which the steady state is treated as singular.
SINGULAR_FLOOR = 1e-300


@dataclass(frozen=True)
class ProbeSettings:
    delta_c: float = 0.0        # cavity-probe detuning, rad/s
    delta_a: float = 0.0        # atom-probe detuning, rad/s
    drive_E1: float = 1.0       # probe drive amplitude into cavity 1 (real, >= 0)

    def validate(self) -> None:
        if self.drive_E1 < 0.0:
            raise ValueError("drive_E1 must be non-negative (global phase convention)")


@dataclass(frozen=True)
class SteadyStateAmplitudes:
    a1: complex
    a2: complex
    b: complex
    s1: complex
    s2: complex


@dataclass(frozen=True)
class SpectrumResult:
    detunings: np.ndarray           # rad/s, strictly increasing
    transmission: np.ndarray        # normalized output flux
    normalization_flux: float       # on-resonance empty-cavity flux (photons/s)


def default_grid(span: float = TWO_PI * 30e6, points: int = 601) -> np.ndarray:
    """Symmetric detuning grid covering [-span, +span] in rad/s."""
    return np.linspace(-span, span, points)


def _amplitudes(rates: DerivedRates, dc, da, drive, g1: float, g2: float):
    """Closed-form amplitudes; dc, da, g1 and g2 may be scalars or arrays."""
    dc = np.asarray(dc, dtype=float)
    da = np.asarray(da, dtype=float)
    # an undamped fiber mode or atom has no steady state on its own resonance
    if rates.kappa_b == 0.0 and np.any(dc == 0.0):
        raise ValueError("alphaf = 0 with gamma_las = 0 leaves the fiber mode undamped: "
                         "no steady state at zero cavity detuning")
    if rates.gamma_perp == 0.0 and np.any(da == 0.0):
        raise ValueError("gamma_par = 0 with gamma_las = 0 leaves the atoms undamped: "
                         "no steady state at zero atom detuning")

    kb = rates.kappa_b + 1j * dc
    gp = rates.gamma_perp + 1j * da
    # effective cavity-1 response with atom 1 and the fiber folded in
    d1 = rates.kappa_1p + 1j * dc + g1**2 / gp + rates.v1**2 / kb

    a_num = -1j * drive * (rates.v2 / kb) * rates.v1 / d1
    b_den = (
        -(rates.kappa_2p + 1j * dc)
        - rates.v2**2 / kb
        - g2**2 / gp
        + (rates.v1 * rates.v2) ** 2 / kb**2 / d1
    )
    if np.any(np.abs(b_den) < SINGULAR_FLOOR):
        raise RuntimeError("steady state is singular: |B| underflowed")

    a2 = a_num / b_den
    a1 = -(1j * drive + rates.v1 * rates.v2 / kb * a2) / d1
    b = (-1j * rates.v1 * a1 - 1j * rates.v2 * a2) / kb
    s1 = -1j * g1 * a1 / gp
    s2 = -1j * g2 * a2 / gp
    return a1, a2, b, s1, s2


def steady_state(
    rates: DerivedRates, probe: ProbeSettings, g1: float, g2: float
) -> SteadyStateAmplitudes:
    """Steady-state field and coherence amplitudes at one probe detuning."""
    probe.validate()
    if g1 < 0.0 or g2 < 0.0:
        raise ValueError("coupling strengths must be non-negative")
    a1, a2, b, s1, s2 = _amplitudes(
        rates, probe.delta_c, probe.delta_a, probe.drive_E1, g1, g2
    )
    return SteadyStateAmplitudes(
        a1=complex(a1), a2=complex(a2), b=complex(b), s1=complex(s1), s2=complex(s2)
    )


def stationarity_residual(
    amps: SteadyStateAmplitudes,
    rates: DerivedRates,
    probe: ProbeSettings,
    g1: float,
    g2: float,
) -> float:
    """Max residual of the five fixed-point equations, relative to the drive."""
    dc, da, e1 = probe.delta_c, probe.delta_a, probe.drive_E1
    r = [
        -(rates.kappa_1p + 1j * dc) * amps.a1
        - 1j * rates.v1 * amps.b
        - 1j * g1 * amps.s1
        - 1j * e1,
        -(rates.kappa_2p + 1j * dc) * amps.a2
        - 1j * rates.v2 * amps.b
        - 1j * g2 * amps.s2,
        -(rates.kappa_b + 1j * dc) * amps.b
        - 1j * rates.v1 * amps.a1
        - 1j * rates.v2 * amps.a2,
        -(rates.gamma_perp + 1j * da) * amps.s1 - 1j * g1 * amps.a1,
        -(rates.gamma_perp + 1j * da) * amps.s2 - 1j * g2 * amps.a2,
    ]
    scale = max(
        abs(e1),
        abs(amps.a1) * rates.kappa_1p,
        abs(amps.a2) * rates.kappa_2p,
        SINGULAR_FLOOR,
    )
    return max(abs(x) for x in r) / scale


def output_flux(amps: SteadyStateAmplitudes, rates: DerivedRates) -> float:
    """Photon flux leaving through the output mirror: 2*kappa_2r*|a2|^2."""
    return 2.0 * rates.kappa_2r * abs(amps.a2) ** 2


def _checked_grid(grid: np.ndarray | None) -> np.ndarray:
    """The default grid if none is given; reject empty or non-increasing grids."""
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("detuning grid must be nonempty and strictly increasing")
    return grid


def _empty_chain_flux(rates: DerivedRates, drive_E1: float) -> float:
    """On-resonance empty-chain output flux, the norm of both spectra; taken first, so a
    chain with no steady state raises the ValueError of _amplitudes before any division."""
    return output_flux(steady_state(rates, ProbeSettings(0.0, 0.0, drive_E1), 0.0, 0.0), rates)


def _normalized(flux: np.ndarray, norm: float) -> np.ndarray:
    """flux / norm; zeros when the output is decoupled (norm = 0: v2 = 0 or
    kappa_2r = 0), since then no light gets through at all."""
    if norm != 0.0:
        return flux / norm
    if np.any(flux != 0.0):
        raise RuntimeError("normalization flux is zero but the spectrum is not")
    return np.zeros_like(flux)


def transmission_spectrum(
    rates: DerivedRates,
    g1: float,
    g2: float,
    delta_c_offset: float = 0.0,
    grid: np.ndarray | None = None,
    drive_E1: float = 1.0,
) -> SpectrumResult:
    """Normalized transmission vs atom-probe detuning.

    The sweep varies delta_a and delta_c together (the cavities track the
    atomic resonance); delta_c_offset = omega_c - omega_a shifts the cavity
    ladder relative to the atoms.  The spectrum is normalized to the
    on-resonance empty-cavity output flux.
    """
    grid = _checked_grid(grid)
    norm = _empty_chain_flux(rates, drive_E1)
    _, a2, _, _, _ = _amplitudes(
        rates, grid + delta_c_offset, grid, drive_E1, g1, g2
    )
    transmission = _normalized(2.0 * rates.kappa_2r * np.abs(a2) ** 2, norm)
    return SpectrumResult(
        detunings=grid, transmission=transmission, normalization_flux=norm
    )
