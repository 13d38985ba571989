"""Weak-drive steady state of the three-mode, two-ensemble chain.

Folding each ensemble into its cavity, c_k = kappa_kp + i*delta_c +
g_k^2/(gamma_perp + i*delta_a), leaves a 3x3 system on (a1, a2, b) with
determinant Delta = kappa_b'*c1*c2 + v2^2*c1 + v1^2*c2, kappa_b' = kappa_b +
i*delta_c.  Cramer's rule gives every amplitude over Delta:
a1 = -iE(kappa_b'*c2 + v2^2)/Delta, a2 = iE*v1*v2/Delta, b = -E*v1*c2/Delta
and s_k = -i*g_k*a_k/(gamma_perp + i*delta_a).  Both spectra are normalized to
the empty chain on resonance, where Delta = Delta_0: the drive and kappa_2r
cancel, so a transmission point costs one division, T = |Delta_0|^2/|Delta|^2,
and T = 0 when kappa_2r*v1*v2 == 0.  All expressions broadcast over numpy arrays.
transmission_spectrum and normal_modes.reduced_spectrum share one evaluator on a required
grid: one grid check, one norm, and 4096-point blocks with the floats of one whole-grid call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DerivedRates

#: |Delta|^2 below which the steady state is treated as singular.
SINGULAR_FLOOR = 1e-300
#: Spectrum block: 4096 complex values (64 KiB) stay below glibc's 128 KiB mmap threshold.
_BLOCK = 4096


@dataclass(frozen=True)
class ProbeSettings:
    """One probe, or a stack of them: each field may be an array, checked elementwise when
    built (a float field compares to a plain bool, so it needs no numpy call)."""

    delta_c: float = 0.0        # cavity-probe detuning, rad/s
    delta_a: float = 0.0        # atom-probe detuning, rad/s
    drive_E1: float = 1.0       # probe drive amplitude into cavity 1 (real, >= 0)

    def __post_init__(self) -> None:
        for name in ("delta_c", "delta_a"):
            if (ok := abs(getattr(self, name)) < np.inf) is not True and not np.all(ok):
                raise ValueError(f"{name} must be finite")
        if (ok := self.drive_E1 >= 0.0) is not True and not np.all(ok):     # NaN fails too
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


def _check_damped(rates: DerivedRates, dc, da) -> None:
    """An undamped fiber mode or atom has no steady state on its own resonance; elementwise
    over stacked rates, and a float rate compares to a plain bool (no numpy call)."""
    if (zero := rates.kappa_b == 0.0) is not False and np.any(zero & (dc == 0.0)):
        raise ValueError("alphaf = 0 with gamma_las = 0 leaves the fiber mode undamped: "
                         "no steady state at zero cavity detuning")
    if (zero := rates.gamma_perp == 0.0) is not False and np.any(zero & (da == 0.0)):
        raise ValueError("gamma_par = 0 with gamma_las = 0 leaves the atoms undamped: "
                         "no steady state at zero atom detuning")


def _determinant(rates: DerivedRates, dc, da, g1, g2):
    """Delta = c1*m + v1^2*c2, |Delta|^2, gamma_perp + i*da, c2 and m = kappa_b'*c2 + v2^2;
    dc, da, g1 and g2 may be arrays, and m, Delta and |Delta|^2 have their full shape."""
    _check_damped(rates, dc, da)
    idc = 1j * dc
    gp = rates.gamma_perp + 1j * da
    # each cavity with its ensemble folded in
    c1 = rates.kappa_1p + idc + g1**2 / gp
    c2 = rates.kappa_2p + idc + g2**2 / gp
    m = (rates.kappa_b + idc) * c2
    m += rates.v2**2
    det = c1 * m
    det += rates.v1**2 * c2
    det_sq = det.real**2
    det_sq += det.imag**2
    if not np.all(det_sq >= SINGULAR_FLOOR):        # NaN fails too: Delta overflowed, inf - inf
        small = np.any(det_sq < SINGULAR_FLOOR)
        raise RuntimeError("steady state is singular: |Delta| underflowed" if small else
                           "|Delta| overflowed to NaN: the detunings or couplings are too large")
    return det, det_sq, gp, c2, m


def _amplitudes(rates: DerivedRates, dc, da, drive, g1: float, g2: float):
    """Closed-form amplitudes by Cramer's rule; dc, da, g1 and g2 may be scalars or arrays."""
    det, _, gp, c2, m = _determinant(rates, dc, da, g1, g2)
    e = drive / det
    a1 = -1j * e * m
    a2 = 1j * e * rates.v1 * rates.v2
    b = -e * rates.v1 * c2
    s1 = -1j * g1 * a1 / gp
    s2 = -1j * g2 * a2 / gp
    return a1, a2, b, s1, s2


def steady_state(rates: DerivedRates, probe: ProbeSettings, g1: float, g2: float) -> SteadyStateAmplitudes:
    """Steady-state field and coherence amplitudes at one probe detuning."""
    if g1 < 0.0 or g2 < 0.0:
        raise ValueError("coupling strengths must be non-negative")
    amps = _amplitudes(rates, probe.delta_c, probe.delta_a, probe.drive_E1, g1, g2)
    return SteadyStateAmplitudes(*map(complex, amps))


def _by_block(f, grid: np.ndarray) -> np.ndarray:
    """The elementwise kernel f over grid, one _BLOCK-point block at a time."""
    if grid.size <= _BLOCK:
        return f(grid)
    out = np.empty_like(grid)
    for i in range(0, grid.size, _BLOCK):
        out[i:i + _BLOCK] = f(grid[i:i + _BLOCK])
    return out


def _empty_chain_norm(rates: DerivedRates) -> float:
    """The norm of both spectra: _determinant's |Delta|^2 at zero detuning and coupling,
    so T is exactly 1 there, or 0 when no light reaches the output (kappa_2r*v1*v2 == 0)."""
    det0_sq = _determinant(rates, 0.0, 0.0, 0.0, 0.0)[1]
    return det0_sq if rates.kappa_2r * rates.v1 * rates.v2 != 0.0 else 0.0


def _spectrum(rates: DerivedRates, grid, kernel) -> SpectrumResult:
    """The spectrum kernel(norm, block) over grid, one _BLOCK-point block at a time, with
    norm = _empty_chain_norm(rates); rejects empty, non-finite or non-increasing grids."""
    grid = np.asarray(grid, dtype=float)
    # NaN fails every comparison, and an increasing grid is finite within finite ends
    if not (grid.size and (np.diff(grid) > 0.0).all() and -np.inf < grid[0] and grid[-1] < np.inf):
        raise ValueError("detuning grid must be finite, nonempty and strictly increasing")
    norm = _empty_chain_norm(rates)
    return SpectrumResult(grid, _by_block(lambda d: kernel(norm, d), grid))


def transmission_spectrum(rates: DerivedRates, g1: float, g2: float, delta_c_offset: float = 0.0, *,
                          grid: np.ndarray) -> SpectrumResult:
    """Normalized transmission vs atom-probe detuning on grid (rad/s, strictly increasing).

    The sweep varies delta_a and delta_c together (the cavities track the
    atomic resonance); delta_c_offset = omega_c - omega_a shifts the cavity
    ladder relative to the atoms.  The output flux over the on-resonance
    empty-chain flux is |Delta_0|^2/|Delta|^2 at any drive; it is zero when
    kappa_2r*v1*v2 == 0 (no light gets through at all).  The grid is required:
    the CLI's [probe] section holds the one default grid.
    """
    def transmission_at(det0_sq, d):
        det_sq = _determinant(rates, d + delta_c_offset, d, g1, g2)[1]
        return np.divide(det0_sq, det_sq, out=det_sq)

    return _spectrum(rates, grid, transmission_at)
