"""Weak-drive steady state of the three-mode, two-ensemble chain.

Folding each ensemble into its cavity, c_k = kappa_kp + i*delta_c + g_k^2/(gamma_perp + i*delta_a),
leaves a 3x3 system on (a1, a2, b) with determinant Delta = c1*m + v1^2*c2, m = kappa_b'*c2 + v2^2
and kappa_b' = kappa_b + i*delta_c.  Cramer's rule gives every amplitude over Delta: a1 = -iE*m/Delta,
a2 = iE*v1*v2/Delta, b = -E*v1*c2/Delta and s_k = -i*g_k*a_k/(gamma_perp + i*delta_a).  One core
evaluates Delta, c2 and m as complex arrays, in place; steady_state builds the amplitudes from them,
for one probe or for stacked probes, couplings and rates alike.  At zero detuning Delta and m are
real, a Python-float closed form that saturation reads with atoms in; both spectra are normalized by
its empty-chain |Delta_0|^2: the drive and kappa_2r cancel, so a point costs one division,
T = |Delta_0|^2/|Delta|^2, and T = 0 when kappa_2r*v1*v2 == 0.
transmission_spectrum and normal_modes.reduced_spectrum share one evaluator on a required grid:
one grid check, one norm, and 4096-point blocks written into one output, with the floats of one
whole-grid call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DerivedRates, holds

#: |Delta|^2 below which the steady state is treated as singular.
SINGULAR_FLOOR = 1e-300
_SINGULAR = "steady state is singular: |Delta| underflowed"
#: Spectrum block: each 4096-float buffer (32 KiB) stays below glibc's 128 KiB mmap threshold.
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
            if not holds(abs(getattr(self, name)) < np.inf):
                raise ValueError(f"{name} must be finite")
        if not (holds(self.drive_E1 >= 0.0) and holds(self.drive_E1 < np.inf)):     # NaN fails too
            raise ValueError("drive_E1 must be non-negative and finite (global phase convention)")


@dataclass(frozen=True)
class SteadyStateAmplitudes:
    """np.complex128 (a complex) each, or arrays of them when steady_state's inputs are stacked."""

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


def _check_couplings(g1, g2) -> None:
    """The coupling rule of the Delta core and of normal_modes.decompose, elementwise over arrays."""
    if not (holds(g1 >= 0.0) and holds(g1 < np.inf) and holds(g2 >= 0.0) and holds(g2 < np.inf)):
        raise ValueError("coupling strengths g1, g2 must be non-negative and finite")


def _delta_parts(rates: DerivedRates, dc, da, g1, g2):
    """(|Delta|^2, Delta, c2, m) in complex arithmetic, each step in place in one of four complex
    buffers and |Delta|^2 in its own; dc, da, g1, g2 and the rates may be arrays."""
    _check_couplings(g1, g2)
    _check_damped(rates, dc, da)
    shape = np.broadcast(dc, da, g1, g2, rates.gamma_perp, rates.kappa_b, rates.v1, rates.v2,
                         rates.kappa_1p, rates.kappa_2p).shape
    kb, c1, c2, m = (np.empty(shape, complex) for _ in range(4))
    with np.errstate(all="ignore"):     # inf and NaN are judged below, with no numpy warning
        kb[...], c1[...] = dc, da           # cast in place: a ufunc's cast would allocate a buffer
        kb *= 1j                            # i*dc, and kappa_b' = kappa_b + i*dc below
        np.divide(1.0, np.add(np.multiply(c1, 1j, out=c1), rates.gamma_perp, out=c1), out=c1)   # 1/gp
        for c, g, kappa in ((c2, g2, rates.kappa_2p), (c1, g1, rates.kappa_1p)):    # c1 holds 1/gp till last
            np.add(np.multiply(c1, g * g, out=c), kb, out=c)        # c_k = kappa_kp + i*dc + g_k^2/gp
            c += kappa
        kb += rates.kappa_b
        np.add(np.multiply(kb, c2, out=m), rates.v2**2, out=m)
        np.add(np.multiply(c1, m, out=c1), np.multiply(c2, rates.v1**2, out=kb), out=c1)    # Delta
        det_sq = np.square(c1.real)
        det_sq += np.square(c1.imag, out=kb.real)
    if not (det_sq >= SINGULAR_FLOOR).all():        # NaN fails too: Delta overflowed, inf - inf
        raise RuntimeError(_SINGULAR if np.any(det_sq < SINGULAR_FLOOR) else
                           "|Delta| overflowed to NaN: the detunings or couplings are too large")
    return det_sq, c1, c2, m


def steady_state(rates: DerivedRates, probe: ProbeSettings, g1: float, g2: float) -> SteadyStateAmplitudes:
    """Steady-state field and coherence amplitudes by Cramer's rule from Delta, c2 and m.  The probe
    fields, the couplings and the rates may be stacked arrays, which broadcast as in _delta_parts."""
    _, det, c2, m = _delta_parts(rates, probe.delta_c, probe.delta_a, g1, g2)
    if not (np.isfinite(det).all() and np.isfinite(c2).all() and np.isfinite(m).all()):   # inf/inf, 0*inf
        raise RuntimeError("Delta, c2 or m overflowed: the amplitudes are not finite")
    e = probe.drive_E1 / det
    a1 = -1j * e * m
    a2 = 1j * e * rates.v1 * rates.v2
    gp = rates.gamma_perp + 1j * probe.delta_a
    return SteadyStateAmplitudes(a1, a2, -e * rates.v1 * c2, -1j * g1 * a1 / gp, -1j * g2 * a2 / gp)


def _resonant_det(rates: DerivedRates, g1_sq: float = 0.0, g2_sq: float = 0.0) -> tuple[float, float]:
    """(Delta, m) at zero detuning in Python floats, with g_k^2/gamma_perp folded into c_k; at g = 0 in
    _delta_parts' float operations, all real there.  Damping is checked first, and |Delta|^2 as there."""
    _check_damped(rates, 0.0, 0.0)
    m = rates.kappa_b * (c2 := rates.kappa_2p + g2_sq / rates.gamma_perp) + rates.v2**2
    det = (rates.kappa_1p + g1_sq / rates.gamma_perp) * m + c2 * rates.v1**2
    if det * det < SINGULAR_FLOOR:
        raise RuntimeError(_SINGULAR)
    return det, m


def _empty_chain_norm(rates: DerivedRates) -> float:
    """The norm of both spectra, |Delta_0|^2, so T is exactly 1 there; 0 when kappa_2r*v1*v2 == 0."""
    det0 = _resonant_det(rates)[0]
    norm = det0 * det0 if rates.kappa_2r * rates.v1 * rates.v2 != 0.0 else 0.0
    if not norm < np.inf:
        raise RuntimeError(f"the empty-chain norm |Delta_0|^2 overflowed: Delta_0 = {det0!r}")
    return norm


def increasing_grid(values, message: str, lo: float = -np.inf) -> np.ndarray:
    """values as a float array when they form a nonempty, strictly increasing 1-d grid above lo
    and below inf, else ValueError(message).  Neighbours are compared, not differenced, so no
    float temporary and no overflow: NaN fails every comparison, and the grid lies within its ends."""
    grid = np.asarray(values, dtype=float)
    if not (grid.ndim == 1 and grid.size and (grid[1:] > grid[:-1]).all()
            and lo < grid[0] and grid[-1] < np.inf):
        raise ValueError(message)
    return grid


def _spectrum(rates: DerivedRates, grid, kernel) -> SpectrumResult:
    """The spectrum kernel(norm, block) over grid, _BLOCK points at a time written into one output
    along its last axis, with norm = _empty_chain_norm(rates); rejects grids as increasing_grid."""
    grid = increasing_grid(grid, "detuning grid must be finite, nonempty and strictly increasing")
    norm = _empty_chain_norm(rates)
    out = kernel(norm, grid[:_BLOCK])
    if grid.size > _BLOCK:
        first, out = out, np.empty(out.shape[:-1] + grid.shape)
        out[..., :_BLOCK] = first
        for i in range(_BLOCK, grid.size, _BLOCK):
            out[..., i:i + _BLOCK] = kernel(norm, grid[i:i + _BLOCK])
    return SpectrumResult(grid, out)


def transmission_spectrum(rates: DerivedRates, g1: float, g2: float, delta_c_offset: float = 0.0, *,
                          grid: np.ndarray) -> SpectrumResult:
    """Normalized transmission vs atom-probe detuning on grid (rad/s, strictly increasing).

    The sweep varies delta_a and delta_c together (the cavities track the atomic resonance);
    delta_c_offset = omega_c - omega_a shifts the cavity ladder relative to the atoms.  The output
    flux over the on-resonance empty-chain flux is |Delta_0|^2/|Delta|^2 at any drive; it is zero
    when kappa_2r*v1*v2 == 0.  The grid is required (the CLI's [probe] section holds the default);
    couplings stacked as (k, 1) columns give k spectra, one row each."""
    if not abs(delta_c_offset) < np.inf:       # NaN fails too
        raise ValueError("delta_c_offset must be finite")

    def transmission_at(det0_sq, d):
        det_sq = _delta_parts(rates, d if delta_c_offset == 0.0 else d + delta_c_offset, d, g1, g2)[0]
        return np.divide(det0_sq, det_sq, out=det_sq)

    return _spectrum(rates, grid, transmission_at)
