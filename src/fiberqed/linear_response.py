"""Weak-drive steady state of the three-mode, two-ensemble chain.

Folding each ensemble into its cavity, c_k = kappa_kp + i*delta_c + g_k^2/(gamma_perp + i*delta_a),
leaves a 3x3 system on (a1, a2, b) with determinant Delta = c1*m + v1^2*c2, m = kappa_b'*c2 + v2^2
and kappa_b' = kappa_b + i*delta_c.  Cramer's rule gives every amplitude over Delta: a1 = -iE*m/Delta,
a2 = iE*v1*v2/Delta, b = -E*v1*c2/Delta and s_k = -i*g_k*a_k/(gamma_perp + i*delta_a).  One core
evaluates Delta in real arithmetic and in place; steady_state builds the amplitudes from its parts,
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
        if not holds(self.drive_E1 >= 0.0):     # NaN fails too
            raise ValueError("drive_E1 must be non-negative (global phase convention)")


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


def _delta_parts(rates: DerivedRates, dc, da, g1, g2):
    """|Delta|^2 and the (real, imaginary) parts of Delta, c2 and m = kappa_b'*c2 + v2^2, in real
    arithmetic: (ac - bd, ad + bc) for each complex product, 1/gp = (gamma_perp, -da)/|gp|^2.  dc,
    da, g1, g2 and the rates may be arrays, and every step writes into one of eight buffers."""
    _check_damped(rates, dc, da)
    gp, kb, v1, v2 = rates.gamma_perp, rates.kappa_b, rates.v1, rates.v2
    shape = np.broadcast(dc, da, g1, g2, gp, kb, v1, v2, rates.kappa_1p, rates.kappa_2p).shape
    c1r, c1i, c2r, c2i, mr, mi, t, det_sq = map(np.empty, [shape] * 8)
    with np.errstate(all="ignore"):     # inf and NaN are judged below, with no numpy warning
        np.divide(1.0, np.add(np.multiply(da, da, out=t), gp * gp, out=t), out=t)
        np.multiply(t, gp, out=c1r)     # Re 1/gp
        np.multiply(t, da, out=c1i)     # -Im 1/gp
        # each cavity with its ensemble folded in: c_k = kappa_kp + i*dc + g_k^2/gp
        np.add(np.multiply(c1r, g2 * g2, out=c2r), rates.kappa_2p, out=c2r)
        np.subtract(dc, np.multiply(c1i, g2 * g2, out=c2i), out=c2i)
        np.add(np.multiply(c1r, g1 * g1, out=c1r), rates.kappa_1p, out=c1r)
        np.subtract(dc, np.multiply(c1i, g1 * g1, out=c1i), out=c1i)
        # m = (kappa_b + i*dc)*c2 + v2^2
        np.subtract(np.multiply(kb, c2r, out=mr), np.multiply(dc, c2i, out=t), out=mr)
        mr += v2**2
        np.add(np.multiply(kb, c2i, out=mi), np.multiply(dc, c2r, out=t), out=mi)
        # Delta = c1*m + v1^2*c2: its imaginary part in t, its real part in c1r
        np.add(np.multiply(c1r, mi, out=t), np.multiply(c1i, mr, out=det_sq), out=t)
        t += np.multiply(c2i, v1**2, out=det_sq)
        np.subtract(np.multiply(c1r, mr, out=c1r), np.multiply(c1i, mi, out=det_sq), out=c1r)
        c1r += np.multiply(c2r, v1**2, out=det_sq)
        np.add(np.multiply(c1r, c1r, out=det_sq), np.multiply(t, t, out=c1i), out=det_sq)
    if not (det_sq >= SINGULAR_FLOOR).all():        # NaN fails too: Delta overflowed, inf - inf
        raise RuntimeError(_SINGULAR if np.any(det_sq < SINGULAR_FLOOR) else
                           "|Delta| overflowed to NaN: the detunings or couplings are too large")
    return det_sq, (c1r, t), (c2r, c2i), (mr, mi)


def steady_state(rates: DerivedRates, probe: ProbeSettings, g1: float, g2: float) -> SteadyStateAmplitudes:
    """Steady-state field and coherence amplitudes by Cramer's rule.  The probe fields, the
    couplings and the rates may be stacked arrays, which broadcast as in _delta_parts."""
    if not (holds(g1 >= 0.0) and holds(g2 >= 0.0)):       # NaN fails too
        raise ValueError("coupling strengths must be non-negative")
    _, *parts = _delta_parts(rates, probe.delta_c, probe.delta_a, g1, g2)
    z = np.empty((3,) + parts[0][0].shape, complex)
    z.real, z.imag = zip(*parts)        # not re + 1j*im, which makes an infinite im a NaN re
    if not np.isfinite(z).all():        # inf/inf, or 0*inf, in the amplitudes
        raise RuntimeError("Delta, c2 or m overflowed: the amplitudes are not finite")
    det, c2, m = z
    e = probe.drive_E1 / det
    a1 = -1j * e * m
    a2 = 1j * e * rates.v1 * rates.v2
    gp = rates.gamma_perp + 1j * probe.delta_a
    return SteadyStateAmplitudes(a1, a2, -e * rates.v1 * c2, -1j * g1 * a1 / gp, -1j * g2 * a2 / gp)


def _resonant_det(rates: DerivedRates, g1_sq: float = 0.0, g2_sq: float = 0.0) -> tuple[float, float]:
    """(Delta, m) at zero detuning in Python floats, with g_k^2/gamma_perp folded into c_k; at g = 0
    in _delta_parts' float operations.  Damping is checked first, and |Delta|^2 as there."""
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
    def transmission_at(det0_sq, d):
        det_sq = _delta_parts(rates, d if delta_c_offset == 0.0 else d + delta_c_offset, d, g1, g2)[0]
        return np.divide(det0_sq, det_sq, out=det_sq)

    return _spectrum(rates, grid, transmission_at)
