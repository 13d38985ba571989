"""Reference data and checks that only the tests use: the golden rate table, the
stationarity residual of a closed-form steady state and the atom sum in plain expressions."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fiberqed import linear_response, oracle


def reference_rates() -> dict:
    """Golden rate table (MHz), tests/reference_rates.json.

    Single-valued entries are plain floats; the fiber-length-dependent ones
    (kappa_bloss, v1, v2) are dicts keyed by the fiber length in meters as a
    string.
    """
    return json.loads((Path(__file__).parent / "reference_rates.json").read_text())


def stationarity_residual(amps, rates, probe, g1: float, g2: float) -> float:
    """Max residual of the five fixed-point equations, max|M x - rhs|, relative to the drive."""
    matrix, rhs = oracle.build_linear_system(rates, probe, g1, g2)
    x = np.array([amps.a1, amps.a2, amps.b, amps.s1, amps.s2])
    scale = max(abs(probe.drive_E1), abs(amps.a1) * rates.kappa_1p, abs(amps.a2) * rates.kappa_2p,
                linear_response.SINGULAR_FLOOR)
    return float(np.max(np.abs(matrix @ x - rhs))) / scale


def per_unit_field(A_mf: float, x2, s: np.ndarray, w: np.ndarray, slope: bool = False):
    """saturation._per_unit_field in plain numpy expressions, one temporary array each, which the
    in-place kernel must equal bit for bit: the atom sum per atom P = 2/((1+A)*x2) * sum w*fraction,
    s @ w at x2 = 0, and with slope the pair (P, dQ/dx) of Q(x) = x*P(x^2)."""
    x2 = np.asarray(x2, dtype=float)
    xs = np.minimum(x2[..., np.newaxis] * s, 1e100)
    u = (A_mf * xs + (1.0 + A_mf)) * xs
    root = np.sqrt(u + 1.0)
    fraction = u / (root + 1.0 + u)
    if slope:
        fraction = np.stack([fraction, xs * (1.0 + A_mf + 2.0 * A_mf * xs) / ((u + 1.0) * root) - fraction])
    zero = ~(x2 > 0.0)
    out = 2.0 / (1.0 + A_mf) / (x2 + zero) * (fraction @ w)
    if zero.any():
        out = np.where(zero, s @ w, out)
    return out if out.ndim else float(out)
