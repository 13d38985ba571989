"""Reference data and checks that only the tests use: the golden rate table and the
stationarity residual of a closed-form steady state."""

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
