"""Fiber-coupled two-cavity QED model.

Derives all system rates from physical parameters, computes weak-probe
transmission spectra and their normal-mode decomposition, evaluates the
nanofiber coupling profile, and solves the semiclassical saturation curves.
"""

from .params import PhysicalConfig, DerivedRates, derive_rates, mhz, to_mhz
from .linear_response import (
    ProbeSettings,
    SpectrumResult,
    SteadyStateAmplitudes,
    steady_state,
    transmission_spectrum,
)
from .normal_modes import NormalModeSummary, decompose, reduced_spectrum, peak_find
from .fiber_mode import (
    ModeFunctionParams,
    make_mode_params,
    bessel_k,
    g_squared_exact,
    g_squared_simplified,
    fit_simplified,
)
from .saturation import (
    SaturationConfig,
    SaturationCurve,
    saturation_photon_number,
    collective_saturation_term,
    quadrature_saturation_term,
    solve_saturation,
)

__version__ = "0.1.0"
