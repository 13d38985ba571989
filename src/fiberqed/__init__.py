"""Fiber-coupled two-cavity QED model.

Derives all system rates from physical parameters, computes weak-probe
transmission spectra and their normal-mode decomposition, evaluates the
nanofiber coupling profile, and solves the semiclassical saturation curves.

The numpy-free `params` names are bound on import; each other name is read from its
module on every access, and a module is imported on first use, so numpy loads only then.
"""

import importlib
import sys
import types

from .params import PhysicalConfig, DerivedRates, ModeFunctionParams, derive_rates, mhz, to_mhz

__version__ = "0.1.0"

_LAZY = {
    "linear_response": ("ProbeSettings", "SpectrumResult", "SteadyStateAmplitudes",
                        "steady_state", "transmission_spectrum"),
    "normal_modes": ("NormalModeSummary", "decompose", "reduced_spectrum", "peak_find"),
    "fiber_mode": ("make_mode_params", "bessel_k", "g_squared_exact",
                   "g_squared_simplified", "fit_simplified"),
    "saturation": ("SaturationConfig", "SaturationCurve", "saturation_photon_number",
                   "quadrature_saturation_term", "solve_saturation"),
}
__all__ = ["PhysicalConfig", "DerivedRates", "ModeFunctionParams", "derive_rates", "mhz", "to_mhz",
           "params", *_LAZY, *(name for names in _LAZY.values() for name in names)]


# the package's module type: a property per name looks up faster than a __getattr__ miss
sys.modules[__name__].__class__ = type("_Package", (types.ModuleType,), {
    name: property(lambda _, m=f"{__name__}.{module}", name=name:
                   getattr(sys.modules.get(m) or importlib.import_module(m), name))
    for module, names in _LAZY.items() for name in names
})


def __getattr__(name):      # a submodule before its first import (PEP 562)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
