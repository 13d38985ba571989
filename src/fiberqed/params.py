"""Physical configuration of the two-cavity fiber link and all derived model rates.

Rates are stored internally in rad/s.  The CLI and the reference data file
quote them in MHz (rate / 2pi / 1e6), matching how such numbers are usually
reported.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

TWO_PI = 2.0 * math.pi
C_VACUUM = 299792458.0          # m/s
FIBER_INDEX = 1.4525            # silica core index at the probe wavelength
C_FIBER = C_VACUUM / FIBER_INDEX


def mhz(value: float) -> float:
    """Convert a frequency quoted in MHz (meaning 2pi x MHz) to rad/s."""
    return TWO_PI * value * 1e6


def to_mhz(rate: float) -> float:
    """Convert a rate in rad/s back to MHz units."""
    return rate / TWO_PI / 1e6


def _rate(quoted_mhz: float):
    """Dataclass field for a rate quoted in MHz: stored in rad/s, MHz in metadata."""
    return field(default=mhz(quoted_mhz), metadata={"mhz": quoted_mhz})


@dataclass(frozen=True)
class PhysicalConfig:
    """Raw experimental inputs.

    Transmittances and single-pass losses are intensity quantities
    (dimensionless), lengths are in meters, all rates in rad/s.
    Defaults are the reference experimental configuration.  The CLI config
    keys are these field names; a field whose metadata carries "mhz" is a
    rate quoted in MHz there, every other field keeps its SI unit.  A config
    is checked once, when it is built, and a bad field is rejected by name.
    """

    T1: float = 0.13
    T2: float = 0.39
    T3: float = 0.33
    T4: float = 0.06
    L1: float = 0.92
    L2: float = 1.38
    Lf: float = 1.23
    alpha1: float = 0.02
    alpha2: float = 0.02
    alphaf: float = 0.02
    gamma_par: float = _rate(5.2)
    gamma_las: float = _rate(0.365)
    g1_eff: float = _rate(7.2)
    g2_eff: float = _rate(7.3)
    g1_0: float = _rate(0.75)
    g2_0: float = _rate(1.2)
    c_fiber: float = C_FIBER
    lambda_probe: float = 852e-9

    def __post_init__(self) -> None:
        # each range is open at infinity or bounded, so NaN and inf fail it with no isfinite call
        for name in ("T1", "T2", "T3", "T4"):
            if not 0.0 < (t := getattr(self, name)) < 1.0:
                raise ValueError(f"mirror transmittance {name}={t!r} must lie in (0, 1)")
        for name in ("alpha1", "alpha2", "alphaf"):
            if not 0.0 <= (a := getattr(self, name)) < 1.0:
                raise ValueError(f"single-pass loss {name}={a!r} must lie in [0, 1)")
        for name in ("L1", "L2", "Lf", "c_fiber", "lambda_probe"):
            if not 0.0 < (x := getattr(self, name)) < math.inf:
                raise ValueError(f"{name}={x!r} must be positive and finite")
        for name in _QUOTED_RATES:
            if not ((r := getattr(self, name)) >= 0.0 and r * r < math.inf):    # NaN fails too
                raise ValueError(f"rate {name}={r!r} must be non-negative and finite, "
                                 "and so must its square in (rad/s)^2")


#: The rate fields of PhysicalConfig, those quoted in MHz; read once, not per instance.
_QUOTED_RATES = tuple(f.name for f in fields(PhysicalConfig) if "mhz" in f.metadata)


@dataclass(frozen=True)
class ModeFunctionParams:
    """Nanofiber geometry in SI units, k = 2*pi/wavelength.  The CLI's [mode] keys are these
    fields but the wavelength ([physical] lambda_probe), with these defaults; r0 is a typical
    two-color trap minimum, 200 nm off the surface.  Checked when built: a positive wavelength,
    finite fields, 0 < a < r0 and a guided n2*k < beta < n1*k, n1 = FIBER_INDEX."""

    beta: float = 7.87925e6                             # propagation constant, 1/m
    wavelength: float = PhysicalConfig.lambda_probe     # free-space wavelength, m
    n2: float = 1.0                                     # cladding (vacuum) index
    s: float = -0.828                                   # mode-geometry parameter
    a: float = 200e-9                                   # fiber radius, m
    r0: float = 400e-9                                  # trap-minimum radial position, m

    def __post_init__(self) -> None:
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError(f"mode parameter wavelength={self.wavelength!r} must be positive and finite")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"mode parameter {name}={value!r} must be finite")
        if not 0.0 < self.a < self.r0:
            raise ValueError(f"fiber radius a={self.a!r} and trap minimum r0={self.r0!r} "
                             "must satisfy 0 < a < r0")
        lo, hi = self.n2 * self.k, FIBER_INDEX * self.k
        if not 0.0 < lo < self.beta < hi:
            raise ValueError(f"beta={self.beta!r} is not guided: 0 < n2*k < beta < n1*k fails, with "
                             f"(n2*k, n1*k) = ({lo:.6g}, {hi:.6g}) 1/m")

    @property
    def k(self) -> float:       # free-space wavenumber, 1/m
        return 2.0 * math.pi / self.wavelength

    @property
    def q(self) -> float:       # external transverse decay constant, 1/m
        return math.sqrt(self.beta**2 - self.n2**2 * self.k**2)


@dataclass(frozen=True)
class DerivedRates:
    """All model rates computed from a PhysicalConfig (rad/s).

    The eleven init fields are independent; the six composites kappa_1, kappa_2,
    kappa_1p, kappa_2p, kappa_b and gamma_perp are computed from them when built,
    so dataclasses.replace recomputes them and none can be set.  The primed rates
    fold in the laser linewidth as extra phase damping: kappa_1p = kappa_1 +
    gamma_las, and likewise for cavity 2 and the fiber.  The fields are declared
    in the order of rate_report; numpy arrays stack one rate set per element.
    """

    kappa_1l: float = field(metadata={"from": "c_fiber, T1, L1"})
    kappa_1loss: float = field(metadata={"from": "c_fiber, L1, alpha1"})
    kappa_1r: float = field(metadata={"from": "c_fiber, T2, L1"})
    kappa_2l: float = field(metadata={"from": "c_fiber, T3, L2"})
    kappa_2loss: float = field(metadata={"from": "c_fiber, L2, alpha2"})
    kappa_2r: float = field(metadata={"from": "c_fiber, T4, L2"})
    kappa_bloss: float = field(metadata={"from": "c_fiber, Lf, alphaf"})
    v1: float = field(metadata={"from": "c_fiber, T2, L1, Lf"})
    v2: float = field(metadata={"from": "c_fiber, T3, L2, Lf"})
    kappa_1: float = field(init=False, metadata={"from": "c_fiber, T1, L1, alpha1"})
    kappa_2: float = field(init=False, metadata={"from": "c_fiber, T4, L2, alpha2"})
    kappa_1p: float = field(init=False, metadata={"from": "c_fiber, T1, L1, alpha1, gamma_las"})
    kappa_2p: float = field(init=False, metadata={"from": "c_fiber, T4, L2, alpha2, gamma_las"})
    kappa_b: float = field(init=False, metadata={"from": "c_fiber, Lf, alphaf, gamma_las"})
    gamma_par: float = field(metadata={"from": "gamma_par"})
    gamma_las: float = field(metadata={"from": "gamma_las"})
    gamma_perp: float = field(init=False, metadata={"from": "gamma_par, gamma_las"})

    def __post_init__(self) -> None:
        k1, k2, las = self.kappa_1l + self.kappa_1loss, self.kappa_2r + self.kappa_2loss, self.gamma_las
        names = ("kappa_1", "kappa_2", "kappa_1p", "kappa_2p", "kappa_b", "gamma_perp")
        values = (k1, k2, k1 + las, k2 + las, self.kappa_bloss + las, 0.5 * self.gamma_par + las)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)       # frozen: set once, here
        for name, source in _RATE_SOURCES:     # PhysicalConfig's rule; a float gives a bool, a stack an array
            if not holds((r := getattr(self, name)) * r < math.inf):      # NaN fails too
                raise ValueError(f"rate {name}={r!r} rad/s, from [physical] {source}, must be "
                                 "finite, and so must its square in (rad/s)^2")
        if not holds(((gp := self.gamma_perp) == 0.0) | (gp * gp >= sys.float_info.min)):   # reduced_spectrum's gp^2
            raise ValueError(f"rate gamma_perp={gp!r} rad/s, from [physical] gamma_par, gamma_las, must be 0 "
                             "or have a square in (rad/s)^2 that does not underflow")


#: Every DerivedRates field with the [physical] keys it comes from, in declaration order.
_RATE_SOURCES = tuple((f.name, f.metadata["from"]) for f in fields(DerivedRates))


def derive_rates(cfg: PhysicalConfig) -> DerivedRates:
    """Compute every model rate from the physical configuration.

    Mirror decay rates follow kappa = c*T/(4L), intrinsic losses
    kappa_loss = -(c/2L)*ln(1 - alpha), and the cavity-fiber coupling
    rates v_i = (c/2)*sqrt(T/(L_i*L_f)).  Only these eleven independent rates
    are passed: DerivedRates computes kappa_1, kappa_2, kappa_1p, kappa_2p,
    kappa_b and gamma_perp from them, and dataclasses.replace recomputes them.
    """
    c = cfg.c_fiber
    return DerivedRates(
        kappa_1l=c * cfg.T1 / (4.0 * cfg.L1),
        kappa_1r=c * cfg.T2 / (4.0 * cfg.L1),
        kappa_2l=c * cfg.T3 / (4.0 * cfg.L2),
        kappa_2r=c * cfg.T4 / (4.0 * cfg.L2),
        kappa_1loss=-0.5 * c / cfg.L1 * math.log(1.0 - cfg.alpha1),
        kappa_2loss=-0.5 * c / cfg.L2 * math.log(1.0 - cfg.alpha2),
        kappa_bloss=-0.5 * c / cfg.Lf * math.log(1.0 - cfg.alphaf),
        v1=0.5 * c * math.sqrt(cfg.T2 / (cfg.L1 * cfg.Lf)),
        v2=0.5 * c * math.sqrt(cfg.T3 / (cfg.L2 * cfg.Lf)),
        gamma_par=cfg.gamma_par,
        gamma_las=cfg.gamma_las,
    )


def holds(ok) -> bool:
    """Whether a check holds everywhere: ok is a bool (float operands), a numpy bool or an array."""
    return ok is True or ok is not False and bool(ok.all())


def check_cloud_width(sigma_y_over_x0: float) -> None:
    """The range rule of the cloud width, for the saturation config and the atom sums alike."""
    if not 0.0 <= sigma_y_over_x0 < math.inf:       # NaN fails too
        raise ValueError(f"sigma_y_over_x0={sigma_y_over_x0!r} must be non-negative and finite")


def check_saturation_choice(which_cavity: int, model: str, sigma_y_over_x0: float) -> None:
    """The [saturation] choices that need no numpy to check: the cavity, the model and its width."""
    if which_cavity not in (1, 2):
        raise ValueError("which_cavity must be 1 or 2")
    if model not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown saturation model {model!r}")
    if model == "closed_form" and sigma_y_over_x0 > 0.0:
        raise ValueError(f"model = closed_form needs sigma_y_over_x0 = 0, not {sigma_y_over_x0!r}: "
                         "a cloud of nonzero width takes model = quadrature")
    check_cloud_width(sigma_y_over_x0)


def _mhz_table(title: str, rows, digits: int) -> str:
    """The CLI's text table: a "title  MHz" header over (name, rate in rad/s) rows, the title and
    names padded to the widest name, the rates in MHz to `digits` significant figures."""
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {to_mhz(rate):.{digits}g}" for name, rate in rows]
    return "\n".join([f"{title:<{width}}  MHz", *lines])


def rate_report(cfg: PhysicalConfig) -> str:
    """Human-readable rate table in MHz with 3 significant figures; a rate whose [physical]
    sources include Lf is labelled with the fiber length."""
    r = derive_rates(cfg)
    return _mhz_table("parameter", [(f"{name} (Lf={cfg.Lf} m)" if "Lf" in source.split(", ") else name,
                                     getattr(r, name)) for name, source in _RATE_SOURCES], 3)
