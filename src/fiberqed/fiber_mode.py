"""Evanescent-field coupling profile g^2(r, phi, z) around the nanofiber.

The fiber geometry is `params.ModeFunctionParams`, also named `make_mode_params` here,
which checks itself when built.  The exact quasi-linearly-polarized HE11 intensity
profile on it is built from modified Bessel functions K0, K1, K2 (a numpy trapezoid
rule).  The simplified separable form (axial cosine weight x radial exponential x
cos^2 phi) that the saturation model consumes is the least-squares fit to it,
`fit_simplified`: its qprime and A_mf are the simplified profile.  Both are normalized
to 1 at the trap minimum (r0, 0, 0), so an r0 whose exact intensity is not a normal
float (from about 128 um out) is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModeFunctionParams

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


make_mode_params = ModeFunctionParams      # the geometry's other name


def _bessel_k012(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K0(x), K1(x), K2(x)) for finite x > 0: the trapezoid rule on K_n(x) = int_0^inf
    exp(-x cosh t) cosh(nt) dt (DLMF 10.32.9), geometrically convergent since the
    integrand is entire and decays double-exponentially (Trefethen & Weideman, SIAM
    Rev. 56, 385 (2014)).  The step resolves the exp(-x t^2/2) peak of the largest x;
    the nodes run until x*(cosh t - 1) = 40 for the smallest x.  K2 is the
    recurrence K2(x) = K0(x) + (2/x) K1(x)."""
    h = 0.1 * min(1.0, 5.0 / math.sqrt(x.max()))
    t = np.arange(0.0, math.acosh(1.0 + 40.0 / x.min()) + h, h)
    # exp(-x(cosh t - 1)), written with sinh so that it does not cancel near t = 0
    weights = np.exp(-2.0 * x[..., np.newaxis] * np.sinh(0.5 * t) ** 2)
    weights[..., 0] *= 0.5
    scale = h * np.exp(-x)
    k0, k1 = scale * weights.sum(axis=-1), scale * (weights @ np.cosh(t))
    with np.errstate(over="ignore"):    # K2 > 1.8e308 below x ~ 1e-154: inf is its value
        return k0, k1, k0 + 2.0 / x * k1


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind, orders 0, 1, 2."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & np.isfinite(x)):
        raise ValueError("bessel_k requires finite x > 0")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    out = _bessel_k012(x)[order]
    return out if out.ndim else float(out)


def _exact_unnormalized(p: ModeFunctionParams, r, phi, z):
    qr = p.q * np.asarray(r, dtype=float)
    k0, k1, k2 = _bessel_k012(qr)
    phi = np.asarray(phi)
    pref = (p.beta / (2.0 * p.q)) ** 2
    cos_part = pref * (
        ((1.0 - p.s) * k0 + (1.0 + p.s) * k2 * np.cos(2.0 * phi)) ** 2
        + (1.0 + p.s) ** 2 * k2**2 * np.sin(2.0 * phi) ** 2
    )
    sin_part = k1**2 * np.cos(phi) ** 2
    bz = p.beta * np.asarray(z)
    return cos_part * np.cos(bz) ** 2 + sin_part * np.sin(bz) ** 2


def _check_phi_z(phi, z) -> None:
    for name, value in (("phi", phi), ("z", z)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"coordinate {name} must be finite")


def g_squared_exact(p: ModeFunctionParams, r, phi, z):
    """Exact profile normalized to 1 at the trap minimum (r0, 0, 0)."""
    _check_phi_z(phi, z)
    if not np.all((np.asarray(r) > p.a) & np.isfinite(r)):
        raise ValueError("radial position must be finite and outside the fiber (r > a)")
    norm = _exact_unnormalized(p, p.r0, 0.0, 0.0)
    if not np.finfo(float).tiny <= norm < math.inf:     # a subnormal norm degrades the fit
        raise ValueError(f"trap minimum r0={p.r0!r} lies too far out: its exact intensity "
                         f"{float(norm)!r} must be finite and a normal float, at least 2.2e-308")
    out = _exact_unnormalized(p, r, phi, z) / norm
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class SimplifiedFit:
    """The simplified profile: fitted qprime and A_mf on the geometry params."""

    qprime: float                   # radial decay constant, 1/m
    A_mf: float                     # axial weight
    max_rel_error: float
    params: ModeFunctionParams      # the geometry the fit is for

    def __post_init__(self) -> None:
        if not 0.0 <= self.A_mf <= 1.0:
            raise ValueError("axial weight A_mf must lie in [0, 1]")
        for name in ("qprime", "max_rel_error"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name}={value!r} must be non-negative and finite")

    @property
    def B_mf(self) -> float:
        return 1.0 - self.A_mf


def g_squared_simplified(fit: SimplifiedFit, r, phi, z):
    """Simplified separable profile, normalized to 1 at (r0, 0, 0)."""
    _check_phi_z(phi, z)
    p = fit.params
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & np.isfinite(r)):
        raise ValueError("radial position must be finite and positive")
    axial = 0.5 * (1.0 + fit.A_mf + fit.B_mf * np.cos(2.0 * p.beta * np.asarray(z)))
    radial = np.exp(-2.0 * fit.qprime * (r - p.r0)) / (r / p.r0)
    out = axial * radial * np.cos(np.asarray(phi)) ** 2
    return out if np.ndim(out) else float(out)


def fit_simplified(p: ModeFunctionParams) -> SimplifiedFit:
    """Least-squares fit of (qprime, A_mf) to the exact profile on the geometry p.

    The fit minimizes the relative error over 41 radii in [r0, r0 + 300 nm],
    9 angles in [-pi/4, pi/4] and 17 points of one axial period, and reports the
    maximum relative deviation of the fitted simplified form over that grid.
    simplified/exact = R(r; qprime)*(u + A_mf*w) is linear in A_mf, so the best
    A_mf at each qprime is one least-squares ratio clipped to [0.01, 0.9] (exact
    for a convex quadratic), and a golden-section search over qprime in
    [0.5q, 3q] is left: variable projection (Golub & Pereyra, Inverse Problems
    19, R1 (2003)).
    """
    r = np.linspace(p.r0, p.r0 + 300e-9, 41)
    phi = np.linspace(-math.pi / 4.0, math.pi / 4.0, 9)[:, np.newaxis]
    z = np.linspace(0.0, math.pi / p.beta, 17, endpoint=False)
    # broadcast (r, phi, z) grid: the Bessel functions see only the 41 radii
    weight = np.cos(phi) ** 2 / g_squared_exact(p, r[:, np.newaxis, np.newaxis], phi, z)
    u = (np.cos(p.beta * z) ** 2 * weight).reshape(r.size, -1)
    w = (np.sin(p.beta * z) ** 2 * weight).reshape(r.size, -1)
    # per-r sums over (phi, z): up to a constant, the cost is quadratic in R(r) and A_mf
    uu, ww, uw, su, sw = (x.sum(axis=1) for x in (u * u, w * w, u * w, u, w))

    depth, ratio = r - p.r0, r / p.r0           # the radial factor's fixed parts
    def projected(qprime):
        rad = np.exp(-2.0 * qprime * depth) / ratio
        rad2 = rad * rad
        a_mf = min(max(float((rad @ sw - rad2 @ uw) / (rad2 @ ww)), 0.01), 0.9)
        cost = rad2 @ (uu + 2.0 * a_mf * uw + a_mf**2 * ww) - 2.0 * rad @ (su + a_mf * sw)
        return cost, a_mf, rad

    q = p.q
    lo, hi = 0.5 * q, 3.0 * q
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = projected(x1)[0], projected(x2)[0]
    while hi - lo > 1e-9 * q:
        if f1 <= f2:        # keep [lo, x2]; the old x1 becomes the new x2
            hi, x2, f2, x1 = x2, x1, f1, x2 - _GOLDEN * (x2 - lo)
            f1 = projected(x1)[0]
        else:               # keep [x1, hi]; the old x2 becomes the new x1
            lo, x1, f1, x2 = x1, x2, f2, x1 + _GOLDEN * (hi - x1)
            f2 = projected(x2)[0]
    qprime = 0.5 * (lo + hi)
    _, a_mf, rad = projected(qprime)
    return SimplifiedFit(
        qprime=qprime, A_mf=a_mf, params=p,
        max_rel_error=float(np.max(np.abs(rad[:, np.newaxis] * (u + a_mf * w) - 1.0))),
    )
