"""Evanescent-field coupling profile g^2(r, phi, z) around the nanofiber.

Two forms are provided: the exact quasi-linearly-polarized HE11 intensity
profile built from modified Bessel functions K0, K1, K2, and a simplified
separable form (axial cosine weight x radial exponential x cos^2 phi) that
the saturation model consumes.  Both are normalized to 1 at the trap
minimum (r0, 0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .params import FIBER_INDEX, PhysicalConfig

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ModeFunctionParams:
    beta: float         # propagation constant, 1/m
    k: float            # free-space wavenumber, 1/m
    n1: float           # core index
    n2: float           # cladding (vacuum) index
    s: float            # mode-geometry parameter
    a: float            # fiber radius, m
    q: float            # external transverse decay constant, 1/m
    h: float            # internal transverse constant, 1/m
    qprime: float       # simplified-form radial decay constant, 1/m
    r0: float           # trap-minimum radial position, m
    A_mf: float         # simplified-form axial weight

    @property
    def B_mf(self) -> float:
        return 1.0 - self.A_mf

    def validate(self) -> None:
        if not self.r0 > self.a:
            raise ValueError("trap minimum r0 must lie outside the fiber surface")
        if not 0.0 <= self.A_mf <= 1.0:
            raise ValueError("axial weight A_mf must lie in [0, 1]")


def make_mode_params(
    beta: float = 7.87925e6,
    wavelength: float = PhysicalConfig.lambda_probe,
    n1: float = FIBER_INDEX,
    n2: float = 1.0,
    s: float = -0.828,
    a: float = 200e-9,
    r0: float = 400e-9,     # typical two-color trap minimum, 200 nm off the surface
    qprime: float | None = None,
    A_mf: float = 0.17,
) -> ModeFunctionParams:
    """Build mode-function parameters, deriving q and h from beta and k.

    qprime defaults to the rough guess 1.3*q; fit_simplified fits qprime and A_mf.
    """
    k = 2.0 * math.pi / wavelength
    q = math.sqrt(beta**2 - n2**2 * k**2)
    h = math.sqrt(k**2 * n1**2 - beta**2)
    if qprime is None:
        qprime = 1.3 * q
    return ModeFunctionParams(
        beta=beta, k=k, n1=n1, n2=n2, s=s, a=a, q=q, h=h,
        qprime=qprime, r0=r0, A_mf=A_mf,
    )


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind, orders 0, 1, 2.

    K2 is evaluated through the recurrence K2(x) = K0(x) + (2/x) K1(x).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    if order == 0:
        out = special.k0(x)
    elif order == 1:
        out = special.k1(x)
    elif order == 2:
        out = special.k0(x) + 2.0 / x * special.k1(x)
    else:
        raise ValueError("order must be 0, 1, or 2")
    return out if out.ndim else float(out)


def _exact_unnormalized(p: ModeFunctionParams, r, phi, z):
    qr = p.q * np.asarray(r, dtype=float)
    k0, k1 = bessel_k(0, qr), bessel_k(1, qr)
    k2 = k0 + 2.0 / qr * k1         # the recurrence of bessel_k(2, qr)
    phi = np.asarray(phi)
    pref = (p.beta / (2.0 * p.q)) ** 2
    cos_part = pref * (
        ((1.0 - p.s) * k0 + (1.0 + p.s) * k2 * np.cos(2.0 * phi)) ** 2
        + (1.0 + p.s) ** 2 * k2**2 * np.sin(2.0 * phi) ** 2
    )
    sin_part = k1**2 * np.cos(phi) ** 2
    bz = p.beta * np.asarray(z)
    return cos_part * np.cos(bz) ** 2 + sin_part * np.sin(bz) ** 2


def g_squared_exact(p: ModeFunctionParams, r, phi, z):
    """Exact profile normalized to 1 at the trap minimum (r0, 0, 0)."""
    p.validate()
    if np.any(np.asarray(r) <= p.a):
        raise ValueError("radial position must lie outside the fiber (r > a)")
    norm = _exact_unnormalized(p, p.r0, 0.0, 0.0)
    out = _exact_unnormalized(p, r, phi, z) / norm
    return out if np.ndim(out) else float(out)


def g_squared_simplified(p: ModeFunctionParams, r, phi, z):
    """Simplified separable profile, normalized to 1 at (r0, 0, 0)."""
    p.validate()
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radial position must be positive")
    axial = 0.5 * (1.0 + p.A_mf + p.B_mf * np.cos(2.0 * p.beta * np.asarray(z)))
    radial = np.exp(-2.0 * p.qprime * (r - p.r0)) / (r / p.r0)
    out = axial * radial * np.cos(np.asarray(phi)) ** 2
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class SimplifiedFit:
    qprime: float
    A_mf: float
    max_rel_error: float
    params: ModeFunctionParams      # input params with fitted qprime and A_mf

    @property
    def B_mf(self) -> float:
        return 1.0 - self.A_mf


def fit_simplified(
    p: ModeFunctionParams,
    r_span: float = 300e-9,
    n_r: int = 41,
    n_phi: int = 9,
    n_z: int = 17,
) -> SimplifiedFit:
    """Least-squares fit of (qprime, A_mf) to the exact profile.

    The fit minimizes the relative error over r in [r0, r0 + r_span],
    phi in [-pi/4, pi/4] and one axial period, and reports the maximum
    relative deviation of the fitted simplified form over that domain.
    simplified/exact = R(r; qprime)*(u + A_mf*w) is linear in A_mf, so the best
    A_mf at each qprime is one least-squares ratio clipped to [0.01, 0.9] (exact
    for a convex quadratic), and a golden-section search over qprime in
    [0.5q, 3q] is left: variable projection (Golub & Pereyra, Inverse Problems
    19, R1 (2003)).
    """
    p.validate()
    r = np.linspace(p.r0, p.r0 + r_span, n_r)
    phi = np.linspace(-math.pi / 4.0, math.pi / 4.0, n_phi)[:, np.newaxis]
    z = np.linspace(0.0, math.pi / p.beta, n_z, endpoint=False)
    # broadcast (r, phi, z) grid: the Bessel functions see only the n_r radii
    weight = np.cos(phi) ** 2 / g_squared_exact(p, r[:, np.newaxis, np.newaxis], phi, z)
    u = (np.cos(p.beta * z) ** 2 * weight).reshape(n_r, -1)
    w = (np.sin(p.beta * z) ** 2 * weight).reshape(n_r, -1)
    # per-r sums over (phi, z): up to a constant, the cost is quadratic in R(r) and A_mf
    uu, ww, uw, su, sw = (x.sum(axis=1) for x in (u * u, w * w, u * w, u, w))

    def projected(qprime):
        rad = np.exp(-2.0 * qprime * (r - p.r0)) / (r / p.r0)
        rad2 = rad * rad
        a_mf = min(max(float((rad @ sw - rad2 @ uw) / (rad2 @ ww)), 0.01), 0.9)
        cost = rad2 @ (uu + 2.0 * a_mf * uw + a_mf**2 * ww) - 2.0 * rad @ (su + a_mf * sw)
        return cost, a_mf, rad

    lo, hi = 0.5 * p.q, 3.0 * p.q
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = projected(x1)[0], projected(x2)[0]
    while hi - lo > 1e-9 * p.q:
        if f1 <= f2:        # keep [lo, x2]; the old x1 becomes the new x2
            hi, x2, f2, x1 = x2, x1, f1, x2 - _GOLDEN * (x2 - lo)
            f1 = projected(x1)[0]
        else:               # keep [x1, hi]; the old x2 becomes the new x1
            lo, x1, f1, x2 = x1, x2, f2, x1 + _GOLDEN * (hi - x1)
            f2 = projected(x2)[0]
    qprime = 0.5 * (lo + hi)
    _, a_mf, rad = projected(qprime)
    return SimplifiedFit(
        qprime=qprime, A_mf=a_mf, params=replace(p, qprime=qprime, A_mf=a_mf),
        max_rel_error=float(np.max(np.abs(rad[:, np.newaxis] * (u + a_mf * w) - 1.0))),
    )
