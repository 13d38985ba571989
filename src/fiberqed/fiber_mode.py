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

make_mode_params = ModeFunctionParams      # the geometry's other name
_STAGE = np.linspace(0.0, 1.0, 64)          # fit_simplified's search nodes across a cell


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
    with np.errstate(over="ignore", invalid="ignore"):      # judged below, with no numpy warning
        cos_part = pref * (
            ((1.0 - p.s) * k0 + (1.0 + p.s) * k2 * np.cos(2.0 * phi)) ** 2
            + np.float64(1.0 + p.s) ** 2 * k2**2 * np.sin(2.0 * phi) ** 2
        )
        sin_part = k1**2 * np.cos(phi) ** 2
        bz = p.beta * np.asarray(z)
        out = cos_part * np.cos(bz) ** 2 + sin_part * np.sin(bz) ** 2
    if not np.isfinite(out).all():
        raise ValueError(f"the exact profile overflows at q*r = {qr.min():.3g} with s={p.s!r}")
    return out


def _check_phi_z(phi, z) -> None:
    for name, value in (("phi", phi), ("z", z)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"coordinate {name} must be finite")


def _trap_norm(p: ModeFunctionParams, norm):
    """norm, the exact intensity at the trap minimum (r0, 0, 0), if it is a normal float."""
    if not norm >= np.finfo(float).tiny:     # a subnormal norm degrades the fit
        raise ValueError(f"trap minimum r0={p.r0!r} lies too far out: its exact intensity "
                         f"{float(norm)!r} must be a normal float, at least 2.2e-308")
    return norm


def g_squared_exact(p: ModeFunctionParams, r, phi, z):
    """Exact profile normalized to 1 at the trap minimum (r0, 0, 0)."""
    _check_phi_z(phi, z)
    if not np.all((np.asarray(r) > p.a) & np.isfinite(r)):
        raise ValueError("radial position must be finite and outside the fiber (r > a)")
    out = _exact_unnormalized(p, r, phi, z) / _trap_norm(p, _exact_unnormalized(p, p.r0, 0.0, 0.0))
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


def g_squared_simplified(fit: SimplifiedFit, r, phi, z):
    """Simplified separable profile, normalized to 1 at (r0, 0, 0)."""
    _check_phi_z(phi, z)
    p = fit.params
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & np.isfinite(r)):
        raise ValueError("radial position must be finite and positive")
    axial = 0.5 * (1.0 + fit.A_mf + (1.0 - fit.A_mf) * np.cos(2.0 * p.beta * np.asarray(z)))
    radial = np.exp(-2.0 * fit.qprime * (r - p.r0)) / (r / p.r0)
    out = axial * radial * np.cos(np.asarray(phi)) ** 2
    return out if np.ndim(out) else float(out)


def _profile_domain(p: ModeFunctionParams, n_r: int, n_phi: int, n_z: int):
    """The profile domain's axes: n_r radii in [r0, r0 + 300 nm], n_phi angles in [-pi/4, pi/4]
    and n_z points of one axial period: fit_simplified's grid, and mode-profile's."""
    return (np.linspace(p.r0, p.r0 + 300e-9, n_r), np.linspace(-math.pi / 4.0, math.pi / 4.0, n_phi),
            np.linspace(0.0, math.pi / p.beta, n_z, endpoint=False))


def fit_simplified(p: ModeFunctionParams) -> SimplifiedFit:
    """Least-squares fit of (qprime, A_mf) to the exact profile on the geometry p.

    The fit minimizes the relative error over the profile domain at 41 radii,
    9 angles and 17 axial points (_profile_domain), and reports the maximum
    relative deviation of the fitted simplified form over that grid.
    simplified/exact = R(r; qprime)*(u + A_mf*w) is linear in A_mf, so the best
    A_mf at each qprime is one least-squares ratio clipped to [0.01, 0.9]: variable
    projection (Golub & Pereyra, Inverse Problems 19, R1 (2003)).  qprime is the
    first zero of the projected cost's slope in [0.5q, 3q] (the lower-cost end if
    there is none), bracketed by 3 vectorised stages of 64 nodes and read off the
    chord of the last cell: within about 1e-10 of the stationary point.
    """
    r, phi, z = _profile_domain(p, 41, 9, 17)
    phi = phi[:, np.newaxis]
    # broadcast (r, phi, z) grid: the Bessel functions see only the 41 radii, r0 among them
    exact = _exact_unnormalized(p, r[:, np.newaxis, np.newaxis], phi, z)
    if not (exact > 1e-150 * (norm := _trap_norm(p, exact[0, 4, 0]))).all():    # phi[4] = z[0] = 0
        raise ValueError(f"exact profile falls 150 decades on the fit grid: q*r0={p.q * p.r0:.3g}, s={p.s!r}")
    weight = np.cos(phi) ** 2 * norm / exact    # below 1e150, so its squares sum finitely
    axial = np.stack([np.sin(p.beta * z) ** 2, np.cos(p.beta * z) ** 2], axis=1)    # (w, u) / weight
    # per-r sums over (phi, z): up to a constant, the cost is quadratic in R(r) and A_mf
    sw, su = (weight.sum(axis=1) @ axial).T
    ww, uw, uu = ((weight**2).sum(axis=1) @ (axial[:, [0, 0, 1]] * axial[:, [0, 1, 1]])).T
    # their rows times R(r), then R(r)^2, give the best A_mf's numerator and denominator and the
    # cost's slope over 4 at that A_mf, s0 + A_mf*(s1 - A_mf*s2): exact by the envelope theorem
    d, zero, ratio = r - p.r0, np.zeros(r.size), r / p.r0
    moments = np.vstack([np.stack([sw, zero, d * su, d * sw, zero], axis=1),
                         np.stack([-uw, ww, -d * uu, -2.0 * d * uw, d * ww], axis=1)])

    def projected(qprime):      # (slope, A_mf, R(r)) at each qprime
        rad = np.exp(np.asarray(qprime)[..., np.newaxis] * (-2.0 * d)) / ratio
        num, den, s0, s1, s2 = (np.concatenate([rad, rad * rad], axis=-1) @ moments).T
        a_mf = np.minimum(np.maximum(num / den, 0.01), 0.9)
        return s0 + a_mf * (s1 - a_mf * s2), a_mf, rad

    lo, hi = 0.5 * p.q, 3.0 * p.q
    while hi - lo > 2e-5 * p.q:         # 3 stages, each cell 63 times narrower than the last
        slope = projected(x := lo + (hi - lo) * _STAGE)[0]
        i = int(np.argmax(slope > 0.0))     # the first node past which the cost rises
        if i == 0:          # no sign change: the end where the cost is lower
            lo = hi = x[0] if slope[0] > 0.0 else x[-1]
        else:
            (lo, hi), (s_lo, s_hi) = x[i - 1:i + 1], slope[i - 1:i + 1]
    qprime = float(lo - s_lo * (hi - lo) / (s_hi - s_lo) if hi > lo else lo)     # the chord's zero
    _, a_mf, rad = projected(qprime)
    error = np.max(np.abs(rad[:, np.newaxis, np.newaxis] * weight * (axial @ [a_mf, 1.0]) - 1.0))
    return SimplifiedFit(qprime=qprime, A_mf=float(a_mf), max_rel_error=float(error), params=p)
