"""Independent brute-force verifiers for the closed-form results.

Everything here deliberately avoids the closed-form code paths: the linear
response is checked against a dense 5x5 complex solve of the stationarity
equations as written, the (matrix, rhs) pair of `build_linear_system` (all
random cases in one stacked closed-form call and one stacked solve),
quadratures against adaptive Simpson, and the Bessel evaluations against
60-digit ascending-series values stored at the validation points in
data/bessel_k_series.json, which the tests recompute exactly.  The integrands
handed to `adaptive_quadrature` must broadcast over numpy arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import fiber_mode, linear_response, saturation
from .params import ModeFunctionParams, PhysicalConfig, DerivedRates, derive_rates, mhz
from .linear_response import ProbeSettings, SteadyStateAmplitudes


def build_linear_system(rates: DerivedRates, probe: ProbeSettings, g1: float,
                        g2: float) -> tuple[np.ndarray, np.ndarray]:
    """The 5x5 complex stationarity system (matrix, rhs) in the variable order (a1, a2, b, s1, s2),
    the five fixed-point equations row by row; array-valued rates, probe fields or couplings
    stack one system per element."""
    dc, da = probe.delta_c, probe.delta_a
    shape = np.broadcast_shapes(*map(np.shape, (dc, da, probe.drive_E1, g1, g2, *vars(rates).values())))
    m = np.zeros(shape + (5, 5), dtype=complex)
    rhs = np.zeros(shape + (5,), dtype=complex)

    m[..., 0, 0] = rates.kappa_1p + 1j * dc
    m[..., 0, 2] = 1j * rates.v1
    m[..., 0, 3] = 1j * g1
    rhs[..., 0] = -1j * probe.drive_E1

    m[..., 1, 1] = rates.kappa_2p + 1j * dc
    m[..., 1, 2] = 1j * rates.v2
    m[..., 1, 4] = 1j * g2

    m[..., 2, 2] = rates.kappa_b + 1j * dc
    m[..., 2, 0] = 1j * rates.v1
    m[..., 2, 1] = 1j * rates.v2

    m[..., 3, 3] = rates.gamma_perp + 1j * da
    m[..., 3, 0] = 1j * g1

    m[..., 4, 4] = rates.gamma_perp + 1j * da
    m[..., 4, 1] = 1j * g2

    return m, rhs


def solve_dense(system: tuple[np.ndarray, np.ndarray]) -> SteadyStateAmplitudes:
    """Dense solve of (matrix, rhs), stacked systems in one call, with a residual check per system."""
    matrix, rhs = system
    try:
        x = np.linalg.solve(matrix, rhs[..., np.newaxis])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular linear system: {exc}") from exc
    residual = np.max(np.abs(matrix @ x - rhs[..., np.newaxis]), axis=(-2, -1))
    scale = np.maximum(np.max(np.abs(rhs), axis=-1), 1e-300)
    bad = (residual > 1e-12 * scale) & (scale > 1e-290)
    if np.any(bad):
        raise RuntimeError(f"dense solve residual too large: {np.max(residual[bad] / scale[bad]):.3e}")
    return SteadyStateAmplitudes(*np.moveaxis(x[..., 0], -1, 0))


def adaptive_quadrature(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson integration with Richardson correction, one depth at a time.

    `f` must broadcast over a 1-D array of abscissae: every interval still
    open at a depth is bisected in one call.  Each interval's test is the
    recursive rule's (|delta| <= 15 eps, eps halved per depth, no convergence
    by depth 40 raises), and the accepted pieces are summed in the recursion's
    order, so the result is the recursive one whenever `f` evaluates alike.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"integration bound {name}={bound!r} must be finite")
    a, m, b = np.array([lo]), np.array([0.5 * (lo + hi)]), np.array([hi])
    fa, fm, fb = np.split(f(np.concatenate((a, m, b))), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = tol
    levels = []             # per depth: (value of each interval, accepted mask)
    for depth in range(41):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = np.split(f(np.concatenate((lm, rm))), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if not np.isfinite(delta).all():    # NaN never passes the test: every split would follow
            raise RuntimeError(f"adaptive quadrature met a non-finite integrand at depth {depth}")
        done = np.abs(delta) <= 15.0 * eps
        levels.append((left + right + delta / 15.0, done))
        if done.all():
            break
        if depth >= 40:
            raise RuntimeError("adaptive quadrature failed to converge at depth 40")
        open_ = ~done

        def halves(first, second):
            """Each open interval's left-half entry followed by its right-half entry."""
            return np.stack((first[open_], second[open_]), axis=1).ravel()

        a, fa, b, fb, m, fm, whole = (
            halves(a, m), halves(fa, fm), halves(m, b), halves(fm, fb),
            halves(lm, rm), halves(flm, frm), halves(left, right),
        )
        eps /= 2.0
    for depth in range(len(levels) - 2, -1, -1):
        value, done = levels[depth]
        children = levels[depth + 1][0]
        value[~done] = children[0::2] + children[1::2]
    return float(levels[0][0][0])


@dataclass(frozen=True)
class CheckResult:
    """One oracle verdict: it passes when max_error < tolerance, so a NaN error fails."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _check_linear_closed_form(rates: DerivedRates, cfg: PhysicalConfig, draws: int, seed: int):
    """Worst relative error of the closed form against the dense solve over `draws` random
    cases, drawn as arrays: one stacked closed-form call against one stacked solve."""
    rng = np.random.default_rng(seed)
    drawn = ("kappa_1l", "kappa_1loss", "kappa_2r", "kappa_2loss", "kappa_bloss", "v1", "v2")
    d = {name: getattr(rates, name) * 10.0 ** rng.uniform(-1.0, 1.0, draws) for name in drawn}
    r = replace(rates, **d)                 # the composite rates follow the drawn arrays
    # delta_c, delta_a, drive_E1, g1, g2: drawn in this order
    probe = ProbeSettings(rng.uniform(-mhz(50), mhz(50), draws), rng.uniform(-mhz(50), mhz(50), draws),
                          rng.uniform(0.1, 10.0, draws))
    g1 = cfg.g1_eff * 10.0 ** rng.uniform(-1.0, 1.0, draws)
    g2 = cfg.g2_eff * 10.0 ** rng.uniform(-1.0, 1.0, draws)
    closed = np.stack(list(vars(linear_response.steady_state(r, probe, g1, g2)).values()), axis=-1)
    dense = np.stack(list(vars(solve_dense(build_linear_system(r, probe, g1, g2))).values()), axis=-1)
    err = np.max(np.abs(closed - dense), axis=-1) / np.maximum(np.max(np.abs(dense), axis=-1), 1e-300)
    return float(np.max(err))


def run_validation(cfg: PhysicalConfig | None = None, draws: int = 200, seed: int = 7) -> list[CheckResult]:
    """Cross-check every closed-form path against its oracle for one config."""
    if cfg is None:
        cfg = PhysicalConfig()
    rates = derive_rates(cfg)
    fit = fiber_mode.fit_simplified(ModeFunctionParams())    # the reference fit
    results = []

    err = _check_linear_closed_form(rates, cfg, draws, seed)
    results.append(CheckResult("linear closed form vs dense solve", err, 1e-9))

    # Gauss-Hermite atom sum vs adaptive quadrature of the cloud integral
    a_mf, qx = fit.A_mf, fit.qprime * fit.params.r0
    worst = 0.0
    for x2 in (0.25, 1.0, 4.0):
        for sigma in (0.0, 0.3):
            gh = saturation.quadrature_saturation_term(92.0, a_mf, sigma, qx, x2)

            def integrand(u):
                ratio2 = (sigma * u) ** 2
                s = np.exp(-2.0 * qx * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5
                return np.exp(-u * u) * (
                    1.0 - 1.0 / np.sqrt((1.0 + a_mf * x2 * s) * (1.0 + x2 * s))
                )

            ref = (
                92.0 * 2.0 / (1.0 + a_mf) / x2 / math.sqrt(math.pi)
                * adaptive_quadrature(integrand, -8.0, 8.0, 1e-13)
            )
            worst = max(worst, abs(gh - ref) / abs(ref))
    results.append(CheckResult("Gauss-Hermite vs adaptive quadrature", worst, 1e-9))

    # production Bessel evaluations vs the stored series values, K[order][i] at x[i]
    table = json.loads(resources.files("fiberqed").joinpath("data/bessel_k_series.json").read_text())
    worst = max(abs(fiber_mode.bessel_k(order, x) - ref) / abs(ref)
                for order, row in enumerate(table["K"]) for x, ref in zip(table["x"], row))
    results.append(CheckResult("Bessel K vs series oracle", worst, 1e-7))

    # axial average of the fitted simplified profile vs its closed form (1 + A)/2
    period = math.pi / fit.params.beta
    avg = adaptive_quadrature(
        lambda z: fiber_mode.g_squared_simplified(fit, fit.params.r0, 0.0, z), 0.0, period, 1e-14
    ) / period
    err = abs(avg - 0.5 * (1.0 + fit.A_mf))
    results.append(CheckResult("axial average of simplified profile", err, 1e-10))

    return results
