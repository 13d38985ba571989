import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from fiberqed import saturation
from fiberqed.fiber_mode import fit_simplified, make_mode_params
from fiberqed.linear_response import transmission_spectrum
from fiberqed.params import PhysicalConfig, derive_rates, mhz
from fiberqed.saturation import (
    SaturationConfig,
    collective_saturation_term,
    quadrature_saturation_term,
    saturation_photon_number,
    scaled_drive_from_power,
    solve_saturation,
    _find_roots,
    _response_function,
)
from dataclasses import replace

CFG = PhysicalConfig()
RATES = derive_rates(CFG)


def _config(which, **kw):
    g0 = CFG.g1_0 if which == 1 else CFG.g2_0
    g_eff = CFG.g1_eff if which == 1 else CFG.g2_eff
    base = dict(
        which_cavity=which,
        g0=g0,
        N_eff=(g_eff / g0) ** 2,
        power_grid=np.geomspace(1e-13, 1e-6, 71),
    )
    base.update(kw)
    return SaturationConfig(**base)


def test_saturation_photon_numbers():
    n1 = saturation_photon_number(CFG.g1_0, RATES)
    n2 = saturation_photon_number(CFG.g2_0, RATES)
    assert n1 == pytest.approx(6.852444444444445, rel=1e-12)
    assert n2 == pytest.approx(2.676736111111111, rel=1e-12)
    assert n1 == pytest.approx(6.9, abs=0.1)
    assert n2 == pytest.approx(2.7, abs=0.1)


def test_saturation_photon_number_unit_case():
    gamma_par = 2.0 * (RATES.gamma_perp - CFG.gamma_las)
    g0 = 0.5 * math.sqrt(RATES.gamma_perp * gamma_par)
    assert saturation_photon_number(g0, RATES) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        saturation_photon_number(0.0, RATES)


def test_effective_atom_numbers():
    assert (CFG.g1_eff / CFG.g1_0) ** 2 == pytest.approx(92.0, abs=1.0)
    assert (CFG.g2_eff / CFG.g2_0) ** 2 == pytest.approx(37.0, abs=1.0)


def test_collective_term_limits():
    assert collective_saturation_term(92.0, 0.17, 0.0) == 92.0
    # asymptotic 2 N / ((1+A) x^2)
    big = 1e8
    assert collective_saturation_term(92.0, 0.17, big) == pytest.approx(
        2.0 * 92.0 / (1.17 * big), rel=1e-3
    )
    with pytest.raises(ValueError):
        collective_saturation_term(92.0, 0.17, -1.0)


def test_collective_term_monotone_and_continuous():
    x2 = np.geomspace(1e-4, 1e6, 200)
    vals = collective_saturation_term(92.0, 0.17, x2)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] == pytest.approx(92.0, rel=1e-3)
    assert collective_saturation_term(92.0, 0.17, 1e-8) == pytest.approx(92.0, rel=1e-6)


def test_collective_term_frozen_reference():
    # frozen from Gauss-Hermite quadrature with uniform coupling s == 1
    assert collective_saturation_term(92.0, 0.17, 1.0) == pytest.approx(
        54.45763856004028, rel=1e-12
    )


def _collective_mp(N_eff, A_mf, x2, s=1.0):
    """N_eff*2/((1+A)*x2) * (1 - 1/sqrt((1+A*x2*s)(1+x2*s))) at 50 digits."""
    x2s = mpmath.mpf(x2) * s
    bracket = 1 - 1 / mpmath.sqrt((1 + A_mf * x2s) * (1 + x2s))
    return N_eff * 2 / (1 + mpmath.mpf(A_mf)) / mpmath.mpf(x2) * bracket


@pytest.mark.parametrize("x2", [1e-8, 1e-10, 1e-13])
def test_low_field_terms_match_mpmath(x2):
    # 1 - 1/sqrt(...) cancels at small x2; the terms must keep full precision
    N_eff, A_mf, sigma, qx = 92.0, 0.17, 0.3, 1.4424
    with mpmath.workdps(50):
        ref = _collective_mp(N_eff, A_mf, x2)
        assert collective_saturation_term(N_eff, A_mf, x2) == pytest.approx(float(ref), rel=1e-13)
        # the same 96-node Gauss-Hermite rule, summed in high precision
        total = mpmath.mpf(0)
        for u, w in zip(*np.polynomial.hermite.hermgauss(96)):
            ratio2 = (sigma * mpmath.mpf(u)) ** 2
            s = mpmath.exp(-2 * qx * (mpmath.sqrt(1 + ratio2) - 1)) / (1 + ratio2) ** 1.5
            total += mpmath.mpf(w) * _collective_mp(N_eff, A_mf, x2, s)
        ref = total / mpmath.sqrt(mpmath.pi)
    got = quadrature_saturation_term(N_eff, A_mf, sigma, qx, x2)
    assert got == pytest.approx(float(ref), rel=1e-13)


def test_quadrature_reduces_to_collective():
    for x2 in (0.0, 0.25, 1.0, 4.0, 100.0):
        gh = quadrature_saturation_term(92.0, 0.17, 0.0, 1.4424, x2)
        assert gh == pytest.approx(collective_saturation_term(92.0, 0.17, x2), abs=1e-10 * 92.0)


def test_quadrature_frozen_reference():
    # frozen from adaptive Simpson at 1e-13 tolerance
    got = quadrature_saturation_term(92.0, 0.17, 0.3, 1.4424, 2.0)
    assert got == pytest.approx(37.15619748687469, rel=1e-9)


def test_quadrature_zero_field_cloud_average():
    # with a finite cloud the zero-field limit is N_eff times the mean coupling
    sigma, qx = 0.3, 1.4424
    got0 = quadrature_saturation_term(92.0, 0.17, sigma, qx, 0.0)
    small = quadrature_saturation_term(92.0, 0.17, sigma, qx, 1e-6)
    assert got0 == pytest.approx(small, rel=1e-5)
    assert got0 < 92.0
    with pytest.raises(ValueError):
        quadrature_saturation_term(92.0, 0.17, -0.1, qx, 1.0)


@pytest.mark.parametrize("which", [1, 2])
def test_low_power_limit_matches_linear_model(which):
    cfg = _config(which)
    curve = solve_saturation(cfg, RATES)
    g_eff = cfg.g0 * math.sqrt(cfg.N_eff)
    g1, g2 = (g_eff, 0.0) if which == 1 else (0.0, g_eff)
    lin = transmission_spectrum(RATES, g1, g2, grid=np.array([-1.0, 0.0, 1.0]))
    assert curve.points[0].transmission == pytest.approx(lin.transmission[1], rel=0.01)


@pytest.mark.parametrize("which", [1, 2])
def test_high_power_limit_and_monotonicity(which):
    curve = solve_saturation(_config(which), RATES)
    assert curve.points[-1].P_in == pytest.approx(1e-6)
    assert curve.points[-1].transmission >= 0.99
    t = [p.transmission for p in curve.points]
    assert all(b >= a - 1e-12 for a, b in zip(t, t[1:]))
    assert all(0.0 <= x <= 1.0 + 1e-6 for x in t)
    assert all(p.n_roots % 2 == 1 for p in curve.points)


def test_knee_location():
    # transmission rises through its mid range between 1e2 and 1e4 pW
    curve = solve_saturation(_config(1), RATES)
    lo, hi = curve.points[0].transmission, curve.points[-1].transmission
    mid = 0.5 * (lo + hi)
    knee = next(p.P_in for p in curve.points if p.transmission > mid)
    assert 1e-10 < knee < 1e-8  # 1e2..1e4 pW


def test_root_residuals():
    cfg = _config(1)
    curve = solve_saturation(cfg, RATES)
    F, prefactor = _response_function(cfg, RATES)
    for p in curve.points:
        y = scaled_drive_from_power(p.P_in, RATES, curve.n_sat, CFG.lambda_probe)
        x = math.sqrt(p.transmission / prefactor) * y
        assert abs(y - x * F(x * x)) < 1e-10 * y


def test_quadrature_model_close_to_closed_form():
    closed = solve_saturation(_config(1), RATES)
    narrow = solve_saturation(
        _config(1, model="quadrature", sigma_y_over_x0=0.05), RATES
    )
    for a, b in zip(closed.points, narrow.points):
        assert b.transmission == pytest.approx(a.transmission, rel=0.02)
    # at sigma_y/x0 = 0.1 the cloud average already shifts the low-power
    # transmission by ~3.4% (frozen honest value)
    wide = solve_saturation(_config(1, model="quadrature", sigma_y_over_x0=0.1), RATES)
    dev = max(
        abs(b.transmission - a.transmission) / a.transmission
        for a, b in zip(closed.points, wide.points)
    )
    assert dev == pytest.approx(0.0342, abs=0.005)


def test_no_atoms_limit_is_empty_cavity():
    # vanishing atom number reduces to the linear empty chain: T == 1
    curve = solve_saturation(_config(1, N_eff=1e-12), RATES)
    for p in curve.points:
        assert p.transmission == pytest.approx(1.0, abs=1e-9)


def _reference_roots(F, y, n_sat):
    """Per-power root search: a 400-point scan, then brentq in each sign change."""
    def G(x):
        return x * F(x * x) - y

    sqrt_nsat = math.sqrt(n_sat)
    grid = np.geomspace(1e-4 * sqrt_nsat, 1e3 * sqrt_nsat, 400)
    vals = grid * F(grid * grid) - y
    roots = [grid[i] for i in np.flatnonzero(vals == 0.0)]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        roots.append(optimize.brentq(G, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-14))
    assert roots, "no sign change"
    return sorted(roots)


def _reference_curve(cfg):
    """Power by power: (T, n_roots, branch) along the nearest-root continuation,
    and every power's roots."""
    n_sat = saturation_photon_number(cfg.g0, RATES)
    F, prefactor = _response_function(cfg, RATES)
    points, all_roots, previous = [], [], None
    for P in cfg.power_grid:
        y = scaled_drive_from_power(P, RATES, n_sat, CFG.lambda_probe)
        roots = _reference_roots(F, y, n_sat)
        x = roots[0] if previous is None else min(roots, key=lambda r: abs(r - previous))
        previous = x
        points.append((prefactor * x**2 / y**2, len(roots), "low" if x == roots[0] else "high"))
        all_roots.append(roots)
    return points, all_roots


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("model, sigma", [("closed_form", 0.0), ("quadrature", 0.3)])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_shared_scan_matches_per_power_brentq(which, model, sigma, N_eff):
    cfg = _config(which, N_eff=N_eff, model=model, sigma_y_over_x0=sigma,
                  power_grid=np.geomspace(1e-13, 1e-6, 61))
    curve = solve_saturation(cfg, RATES)
    reference, reference_roots = _reference_curve(cfg)
    assert [(p.n_roots, p.branch) for p in curve.points] == [r[1:] for r in reference]
    for p, (T, _, _) in zip(curve.points, reference):
        assert p.transmission == pytest.approx(T, rel=1e-12)
    if N_eff == 2000.0:     # the bistable region is part of the check
        assert any(p.n_roots == 3 for p in curve.points)

    F, _ = _response_function(cfg, RATES)
    y = scaled_drive_from_power(cfg.power_grid, RATES, curve.n_sat, CFG.lambda_probe)
    for yi, roots, ref in zip(y, _find_roots(F, y, curve.n_sat), reference_roots):
        assert np.all(np.abs(roots * F(roots * roots) - yi) <= 1e-12 * yi)
        assert roots == pytest.approx(ref, rel=1e-13)


def test_bracketing_failure_outside_the_scan():
    with pytest.raises(RuntimeError, match="saturation root bracketing failed"):
        solve_saturation(_config(1, power_grid=np.geomspace(1e-8, 1e-2, 7)), RATES)


def test_scaled_drive_accepts_arrays():
    n_sat = saturation_photon_number(CFG.g1_0, RATES)
    powers = np.geomspace(1e-12, 1e-6, 5)
    y = scaled_drive_from_power(powers, RATES, n_sat, CFG.lambda_probe)
    assert isinstance(y, np.ndarray) and y.shape == powers.shape
    for P, yi in zip(powers, y):
        scalar = scaled_drive_from_power(P, RATES, n_sat, CFG.lambda_probe)
        assert type(scalar) is float and scalar == yi


def test_scaled_drive_roundtrip():
    n_sat = saturation_photon_number(CFG.g1_0, RATES)
    for P in (1e-12, 3.7e-10, 1e-6):
        y = scaled_drive_from_power(P, RATES, n_sat, CFG.lambda_probe)
        photon_energy = 2.0 * math.pi * 1.054571817e-34 * 299792458.0 / CFG.lambda_probe
        back = y**2 * photon_energy * RATES.kappa_1p**2 / (2.0 * RATES.kappa_1l) * n_sat
        assert back == pytest.approx(P, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(3).validate()
    with pytest.raises(ValueError, match="g0 must be positive"):
        solve_saturation(_config(1, g0=0.0), RATES)     # via saturation_photon_number
    with pytest.raises(ValueError):
        _config(1, N_eff=-1.0).validate()
    with pytest.raises(ValueError):
        _config(1, model="mystery").validate()
    with pytest.raises(ValueError):
        _config(1, power_grid=np.array([1e-9, 1e-10])).validate()
    with pytest.raises(ValueError):
        _config(1, power_grid=np.array([])).validate()


def test_default_mode_function_is_the_reference_fit():
    fit = fit_simplified(make_mode_params())
    cfg = SaturationConfig()
    assert cfg.A_mf == pytest.approx(fit.A_mf, rel=1e-12)
    assert cfg.q_prime_x0 == pytest.approx(fit.qprime * fit.params.r0, rel=1e-12)


def _hand_derived_response(cfg, rates):
    """The chain reduced by hand, cavity by cavity: the reference for
    _response_function, which reads F off the linear closed form instead."""
    V1 = rates.v1**2 / (rates.kappa_b * rates.kappa_1p)
    V2 = rates.v2**2 / (rates.kappa_b * rates.kappa_2p)
    if cfg.model == "closed_form":
        def term(x2):
            return collective_saturation_term(cfg.N_eff, cfg.A_mf, x2)
    else:
        def term(x2):
            return quadrature_saturation_term(cfg.N_eff, cfg.A_mf, cfg.sigma_y_over_x0,
                                              cfg.q_prime_x0, x2)

    if cfg.which_cavity == 1:
        C0 = cfg.g0**2 / (rates.kappa_1p * rates.gamma_perp)
        base = 1.0 + V1 / (1.0 + V2)

        def F(x2):
            return base + C0 * term(x2)

        prefactor = ((1.0 + V1 + V2) / (1.0 + V2)) ** 2
    else:
        C0 = cfg.g0**2 / (rates.kappa_2p * rates.gamma_perp)
        lead = (rates.v1 * rates.kappa_2p) / (rates.v2 * rates.kappa_1p)
        fiber = 1.0 + rates.kappa_b * rates.kappa_1p / rates.v1**2
        back = rates.v2**2 * rates.kappa_1p / (rates.v1**2 * rates.kappa_2p) / fiber

        def F(x2):
            return lead * fiber * (1.0 + back + C0 * term(x2))

        prefactor = (
            (1.0 + V1 + V2) * rates.kappa_b * rates.kappa_2p / (rates.v1 * rates.v2)
        ) ** 2
    return F, prefactor


def _random_case(rng, which, model):
    """A random physical config, and a saturation config whose 41 drives all
    lie inside the scan bracket: |X| from 1e-3 to 1e2 times sqrt(n_sat)."""
    t1, t2, t3, t4 = rng.uniform(0.01, 0.9, 4)
    phys = PhysicalConfig(
        T1=t1, T2=t2, T3=t3, T4=t4,
        L1=rng.uniform(0.2, 3.0), L2=rng.uniform(0.2, 3.0), Lf=rng.uniform(0.1, 10.0),
        alpha1=rng.uniform(0.001, 0.1), alpha2=rng.uniform(0.001, 0.1),
        alphaf=rng.uniform(0.001, 0.1),
        gamma_par=mhz(rng.uniform(1.0, 10.0)), gamma_las=mhz(rng.uniform(0.0, 1.0)),
    )
    rates = derive_rates(phys)
    cfg = SaturationConfig(
        which_cavity=which, g0=mhz(10.0 ** rng.uniform(-1.0, 0.5)),
        N_eff=10.0 ** rng.uniform(0.0, math.log10(3000.0)), A_mf=rng.uniform(0.01, 0.9),
        model=model, sigma_y_over_x0=rng.uniform(0.0, 0.5) if model == "quadrature" else 0.0,
        q_prime_x0=rng.uniform(0.5, 2.0),
    )
    n_sat = saturation_photon_number(cfg.g0, rates)
    F, _ = _hand_derived_response(cfg, rates)
    x = np.array([1e-3, 1e2]) * math.sqrt(n_sat)
    y = np.geomspace(*(x * F(x * x)), 41)
    per_watt = scaled_drive_from_power(1.0, rates, n_sat, phys.lambda_probe)
    return rates, replace(cfg, power_grid=(y / per_watt) ** 2), n_sat


def test_response_function_matches_the_hand_derived_chain(monkeypatch):
    rng = np.random.default_rng(2024)
    bistable = 0
    for i in range(200):
        which, model = 1 + i % 2, ("closed_form", "quadrature")[i // 2 % 2]
        rates, cfg, n_sat = _random_case(rng, which, model)
        F, prefactor = _response_function(cfg, rates)
        F_ref, prefactor_ref = _hand_derived_response(cfg, rates)
        x2 = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 33) * n_sat])
        np.testing.assert_allclose(F(x2), F_ref(x2), rtol=1e-13, atol=0.0)
        assert prefactor == pytest.approx(prefactor_ref, rel=1e-13)

        curve = solve_saturation(cfg, rates)
        with monkeypatch.context() as m:
            m.setattr(saturation, "_response_function", _hand_derived_response)
            reference = solve_saturation(cfg, rates)
        got = [(p.n_roots, p.branch) for p in curve.points]
        assert got == [(p.n_roots, p.branch) for p in reference.points]
        bistable += any(n == 3 for n, _ in got)
    assert bistable > 0     # the bistable region is part of the check
