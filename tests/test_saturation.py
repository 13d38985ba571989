import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import optimize

from fiberqed import linear_response, params, saturation
from fiberqed.fiber_mode import fit_simplified, make_mode_params
from fiberqed.linear_response import ProbeSettings, transmission_spectrum
from fiberqed.params import PhysicalConfig, derive_rates, mhz
from fiberqed.saturation import (
    SaturationConfig,
    quadrature_saturation_term,
    saturation_photon_number,
    scaled_drive_from_power,
    solve_saturation,
    _brackets,
    _find_roots,
    _response_function,
)
from dataclasses import replace

from references import per_unit_field

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


@pytest.mark.parametrize("g0", [1e-300, 1e-160, 1e200, math.nan])
def test_n_sat_must_come_out_positive_and_finite(g0):
    # g0^2 underflows to 0 (1e-300), n_sat overflows (1e-160) or g0^2 overflows (1e200)
    with pytest.raises(ValueError, match="g0 must be positive"):
        saturation_photon_number(g0, RATES)


def test_n_sat_names_gamma_par_when_it_is_zero():
    # gamma_par = 0 with gamma_las > 0: damped atoms, but n_sat is 0 for any g0
    rates = derive_rates(PhysicalConfig(gamma_par=0.0))
    message = r"^gamma_par=0\.0 rad/s must be positive for a positive n_sat$"
    with pytest.raises(ValueError, match=message):
        saturation_photon_number(CFG.g1_0, rates)
    with pytest.raises(ValueError, match=message):
        solve_saturation(SaturationConfig(g0=CFG.g1_0, N_eff=92.0), rates)


def test_effective_atom_numbers():
    assert (CFG.g1_eff / CFG.g1_0) ** 2 == pytest.approx(92.0, abs=1.0)
    assert (CFG.g2_eff / CFG.g2_0) ** 2 == pytest.approx(37.0, abs=1.0)


def test_collective_term_limits():
    assert quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, 0.0) == 92.0
    # asymptotic 2 N / ((1+A) x^2)
    big = 1e8
    assert quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, big) == pytest.approx(
        2.0 * 92.0 / (1.17 * big), rel=1e-3
    )
    with pytest.raises(ValueError):
        quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, -1.0)


def test_collective_term_monotone_and_continuous():
    x2 = np.geomspace(1e-4, 1e6, 200)
    vals = quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, x2)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] == pytest.approx(92.0, rel=1e-3)
    assert quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, 1e-8) == pytest.approx(92.0, rel=1e-6)


def test_collective_term_frozen_reference():
    # frozen from Gauss-Hermite quadrature with uniform coupling s == 1
    assert quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, 1.0) == pytest.approx(
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
        assert quadrature_saturation_term(N_eff, A_mf, 0.0, 1.0, x2) == pytest.approx(float(ref), rel=1e-13)
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
        assert gh == pytest.approx(quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, x2), abs=1e-10 * 92.0)


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


def _full_rule_term(N_eff, A_mf, sigma, qx, x2):
    """The atom summation by the whole symmetric 96-node Gauss-Hermite rule."""
    u, w = np.polynomial.hermite.hermgauss(96)
    ratio2 = (sigma * u) ** 2
    s = np.exp(-2.0 * qx * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5
    xs = x2[:, np.newaxis] * s
    fraction = -np.expm1(-0.5 * (np.log1p(A_mf * xs) + np.log1p(xs)))
    integral = np.sum(w * fraction, axis=-1) / math.sqrt(math.pi)
    s_avg = np.sum(w * s) / math.sqrt(math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x2 > 0.0, N_eff * 2.0 / (1.0 + A_mf) / x2 * integral, N_eff * s_avg)


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.1, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("qx", [0.3, 1.1, 2.0, 5.0])
def test_folded_rule_matches_the_full_96_node_sum(sigma, qx):
    # the 27 folded nodes drop only weights below 1e-18 of the largest
    x2 = np.concatenate([[0.0], np.geomspace(1e-14, 1e14, 57)])
    got = quadrature_saturation_term(92.0, 0.17, sigma, qx, x2)
    np.testing.assert_allclose(got, _full_rule_term(92.0, 0.17, sigma, qx, x2),
                               rtol=1e-15, atol=0.0)
    if sigma == 0.0:
        np.testing.assert_allclose(got, quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, x2),
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("x2", [-0.5, -50.0, np.array([1.0, -1e-12]), math.nan, np.array([1.0, math.nan])])
def test_both_terms_reject_negative_field(x2):
    with pytest.raises(ValueError, match="X_abs2 must be non-negative"):
        quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, x2)
    with pytest.raises(ValueError, match="X_abs2 must be non-negative"):
        quadrature_saturation_term(92.0, 0.17, 0.3, 1.4424, x2)


@pytest.mark.parametrize("N_eff, A_mf, sigma, qx, name", [
    (-5.0, 0.17, 0.0, 1.4424, "N_eff"), (math.nan, 0.17, 0.0, 1.4424, "N_eff"),
    (92.0, 7.0, 0.0, 1.4424, "A_mf"), (92.0, math.nan, 0.0, 1.4424, "A_mf"),
    (92.0, 0.17, math.nan, 1.4424, "sigma_y_over_x0"), (92.0, 0.17, -0.3, 1.4424, "sigma_y_over_x0"),
    (92.0, 0.17, 0.3, math.nan, "q_prime_x0"), (92.0, 0.17, 0.3, -3.0, "q_prime_x0"),
])
def test_both_terms_check_their_inputs_as_saturation_config_does(N_eff, A_mf, sigma, qx, name):
    # one rule per input: the config and the atom sum, at its width and at zero width, reject it
    # with the same message; a config of nonzero width names the quadrature model, as closed_form
    # needs sigma = 0
    model = "quadrature" if sigma > 0.0 else "closed_form"
    with pytest.raises(ValueError, match=name) as config_error:
        SaturationConfig(N_eff=N_eff, A_mf=A_mf, model=model, sigma_y_over_x0=sigma, q_prime_x0=qx)
    message = f"^{re.escape(str(config_error.value))}$"
    with pytest.raises(ValueError, match=message):
        quadrature_saturation_term(N_eff, A_mf, sigma, qx, 1.0)
    if name in ("N_eff", "A_mf"):
        with pytest.raises(ValueError, match=message):
            quadrature_saturation_term(N_eff, A_mf, 0.0, 1.0, 1.0)


def test_cloud_width_is_checked_once_per_config_and_per_term(monkeypatch):
    calls, check = [], params.check_cloud_width

    def counted(sigma):
        calls.append(sigma)
        check(sigma)

    monkeypatch.setattr(params, "check_cloud_width", counted)
    monkeypatch.setattr(saturation, "check_cloud_width", counted)
    SaturationConfig(model="quadrature", sigma_y_over_x0=0.3)
    assert calls == [0.3]
    quadrature_saturation_term(92.0, 0.17, 0.6, 1.4424, 1.0)
    assert calls == [0.3, 0.6]


def test_import_builds_no_gauss_hermite_rule():
    src = os.path.dirname(os.path.dirname(saturation.__file__))
    code = "import fiberqed; print(fiberqed.saturation._gauss_hermite.cache_info().currsize)"
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"


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
    h, f0, _ = _response_function(cfg, RATES)
    for p in curve.points:
        y = scaled_drive_from_power(p.P_in, RATES, curve.n_sat, CFG.lambda_probe)
        x = math.sqrt(p.transmission / (f0 * f0)) * y
        assert abs(y - h(x)) < 1e-10 * y


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


def _reference_roots(h, y, n_sat):
    """Per-power root search: a 400-point scan, then brentq in each sign change."""
    def G(x):
        return h(x) - y

    sqrt_nsat = math.sqrt(n_sat)
    grid = np.geomspace(1e-4 * sqrt_nsat, 1e3 * sqrt_nsat, 400)
    vals = h(grid) - y
    roots = [grid[i] for i in np.flatnonzero(vals == 0.0)]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        roots.append(optimize.brentq(G, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-14))
    assert roots, "no sign change"
    return sorted(roots)


def _per_drive(roots, n_roots, _turn=None):
    """_find_roots' flat root array split into each drive's roots; its third value, the
    first falling node, is not needed."""
    return np.split(roots, np.cumsum(n_roots)[:-1])


def _turning_points(h, n_sat):
    """The turning points of h, in increasing x: the sign changes of its exact slope on a dense
    20 001-node scan of the solver's bracket, each refined by brentq on the slope."""
    x = np.geomspace(1e-4, 1e3, 20001) * math.sqrt(n_sat)
    rising = h(x, slope=True)[1] > 0.0
    return [optimize.brentq(lambda t: h(np.array([t]), slope=True)[1, 0], x[i], x[i + 1],
                            xtol=1e-300, rtol=1e-14)
            for i in np.flatnonzero(rising[:-1] != rising[1:])]


def _branch(x, turning_points):
    """The branch of the S-curve that a root x lies on: below the first turning point (a
    maximum of h) or with none, "low"; above the last (a minimum), "high"; else "middle"."""
    if not turning_points or x < turning_points[0]:
        return "low"
    return "high" if x > turning_points[-1] else "middle"


def _reference_curve(cfg):
    """Power by power: (T, n_roots, branch) along the nearest-root continuation, its branch
    from the dense turning points, and every power's roots."""
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, f0, _ = _response_function(cfg, RATES)
    turning_points = _turning_points(h, n_sat)
    assert len(turning_points) in (0, 2)
    points, all_roots, previous = [], [], None
    for P in cfg.power_grid:
        y = scaled_drive_from_power(P, RATES, n_sat, CFG.lambda_probe)
        roots = _reference_roots(h, y, n_sat)
        x = roots[0] if previous is None else min(roots, key=lambda r: abs(r - previous))
        previous = x
        points.append((f0 * f0 * x**2 / y**2, len(roots), _branch(x, turning_points)))
        all_roots.append(roots)
    return points, all_roots


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("model, sigma", [("closed_form", 0.0), ("quadrature", 0.3)])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_shared_scan_matches_per_power_brentq(monkeypatch, which, model, sigma, N_eff):
    cfg = _config(which, N_eff=N_eff, model=model, sigma_y_over_x0=sigma,
                  power_grid=np.geomspace(1e-13, 1e-6, 61))
    curve = solve_saturation(cfg, RATES)
    reference, reference_roots = _reference_curve(cfg)
    assert [(p.n_roots, p.branch) for p in curve.points] == [r[1:] for r in reference]
    for p, (T, _, _) in zip(curve.points, reference):
        assert p.transmission == pytest.approx(T, rel=1e-12)
    if N_eff == 2000.0:     # the bistable region is part of the check
        assert any(p.n_roots == 3 for p in curve.points)
    if N_eff == 10.0:       # a monostable curve is on its one branch
        assert {p.branch for p in curve.points} == {"low"}
    elif (which, N_eff) != (2, 2000.0):     # that one is still bistable at 1e-6 W
        assert curve.points[-1].branch == "high"

    h, _, _ = _response_function(cfg, RATES)
    y = scaled_drive_from_power(cfg.power_grid, RATES, curve.n_sat, CFG.lambda_probe)
    found = _per_drive(*_find_roots(h, y, curve.n_sat))
    for yi, roots, ref in zip(y, found, reference_roots):
        assert np.all(np.abs(h(roots) - yi) <= 1e-12 * yi)
        assert roots == pytest.approx(ref, rel=1e-13)
    # the sorted-search brackets give the same floats as the sign table they replace
    with monkeypatch.context() as m:
        m.setattr(saturation, "_brackets", _sign_table_brackets)
        sign_table = _per_drive(*_find_roots(h, y, curve.n_sat))
    assert [r.tolist() for r in found] == [r.tolist() for r in sign_table]


def _sign_table_brackets(h, y):
    """The (drive, node) sign table that _brackets replaces: (drive, cell) where h > y
    changes across the cell, drive by drive and up in cell; a cell with a NaN end brackets
    nothing."""
    above = h > y[:, np.newaxis]
    return np.nonzero((above[:, :-1] != above[:, 1:]) & ~np.isnan(h[:-1] + h[1:]))


def test_sorted_search_brackets_equal_the_sign_table():
    rng = np.random.default_rng(1717)
    seen = dict.fromkeys(("non_monotone", "equal_adjacent", "on_node", "repeated",
                          "below", "above", "nan"), 0)
    for case in range(600):
        # levels on a coarse lattice, so adjacent equal values and exact node hits are common
        h = 1.0 + 0.25 * rng.integers(0, 12, rng.integers(2, 40))
        if case % 4 == 0:
            h = np.sort(h)[::rng.choice([-1, 1])]
        if case % 10 == 9:
            h[rng.integers(h.size)] = np.nan
        y = np.concatenate([rng.choice(h, rng.integers(0, 6)),          # on nodes
                            rng.uniform(0.5, 4.5, rng.integers(0, 20))])   # inside, below, above
        y = np.sort(np.repeat(y, rng.integers(1, 3, y.size)))
        y = y[~np.isnan(y)]
        got, ref = _brackets(h, y), _sign_table_brackets(h, y)
        assert len(got) == 2
        assert got[0].tolist() == ref[0].tolist() and got[1].tolist() == ref[1].tolist()
        finite = h[~np.isnan(h)]
        seen["non_monotone"] += bool(np.any(np.diff(finite) > 0) and np.any(np.diff(finite) < 0))
        seen["equal_adjacent"] += bool(np.any(h[1:] == h[:-1]))
        seen["on_node"] += bool(np.isin(y, h).any())
        seen["repeated"] += bool(np.any(np.diff(y) == 0.0))
        seen["below"] += bool(np.any(y < finite.min()))
        seen["above"] += bool(np.any(y > finite.max()))
        seen["nan"] += bool(np.isnan(h).any())
    assert min(seen.values()) >= 30, seen


def test_find_roots_names_an_unbracketed_drive():
    cfg = _config(1, N_eff=10.0)
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, _, _ = _response_function(cfg, RATES)
    grid = saturation._scan_grid(n_sat)
    hn = h(grid)
    assert np.all(np.diff(hn) > 0.0)    # monostable: each drive has one bracketing cell
    inside = 0.5 * (hn[200] + hn[201])
    assert _find_roots(h, np.array([inside]), n_sat)[1].tolist() == [1]
    message = ("^saturation root bracketing failed: "
               r"no sign change up to \|X\| = 1e3\*sqrt\(n_sat\)$")
    for y in ([0.5 * hn[0], inside], [inside, 2.0 * hn[-1]]):
        with pytest.raises(RuntimeError, match=message):
            _find_roots(h, np.array(y), n_sat)

    def h_nan(x, slope=False):      # NaN, value and slope, at the two nodes that bracket the drive
        out = h(x, slope)
        out[..., (x == grid[200]) | (x == grid[201])] = np.nan
        return out

    with pytest.raises(RuntimeError, match=message):
        _find_roots(h_nan, np.array([inside]), n_sat)


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
    # a config is checked when built
    with pytest.raises(ValueError, match="which_cavity"):
        _config(3)
    with pytest.raises(ValueError, match="g0 must be positive"):
        solve_saturation(_config(1, g0=0.0), RATES)     # via saturation_photon_number
    with pytest.raises(ValueError, match="N_eff"):
        _config(1, N_eff=-1.0)
    with pytest.raises(ValueError, match="mystery"):
        _config(1, model="mystery")
    with pytest.raises(ValueError, match="power_grid"):
        _config(1, power_grid=np.array([1e-9, 1e-10]))
    with pytest.raises(ValueError, match="power_grid"):
        _config(1, power_grid=np.array([]))
    # non-finite or out-of-range inputs are named instead of failing the root bracket
    for field, value in (
        ("g0", -1.0), ("g0", math.inf),
        ("N_eff", math.inf), ("N_eff", math.nan),
        ("sigma_y_over_x0", -0.1), ("sigma_y_over_x0", math.inf), ("sigma_y_over_x0", math.nan),
        ("A_mf", math.nan), ("A_mf", 7.0), ("A_mf", -0.1),
        ("q_prime_x0", math.nan), ("q_prime_x0", -3.0), ("q_prime_x0", 0.0), ("q_prime_x0", math.inf),
        ("power_grid", np.array([1e-12, math.nan, 1e-6])), ("power_grid", np.array([1e-12, math.inf])),
        ("power_grid", np.array([math.nan])), ("power_grid", np.array([0.0, 1e-6])),
    ):
        with pytest.raises(ValueError, match=field):
            _config(1, model="quadrature", **{field: value})
    with pytest.raises(ValueError, match="A_mf"):      # the case that used to solve silently
        _config(1, A_mf=7.0, q_prime_x0=-3.0)


def test_default_mode_function_is_the_reference_fit():
    fit = fit_simplified(make_mode_params())
    cfg = SaturationConfig()
    assert cfg.A_mf == pytest.approx(fit.A_mf, rel=1e-12)
    assert cfg.q_prime_x0 == pytest.approx(fit.qprime * fit.params.r0, rel=1e-12)


def _hand_derived_response(cfg, rates):
    """The chain reduced by hand, cavity by cavity: the reference for _response_function,
    which reads F off the linear closed form instead.  Returns (h, f0, f1) like it, f0 from
    the empty chain's transmission prefactor, and h(x, slope=True) takes the forward-difference
    slope that the solver used before its exact one."""
    V1 = rates.v1**2 / (rates.kappa_b * rates.kappa_1p)
    V2 = rates.v2**2 / (rates.kappa_b * rates.kappa_2p)
    if cfg.model == "closed_form":
        def term(x2):
            return quadrature_saturation_term(cfg.N_eff, cfg.A_mf, 0.0, 1.0, x2)
    else:
        def term(x2):
            return quadrature_saturation_term(cfg.N_eff, cfg.A_mf, cfg.sigma_y_over_x0,
                                              cfg.q_prime_x0, x2)

    if cfg.which_cavity == 1:
        C0 = cfg.g0**2 / (rates.kappa_1p * rates.gamma_perp)
        base = 1.0 + V1 / (1.0 + V2)

        def F(x2):
            return base + C0 * term(x2)

        f0, f1 = (1.0 + V1 + V2) / (1.0 + V2), base + C0 * cfg.N_eff
    else:
        C0 = cfg.g0**2 / (rates.kappa_2p * rates.gamma_perp)
        lead = (rates.v1 * rates.kappa_2p) / (rates.v2 * rates.kappa_1p)
        fiber = 1.0 + rates.kappa_b * rates.kappa_1p / rates.v1**2
        back = rates.v2**2 * rates.kappa_1p / (rates.v1**2 * rates.kappa_2p) / fiber

        def F(x2):
            return lead * fiber * (1.0 + back + C0 * term(x2))

        f0 = (1.0 + V1 + V2) * rates.kappa_b * rates.kappa_2p / (rates.v1 * rates.v2)
        f1 = lead * fiber * (1.0 + back + C0 * cfg.N_eff)

    def h(x, slope=False):
        value = x * F(x * x)
        if not slope:
            return value
        x_dx = x * (1.0 + 1e-7)
        return np.stack([value, (x_dx * F(x_dx * x_dx) - value) / (x_dx - x)])

    return h, f0, f1


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
    h, _, _ = _hand_derived_response(cfg, rates)
    y = np.geomspace(*h(np.array([1e-3, 1e2]) * math.sqrt(n_sat)), 41)
    per_watt = scaled_drive_from_power(1.0, rates, n_sat, phys.lambda_probe)
    return rates, replace(cfg, power_grid=(y / per_watt) ** 2), n_sat


def test_response_function_matches_the_hand_derived_chain(monkeypatch):
    rng = np.random.default_rng(2024)
    bistable = 0
    for i in range(200):
        which, model = 1 + i % 2, ("closed_form", "quadrature")[i // 2 % 2]
        rates, cfg, n_sat = _random_case(rng, which, model)
        h, f0, f1 = _response_function(cfg, rates)
        h_ref, f0_ref, f1_ref = _hand_derived_response(cfg, rates)
        x = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 33) * math.sqrt(n_sat)])
        np.testing.assert_allclose(h(x), h_ref(x), rtol=1e-13, atol=0.0)
        # F(0) = dh/dx at x = 0, for both
        assert h(x, slope=True)[1, 0] == pytest.approx(h_ref(1e-8 * x[1]) / (1e-8 * x[1]), rel=1e-13)
        assert (f0, f1) == pytest.approx((f0_ref, f1_ref), rel=1e-13)

        curve = solve_saturation(cfg, rates)
        with monkeypatch.context() as m:
            m.setattr(saturation, "_response_function", _hand_derived_response)
            reference = solve_saturation(cfg, rates)
        got = [(p.n_roots, p.branch) for p in curve.points]
        assert got == [(p.n_roots, p.branch) for p in reference.points]
        bistable += any(n == 3 for n, _ in got)
    assert bistable > 0     # the bistable region is part of the check


def test_a_drive_on_a_scan_node_gives_that_node_once_in_order():
    cfg = _config(1, N_eff=2000.0)
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, _, _ = _response_function(cfg, RATES)
    grid = saturation._scan_grid(n_sat)
    hn = h(grid)
    middle = np.flatnonzero(np.diff(hn) < 0.0) + 1     # nodes on the unstable middle branch
    k = middle[middle.size // 2]
    y = np.array([0.5 * hn[k], hn[k], 2.0 * hn[k]])
    roots = _per_drive(*_find_roots(h, y, n_sat))
    node_roots = roots[1]
    assert np.count_nonzero(node_roots == grid[k]) == 1
    assert node_roots.size == 3 and node_roots[1] == grid[k]
    assert np.all(np.diff(node_roots) > 0.0)
    for yi, r in zip(y, roots):
        assert np.all(np.abs(h(r) - yi) <= 1e-12 * yi)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("model, sigma", [("closed_form", 0.0), ("quadrature", 0.3)])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_one_curve_is_one_scan_and_a_few_refinement_passes(monkeypatch, which, model,
                                                            sigma, N_eff):
    calls = []

    def counted(cfg, rates):
        h, f0, f1 = _response_function(cfg, rates)

        def h_counted(x, slope=False):
            calls.append((np.size(x), slope))
            return h(x, slope)

        return h_counted, f0, f1

    monkeypatch.setattr(saturation, "_response_function", counted)
    cfg = _config(which, N_eff=N_eff, model=model, sigma_y_over_x0=sigma,
                  power_grid=np.geomspace(1e-13, 1e-6, 61))
    curve = solve_saturation(cfg, RATES)
    (scan, scan_slope), *passes = calls
    assert scan == 400 and not scan_slope       # the scan takes values only
    # at most 6 passes, each one value and slope at every root once: n points, not 2n
    roots = sum(p.n_roots for p in curve.points)
    assert 1 <= len(passes) <= 6 and passes == [(roots, True)] * len(passes)


# bistable curves of the saturation_sweep benchmark on which a step-size-only stop never
# ends: near a turning point the noisy slope keeps the Newton steps above 1e-14*x
@pytest.mark.parametrize("which, model, N_eff, sigma, A_mf, q_prime_x0", [
    (1, "closed_form", 187.22161682051984, 0.0, 0.15052588768764683, 1.1165317710150833),
    (1, "quadrature", 345.392556891872, 0.372301395286757, 0.149620761351845, 1.1455761517096021),
    (2, "quadrature", 88.62023797459986, 0.16253719936056896, 0.149483824183305,
     1.1590782198831076),
])
def test_bistable_curves_converge_to_the_per_power_roots(which, model, N_eff, sigma, A_mf,
                                                         q_prime_x0):
    cfg = _config(which, N_eff=N_eff, model=model, sigma_y_over_x0=sigma, A_mf=A_mf,
                  q_prime_x0=q_prime_x0, power_grid=np.geomspace(1e-12, 1e-6, 61))
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, _, _ = _response_function(cfg, RATES)
    y = scaled_drive_from_power(cfg.power_grid, RATES, n_sat, CFG.lambda_probe)
    found = _per_drive(*_find_roots(h, y, n_sat))      # RuntimeError past the pass cap
    assert any(roots.size == 3 for roots in found)
    for yi, roots in zip(y, found):
        assert roots == pytest.approx(_reference_roots(h, yi, n_sat), rel=1e-13)


def test_nan_inside_a_bracket_is_a_refinement_error_not_a_nan_root():
    cfg = _config(1, N_eff=10.0)
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, _, _ = _response_function(cfg, RATES)
    grid = saturation._scan_grid(n_sat)
    hn = h(grid)
    inside = np.array([0.5 * (hn[200] + hn[201])])

    def h_nan(x, slope=False):      # finite at every scan node, NaN strictly inside the drive's cell
        out = h(x, slope)
        out[..., (x > grid[200]) & (x < grid[201])] = np.nan
        return out

    with pytest.raises(RuntimeError,
                       match="^saturation root refinement did not converge in 60 passes$"):
        _find_roots(h_nan, inside, n_sat)


@pytest.mark.parametrize("A_mf", [0.0, 0.17, 0.5, 1.0])
def test_saturated_fraction_matches_mpmath(A_mf):
    # at x2 = 2/(1+A) the atom sum per atom is the saturated fraction itself, its scale exactly 1
    scale_one = 2.0 / (1.0 + A_mf)
    worst = 0.0
    for target in np.geomspace(1e-14, 1e14, 113):
        s = np.array([target / scale_one])
        got = saturation._per_unit_field(A_mf, scale_one, s, np.ones(1))
        xs = mpmath.mpf(scale_one * s[0])        # the node's xs, as the kernel forms it
        with mpmath.workdps(40):
            ref = 1 - 1 / mpmath.sqrt((1 + A_mf * xs) * (1 + xs))
            worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 4.5e-16


_X2_CORNERS = (0.0, 1e-300, 1e-5, 1.0, 1e33, 1e154, 1e300, math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slope", [False, True])
@pytest.mark.parametrize("rule", ["one node", "27 nodes"])
@pytest.mark.parametrize("A_mf", [0.0, 0.15, 1.0])
def test_in_place_kernel_equals_the_plain_expressions_bit_for_bit(A_mf, rule, slope):
    rng = np.random.default_rng(34)
    for _ in range(4):
        s, w = (saturation._ONE_NODE if rule == "one node"
                else saturation._cloud_rule(rng.uniform(0.05, 2.0), rng.uniform(0.2, 3.0)))
        seeded = 10.0 ** rng.uniform(-20.0, 40.0, 300)
        for x2 in (seeded, np.array(_X2_CORNERS), rng.permutation(np.concatenate([seeded, _X2_CORNERS]))):
            before = x2.tobytes()
            got = saturation._per_unit_field(A_mf, x2, s, w, slope)
            assert x2.tobytes() == before       # the kernel never writes into its argument
            assert got.shape == (2,) * slope + x2.shape
            assert got.tobytes() == per_unit_field(A_mf, x2, s, w, slope).tobytes()
        for x2 in _X2_CORNERS + tuple(seeded[:20]):
            got, want = saturation._per_unit_field(A_mf, x2, s, w, slope), per_unit_field(A_mf, x2, s, w, slope)
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _h_mp(cfg, f0, f1, x):
    """h(x) = x*F(x^2) at the working precision, from the kernel's f0, f1 and rule."""
    s, w = (saturation._ONE_NODE if cfg.model == "closed_form"
            else saturation._cloud_rule(cfg.sigma_y_over_x0, cfg.q_prime_x0))
    A = mpmath.mpf(cfg.A_mf)
    total = sum(mpmath.mpf(wk) * (1 - 1 / mpmath.sqrt((1 + A * x * x * sk) * (1 + x * x * sk)))
                for sk, wk in zip(s, w))
    return x * (f0 + (mpmath.mpf(f1) - f0) * 2 / ((1 + A) * x * x) * total)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("model, sigma", [("closed_form", 0.0), ("quadrature", 0.3)])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_exact_slope_matches_mpmath_diff(which, model, sigma, N_eff):
    cfg = _config(which, N_eff=N_eff, model=model, sigma_y_over_x0=sigma)
    h, f0, f1 = _response_function(cfg, RATES)
    x = saturation._scan_grid(saturation_photon_number(cfg.g0, RATES))[::19]
    value, slope = h(x, slope=True)
    assert value.tolist() == h(x).tolist()      # the pair's first row is h itself
    with mpmath.workdps(40):
        ref = [float(mpmath.diff(lambda t: _h_mp(cfg, f0, f1, t), mpmath.mpf(xi))) for xi in x]
    assert np.all(np.abs(slope - ref) <= 1e-12 * value / x)


def test_f0_and_f1_agree_with_the_amplitudes():
    # the scalar closed form against the array core's unit-drive amplitude at zero detuning
    for which in (1, 2):        # float rates give Python floats, with no numpy call
        assert [type(f) for f in _response_function(_config(which), RATES)[1:]] == [float, float]
    rng = np.random.default_rng(2700)
    for i in range(100):
        which, model = 1 + i % 2, ("closed_form", "quadrature")[i // 2 % 2]
        rates, cfg, _ = _random_case(rng, which, model)
        _, f0, f1 = _response_function(cfg, rates)
        g = cfg.g0 * math.sqrt(cfg.N_eff)
        for coupling, f in ((0.0, f0), (g, f1)):
            couplings = (coupling, 0.0) if which == 1 else (0.0, coupling)
            amps = linear_response.steady_state(rates, ProbeSettings(0.0, 0.0, 1.0), *couplings)
            a_k = (amps.a1, amps.a2)[which - 1]
            assert f == pytest.approx(1.0 / (rates.kappa_1p * abs(a_k)), rel=1e-15)


# the terms past the clamp of the kernel: N_eff * 2/((1+A)*X_abs2) * 1.0, as before it
@pytest.mark.parametrize("X_abs2, collective, quadrature", [
    (1e154, 1.5726495726495728e-152, 1.5726495726495726e-152),
    (1e200, 1.572649572649573e-198, 1.5726495726495726e-198),
    (1e300, 1.5726495726495729e-298, 1.5726495726495725e-298),
    (math.inf, 0.0, 0.0),
])
def test_terms_at_extreme_fields_keep_their_values(X_abs2, collective, quadrature):
    # no RuntimeWarning either: the suite turns each one into an error
    assert quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, X_abs2) == collective
    assert quadrature_saturation_term(92.0, 0.17, 0.3, 1.4424, X_abs2) == quadrature
    both = quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, np.array([X_abs2, 1.0]))
    assert both.tolist() == [collective, quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, 1.0)]


@pytest.mark.parametrize("g0", [1e-100, 1e-60, 1e5, 1e8])
@pytest.mark.parametrize("N_eff", [1e-12, 300.0, 1e6, 1e100])
def test_extreme_couplings_keep_their_results(g0, N_eff):
    # at g0 = 1e-100 the scan reaches xs ~ 1e219, where u would overflow without the clamp; at
    # g0 = 1e8 and N_eff = 300 some 22 powers have two roots on the scan and a third beyond it,
    # and none has no root: an even count, which raises with its own message (it returned
    # n_roots = 2 before, and then said "no sign change")
    if (g0, N_eff) == (1e8, 300.0):
        message = (r"an even number of sign changes up to \|X\| = 1e3\*sqrt\(n_sat\) "
                   "leaves a root beyond the scan")
    else:
        message = r"no sign change up to \|X\| = 1e3\*sqrt\(n_sat\)"
    for which in (1, 2):
        for model, sigma in (("closed_form", 0.0), ("quadrature", 0.3)):
            cfg = SaturationConfig(which_cavity=which, g0=g0, N_eff=N_eff, model=model,
                                   sigma_y_over_x0=sigma)
            with pytest.raises(RuntimeError, match=rf"^saturation root bracketing failed: {message}$"):
                solve_saturation(cfg, RATES)


def test_closed_form_with_a_cloud_width_is_rejected():
    # the closed form is the one-node rule, which sigma_y_over_x0 = 0 selects
    for sigma in (0.3, 1e-300, math.inf):
        with pytest.raises(ValueError, match=r"^model = closed_form needs sigma_y_over_x0 = 0"):
            _config(1, model="closed_form", sigma_y_over_x0=sigma)
    assert _config(1, model="quadrature", sigma_y_over_x0=0.3).sigma_y_over_x0 == 0.3


@pytest.mark.parametrize("A_mf", [0.0, 0.17, 1.0])
def test_quadrature_terms_at_zero_width_are_the_collective_term_bit_for_bit(A_mf):
    x2 = np.concatenate([[0.0], np.geomspace(1e-8, 1e300, 40), [math.inf]])
    collective = quadrature_saturation_term(92.0, A_mf, 0.0, 1.0, x2)
    assert quadrature_saturation_term(92.0, A_mf, 0.0, 1.4424, x2).tolist() == collective.tolist()
    for X_abs2, want in zip(x2.tolist(), collective.tolist()):
        assert quadrature_saturation_term(92.0, A_mf, 0.0, 0.5, X_abs2) == want
        assert quadrature_saturation_term(92.0, A_mf, 0.0, 1.0, X_abs2) == want


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_quadrature_curve_at_zero_width_is_the_closed_form_curve_bit_for_bit(which, N_eff):
    closed = solve_saturation(_config(which, N_eff=N_eff), RATES)
    quadrature = solve_saturation(_config(which, N_eff=N_eff, model="quadrature"), RATES)
    assert quadrature.points == closed.points and quadrature.n_sat == closed.n_sat
    if N_eff == 2000.0:     # the bistable region is part of the check
        assert any(p.n_roots == 3 for p in closed.points)


def test_brackets_give_a_drive_between_the_end_values_an_odd_count():
    # a cell brackets y on a sign change of h > y, so a drive's count is odd exactly when
    # h > y differs at the two ends: odd for h[0] <= y < h[-1], drives on turning points too
    rng = np.random.default_rng(2929)
    seen = dict.fromkeys(("non_monotone", "on_maximum", "on_minimum", "odd", "even"), 0)
    for case in range(500):
        h = 1.0 + 0.25 * rng.integers(0, 12, rng.integers(2, 40))
        inner, left, right = h[1:-1], h[:-2], h[2:]
        maxima, minima = inner[(inner > left) & (inner > right)], inner[(inner < left) & (inner < right)]
        y = np.sort(np.concatenate([maxima, minima, h[[0, -1]], rng.uniform(0.5, 4.5, 10)]))
        drive, cell = _brackets(h, y)
        assert np.all((np.minimum(h[cell], h[cell + 1]) <= y[drive]) & (y[drive] < np.maximum(h[cell], h[cell + 1])))
        assert np.all(np.diff(drive) >= 0) and np.all(np.diff(cell)[np.diff(drive) == 0] > 0)
        odd = np.bincount(drive, minlength=y.size) % 2 == 1
        assert np.array_equal(odd, (h[0] > y) != (h[-1] > y))
        assert np.all(odd[(h[0] <= y) & (y < h[-1])])
        seen["non_monotone"] += bool(np.any(np.diff(h) > 0) and np.any(np.diff(h) < 0))
        seen["on_maximum"] += maxima.size > 0
        seen["on_minimum"] += minima.size > 0
        seen["odd"] += bool(odd.any())
        seen["even"] += bool((~odd).any())
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("N_eff", [10.0, 300.0, 2000.0])
def test_a_drive_on_any_monotone_scan_node_has_its_root_at_that_node(which, N_eff):
    # a falling cell's node root starts at its upper node itself: a*(b/a) misses b by an ulp
    # in about a quarter of the scan's cells
    cfg = _config(which, N_eff=N_eff)
    n_sat = saturation_photon_number(cfg.g0, RATES)
    h, _, _ = _response_function(cfg, RATES)
    grid = saturation._scan_grid(n_sat)
    hn = h(grid)
    k = np.flatnonzero((hn[1:-1] - hn[:-2]) * (hn[2:] - hn[1:-1]) > 0.0) + 1    # no turning point
    order = np.argsort(hn[k], kind="stable")
    roots = _per_drive(*_find_roots(h, hn[k][order], n_sat))
    for node, r in zip(k[order], roots):
        assert np.count_nonzero(r == grid[node]) == 1 and np.all(np.diff(r) > 0.0)
    if N_eff == 2000.0:     # falling cells are part of the check
        assert np.any(np.diff(hn) < 0.0)


@pytest.mark.parametrize("which", [1, 2])
def test_response_function_depends_on_g0_only_through_g0_squared_times_n_eff(which):
    # h(x) and the drives are in n_sat-scaled units, so g0 -> 2^k g0 with N_eff -> 4^-k N_eff
    # leaves h bit for bit (exact float scalings) while n_sat moves by 4^-k; the scan window
    # [1e-4, 1e3]*sqrt(n_sat) moves with it, past h's fixed turning points (x = 1.5630 and 4.3950
    # in cavity 1)
    base = _config(which, power_grid=np.geomspace(1e-12, 1e-6, 5))
    x = np.geomspace(1e-3, 1e3, 61)
    h = _response_function(base, RATES)[0](x)
    n_sat = saturation_photon_number(base.g0, RATES)
    for k in (-3, 2, 5):
        cfg = replace(base, g0=base.g0 * 2.0**k, N_eff=base.N_eff * 4.0**-k)
        assert _response_function(cfg, RATES)[0](x).tolist() == h.tolist()
        assert saturation_photon_number(cfg.g0, RATES) == n_sat * 4.0**-k
