"""Acceptance gate: the ten headline checks, one printed PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines.  Known
honest failures (documented in the project notes): the tabulated fiber loss
rate at Lf=2.27 m is a 2-figure rounding (criterion 1, one entry), the
empty-chain side peaks are pulled inside sqrt(2)*v_tilde by dissipation
(criterion 2, two of three fiber lengths), and the simplified-mode-function
fit over the stated domain cannot reach qprime = 1.3q or <10% error
(criterion 9, two of three checks).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fiberqed import oracle
from fiberqed.fiber_mode import fit_simplified, make_mode_params
from fiberqed.linear_response import transmission_spectrum
from fiberqed.normal_modes import decompose, peak_find, reduced_spectrum
from fiberqed.params import PhysicalConfig, derive_rates, mhz, to_mhz
from fiberqed.saturation import (
    SaturationConfig,
    quadrature_saturation_term,
    saturation_photon_number,
    solve_saturation,
)

from references import reference_rates

CFG = PhysicalConfig()
RATES = derive_rates(CFG)


def report(label: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")
    assert passed, f"{label}: {detail}"


def _rate_table():
    ref = reference_rates()
    entries = {}
    r = RATES
    for name in ("kappa_1l", "kappa_1loss", "kappa_1r", "kappa_2l", "kappa_2loss", "kappa_2r"):
        entries[name] = (to_mhz(getattr(r, name)), ref[name])
    entries["gamma_par"] = (to_mhz(CFG.gamma_par), ref["gamma_par"])
    entries["gamma_las"] = (to_mhz(CFG.gamma_las), ref["gamma_las"])
    for name in ("kappa_bloss", "v1", "v2"):
        for lf_key, tabulated in ref[name].items():
            rr = derive_rates(replace(CFG, Lf=float(lf_key)))
            entries[f"{name}@Lf={lf_key}"] = (to_mhz(getattr(rr, name)), tabulated)
    return entries


_RATE_ENTRIES = _rate_table()


@pytest.mark.parametrize("entry", sorted(_RATE_ENTRIES))
def test_criterion_1_rate_table(entry):
    t0 = time.time()
    got, expected = _RATE_ENTRIES[entry]
    rel = abs(got - expected) / abs(expected)
    assert time.time() - t0 < 1.0
    report(
        f"criterion 1 [{entry}]",
        rel < 0.01,
        f"derived {got:.4f} MHz vs tabulated {expected} ({100 * rel:.2f}%)",
    )


@pytest.mark.parametrize(
    "lf,expected", [(0.83, 14.7), (1.23, 12.1), (2.27, 8.9)]
)
def test_criterion_2_bright_side_peaks(lf, expected):
    t0 = time.time()
    rates = derive_rates(replace(CFG, Lf=lf))
    grid = np.linspace(mhz(-25.0), mhz(25.0), 4001)
    peaks = peak_find(transmission_spectrum(rates, 0.0, 0.0, grid=grid))
    elapsed = time.time() - t0
    assert len(peaks) == 3
    side = to_mhz(peaks[2][0])
    assert elapsed < 1.0
    report(
        f"criterion 2 [Lf={lf} m]",
        abs(side - expected) <= 0.2,
        f"side peaks at +/-{side:.4f} MHz vs {expected} +/- 0.2",
    )


def test_criterion_3_dark_mode_couplings():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    gd1, gd2 = to_mhz(s.gd1), to_mhz(s.gd2)
    combo = math.hypot(gd1, gd2)
    ok = abs(gd1 - 4.3) <= 0.05 and abs(gd2 - 5.8) <= 0.05 and abs(combo - 7.3) <= 0.05
    report(
        "criterion 3",
        ok,
        f"(gd1, gd2) = ({gd1:.4f}, {gd2:.4f}) MHz, combined {combo:.4f} vs (4.3, 5.8, 7.3) +/- 0.05",
    )


def test_criterion_4_lf_invariance():
    values = []
    for lf in (0.83, 1.23, 2.27):
        r = derive_rates(replace(CFG, Lf=lf))
        s = decompose(r, CFG.g1_eff, CFG.g2_eff)
        values.append((s.gd1, s.gd2))
    spread = max(
        max(abs(a - values[0][0]) / values[0][0], abs(b - values[0][1]) / values[0][1])
        for a, b in values[1:]
    )
    report("criterion 4", spread <= 1e-12, f"gd spread across fiber lengths {spread:.2e} <= 1e-12")


def test_criterion_5_saturation_photon_numbers():
    n1 = saturation_photon_number(CFG.g1_0, RATES)
    n2 = saturation_photon_number(CFG.g2_0, RATES)
    ok = abs(n1 - 6.9) <= 0.1 and abs(n2 - 2.7) <= 0.1
    report("criterion 5", ok, f"n_sat = ({n1:.3f}, {n2:.3f}) vs (6.9, 2.7) +/- 0.1")


def test_criterion_6_effective_atom_numbers():
    n1 = (CFG.g1_eff / CFG.g1_0) ** 2
    n2 = (CFG.g2_eff / CFG.g2_0) ** 2
    ok = abs(n1 - 92.0) <= 1.0 and abs(n2 - 37.0) <= 1.0
    report("criterion 6", ok, f"(g_eff/g0)^2 = ({n1:.2f}, {n2:.2f}) vs (92, 37) +/- 1")


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    results = oracle.run_validation(draws=1000, seed=7)
    elapsed = time.time() - t0
    linear = results[0]
    ok = linear.passed and elapsed < 5.0
    report(
        "criterion 7",
        ok,
        f"1000 draws, max relative error {linear.max_error:.2e} < 1e-9 in {elapsed:.2f} s",
    )


@pytest.mark.parametrize("which", [1, 2])
def test_criterion_8_saturation_limits(which):
    g0 = CFG.g1_0 if which == 1 else CFG.g2_0
    g_eff = CFG.g1_eff if which == 1 else CFG.g2_eff
    cfg = SaturationConfig(
        which_cavity=which,
        g0=g0,
        N_eff=(g_eff / g0) ** 2,
        power_grid=np.geomspace(1e-13, 1e-6, 71),
    )
    curve = solve_saturation(cfg, RATES)
    g1, g2 = (g_eff, 0.0) if which == 1 else (0.0, g_eff)
    lin = transmission_spectrum(RATES, g1, g2, grid=np.array([-1.0, 0.0, 1.0]))
    low_ok = abs(curve.points[0].transmission - lin.transmission[1]) <= 0.01 * lin.transmission[1]
    high_ok = curve.points[-1].transmission >= 0.99
    t = [p.transmission for p in curve.points]
    mono_ok = all(b >= a - 1e-12 for a, b in zip(t, t[1:]))
    report(
        f"criterion 8 [cavity {which}]",
        low_ok and high_ok and mono_ok,
        f"low {curve.points[0].transmission:.5f} vs linear {lin.transmission[1]:.5f}, "
        f"T(1e6 pW) = {curve.points[-1].transmission:.4f}, monotone = {mono_ok}",
    )


_FIT = fit_simplified(make_mode_params())
_Q = make_mode_params().q


@pytest.mark.parametrize(
    "check,value,lo,hi",
    [
        ("qprime_ratio", _FIT.qprime / _Q, 1.2, 1.4),
        ("A_mf", _FIT.A_mf, 0.12, 0.22),
        ("max_rel_error", _FIT.max_rel_error, 0.0, 0.10),
    ],
    ids=["qprime_ratio", "A_mf", "max_rel_error"],      # names that do not move with the fit's digits
)
def test_criterion_9_mode_function_fit(check, value, lo, hi):
    report(
        f"criterion 9 [{check}]",
        lo <= value <= hi,
        f"fitted {check} = {value:.4f}, required [{lo}, {hi}]",
    )


def test_criterion_10_property_suites():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    ortho = float(np.max(np.abs(s.mode_vectors @ s.mode_vectors.T - np.eye(3))))

    grid = np.linspace(mhz(-30.0), mhz(30.0), 601)
    spec = transmission_spectrum(RATES, 0.0, 0.0, grid=grid)
    parity = float(np.max(np.abs(spec.transmission - spec.transmission[::-1])))

    gh_err = max(
        abs(
            quadrature_saturation_term(92.0, 0.17, 0.0, 1.4424, x2)
            - quadrature_saturation_term(92.0, 0.17, 0.0, 1.0, x2)
        )
        for x2 in (0.0, 0.5, 2.0, 10.0)
    )

    from fiberqed.fiber_mode import bessel_k

    rec_err = max(
        abs(bessel_k(2, x) - bessel_k(0, x) - 2.0 / x * bessel_k(1, x)) / bessel_k(2, x)
        for x in np.geomspace(0.1, 10.0, 9)
    )

    ok = ortho < 1e-12 and parity < 1e-12 and gh_err < 1e-10 and rec_err < 1e-9
    report(
        "criterion 10",
        ok,
        f"orthogonality {ortho:.1e}, parity {parity:.1e}, "
        f"quadrature-vs-closed-form {gh_err:.1e}, recurrence {rec_err:.1e}",
    )
