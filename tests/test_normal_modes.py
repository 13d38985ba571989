import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from fiberqed import oracle
from fiberqed.linear_response import ProbeSettings, SpectrumResult, transmission_spectrum
from fiberqed.normal_modes import decompose, peak_find, reduced_spectrum
from fiberqed.params import PhysicalConfig, derive_rates, mhz, to_mhz
from dataclasses import fields, replace

CFG = PhysicalConfig()
RATES = derive_rates(CFG)


def test_dark_mode_couplings_frozen():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    assert to_mhz(s.gd1) == pytest.approx(4.323932636226303, rel=1e-12)
    assert to_mhz(s.gd2) == pytest.approx(5.8370074299854116, rel=1e-12)
    assert to_mhz(math.hypot(s.gd1, s.gd2)) == pytest.approx(7.264093142321885, rel=1e-12)
    assert to_mhz(s.rabi_splitting) == pytest.approx(7.192521292934409, rel=1e-12)
    assert s.resolved


def test_bright_splittings_across_fiber_lengths():
    # sqrt(2)*v_tilde per fiber length, against the rounded quoted values
    for lf, expected in ((0.83, 14.7), (1.23, 12.1), (2.27, 8.9)):
        r = derive_rates(replace(CFG, Lf=lf))
        s = decompose(r, CFG.g1_eff, CFG.g2_eff)
        assert to_mhz(s.splitting_bright) == pytest.approx(expected, abs=0.05)
        assert s.splitting_bright == pytest.approx(math.sqrt(2.0) * s.v_tilde, rel=1e-15)


def test_summary_stores_only_independent_values():
    # splitting_bright and resolved follow v_tilde and rabi_splitting, also through replace
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    assert [f.name for f in fields(s)] == ["v_tilde", "gd1", "gd2", "kappa_d", "kappa_plus",
                                           "rabi_splitting", "mode_vectors"]
    assert replace(s, v_tilde=2.0).splitting_bright == math.sqrt(2.0) * 2.0
    assert not replace(s, rabi_splitting=0.0).resolved


def test_symmetric_chain():
    v = mhz(8.0)
    g = mhz(5.0)
    r = replace(RATES, v1=v, v2=v)
    s = decompose(r, g, g)
    assert s.gd1 == pytest.approx(g / math.sqrt(2.0), rel=1e-15)
    assert s.gd2 == pytest.approx(g / math.sqrt(2.0), rel=1e-15)
    assert math.hypot(s.gd1, s.gd2) == pytest.approx(g, rel=1e-15)


def test_lf_invariance_of_dark_couplings():
    values = []
    for lf in (0.83, 1.23, 2.27):
        r = derive_rates(replace(CFG, Lf=lf))
        s = decompose(r, CFG.g1_eff, CFG.g2_eff)
        values.append((s.gd1, s.gd2))
    for gd1, gd2 in values[1:]:
        assert abs(gd1 - values[0][0]) <= 1e-12 * values[0][0]
        assert abs(gd2 - values[0][1]) <= 1e-12 * values[0][1]


def test_mode_vectors_orthogonal():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    m = s.mode_vectors
    assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-12
    assert m[0, 2] == 0.0  # dark row has no fiber weight


def test_decay_rate_combinations():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    v1, v2 = RATES.v1, RATES.v2
    two_vt2 = v1**2 + v2**2
    assert s.kappa_d == pytest.approx(
        (v2**2 * RATES.kappa_1 + v1**2 * RATES.kappa_2) / two_vt2, rel=1e-14
    )
    assert s.kappa_plus == pytest.approx(
        0.5 * (RATES.kappa_bloss + (v1**2 * RATES.kappa_1 + v2**2 * RATES.kappa_2) / two_vt2),
        rel=1e-14,
    )


def test_rabi_radicand_simplification():
    # kappa_d == gamma_perp makes the splitting exactly sqrt(gd1^2+gd2^2)
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    r = replace(RATES, gamma_par=2.0 * s.kappa_d, gamma_las=0.0)
    s2 = decompose(r, CFG.g1_eff, CFG.g2_eff)
    assert s2.rabi_splitting == pytest.approx(math.hypot(s2.gd1, s2.gd2), rel=1e-15)


def test_unresolved_regime_clamps_to_zero():
    r = replace(RATES, gamma_par=mhz(100.0), gamma_las=0.0)
    s = decompose(r, mhz(0.1), mhz(0.1))
    assert s.rabi_splitting == 0.0
    assert not s.resolved


def test_degenerate_input_rejected():
    with pytest.raises(ValueError):
        decompose(replace(RATES, v1=0.0, v2=0.0), CFG.g1_eff, CFG.g2_eff)
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    for bad in (np.array([]), np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([math.nan]),
                np.array([0.0, math.nan, 2.0]), np.array([-math.inf, 0.0])):
        with pytest.raises(ValueError, match="nonempty and strictly increasing"):
            reduced_spectrum(s, RATES, grid=bad)


def test_overflowing_rates_are_a_named_numeric_failure():
    # each square is finite, but v^2 * kappa overflows in Python floats: kappa_d would read inf
    rates = derive_rates(replace(CFG, c_fiber=1e150))
    with pytest.raises(RuntimeError, match=r"^overflow: v_tilde=2\.59\d*e\+149, kappa_d=inf, kappa_plus=inf rad/s$"):
        decompose(rates, CFG.g1_eff, CFG.g2_eff)
    with pytest.raises(RuntimeError, match=r"^overflow: v_tilde=inf, kappa_d=nan, kappa_plus=nan rad/s$"):
        decompose(replace(RATES, v1=1e154, v2=1e154), CFG.g1_eff, CFG.g2_eff)


def test_decoupled_output_gives_zero_reduced_spectrum():
    # kappa_2r*v1*v2 == 0: no light reaches the output, with or without atoms; both
    # spectra share one zero-normalization rule instead of dividing 0 by 0
    grid = np.linspace(mhz(-5.0), mhz(5.0), 11)
    for name in ("v2", "kappa_2r", "v1"):
        rates = replace(RATES, **{name: 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced = reduced_spectrum(decompose(rates, 0.0, 0.0), rates, grid=grid)
            full = transmission_spectrum(rates, 0.0, 0.0, grid=grid)
        assert np.array_equal(reduced.transmission, np.zeros(11)), name
        assert np.array_equal(full.transmission, np.zeros(11)), name


@pytest.mark.parametrize("g", [0.0, 7.2])
def test_undamped_atoms_raise_before_any_division(g):
    # gamma_par = gamma_las = 0: gamma_perp + i*delta vanishes on the grid's zero;
    # the chain's missing steady state is reported, not a divide warning
    rates = derive_rates(replace(CFG, gamma_par=0.0, gamma_las=0.0))
    summary = decompose(rates, mhz(g), mhz(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma_par = 0 with gamma_las = 0"):
            reduced_spectrum(summary, rates, grid=np.linspace(mhz(-30.0), mhz(30.0), 601))


def test_reduced_spectrum_doublet_frozen():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    grid = np.linspace(mhz(-25.0), mhz(25.0), 8001)
    peaks = peak_find(reduced_spectrum(s, RATES, grid=grid))
    assert len(peaks) == 2
    assert to_mhz(peaks[0][0]) == pytest.approx(-7.441564, abs=1e-3)
    assert to_mhz(peaks[1][0]) == pytest.approx(7.441564, abs=1e-3)


def test_reduced_empty_cavity_single_peak():
    s = decompose(RATES, 0.0, 0.0)
    spec = reduced_spectrum(s, RATES, grid=np.linspace(mhz(-25.0), mhz(25.0), 2001))
    peaks = peak_find(spec)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.0, abs=mhz(0.01))
    # slightly above 1: the dropped bright modes lower the full-model
    # normalization flux relative to the bare dark mode
    assert peaks[0][1] == pytest.approx(1.0123, abs=2e-3)


def test_full_vs_reduced_pointwise():
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    grid = np.linspace(mhz(-8.0), mhz(8.0), 801)
    red = reduced_spectrum(s, RATES, grid=grid)
    full = transmission_spectrum(RATES, CFG.g1_eff, CFG.g2_eff, grid=grid)
    assert np.max(np.abs(full.transmission - red.transmission)) < 0.05


def test_reduced_peaks_invariant_under_lf():
    positions = []
    for lf in (0.83, 1.23, 2.27):
        r = derive_rates(replace(CFG, Lf=lf))
        s = decompose(r, CFG.g1_eff, CFG.g2_eff)
        grid = np.linspace(mhz(-15.0), mhz(15.0), 4001)
        peaks = peak_find(reduced_spectrum(s, r, grid=grid))
        positions.append([p for p, _ in peaks])
    for pos in positions[1:]:
        assert np.allclose(pos, positions[0], atol=mhz(0.01))


def test_full_model_inner_doublet_frozen():
    grid = np.linspace(mhz(-25.0), mhz(25.0), 8001)
    spec = transmission_spectrum(RATES, CFG.g1_eff, CFG.g2_eff, grid=grid)
    peaks = peak_find(spec)
    assert len(peaks) == 4
    # inner pair is pulled outward of sqrt(gd1^2+gd2^2) by the bright modes
    assert to_mhz(peaks[1][0]) == pytest.approx(-8.012621, abs=1e-3)
    assert to_mhz(peaks[2][0]) == pytest.approx(8.012621, abs=1e-3)


def test_peak_find_edge_cases():
    flat = SpectrumResult(
        detunings=np.linspace(0.0, 1.0, 11),
        transmission=np.ones(11),
    )
    assert peak_find(flat) == []

    # parabolic refinement recovers an off-grid gaussian center
    x = np.linspace(-1.0, 1.0, 41)
    center = 0.1234
    spec = SpectrumResult(
        detunings=x,
        transmission=np.exp(-((x - center) ** 2) / 0.08),
    )
    peaks = peak_find(spec)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(center, abs=2e-3)

    # too short for an interior point
    for n in (1, 2):
        short = SpectrumResult(np.arange(float(n)), np.arange(float(n)))
        assert peak_find(short) == []

    # many peaks, plateaus and exact ties against the point-by-point rule
    rng = np.random.default_rng(3)
    x = np.linspace(-5.0, 5.0, 601)
    y = np.round(np.sin(3.0 * x) ** 2 + 0.3 * rng.random(x.size), 2)
    reference, plateaus = [], 0
    for i in range(1, len(y) - 1):
        j = i           # the last sample of the plateau that starts at i
        while j + 1 < len(y) and y[j + 1] == y[i]:
            j += 1
        if not (y[i] > y[i - 1] and j + 1 < len(y) and y[i] > y[j + 1]):
            continue
        plateaus += j > i
        if j > i + 1:
            reference.append((0.5 * (x[i] + x[j]), y[i]))
            continue
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom != 0.0:
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            pos = x[i] + shift * (x[i + 1] - x[i])
            height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
        else:
            pos, height = x[i], y[i]
        reference.append((pos, height))
    peaks = peak_find(SpectrumResult(x, y))
    assert len(reference) > 50
    assert plateaus >= 5
    assert peaks == reference
    assert all(type(v) is float for peak in peaks for v in peak)


def test_peak_find_rejects_a_stacked_or_mismatched_spectrum():
    # (k, 1) couplings give (k, n) rows: slicing them as samples found no peak, silently
    grid = mhz(np.linspace(-30.0, 30.0, 601))
    g = np.array([[CFG.g1_eff, CFG.g2_eff], [0.0, 0.0]])
    stacked = transmission_spectrum(RATES, g[:, :1], g[:, 1:], grid=grid)
    assert len(peak_find(SpectrumResult(grid, stacked.transmission[0]))) == 4
    for t, shape in ((stacked.transmission, "(2, 601)"), (stacked.transmission[:1], "(1, 601)"),
                     (stacked.transmission[0, :-1], "(600,)")):
        with pytest.raises(ValueError, match=re.escape(f"of shape {shape} is not the detunings' 1-d (601,)")):
            peak_find(SpectrumResult(grid, t))


@pytest.mark.parametrize("y, want", [
    ([0.0, 1.0, 1.0, 0.0], [(1.5, 1.125)]),             # two samples: the parabola's midpoint
    ([0.0, 2.0, 2.0, 2.0, 1.0], [(2.0, 2.0)]),          # three: the centre sample
    ([0.0, 2.0, 2.0, 2.0, 2.0, 1.0], [(2.5, 2.0)]),     # four: between the middle two
    ([0.0, 1.0, 1.0, 2.0, 0.0], [(3.0 - 1.0 / 6.0, 2.0 + 1.0 / 24.0)]),  # a shoulder is no peak
    ([0.0, 1.0, 1.0], []),                              # a plateau at an end is no peak
    ([1.0, 1.0, 0.0, 1.0, 1.0], []),
    ([2.0, 2.0, 2.0, 2.0], []),
    ([0.0, 1.0, 1.0, math.nan, 0.0], []),               # NaN is not lower
])
def test_peak_find_reports_each_plateau_once_at_its_centre(y, want):
    spec = SpectrumResult(np.arange(float(len(y))), np.array(y))
    assert peak_find(spec) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("lf, side", [(1.23, 11.8895), (2.27, 8.6624)])
def test_even_grid_keeps_the_flat_topped_central_peak(lf, side):
    # on 602 points the two middle samples of the empty chain are equal, bit for bit
    grid = np.linspace(mhz(-30.0), mhz(30.0), 602)
    spec = transmission_spectrum(derive_rates(replace(CFG, Lf=lf)), 0.0, 0.0, grid=grid)
    assert spec.transmission[300] == spec.transmission[301]
    (left, _), (centre, height), (right, _) = peak_find(spec)
    assert abs(centre) < 1e-12 * (grid[301] - grid[300])
    assert height == pytest.approx(1.0, abs=1e-4)
    assert to_mhz(-left) == pytest.approx(side, abs=1e-4) and to_mhz(right) == pytest.approx(side, abs=1e-4)


@pytest.mark.parametrize("lf, g1, g2", [(1.23, 7.2, 7.3), (0.83, 0.0, 12.0), (2.27, 0.0, 0.0)])
def test_reduced_spectrum_matches_40_digit_dark_mode_model(lf, g1, g2):
    # the dark-mode amplitude as a nested fraction, normalized by a dense solve
    # of the empty three-mode chain on resonance, both at 40 digits
    rates = derive_rates(replace(CFG, Lf=lf))
    s = decompose(rates, mhz(g1), mhz(g2))
    grid = np.linspace(mhz(-25.0), mhz(25.0), 11)
    spec = reduced_spectrum(s, rates, grid=grid)
    matrix, rhs = oracle.build_linear_system(rates, ProbeSettings(0.0, 0.0, 1.0), 0.0, 0.0)
    with mpmath.workdps(40):
        x = mpmath.lu_solve(mpmath.matrix(matrix.tolist()), mpmath.matrix(rhs.tolist()))
        s2v, gp = mpmath.mpf(s.splitting_bright), mpmath.mpf(rates.gamma_perp)
        gd2 = mpmath.mpf(s.gd1) ** 2 + mpmath.mpf(s.gd2) ** 2
        for delta, got in zip(grid, spec.transmission):
            i_delta = 1j * mpmath.mpf(delta)
            d = -1j * (rates.v2 / s2v) / (s.kappa_d + rates.gamma_las + i_delta + gd2 / (gp + i_delta))
            want = abs(rates.v1 / s2v * d) ** 2 / abs(x[1]) ** 2
            assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("end", [1e144, 1e200, 1e308, 1.7976931348623157e308])
def test_reduced_spectrum_reads_zero_where_its_parts_overflow(end):
    # no numpy warning (the suite makes each one an error) and no NaN: from |delta| ~ 1e144 both
    # parts overflow, and such a point reads 0, as transmission_spectrum reads 0 on [-1e200, 1e200]
    s = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    centre = reduced_spectrum(s, RATES, grid=np.array([0.0])).transmission[0]
    ends = reduced_spectrum(s, RATES, grid=np.array([-end, 0.0, end])).transmission
    assert ends.tolist() == [0.0, centre, 0.0]
    if end == 1e200:
        assert transmission_spectrum(RATES, CFG.g1_eff, CFG.g2_eff, grid=np.array([-end, 0.0, end])
                                     ).transmission[[0, 2]].tolist() == [0.0, 0.0]
    # past the first 4096-point block, only the overflowed point changes
    grid = np.linspace(mhz(-30.0), mhz(30.0), 5000)
    plain = reduced_spectrum(s, RATES, grid=grid).transmission
    far = reduced_spectrum(s, RATES, grid=np.append(grid, end)).transmission
    assert far[:-1].tolist() == plain.tolist() and far[-1] == 0.0


def test_reduced_prefactor_past_overflow_reads_zero():
    # sqrt(2)*v_tilde = 8.4e77 rad/s, whose fourth power overflows: the prefactor is 0, as the
    # kernel's other overflowed parts, where the float power raised a bare OverflowError; the
    # exact value is 6.1e-29, and transmission_spectrum reads 0 off resonance too
    cfg = PhysicalConfig(T1=1e-20, T4=1e-20, alpha1=0.0, alpha2=0.0, alphaf=1e-300, gamma_las=1e-6,
                         Lf=1e-140)
    rates = derive_rates(cfg)
    grid = np.array([-1.0, 0.0, 1.0])
    assert reduced_spectrum(decompose(rates, 0.0, 0.0), rates, grid=grid).transmission.tolist() == [0.0] * 3
    assert transmission_spectrum(rates, 0.0, 0.0, grid=grid).transmission[[0, 2]].tolist() == [0.0, 0.0]
