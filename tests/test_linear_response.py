import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from fiberqed import oracle
from fiberqed.linear_response import (
    _BLOCK,
    SINGULAR_FLOOR,
    ProbeSettings,
    _delta_parts,
    _empty_chain_norm,
    _spectrum,
    increasing_grid,
    steady_state,
    transmission_spectrum,
)
from fiberqed.normal_modes import decompose, reduced_spectrum
from fiberqed.params import DerivedRates, PhysicalConfig, derive_rates, mhz
from fiberqed.saturation import SaturationConfig
from dataclasses import fields, replace

from references import stationarity_residual

CFG = PhysicalConfig()
RATES = derive_rates(CFG)
GRID = np.linspace(mhz(-30.0), mhz(30.0), 601)     # the CLI's [probe] default


def test_empty_cavity_on_resonance_is_unity():
    spec = transmission_spectrum(RATES, 0.0, 0.0, grid=np.array([-1.0, 0.0, 1.0]))
    assert spec.transmission[1] == 1.0  # self-normalization, exact


def test_empty_spectrum_parity():
    spec = transmission_spectrum(RATES, 0.0, 0.0, grid=GRID)
    assert np.max(np.abs(spec.transmission - spec.transmission[::-1])) < 1e-12


def test_empty_spectrum_has_three_maxima():
    spec = transmission_spectrum(RATES, 0.0, 0.0, grid=GRID)
    t = spec.transmission
    interior = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
    assert int(np.sum(interior)) == 3


def test_decoupled_output_cavity():
    rates = replace(RATES, v2=0.0)
    spec = transmission_spectrum(rates, CFG.g1_eff, CFG.g2_eff, grid=GRID)
    assert np.all(spec.transmission == 0.0)
    amps = steady_state(rates, ProbeSettings(0.0, 0.0, 1.0), CFG.g1_eff, CFG.g2_eff)
    assert amps.a2 == 0.0
    assert abs(amps.a1) > 0.0


def test_on_resonance_dip_with_atoms():
    # frozen: closed-form T(0) with both ensembles loaded
    spec = transmission_spectrum(
        RATES, CFG.g1_eff, CFG.g2_eff, grid=np.array([-1.0, 0.0, 1.0])
    )
    assert spec.transmission[1] == pytest.approx(0.003968123940242036, rel=1e-12)
    assert spec.transmission[1] < 0.2


def test_stationarity_residual_small():
    for g1, g2, dc, da in [
        (0.0, 0.0, 0.0, 0.0),
        (CFG.g1_eff, CFG.g2_eff, 0.0, 0.0),
        (CFG.g1_eff, 0.0, mhz(3.0), mhz(3.0)),
        (CFG.g1_eff, CFG.g2_eff, mhz(-12.0), mhz(7.0)),
    ]:
        probe = ProbeSettings(delta_c=dc, delta_a=da, drive_E1=2.0)
        amps = steady_state(RATES, probe, g1, g2)
        assert stationarity_residual(amps, RATES, probe, g1, g2) < 1e-10


def test_matches_dense_solve_at_5mhz():
    probe = ProbeSettings(delta_c=mhz(5.0), delta_a=mhz(5.0), drive_E1=1.0)
    closed = steady_state(RATES, probe, CFG.g1_eff, CFG.g2_eff)
    dense = oracle.solve_dense(
        oracle.build_linear_system(RATES, probe, CFG.g1_eff, CFG.g2_eff)
    )
    for name in ("a1", "a2", "b", "s1", "s2"):
        c, d = getattr(closed, name), getattr(dense, name)
        assert abs(c - d) <= 1e-9 * abs(d) + 1e-30


def test_empty_amplitudes_finite_and_driven():
    amps = steady_state(RATES, ProbeSettings(0.0, 0.0, 1.0), 0.0, 0.0)
    for name in ("a1", "a2", "b", "s1", "s2"):
        v = getattr(amps, name)
        assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert abs(amps.a1) > 0.0
    assert amps.s1 == 0.0 and amps.s2 == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        steady_state(RATES, ProbeSettings(0.0, 0.0, -1.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        steady_state(RATES, ProbeSettings(0.0, 0.0, 1.0), -1.0, 0.0)
    with pytest.raises(ValueError):
        transmission_spectrum(RATES, 0.0, 0.0, grid=np.array([]))
    with pytest.raises(ValueError):
        transmission_spectrum(RATES, 0.0, 0.0, grid=np.array([1.0, 0.0]))
    for bad in ([math.nan], [math.inf], [0.0, math.nan, 2.0], [-math.inf, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite, nonempty and strictly increasing"):
            transmission_spectrum(RATES, 0.0, 0.0, grid=np.array(bad))


def test_delta_c_offset_shifts_empty_resonances():
    # offsetting the cavity ladder moves the central empty-cavity peak to -offset in delta_a
    offset = mhz(4.0)
    grid = np.linspace(mhz(-8.0), mhz(0.0), 801)
    spec = transmission_spectrum(RATES, 0.0, 0.0, delta_c_offset=offset, grid=grid)
    peak = grid[np.argmax(spec.transmission)]
    assert peak == pytest.approx(-offset, abs=mhz(0.02))


def test_undamped_bright_resonance_raises_without_warning():
    # every damping rate 0 and v1 = 3, v2 = 4: the bright modes sit at
    # +-sqrt(v1^2 + v2^2) = +-5 rad/s undamped, so Delta = 0 exactly there
    rates = replace(RATES, **{f.name: 0.0 for f in fields(RATES) if f.init and f.name not in ("v1", "v2")},
                    v1=3.0, v2=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="singular"):
            steady_state(rates, ProbeSettings(5.0, 5.0, 1.0), 0.0, 0.0)
        # the spectrum's norm at zero detuning meets the undamped fiber mode first
        with pytest.raises(ValueError, match="alphaf = 0"):
            transmission_spectrum(rates, 0.0, 0.0, grid=np.array([4.0, 5.0, 6.0]))
        # lossless cavities with a damped fiber: the fiber-dark mode is undamped on
        # resonance, where the empty-chain norm is taken
        dark = replace(rates, kappa_bloss=1.0, gamma_par=2.0)
        with pytest.raises(RuntimeError, match="singular"):
            steady_state(dark, ProbeSettings(0.0, 0.0, 1.0), 0.0, 0.0)
        with pytest.raises(RuntimeError, match="singular"):
            transmission_spectrum(dark, 0.0, 0.0, grid=np.array([-1.0, 1.0]))


def _design_configs(rng, n):
    """Seeded configs over the design-scan ranges; each coupling is 0 one time in four."""
    def coupling():
        return 0.0 if rng.random() < 0.25 else mhz(rng.uniform(0.5, 15.0))

    for _ in range(n):
        t = rng.uniform(0.02, 0.6, 4)
        cfg = PhysicalConfig(
            T1=t[0], T2=t[1], T3=t[2], T4=t[3], L1=rng.uniform(0.3, 3.0), L2=rng.uniform(0.3, 3.0),
            Lf=rng.uniform(0.3, 5.0), alpha1=rng.uniform(0.0, 0.08), alpha2=rng.uniform(0.0, 0.08),
            alphaf=rng.uniform(0.0, 0.08), g1_eff=coupling(), g2_eff=coupling(),
        )
        yield cfg, mhz(rng.uniform(20.0, 80.0))


def _exact_a2_squared(rates, dc, da, g1, g2):
    """|a2|^2 at unit drive from a 40-digit LU solve of the dense 5x5 system."""
    matrix, rhs = oracle.build_linear_system(rates, ProbeSettings(dc, da, 1.0), g1, g2)
    with mpmath.workdps(40):
        x = mpmath.lu_solve(mpmath.matrix(matrix.tolist()), mpmath.matrix(rhs.tolist()))
        return abs(x[1]) ** 2


def _loadings(cfg):
    """Empty, either ensemble alone, and both."""
    return (0.0, 0.0), (cfg.g1_eff, 0.0), (0.0, cfg.g2_eff), (cfg.g1_eff, cfg.g2_eff)


def test_spectrum_matches_40_digit_solve():
    # these configs include points where a nested-fraction evaluation errs by 2.5e-14
    worst = 0.0
    for cfg, span in _design_configs(np.random.default_rng(5), 32):
        rates = derive_rates(cfg)
        grid = np.linspace(-span, span, 5)
        norm = _exact_a2_squared(rates, 0.0, 0.0, 0.0, 0.0)
        for (g1, g2), offset in itertools.product(_loadings(cfg), (0.0, mhz(1.5), mhz(-7.0))):
            spec = transmission_spectrum(rates, g1, g2, offset, grid=grid)
            for delta, got in zip(grid.tolist(), spec.transmission):
                want = _exact_a2_squared(rates, delta + offset, delta, g1, g2) / norm
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-14


def test_empty_chain_is_unity_on_resonance_for_every_config():
    # the norm repeats the grid's float operations at zero detuning, bit for bit
    for cfg, span in _design_configs(np.random.default_rng(3), 50):
        rates = derive_rates(cfg)
        spec = transmission_spectrum(rates, 0.0, 0.0, grid=np.linspace(-span, span, 7))
        assert spec.transmission[3] == 1.0


def _stacked(rates_list):
    """One DerivedRates whose fields are (n, 1) arrays, config by config."""
    return DerivedRates(**{f.name: np.array([[getattr(r, f.name)] for r in rates_list])
                           for f in fields(DerivedRates) if f.init})


def test_amplitudes_on_stacked_rates_equal_the_per_config_calls():
    configs = [(cfg, loading) for cfg, _ in _design_configs(np.random.default_rng(11), 20)
               for loading in _loadings(cfg)]
    rates = [derive_rates(cfg) for cfg, _ in configs]
    g1 = np.array([[g1] for _, (g1, _) in configs])
    g2 = np.array([[g2] for _, (_, g2) in configs])
    grid = np.linspace(-mhz(40.0), mhz(40.0), 101)
    offset = mhz(1.5)
    probe = ProbeSettings(grid + offset, grid, 1.0)
    stacked = steady_state(_stacked(rates), probe, g1, g2)
    worst = 0.0
    for i, (r, (_, loading)) in enumerate(zip(rates, configs)):
        single = steady_state(r, probe, *loading)
        for got, want in zip(vars(stacked).values(), vars(single).values()):
            assert got.shape == (len(configs), grid.size) and np.array_equal(got[i], want)
        for delta, a2 in zip(grid[::25].tolist(), stacked.a2[i, ::25]):
            want = _exact_a2_squared(r, delta + offset, delta, *loading)
            worst = max(worst, float(abs(abs(a2) ** 2 - want) / want))
    assert worst <= 1e-14


def test_stacked_rates_with_one_undamped_member_raise():
    rates = [derive_rates(cfg) for cfg, _ in _design_configs(np.random.default_rng(12), 4)]
    undamped_fiber = replace(rates[2], kappa_bloss=0.0, gamma_las=0.0)
    undamped_atoms = replace(rates[1], gamma_par=0.0, gamma_las=0.0)
    grid = np.linspace(-mhz(10.0), mhz(10.0), 11)       # holds zero detuning
    for member, match in ((undamped_fiber, "alphaf = 0"), (undamped_atoms, "gamma_par = 0")):
        stack = _stacked(rates[:1] + [member] + rates[2:])
        with pytest.raises(ValueError, match=match):
            steady_state(stack, ProbeSettings(grid, grid, 1.0), 0.0, 0.0)
        # off zero detuning the undamped member has a steady state
        steady_state(stack, ProbeSettings(grid + 1.0, grid + 1.0, 1.0), 0.0, 0.0)


def _complex_det_sq(rates, dc, da, g1, g2):
    """|Delta|^2 by the complex expression that the real-arithmetic core replaced."""
    idc = 1j * dc
    gp = rates.gamma_perp + 1j * da
    c1 = rates.kappa_1p + idc + g1**2 / gp
    c2 = rates.kappa_2p + idc + g2**2 / gp
    det = c1 * ((rates.kappa_b + idc) * c2 + rates.v2**2) + rates.v1**2 * c2
    return det.real**2 + det.imag**2


@pytest.mark.parametrize("scale, verdicts", [(1.0, {"T = 0 at the ends", "overflowed"}),
                                             (1e-60, {"singular"})])
def test_extreme_grids_keep_the_complex_expressions_verdict(scale, verdicts):
    # out to 1e100-1e308 MHz: a NaN |Delta|^2 is an overflow error, an infinite one gives
    # T = 0, an underflow is singular, as with the complex expression, and numpy warns of none
    rates = replace(RATES, **{f.name: getattr(RATES, f.name) * scale for f in fields(RATES) if f.init})
    seen = set()
    for (g1, g2), exponent in itertools.product(_loadings(CFG) + ((1e150, 0.0),), range(100, 309)):
        with np.errstate(all="ignore"):
            grid = np.linspace(-mhz(10.0**exponent), mhz(10.0**exponent), 5)
            det_sq = _complex_det_sq(rates, np.append(0.0, grid), np.append(0.0, grid),
                                     np.append(0.0, np.full(5, g1)), np.append(0.0, np.full(5, g2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.all(np.isfinite(grid)):
                with pytest.raises(ValueError, match="finite"):
                    transmission_spectrum(rates, g1, g2, grid=grid)
            elif np.all(det_sq >= SINGULAR_FLOOR):      # the norm, then the grid
                t = transmission_spectrum(rates, g1, g2, grid=grid).transmission
                want = det_sq[0] / det_sq[1:]
                assert np.array_equal(t == 0.0, want == 0.0) and np.allclose(t, want, rtol=1e-12, atol=0.0)
                seen.add("T = 0 at the ends" if t[0] == t[-1] == 0.0 else "finite")
            else:
                verdict = "singular" if np.any(det_sq < SINGULAR_FLOOR) else "overflowed"
                with pytest.raises(RuntimeError, match=verdict):
                    transmission_spectrum(rates, g1, g2, grid=grid)
                seen.add(verdict)
    assert seen == verdicts


def _reduced_whole_grid(summary, rates, grid):
    """The reduced model's transmission as one whole-grid expression."""
    k, gp = summary.kappa_d + rates.gamma_las, rates.gamma_perp
    d2 = grid * grid
    den_sq = (k * gp + summary.gd1**2 + summary.gd2**2 - d2) ** 2 + d2 * (k + gp) ** 2
    return _empty_chain_norm(rates) / summary.splitting_bright**4 * (gp * gp + d2) / den_sq


@pytest.mark.parametrize("points", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 20001])
def test_blocked_spectra_equal_the_whole_grid_evaluation(points):
    cfg = PhysicalConfig(Lf=2.27)
    rates = derive_rates(cfg)
    grid = np.linspace(-mhz(60.0), mhz(60.0), points)
    offset = mhz(1.5)
    for g1, g2 in ((0.0, 0.0), (cfg.g1_eff, 0.0), (0.0, cfg.g2_eff), (cfg.g1_eff, cfg.g2_eff)):
        spec = transmission_spectrum(rates, g1, g2, delta_c_offset=offset, grid=grid)
        whole = _empty_chain_norm(rates) / _delta_parts(rates, grid + offset, grid, g1, g2)[0]
        assert np.array_equal(spec.transmission, whole)
        summary = decompose(rates, g1, g2)
        reduced = reduced_spectrum(summary, rates, grid=grid)
        assert np.array_equal(reduced.transmission, _reduced_whole_grid(summary, rates, grid))


def test_undamped_fiber_raises_from_the_last_block():
    rates = replace(RATES, kappa_bloss=0.0, gamma_las=0.0)
    grid = np.linspace(-mhz(40.0), 0.0, 2 * _BLOCK + 5)    # zero detuning is the last point
    # the blocks alone: the norm comes from the damped RATES, the kernel from the undamped chain
    kernel = lambda norm, d: _delta_parts(rates, d, d, 0.0, 0.0)[0]   # noqa: E731
    assert np.all(_spectrum(RATES, grid[:-1], kernel).transmission > 0.0)     # the first blocks are regular
    with pytest.raises(ValueError, match="alphaf = 0"):
        _spectrum(RATES, grid, kernel)
    with pytest.raises(ValueError, match="alphaf = 0"):
        transmission_spectrum(rates, 0.0, 0.0, grid=grid)


def test_spectra_leave_the_callers_grid_unchanged():
    grid = np.linspace(-mhz(60.0), mhz(60.0), 2 * _BLOCK + 1)
    before = grid.copy()
    summary = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    for spec in (transmission_spectrum(RATES, CFG.g1_eff, CFG.g2_eff, mhz(1.5), grid=grid),
                 reduced_spectrum(summary, RATES, grid=grid)):
        assert np.array_equal(grid, before) and spec.detunings is grid
        assert not np.shares_memory(spec.transmission, grid)


#: grids every spectrum rejects, by the same rule as SaturationConfig's power_grid
_BAD_GRIDS = {
    "empty": [], "equal neighbours": [0.0, 1.0, 1.0], "-0.0 then 0.0": [-0.0, 0.0],
    "NaN inside": [0.0, math.nan, 2.0], "-inf end": [-math.inf, 0.0], "inf end": [0.0, math.inf],
    "decreasing": [1.0, 0.0], "0-d": 0.0, "column": [[0.0], [math.nan], [1.0]],
}


@pytest.mark.parametrize("grid", _BAD_GRIDS.values(), ids=_BAD_GRIDS)
def test_one_grid_rule_rejects_the_same_grids_everywhere(grid):
    summary = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    message = r"^detuning grid must be finite, nonempty and strictly increasing$"
    with pytest.raises(ValueError, match=message):
        transmission_spectrum(RATES, CFG.g1_eff, CFG.g2_eff, grid=np.array(grid))
    with pytest.raises(ValueError, match=message):
        reduced_spectrum(summary, RATES, grid=np.array(grid))
    positive = np.exp2(np.array(grid)) * 1e-9      # the same defect on positive powers
    for powers in (np.array(grid), positive):
        with pytest.raises(ValueError, match=r"^power_grid must be finite, positive and strictly increasing$"):
            SaturationConfig(power_grid=powers)


def test_one_point_and_extreme_grids_are_accepted():
    summary = decompose(RATES, CFG.g1_eff, CFG.g2_eff)
    assert transmission_spectrum(RATES, 0.0, 0.0, grid=np.array([0.0])).transmission.tolist() == [1.0]
    assert reduced_spectrum(summary, RATES, grid=np.array([-0.0])).transmission.shape == (1,)
    assert SaturationConfig(power_grid=np.array([1e-9])).power_grid.tolist() == [1e-9]
    # neighbours are compared, not differenced: 1e308 - (-1e308) would overflow with a RuntimeWarning,
    # which the suite makes an error; the grid passes, and the core then judges the overflowed |Delta|
    extreme = np.array([-1e308, 1e308])
    assert increasing_grid(extreme, "unused") is extreme
    with pytest.raises(RuntimeError, match="^[|]Delta[|] overflowed to NaN"):
        transmission_spectrum(RATES, 0.0, 0.0, grid=extreme)
    assert SaturationConfig(power_grid=np.array([1e-300, 1e308])).power_grid[-1] == 1e308


def test_stacked_multi_block_spectrum_equals_its_blocks_bit_for_bit():
    # three spectra in one (3, 1) call over 3 full blocks and one point, written block by block
    grid = np.linspace(-mhz(60.0), mhz(60.0), 3 * _BLOCK + 1)
    g1 = np.array([[0.0], [CFG.g1_eff], [2.0 * CFG.g1_eff]])
    g2 = np.array([[CFG.g2_eff], [0.0], [CFG.g2_eff]])
    spec = transmission_spectrum(RATES, g1, g2, grid=grid)
    blocks = [transmission_spectrum(RATES, g1, g2, grid=grid[i:i + _BLOCK]).transmission
              for i in range(0, grid.size, _BLOCK)]
    assert [b.shape for b in blocks] == [(3, _BLOCK)] * 3 + [(3, 1)]
    assert spec.transmission.shape == (3, grid.size)
    assert np.array_equal(spec.transmission, np.concatenate(blocks, axis=-1))
    for row, (a, b) in enumerate(zip(g1[:, 0].tolist(), g2[:, 0].tolist())):
        assert np.array_equal(spec.transmission[row], transmission_spectrum(RATES, a, b, grid=grid).transmission)


def test_steady_state_checks_stacked_couplings_elementwise():
    probe = ProbeSettings(0.0, 0.0, 1.0)
    for g1, g2 in ((np.array([1.0, -1.0]), 0.0), (0.0, np.array([[1.0], [math.nan]])), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="^coupling strengths must be non-negative$"):
            steady_state(RATES, probe, g1, g2)
    # float inputs give one amplitude each, an np.complex128, which is a complex
    amps = steady_state(RATES, probe, CFG.g1_eff, CFG.g2_eff)
    assert all(type(a) is np.complex128 and isinstance(a, complex) for a in vars(amps).values())
    stacked = steady_state(RATES, ProbeSettings(np.array([0.0, mhz(5.0)]), 0.0, 1.0),
                           np.array([[CFG.g1_eff], [0.0]]), CFG.g2_eff)
    assert stacked.a1.shape == (2, 2) and stacked.a1[0, 0] == amps.a1


def test_an_overflowed_empty_chain_norm_is_named():
    # L1 = Lf = 1e-80 m: v1 = 6.4e87 rad/s and every rate's square is finite, but |Delta_0|^2 is
    # not; both spectra name it, where they used to divide by an infinite norm into NaN
    rates = derive_rates(PhysicalConfig(L1=1e-80, Lf=1e-80))
    summary = decompose(rates, 0.0, 0.0)
    for spectrum in (lambda: transmission_spectrum(rates, 0.0, 0.0, grid=[-1.0, 0.0, 1.0]),
                     lambda: reduced_spectrum(summary, rates, grid=[-1.0, 0.0, 1.0])):
        with pytest.raises(RuntimeError, match=r"^the empty-chain norm \|Delta_0\|\^2 overflowed: "
                                               r"Delta_0 = 4\.76225592120\d*e\+182$"):
            spectrum()
    # with kappa_2r*v1*v2 == 0 the norm is 0 before it is squared, and so is T
    dark = replace(rates, kappa_2r=0.0)
    assert transmission_spectrum(dark, 0.0, 0.0, grid=[-1.0, 0.0, 1.0]).transmission.tolist() == [0.0] * 3


def test_steady_state_names_amplitudes_that_overflow():
    # c_fiber = 1e150 m/s: the rates are about 1e149 rad/s, so Delta ~ rate^3 is infinite in both
    # parts, where the amplitudes used to be inf/inf = NaN, with numpy's warning
    rates = derive_rates(PhysicalConfig(c_fiber=1e150))
    with pytest.raises(RuntimeError, match=r"^Delta, c2 or m overflowed: the amplitudes are not finite$"):
        steady_state(rates, ProbeSettings(), CFG.g1_eff, CFG.g2_eff)
