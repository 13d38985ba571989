import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy import special

from bessel_series import bessel_k_series
from fiberqed import fiber_mode, linear_response, saturation
from fiberqed.linear_response import ProbeSettings, SteadyStateAmplitudes
from fiberqed.oracle import (
    adaptive_quadrature,
    build_linear_system,
    run_validation,
    solve_dense,
)
from fiberqed.params import ModeFunctionParams, PhysicalConfig, derive_rates, mhz
from dataclasses import replace

CFG = PhysicalConfig()
RATES = derive_rates(CFG)


def test_system_structure():
    probe = ProbeSettings(mhz(2.0), mhz(1.0), 3.0)
    matrix, rhs = build_linear_system(RATES, probe, CFG.g1_eff, CFG.g2_eff)
    assert matrix.shape == (5, 5)
    assert np.all(np.real(np.diag(matrix)) > 0.0)
    assert rhs[0] == -3.0j
    assert np.all(rhs[1:] == 0.0)


def test_no_atoms_decouples_coherences():
    probe = ProbeSettings(0.0, 0.0, 1.0)
    amps = solve_dense(build_linear_system(RATES, probe, 0.0, 0.0))
    assert amps.s1 == 0.0 and amps.s2 == 0.0
    assert abs(amps.a1) > 0.0


def test_no_fiber_decouples_cavities():
    rates = replace(RATES, v1=0.0, v2=0.0)
    probe = ProbeSettings(0.0, 0.0, 1.0)
    amps = solve_dense(build_linear_system(rates, probe, CFG.g1_eff, CFG.g2_eff))
    assert amps.b == 0.0
    assert amps.a2 == 0.0 and amps.s2 == 0.0
    assert abs(amps.a1) > 0.0


def test_solve_dense_identity():
    amps = solve_dense((np.eye(5, dtype=complex), np.eye(5, dtype=complex)[0]))
    assert amps.a1 == 1.0
    assert amps.a2 == amps.b == amps.s1 == amps.s2 == 0.0


def test_solve_dense_random_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        rhs = rng.normal(size=5) + 1j * rng.normal(size=5)
        x = solve_dense((m, rhs))
        vec = np.array([x.a1, x.a2, x.b, x.s1, x.s2])
        assert np.max(np.abs(m @ vec - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_solve_dense_singular():
    with pytest.raises(RuntimeError):
        solve_dense((np.zeros((5, 5), dtype=complex), np.ones(5, dtype=complex)))


def test_adaptive_quadrature_classics():
    assert adaptive_quadrature(np.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-12)
    assert adaptive_quadrature(lambda u: np.exp(-u * u), -8.0, 8.0, 1e-12) == pytest.approx(
        math.sqrt(math.pi), abs=1e-12
    )


def test_adaptive_quadrature_nonconvergence():
    step = lambda x: np.where(x < 1.0 / math.sqrt(2.0), 0.0, 1.0)
    with pytest.raises(RuntimeError, match="depth 40"):
        adaptive_quadrature(step, 0.0, 1.0, 1e-15)
    with pytest.raises(RuntimeError, match="depth 40"):
        _recursive_simpson(lambda x: float(step(x)), 0.0, 1.0, 1e-15)


def _nan_integrand():
    """A NaN-valued integrand that counts its points and fails the test past 1e5 of them,
    before a quadrature that keeps splitting every interval can exhaust memory."""
    seen = [0]

    def f(u):
        seen[0] += u.size
        if seen[0] > 100_000:
            pytest.fail(f"the quadrature kept splitting: {seen[0]} points")
        return np.full(u.shape, math.nan)
    return f, seen


def test_adaptive_quadrature_rejects_non_finite_bounds_and_values():
    f, seen = _nan_integrand()
    with pytest.raises(RuntimeError, match="non-finite integrand at depth 0"):
        adaptive_quadrature(f, 0.0, 1.0)
    assert seen[0] == 5
    for lo, hi, name in ((0.0, math.nan, "hi"), (0.0, math.inf, "hi"), (-math.inf, 1.0, "lo")):
        f, seen = _nan_integrand()
        with pytest.raises(ValueError, match=f"bound {name}="):
            adaptive_quadrature(f, lo, hi)
        assert seen[0] == 0


def _recursive_simpson(f, lo, hi, tol):
    """The recursive adaptive Simpson rule, one Python call per interval (reference)."""

    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth >= 40:
            raise RuntimeError("adaptive quadrature failed to converge at depth 40")
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth + 1
        )

    fa, fb = f(lo), f(hi)
    m, fm, whole = simpson(lo, fa, hi, fb)
    return recurse(lo, fa, hi, fb, m, fm, whole, tol, 0)


def _validation_integrals():
    """The seven (integrand, lo, hi, tol) that run_validation integrates."""
    a_mf, qx = saturation.SaturationConfig.A_mf, saturation.SaturationConfig.q_prime_x0

    def cloud(x2, sigma):
        def integrand(u):
            ratio2 = (sigma * u) ** 2
            s = np.exp(-2.0 * qx * (np.sqrt(1.0 + ratio2) - 1.0)) / (1.0 + ratio2) ** 1.5
            return np.exp(-u * u) * (1.0 - 1.0 / np.sqrt((1.0 + a_mf * x2 * s) * (1.0 + x2 * s)))
        return integrand

    fit = fiber_mode.fit_simplified(ModeFunctionParams())
    p = fit.params
    yield from ((cloud(x2, sigma), -8.0, 8.0, 1e-13) for x2 in (0.25, 1.0, 4.0) for sigma in (0.0, 0.3))
    yield lambda z: fiber_mode.g_squared_simplified(fit, p.r0, 0.0, z), 0.0, math.pi / p.beta, 1e-14


def test_adaptive_quadrature_matches_the_recursion_on_the_validation_integrals():
    integrals = list(_validation_integrals())
    assert len(integrals) == 7
    for f, lo, hi, tol in integrals:
        scalar = lambda u: float(f(u))
        ref = _recursive_simpson(scalar, lo, hi, tol)
        assert abs(adaptive_quadrature(f, lo, hi, tol) - ref) <= 1e-15 * abs(ref)
        # with f evaluated point by point, as the recursion evaluates it, the
        # pieces are added pairwise in the recursion's order: identical floats
        pointwise = lambda u: np.array([scalar(v) for v in u])
        assert adaptive_quadrature(pointwise, lo, hi, tol) == ref


def test_stored_bessel_table_is_the_series():
    # run_validation reads its reference values from this file; bessel_series says how to
    # regenerate it
    table = json.loads(resources.files("fiberqed").joinpath("data/bessel_k_series.json").read_text())
    assert table["x"] == np.geomspace(1e-3, 30.0, 25).tolist()
    assert len(table["K"]) == 3
    for order, row in enumerate(table["K"]):
        assert row == [bessel_k_series(order, x) for x in table["x"]]


def test_bessel_series_against_scipy():
    for x in (0.1, 1.0, 4.0):
        assert bessel_k_series(0, x) == pytest.approx(float(special.k0(x)), rel=1e-12)
        assert bessel_k_series(1, x) == pytest.approx(float(special.k1(x)), rel=1e-12)
        k2 = float(special.k0(x) + 2.0 / x * special.k1(x))
        assert bessel_k_series(2, x) == pytest.approx(k2, rel=1e-12)


def test_run_validation_default_config():
    results = run_validation(draws=100)
    assert len(results) == 4
    for res in results:
        assert res.passed, f"{res.name}: {res.max_error} > {res.tolerance}"


def test_run_validation_other_fiber_length():
    results = run_validation(replace(CFG, Lf=0.83), draws=50)
    assert all(res.passed for res in results)


def test_linear_gate_catches_a_closed_form_off_by_1e_8(monkeypatch):
    def check():
        return next(r for r in run_validation() if r.name == "linear closed form vs dense solve")

    assert check().passed
    steady_state = linear_response.steady_state

    def skewed(*args):
        amps = steady_state(*args)
        return replace(amps, a2=amps.a2 * (1.0 + 1e-8))

    monkeypatch.setattr(linear_response, "steady_state", skewed)
    assert not check().passed


def test_stacked_systems_solve_like_single_ones():
    dc = np.array([0.0, mhz(3.0), mhz(-12.0)])
    da = np.array([0.0, mhz(3.0), mhz(7.0)])
    g1 = np.array([0.0, CFG.g1_eff, CFG.g1_eff])
    stack = solve_dense(build_linear_system(RATES, ProbeSettings(dc, da, 2.0), g1, CFG.g2_eff))
    for i in range(3):
        probe = ProbeSettings(float(dc[i]), float(da[i]), 2.0)
        one = solve_dense(build_linear_system(RATES, probe, float(g1[i]), CFG.g2_eff))
        for name in ("a1", "a2", "b", "s1", "s2"):
            assert getattr(stack, name)[i] == getattr(one, name)


def test_dense_solve_takes_the_built_pair_single_or_stacked():
    probe = ProbeSettings(mhz(2.0), mhz(1.0), 3.0)
    system = build_linear_system(RATES, probe, CFG.g1_eff, CFG.g2_eff)
    assert isinstance(system, tuple) and [part.shape for part in system] == [(5, 5), (5,)]
    one = solve_dense(system)
    assert isinstance(one, SteadyStateAmplitudes) and np.ndim(one.a2) == 0
    stacked = solve_dense(build_linear_system(
        RATES, ProbeSettings(np.array([mhz(2.0), 0.0]), mhz(1.0), 3.0), CFG.g1_eff, CFG.g2_eff))
    assert isinstance(stacked, SteadyStateAmplitudes) and stacked.a2.shape == (2,)
    assert stacked.a2[0] == one.a2


def test_stacked_solve_checks_each_residual():
    # condition number 1e16: the solve's residual is far above 1e-12 of that
    # system's rhs, and the well-posed system stacked with it does not hide it
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    q2, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    good = np.eye(5, dtype=complex)
    bad = q1 @ np.diag([1.0, 1.0, 1.0, 1.0, 1e-16]) @ q2
    rhs = np.zeros((2, 5), dtype=complex)
    rhs[:, 0] = 1.0
    assert solve_dense((good, rhs[0])).a1 == 1.0
    with pytest.raises(RuntimeError, match="residual too large"):
        solve_dense((np.stack([good, bad]), rhs))
