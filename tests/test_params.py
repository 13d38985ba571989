import math
import sys

import numpy as np
import pytest

from fiberqed.params import (
    C_FIBER,
    C_VACUUM,
    FIBER_INDEX,
    DerivedRates,
    PhysicalConfig,
    derive_rates,
    holds,
    mhz,
    rate_report,
    to_mhz,
)
from dataclasses import fields, replace

from references import reference_rates


def test_unit_helpers_roundtrip():
    assert mhz(1.0) == pytest.approx(2.0 * math.pi * 1e6, rel=1e-15)
    for x in (0.27, 5.2, 12.1):
        assert to_mhz(mhz(x)) == pytest.approx(x, rel=1e-15)


def test_fiber_speed_of_light():
    assert C_FIBER == pytest.approx(C_VACUUM / 1.4525, rel=1e-15)
    assert FIBER_INDEX == 1.4525


def test_reference_rates_reproduced():
    """Every entry of the golden rate table comes out of derive_rates.

    The table is rounded to 2-3 significant figures; 1% covers that rounding
    for every entry except kappa_bloss at Lf=2.27 m, where the computed value
    0.1462 MHz rounds to the tabulated 0.15 (2.5% off).
    """
    ref = reference_rates()
    cfg = PhysicalConfig()

    scalars = {
        "kappa_1l": "kappa_1l",
        "kappa_1loss": "kappa_1loss",
        "kappa_1r": "kappa_1r",
        "kappa_2l": "kappa_2l",
        "kappa_2loss": "kappa_2loss",
        "kappa_2r": "kappa_2r",
    }
    rates = derive_rates(cfg)
    for key, attr in scalars.items():
        assert to_mhz(getattr(rates, attr)) == pytest.approx(ref[key], rel=0.01)
    assert to_mhz(cfg.gamma_par) == pytest.approx(ref["gamma_par"], rel=0.01)
    assert to_mhz(cfg.gamma_las) == pytest.approx(ref["gamma_las"], rel=0.01)

    for lf_key, tabulated in ref["kappa_bloss"].items():
        r = derive_rates(replace(cfg, Lf=float(lf_key)))
        tol = 0.03 if lf_key == "2.27" else 0.01  # tabulated 0.15 is a 2-figure rounding
        assert to_mhz(r.kappa_bloss) == pytest.approx(tabulated, rel=tol)
    for name in ("v1", "v2"):
        for lf_key, tabulated in ref[name].items():
            r = derive_rates(replace(cfg, Lf=float(lf_key)))
            assert to_mhz(getattr(r, name)) == pytest.approx(tabulated, rel=0.01)


def test_derived_rate_identities():
    cfg = PhysicalConfig()
    r = derive_rates(cfg)
    assert r.kappa_1 == pytest.approx(r.kappa_1l + r.kappa_1loss, rel=1e-15)
    assert r.kappa_2 == pytest.approx(r.kappa_2r + r.kappa_2loss, rel=1e-15)
    assert r.kappa_1p == pytest.approx(r.kappa_1 + cfg.gamma_las, rel=1e-15)
    assert r.kappa_2p == pytest.approx(r.kappa_2 + cfg.gamma_las, rel=1e-15)
    assert r.kappa_b == pytest.approx(r.kappa_bloss + cfg.gamma_las, rel=1e-15)
    assert r.gamma_perp == pytest.approx(0.5 * cfg.gamma_par + cfg.gamma_las, rel=1e-15)
    # the composites are computed when built, so replace recomputes them from the new parts
    cut = replace(r, kappa_2r=0.0)
    assert (cut.kappa_2, cut.kappa_2p) == (r.kappa_2loss, r.kappa_2loss + r.gamma_las)
    doubled = replace(r, kappa_1l=2 * r.kappa_1l)
    k1 = 2 * r.kappa_1l + r.kappa_1loss
    assert (doubled.kappa_1, doubled.kappa_1p) == (k1, k1 + r.gamma_las)
    no_las = replace(r, gamma_las=0.0)
    assert (no_las.kappa_1p, no_las.kappa_2p, no_las.kappa_b, no_las.gamma_perp) == (
        r.kappa_1, r.kappa_2, r.kappa_bloss, 0.5 * r.gamma_par)
    with pytest.raises(ValueError, match="kappa_b"):
        replace(r, kappa_b=1.0)
    # (n, 1) arrays of the init fields give each config's composites elementwise
    configs = [PhysicalConfig(Lf=0.83), PhysicalConfig(Lf=2.27, alpha1=0.0, gamma_las=0.0),
               PhysicalConfig(T4=0.2, alphaf=0.05, gamma_par=mhz(3.1), gamma_las=mhz(1.1))]
    rates = [derive_rates(c) for c in configs]
    stacked = DerivedRates(**{f.name: np.array([[getattr(x, f.name)] for x in rates])
                              for f in fields(DerivedRates) if f.init})
    for f in fields(DerivedRates):
        assert np.array_equal(getattr(stacked, f.name), [[getattr(x, f.name)] for x in rates]), f.name


def test_frozen_rate_values():
    # frozen from the closed-form expressions at full precision
    r = derive_rates(PhysicalConfig())
    assert to_mhz(r.kappa_1l) == pytest.approx(1.1604334182084908, rel=1e-12)
    assert to_mhz(r.v1) == pytest.approx(9.642297611984485, rel=1e-12)
    assert to_mhz(r.v2) == pytest.approx(7.242017482112674, rel=1e-12)
    assert to_mhz(r.kappa_bloss) == pytest.approx(0.2697734205474924, rel=1e-12)


def test_v_scaling_with_fiber_length():
    cfg = PhysicalConfig()
    r1 = derive_rates(cfg)
    r2 = derive_rates(replace(cfg, Lf=2.0 * cfg.Lf))
    assert r2.v1 == pytest.approx(r1.v1 / math.sqrt(2.0), rel=1e-15)
    assert r2.v2 == pytest.approx(r1.v2 / math.sqrt(2.0), rel=1e-15)
    # strictly decreasing in Lf
    assert r2.v1 < r1.v1 and r2.v2 < r1.v2


def test_lossless_fiber():
    r = derive_rates(replace(PhysicalConfig(), alphaf=0.0))
    assert r.kappa_bloss == 0.0


def test_loss_rate_small_alpha_expansion():
    cfg = PhysicalConfig()
    for alpha in (1e-4, 1e-3):
        r = derive_rates(replace(cfg, alphaf=alpha))
        first_order = cfg.c_fiber * alpha / (2.0 * cfg.Lf)
        assert abs(r.kappa_bloss - first_order) < first_order * alpha


@pytest.mark.parametrize(
    "bad",
    [
        {"T1": 0.0},
        {"T1": 1.5},
        {"T3": -0.1},
        {"alpha2": 1.0},
        {"alphaf": -0.01},
        {"L1": 0.0},
        {"Lf": -1.0},
        {"c_fiber": 0.0},
        {"gamma_par": -1.0},
        {"g1_eff": float("nan")},
        {"T2": float("inf")},
    ],
)
def test_validation_rejects_bad_inputs(bad):
    # the config is checked when built, so no invalid config reaches derive_rates
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        replace(PhysicalConfig(), **bad)


@pytest.mark.parametrize("name", [f.name for f in fields(PhysicalConfig) if "mhz" in f.metadata])
def test_rate_whose_square_overflows_is_rejected(name):
    # every rate is squared somewhere in rad/s: up to sqrt(max float) = 1.34e154 rad/s it may be
    top = math.sqrt(sys.float_info.max)
    replace(PhysicalConfig(), **{name: top})
    with pytest.raises(ValueError, match=rf"rate {name}=.* and so must its square"):
        replace(PhysicalConfig(), **{name: math.nextafter(top, math.inf)})


@pytest.mark.parametrize("name", [f.name for f in fields(DerivedRates) if f.init])
def test_derived_rate_whose_square_overflows_is_rejected(name):
    # the same rule on every derived rate, composites included, naming its [physical] keys, for a
    # float and for stacked rates alike
    rates, top = derive_rates(PhysicalConfig()), math.sqrt(sys.float_info.max)
    keys = {f.name: f.metadata["from"] for f in fields(DerivedRates)}
    good = getattr(rates, name)
    for bad in (math.nextafter(top, math.inf), -math.nextafter(top, math.inf), math.inf, -math.inf, math.nan):
        for value in (bad, np.array([good, bad]), np.array([[bad], [good]])):
            with pytest.raises(ValueError) as info, np.errstate(over="ignore"):
                replace(rates, **{name: value})
            # the first field in declaration order that fails: kappa_1p comes before gamma_las
            failing, r = ("kappa_1p", rates.kappa_1 + value) if name == "gamma_las" else (name, value)
            assert str(info.value) == (f"rate {failing}={r!r} rad/s, from [physical] {keys[failing]}, must be "
                                       "finite, and so must its square in (rad/s)^2")


#: each PhysicalConfig field's rule as its message and the values beyond its range, by check order
_RULES = [
    (("T1", "T2", "T3", "T4"), "mirror transmittance {}={!r} must lie in (0, 1)", (0.0, 1.0, -0.5)),
    (("alpha1", "alpha2", "alphaf"), "single-pass loss {}={!r} must lie in [0, 1)", (-0.01, 1.0)),
    (("L1", "L2", "Lf", "c_fiber", "lambda_probe"), "{}={!r} must be positive and finite", (0.0, -1.0)),
    (tuple(f.name for f in fields(PhysicalConfig) if "mhz" in f.metadata),
     "rate {}={!r} must be non-negative and finite, and so must its square in (rad/s)^2",
     (-1e-300, math.nextafter(math.sqrt(sys.float_info.max), math.inf))),
]


def test_every_physical_field_is_rejected_by_name_with_its_message():
    assert sorted(n for names, _, _ in _RULES for n in names) == sorted(f.name for f in fields(PhysicalConfig))
    for names, message, outside in _RULES:
        for name in names:
            for bad in (math.nan, math.inf, -math.inf, *outside):
                with pytest.raises(ValueError) as info:
                    PhysicalConfig(**{name: bad})
                assert str(info.value) == message.format(name, bad)
    # two bad fields: the one checked first is named, transmittances first and rates last
    for first, second in (("T4", "alpha1"), ("alphaf", "L1"), ("lambda_probe", "gamma_par")):
        with pytest.raises(ValueError, match=rf"\b{first}="):
            PhysicalConfig(**{first: math.nan, second: math.nan})


def test_stacked_derived_rates_are_checked_elementwise():
    rates = derive_rates(PhysicalConfig())
    assert replace(rates, v2=np.array([rates.v2, 2.0 * rates.v2])).v2.shape == (2,)
    with np.errstate(over="ignore"):        # an array squares with numpy's overflow warning
        with pytest.raises(ValueError, match=r"^rate v2=array\(\[.*\]\) rad/s, from \[physical\] c_fiber, T3, L2, Lf,"):
            replace(rates, v2=np.array([rates.v2, 1e155]))
        with pytest.raises(ValueError, match=r"^rate kappa_1=.*, from \[physical\] c_fiber, T1, L1, alpha1,"):
            replace(rates, kappa_1l=np.array([1e154, 0.0]), kappa_1loss=np.array([1e154, 0.0]))


def test_gamma_perp_whose_square_underflows_is_rejected():
    # the spectra divide by gamma_perp^2 + delta_a^2, which a nonzero gamma_perp must keep nonzero
    message = (r"^rate gamma_perp=.* rad/s, from \[physical\] gamma_par, gamma_las, must be 0 or have "
               r"a square in \(rad/s\)\^2 that does not underflow$")
    for gamma_par in (1e-160, 2e-154, 2.0 * 5e-324):       # gamma_perp = gamma_par/2 here
        with pytest.raises(ValueError, match=message):
            derive_rates(PhysicalConfig(gamma_par=gamma_par, gamma_las=0.0))
    assert derive_rates(PhysicalConfig(gamma_par=0.0, gamma_las=0.0)).gamma_perp == 0.0
    assert derive_rates(PhysicalConfig(gamma_par=3e-154, gamma_las=0.0)).gamma_perp == 1.5e-154
    rates = derive_rates(PhysicalConfig())
    with pytest.raises(ValueError, match=r"^rate gamma_perp=array\(\[.*\]\) rad/s"):
        replace(rates, gamma_par=np.array([rates.gamma_par, 1e-160]), gamma_las=0.0)
    assert replace(rates, gamma_par=np.array([rates.gamma_par, 0.0])).gamma_perp.shape == (2,)


def test_rate_report_format():
    text = rate_report(PhysicalConfig())
    lines = text.splitlines()
    assert lines[0].split() == ["parameter", "MHz"]
    assert any(line.startswith("kappa_1l") and "1.16" in line for line in lines)
    assert any(line.startswith("v1") and "9.64" in line for line in lines)
    assert len(lines) == 18  # header + 17 rates


def test_rate_report_labels_exactly_the_rates_that_depend_on_lf():
    # the label is read off each rate's "from" keys, which the rates themselves bear out:
    # kappa_b folds in the fiber loss kappa_bloss, so it depends on Lf too
    short, long_ = PhysicalConfig(), replace(PhysicalConfig(), Lf=2.27)
    labelled = {line.split()[0] for line in rate_report(long_).splitlines() if "(Lf=2.27 m)" in line}
    sourced = {f.name for f in fields(DerivedRates) if "Lf" in f.metadata["from"].split(", ")}
    a, b = derive_rates(short), derive_rates(long_)
    moved = {f.name for f in fields(DerivedRates) if getattr(a, f.name) != getattr(b, f.name)}
    assert labelled == sourced == moved == {"kappa_bloss", "v1", "v2", "kappa_b"}
    # the column keeps the width of the longest label, kappa_bloss's
    assert "kappa_b (Lf=1.23 m)      0.635" in rate_report(short).splitlines()


def test_derived_rates_carry_the_linewidths():
    for cfg in (PhysicalConfig(), replace(PhysicalConfig(), gamma_par=mhz(3.1), gamma_las=0.0)):
        r = derive_rates(cfg)
        assert r.gamma_par == cfg.gamma_par
        assert r.gamma_las == cfg.gamma_las


def test_holds_only_where_every_element_holds():
    nan = math.nan
    held = (True, np.bool_(True), np.array([True, True]), np.array([], dtype=bool),
            np.array([1.0, 2.0]) > 0.0, np.array([[0.0], [1e300]]) < np.inf, nan != 0.0)
    failed = (False, np.bool_(False), np.array([True, False]), np.array([1.0, -2.0]) > 0.0,
              np.array([[0.0], [np.inf]]) < np.inf, nan >= 0.0, np.float64(nan) >= 0.0, np.array([1.0, nan]) >= 0.0, abs(nan) < math.inf)
    for ok in held:
        assert holds(ok) is True, ok
    for ok in failed:
        assert holds(ok) is False, ok
