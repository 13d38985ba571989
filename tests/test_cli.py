import gc
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fiberqed import cli, fiber_mode
from fiberqed.cli import (
    ConfigError,
    RunConfig,
    format_config,
    main,
    parse_config,
    run_subcommand,
)
from fiberqed.params import ModeFunctionParams, PhysicalConfig, derive_rates, mhz, to_mhz


def test_empty_config_is_defaults():
    cfg = parse_config("")
    assert cfg.physical.Lf == 1.23
    assert cfg.physical.T1 == 0.13
    assert cfg.atoms.loading == "both"
    assert cfg.atoms.g1_eff == 7.2
    assert cfg.atoms.g2_eff == 7.3
    assert cfg.physical.g1_0 == 0.75
    assert cfg.physical.g2_0 == 1.2
    assert cfg.probe.grid_points == 601


@pytest.mark.parametrize("section,key", [
    ("saturation", "A_mf"), ("mode", "A_mf"), ("mode", "wavelength"), ("mode", "n1"),
    ("saturation", "g0"), ("saturation", "N_eff"),
])
def test_removed_mode_keys_exit_with_code_2(tmp_path, section, key):
    # the fit supplies A_mf; the wavelength is [physical] lambda_probe and n1
    # is params.FIBER_INDEX; g0 is [physical] g{k}_0 and N_eff = ([atoms] g{k}_eff / g0)^2
    path = tmp_path / "old.cfg"
    path.write_text(f"[{section}]\n{key} = 0.17\n")
    assert main(["params", "--config", str(path)]) == 2


def _saturation_config(cfg):
    return cfg.saturation_config(derive_rates(cfg.physical_config()))


def test_saturation_config_carries_the_fitted_mode_function():
    for text in ("", "[mode]\nr0 = 450e-9\n", "[physical]\nlambda_probe = 8.5e-7\n",
                 "[saturation]\nwhich_cavity = 2\n",
                 "[physical]\ng1_0 = 0.9\ng2_0 = 0.6\n[atoms]\ng1_eff = 3.1\ng2_eff = 11.7\n"
                 "[saturation]\nwhich_cavity = 2\n"):
        cfg = parse_config(text)
        fit = fiber_mode.fit_simplified(fiber_mode.make_mode_params(
            wavelength=cfg.physical.lambda_probe, r0=cfg.mode.r0,
        ))
        sat = _saturation_config(cfg)
        assert sat.A_mf == fit.A_mf
        assert sat.q_prime_x0 == fit.qprime * cfg.mode.r0
        assert cfg.mode_fit() == fit
        # g0 and N_eff have one source each, the cavity's [physical] and [atoms] keys
        k = cfg.saturation.which_cavity
        g0, g_eff = getattr(cfg.physical, f"g{k}_0"), getattr(cfg.atoms, f"g{k}_eff")
        assert sat.which_cavity == k
        assert sat.g0 == mhz(g0)
        assert sat.N_eff == (g_eff / g0) ** 2
    assert _saturation_config(parse_config("")).q_prime_x0 == pytest.approx(1.1165, abs=1e-4)


def test_readme_example_config_parses():
    # the documented example must not show a key the parser no longer knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    parse_config(blocks[0])


def test_r_span_bound_is_a_parse_error():
    # the bound is checked before any profile is evaluated, and the bound itself is valid
    assert parse_config("[mode]\nr_span_nm = 1e5\n").mode.r_span_nm == 1e5
    with pytest.raises(ConfigError, match=r"r_span_nm=1000000000000.0 must lie in \(0, 100000\]"):
        parse_config("[mode]\nr_span_nm = 1e12\n")


def test_mode_geometry_keys_are_the_mode_function_params_fields():
    # every geometry field but the wavelength, which is [physical] lambda_probe, with its default
    grid = ("r_span_nm", "r_points", "phi_points", "z_points")
    keys = {name: default for name, default in vars(RunConfig().mode).items() if name not in grid}
    assert keys == {f.name: f.default for f in fields(ModeFunctionParams) if f.name != "wavelength"}
    assert ModeFunctionParams.wavelength == RunConfig().physical.lambda_probe


def test_cli_import_leaves_out_scipy_optimize_and_mpmath():
    # fiberqed.oracle is imported by `validate` alone, numpy by the commands that use it
    src = os.path.dirname(os.path.dirname(fiber_mode.__file__))
    code = (
        "import sys, fiberqed.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy', 'mpmath', 'numpy', 'fiberqed.oracle'))))"
    )
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_empty_config_is_physical_config_defaults():
    assert parse_config("").physical_config() == PhysicalConfig()


def test_every_physical_field_has_exactly_one_config_key():
    for f in fields(PhysicalConfig):
        homes = [
            section for section in ("physical", "atoms")
            if f.name in vars(getattr(RunConfig(), section))
        ]
        assert len(homes) == 1, f.name
        cfg = parse_config(f"[{homes[0]}]\n{f.name} = 0.5\n")
        expect = mhz(0.5) if "mhz" in f.metadata else 0.5
        assert getattr(cfg.physical_config(), f.name) == expect


def test_fiber_length_override():
    cfg = parse_config("[physical]\nLf = 2.27\n")
    rates = derive_rates(cfg.physical_config())
    assert to_mhz(rates.v1) == pytest.approx(7.10, rel=0.01)


def test_comments_and_inline_comments():
    cfg = parse_config("# header\n[physical]\nLf = 0.83  # short fiber\n")
    assert cfg.physical.Lf == 0.83


def test_unknown_key_is_error():
    with pytest.raises(ConfigError):
        parse_config("[physical]\nLff = 1.0\n")


def test_unknown_section_is_error():
    with pytest.raises(ConfigError):
        parse_config("[physics]\nLf = 1.0\n")


def test_bad_value_is_error():
    with pytest.raises(ConfigError):
        parse_config("[physical]\nLf = long\n")
    with pytest.raises(ConfigError):
        parse_config("[probe]\ngrid_points = 12.5\n")


def test_range_validation():
    with pytest.raises(ConfigError):
        parse_config("[physical]\nT1 = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[atoms]\nloading = everywhere\n")
    with pytest.raises(ConfigError):
        parse_config("[saturation]\nmodel = magic\n")
    with pytest.raises(ConfigError, match="which_cavity"):
        parse_config("[saturation]\nwhich_cavity = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[output]\nformats = pdf\n")


def test_default_config_text():
    # section order, key order and the repr of each default float, as `format_config` writes them
    assert format_config(RunConfig()) == (
        "[physical]\nT1 = 0.13\nT2 = 0.39\nT3 = 0.33\nT4 = 0.06\nL1 = 0.92\nL2 = 1.38\nLf = 1.23\n"
        "alpha1 = 0.02\nalpha2 = 0.02\nalphaf = 0.02\ngamma_par = 5.2\ngamma_las = 0.365\ng1_0 = 0.75\n"
        "g2_0 = 1.2\nc_fiber = 206397561.44578314\nlambda_probe = 8.52e-07\n\n"
        "[probe]\ngrid_min = -30.0\ngrid_max = 30.0\ngrid_points = 601\n\n"
        "[atoms]\nloading = both\ng1_eff = 7.2\ng2_eff = 7.3\n\n"
        "[saturation]\nwhich_cavity = 1\nmodel = closed_form\nsigma_y_over_x0 = 0.0\npower_min_pW = 1.0\n"
        "power_max_pW = 1000000.0\npower_points = 61\n\n"
        "[mode]\nbeta = 7879250.0\nn2 = 1.0\ns = -0.828\na = 2e-07\nr0 = 4e-07\nr_span_nm = 300.0\n"
        "r_points = 31\nphi_points = 5\nz_points = 9\n\n"
        "[output]\ndirectory = .\nformats = csv\n"
    )


def test_config_roundtrip():
    cfg = parse_config("[physical]\nLf = 0.83\nT1 = 0.125\n[atoms]\nloading = cavity1\n")
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_loaded_couplings():
    for loading, expect in (
        ("none", (0.0, 0.0)),
        ("cavity1", (7.2, 0.0)),
        ("cavity2", (0.0, 7.3)),
        ("both", (7.2, 7.3)),
    ):
        cfg = parse_config(f"[atoms]\nloading = {loading}\n")
        g1, g2 = cfg.loaded_couplings()
        assert (to_mhz(g1), to_mhz(g2)) == pytest.approx(expect)


def test_params_command(capsys):
    assert run_subcommand("params", RunConfig()) == 0
    out = capsys.readouterr().out
    assert "kappa_1l" in out and "1.16" in out


def test_library_dispatch_passes_every_flag_at_its_parser_default(monkeypatch):
    # run_subcommand without args reads the defaults off the parser, so a new flag cannot be missed
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "normal-modes", lambda cfg, args: seen.append(args) or 0)
    assert run_subcommand("normal-modes", RunConfig()) == 0
    flags = {a.dest: a.default for a in cli._build_parser()._actions if a.dest not in ("help", "command")}
    assert {dest: getattr(seen[0], dest) for dest in flags} == flags
    assert flags["band"] is None and flags["kv"] is False


def test_unknown_subcommand():
    with pytest.raises(ConfigError):
        run_subcommand("spectra", RunConfig())


def test_spectrum_command_writes_csv(tmp_path):
    cfg = parse_config(f"[output]\ndirectory = {tmp_path}\n[probe]\ngrid_points = 101\n")
    assert run_subcommand("spectrum", cfg) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "delta_MHz,transmission"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == -30.0
    assert float(first[1]) >= 0.0


def test_spectrum_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cfg = parse_config(f"[output]\ndirectory = {out}\n[probe]\ngrid_points = 51\n")
        run_subcommand("spectrum", cfg)
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_saturation_command(tmp_path):
    cfg = parse_config(
        f"[output]\ndirectory = {tmp_path}\n[saturation]\npower_points = 11\n"
    )
    assert run_subcommand("saturation", cfg) == 0
    lines = (tmp_path / "saturation.csv").read_text().splitlines()
    assert lines[0] == "P_in_pW,transmission,n_roots,branch"
    assert len(lines) == 12
    cols = lines[1].split(",")
    assert cols[2] == "1" and cols[3] in ("low", "high")


def test_mode_profile_command(tmp_path):
    cfg = parse_config(
        f"[output]\ndirectory = {tmp_path}\n"
        "[mode]\nr_points = 3\nphi_points = 3\nz_points = 2\n"
    )
    assert run_subcommand("mode-profile", cfg) == 0
    lines = (tmp_path / "mode_profile.csv").read_text().splitlines()
    assert lines[0] == "r_nm,phi_rad,z_nm,g2_exact,g2_simplified"
    assert len(lines) == 1 + 3 * 3 * 2


def test_mode_profile_matches_pointwise_evaluation(tmp_path):
    cfg = parse_config(
        f"[output]\ndirectory = {tmp_path}\nformats = csv,svg\n"
        "[mode]\nr_points = 3\nphi_points = 3\nz_points = 2\n"
    )
    assert run_subcommand("mode-profile", cfg) == 0
    fit = cfg.mode_fit()
    p = fit.params
    r = np.linspace(p.r0, p.r0 + 300e-9, 3)
    phi = np.linspace(-math.pi / 4.0, math.pi / 4.0, 3)
    z = np.linspace(0.0, math.pi / p.beta, 2, endpoint=False)
    expect = [
        ",".join(f"{v:.9g}" for v in (
            ri * 1e9, pi, zi * 1e9,
            fiber_mode.g_squared_exact(p, ri, pi, zi),
            fiber_mode.g_squared_simplified(fit, ri, pi, zi),
        ))
        for ri in r for pi in phi for zi in z
    ]
    assert (tmp_path / "mode_profile.csv").read_text().splitlines()[1:] == expect
    assert (tmp_path / "mode_profile.svg").exists()


def test_normal_modes_command(capsys):
    assert run_subcommand("normal-modes", RunConfig()) == 0
    out = capsys.readouterr().out
    assert "gd1" in out and "splitting_bright" in out


def test_normal_modes_kv_keys(capsys):
    # scripts read these nine lines by key and in order; kappa_minus repeats kappa_plus
    assert main(["normal-modes", "--kv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "v_tilde", "gd1", "gd2", "kappa_d", "kappa_plus", "kappa_minus",
        "splitting_bright", "rabi_splitting", "resolved",
    ]
    assert lines[5].split("=")[1] == lines[4].split("=")[1]


def test_overflowing_normal_modes_exit_with_code_3(tmp_path, capsys):
    # rates of about 1e149 rad/s are accepted, and kappa_d overflows: one named line, no kappa_d=inf
    path = tmp_path / "fast.cfg"
    path.write_text("[physical]\nc_fiber = 1e150\n")
    assert main(["normal-modes", "--kv", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numeric failure: overflow: v_tilde=\S+e\+149, kappa_d=inf, kappa_plus=inf rad/s\n",
                        captured.err)


def test_validate_command(capsys):
    assert run_subcommand("validate", RunConfig()) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_main_spectrum_with_flags(tmp_path):
    code = main([
        "spectrum", "--out", str(tmp_path), "--svg",
        "--grid=-20:20:41", "--atoms", "none", "--lf", "0.83",
    ])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 42
    svg = (tmp_path / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # empty 0.83 m chain: symmetric triplet
    t = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(t - t[::-1])) < 1e-9


def test_main_band_flag(tmp_path):
    code = main(["spectrum", "--out", str(tmp_path), "--band", "1.0", "--grid=-15:15:31"])
    assert code == 0
    assert (tmp_path / "spectrum_band_low.csv").exists()
    assert (tmp_path / "spectrum_band_high.csv").exists()


@pytest.mark.parametrize("physical,keys", [
    ("alphaf = 0\ngamma_las = 0\n", "alphaf = 0 with gamma_las = 0"),
    ("gamma_par = 0\ngamma_las = 0\n", "gamma_par = 0 with gamma_las = 0"),
], ids=["kappa_b=0", "gamma_perp=0"])
def test_undamped_mode_on_resonance_exits_with_code_2(tmp_path, capsys, physical, keys):
    # the closed form has no steady state to normalise to: no NaN output, exit 2
    path = tmp_path / "undamped.cfg"
    path.write_text(f"[physical]\n{physical}")
    for command in ("spectrum", "saturation"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert keys in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
    for command in ("params", "normal-modes", "validate"):
        assert main([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("cavity", [1, 2])
def test_zero_g0_exits_with_code_2(tmp_path, capsys, cavity):
    # g0 is [physical] g1_0 or g2_0; a zero there is a config error naming the key, not a
    # division by zero
    path = tmp_path / "sat.cfg"
    path.write_text(f"[physical]\ng{cavity}_0 = 0\n[saturation]\nwhich_cavity = {cavity}\n")
    with pytest.raises(ConfigError, match=rf"\[physical\] g{cavity}_0"):
        _saturation_config(parse_config(path.read_text()))
    assert main(["saturation", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"[physical] g{cavity}_0" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
    path.write_text(f"[physical]\ng{cavity}_0 = 0.9\n[saturation]\nwhich_cavity = {cavity}\n")
    assert main(["saturation", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, config, flags, name", [
    ("spectrum", "", ["--grid=-30:nan:5"], "grid_max"),
    ("spectrum", "", ["--grid=-inf:30:5"], "grid_min"),
    ("spectrum", "[probe]\ngrid_max = nan\n", [], "grid_max"),
    ("spectrum", "", ["--band", "nan"], "--band"),
    ("spectrum", "", ["--band", "inf"], "--band"),
    ("saturation", "[saturation]\npower_max_pW = nan\n", [], "power_max_pW"),
    ("saturation", "[saturation]\npower_max_pW = inf\n", [], "power_max_pW"),
    ("saturation", "[saturation]\nmodel = quadrature\nsigma_y_over_x0 = nan\n", [],
     "sigma_y_over_x0"),
    ("saturation", "[saturation]\npower_min_pW = 0\n", [], "power_min_pW"),
    ("saturation", "[saturation]\npower_points = 0\n", [], "power_points"),
    ("saturation", "[saturation]\npower_points = -3\n", [], "power_points"),
    ("saturation", "[saturation]\npower_min_pW = 10\npower_max_pW = 1\n", [], "power_min_pW"),
    ("spectrum", "", ["--band", "-1"], "--band"),
    ("spectrum", "", ["--band", "0"], "--band"),
    ("mode-profile", "[mode]\nr_points = 0\n", [], "[mode] r_points"),
    ("mode-profile", "[mode]\nphi_points = 0\n", [], "[mode] phi_points"),
    ("mode-profile", "[mode]\nz_points = 0\n", [], "[mode] z_points"),
    ("mode-profile", "[mode]\nr_points = -2\n", [], "[mode] r_points"),
    ("mode-profile", "[mode]\nr_span_nm = nan\n", [], "[mode] r_span_nm"),
    ("mode-profile", "[mode]\nr_span_nm = -5\n", [], "[mode] r_span_nm"),
    ("mode-profile", "[mode]\nr_span_nm = 1e12\n", [], "[mode] r_span_nm"),
    ("mode-profile", "[mode]\nbeta = 1e6\n", [], "beta=1000000.0"),
    ("mode-profile", "[mode]\nn2 = 2\n", [], "n2*k"),
    ("mode-profile", "[mode]\nbeta = nan\n", [], "beta=nan"),
    ("mode-profile", "[mode]\ns = nan\n", [], "s=nan"),
    ("saturation", "[mode]\ns = nan\n", [], "s=nan"),
    ("mode-profile", "[mode]\na = -1\n", [], "a=-1.0"),
    ("saturation", "[atoms]\ng1_eff = 0\n", [], "([atoms] g1_eff / [physical] g1_0)"),
    ("saturation", "[physical]\ng1_0 = 1e-300\n", [], "([atoms] g1_eff / [physical] g1_0)"),
    ("saturation", "[physical]\ng1_0 = 1e-300\n[atoms]\ng1_eff = 1e-299\n", [], "[physical] g1_0"),
    ("saturation", "[physical]\ng1_0 = 1e-160\n[atoms]\ng1_eff = 1e-155\n", [], "[physical] g1_0"),
    ("saturation", "[physical]\ngamma_par = 0\n", [], "[physical] gamma_par"),
    ("spectrum", "[atoms]\ng1_eff = 1e300\n", [], "rate g1_eff="),
    ("params", "[physical]\ngamma_par = 3e147\n", [], "rate gamma_par="),
    ("spectrum", "", ["--band", "1e300"], "--band"),
    ("spectrum", "[atoms]\ng2_eff = 2e147\n", ["--band", "2e147"], "--band"),
    ("params", "", ["--grid=-30:nan:5"], "grid_max"),
    ("normal-modes", "[probe]\ngrid_points = 1\n", [], "at least 2 points"),
], ids=["grid-max-nan", "grid-min-inf", "probe-grid_max-nan", "band-nan", "band-inf",
        "power_max_pW-nan", "power_max_pW-inf", "sigma_y_over_x0-nan",
        "power_min_pW-zero", "power_points-zero", "power_points-negative", "power-bounds-reversed",
        "band-negative", "band-zero", "r_points-zero", "phi_points-zero", "z_points-zero",
        "r_points-negative", "r_span_nm-nan", "r_span_nm-negative", "r_span_nm-huge",
        "beta-unguided", "n2-unguided", "beta-nan", "s-nan", "s-nan-saturation", "a-negative",
        "derived-N_eff-zero", "derived-N_eff-overflow", "g1_0-squared-underflow",
        "g1_0-n_sat-overflow", "gamma_par-zero", "g1_eff-square-overflow", "gamma_par-square-overflow",
        "band-square-overflow", "shifted-coupling-square-overflow", "params-grid-max-nan",
        "normal-modes-one-point"])
def test_non_finite_input_exits_with_code_2(tmp_path, capsys, command, config, flags, name):
    # each bad input exits 2 before any output, and the message names its key or flag
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    assert name in capsys.readouterr().err
    assert list(tmp_path.rglob("*.csv")) == []


def test_overflowing_detuning_grid_exits_with_code_3(tmp_path, capsys):
    # out at +-1e300 MHz |Delta|^2 is inf - inf = NaN: a named failure, not NaN rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # numpy's overflow warnings
        assert main(["spectrum", "--out", str(tmp_path), "--grid=-1e300:1e300:5"]) == 3
        assert "|Delta| overflowed" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        # out at +-1e150 MHz |Delta|^2 overflows to inf, not NaN, and T = 0 there
        assert main(["spectrum", "--out", str(tmp_path), "--grid=-1e150:1e150:5"]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows == ["delta_MHz,transmission", "-1e+150,0", "-5e+149,0", "0,0.00396812394",
                    "5e+149,0", "1e+150,0"]


@pytest.mark.parametrize("r0", ["1e-3", "400", "1.33e-4"])
@pytest.mark.parametrize("command", ["saturation", "mode-profile"])
def test_far_trap_minimum_exits_with_code_2(tmp_path, capsys, command, r0):
    # from about 128 um out the exact intensity at r0 is subnormal, and from about 135 um it
    # underflows: a named error, not a degraded or NaN fit
    path = tmp_path / "far.cfg"
    path.write_text(f"[mode]\nr0 = {r0}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert f"trap minimum r0={float(r0)!r}" in err and "Warning" not in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("svg", ["none", "flag", "formats"])
@pytest.mark.parametrize("command, flags, names", [
    ("spectrum", ["--band", "0.5", "--grid=-10:10:21"],
     {"spectrum.csv", "spectrum_band_low.csv", "spectrum_band_high.csv"}),
    ("saturation", [], {"saturation.csv"}),
    ("mode-profile", [], {"mode_profile.csv"}),
])
def test_each_command_writes_its_files(tmp_path, command, flags, names, svg):
    # CSV is canonical and always written; only the main result gets an SVG, never a band
    path = tmp_path / "run.cfg"
    path.write_text("[saturation]\npower_points = 3\n[mode]\nr_points = 2\n"
                    + ("[output]\nformats = svg\n" if svg == "formats" else ""))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out), *flags]
    assert main(argv + (["--svg"] if svg == "flag" else [])) == 0
    stem = command.replace("-", "_")
    expect = names | ({f"{stem}.svg"} if svg != "none" else set())
    assert {p.name for p in out.iterdir()} == expect


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[physical]\nT1 = 1.5\n")
    assert main(["params", "--config", str(bad)]) == 2
    assert main(["params", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["spectrum", "--out", str(tmp_path), "--grid", "nonsense"]) == 2
    assert main(["params"]) == 0


@pytest.mark.parametrize("command", ["spectrum", "normal-modes", "saturation"])
@pytest.mark.parametrize("key, value, rate", [
    ("c_fiber", "1e300", "kappa_1l"), ("L1", "1e-300", "kappa_1l"), ("Lf", "1e-300", "kappa_bloss"),
])
def test_derived_rate_whose_square_overflows_exits_with_code_2(tmp_path, capsys, command, key, value, rate):
    # the solvers square every rate: one whose square overflows is a config error naming its keys
    path = tmp_path / "run.cfg"
    path.write_text(f"[physical]\n{key} = {value}\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: rate {rate}=")
    assert key in err.split(" rad/s, from [physical] ")[1].split(", must be")[0].split(", ")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command", ["params", "spectrum", "normal-modes", "saturation"])
def test_gamma_perp_whose_square_underflows_exits_with_code_2(tmp_path, capsys, command):
    # gamma_perp = 3.1e-161 rad/s: its square underflows, and the spectrum read "|Delta| overflowed"
    path = tmp_path / "run.cfg"
    path.write_text("[physical]\ngamma_par = 1e-167\ngamma_las = 0\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rate gamma_perp=3.14")
    assert " rad/s, from [physical] gamma_par, gamma_las, must be 0 " in err
    assert list(tmp_path.glob("*.csv")) == []


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    """`python -m fiberqed.cli ARGV` in a fresh interpreter, with this package on the path."""
    src = os.path.dirname(os.path.dirname(fiber_mode.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "fiberqed.cli", *argv], env=env,
                          capture_output=True, text=True)


def test_numeric_failure_is_its_one_stderr_line(tmp_path):
    # no numpy warning precedes the error, or prints when the run succeeds
    def spectrum(grid):
        return _cli_process("spectrum", "--out", str(tmp_path), f"--grid={grid}")

    failed = spectrum("-1e300:1e300:5")
    assert (failed.returncode, failed.stderr) == (
        3, "numeric failure: |Delta| overflowed to NaN: the detunings or couplings are too large\n")
    wide = spectrum("-1e150:1e150:5")
    assert (wide.returncode, wide.stderr) == (0, "")


@pytest.mark.parametrize("command, config, flags, code, stderr", [
    ("params", "", [], 0, ""),
    ("params", "[physical]\nLff = 1.0\n", [], 2, "config error: unknown key 'Lff' in section [physical]\n"),
    ("spectrum", "", ["--grid=-1e300:1e300:5"], 3,
     "numeric failure: |Delta| overflowed to NaN: the detunings or couplings are too large\n"),
], ids=["ok", "config-error", "numeric-failure"])
def test_process_exit_code_is_main_s(tmp_path, command, config, flags, code, stderr):
    # the process entry point exits with main's code and adds nothing to its output
    path = tmp_path / "run.cfg"
    path.write_text(config)
    proc = _cli_process(command, "--config", str(path), "--out", str(tmp_path), *flags)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert proc.stdout.startswith("parameter") == (code == 0)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["params"], ["normal-modes", "--kv"], ["params", "--grid", "nonsense"]])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, enabled):
    # only the process entry point, run(), disables and freezes the collector
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_installed_command_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {"fiberqed": "fiberqed.cli:run"}


def test_closed_form_with_a_cloud_width_exits_with_code_2(tmp_path, capsys):
    # the closed form is the sigma_y_over_x0 = 0 rule: a width names both keys, before any output
    path = tmp_path / "closed.cfg"
    path.write_text("[saturation]\nmodel = closed_form\nsigma_y_over_x0 = 0.3\n")
    for command in ("params", "saturation"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: model = closed_form needs sigma_y_over_x0 = 0, not 0.3: "
            "a cloud of nonzero width takes model = quadrature\n")
    assert not (tmp_path / "saturation.csv").exists()
    path.write_text("[saturation]\nmodel = quadrature\nsigma_y_over_x0 = 0.3\n")
    assert main(["saturation", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("flags, line, overridden", [
    (["--lf", "0.83"], "[physical]\nLf = 0.83\n", "[physical]\nLf = long\n"),
    (["--atoms", "cavity2"], "[atoms]\nloading = cavity2\n", "[atoms]\nloading = everywhere\n"),
    (["--svg"], "[output]\nformats = csv,svg\n", "[output]\nformats = pdf\n"),
    (["--grid=-20:20:41"], "[probe]\ngrid_min = -20\ngrid_max = 20\ngrid_points = 41\n",
     "[probe]\ngrid_points = 1\n"),
], ids=["lf", "atoms", "svg", "grid"])
def test_a_flag_is_the_config_line_it_names(tmp_path, flags, line, overridden):
    # the flag writes the files of its line, byte for byte, and wins over the file's own line,
    # which is then never read: not even one that would be a config error
    def files(name, config, argv):
        path, out = tmp_path / f"{name}.cfg", tmp_path / name
        path.write_text(config)
        assert main(["spectrum", "--config", str(path), "--out", str(out), "--band", "0.5", *argv]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    by_line = files("line", line, [])
    assert files("flag", "", flags) == by_line
    assert files("both", overridden, flags) == by_line


def test_out_flag_wins_over_the_output_directory_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"[output]\ndirectory = {tmp_path / 'line'}\n")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["flag"]
    assert (tmp_path / "flag" / "spectrum.csv").exists()


def test_band_spectra_are_one_stacked_call_equal_to_three_calls_bit_for_bit(tmp_path):
    # 5001 points (two spectrum blocks); the band is wider than g1, so the low curve has no
    # atoms left, and cavity 2 is empty in all three curves
    from fiberqed.linear_response import transmission_spectrum
    path = tmp_path / "run.cfg"
    path.write_text("[atoms]\nloading = cavity1\ng1_eff = 0.4\n")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path), "--band", "0.7",
                 "--grid=-40:40:5001"]) == 0
    rates = derive_rates(parse_config(path.read_text()).physical_config())
    grid = np.linspace(mhz(-40.0), mhz(40.0), 5001)
    g = np.array([[mhz(0.4), 0.0], [0.0, 0.0], [mhz(0.4) + mhz(0.7), 0.0]])
    stacked = transmission_spectrum(rates, g[:, :1], g[:, 1:], grid=grid).transmission
    for name, (g1, g2), row in zip(("spectrum", "spectrum_band_low", "spectrum_band_high"), g, stacked):
        t = transmission_spectrum(rates, g1, g2, grid=grid).transmission
        assert row.tolist() == t.tolist()
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        assert rows == [f"{d:.9g},{x:.9g}" for d, x in zip(to_mhz(grid).tolist(), t.tolist())]


@pytest.mark.parametrize("grid, message", [
    ("-20:20", "bad --grid specification '-20:20'"),
    ("-20:20:41:5", "bad --grid specification '-20:20:41:5'"),
    ("a:1:5", "bad value for 'grid_min' in [probe]: 'a'"),
    ("-20:20:41.5", "bad value for 'grid_points' in [probe]: '41.5'"),
])
def test_bad_grid_flag_names_itself_or_its_key_and_exits_with_code_2(tmp_path, capsys, grid, message):
    assert main(["spectrum", "--out", str(tmp_path), f"--grid={grid}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["params", "spectrum", "normal-modes"])
def test_cloud_width_is_checked_for_every_command(tmp_path, capsys, command, sigma):
    path = tmp_path / "run.cfg"
    path.write_text(f"[saturation]\nmodel = quadrature\nsigma_y_over_x0 = {sigma}\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"config error: sigma_y_over_x0={float(sigma)!r} must be non-negative and finite\n")
    assert not (tmp_path / "out").exists()


def test_a_root_beyond_the_scan_exits_with_code_3(tmp_path, capsys):
    # g0 = 16 MHz (about 1e8 rad/s) with N_eff = 300: 23 of the 61 powers have two roots on the
    # scan and a third beyond it, an even count that used to be written as n_roots = 2, and is
    # named as such (no power lacks a sign change)
    path = tmp_path / "run.cfg"
    path.write_text("[physical]\ng1_0 = 16\n[atoms]\ng1_eff = 277.1\n")
    assert main(["saturation", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("numeric failure: saturation root bracketing failed: an even number "
                                       "of sign changes up to |X| = 1e3*sqrt(n_sat) leaves a root beyond "
                                       "the scan\n")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command, code", [
    ("params", 0), ("spectrum", 0), ("normal-modes", 0), ("validate", 0), ("saturation", 2), ("mode-profile", 2),
])
def test_mode_geometry_is_checked_by_the_commands_that_build_it(tmp_path, capsys, command, code):
    # at 780 nm the default beta is not guided; the [mode] geometry is checked when
    # ModeFunctionParams is built, which only saturation and mode-profile do
    path = tmp_path / "run.cfg"
    path.write_text("[physical]\nlambda_probe = 780e-9\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("config error: beta=7879250.0 is not guided")


#: Values far out of range: the library must name each failure, with no numpy warning.
_EXTREMES = ("0", "1e-300", "1e-160", "1e-80", "1e80", "1e160", "1e300", "-1", "nan", "inf")
_GRIDS = ("-1:1:3", "-30:30:7", "-1e80:1e80:5", "-1e300:1e300:3")
_FLOAT_KEYS = [(section, key) for section, keys in cli._DEFAULTS.items()
               for key, default in keys.items() if isinstance(default, float)]


def test_extreme_configs_fail_by_name_with_numpy_warnings_as_errors(tmp_path, capsys):
    # a seeded set of 1-3 extreme values per config, 30 configs per command, after the overflowed
    # empty-chain norm: exit 0, 2 or 3; a failure is one stderr line (a validate verdict is
    # FAIL lines on stdout), and every CSV cell written is finite
    rng = random.Random(0)
    cases = [("spectrum", "[physical]\nL1 = 1e-80\nLf = 1e-80\n", "-1:1:3")]
    for command in sorted(cli._COMMANDS):
        for _ in range(30):
            keys = rng.sample(_FLOAT_KEYS, rng.randint(1, 3))
            text = "".join(f"[{section}]\n{key} = {rng.choice(_EXTREMES)}\n" for section, key in keys)
            cases.append((command, text, rng.choice(_GRIDS)))
    results = []
    for i, (command, text, grid) in enumerate(cases):
        path, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([command, "--config", str(path), "--out", str(out), f"--grid={grid}"])
            except Warning as exc:
                pytest.fail(f"{command} --grid={grid} on {text!r}: {exc!r}")
        captured = capsys.readouterr()
        assert code in (0, 2, 3), (command, text)
        verdict = command == "validate" and code == 3 and "FAIL" in captured.out
        assert captured.err.count("\n") == (code != 0 and not verdict), (command, text, captured.err)
        for csv in out.glob("*.csv"):
            cells = [c for row in csv.read_text().splitlines()[1:] for c in row.split(",")]
            assert all(math.isfinite(float(c)) for c in cells if c not in ("low", "high")), (command, text)
        results.append((code, captured.err))
    assert results[0] == (3, "numeric failure: the empty-chain norm |Delta_0|^2 overflowed: "
                             "Delta_0 = 4.762255921201619e+182\n")
    assert not (tmp_path / "out0").exists()
    assert {code for code, _ in results} == {0, 2, 3}
