import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from fiberqed import fiber_mode
from fiberqed.cli import (
    ConfigError,
    RunConfig,
    format_config,
    main,
    parse_config,
    run_subcommand,
)
from fiberqed.params import PhysicalConfig, derive_rates, mhz, to_mhz


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
])
def test_removed_mode_keys_exit_with_code_2(tmp_path, section, key):
    # the fit supplies A_mf; the wavelength is [physical] lambda_probe and n1
    # is params.FIBER_INDEX
    path = tmp_path / "old.cfg"
    path.write_text(f"[{section}]\n{key} = 0.17\n")
    assert main(["params", "--config", str(path)]) == 2


def test_saturation_config_carries_the_fitted_mode_function():
    for text in ("", "[mode]\nr0 = 450e-9\n", "[physical]\nlambda_probe = 8.5e-7\n"):
        cfg = parse_config(text)
        fit = fiber_mode.fit_simplified(fiber_mode.make_mode_params(
            wavelength=cfg.physical.lambda_probe, r0=cfg.mode.r0,
        ))
        sat = cfg.saturation_config()
        assert sat.A_mf == fit.A_mf
        assert sat.q_prime_x0 == fit.qprime * cfg.mode.r0
        assert cfg.mode_params() == fit.params
    assert parse_config("").saturation_config().q_prime_x0 == pytest.approx(1.1165, abs=1e-4)


def test_mode_section_defaults_are_make_mode_params_defaults():
    p, m = fiber_mode.make_mode_params(), RunConfig().mode
    assert (m.beta, m.n2, m.s, m.a, m.r0) == (p.beta, p.n2, p.s, p.a, p.r0)


def test_cli_import_leaves_out_scipy_optimize_and_mpmath():
    src = os.path.dirname(os.path.dirname(fiber_mode.__file__))
    code = (
        "import sys, fiberqed.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'mpmath'))))"
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
            if f.name in {g.name for g in fields(getattr(RunConfig(), section))}
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
    with pytest.raises(ConfigError):
        parse_config("[output]\nformats = pdf\n")


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
    p = cfg.mode_params()
    r = np.linspace(p.r0, p.r0 + 300e-9, 3)
    phi = np.linspace(-math.pi / 4.0, math.pi / 4.0, 3)
    z = np.linspace(0.0, math.pi / p.beta, 2, endpoint=False)
    expect = [
        ",".join(f"{v:.9g}" for v in (
            ri * 1e9, pi, zi * 1e9,
            fiber_mode.g_squared_exact(p, ri, pi, zi),
            fiber_mode.g_squared_simplified(p, ri, pi, zi),
        ))
        for ri in r for pi in phi for zi in z
    ]
    assert (tmp_path / "mode_profile.csv").read_text().splitlines()[1:] == expect
    assert (tmp_path / "mode_profile.svg").exists()


def test_normal_modes_command(capsys):
    assert run_subcommand("normal-modes", RunConfig()) == 0
    out = capsys.readouterr().out
    assert "gd1" in out and "splitting_bright" in out


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


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[physical]\nT1 = 1.5\n")
    assert main(["params", "--config", str(bad)]) == 2
    assert main(["params", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["spectrum", "--out", str(tmp_path), "--grid", "nonsense"]) == 2
    assert main(["params"]) == 0
